"""Barycentric transport between a mesh and its sphere image, plus sampling.

A point on a mesh is a triangle index plus barycentric coordinates (s, t),
with corner weights (1 - s - t, s, t). Locations are held as a pair of
arrays, ``tri`` (int64, shape (n,)) and ``st`` (float64, shape (n, 2)).
Because the conformal map keeps triangle indices, the same pair locates a
point on the source mesh and on its sphere image; only the mesh it is
evaluated against changes, which makes the map bijective by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import LocationError
from .mesh import IntArray, TriangleMesh
from .numerics import FloatArray

# Slack tolerated (and clamped away) on barycentric coordinates.
BARY_SLACK = 1e-10

# Containment slack for the gnomonic point-in-triangle test.
GNOMONIC_EPS = 1e-12

SEEDS, SEED_ROWS = 256, 1024  # hintless walks start at the nearest of ~256 triangles


def clamp_bary(st) -> FloatArray:
    """Clamp barycentric (s, t) rows onto the simplex within a 1e-10 slack.

    Coordinates further outside raise :class:`LocationError`. An excess of
    s + t over 1 is shaved off the larger coordinate (s on ties).
    """
    st = np.array(st, dtype=np.float64).reshape(-1, 2)
    s, t = st[:, 0], st[:, 1]
    bad = (s < -BARY_SLACK) | (t < -BARY_SLACK) | (s + t > 1.0 + BARY_SLACK)
    if bad.any():
        raise LocationError(f"barycentric coordinates outside simplex: {st[bad][0].tolist()}")
    st = st.clip(0.0, 1.0)
    excess = np.maximum(st.sum(axis=1) - 1.0, 0.0)
    st[np.arange(st.shape[0]), (st[:, 1] > st[:, 0]).astype(np.intp)] -= excess
    return st


def position_of(mesh: TriangleMesh, tri, st) -> FloatArray:
    """Embedded positions p1 + s (p2 - p1) + t (p3 - p1) of locations, (n, 3)."""
    tri = np.asarray(tri, dtype=np.int64)
    st = np.asarray(st, dtype=np.float64)
    if np.any((tri < 0) | (tri >= mesh.face_count)):
        raise LocationError(f"triangle index out of range 0..{mesh.face_count - 1}")
    v = mesh.vertices
    i, j, k = mesh.triangles[tri].T
    return v[i] + st[:, :1] * (v[j] - v[i]) + st[:, 1:] * (v[k] - v[i])


class SphereLocator:
    """Point location on a sphere mesh via gnomonic containment tests.

    For a unit vector p, the containing triangle is the one whose radial
    (central) projection covers p: solve p = a*v1 + b*v2 + c*v3 and test
    a, b, c >= -eps. Each query walks across edges from a hint or seed triangle
    and falls back to a vectorized sweep over all triangles after 2F visited.
    """

    def __init__(self, mesh: TriangleMesh) -> None:
        self.mesh = mesh
        v1, v2, v3 = mesh.corners()
        corners = np.stack([v1, v2, v3], axis=2)  # (F, 3, 3), columns = corners
        try:
            self._inv = np.linalg.inv(corners)
        except np.linalg.LinAlgError as exc:
            raise LocationError("sphere mesh has a triangle coplanar with the origin") from exc
        self._neighbors = self._build_neighbors(mesh)
        self._seeds = np.arange(0, mesh.face_count, max(1, mesh.face_count // SEEDS))
        self._centroids = (v1[self._seeds] + v2[self._seeds] + v3[self._seeds]) / 3.0

    @staticmethod
    def _build_neighbors(mesh: TriangleMesh) -> IntArray:
        """neighbors[t, c] = triangle across the edge opposite corner c (-1 if none).

        The edges opposite each corner are sorted by their vertex-pair key and
        equal neighbours in that order are paired.
        """
        n_faces = mesh.face_count
        keys = mesh.edge_keys()  # edges (0, 1), (1, 2), (2, 0): opposite corners 2, 0, 1
        order = np.argsort(keys, kind="stable")
        pair = np.nonzero(keys[order[1:]] == keys[order[:-1]])[0]
        first, second = order[pair], order[pair + 1]
        neighbors = np.full(3 * n_faces, -1, dtype=np.int64)
        neighbors[first] = second % n_faces
        neighbors[second] = first % n_faces
        return np.ascontiguousarray(neighbors.reshape(3, n_faces).T[:, [1, 2, 0]])

    def locate(self, points, hints=None) -> tuple[IntArray, FloatArray]:
        """Containing triangles (n,) and barycentric (s, t) (n, 2) of unit vectors.

        All points walk together: each step tests every point still walking
        against its current triangle and moves the ones outside across the
        edge opposite their most negative coordinate. Without hints a point starts
        at the seed whose centroid has the largest dot with it; hints outside the
        face range start from triangle 0.
        """
        p = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        faces = self.mesh.face_count
        tri = np.zeros(p.shape[0], dtype=np.int64)
        if hints is None:  # SEED_ROWS points at a time bound the (rows, SEEDS) dots
            for s in range(0, len(p), SEED_ROWS):
                dots = p[s:s + SEED_ROWS] @ self._centroids.T
                tri[s:s + SEED_ROWS] = self._seeds[dots.argmax(axis=1)]
        else:
            hints = np.asarray(hints, dtype=np.int64)
            tri = np.where((hints >= 0) & (hints < faces), hints, 0)
        lam = np.empty_like(p)
        walking = np.arange(p.shape[0])
        lost = []  # points whose walk hit a boundary edge
        for _ in range(2 * faces):
            if walking.size == 0:
                break
            t = tri[walking]
            lam_w = np.matmul(self._inv[t], p[walking, :, None])[:, :, 0]
            lam[walking] = lam_w
            scale = np.maximum(1.0, np.abs(lam_w).max(axis=1))
            outside = ~(lam_w.min(axis=1) >= -GNOMONIC_EPS * scale)
            nxt = self._neighbors[t[outside], lam_w[outside].argmin(axis=1)]
            walking = walking[outside]
            lost.append(walking[nxt < 0])
            walking = walking[nxt >= 0]
            tri[walking] = nxt[nxt >= 0]
        for i in np.concatenate([walking, *lost]):
            tri[i], lam[i] = self._brute_force(p[i])
        b = np.clip(lam, 0.0, None)
        b /= b.sum(axis=1, keepdims=True)
        return tri, clamp_bary(b[:, 1:])

    def _brute_force(self, p: FloatArray) -> tuple[int, FloatArray]:
        lam = np.einsum("fij,j->fi", self._inv, p)
        scale = np.maximum(1.0, np.abs(lam).max(axis=1))
        inside = np.nonzero(lam.min(axis=1) >= -GNOMONIC_EPS * scale)[0]
        if inside.size == 0:
            raise LocationError("no triangle contains the query point (corrupt sphere mesh?)")
        t = int(inside[0])  # deterministic: lowest triangle index on ties
        return t, lam[t]


def sample_points(
    sphere_mesh: TriangleMesh,
    source_areas,
    count: int,
    seed: int,
) -> tuple[IntArray, FloatArray]:
    """Sample locations on the sphere mesh, weighted by source-mesh triangle areas.

    The triangle is drawn with probability proportional to the corresponding
    source triangle's area, so mapping the samples back to the source mesh
    reproduces its uniform area measure; within a triangle the barycentric
    coordinates are uniform over the simplex (square-root construction).
    Deterministic for a fixed seed.
    """
    source_areas = np.asarray(source_areas, dtype=np.float64)
    if source_areas.shape != (sphere_mesh.face_count,):
        raise ValueError("need one source area per triangle")
    if np.any(source_areas <= 0.0):
        raise ValueError("source areas must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    rng = np.random.default_rng(seed)
    tri = rng.choice(sphere_mesh.face_count, size=count, p=source_areas / source_areas.sum())
    r1 = rng.random(count)
    r2 = rng.random(count)
    sq = np.sqrt(r1)
    return tri.astype(np.int64), clamp_bary(np.stack([sq * (1.0 - r2), sq * r2], axis=1))
