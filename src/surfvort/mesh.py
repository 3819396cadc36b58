"""Indexed triangle meshes: OBJ I/O, topology validation, areas and normals.

A :class:`TriangleMesh` is the discrete stand-in for a smooth surface:
vertex positions plus counter-clockwise oriented triangles. Instances are
immutable after construction and safe for concurrent read access.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateTriangleError, MeshFormatError
from .numerics import FloatArray, readonly, write_rows

IntArray = NDArray[np.int64]

# Triangles with area below this fraction of (bbox diagonal)^2 count as degenerate.
DEGENERACY_FRACTION = 1e-12


class TriangleMesh:
    """Immutable indexed triangle mesh.

    Parameters
    ----------
    vertices : (V, 3) array of float
        Vertex positions.
    triangles : (F, 3) array of int
        Vertex-index triples, counter-clockwise when viewed from outside.
    """

    __slots__ = ("vertices", "triangles")

    def __init__(self, vertices, triangles) -> None:
        v = np.ascontiguousarray(vertices, dtype=np.float64)
        t = np.ascontiguousarray(triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshFormatError("vertices must have shape (V, 3)")
        if v.shape[0] == 0:
            raise MeshFormatError("mesh has no vertices")
        if not np.isfinite(v).all():
            raise MeshFormatError("vertices contain non-finite values")
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshFormatError("triangles must have shape (F, 3)")
        if t.shape[0] == 0:
            raise MeshFormatError("mesh has no triangles")
        if t.min() < 0 or t.max() >= v.shape[0]:
            raise MeshFormatError("triangle vertex index out of range")
        if np.any(t[:, 0] == t[:, 1]) or np.any(t[:, 1] == t[:, 2]) or np.any(t[:, 2] == t[:, 0]):
            raise MeshFormatError("triangle repeats a vertex index")
        self.vertices: FloatArray = readonly(v)
        self.triangles: IntArray = readonly(t)

    @property
    def vertex_count(self) -> int:
        return self.vertices.shape[0]

    @property
    def face_count(self) -> int:
        return self.triangles.shape[0]

    def corners(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Positions of the three corners of every triangle, each (F, 3)."""
        v, t = self.vertices, self.triangles
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def undirected_edges(self) -> IntArray:
        """Unique undirected edges as a sorted (E, 2) index array."""
        keys = np.unique(self.edge_keys())
        return np.stack([keys // self.vertex_count, keys % self.vertex_count], axis=1)

    def _directed_edges(self) -> IntArray:
        t = self.triangles
        return np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])

    def edge_keys(self) -> IntArray:
        """int64 keys min * V + max of the edges (0, 1), then (1, 2), then (2, 0) of all faces.

        Shape (3F,): entry r * F + f belongs to face f. Equal keys mean the same
        undirected edge.
        """
        e = self._directed_edges()
        return e.min(axis=1) * self.vertex_count + e.max(axis=1)

    def degenerate_area_threshold(self) -> float:
        """Area below which a triangle is treated as degenerate."""
        ext = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return DEGENERACY_FRACTION * float(np.linalg.norm(ext)) ** 2

    def __repr__(self) -> str:
        return f"TriangleMesh(V={self.vertex_count}, F={self.face_count})"


@dataclass(frozen=True)
class TopologyReport:
    """Counts and flags produced by :func:`validate_closed_genus0`."""

    vertex_count: int
    edge_count: int
    face_count: int
    euler_characteristic: int
    boundary_edge_count: int
    is_oriented: bool
    min_triangle_area: float

    @property
    def is_closed_genus0(self) -> bool:
        return (
            self.euler_characteristic == 2
            and self.boundary_edge_count == 0
            and self.is_oriented
        )


def validate_closed_genus0(mesh: TriangleMesh) -> TopologyReport:
    """Report the topology counts a closed genus-zero surface must satisfy.

    Reports only; callers reject when ``euler_characteristic != 2``,
    ``boundary_edge_count != 0`` or ``is_oriented`` is false.
    """
    directed = mesh._directed_edges()
    _, counts = np.unique(mesh.edge_keys(), return_counts=True)
    n_directed_unique = np.unique(directed[:, 0] * mesh.vertex_count + directed[:, 1]).shape[0]
    # orientable as given: no directed edge repeats and no edge borders >2 faces
    oriented = bool(n_directed_unique == directed.shape[0] and counts.max(initial=0) <= 2)
    edge_count = counts.shape[0]
    boundary = int(np.count_nonzero(counts == 1))
    euler = mesh.vertex_count - edge_count + mesh.face_count
    return TopologyReport(
        vertex_count=mesh.vertex_count,
        edge_count=edge_count,
        face_count=mesh.face_count,
        euler_characteristic=euler,
        boundary_edge_count=boundary,
        is_oriented=oriented,
        min_triangle_area=float(face_areas(mesh).min()),
    )


# ---------------------------------------------------------------------------
# Geometric quantities
# ---------------------------------------------------------------------------

def face_areas(mesh: TriangleMesh) -> FloatArray:
    """Areas of all triangles, shape (F,)."""
    a, b, c = mesh.corners()
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def face_normals(mesh: TriangleMesh) -> FloatArray:
    """Unit normals of all triangles, shape (F, 3); degenerate faces raise."""
    a, b, c = mesh.corners()
    n = np.cross(b - a, c - a)
    norms = np.linalg.norm(n, axis=1)
    bad = np.nonzero(0.5 * norms <= mesh.degenerate_area_threshold())[0]
    if bad.size:
        raise DegenerateTriangleError(f"degenerate triangles: {bad[:8].tolist()}")
    return n / norms[:, None]


# ---------------------------------------------------------------------------
# Wavefront OBJ I/O (ASCII `v`/`f` records; normals and textures are ignored)
# ---------------------------------------------------------------------------

def load_obj(path: str | os.PathLike) -> TriangleMesh:
    """Load an ASCII Wavefront OBJ file.

    Faces with more than three corners are fan-triangulated. Face indices are
    1-based per the OBJ convention and may name only the vertices above their
    line; others raise :class:`MeshFormatError`. `vn`, `vt` and other records
    are ignored, as are the texture/normal slots of `f` tokens (``i/j/k``
    forms). One pass over the lines converts each `v` and `f` record whole into
    a flat list; the fan triangulation and the checks of values then run on
    arrays. A file with several faults reports its first, as ``path:line: ...``.
    """
    coords, idx, vertex_lines, face_lines, face_sizes = [], [], [], [], []

    def checked() -> tuple[FloatArray, IntArray]:
        """The vertices and fan triangles, raising for the first in file order of a non-finite
        vertex, a face index out of range and a face that repeats a vertex."""
        values = np.array(idx)  # float or object dtype if an index exceeds int64
        sizes = np.array(face_sizes, dtype=np.int64)
        limits = np.repeat(np.searchsorted(vertex_lines, face_lines), sizes)
        # fan triangulation: (first, c, next of c) for each corner c but a face's first and last
        starts = np.cumsum(sizes) - sizes
        middle = np.ones(values.size, dtype=bool)
        middle[starts] = middle[starts + sizes - 1] = False
        second = np.flatnonzero(middle)
        fan = np.stack([np.repeat(starts, sizes - 2), second, second + 1], axis=1)
        t, vertices = values[fan], np.array(coords).reshape(-1, 3)
        faults = []  # (line, message); of two on one line the range fault is reported
        if not np.isfinite(vertices).all():
            k = np.flatnonzero(~np.isfinite(vertices).all(axis=1))[0]
            faults.append((vertex_lines[k], "non-finite vertex coordinate"))
        if (bad := np.flatnonzero((values < 1) | (values > limits))).size:
            k = bad[0]  # a corner; the face that owns it is the last to start at or before it
            faults.append((face_lines[np.searchsorted(starts, k, "right") - 1],
                           f"face index {idx[k]} out of range (1..{limits[k]})"))
        if (bad := np.flatnonzero((t[:, 0] == t[:, 1]) | (t[:, 1] == t[:, 2]) | (t[:, 2] == t[:, 0]))).size:
            faults.append((face_lines[np.searchsorted(starts, fan[bad[0], 0])], "face repeats a vertex index"))
        if faults:
            line, message = min(faults, key=lambda f: f[0])
            raise MeshFormatError(f"{path}:{line}: {message}")
        return vertices, t.astype(np.int64) - 1

    def fault(lineno: int, message: str) -> MeshFormatError:
        checked()  # a fault on an earlier line comes first
        return MeshFormatError(f"{path}:{lineno}: {message}")

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            tokens = raw.split()
            if not tokens:
                continue
            tag = tokens[0]  # comments and all other record types are ignored
            if tag == "v":
                if len(tokens) < 4:
                    raise fault(lineno, "vertex record needs 3 coordinates")
                try:
                    coords += map(float, tokens[1:4])
                except ValueError as exc:
                    del coords[3 * len(vertex_lines):]
                    raise fault(lineno, "bad vertex coordinate") from exc
                vertex_lines.append(lineno)
            elif tag == "f":
                if len(tokens) < 4:
                    raise fault(lineno, "face record needs >= 3 indices")
                start = len(idx)
                try:
                    idx += map(int, tokens[1:])
                except ValueError:
                    del idx[start:]
                    try:
                        idx += [int(tok.split("/")[0]) for tok in tokens[1:]]
                    except ValueError as exc:
                        raise fault(lineno, "bad face index") from exc
                face_lines.append(lineno)
                face_sizes.append(len(tokens) - 1)
    vertices, triangles = checked()
    if not coords:
        raise MeshFormatError(f"{path}: no vertices")
    if not face_sizes:
        raise MeshFormatError(f"{path}: no faces")
    return TriangleMesh(vertices, triangles)


def save_obj(mesh: TriangleMesh, path: str | os.PathLike) -> None:
    """Write `v` lines then `f` lines, 1-based indices, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows(fh, "v %s %s %s\n", *mesh.vertices.T)
        write_rows(fh, "f %s %s %s\n", *(mesh.triangles + 1).T)
