import dataclasses

import numpy as np
import pytest
from scipy import stats

from surfvort import (
    LocationError,
    SphereLocator,
    TriangleMesh,
    position_of,
    sample_points,
)
from surfvort.mesh import face_areas
from surfvort.numerics import normalize_rows
from surfvort.shapes import icosphere
from surfvort.transport import clamp_bary

from helpers import brute_force_locate, identity_atlas


def one(tri, s, t):
    """Arrays (tri, st) for a single location."""
    return np.array([tri]), np.array([[s, t]], dtype=float)


def interpolate(mesh, values, tri, st):
    """ConformalAtlas.factor's h on `mesh` at the locations, with `values` as its per-vertex factors."""
    atlas = dataclasses.replace(identity_atlas(mesh), factors=np.asarray(values, float))
    return atlas.factor(position_of(mesh, tri, st), (tri, st))[0]


@pytest.fixture(scope="module")
def flat_mesh():
    return TriangleMesh(
        [[0, 0, 0], [2, 0, 0], [0, 3, 0], [2, 3, 0]],
        [[0, 1, 2], [1, 3, 2]],
    )


class TestSurfaceLocation:
    def test_clamps_tiny_negatives(self):
        st = clamp_bary([[-5e-11, 0.25]])
        assert st[0, 0] == 0.0
        assert st[0, 1] == 0.25

    def test_clamps_tiny_excess(self):
        st = clamp_bary([[0.6, 0.4 + 5e-11]])
        assert st[0, 0] + st[0, 1] <= 1.0

    def test_rejects_outside_slack(self):
        with pytest.raises(LocationError):
            clamp_bary([[-1e-3, 0.2]])
        with pytest.raises(LocationError):
            clamp_bary([[0.7, 0.5]])


class TestPositionOf:
    def test_corner_and_centroid(self, flat_mesh):
        np.testing.assert_array_equal(position_of(flat_mesh, *one(0, 0, 0))[0], [0, 0, 0])
        np.testing.assert_allclose(
            position_of(flat_mesh, *one(0, 1 / 3, 1 / 3))[0],
            np.mean([[0, 0, 0], [2, 0, 0], [0, 3, 0]], axis=0),
            atol=1e-15,
        )

    def test_roundtrip_against_barycentric_solve(self, flat_mesh, rng):
        # oracle: solve the 2x2 system for (s, t) directly
        i, j, k = flat_mesh.triangles[1]
        v = flat_mesh.vertices
        for _ in range(50):
            s, t = rng.random(2)
            if s + t > 1.0:
                s, t = 1.0 - s, 1.0 - t
            p = position_of(flat_mesh, *one(1, s, t))[0]
            e1, e2 = v[j] - v[i], v[k] - v[i]
            a = np.array([[e1 @ e1, e1 @ e2], [e1 @ e2, e2 @ e2]])
            b = np.array([(p - v[i]) @ e1, (p - v[i]) @ e2])
            s2, t2 = np.linalg.solve(a, b)
            assert abs(s2 - s) < 1e-12 and abs(t2 - t) < 1e-12

    def test_index_out_of_range(self, flat_mesh):
        with pytest.raises(LocationError):
            position_of(flat_mesh, *one(5, 0.1, 0.1))


class TestMapLocation:
    """A location names the same (triangle, bary) on the source mesh and its sphere image."""

    def test_vertex_maps_to_image_vertex(self, icosphere2):
        atlas = identity_atlas(icosphere2)
        loc = one(7, 1.0, 0.0)  # second corner of triangle 7
        vid = icosphere2.triangles[7][1]
        np.testing.assert_allclose(
            position_of(atlas.sphere_mesh, *loc)[0], atlas.sphere_positions[vid], atol=1e-15
        )

    def test_roundtrip_is_identity(self, icosphere2):
        atlas = identity_atlas(icosphere2)
        tri, st = one(3, 0.21, 0.34)
        p = normalize_rows(position_of(atlas.sphere_mesh, tri, st))
        back_tri, back_st = atlas.locator.locate(p, hints=tri)
        np.testing.assert_array_equal(back_tri, tri)
        np.testing.assert_allclose(back_st, st, atol=1e-12)

    def test_centroid_maps_to_centroid(self, icosphere2):
        atlas = identity_atlas(icosphere2)
        target = position_of(atlas.sphere_mesh, *one(11, 1 / 3, 1 / 3))[0]
        centroid = atlas.sphere_positions[icosphere2.triangles[11]].mean(axis=0)
        np.testing.assert_allclose(target, centroid, atol=1e-15)


class TestInterpolateScalar:
    """ConformalAtlas.factor's interpolation rule, checked on a flat mesh."""

    def test_vertex_value(self, flat_mesh):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        assert interpolate(flat_mesh, values, *one(0, 1.0, 0.0))[0] == 2.0

    def test_constant_field(self, flat_mesh, rng):
        values = np.full(4, 7.5)
        for _ in range(20):
            s, t = rng.random(2) / 2
            v = interpolate(flat_mesh, values, *one(1, s, t))[0]
            assert v == pytest.approx(7.5, abs=1e-12)

    def test_linear_field_exact(self, flat_mesh, rng):
        coeff = np.array([0.3, -1.2, 0.0])
        values = flat_mesh.vertices @ coeff + 0.4
        for _ in range(50):
            s, t = rng.random(2) / 2
            loc = one(0, s, t)
            expected = position_of(flat_mesh, *loc)[0] @ coeff + 0.4
            assert interpolate(flat_mesh, values, *loc)[0] == pytest.approx(expected, abs=1e-12)

    def test_bounded_by_corner_range(self, flat_mesh, rng):
        values = np.array([-2.0, 5.0, 1.0, 0.0])
        for _ in range(50):
            s, t = rng.random(2) / 2
            v = interpolate(flat_mesh, values, *one(1, s, t))[0]
            assert values.min() - 1e-12 <= v <= values.max() + 1e-12


class TestRelocate:
    def test_same_triangle_roundtrip(self, icosphere3):
        locator = SphereLocator(icosphere3)
        tri, st = one(100, 0.3, 0.4)
        p = normalize_rows(position_of(icosphere3, tri, st))
        found_tri, found_st = locator.locate(p, hints=[100])
        assert found_tri[0] == 100
        assert np.abs(found_st - st).max() < 1e-9

    def test_vertex_query(self, icosphere3):
        locator = SphereLocator(icosphere3)
        vid = 37
        p = icosphere3.vertices[[vid]]
        found = locator.locate(p, hints=[0])
        assert vid in icosphere3.triangles[found[0][0]]
        np.testing.assert_allclose(position_of(icosphere3, *found), p, atol=1e-9)

    def test_agrees_with_brute_force_oracle(self, blob_atlas, rng):
        mesh = blob_atlas.sphere_mesh
        locator = SphereLocator(mesh)
        points = normalize_rows(rng.normal(size=(10_000, 3)))
        hints = rng.integers(0, mesh.face_count, size=points.shape[0])
        got, _ = locator.locate(points, hints=hints)
        expected = [brute_force_locate(mesh, p) for p in points]
        mismatches = int(np.count_nonzero(got != expected))
        assert mismatches == 0

    def test_cold_walks_find_containing_triangles(self, blob_atlas, rng):
        # without hints every point starts at its nearest seed triangle
        mesh = blob_atlas.sphere_mesh
        points = normalize_rows(rng.normal(size=(2_000, 3)))
        tri, st = blob_atlas.locator.locate(points)
        v1, v2, v3 = (v[tri] for v in mesh.corners())
        normal = np.cross(v2 - v1, v3 - v1)
        along = np.einsum("ij,ij->i", normal, v1) / np.einsum("ij,ij->i", normal, points)
        np.testing.assert_allclose(position_of(mesh, tri, st), along[:, None] * points,
                                   rtol=0, atol=1e-12)
        interior = (st.min(axis=1) > 1e-9) & (st.sum(axis=1) < 1 - 1e-9)
        assert interior.mean() > 0.99
        expected = [blob_atlas.locator._brute_force(p)[0] for p in points[interior]]
        assert np.array_equal(tri[interior], expected)


def dict_neighbors(mesh):
    """Edge-adjacency table by a dict from each undirected edge to its first owner."""
    owner = {}
    neighbors = np.full((mesh.face_count, 3), -1, dtype=np.int64)
    for t, (i, j, k) in enumerate(mesh.triangles.tolist()):
        for c, edge in enumerate(((j, k), (k, i), (i, j))):
            key = tuple(sorted(edge))
            if key in owner:
                ot, oc = owner[key]
                neighbors[t, c], neighbors[ot, oc] = ot, t
            else:
                owner[key] = (t, c)
    return neighbors


class TestNeighbors:
    def test_matches_dict_reference_on_blob_atlas(self, blob_atlas):
        mesh = blob_atlas.sphere_mesh
        got = SphereLocator(mesh)._neighbors
        np.testing.assert_array_equal(got, dict_neighbors(mesh))
        assert got.min() >= 0

    def test_open_mesh_boundary_is_minus_one(self, icosphere2):
        mesh = TriangleMesh(icosphere2.vertices, icosphere2.triangles[:-3])
        got = SphereLocator._build_neighbors(mesh)
        np.testing.assert_array_equal(got, dict_neighbors(mesh))
        assert np.count_nonzero(got == -1) > 0


class TestSamplePoints:
    def test_two_triangle_area_weights(self):
        mesh = TriangleMesh(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0]],
            [[0, 1, 2], [0, 2, 3]],
        )
        tri, _ = sample_points(mesh, [1.0, 3.0], 100_000, seed=5)
        freq = np.bincount(tri, minlength=2) / 100_000
        assert abs(freq[0] - 0.25) < 0.02
        assert abs(freq[1] - 0.75) < 0.02

    def test_equal_weights_uniform(self, icosphere2):
        n = 100_000
        f = icosphere2.face_count
        tri, _ = sample_points(icosphere2, np.ones(f), n, seed=11)
        counts = np.bincount(tri, minlength=f)
        assert stats.chisquare(counts).pvalue > 0.01

    def test_seed_determinism(self, icosphere2):
        areas = face_areas(icosphere2)
        a_tri, a_st = sample_points(icosphere2, areas, 500, seed=123)
        b_tri, b_st = sample_points(icosphere2, areas, 500, seed=123)
        np.testing.assert_array_equal(a_tri, b_tri)
        np.testing.assert_array_equal(a_st, b_st)

    def test_monte_carlo_rate(self, icosphere2):
        # frequency error shrinks ~1/sqrt(N) between 1e4 and 1e5 draws
        areas = face_areas(icosphere2)
        weights = areas / areas.sum()
        errs = []
        for n in (10_000, 100_000):
            tri, _ = sample_points(icosphere2, areas, n, seed=77)
            freq = np.bincount(tri, minlength=len(areas)) / n
            errs.append(np.linalg.norm(freq - weights))
        assert errs[1] < errs[0] / 1.8

    def test_validation(self, icosphere2):
        with pytest.raises(ValueError):
            sample_points(icosphere2, np.ones(3), 10, seed=0)
        with pytest.raises(ValueError):
            sample_points(icosphere2, -np.ones(icosphere2.face_count), 10, seed=0)
