import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from surfvort import (
    ConformalMapError,
    TopologyError,
    TriangleMesh,
    build_atlas,
    cmcf_to_sphere,
    conformal_log_factors,
    cotan_laplacian,
    triangle_gradient,
)
from surfvort import conformal
from surfvort.conformal import angle_distortions, edge_scale_residuals
from surfvort.shapes import ellipsoid, icosphere

from conftest import BLOB_TOL, ELLIPSOID_TOL
from helpers import (
    add_at_log_factors,
    add_at_lumped_mass,
    revolution_ellipsoid_factor,
    rotation_matrix,
    torus_mesh,
)


def flat_hex_patch():
    """Regular hexagon fan around a center vertex, all in the z = 0 plane."""
    verts = [[0.0, 0.0, 0.0]]
    for k in range(6):
        a = math.pi * k / 3.0
        verts.append([math.cos(a), math.sin(a), 0.0])
    tris = [[0, 1 + k, 1 + (k + 1) % 6] for k in range(6)]
    return TriangleMesh(np.array(verts), np.array(tris))


class TestCotanLaplacian:
    def test_tetrahedron_symmetric_weights(self):
        mesh = TriangleMesh(
            [[1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]],
            [[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]],
        )
        stiffness = cotan_laplacian(mesh)
        dense = stiffness.toarray()
        off = dense[~np.eye(4, dtype=bool)]
        np.testing.assert_allclose(off, off[0], atol=1e-14)

    def test_row_sums_vanish(self, ellipsoid4):
        stiffness = cotan_laplacian(ellipsoid4)
        assert np.abs(np.asarray(stiffness.sum(axis=1))).max() < 1e-10

    def test_off_diagonal_pattern_is_edge_pattern(self, icosphere2):
        stiffness = cotan_laplacian(icosphere2)
        coo = stiffness.tocoo()
        off = {(int(i), int(j)) for i, j, v in zip(coo.row, coo.col, coo.data) if i != j}
        edges = set()
        for i, j in icosphere2.undirected_edges():
            edges.add((int(i), int(j)))
            edges.add((int(j), int(i)))
        assert off == edges

    def test_linear_functions_are_harmonic_on_flat_patch(self):
        mesh = flat_hex_patch()
        stiffness = cotan_laplacian(mesh)
        for coeff in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.3, -0.7, 0.0]):
            f = mesh.vertices @ np.array(coeff)
            residual = stiffness @ f
            assert abs(residual[0]) < 1e-10  # interior vertex only

    def test_mass_sums_to_total_area(self, icosphere2):
        from surfvort.mesh import face_areas

        mass = conformal.lumped_mass(icosphere2.vertices, icosphere2.triangles)
        assert mass.sum() == pytest.approx(face_areas(icosphere2).sum(), rel=1e-12)

    def test_vertex_sums_match_corner_by_corner_accumulation(self, blob4, ellipsoid4):
        # the bincount sums add each vertex's terms in np.add.at's order, so bit for bit
        for mesh in (blob4, ellipsoid4):
            sphere = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
            for positions in (mesh.vertices, sphere):
                assert np.array_equal(conformal.lumped_mass(positions, mesh.triangles),
                                      add_at_lumped_mass(positions, mesh.triangles))
            assert np.array_equal(conformal_log_factors(mesh, sphere),
                                  add_at_log_factors(mesh, sphere))


def checked_flow(monkeypatch, mesh, **kwargs):
    """cmcf_to_sphere with its LU factorizations counted and every CG solve
    compared with a direct splu solve of the same system."""
    factored = []
    pcg = conformal._pcg

    def counting_splu(lhs, **kw):
        factored.append(lhs.shape)
        return splu(lhs, **kw)

    def checked_pcg(lhs, rhs, x, precondition):
        got = pcg(lhs, rhs, x, precondition)
        assert got is not None
        np.testing.assert_allclose(got, splu(lhs).solve(rhs), rtol=0.0, atol=1e-11)
        return got

    with monkeypatch.context() as m:
        m.setattr(conformal, "splu", counting_splu)
        m.setattr(conformal, "_pcg", checked_pcg)
        result = cmcf_to_sphere(mesh, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(conformal, "_pcg", lambda *args: None)  # every step factors
        direct = cmcf_to_sphere(mesh, **kwargs)
    return result, direct, len(factored)


class TestCmcf:
    def test_unit_icosphere_is_fixed_point(self, icosphere3):
        result = cmcf_to_sphere(icosphere3)
        assert result.converged
        assert result.iterations_used <= 2
        assert result.sphericity_residual < 1e-6
        np.testing.assert_allclose(np.linalg.norm(result.positions, axis=1), 1.0, atol=1e-12)

    def test_ellipsoid_converges_to_resolution_floor(self, ellipsoid4):
        # measured discretization floor of the 2562-vertex ellipsoid is ~2.4e-3
        # (max-over-vertices sphericity); see the decisions notes
        result = cmcf_to_sphere(ellipsoid4, tol=4e-3)
        assert result.converged
        assert result.sphericity_residual < 4e-3

    def test_torus_rejected(self):
        with pytest.raises(TopologyError):
            cmcf_to_sphere(torus_mesh())

    def test_open_mesh_rejected(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        with pytest.raises(TopologyError):
            cmcf_to_sphere(mesh)

    def test_nonconvergence_flagged(self, ellipsoid4):
        result = cmcf_to_sphere(ellipsoid4, max_iters=2, tol=1e-6)
        assert not result.converged
        assert result.iterations_used == 2

    def test_rigid_motion_invariance(self):
        mesh = ellipsoid(1.0, 1.0, 1.5, subdivisions=3)
        rot = rotation_matrix([0.3, -0.7, 0.45], 1.1)
        moved = TriangleMesh(mesh.vertices @ rot.T, mesh.triangles)
        a = build_atlas(mesh, tol=1e-2)
        b = build_atlas(moved, tol=1e-2)
        assert abs(a.sphericity_residual - b.sphericity_residual) < 1e-6
        for stat in (np.min, np.max, np.median):
            assert abs(stat(a.factors) - stat(b.factors)) < 1e-6

    def assert_same_flow(self, result, direct):
        assert result.iterations_used == direct.iterations_used
        assert result.converged == direct.converged
        assert result.sphericity_residual == pytest.approx(direct.sphericity_residual, rel=1e-9)
        np.testing.assert_allclose(result.positions, direct.positions, rtol=0.0, atol=1e-10)

    def test_blob_factors_twice(self, monkeypatch, blob4):
        # the mass spread passes MAX_MASS_SPREAD = 1.5 once in the blob's 18 steps
        result, direct, factors = checked_flow(monkeypatch, blob4, tol=BLOB_TOL)
        assert factors == 2
        assert result.converged and result.iterations_used > 10
        self.assert_same_flow(result, direct)

    def test_preset_ellipsoid_flow_matches_fresh_factors(self, monkeypatch, ellipsoid4):
        # the mesh of every mesh preset, at the presets' tol: 25 steps on 3 factors
        result, direct, factors = checked_flow(monkeypatch, ellipsoid4, tol=ELLIPSOID_TOL)
        assert 2 <= factors < result.iterations_used
        assert result.converged
        self.assert_same_flow(result, direct)

    def test_elongated_ellipsoid_refactors(self, monkeypatch):
        # a coarse 1:2:5 ellipsoid: the mass moves fast early on and the
        # mass-spread rule factors afresh several times
        mesh = ellipsoid(1.0, 2.0, 5.0, subdivisions=3)
        result, direct, factors = checked_flow(monkeypatch, mesh, tol=1e-2, max_iters=60)
        assert 3 <= factors < result.iterations_used
        self.assert_same_flow(result, direct)

    def test_flow_does_not_depend_on_labelling(self, blob4, rng):
        vperm = rng.permutation(blob4.vertex_count)
        fperm = rng.permutation(blob4.face_count)
        relabel = np.argsort(vperm)
        shuffled = TriangleMesh(blob4.vertices[vperm], relabel[blob4.triangles[fperm]])
        result = cmcf_to_sphere(blob4, tol=BLOB_TOL)
        moved = cmcf_to_sphere(shuffled, tol=BLOB_TOL)
        assert moved.iterations_used == result.iterations_used
        assert moved.converged == result.converged
        np.testing.assert_allclose(moved.positions[relabel], result.positions, rtol=0.0, atol=1e-10)

    def test_factor_order_cuts_fill(self, monkeypatch, blob4):
        """Every kept factor (reverse Cuthill-McKee labels, then minimum degree
        on A + A^T with diagonal pivots) fills L + U at most 0.85x as much as
        a plain splu (COLAMD, partial pivoting) of the same matrix. Measured:
        0.65 for both factors here; against a plain splu of the input
        labelling, 0.61-0.78 on icospheres, ellipsoids and bumpy spheres at 4
        to 6 subdivisions, as built and under random relabellings."""
        kept = []

        def keeping_splu(lhs, **kw):
            kept.append((lhs, splu(lhs, **kw)))
            return kept[-1][1]

        monkeypatch.setattr(conformal, "splu", keeping_splu)
        cmcf_to_sphere(blob4, tol=BLOB_TOL)
        assert kept
        for lhs, factor in kept:
            plain = splu(lhs)
            assert factor.L.nnz + factor.U.nnz <= 0.85 * (plain.L.nnz + plain.U.nnz)

    def test_missed_cg_tolerance_factors_afresh(self, monkeypatch, blob4):
        calls = []

        def counting_splu(lhs, **kw):
            calls.append(1)
            return splu(lhs, **kw)

        monkeypatch.setattr(conformal, "splu", counting_splu)
        monkeypatch.setattr(conformal, "PCG_MAX_ITERS", 1)
        result = cmcf_to_sphere(blob4, tol=BLOB_TOL)
        assert len(calls) == result.iterations_used

    def test_bad_factor_solve_raises(self, monkeypatch, blob4):
        class WrongFactor:
            def __init__(self, lhs, **kw):
                pass

            def solve(self, rhs):
                return 0.5 * rhs

        monkeypatch.setattr(conformal, "splu", WrongFactor)
        with pytest.raises(ConformalMapError, match="exceeds 1e-10 at iteration 0"):
            cmcf_to_sphere(blob4, tol=BLOB_TOL)

    def test_bad_cg_solve_raises(self, monkeypatch, blob4):
        monkeypatch.setattr(conformal, "_pcg", lambda lhs, rhs, x, precondition: 1.01 * x)
        with pytest.raises(ConformalMapError, match="exceeds 1e-10 at iteration 1"):
            cmcf_to_sphere(blob4, tol=BLOB_TOL)

    def test_failed_factorization_raises(self, monkeypatch, blob4):
        def singular(lhs, **kw):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(conformal, "splu", singular)
        with pytest.raises(ConformalMapError, match="sparse solve failed at iteration 0"):
            cmcf_to_sphere(blob4, tol=BLOB_TOL)


class TestConformalFactors:
    def test_identity_map_gives_unit_factor(self, icosphere3):
        u = conformal_log_factors(icosphere3, np.array(icosphere3.vertices))
        assert np.abs(u).max() < 1e-12
        assert np.abs(np.exp(u) - 1.0).max() < 1e-12

    @pytest.mark.parametrize("radius", [0.5, 2.0, 5.0])
    def test_exact_scaling_gives_uniform_factor(self, icosphere3, radius):
        scaled = TriangleMesh(radius * icosphere3.vertices, icosphere3.triangles)
        u = conformal_log_factors(scaled, np.array(icosphere3.vertices))
        h = np.exp(u)
        assert np.abs(h - radius).max() / radius < 1e-6

    def test_scaling_equivariance(self, ellipsoid_atlas, ellipsoid4):
        s = 3.0
        scaled = TriangleMesh(s * ellipsoid4.vertices, ellipsoid4.triangles)
        u = conformal_log_factors(scaled, ellipsoid_atlas.sphere_positions)
        np.testing.assert_allclose(np.exp(u), s * ellipsoid_atlas.factors, rtol=1e-12)

    def test_edge_residual_on_converged_ellipsoid(self, ellipsoid_atlas):
        assert np.median(edge_scale_residuals(ellipsoid_atlas)) < 0.05

    def test_edge_residual_on_blob(self, blob_atlas):
        assert np.median(edge_scale_residuals(blob_atlas)) < 0.05

    def test_angle_distortion_median(self, ellipsoid_atlas, blob_atlas):
        for atlas in (ellipsoid_atlas, blob_atlas):
            assert np.degrees(np.median(angle_distortions(atlas))) < 2.0


class TestConformalOracle:
    def test_ellipsoid_factors_match_surface_of_revolution(self, ellipsoid_atlas, ellipsoid4):
        """The presets' ellipsoid(1, 1, 1.5) at 4 subdivisions, delta 0.1,
        tol 4e-3: per-vertex relative error of `atlas.factors` against the
        exact map. Measured: median 1.118e-2, max 2.313e-2 (the same to
        1e-15 under either factor ordering). The bounds pin today's map;
        a map that converges under refinement should tighten them."""
        exact = revolution_ellipsoid_factor(ellipsoid4.vertices, 1.5)
        rel = np.abs(ellipsoid_atlas.factors / exact - 1.0)
        assert np.median(rel) < 1.15e-2
        assert rel.max() < 2.4e-2


class TestTriangleGradient:
    def test_constant_field_gives_zero(self, icosphere2):
        grads = triangle_gradient(icosphere2, np.full(icosphere2.vertex_count, 4.2))
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_unit_right_triangle_x_field(self):
        mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
        grads = triangle_gradient(mesh, np.array([0.0, 1.0, 0.0]))
        np.testing.assert_allclose(grads[0], [1.0, 0.0, 0.0], atol=1e-15)

    def test_tangent_to_triangle_plane(self, blob_atlas):
        mesh = blob_atlas.sphere_mesh
        from surfvort.mesh import face_normals

        normals = face_normals(mesh)
        dots = np.abs(np.sum(blob_atlas.triangle_grad_h * normals, axis=1))
        assert dots.max() < 1e-10

    def test_linear_exactness_random_triangles(self, rng):
        worst = 0.0
        for _ in range(1000):
            tri = rng.normal(size=(3, 3))
            if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-3:
                continue
            mesh = TriangleMesh(tri, [[0, 1, 2]])
            coeff = rng.normal(size=3)
            grads = triangle_gradient(mesh, tri @ coeff)
            n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            n /= np.linalg.norm(n)
            expected = coeff - (coeff @ n) * n  # tangential part of the exact gradient
            worst = max(worst, np.linalg.norm(grads[0] - expected))
        assert worst < 1e-12


class TestAtlas:
    def test_invariants(self, ellipsoid_atlas):
        atlas = ellipsoid_atlas
        np.testing.assert_allclose(np.linalg.norm(atlas.sphere_positions, axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(atlas.factors, np.exp(atlas.log_factors))
        assert atlas.source_mesh.face_count == atlas.triangle_grad_h.shape[0]

    def test_factor_interpolation_matches_vertices(self, ellipsoid_atlas):
        tri = 42
        vid = ellipsoid_atlas.source_mesh.triangles[tri][0]
        h, _ = ellipsoid_atlas.factor(ellipsoid_atlas.sphere_positions[[vid]],
                                      (np.array([tri]), np.zeros((1, 2))))
        assert h[0] == pytest.approx(
            ellipsoid_atlas.factors[vid], abs=1e-15
        )
