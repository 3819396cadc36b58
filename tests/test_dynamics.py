import math

import numpy as np
import pytest

from surfvort import (
    ConformalAtlas,
    IntegratorConfig,
    SingularityError,
    VortexSystem,
    VorticityBalanceError,
    energy_diagnostics,
    green_plane,
    green_sphere,
    kinetic_energy,
    metric_hamiltonian,
    planar_field_velocity,
    position_of,
    sample_points,
    sphere_field_velocity,
    stream_function,
    surface_field_velocity,
    surface_vortex_velocities,
)
from surfvort.dynamics import (
    CLOSED_SURFACE,
    FEW_VORTICES,
    PAIR_BLOCK_PAIRS,
    PLANE,
    SPHERE,
    SurfaceVelocityEvaluator,
    _plane_velocities,
    _row_blocks,
    _sphere_pair_sum,
    make_rhs,
    nearest_vortex_distance,
)
from surfvort.integrator import run
from surfvort.kernels import EPS_CHORD_SQ, EPS_SEPARATION, sgrad_green_sphere
from surfvort.numerics import normalize_rows
from surfvort.shapes import icosphere

from helpers import (
    fd_energy_velocity,
    few_vortex_states,
    identity_atlas,
    mp_relative_error,
    mp_sgrad_sphere,
    near_sphere_pair,
    random_plane_system,
    random_sphere_system,
    vortex_velocities,
)

FOUR_PI = 4 * math.pi


def plane_system(points, strengths):
    return VortexSystem(PLANE, np.array(points, dtype=float), np.array(strengths, dtype=float))


class TestPlanarVelocities:
    def test_opposite_pair_moves_together(self):
        system = plane_system([[1, 0, 0], [-1, 0, 0]], [-1, 1])
        u = vortex_velocities(system)
        np.testing.assert_allclose(u, [[0, 1 / FOUR_PI, 0]] * 2, atol=1e-15)

    def test_single_vortex_is_still(self):
        u = vortex_velocities(plane_system([[0.3, -0.2, 0]], [2.5]))
        np.testing.assert_array_equal(u, np.zeros((1, 3)))

    def test_corotating_pair(self):
        system = plane_system([[1, 0, 0], [-1, 0, 0]], [1, 1])
        u = vortex_velocities(system)
        np.testing.assert_allclose(u[0], [0, 1 / FOUR_PI, 0], atol=1e-15)
        np.testing.assert_allclose(u[1], [0, -1 / FOUR_PI, 0], atol=1e-15)

    def test_near_coincident_raises(self):
        system = VortexSystem(PLANE, [[0, 0, 0], [1, 0, 0]], [1.0, 1.0])
        squeezed = np.array([[0, 0, 0], [5e-10, 0, 0]])
        with pytest.raises(SingularityError):
            vortex_velocities(VortexSystem(PLANE, squeezed, system.strengths, check=False))


class TestPlanarField:
    def test_single_vortex_field_value(self):
        system = plane_system([[0, 0, 0]], [1.0])
        u = planar_field_velocity([1.0, 0.0, 0.0], system)
        np.testing.assert_allclose(u, [0, 1 / (2 * math.pi), 0], atol=1e-15)

    def test_field_magnitude_decays_inversely(self, rng):
        w = 0.7
        system = plane_system([[0, 0, 0]], [w])
        for r in rng.uniform(0.1, 5.0, 50):
            u = planar_field_velocity([r, 0, 0], system)
            assert np.linalg.norm(u) == pytest.approx(abs(w) / (2 * math.pi * r), rel=1e-12)

    def test_bisector_symmetry(self):
        a = 0.8
        system = plane_system([[a, 0, 0], [-a, 0, 0]], [1.0, -1.0])
        direction = np.cross([0, 0, 1.0], [2 * a, 0, 0])
        for y in (0.5, -1.2, 2.0):
            u = planar_field_velocity([0.0, y, 0.0], system)
            assert np.linalg.norm(np.cross(u, direction)) < 1e-14

    def test_linearity_of_union(self, rng):
        sys_a = random_plane_system(rng, 3)
        sys_b = random_plane_system(np.random.default_rng(99), 4)
        union = VortexSystem(
            PLANE,
            np.concatenate([sys_a.positions, sys_b.positions]),
            np.concatenate([sys_a.strengths, sys_b.strengths]),
        )
        x = np.array([3.3, 2.1, 0.0])
        u = planar_field_velocity(x, union)
        np.testing.assert_allclose(
            u, planar_field_velocity(x, sys_a) + planar_field_velocity(x, sys_b), atol=1e-12
        )


class TestSphereVelocities:
    def test_orthogonal_pair(self):
        system = VortexSystem(SPHERE, [[1, 0, 0], [0, 1, 0]], [-1.0, 1.0])
        u = vortex_velocities(system)
        expected = np.cross([1, 0, 0], [0, 1, 0]) / FOUR_PI
        np.testing.assert_allclose(u[0], expected, atol=1e-15)
        np.testing.assert_allclose(u[1], expected, atol=1e-15)

    def test_single_vortex_is_still(self):
        u = vortex_velocities(VortexSystem(SPHERE, [[0, 0, 1]], [1.0]))
        np.testing.assert_array_equal(u, np.zeros((1, 3)))

    def test_close_opposite_pair_moves_along_cross(self):
        s = 0.05
        p1 = [math.cos(s), math.sin(s), 0.0]
        p2 = [math.cos(s), -math.sin(s), 0.0]
        system = VortexSystem(SPHERE, [p1, p2], [-1.0, 1.0])
        u = vortex_velocities(system)
        np.testing.assert_allclose(u[0], u[1], atol=1e-15)
        axis = np.cross(p2, p1)
        assert np.linalg.norm(np.cross(u[0], axis)) < 1e-12

    def test_tangency(self, rng):
        system = random_sphere_system(rng, 5)
        u = vortex_velocities(system)
        assert np.abs(np.sum(u * system.positions, axis=1)).max() < 1e-10


class TestSphereField:
    def test_orthogonal_single_vortex(self):
        p = np.array([0, 0, 1.0])
        system = VortexSystem(SPHERE, [p], [1.0])
        x = np.array([1.0, 0, 0])
        np.testing.assert_allclose(
            sphere_field_velocity(x, system), np.cross(x, p) / FOUR_PI, atol=1e-15
        )

    def test_tangency_everywhere(self, rng):
        system = random_sphere_system(rng, 4)
        xs = normalize_rows(rng.normal(size=(100, 3)))
        u = sphere_field_velocity(xs, system)
        assert np.abs(np.sum(u * xs, axis=1)).max() < 1e-10

    def test_antipodal_equal_pair_on_equator(self):
        system = VortexSystem(SPHERE, [[0, 0, 1.0], [0, 0, -1.0]], [1.0, 1.0])
        x = np.array([1.0, 0.0, 0.0])
        u = sphere_field_velocity(x, system)
        np.testing.assert_allclose(u, 0.0, atol=1e-15)  # the two terms cancel
        x2 = normalize_rows(np.array([1.0, 0.0, 0.3]))
        u2 = sphere_field_velocity(x2, system)
        assert np.linalg.norm(u2) > 0
        assert abs(u2 @ x2) < 1e-12

    def test_near_antipodal_point_off_the_sphere(self):
        # a field point 1e-14 off the sphere, nearly antipodal to a vortex:
        # its dot product is below -1, which a gap 1 - x . p had to clamp;
        # the chord pass needs no clamp and matches the whole-matrix pass
        system = VortexSystem(SPHERE, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], [1.0, 2.0])
        x = np.array([[1e-9, 2e-9, -(1.0 + 1e-14)]])
        p, w = system.positions, system.strengths
        assert (x @ p.T)[0, 0] < -1.0
        assert np.array_equal(sphere_field_velocity(x, system),
                              whole_sphere_pair_sum(x, p, w, False) / FOUR_PI)


def fsum_plane_velocities(pos, w):
    """Per-component exactly rounded sums of w_i (-dy, dx) / r^2 over i != j."""
    n = len(w)
    out = np.zeros((n, 3))
    for j in range(n):
        others = np.arange(n) != j
        d = pos[j] - pos[others]
        c = w[others] / (d[:, 0] ** 2 + d[:, 1] ** 2)
        out[j, 0] = math.fsum(-c * d[:, 1])
        out[j, 1] = math.fsum(c * d[:, 0])
    return out / (2 * math.pi)


def fsum_sphere_velocities(pos, w):
    """Per-component exactly rounded sums of w_i (x cross p_i) / (1 - x . p_i).

    Each term is taken in its chord form 2 w_i ((x - p_i) cross x) / |x - p_i|^2,
    which equals it for unit vectors and keeps its accuracy for near pairs.
    """
    n = len(w)
    out = np.zeros((n, 3))
    for j in range(n):
        others = np.arange(n) != j
        d = pos[j] - pos[others]
        c2 = d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2
        terms = (2.0 * w[others] / c2)[:, None] * np.cross(d, pos[j])
        out[j] = [math.fsum(terms[:, k]) for k in range(3)]
    return out / FOUR_PI


def worst_row_error(u, exact):
    return (np.linalg.norm(u - exact, axis=1) / np.linalg.norm(exact, axis=1)).max()


class TestPairSumAccuracy:
    """Plain pair sums against exactly rounded per-component sums.

    The velocity kernels reduce their pair terms with an uncompensated sum;
    this pins what that gives up.
    """

    @pytest.mark.parametrize("n", [120, 2000])
    def test_plane(self, n):
        rng = np.random.default_rng(n)
        pos = np.zeros((n, 3))
        pos[:, :2] = rng.uniform(-1.5, 1.5, (n, 2))
        system = plane_system(pos, rng.uniform(-1.0, 1.0, n))
        u = vortex_velocities(system)
        exact = fsum_plane_velocities(system.positions, system.strengths)
        assert worst_row_error(u, exact) < 1e-12

    @pytest.mark.parametrize("n", [120, 2000])
    def test_sphere(self, n):
        rng = np.random.default_rng(n)
        system = VortexSystem(SPHERE, normalize_rows(rng.normal(size=(n, 3))),
                              rng.uniform(-1.0, 1.0, n))
        u = vortex_velocities(system)
        exact = fsum_sphere_velocities(system.positions, system.strengths)
        assert worst_row_error(u, exact) < 1e-12

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("n", [120, 2000])
    def test_stream_function(self, geometry, n):
        # 50 field points off the vortices; the terms come from the same
        # broadcast kernel call the library makes, so only the sum is compared
        rng = np.random.default_rng(n)
        if geometry == PLANE:
            pts = np.zeros((n + 50, 3))
            pts[:, :2] = rng.uniform(-1.5, 1.5, (n + 50, 2))
        else:
            pts = normalize_rows(rng.normal(size=(n + 50, 3)))
        system = VortexSystem(geometry, pts[:n], rng.uniform(-1.0, 1.0, n))
        x = pts[n:]
        psi = stream_function(x, system)
        green = green_plane if geometry == PLANE else green_sphere
        terms = system.strengths * green(x[:, None, :], system.positions[None, :, :])
        for value, row in zip(psi, terms):
            assert abs(value - math.fsum(row)) < 1e-12 * math.fsum(np.abs(row))


# Whole-matrix pair passes: one (m, n) or (3, m, n) array over all targets at
# once. They are the oracle the block-wise library passes must match bit for bit.


def whole_plane_pair_sum(targets, sources, strengths, exclude_diagonal):
    dx = targets[:, 0, None] - sources[None, :, 0]
    dy = targets[:, 1, None] - sources[None, :, 1]
    r2 = dx * dx + dy * dy
    if exclude_diagonal:
        np.fill_diagonal(r2, np.inf)
    if np.sqrt(r2.min()) < EPS_SEPARATION:
        raise SingularityError("evaluation point closer than the singularity guard to a vortex")
    c = strengths / r2
    out = np.zeros((targets.shape[0], 3))
    out[:, 0] = -(dy * c).sum(axis=1)
    out[:, 1] = (dx * c).sum(axis=1)
    return out


def whole_sphere_pair_sum(targets, sources, strengths, exclude_diagonal):
    """sum_i w_i (x cross p_i) / (1 - x . p_i) as 2 S(x) cross x, with
    S(x) = sum_i w_i (x - p_i) / |x - p_i|^2."""
    # (3, m, n) in C order, so that each sum runs along contiguous sources
    d = np.subtract(targets.T[:, :, None], sources.T[:, None, :], order="C")
    c2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    if exclude_diagonal:
        np.fill_diagonal(c2, np.inf)
    if c2.min() < EPS_CHORD_SQ:
        raise SingularityError("evaluation point closer than the singularity guard to a vortex")
    s = (d * (strengths / c2)).sum(axis=2)
    return 2.0 * np.cross(s.T, targets)


def whole_stream_function(x, system):
    green = green_plane if system.geometry == PLANE else green_sphere
    terms = system.strengths[None, :] * green(x[:, None, :], system.positions[None, :, :])
    return terms.sum(axis=1)


def whole_nearest_distance(pts, system):
    """The least distance of each row: Euclidean, or the angle 2 arcsin(c / 2) of the least chord c."""
    d = pts[:, None, :] - system.positions[None, :, :]
    least = np.sqrt((d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2]).min(axis=1))
    if system.geometry == PLANE:
        return least
    return 2.0 * np.arcsin(np.minimum(0.5 * least, 1.0))


def whole_closest_pair(geometry, pos):
    """(i, j) of the first minimum of the whole distance matrix, and that distance."""
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    if geometry != PLANE:
        dist = 2.0 * np.arcsin(np.clip(dist / 2.0, 0.0, 1.0))
    i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
    return (int(i), int(j)), dist[i, j]


def spread_points(rng, geometry, m):
    if geometry == PLANE:
        pts = np.zeros((m, 3))
        pts[:, :2] = rng.uniform(-1.5, 1.5, (m, 2))
        return pts
    return normalize_rows(rng.normal(size=(m, 3)))


# Self-sum sizes at the block edges, whatever PAIR_BLOCK_PAIRS is: one block
# up to Q vortices (Q**2 <= PAIR_BLOCK_PAIRS), two blocks at Q + 1, and three
# at M, the last of them short. The fixed sizes 361 to 513 are several blocks
# each, with short and full last blocks, unless the constant grows past 2**17.
# Field sizes over FIELD_SOURCES vortices, whose blocks are B = 128 rows:
# 1, B - 1, B, B + 1 and 2B + 3 points.
Q = math.isqrt(PAIR_BLOCK_PAIRS)
M = Q + Q // 2                            # three self-sum blocks
MB = PAIR_BLOCK_PAIRS // M                # their rows
SELF_SIZES = sorted({1, Q - 1, Q, Q + 1, M, 361, 362, 363, 512, 513})
FIELD_SOURCES = PAIR_BLOCK_PAIRS // 128
B = PAIR_BLOCK_PAIRS // FIELD_SOURCES
FIELD_SIZES = [1, B - 1, B, B + 1, 2 * B + 3]


class TestBlockEdges:
    """Block-wise pair passes against the whole-matrix oracle at block edges."""

    def test_block_bounds(self):
        assert B == 128 and Q * Q <= PAIR_BLOCK_PAIRS < (Q + 1) ** 2
        assert list(_row_blocks(Q, Q)) == [(0, Q)]
        rows = PAIR_BLOCK_PAIRS // (Q + 1)
        assert list(_row_blocks(Q + 1, Q + 1)) == [(0, rows), (rows, Q + 1)]
        assert list(_row_blocks(M, M)) == [(0, MB), (MB, 2 * MB), (2 * MB, M)]
        assert list(_row_blocks(2 * B, FIELD_SOURCES)) == [(0, B), (B, 2 * B)]
        assert list(_row_blocks(2 * B + 3, FIELD_SOURCES)) == [(0, B), (B, 2 * B), (2 * B, 2 * B + 3)]
        assert list(_row_blocks(3, 10 ** 6)) == [(0, 1), (1, 2), (2, 3)]

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("m", SELF_SIZES)
    def test_vortex_velocities(self, geometry, m):
        rng = np.random.default_rng(m)
        system = VortexSystem(geometry, spread_points(rng, geometry, m), rng.uniform(-1, 1, m))
        p, w = system.positions, system.strengths
        if geometry == PLANE:
            u, whole = vortex_velocities(system), whole_plane_pair_sum(p, p, w, True) / (2 * math.pi)
        else:
            u, whole = vortex_velocities(system), whole_sphere_pair_sum(p, p, w, True) / FOUR_PI
        assert np.array_equal(u, whole)

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("m", FIELD_SIZES)
    def test_field_velocity_and_stream_function(self, geometry, m):
        rng = np.random.default_rng(m)
        n = FIELD_SOURCES
        pts = spread_points(rng, geometry, n + m)
        system = VortexSystem(geometry, pts[:n], rng.uniform(-1, 1, n))
        x = pts[n:]
        p, w = system.positions, system.strengths
        if geometry == PLANE:
            u, whole = planar_field_velocity(x, system), whole_plane_pair_sum(x, p, w, False) / (2 * math.pi)
        else:
            u, whole = sphere_field_velocity(x, system), whole_sphere_pair_sum(x, p, w, False) / FOUR_PI
        assert np.array_equal(u, whole)
        assert np.array_equal(stream_function(x, system), whole_stream_function(x, system))
        assert np.array_equal(nearest_vortex_distance(x, system), whole_nearest_distance(x, system))

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("m", SELF_SIZES)
    def test_energy_matches_exact_pair_sum(self, geometry, m):
        rng = np.random.default_rng(m)
        system = VortexSystem(geometry, spread_points(rng, geometry, m), rng.uniform(-1, 1, m))
        if m < 2:
            assert kinetic_energy(system) == 0.0
            return
        green = green_plane if geometry == PLANE else green_sphere
        iu, ju = np.triu_indices(m, k=1)
        p, w = system.positions, system.strengths
        exact = -math.fsum(w[iu] * w[ju] * green(p[iu], p[ju]))
        e = kinetic_energy(system)
        if m * m <= PAIR_BLOCK_PAIRS:
            assert e == exact  # one block: the exactly rounded sum
        else:
            assert abs(e - exact) <= 1e-13 * abs(exact)

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    def test_singularity_only_in_last_block(self, geometry):
        # vortices m-2 and m-1, both in the last block, are 5e-10 apart
        m = M
        rng = np.random.default_rng(7)
        pos = spread_points(rng, geometry, m)
        if geometry == SPHERE:
            pos[-2:] = normalize_rows(np.array([[0.0, 0.0, 1.0], [5e-10, 0.0, 1.0]]))
        else:
            pos[-1] = pos[-2] + [5e-10, 0.0, 0.0]
        system = VortexSystem(geometry, pos, rng.uniform(-1, 1, m), check=False)
        velocities, field, whole = (
            (vortex_velocities, planar_field_velocity, whole_plane_pair_sum)
            if geometry == PLANE else
            (vortex_velocities, sphere_field_velocity, whole_sphere_pair_sum))
        with pytest.raises(SingularityError, match="singularity guard"):
            whole(pos, pos, system.strengths, True)
        with pytest.raises(SingularityError, match="singularity guard"):
            velocities(system)
        # vortex m-1 as the only point of the last field block over the other vortices
        others = VortexSystem(geometry, pos[:-1], system.strengths[:-1])
        rows = PAIR_BLOCK_PAIRS // (m - 1)
        x = np.concatenate([spread_points(rng, geometry, 2 * rows), pos[-1:]])
        with pytest.raises(SingularityError, match="singularity guard"):
            field(x, others)
        dist = nearest_vortex_distance(x, others)
        assert dist[-1] < EPS_SEPARATION and dist[:-1].min() >= EPS_SEPARATION

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    def test_min_separation_names_whole_matrix_pair(self, geometry):
        # a wider violating pair in block 0 and a closer one in block 1
        rng = np.random.default_rng(11)
        pos = spread_points(rng, geometry, M)
        pos[M - 1] = pos[3] + [6e-10, 0.0, 0.0]
        pos[MB + 13] = pos[MB + 12] + [0.0, 2e-10, 0.0]
        if geometry == SPHERE:
            pos = normalize_rows(pos)
        pair, dist = whole_closest_pair(geometry, pos)
        assert dist < EPS_SEPARATION and pair == (MB + 12, MB + 13)
        with pytest.raises(SingularityError, match=f"vortices {pair[0]} and {pair[1]} "):
            VortexSystem(geometry, pos, np.ones(M))

    def test_min_separation_tie_names_first_pair(self):
        # two pairs at the same exact distance, in blocks 0 and 1: the first wins
        pos = np.zeros((M, 3))
        pos[:, 0] = np.arange(M, dtype=float)
        pos[MB + 40, 0] = pos[MB + 41, 0] = 0.0
        pos[MB + 40, 1], pos[MB + 41, 1] = 8.0, 8.0 + 2.0 ** -32
        pos[2, 1] = pos[MB + 50, 1] = -8.0
        pos[2, 0], pos[MB + 50, 0] = 500.0, 500.0 + 2.0 ** -32
        pair, dist = whole_closest_pair(PLANE, pos)
        assert pair == (2, MB + 50) and dist == 2.0 ** -32
        with pytest.raises(SingularityError, match=f"vortices 2 and {MB + 50} "):
            VortexSystem(PLANE, pos, np.ones(M))


def blocked_velocities(geometry, p, w):
    """Vortex velocities from the blocked pair pass, whatever the vortex count."""
    if geometry == PLANE:
        return _plane_velocities(p, p, w, True)
    return (_sphere_pair_sum(p, p, w, True) / (2.0 * np.pi)).T


class TestFewVortexLoop:
    """Systems of at most FEW_VORTICES vortices take the Python-float pair loop.

    Its velocities must be the blocked pass's bytes: the loop repeats the
    pass's operations, and numpy sums so few terms a row as a running sum in
    source order. A numpy that sums them in another order fails here.
    """

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("n", range(1, FEW_VORTICES + 2))
    def test_byte_identical_to_blocked_pass(self, geometry, n):
        for p, w in few_vortex_states(geometry, n):
            system = VortexSystem(geometry, p, w)
            rhs = make_rhs(system)
            assert ("_few_vortex_rhs" in rhs.__qualname__) == (n <= FEW_VORTICES)
            p = system.positions
            u, blocked = rhs(p), blocked_velocities(geometry, p, w)
            assert u.tobytes() == blocked.tobytes()
            assert u.flags.c_contiguous == blocked.flags.c_contiguous

    def test_kimura_plane_layout(self):
        system = plane_system([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], [-1.0, 1.0])
        u = make_rhs(system)(system.positions)
        assert u.tobytes() == blocked_velocities(PLANE, system.positions, system.strengths).tobytes()
        assert not np.signbit(u[:, 0]).any()

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    def test_near_pair_raises_the_same_error(self, geometry):
        rng = np.random.default_rng(3)
        p = rng.normal(size=(4, 3))
        if geometry == PLANE:
            p[:, 2] = 0.0
            p[2] = p[1] + [0.0, 5e-10, 0.0]
        else:
            p = normalize_rows(p)
            t = np.cross(p[1], [0.0, 0.0, 1.0])
            p[2] = normalize_rows(p[1] + 5e-10 * t / np.linalg.norm(t))
        system = VortexSystem(geometry, p, np.ones(4), check=False)
        p = system.positions
        with pytest.raises(SingularityError) as loop:
            make_rhs(system)(p)
        with pytest.raises(SingularityError) as blocked:
            blocked_velocities(geometry, p, system.strengths)
        assert str(loop.value) == str(blocked.value)


def near_pair_positions():
    """259 random unit vectors and an index k; the last vector is vortex k
    moved 5e-10 rad along a tangent and renormalised.

    The pair's dot product is just below 1, so 1 - x . p reads 1.1e-16
    where the true gap is 1.25e-19, and arccos of the dot reads 1.5e-8 rad:
    a guard on either sees no pair inside 1e-9.
    """
    rng = np.random.default_rng(9)
    pos = normalize_rows(rng.normal(size=(259, 3)))
    k = int(rng.integers(258))
    t = np.cross(pos[k], rng.normal(size=3))
    pos[-1] = normalize_rows(pos[k] + 5e-10 * t / np.linalg.norm(t))
    return pos, k


class TestSphereNearPairs:
    """Pairs whose dot product cannot resolve their gap: the chord pass measures them."""

    def test_pair_dot_does_not_round_to_one(self):
        pos, k = near_pair_positions()
        dot = (pos @ pos.T)[k, -1]
        assert dot < 1.0 and np.arccos(dot) > 10 * EPS_SEPARATION
        assert np.linalg.norm(pos[k] - pos[-1]) < EPS_SEPARATION

    def test_vortex_velocities_raise(self):
        pos, k = near_pair_positions()
        system = VortexSystem(SPHERE, pos, np.ones(len(pos)), check=False)
        with pytest.raises(SingularityError, match="singularity guard"):
            vortex_velocities(system)
        with pytest.raises(SingularityError, match=f"vortices {k} and {len(pos) - 1} "):
            VortexSystem(SPHERE, pos, np.ones(len(pos)))

    def test_kernels_raise(self):
        pos, k = near_pair_positions()
        for kernel in (green_sphere, sgrad_green_sphere):
            with pytest.raises(SingularityError):
                kernel(pos[k], pos[-1])

    def test_run_into_pair_is_a_collision(self):
        pos, _ = near_pair_positions()
        system = VortexSystem(SPHERE, pos, np.ones(len(pos)), check=False)
        result = run(system, make_rhs(system), IntegratorConfig(dt=1e-3, steps=3))
        assert result.collision_step == 1 and len(result.records) == 1
        assert "singularity guard" in result.collision_message

    @pytest.mark.parametrize("angle", [1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
    def test_pair_velocities_match_oracle(self, angle):
        # two unit vortices `angle` apart, in 20 orientations, against a
        # 40-digit oracle of their positions projected onto the sphere. The
        # chord pass read at most 3.0e-16 when this test was written; the gap
        # 1 - x . p read 6.7e-10, 5.2e-11, 4.4e-6, 2.7e-8 and 4.6e-10 from
        # 1e-7 to 1e-3 rad (chords re-measured below a gap of 1e-12)
        rng = np.random.default_rng(17)
        for _ in range(20):
            system = VortexSystem(SPHERE, near_sphere_pair(rng, angle), [1.0, 1.0])
            u = vortex_velocities(system)
            x, y = system.positions
            assert mp_relative_error(u[0], mp_sgrad_sphere(x, y)) < 1e-14
            assert mp_relative_error(u[1], mp_sgrad_sphere(y, x)) < 1e-14

    def test_field_point_is_inside_guard(self):
        pos, k = near_pair_positions()
        others = VortexSystem(SPHERE, pos[:-1], np.ones(len(pos) - 1))
        x = np.concatenate([normalize_rows(np.array([[1.0, 2.0, 3.0]])), pos[-1:]])
        dist = nearest_vortex_distance(x, others)
        assert dist[0] > 1e-3 and dist[1] < EPS_SEPARATION
        with pytest.raises(SingularityError, match="singularity guard"):
            sphere_field_velocity(x, others)

    @pytest.mark.parametrize("angle", [3e-9, 1e-8, 1e-7])
    def test_pair_outside_guard_moves_by_its_chord(self, angle):
        # two unit vortices `angle` apart: each moves at cot(angle / 2) / 4pi
        # about the other. The gap 1 - x . p = c^2 / 2 is 4.5e-18 to 5e-15;
        # as a dot product it would read 0 or a multiple of 1.1e-16.
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([math.cos(angle), math.sin(angle), 0.0])
        system = VortexSystem(SPHERE, [x, y], [1.0, 1.0])
        u = vortex_velocities(system)
        d = math.atan2(np.linalg.norm(np.cross(x, y)), x @ y)
        speed = 1.0 / (math.tan(d / 2) * FOUR_PI)
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), speed, rtol=1e-6)
        assert nearest_vortex_distance(x, VortexSystem(SPHERE, [y], [1.0]))[0] == pytest.approx(d, rel=1e-6)


class TestSurfaceVelocities:
    def test_identity_atlas_reduces_to_sphere(self, rng):
        atlas = identity_atlas(icosphere(2))
        pos = random_sphere_system(rng, 4).positions
        w = np.array([1.0, -1.0, 0.5, -0.5])
        surf = VortexSystem(CLOSED_SURFACE, pos, w)
        sphere = VortexSystem(SPHERE, pos, w)
        u_surf = surface_vortex_velocities(surf, atlas)
        u_sphere = vortex_velocities(sphere)
        np.testing.assert_allclose(u_surf, u_sphere, atol=1e-12)

    def test_unbalanced_rejected(self, rng):
        pos = random_sphere_system(rng, 3).positions
        with pytest.raises(VorticityBalanceError):
            VortexSystem(CLOSED_SURFACE, pos, [0.5, 0.25, -0.25])

    def test_radius_two_sphere_scales_by_quarter(self, rng):
        from surfvort import build_atlas

        atlas = build_atlas(icosphere(3, radius=2.0))
        pos = random_sphere_system(rng, 4).positions
        w = np.array([1.0, -1.0, 0.5, -0.5])
        surf = VortexSystem(CLOSED_SURFACE, pos, w)
        u_surf = surface_vortex_velocities(surf, atlas)
        u_sphere = vortex_velocities(VortexSystem(SPHERE, pos, w))
        np.testing.assert_allclose(u_surf, u_sphere / 4.0, rtol=1e-9, atol=1e-12)

    def test_self_term_sign_must_be_unit(self, rng):
        atlas = identity_atlas(icosphere(2))
        pos = random_sphere_system(rng, 2).positions
        surf = VortexSystem(CLOSED_SURFACE, pos, [1.0, -1.0])
        with pytest.raises(ValueError):
            surface_vortex_velocities(surf, atlas, self_term_sign=0)

    def test_geometry_mismatch_rejected(self, rng):
        atlas = identity_atlas(icosphere(2))
        system = random_sphere_system(rng, 3)
        with pytest.raises(ValueError):
            surface_vortex_velocities(system, atlas)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_matches_numpy_cross_formula(self, blob_atlas, rng, sign):
        # the written-out self-term cross product gives np.cross's bits
        n = 40
        w = rng.uniform(-1.0, 1.0, n)
        w[-1] = -math.fsum(w[:-1])
        surf = VortexSystem(CLOSED_SURFACE, normalize_rows(rng.normal(size=(n, 3))), w)
        p = surf.positions
        tri, st = blob_atlas.locator.locate(p)
        h = blob_atlas.factor_at(tri, st)
        self_term = (surf.strengths / h)[:, None] * np.cross(p, blob_atlas.grad_factor_at(tri))
        pair = whole_sphere_pair_sum(p, p, surf.strengths, True)
        expected = (pair + sign * self_term) / (4.0 * np.pi * (h * h)[:, None])
        u = surface_vortex_velocities(surf, blob_atlas, self_term_sign=sign)
        assert np.array_equal(u, expected)
        evaluator = SurfaceVelocityEvaluator(blob_atlas, surf.strengths, self_term_sign=sign)
        assert np.array_equal(evaluator(p), expected)

    def test_evaluator_checks_once_at_construction(self, rng):
        atlas = identity_atlas(icosphere(2))
        with pytest.raises(VorticityBalanceError):
            SurfaceVelocityEvaluator(atlas, [1.0, -0.5])
        with pytest.raises(ValueError):
            SurfaceVelocityEvaluator(atlas, [1.0, -1.0], self_term_sign=0)


class TestSurfaceField:
    def test_identity_reduction_and_scaling(self, rng):
        pos = random_sphere_system(rng, 4).positions
        w = np.array([1.0, -1.0, 0.5, -0.5])
        surf = VortexSystem(CLOSED_SURFACE, pos, w)
        sphere = VortexSystem(SPHERE, pos, w)
        x = normalize_rows(rng.normal(size=3))
        atlas1 = identity_atlas(icosphere(2))
        np.testing.assert_allclose(
            surface_field_velocity(x, surf, atlas1),
            sphere_field_velocity(x, sphere),
            atol=1e-12,
        )
        # uniform h = 2 rescales the field by 1/4
        mesh = icosphere(2)
        atlas2 = ConformalAtlas(
            source_mesh=mesh,
            sphere_positions=np.array(mesh.vertices),
            log_factors=np.full(mesh.vertex_count, math.log(2.0)),
            factors=np.full(mesh.vertex_count, 2.0),
            triangle_grad_h=np.zeros((mesh.face_count, 3)),
            iterations_used=0,
            sphericity_residual=0.0,
        )
        np.testing.assert_allclose(
            surface_field_velocity(x, surf, atlas2),
            sphere_field_velocity(x, sphere) / 4.0,
            atol=1e-12,
        )

    def test_passed_locations_match_located(self, blob_atlas, rng):
        pos = random_sphere_system(rng, 4).positions
        surf = VortexSystem(CLOSED_SURFACE, pos, [1.0, -1.0, 0.5, -0.5])
        mesh = blob_atlas.sphere_mesh
        tri, st = sample_points(mesh, np.ones(mesh.face_count), 200, seed=5)
        x = normalize_rows(position_of(mesh, tri, st))
        np.testing.assert_allclose(
            surface_field_velocity(x, surf, blob_atlas, locations=(tri, st)),
            surface_field_velocity(x, surf, blob_atlas),
            rtol=1e-12, atol=1e-14,
        )
        with pytest.raises(ValueError):
            surface_field_velocity(x, surf, blob_atlas, locations=(tri[:-1], st[:-1]))

    def test_near_vortex_image_raises(self, rng):
        atlas = identity_atlas(icosphere(2))
        pos = random_sphere_system(rng, 2).positions
        surf = VortexSystem(CLOSED_SURFACE, pos, [1.0, -1.0])
        with pytest.raises(SingularityError):
            surface_field_velocity(pos[0], surf, atlas)


class TestStreamFunction:
    def test_plane_zero_at_unit_distance(self):
        system = plane_system([[0, 0, 0]], [1.0])
        assert stream_function([1.0, 0.0, 0.0], system) == 0.0

    def test_plane_opposite_pair_cancels_on_bisector(self):
        system = plane_system([[1, 0, 0], [-1, 0, 0]], [1.0, -1.0])
        assert stream_function([0.0, 2.5, 0.0], system) == pytest.approx(0.0, abs=1e-15)

    def test_sphere_orthogonal_value(self):
        system = VortexSystem(SPHERE, [[0, 0, 1.0]], [1.0])
        psi = stream_function([1.0, 0.0, 0.0], system)
        assert psi == pytest.approx(math.log(2) / FOUR_PI, abs=1e-15)

    def test_unsupported_on_closed_surface(self, rng):
        pos = random_sphere_system(rng, 2).positions
        surf = VortexSystem(CLOSED_SURFACE, pos, [1.0, -1.0])
        with pytest.raises(ValueError):
            stream_function([1.0, 0.0, 0.0], surf)


class TestEnergy:
    def test_opposite_pair_at_unit_distance(self):
        assert kinetic_energy(plane_system([[0.5, 0, 0], [-0.5, 0, 0]], [1, -1])) == 0.0

    def test_opposite_pair_at_distance_two(self):
        e = kinetic_energy(plane_system([[1, 0, 0], [-1, 0, 0]], [1, -1]))
        assert e == pytest.approx(-math.log(2) / (2 * math.pi), abs=1e-15)
        assert e == pytest.approx(-0.1103178, abs=1e-7)

    def test_single_vortex(self):
        assert kinetic_energy(plane_system([[0, 0, 0]], [3.0])) == 0.0

    def test_overflowing_distances_give_nan_not_an_error(self):
        # both squared distances overflow, so the pair terms are +inf and -inf
        with np.errstate(over="ignore"):
            system = plane_system([[0, 0, 0], [1e300, 0, 0], [-1e300, 0, 0]], [1.0, -1.0, 1.0])
            assert math.isnan(kinetic_energy(system))

    def test_energy_gradient_consistency(self, rng):
        # operational restatement of velocity = (rotated energy gradient)/strength,
        # with the per-geometry rotation orientation documented in helpers
        for make, velocities in (
            (random_plane_system, vortex_velocities),
            (random_sphere_system, vortex_velocities),
        ):
            worst = 0.0
            for _ in range(20):
                system = make(rng, int(rng.integers(3, 6)))
                u = velocities(system)
                for k in range(len(system)):
                    fd = fd_energy_velocity(system, k)
                    worst = max(worst, np.linalg.norm(fd - u[k]) / np.linalg.norm(u[k]))
            assert worst < 1e-5


class TestMetricHamiltonian:
    def test_identity_atlas_is_plain_energy(self, rng):
        atlas = identity_atlas(icosphere(2))
        pos = random_sphere_system(rng, 4).positions
        w = np.array([1.0, -1.0, 0.5, -0.5])
        surf = VortexSystem(CLOSED_SURFACE, pos, w)
        assert metric_hamiltonian(surf, atlas) == pytest.approx(kinetic_energy(surf), abs=1e-15)

    def test_uniform_factor_offset(self, rng):
        mesh = icosphere(2)
        atlas = ConformalAtlas(
            source_mesh=mesh,
            sphere_positions=np.array(mesh.vertices),
            log_factors=np.full(mesh.vertex_count, math.log(2.0)),
            factors=np.full(mesh.vertex_count, 2.0),
            triangle_grad_h=np.zeros((mesh.face_count, 3)),
            iterations_used=0,
            sphericity_residual=0.0,
        )
        pos = random_sphere_system(rng, 4).positions
        w = np.array([1.0, -1.0, 0.5, -0.5])
        surf = VortexSystem(CLOSED_SURFACE, pos, w)
        expected = kinetic_energy(surf) - math.log(2.0) / FOUR_PI * np.sum(w * w)
        assert metric_hamiltonian(surf, atlas) == pytest.approx(expected, abs=1e-14)

    def test_diagnostics_bundle(self, rng):
        atlas = identity_atlas(icosphere(2))
        pos = random_sphere_system(rng, 2).positions
        surf = VortexSystem(CLOSED_SURFACE, pos, [1.0, -1.0])
        assert energy_diagnostics(surf, atlas) == (kinetic_energy(surf),
                                                   metric_hamiltonian(surf, atlas))
        plain = random_plane_system(rng, 3)
        assert energy_diagnostics(plain) == (kinetic_energy(plain), None)

    def test_diagnostics_compute_energy_once(self, blob_atlas, rng, monkeypatch):
        # on the blob's varying factor, (E, H_tilde) equal kinetic_energy and
        # metric_hamiltonian bit for bit, from one kinetic_energy call
        import surfvort.dynamics as dynamics

        calls = []

        def counted(system):
            calls.append(system)
            return kinetic_energy(system)

        for _ in range(5):
            w = rng.uniform(-1.0, 1.0, 40)
            w[-1] = -math.fsum(w[:-1])
            surf = VortexSystem(CLOSED_SURFACE, normalize_rows(rng.normal(size=(40, 3))), w)
            expected = (kinetic_energy(surf), metric_hamiltonian(surf, blob_atlas))
            monkeypatch.setattr(dynamics, "kinetic_energy", counted)
            assert energy_diagnostics(surf, blob_atlas) == expected
            monkeypatch.undo()
        assert len(calls) == 5


class TestVortexSystem:
    def test_plane_needs_zero_z(self):
        with pytest.raises(ValueError):
            VortexSystem(PLANE, [[0, 0, 0.5]], [1.0])

    def test_sphere_rejects_non_unit(self):
        with pytest.raises(ValueError):
            VortexSystem(SPHERE, [[1.0, 1.0, 0.0]], [1.0])

    def test_sphere_renormalizes(self):
        system = VortexSystem(SPHERE, [[0, 0, 1.0 + 5e-10]], [1.0])
        assert np.linalg.norm(system.positions[0]) == pytest.approx(1.0, abs=1e-16)

    def test_two_column_input_embeds(self):
        system = VortexSystem(PLANE, [[1.0, 2.0]], [1.0])
        np.testing.assert_array_equal(system.positions, [[1.0, 2.0, 0.0]])
