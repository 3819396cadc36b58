"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from surfvort import (
    IntegratorConfig,
    TriangleMesh,
    VortexSystem,
    build_atlas,
    triangle_gradient,
)
from surfvort.cli import main
from surfvort.conformal import edge_scale_residuals
from surfvort.dynamics import (
    CLOSED_SURFACE,
    DEFAULT_SELF_TERM_SIGN,
    PLANE,
    SPHERE,
    make_rhs,
)
from surfvort.integrator import run
from surfvort.mesh import face_areas
from surfvort.numerics import normalize_rows
from surfvort.shapes import icosphere
from surfvort.transport import sample_points

from helpers import (
    diagnostics_of,
    fd_energy_velocity,
    fd_gradient_plane,
    fd_gradient_sphere,
    green_plane,
    green_sphere,
    random_plane_system,
    random_sphere_system,
    sgrad_green_plane,
    sgrad_green_sphere,
    vortex_velocities,
)

FOUR_PI = 4.0 * math.pi


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c01_planar_kimura_pair():
    t0 = time.perf_counter()
    system = VortexSystem(PLANE, [[1, 0, 0], [-1, 0, 0]], [-1.0, 1.0])
    u = vortex_velocities(system)
    vel_err = np.abs(u - np.array([[0, 1 / FOUR_PI, 0]] * 2)).max()
    pos = run(system, make_rhs(system), IntegratorConfig(dt=0.01, steps=1000)).records
    lateral = np.abs(pos[:, :, 0] - np.array([1.0, -1.0])).max()
    sep_drift = np.abs(np.linalg.norm(pos[:, 0] - pos[:, 1], axis=1) - 2.0).max()
    elapsed = time.perf_counter() - t0
    report(
        1,
        vel_err < 1e-12 and lateral < 1e-9 and sep_drift < 1e-9 and elapsed < 1.0,
        f"velocity err {vel_err:.2e}, lateral {lateral:.2e}, "
        f"separation drift {sep_drift:.2e}, {elapsed:.2f}s",
    )


def test_c02_spherical_geodesic_pair():
    # The pair rotates rigidly about the fixed axis p2 - p1; that axis is the
    # normal of the great circle the pair travels (the motion plane). The
    # instantaneous velocities point along +-(p2 x p1), which itself precesses
    # with the motion, so the conserved direction checked here is the axis.
    # See the decisions notes on this criterion's phrasing.
    t0 = time.perf_counter()
    half = 0.05  # 0.1 rad separation
    p1 = [math.cos(half), math.sin(half), 0.0]
    p2 = [math.cos(half), -math.sin(half), 0.0]
    system = VortexSystem(SPHERE, [p1, p2], [-1.0, 1.0])
    u = vortex_velocities(system)
    cross_dir = np.cross(p2, p1)
    vel_alignment = np.linalg.norm(np.cross(u[0], cross_dir)) / np.linalg.norm(u[0])
    pos = run(system, make_rhs(system), IntegratorConfig(dt=5e-3, steps=1000)).records
    dots = np.sum(pos[:, 0] * pos[:, 1], axis=1)
    contact_drift = np.abs(dots - dots[0]).max()
    axes = normalize_rows(pos[:, 1] - pos[:, 0])
    axis_drift = np.linalg.norm(axes - axes[0], axis=1).max()
    mid0 = normalize_rows(pos[0].sum(axis=0))
    mid1 = normalize_rows(pos[-1].sum(axis=0))
    travelled = math.acos(np.clip(float(mid0 @ mid1), -1, 1))
    elapsed = time.perf_counter() - t0
    report(
        2,
        contact_drift < 1e-8 and axis_drift < 1e-6 and vel_alignment < 1e-12
        and travelled > 1.0 and elapsed < 1.0,
        f"contact drift {contact_drift:.2e}, motion-plane normal drift {axis_drift:.2e}, "
        f"initial velocities along p2 x p1 ({vel_alignment:.1e}), "
        f"arc travelled {travelled:.2f} rad, {elapsed:.2f}s",
    )


def test_c03_energy_conservation():
    def drift_of(system):
        result = run(
            system,
            make_rhs(system),
            IntegratorConfig(dt=1e-3, steps=10_000),
            diagnostics=diagnostics_of(system),
            diagnostics_every=100,
        )
        energies = result.diagnostics[:, 1]
        return np.abs(energies - energies[0]).max() / abs(energies[0])

    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    drift_plane = drift_of(random_plane_system(rng, 5, min_dist=0.7))
    t1 = time.perf_counter()
    drift_sphere = drift_of(random_sphere_system(rng, 5, min_angle=0.5))
    t2 = time.perf_counter()
    elapsed = t2 - t0
    report(
        3,
        drift_plane < 1e-5 and drift_sphere < 1e-5 and elapsed < 10.0,
        f"relative E drift: plane {drift_plane:.2e}, sphere {drift_sphere:.2e}, "
        f"{elapsed:.1f}s (plane {t1 - t0:.1f}s, sphere {t2 - t1:.1f}s)",
    )


def test_c04_energy_gradient_consistency():
    # Velocities against the rotated finite-difference energy gradient. The
    # rotation orientation differs between the two geometries because the
    # planar kernel pair follows the opposite-sign stream convention (see
    # helpers.fd_energy_velocity and the decisions notes).
    rng = np.random.default_rng(11)
    worst = {"plane": 0.0, "sphere": 0.0}
    for label, make, velocities in (
        ("plane", random_plane_system, vortex_velocities),
        ("sphere", random_sphere_system, vortex_velocities),
    ):
        for _ in range(100):
            system = make(rng, int(rng.integers(3, 6)))
            u = velocities(system)
            for k in range(len(system)):
                fd = fd_energy_velocity(system, k, h=1e-6)
                rel = np.linalg.norm(fd - u[k]) / np.linalg.norm(u[k])
                worst[label] = max(worst[label], rel)
    report(
        4,
        worst["plane"] < 1e-5 and worst["sphere"] < 1e-5,
        f"worst rel err: plane {worst['plane']:.2e}, sphere {worst['sphere']:.2e} "
        "(100 random 3-5 vortex systems each)",
    )


def test_c05_sphere_mesh_pipeline_equivalence(icosphere_atlas):
    t0 = time.perf_counter()
    atlas = icosphere_atlas
    assert atlas.source_mesh.vertex_count == 2562
    rng = np.random.default_rng(3)
    positions = random_sphere_system(rng, 4, min_angle=0.8).positions
    strengths = np.array([1.0, -1.0, 0.6, -0.6])
    surf = VortexSystem(CLOSED_SURFACE, positions, strengths)
    sphere = VortexSystem(SPHERE, positions, strengths)
    cfg = IntegratorConfig(dt=1e-2, steps=500)
    rhs = make_rhs(surf, atlas=atlas)
    pipeline = run(surf, rhs, cfg, map_back=rhs.to_source)
    direct = run(sphere, make_rhs(sphere), cfg)
    end_a = pipeline.records[-1]
    end_b = direct.records[-1]
    deviation = np.arctan2(
        np.linalg.norm(np.cross(end_a, end_b), axis=1), np.sum(end_a * end_b, axis=1)
    ).max()
    mapped = pipeline.source_positions[-1]
    on_mesh = np.abs(np.linalg.norm(mapped, axis=1) - 1.0).max() < 0.01
    elapsed = time.perf_counter() - t0
    report(
        5,
        deviation < 1e-3 and pipeline.completed and on_mesh and elapsed < 30.0,
        f"endpoint angular deviation {deviation:.2e} after 500 steps, "
        f"map-back on mesh: {on_mesh}, {elapsed:.1f}s",
    )


def test_c06_self_term_sign_resolution(ellipsoid_atlas):
    # Thm-style "+" self term versus the implementation section's "-": the
    # committed default must conserve the metric Hamiltonian at least 10x
    # better. This documents a source contradiction, not a known number.
    atlas = ellipsoid_atlas
    rng = np.random.default_rng(42)
    positions = normalize_rows(rng.normal(size=(4, 3)))
    strengths = np.array([1.0, -1.0, 0.7, -0.7])
    system = VortexSystem(CLOSED_SURFACE, positions, strengths)
    cfg = IntegratorConfig(dt=2e-3, steps=1000)
    drifts = {}
    for sign in (+1, -1):
        rhs = make_rhs(system, atlas=atlas, self_term_sign=sign)
        result = run(system, rhs, cfg,
                     diagnostics=diagnostics_of(system, atlas),
                     diagnostics_every=20)
        values = result.diagnostics[:, 2]
        drifts[sign] = np.abs(values - values[0]).max()
    winner = min(drifts, key=drifts.get)
    ratio = drifts[-winner] / drifts[winner]
    report(
        6,
        winner == DEFAULT_SELF_TERM_SIGN and ratio >= 10.0,
        f"H-drift: sign +1 = {drifts[1]:.2e}, sign -1 = {drifts[-1]:.2e}; "
        f"winner {winner:+d} by {ratio:.0f}x (default {DEFAULT_SELF_TERM_SIGN:+d})",
    )


def test_c07_conformal_factor_correctness(ellipsoid_atlas, blob_atlas):
    devs = {}
    for radius in (0.5, 2.0, 5.0):
        atlas = build_atlas(icosphere(4, radius=radius))
        devs[radius] = float(np.abs(atlas.factors - radius).max() / radius)
    residual_ell = float(np.median(edge_scale_residuals(ellipsoid_atlas)))
    residual_blob = float(np.median(edge_scale_residuals(blob_atlas)))
    report(
        7,
        max(devs.values()) < 1e-3 and residual_ell < 0.05 and residual_blob < 0.05,
        f"scaled-sphere h rel dev {max(devs.values()):.2e} (R in 0.5/2/5); "
        f"edge-model median residual: ellipsoid {residual_ell:.2%}, blob {residual_blob:.2%}",
    )


def test_c08_discrete_gradient_exactness():
    rng = np.random.default_rng(13)
    worst = 0.0
    checked = 0
    while checked < 1000:
        tri = rng.normal(size=(3, 3))
        if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) < 1e-3:
            continue
        mesh = TriangleMesh(tri, [[0, 1, 2]])
        coeff = rng.normal(size=3)
        grad = triangle_gradient(mesh, tri @ coeff + rng.normal())[0]
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        n /= np.linalg.norm(n)
        exact = coeff - (coeff @ n) * n
        worst = max(worst, float(np.linalg.norm(grad - exact)))
        checked += 1
    const = np.abs(triangle_gradient(icosphere(2), np.full(162, 3.3))).max()
    report(
        8,
        worst < 1e-12 and const < 1e-12,
        f"linear-field worst err {worst:.2e} over 1000 random triangles; "
        f"constant-field max |grad| {const:.2e}",
    )


def test_c09_kernel_finite_difference_suite():
    # Rotated-difference oracles for both kernels. The planar pair follows the
    # opposite-sign stream convention, so its oracle differentiates the
    # negated kernel: sgrad_plane = n x grad(-G_plane); the sphere kernel is
    # direct: sgrad_sphere = x x grad(G_sphere). See the decisions notes.
    rng = np.random.default_rng(17)
    worst_plane = 0.0
    checked = 0
    while checked < 1000:
        x = np.array([*rng.uniform(-2, 2, 2), 0.0])
        y = np.array([*rng.uniform(-2, 2, 2), 0.0])
        if np.linalg.norm(x - y) < 1e-2:
            continue
        oracle = np.cross([0, 0, 1.0], fd_gradient_plane(lambda q: -green_plane(q, y), x))
        u = sgrad_green_plane(x, y)
        worst_plane = max(worst_plane, np.linalg.norm(u - oracle) / np.linalg.norm(u))
        checked += 1
    worst_sphere = 0.0
    checked = 0
    while checked < 1000:
        x, y = normalize_rows(rng.normal(size=(2, 3)))
        if math.acos(np.clip(float(x @ y), -1, 1)) < 1e-2:
            continue
        oracle = np.cross(x, fd_gradient_sphere(lambda q: green_sphere(q, y), x))
        u = sgrad_green_sphere(x, y)
        worst_sphere = max(worst_sphere, np.linalg.norm(u - oracle) / np.linalg.norm(u))
        checked += 1
    report(
        9,
        worst_plane < 1e-5 and worst_sphere < 1e-5,
        f"worst rel err over 1000 pairs each: plane {worst_plane:.2e} "
        f"(opposite-convention rotation), sphere {worst_sphere:.2e}",
    )


def test_c10_sampling_law(ellipsoid_atlas):
    mesh = ellipsoid_atlas.source_mesh
    areas = face_areas(mesh)
    n = 100_000
    tri, st = sample_points(ellipsoid_atlas.sphere_mesh, areas, n, seed=99)
    counts = np.bincount(tri, minlength=mesh.face_count)
    expected = areas / areas.sum() * n
    pvalue = float(stats.chisquare(counts, expected).pvalue)
    again_tri, again_st = sample_points(ellipsoid_atlas.sphere_mesh, areas, n, seed=99)
    deterministic = np.array_equal(tri, again_tri) and np.array_equal(st, again_st)
    report(
        10,
        pvalue > 0.01 and deterministic,
        f"chi-square p = {pvalue:.3f} at N = 1e5 on {mesh.face_count} mixed-area triangles; "
        f"seed-determinism {'exact' if deterministic else 'BROKEN'}",
    )


def test_c11_rk4_order():
    system = VortexSystem(PLANE, [[0, 0, 0], [1, 0, 0], [0.3, 0.8, 0]], [1.0, -0.5, 0.75])
    rhs = make_rhs(system)

    def endpoint(dt, horizon=1.0):
        cfg = IntegratorConfig(dt=dt, steps=round(horizon / dt))
        return run(system, rhs, cfg).records[-1]

    reference = endpoint(0.02 / 100)
    e1 = np.linalg.norm(endpoint(0.02) - reference)
    e2 = np.linalg.norm(endpoint(0.01) - reference)
    order = math.log2(e1 / e2)
    report(
        11,
        order >= 3.8,
        f"observed order {order:.2f} (errors {e1:.2e} -> {e2:.2e} under dt halving)",
    )


def test_c11_rk4_order_sphere():
    # RK4 with each stage point renormalised onto the sphere keeps order 4;
    # it read 4.00 here when written.
    pts = normalize_rows(np.array([[1.0, 0.2, 0.1], [0.1, 1.0, 0.3], [0.2, 0.3, 1.0]]))
    system = VortexSystem(SPHERE, pts, [1.0, -0.5, 0.75])
    rhs = make_rhs(system)

    def endpoint(dt, horizon=1.0):
        cfg = IntegratorConfig(dt=dt, steps=round(horizon / dt))
        return run(system, rhs, cfg).records[-1]

    reference = endpoint(0.05 / 100)
    e1 = np.linalg.norm(endpoint(0.05) - reference)
    e2 = np.linalg.norm(endpoint(0.025) - reference)
    order = math.log2(e1 / e2)
    report(
        11,
        order >= 3.8,
        f"sphere: observed order {order:.2f} (errors {e1:.2e} -> {e2:.2e} under dt halving)",
    )


def test_c12_figure_presets(tmp_path):
    names = [
        "leapfrog_plane", "leapfrog_sphere", "leapfrog_mesh",
        "taylor_plane", "taylor_sphere", "taylor_mesh",
    ]
    details = []
    ok = True
    for name in names:
        base = tmp_path / name
        base.mkdir()
        assert main(["preset", name, "--out", str(base)]) == 0
        out = base / "out"
        code = main(["run", str(base / f"{name}.json"), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        drift = manifest["energy"]["max_drift_rel"]
        collided = manifest["collision"] is not None
        has_traj = (out / "trajectories.csv").exists()
        ok &= code == 0 and not collided and drift < 1e-3 and has_traj
        details.append(f"{name}: drift {drift:.1e}")
    report(12, ok, "; ".join(details))
