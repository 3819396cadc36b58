"""Independent oracles and generators shared across the test suite.

Everything here recomputes expected values through a different route than
the library (finite differences, exhaustive search, direct counting), so the
tests stay meaningful cross-checks rather than self-comparisons.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

from surfvort import (
    ConformalAtlas,
    TriangleMesh,
    VortexSystem,
    energy_diagnostics,
    green_plane,
    green_sphere,
    kinetic_energy,
)
from surfvort.dynamics import PLANE, SPHERE, make_rhs
from surfvort.numerics import normalize_rows

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def tangent_basis(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two orthonormal tangent directions at unit vector x."""
    seed = EX if abs(x[0]) < 0.9 else EY
    e1 = np.cross(x, seed)
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(x, e1)


def near_sphere_pair(rng: np.random.Generator, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """A random unit vector x and the unit vector `angle` rad from it along a random tangent."""
    x = normalize_rows(rng.normal(size=3))
    t = rng.normal(size=3)
    t -= (t @ x) * x
    return x, normalize_rows(x * math.cos(angle) + t / np.linalg.norm(t) * math.sin(angle))


def mp_sgrad_sphere(x, y) -> list:
    """(x cross y) / (4 pi (1 - x . y)) to 40 digits, of the float points x, y projected onto the sphere.

    The floats are taken as exact and divided by their length in mpmath, so
    the oracle is the kernel of the unit vectors nearest to what a caller
    passes, evaluated by the textbook formula.
    """
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(c)) for c in x]
        y = [mpmath.mpf(float(c)) for c in y]
        nx, ny = mpmath.sqrt(sum(c * c for c in x)), mpmath.sqrt(sum(c * c for c in y))
        x, y = [c / nx for c in x], [c / ny for c in y]
        cross = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
        gap = 1 - sum(a * b for a, b in zip(x, y))
        return [c / (4 * mpmath.pi * gap) for c in cross]


def mp_relative_error(u, exact) -> float:
    """|u - exact| / |exact| of a float 3-vector against an mpmath one."""
    with mpmath.workdps(40):
        diff = [mpmath.mpf(float(a)) - b for a, b in zip(u, exact)]
        return float(mpmath.sqrt(sum(c * c for c in diff)) / mpmath.sqrt(sum(c * c for c in exact)))


def fd_gradient_plane(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of f at a plane point (z stays 0)."""
    g = np.zeros(3)
    for d in range(2):
        xp, xm = np.array(x), np.array(x)
        xp[d] += h
        xm[d] -= h
        g[d] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_gradient_sphere(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Tangential central difference along geodesics through unit vector x."""
    e1, e2 = tangent_basis(x)
    g = np.zeros(3)
    for e in (e1, e2):
        xp = x * math.cos(h) + e * math.sin(h)
        xm = x * math.cos(h) - e * math.sin(h)
        g += (f(xp) - f(xm)) / (2.0 * h) * e
    return g


def fd_energy_velocity(system: VortexSystem, k: int, h: float = 1e-6) -> np.ndarray:
    """Vortex velocity from the rotated finite-difference energy gradient.

    Evaluates (1/w_k) n x grad_{p_k} E with the orientation that matches the
    geometry's printed velocity formulas: the planar formulas follow the
    counter-clockwise stream convention (u = +(1/w_k) n x grad E for the
    kernel as defined), while the spherical ones follow the opposite one
    (u = -(1/w_k) p x grad E). The two-geometry sign split mirrors the
    package's kernel conventions; see the decisions notes.
    """
    pos = np.array(system.positions)
    w = system.strengths

    def energy_at(pk: np.ndarray) -> float:
        p = np.array(pos)
        p[k] = pk
        return kinetic_energy(VortexSystem(system.geometry, p, w, check=False))

    if system.geometry == PLANE:
        grad = fd_gradient_plane(energy_at, pos[k], h)
        return np.cross(EZ, grad) / w[k]
    grad = fd_gradient_sphere(energy_at, pos[k], h)
    return -np.cross(pos[k], grad) / w[k]


def diagnostics_of(system: VortexSystem, atlas=None):
    """`run`'s diagnostics callable: (E, H_tilde) of `system`'s vortices at positions p."""
    def diagnostics(p):
        return energy_diagnostics(
            VortexSystem(system.geometry, p, system.strengths, check=False), atlas)
    return diagnostics


def few_vortex_states(geometry, n):
    """Random states, all-negative strengths and equal-y rows (zero velocity components)."""
    rng = np.random.default_rng(100 + n)
    for k in range(60):
        p = rng.normal(size=(n, 3))
        if k % 3 == 1:
            p[:, 1] = 0.0  # the kimura_plane layout: every vortex on y = 0
        if geometry == PLANE:
            p[:, 2] = 0.0
        w = rng.uniform(-2.0, 2.0, n)
        yield (p if geometry == PLANE else normalize_rows(p)), (-np.abs(w) if k % 2 else w)


def random_plane_system(rng: np.random.Generator, n: int, min_dist: float = 0.35,
                        box: float = 1.5) -> VortexSystem:
    pts: list[np.ndarray] = []
    while len(pts) < n:
        c = rng.uniform(-box, box, 2)
        if all(np.hypot(*(c - p)) > min_dist for p in pts):
            pts.append(c)
    w = rng.uniform(-1.0, 1.0, n)
    w[np.abs(w) < 0.1] = 0.5  # keep 1/w_k well conditioned
    return VortexSystem(PLANE, np.array([[x, y, 0.0] for x, y in pts]), w)


def random_sphere_system(rng: np.random.Generator, n: int,
                         min_angle: float = 0.35) -> VortexSystem:
    pts: list[np.ndarray] = []
    while len(pts) < n:
        c = rng.normal(size=3)
        c /= np.linalg.norm(c)
        if all(math.acos(np.clip(c @ p, -1, 1)) > min_angle for p in pts):
            pts.append(c)
    w = rng.uniform(-1.0, 1.0, n)
    w[np.abs(w) < 0.1] = 0.5
    return VortexSystem(SPHERE, np.array(pts), w)


def identity_atlas(sphere_mesh: TriangleMesh) -> ConformalAtlas:
    """Identity map of a mesh that already lies on the unit sphere (h = 1)."""
    n = sphere_mesh.vertex_count
    return ConformalAtlas(
        source_mesh=sphere_mesh,
        sphere_positions=np.array(sphere_mesh.vertices),
        log_factors=np.zeros(n),
        factors=np.ones(n),
        triangle_grad_h=np.zeros((sphere_mesh.face_count, 3)),
        iterations_used=0,
        sphericity_residual=0.0,
    )


def brute_force_locate(mesh: TriangleMesh, p: np.ndarray) -> int:
    """Exhaustive containing-triangle search, lowest index on ties.

    Independent formulation: intersect the ray through p with each triangle
    plane and test the intersection against the three edges.
    """
    v1, v2, v3 = mesh.corners()
    n = np.cross(v2 - v1, v3 - v1)
    denom = n @ p
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.einsum("fi,fi->f", n, v1) / denom
    q = t[:, None] * p[None, :]  # ray-plane intersections
    inside = t > 0
    for a, b in ((v1, v2), (v2, v3), (v3, v1)):
        s = np.einsum("fi,fi->f", np.cross(b - a, q - a), n)
        inside &= s >= -1e-12
    idx = np.nonzero(inside)[0]
    if idx.size == 0:
        raise AssertionError("oracle found no containing triangle")
    return int(idx[0])


def edge_census(mesh: TriangleMesh) -> dict:
    """Direct dictionary-based edge counting (topology oracle)."""
    from collections import Counter

    undirected: Counter = Counter()
    directed: Counter = Counter()
    for i, j, k in mesh.triangles:
        for a, b in ((i, j), (j, k), (k, i)):
            directed[(int(a), int(b))] += 1
            undirected[frozenset((int(a), int(b)))] += 1
    return {
        "edges": len(undirected),
        "boundary": sum(1 for c in undirected.values() if c == 1),
        "oriented": max(directed.values()) == 1 and max(undirected.values()) <= 2,
    }


def torus_mesh(n_major: int = 12, n_minor: int = 8, R: float = 1.0, r: float = 0.35) -> TriangleMesh:
    """Structured torus triangulation (Euler characteristic 0)."""
    verts = []
    for i in range(n_major):
        a = 2 * math.pi * i / n_major
        for j in range(n_minor):
            b = 2 * math.pi * j / n_minor
            verts.append([
                (R + r * math.cos(b)) * math.cos(a),
                (R + r * math.cos(b)) * math.sin(a),
                r * math.sin(b),
            ])
    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            v00 = i * n_minor + j
            v01 = i * n_minor + (j + 1) % n_minor
            v10 = ((i + 1) % n_major) * n_minor + j
            v11 = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            tris += [[v00, v10, v11], [v00, v11, v01]]
    return TriangleMesh(np.array(verts), np.array(tris))


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


GREEN = {PLANE: green_plane, SPHERE: green_sphere}


def vortex_velocities(system: VortexSystem) -> np.ndarray:
    """Velocity of every vortex of a plane or sphere system from all the others, (n, 3)."""
    return make_rhs(system)(system.positions)
