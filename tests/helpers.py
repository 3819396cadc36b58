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
    kinetic_energy,
)
from surfvort.dynamics import PLANE, SPHERE, check_squared_separation, green_of_squared, make_rhs
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


def squared_distance(x, y) -> np.ndarray:
    """|x - y|^2 over the last axis, summed in the order x, y, z as the library's pair passes add them."""
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return np.asarray(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


def _green(x, y, sphere: bool):
    sq = squared_distance(x, y)
    check_squared_separation(sq, sphere)
    g = green_of_squared(sq, sphere, out=np.empty_like(sq))
    return float(g) if g.ndim == 0 else g


def green_plane(x, y):
    """Planar Green's function -ln|x - y| / (2 pi) of points (3,) or stacks (..., 3).

    Built on the library's `green_of_squared` and `check_squared_separation`,
    so it raises SingularityError inside the guard; symmetric in x and y.
    """
    return _green(x, y, sphere=False)


def green_sphere(x, y):
    """Unit-sphere Green's function -ln(sin(d / 2)) / (2 pi) of the angle d.

    Computed from the chord, sin(d / 2) = |x - y| / 2, which stays well
    conditioned for near pairs, where arccos(x . y) does not.
    """
    return _green(x, y, sphere=True)


def sgrad_green_plane(x, y) -> np.ndarray:
    """Symplectic gradient of the planar kernel at x: n x (x-y) / (2 pi |x-y|^2).

    The result is tangent to the plane (z component 0) and perpendicular
    to x - y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r2 = squared_distance(x, y)
    check_squared_separation(r2, sphere=False)
    return np.cross(EZ, x - y) / (2.0 * np.pi * r2[..., None])


def sgrad_green_sphere(x, y) -> np.ndarray:
    """Symplectic gradient of the sphere kernel at x: (x cross y) / (4 pi (1 - x.y)).

    Tangent at x. Computed as x cross (y - x) / (2 pi c^2) of the squared
    chord c^2 = |x - y|^2: on the unit sphere 1 - x.y = c^2 / 2 and
    x cross y = x cross (y - x), and the difference y - x keeps its accuracy
    for near pairs, where 1 - x.y and x cross y lose theirs. The formula stays
    regular at antipodal pairs (c^2 -> 4, x cross (y - x) -> 0); only
    near-coincident pairs raise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c2 = squared_distance(x, y)
    check_squared_separation(c2, sphere=True)
    return np.cross(x, y - x) / (2.0 * np.pi * c2[..., None])


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


def add_at_lumped_mass(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Barycentric vertex areas accumulated corner by corner with np.add.at."""
    v1, v2, v3 = (vertices[triangles[:, i]] for i in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(v2 - v1, v3 - v1), axis=1)
    mass = np.zeros(vertices.shape[0])
    for i in range(3):
        np.add.at(mass, triangles[:, i], areas / 3.0)
    return mass


def add_at_log_factors(mesh: TriangleMesh, sphere_positions: np.ndarray) -> np.ndarray:
    """Per-vertex mean of the corner log-scale estimates, accumulated corner by corner with np.add.at.

    The estimate at corner c is log L1 + log L2 - log L_opp minus the same of
    the sphere lengths, with L1, L2 the lengths of the edges at c and L_opp
    the length of the edge opposite c, added in that order.
    """
    def log_lengths(v):
        v1, v2, v3 = (v[mesh.triangles[:, i]] for i in range(3))
        return [np.log(np.linalg.norm(b - a, axis=1)) for a, b in ((v2, v3), (v3, v1), (v1, v2))]

    src, img = log_lengths(mesh.vertices), log_lengths(sphere_positions)
    u = np.zeros(mesh.vertex_count)
    count = np.zeros(mesh.vertex_count)
    for c in range(3):
        e1, e2 = (c + 1) % 3, (c + 2) % 3
        np.add.at(u, mesh.triangles[:, c], src[e1] + src[e2] - src[c] - img[e1] - img[e2] + img[c])
        np.add.at(count, mesh.triangles[:, c], 1.0)
    return u / count


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


def revolution_ellipsoid_factor(vertices, c):
    """Exact conformal factor of the unit sphere map of the ellipsoid
    x^2 + y^2 + (z / c)^2 = 1, a surface of revolution.

    With sigma = int ds / r along the meridian from the equator, the polar
    angle of the image is phi = 2 arctan(e^sigma) and h = r / sin(phi)
    = r cosh(sigma). On the meridian (sin t, c cos t), t from the nearer
    pole, ds / r = g(tau) dtau / sin(tau) with g = sqrt(cos^2 + c^2 sin^2);
    splitting off int dtau / sin(tau) = -log tan(t / 2) leaves
    I(t) = int_t^(pi/2) (g - 1) / sin dtau, regular at the poles, and
    h = cos^2(t/2) e^I + sin^2(t/2) e^-I.
    """
    from scipy.integrate import quad

    def integrand(tau):
        g = math.sqrt(math.cos(tau) ** 2 + c * c * math.sin(tau) ** 2)
        return (g - 1.0) / math.sin(tau) if tau > 0.0 else 0.0

    t = np.arccos(np.clip(np.abs(vertices[:, 2]) / c, 0.0, 1.0))
    levels, index = np.unique(t, return_inverse=True)
    log_scale = np.array(
        [quad(integrand, lv, math.pi / 2, epsabs=1e-13, epsrel=1e-13)[0] for lv in levels]
    )[index]
    return np.cos(t / 2) ** 2 * np.exp(log_scale) + np.sin(t / 2) ** 2 * np.exp(-log_scale)


def spheroid_factor(p, c: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (h, grad h) of the conformal sphere map of ellipsoid(1, 1, c), c >= 1, at unit vectors p (n, 3).

    The inverse of `revolution_ellipsoid_factor`, in closed form. A sphere
    point of height z has sigma = artanh z; the meridian point
    (r, Z) = (cos t, c sin t) with the same sigma = int ds / r has w = sin t
    solving z = tanh(sigma(w)), where, with k^2 = c^2 - 1 and
    S = sqrt(c^2 - k^2 w^2),
        sigma(w) = artanh(w / S) + k arcsin(k w / c)
    (d sigma / dw = S / (1 - w^2)). In a = w / S and T = tanh(k arcsin(k w / c)),
    tanh(sigma) = (a + T) / (1 + a T) is smooth and increasing on [-1, 1], with
    slope c^2 (1 - T^2) / (S (1 + a T)^2), so Newton's method from w = z
    solves it to full precision. Then h = r cosh(sigma) = sqrt((1 - w^2) / (1 - z^2)),
    and grad h = h'(z) (e_z - z p) is meridional.
    """
    p = np.asarray(p, dtype=np.float64)
    z, k = p[:, 2], math.sqrt(c * c - 1.0)

    def tanh_sigma(w):  # tanh(sigma(w)) and dw/dz, the reciprocal of its slope
        s = np.sqrt(c * c - k * k * w * w)
        a, t = w / s, np.tanh(k * np.arcsin(k * w / c))
        return (a + t) / (1.0 + a * t), s * (1.0 + a * t) ** 2 / (c * c * (1.0 - t * t))

    w = z
    for _ in range(50):
        g, dw_dz = tanh_sigma(w)
        step = (g - z) * dw_dz
        w = np.clip(w - step, -1.0, 1.0)
        if np.abs(step).max() <= 1e-15:  # quadratic convergence: this step left w exact
            break
    dw_dz = tanh_sigma(w)[1]
    h = np.sqrt((1.0 - w * w) / (1.0 - z * z))
    dh_dz = (z * (1.0 - w * w) - w * dw_dz * (1.0 - z * z)) / ((1.0 - z * z) ** 2 * h)
    return h, dh_dz[:, None] * (EZ - z[:, None] * p)


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


def reference_load_obj(path) -> TriangleMesh:
    """`v` and `f` records parsed token by token, faces fan-triangulated line by line (no checks)."""
    vertices, faces = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            tokens = line.split()
            if tokens and tokens[0] == "v":
                vertices.append([float(tok) for tok in tokens[1:4]])
            elif tokens and tokens[0] == "f":
                idx = [int(tok.split("/")[0]) - 1 for tok in tokens[1:]]
                faces += [[idx[0], a, b] for a, b in zip(idx[1:-1], idx[2:])]
    return TriangleMesh(np.array(vertices), np.array(faces))


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
