"""Point-vortex velocities, stream functions and energy on all three geometries.

Vortex velocities exclude each vortex's own singular contribution (Kirchhoff's
assumption); passive field velocities sum over all vortices, with
``u = n x grad(psi)`` (counter-clockwise about the surface normal). The
closed-surface case evaluates modified spherical dynamics on the conformal
sphere image: the spherical pair interaction rescaled by the conformal factor
plus a self term driven by its surface gradient, both from `ConformalAtlas.factor`.

Both Green's functions are the log of a squared distance, the sphere's through
the chord ``|x - y| = 2 sin(d / 2)`` of the angle d, so neither takes a square
root, an arccos or an arcsin; the singularity guard compares squared distances too.

README's "Conventions and numerical notes" describe the pair passes: the one
chord-difference sum behind every velocity, the blocks of target rows and
their workspace, and which results are bit-identical at any block size.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .conformal import ConformalAtlas
from .errors import SingularityError, VorticityBalanceError
from .numerics import FloatArray, readonly
from .transport import position_of

PLANE = "plane"
SPHERE = "sphere"
CLOSED_SURFACE = "closed_surface"
GEOMETRIES = (PLANE, SPHERE, CLOSED_SURFACE)

# |sum(strengths)| below this fraction of sum|strengths| counts as balanced.
BALANCE_RTOL = 1e-12

# Self-term sign adopted from the conserved-Hamiltonian experiment
# (tests/test_acceptance.py re-runs it; both signs stay selectable).
DEFAULT_SELF_TERM_SIGN = +1

# Pairs per block of a pair pass: a block's (rows, n) float64 temporaries are
# 256 KB each, 32 rows at n = 1024, so the six planes of a sphere block fit in
# L2. Sizing blocks by pairs rather than rows keeps a pass over few sources in
# few blocks: a field of 20,000 points over 5 vortices is 4 blocks, not 625.
PAIR_BLOCK_PAIRS = 32 * 1024

# Plane and sphere systems of at most this many vortices loop over their pairs,
# and step, in Python floats (`_few_vortex_rhs`): numpy's ~1 us a call outweighs them.
FEW_VORTICES = 7

# Pairs closer than this (Euclidean on the plane, angular on the sphere)
# are treated as collisions rather than evaluated.
EPS_SEPARATION = 1e-9
# The same guard on squared distances: the plane's, and the squared chord
# of the angle EPS_SEPARATION on the sphere.
EPS_PLANE_SQ = EPS_SEPARATION ** 2
EPS_CHORD_SQ = (2.0 * math.sin(0.5 * EPS_SEPARATION)) ** 2

# A Green's function is this factor times the log of a squared distance:
# -ln(r) / (2 pi) = -ln(r^2) / (4 pi).
_GREEN_LOG_SCALE = -0.25 / math.pi


def green_of_squared(sq: FloatArray, sphere: bool, out: FloatArray) -> FloatArray:
    """The plane or sphere Green's function of squared distances `sq`, into `out`.

    Plane: -ln(r^2) / (4 pi). Sphere: -ln(c^2 / 4) / (4 pi) of the squared
    chord c^2, which is -ln(sin(d / 2)) / (2 pi). `out` may be `sq`.
    """
    if sphere:
        sq = np.multiply(sq, 0.25, out=out)
    np.log(sq, out=out)
    out *= _GREEN_LOG_SCALE
    return out


def check_squared_separation(sq: FloatArray, sphere: bool) -> None:
    """Raise if a squared distance (a squared chord on the sphere) is inside the guard."""
    if sq.min(initial=np.inf) < (EPS_CHORD_SQ if sphere else EPS_PLANE_SQ):
        kind = "spherical" if sphere else "planar"
        raise SingularityError(f"{kind} kernel evaluated at separation below {EPS_SEPARATION:g}")


def _row_blocks(m: int, n: int, planes: int):
    """(start, stop, ws) of consecutive target-row blocks covering range(m).

    A block has at most PAIR_BLOCK_PAIRS pairs with the n sources, and at
    least one row; ws is its (planes, stop - start, n) part of one workspace
    that the pass allocates here, once.
    """
    rows = max(1, PAIR_BLOCK_PAIRS // n)
    workspace = np.empty((planes, min(rows, m), n))
    for start in range(0, m, rows):
        stop = min(start + rows, m)
        yield start, stop, workspace[:, :stop - start]


def _squared_distances(tgt: FloatArray, src: FloatArray, ws: FloatArray) -> FloatArray:
    """|x - p|^2 between targets tgt (c, rows) and sources src (c, k), as a (rows, k) view of ws.

    tgt and src hold one coordinate per row: x and y on the plane, x, y and z
    on the sphere, which are summed in that order. The differences are
    squared in place in the first c planes of the block workspace ws, and the
    result is the first.
    """
    c = tgt.shape[0]
    d = ws[:c, :, :src.shape[1]]
    np.subtract(tgt[:, :, None], src[:, None, :], out=d)
    np.multiply(d, d, out=d)
    r2 = np.add(d[0], d[1], out=d[0])
    if c == 3:
        r2 += d[2]
    return r2


def _fill_self_pairs(block: FloatArray, start: int, value: float) -> None:
    """Set the entries (i, start + i) of the block of target rows start, start + 1, ...

    They pair each target with itself when the targets are the sources; this
    is ``np.fill_diagonal(block[:, start:], value)`` without its overhead.
    """
    block.flat[start::block.shape[1] + 1] = value


def _coordinate_rows(points: FloatArray, geometry: str) -> FloatArray:
    """The points' coordinates as rows: (2, m) x and y on the plane, (3, m) elsewhere."""
    return points.T[:2] if geometry == PLANE else points.T


class VortexSystem:
    """Ordered point vortices on one geometry.

    Positions are embedded 3-vectors: z = 0 on the plane, unit vectors on the
    sphere. For ``closed_surface`` the positions are the vortices' images on
    the conformal unit sphere and the total strength must vanish. Instances
    are immutable; evaluation functions are pure and safe to share.
    """

    __slots__ = ("geometry", "positions", "strengths")

    def __init__(self, geometry: str, positions, strengths, *, check: bool = True) -> None:
        if geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {geometry!r}")
        pos = np.array(positions, dtype=np.float64, order="C")
        if pos.ndim != 2 or pos.shape[1] not in (2, 3):
            raise ValueError("positions must have shape (n, 2) or (n, 3)")
        if pos.shape[1] == 2:
            pos = np.concatenate([pos, np.zeros((pos.shape[0], 1))], axis=1)
        w = np.array(strengths, dtype=np.float64, order="C")
        if w.shape != (pos.shape[0],):
            raise ValueError("strengths must have shape (n,)")
        if pos.shape[0] == 0:
            raise ValueError("a vortex system needs at least one vortex")
        if check:
            if not (np.isfinite(pos).all() and np.isfinite(w).all()):
                raise ValueError("non-finite vortex data")
            if geometry == PLANE:
                if np.any(np.abs(pos[:, 2]) > 1e-12):
                    raise ValueError("plane vortex positions must have z = 0")
                pos[:, 2] = 0.0
            else:
                norms = np.linalg.norm(pos, axis=1)
                if np.any(np.abs(norms - 1.0) > 1e-9):
                    raise ValueError("sphere vortex positions must be unit vectors")
                pos = pos / norms[:, None]
            _min_separation_check(geometry, pos)
            if geometry == CLOSED_SURFACE:
                _require_balanced(w)
        self.geometry = geometry
        self.positions: FloatArray = readonly(pos)
        self.strengths: FloatArray = readonly(w)

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def total_strength(self) -> float:
        return math.fsum(self.strengths)

    def __repr__(self) -> str:
        return f"VortexSystem({self.geometry}, n={len(self)})"


def _min_separation_check(geometry: str, pos: FloatArray) -> None:
    """Raise if two vortices are closer than the guard, naming the closest pair.

    The pair is the first (row-major) minimum of the whole matrix of squared
    distances: a later block replaces the best pair only with a strictly
    smaller one.
    """
    n = pos.shape[0]
    pts = _coordinate_rows(pos, geometry)
    closest, pair = np.inf, None
    for start, stop, ws in _row_blocks(n, n, pts.shape[0]):
        r2 = _squared_distances(pts[:, start:stop], pts, ws)
        _fill_self_pairs(r2, start, np.inf)
        k = int(np.argmin(r2))
        if r2.flat[k] < closest:
            closest, pair = r2.flat[k], (start + k // n, k % n)
    if closest < (EPS_PLANE_SQ if geometry == PLANE else EPS_CHORD_SQ):
        i, j = pair
        raise SingularityError(f"vortices {i} and {j} are separated by less than {EPS_SEPARATION:g}")


def vorticity_imbalance(strengths) -> float:
    """The total strength, or 0.0 when it is within BALANCE_RTOL of sum |w| (balanced)."""
    total = math.fsum(strengths)
    return total if abs(total) > BALANCE_RTOL * math.fsum(np.abs(strengths)) else 0.0


def _require_balanced(strengths: FloatArray) -> None:
    total = vorticity_imbalance(strengths)
    if total:
        raise VorticityBalanceError(
            f"total vorticity {total:g} must vanish on a closed surface"
        )


# ---------------------------------------------------------------------------
# Pairwise interaction sums (vectorized over the target index)
# ---------------------------------------------------------------------------

def _chord_sum(tgt: FloatArray, src: FloatArray, strengths: FloatArray,
               exclude_diagonal: bool, out: FloatArray) -> FloatArray:
    """S(x) = sum_i w_i (x - p_i) / |x - p_i|^2 over sources, for each target, into out.

    tgt (c, m) and src (c, n) are coordinate rows, src contiguous, and out is
    (c, m): x and y on the plane, and x, y and z on the sphere, where |x - p|
    is the chord. Each component's terms are laid out (target, source), so
    that it is one plain sum along the contiguous source axis. With
    `exclude_diagonal` the targets are the sources and target j skips
    source j.
    """
    c, m = out.shape
    n = src.shape[1]
    t, s = tgt[:, :, None], src[:, None, :]
    guard = EPS_PLANE_SQ if c == 2 else EPS_CHORD_SQ
    for start, stop, ws in _row_blocks(m, n, 2 * c):
        d, sq = ws[:c], ws[c:]
        np.subtract(t[:, start:stop], s, out=d)                     # x - p
        r2 = np.multiply(d, d, out=sq)[0]
        r2 += sq[1]
        if c == 3:
            r2 += sq[2]
        if exclude_diagonal:
            _fill_self_pairs(r2, start, np.inf)
        if r2.min(initial=np.inf) < guard:
            raise SingularityError("evaluation point closer than the singularity guard to a vortex")
        d *= np.divide(strengths, r2, out=r2)                       # w / r^2 * (x - p)
        d.sum(axis=2, out=out[:, start:stop])
    return out


# scales the (x, y) coordinate rows to (x, -y). Over them S comes out as
# (S_x, -S_y), which read backwards is n cross S = (-S_y, S_x); each -S_y is
# a sum of negated terms, which keeps the sign of a zero velocity as well.
_FLIP_Y = np.array([[1.0], [-1.0]])


def _plane_velocities(targets: FloatArray, sources: FloatArray, strengths: FloatArray,
                      exclude_diagonal: bool) -> FloatArray:
    """n cross S(x) / 2 pi for each target x, (m, 3) with z = 0; S as in `_chord_sum`."""
    src = sources.T[:2] * _FLIP_Y
    tgt = src if targets is sources else targets.T[:2] * _FLIP_Y
    u = np.zeros((targets.shape[0], 3))
    _chord_sum(tgt, src, strengths, exclude_diagonal, out=u[:, 1::-1].T)
    return u / (2.0 * np.pi)


# coordinate rows x, y, z, x, y: rows k + 1 and k + 2 of every row k are slices
_WRAP = np.array([0, 1, 2, 0, 1])


def _cross(a: FloatArray, b: FloatArray) -> FloatArray:
    """a x b of (5, m) wrapped coordinate rows (see _WRAP), as (3, m) rows.

    (a x b)_k = a_{k+1} b_{k+2} - a_{k+2} b_{k+1}, np.cross's operations.
    """
    out = a[1:4] * b[2:5]
    out -= a[2:5] * b[1:4]
    return out


def _sphere_pair_sum(targets: FloatArray, sources: FloatArray, strengths: FloatArray,
                     exclude_diagonal: bool) -> FloatArray:
    """S(x) cross x for each target x, (3, m); S as in `_chord_sum`.

    For unit vectors 1 - x . p = |x - p|^2 / 2 and x cross p = (x - p) cross x,
    so this is half the pair sum sum_i w_i (x cross p_i) / (1 - x . p_i).
    Each term comes from the difference x - p_i, small for a near pair, so it
    keeps its relative accuracy at any separation; the gap 1 - x . p of a dot
    product loses about 1e-16 / (1 - x . p).
    """
    x = targets.T[_WRAP]
    src = x[:3] if targets is sources else np.ascontiguousarray(sources.T)
    s = np.empty_like(x)
    _chord_sum(x[:3], src, strengths, exclude_diagonal, out=s[:3])
    s[3:] = s[:2]
    return _cross(s, x)


def _few_vortex_rhs(strengths: FloatArray, sphere: bool, blocked):
    """`blocked`'s velocities (the blocked pass's) in Python floats, bit for bit, and whole RK4 steps.

    Each term repeats the pass's operations, and numpy sums under 8 terms a
    row as a running sum from 0.0, as here. `rk4_step` is described in `integrator`.
    """
    w = strengths.tolist()
    others = [[(j, wj) for j, wj in enumerate(w) if j != i] for i in range(len(w))]
    guard, tau, inf = (EPS_CHORD_SQ if sphere else EPS_PLANE_SQ), 2.0 * math.pi, math.inf

    def plane(pts):
        out = []
        for (x, y, _), sources in zip(pts, others):
            a = b = 0.0
            for j, wj in sources:
                xj, yj, _ = pts[j]
                dx, dy = x - xj, yj - y  # the pass's (x, -y) rows: -y - -yj is yj - y
                r2 = dx * dx + dy * dy
                if r2 < guard:
                    raise SingularityError("evaluation point closer than the singularity guard to a vortex")
                q = wj / r2
                a, b = a + q * dx, b + q * dy
            out.append((b / tau, a / tau, 0.0))  # n x S = (S_-y, S_x)
        return out

    def sphere_(pts):
        out = []
        for (x, y, z), sources in zip(pts, others):
            a = b = c = 0.0
            for j, wj in sources:
                xj, yj, zj = pts[j]
                dx, dy, dz = x - xj, y - yj, z - zj
                r2 = dx * dx + dy * dy + dz * dz
                if r2 < guard:
                    raise SingularityError("evaluation point closer than the singularity guard to a vortex")
                q = wj / r2
                a, b, c = a + q * dx, b + q * dy, c + q * dz
            out.append(((b * z - c * y) / tau, (c * x - a * z) / tau, (a * y - b * x) / tau))  # S x x
        return out

    velocities = sphere_ if sphere else plane

    def advance(p, k, h):  # integrator._advance; numpy sums a row's squares in this order
        q = [(x + h * u, y + h * v, z + h * w) for (x, y, z), (u, v, w) in zip(p, k)]
        if sphere:  # q / 0 raises, and a row whose squares overflow drops out
            q = [(x / s, y / s, z / s) for x, y, z in q if (s := math.sqrt(x * x + y * y + z * z)) < inf]
            if len(q) < len(p):
                raise FloatingPointError
        return q

    def step(p: FloatArray, dt: float) -> FloatArray:
        try:
            ks = [velocities(pts := p.tolist())]
            for h in (0.5 * dt, 0.5 * dt, dt):
                ks.append(velocities(advance(pts, ks[-1], h)))
            q = advance(pts, [(((a1 + 2.0 * a2) + 2.0 * a3 + a4) / 6.0, ((b1 + 2.0 * b2) + 2.0 * b3 + b4) / 6.0,
                               ((c1 + 2.0 * c2) + 2.0 * c3 + c4) / 6.0)
                              for (a1, b1, c1), (a2, b2, c2), (a3, b3, c3), (a4, b4, c4) in zip(*ks)], dt)
            if sphere or math.isfinite(sum(map(sum, q))):  # else inf or NaN on the plane
                return np.array(q)
        except (SingularityError, FloatingPointError, ZeroDivisionError):
            pass
        from .integrator import rk4_step  # numpy's step over the pass raises what it meets first
        return rk4_step(p, blocked, dt, not sphere)

    def rhs(p: FloatArray) -> FloatArray:
        return np.array(velocities(p.tolist()), order="F" if sphere else "C")  # the pass's layouts

    rhs.rk4_step = step
    return rhs


def _require_geometry(system: VortexSystem, geometry: str) -> None:
    if system.geometry != geometry:
        raise ValueError(f"expected a {geometry} system, got {system.geometry}")


# ---------------------------------------------------------------------------
# Planar dynamics
# ---------------------------------------------------------------------------

def planar_field_velocity(x, system: VortexSystem) -> FloatArray:
    """Passive fluid velocity at x (full sum over all vortices)."""
    _require_geometry(system, PLANE)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    u = _plane_velocities(np.atleast_2d(x), system.positions, system.strengths,
                          exclude_diagonal=False)
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Spherical dynamics
# ---------------------------------------------------------------------------

def sphere_field_velocity(x, system: VortexSystem) -> FloatArray:
    _require_geometry(system, SPHERE)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    u = (_sphere_pair_sum(np.atleast_2d(x), system.positions, system.strengths,
                          exclude_diagonal=False) / (2.0 * np.pi)).T
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Closed-surface dynamics (on the conformal sphere image)
# ---------------------------------------------------------------------------

def surface_field_velocity(
    x,
    system: VortexSystem,
    atlas: ConformalAtlas,
    locations: tuple[NDArray[np.int64], FloatArray] | None = None,
) -> FloatArray:
    """Passive velocity at sphere point(s) x; no self term, scaled by 1/h(x)^2.

    `locations` may pass the points' ``(tri, st)``, as to `ConformalAtlas.factor`.
    """
    _require_geometry(system, CLOSED_SURFACE)
    _require_balanced(system.strengths)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    half_pair = _sphere_pair_sum(pts, system.positions, system.strengths, exclude_diagonal=False)
    h, _ = atlas.factor(pts, locations)
    u = (half_pair / (2.0 * np.pi * (h * h))).T
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Stream function and energy
# ---------------------------------------------------------------------------

def stream_function(x, system: VortexSystem) -> float | FloatArray:
    """Stream function sum_i w_i G(x, p_i) for the plane or the sphere.

    Level lines of this field are the flow lines; it is not available on
    general closed surfaces (no closed-form Green's function there).
    """
    if system.geometry == CLOSED_SURFACE:
        raise ValueError("stream function is unsupported on closed surfaces")
    sphere = system.geometry == SPHERE
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    tgt = _coordinate_rows(pts, system.geometry)
    src = _coordinate_rows(system.positions, system.geometry)
    m, n = pts.shape[0], len(system)
    psi = np.empty(m)
    for start, stop, ws in _row_blocks(m, n, tgt.shape[0]):
        r2 = _squared_distances(tgt[:, start:stop], src, ws)
        check_squared_separation(r2, sphere)
        terms = green_of_squared(r2, sphere, out=r2)
        terms *= system.strengths
        terms.sum(axis=1, out=psi[start:stop])
    return float(psi[0]) if single else psi


def nearest_vortex_distance(x, system: VortexSystem) -> FloatArray:
    """Distance from each point of x (m, 3) to its nearest vortex.

    Both come from the least squared distance of each row: Euclidean on the
    plane, its square root; on the sphere and on a closed surface's sphere
    image, the least squared chord c^2, as the angle 2 arcsin(c / 2).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    m, n = pts.shape[0], len(system)
    tgt = _coordinate_rows(pts, system.geometry)
    src = _coordinate_rows(system.positions, system.geometry)
    least = np.empty(m)
    for start, stop, ws in _row_blocks(m, n, tgt.shape[0]):
        _squared_distances(tgt[:, start:stop], src, ws).min(axis=1, out=least[start:stop])
    dist = np.sqrt(least, out=least)
    if system.geometry == PLANE:
        return dist
    return 2.0 * np.arcsin(np.minimum(0.5 * dist, 1.0))


def kinetic_energy(system: VortexSystem) -> float:
    """Excess kinetic energy E = -sum_{i<j} w_i w_j G(p_i, p_j).

    For closed-surface systems the sphere kernel is evaluated on the vortex
    images (the sphere part of the metric Hamiltonian). One pass takes each
    pair once: a block of rows meets itself and every later vortex, with its
    pairs j <= i set to the squared distance whose G is 0. E is the exact sum
    of the blocks' plain sums. Positions far enough apart that a squared
    distance overflows give an infinite or NaN E.
    """
    n = len(system)
    if n < 2:
        return 0.0
    sphere = system.geometry != PLANE
    neutral = 4.0 if sphere else 1.0  # G = 0 at r^2 = 1, and at chord^2 / 4 = 1
    w, pts = system.strengths, _coordinate_rows(system.positions, system.geometry)
    partials = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflowing squared distances give E = inf or NaN
        for start, stop, ws in _row_blocks(n, n, pts.shape[0]):
            r2 = _squared_distances(pts[:, start:stop], pts[:, start:], ws)
            r2[np.tril_indices(stop - start)] = neutral
            check_squared_separation(r2, sphere)
            terms = green_of_squared(r2, sphere, out=r2)
            terms *= w[start:stop, None]
            terms *= w[start:]
            partials.append(terms.sum())
    try:
        return -math.fsum(partials)
    except (ValueError, OverflowError):  # infinities of both signs, or an overflowing sum
        return math.nan


def energy_diagnostics(system: VortexSystem,
                       atlas: ConformalAtlas | None = None) -> tuple[float, float | None]:
    """(E, H_tilde) of a system state; H_tilde is None except on closed surfaces.

    H_tilde is the conserved Hamiltonian of the closed-surface dynamics under
    vanishing total vorticity: the sphere-kernel energy E of the vortex images
    minus (1 / 4 pi) * sum_i w_i^2 * log h(p_i). E is computed once.
    """
    if system.geometry != CLOSED_SURFACE:
        return kinetic_energy(system), None
    if atlas is None:
        raise ValueError("closed-surface diagnostics need the conformal atlas")
    w = system.strengths
    _require_balanced(w)
    term = math.fsum(w * w * np.log(atlas.factor(system.positions)[0])) / (4.0 * np.pi)
    e = kinetic_energy(system)
    return e, e - term


# ---------------------------------------------------------------------------
# Right-hand sides for the integrator
# ---------------------------------------------------------------------------

class SurfaceVelocityEvaluator:
    """Closed-surface RHS with a per-instance triangle-walk hint cache.

    The strengths' balance and the self-term sign are checked once, here,
    rather than on every evaluation.

    The cache only accelerates point location (hints are re-derived if stale);
    instances must not be shared between concurrently running integrations.
    """

    def __init__(self, atlas: ConformalAtlas, strengths: FloatArray,
                 self_term_sign: int = DEFAULT_SELF_TERM_SIGN) -> None:
        if self_term_sign not in (-1, 1):
            raise ValueError("self_term_sign must be +1 or -1")
        self.atlas = atlas
        self.strengths = np.asarray(strengths, dtype=np.float64)
        _require_balanced(self.strengths)
        self.self_term_sign = self_term_sign
        self._hints = np.zeros(self.strengths.shape[0], dtype=np.int64)

    def locate(self, positions: FloatArray):
        """Sphere-mesh ``(tri, st)`` of the positions; their triangles become the hints."""
        tri, st = self.atlas.locator.locate(positions, hints=self._hints)
        self._hints = tri
        return tri, st

    def __call__(self, p: FloatArray) -> FloatArray:
        """Velocities of the vortices at sphere points p, (n, 3):

        u(p_j) = [ sum_{i != j} w_i (p_j x p_i) / (1 - p_j . p_i)
                   + sign * (w_j / h_j) p_j x grad_h(p_j) ] / (4 pi h_j^2)

        with h and grad h from `ConformalAtlas.factor` at the vortices' hinted locations.
        """
        h, grad_h = self.atlas.factor(p, self.locate(p))
        pair = 2.0 * _sphere_pair_sum(p, p, self.strengths, exclude_diagonal=True)
        self_term = (self.strengths / h) * _cross(p.T[_WRAP], grad_h.T[_WRAP])
        return ((pair + self.self_term_sign * self_term) / (4.0 * np.pi * (h * h))).T

    def to_source(self, positions: FloatArray) -> FloatArray:
        """Map sphere points back to the source mesh through the atlas."""
        return position_of(self.atlas.source_mesh, *self.locate(positions))


def make_rhs(system: VortexSystem, atlas: ConformalAtlas | None = None,
             self_term_sign: int = DEFAULT_SELF_TERM_SIGN):
    """Velocity evaluator (positions -> velocities) for a system's geometry."""
    w = system.strengths
    if system.geometry == CLOSED_SURFACE:
        if atlas is None:
            raise ValueError("closed-surface dynamics need a conformal atlas")
        return SurfaceVelocityEvaluator(atlas, w, self_term_sign=self_term_sign)
    rhs = ((lambda p: _plane_velocities(p, p, w, exclude_diagonal=True)) if system.geometry == PLANE
           else lambda p: (_sphere_pair_sum(p, p, w, exclude_diagonal=True) / (2.0 * np.pi)).T)
    return _few_vortex_rhs(w, system.geometry == SPHERE, rhs) if len(system) <= FEW_VORTICES else rhs
