"""Point-vortex velocities, stream functions and energy on all three geometries.

Vortex velocities exclude each vortex's own singular contribution (Kirchhoff's
assumption); passive field velocities sum over all vortices. The closed-surface
case evaluates modified spherical dynamics on the conformal sphere image: the
spherical pair interaction rescaled by the interpolated conformal factor plus a
self term driven by the factor's surface gradient.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .conformal import ConformalAtlas
from .errors import SingularityError, VorticityBalanceError
from .kernels import EPS_SEPARATION, green_plane, green_sphere
from .numerics import readonly
from .transport import position_of

FloatArray = NDArray[np.float64]

PLANE = "plane"
SPHERE = "sphere"
CLOSED_SURFACE = "closed_surface"
GEOMETRIES = (PLANE, SPHERE, CLOSED_SURFACE)

# |sum(strengths)| below this fraction of sum|strengths| counts as balanced.
BALANCE_RTOL = 1e-12

# Self-term sign adopted from the conserved-Hamiltonian experiment
# (tests/test_acceptance.py re-runs it; both signs stay selectable).
DEFAULT_SELF_TERM_SIGN = +1


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
    if pos.shape[0] < 2:
        return
    diff = pos[:, None, :] - pos[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    np.fill_diagonal(dist, np.inf)
    if geometry != PLANE:
        # chord -> angle; guard threshold is angular on the sphere
        dist = 2.0 * np.arcsin(np.clip(dist / 2.0, 0.0, 1.0))
    if dist.min() < EPS_SEPARATION:
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        raise SingularityError(f"vortices {i} and {j} are separated by less than {EPS_SEPARATION:g}")


def _require_balanced(strengths: FloatArray) -> None:
    total = math.fsum(strengths)
    scale = math.fsum(np.abs(strengths))
    if abs(total) > BALANCE_RTOL * scale:
        raise VorticityBalanceError(
            f"total vorticity {total:g} must vanish on a closed surface"
        )


# ---------------------------------------------------------------------------
# Pairwise interaction sums (vectorized over the target index)
# ---------------------------------------------------------------------------

def _plane_pair_sum(targets: FloatArray, sources: FloatArray, strengths: FloatArray,
                    exclude_diagonal: bool) -> FloatArray:
    """sum_i w_i * (n x (x - p_i)) / |x - p_i|^2 over sources, for each target.

    Each component's terms are laid out (target, source) so that it is one
    plain sum along the contiguous source axis.
    """
    dx = targets[:, 0, None] - sources[None, :, 0]         # (m, n)
    dy = targets[:, 1, None] - sources[None, :, 1]
    r2 = dx * dx + dy * dy
    if exclude_diagonal:
        np.fill_diagonal(r2, np.inf)
    if np.sqrt(r2.min()) < EPS_SEPARATION:
        raise SingularityError("evaluation point closer than the singularity guard to a vortex")
    # w / r^2 * (-dy, dx, 0)
    c = strengths / r2
    out = np.zeros((targets.shape[0], 3))
    out[:, 0] = -(dy * c).sum(axis=1)
    out[:, 1] = (dx * c).sum(axis=1)
    return out


# component rows k+1 then k+2 (mod 3), for the written-out cross product
_CYCLIC = np.array([1, 2, 0, 2, 0, 1])


def _sphere_pair_sum(targets: FloatArray, sources: FloatArray, strengths: FloatArray,
                     exclude_diagonal: bool) -> FloatArray:
    """sum_i w_i * (x cross p_i) / (1 - x . p_i) over sources, for each target.

    The cross product is written out component-wise, (x cross p)_k =
    x_{k+1} p_{k+2} - x_{k+2} p_{k+1}, and each component is one plain sum
    along the contiguous source axis. (Factoring the sum as
    x cross sum_i c_i p_i is cheaper but loses accuracy to cancellation as n
    grows.)
    """
    dots = (targets @ sources.T).clip(-1.0, 1.0)            # (m, n)
    if exclude_diagonal:
        np.fill_diagonal(dots, -1.0)
    if np.arccos(dots.max()) < EPS_SEPARATION:
        raise SingularityError("evaluation point closer than the singularity guard to a vortex")
    t = targets.T[_CYCLIC, :, None]                         # (6, m, 1)
    s = sources.T[_CYCLIC, None, :]                         # (6, 1, n)
    cross = t[:3] * s[3:]
    cross -= t[3:] * s[:3]                                  # (3, m, n)
    cross *= strengths / (1.0 - dots)
    return cross.sum(axis=2).T


def _require_geometry(system: VortexSystem, geometry: str) -> None:
    if system.geometry != geometry:
        raise ValueError(f"expected a {geometry} system, got {system.geometry}")


# ---------------------------------------------------------------------------
# Planar dynamics
# ---------------------------------------------------------------------------

def planar_vortex_velocities(system: VortexSystem) -> FloatArray:
    """Velocity of every vortex from all the others, (n, 3) with z = 0."""
    _require_geometry(system, PLANE)
    return _plane_pair_sum(system.positions, system.positions, system.strengths,
                           exclude_diagonal=True) / (2.0 * np.pi)


def planar_field_velocity(x, system: VortexSystem) -> FloatArray:
    """Passive fluid velocity at x (full sum over all vortices)."""
    _require_geometry(system, PLANE)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    u = _plane_pair_sum(np.atleast_2d(x), system.positions, system.strengths,
                        exclude_diagonal=False) / (2.0 * np.pi)
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Spherical dynamics
# ---------------------------------------------------------------------------

def sphere_vortex_velocities(system: VortexSystem) -> FloatArray:
    """Velocity of every vortex on the unit sphere; each result is tangent."""
    _require_geometry(system, SPHERE)
    return _sphere_pair_sum(system.positions, system.positions, system.strengths,
                            exclude_diagonal=True) / (4.0 * np.pi)


def sphere_field_velocity(x, system: VortexSystem) -> FloatArray:
    _require_geometry(system, SPHERE)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    u = _sphere_pair_sum(np.atleast_2d(x), system.positions, system.strengths,
                         exclude_diagonal=False) / (4.0 * np.pi)
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Closed-surface dynamics (on the conformal sphere image)
# ---------------------------------------------------------------------------

def surface_vortex_velocities(
    system: VortexSystem,
    atlas: ConformalAtlas,
    self_term_sign: int = DEFAULT_SELF_TERM_SIGN,
    locations: tuple[NDArray[np.int64], FloatArray] | None = None,
) -> FloatArray:
    """Vortex velocities on the sphere image of a closed surface.

    u(p_j) = [ sum_{i != j} w_i (p_j x p_i) / (1 - p_j . p_i)
               + sign * (w_j / h_j) p_j x grad_h(p_j) ] / (4 pi h_j^2)

    with h and grad h interpolated from the atlas at each vortex's sphere-mesh
    location. `locations` may pass precomputed ``(tri, st)`` arrays to skip
    the point location walk; `self_term_sign` selects the self-term
    orientation (the default is fixed by the conserved-Hamiltonian experiment).
    """
    _require_geometry(system, CLOSED_SURFACE)
    if self_term_sign not in (-1, 1):
        raise ValueError("self_term_sign must be +1 or -1")
    _require_balanced(system.strengths)
    p = system.positions
    tri, st = atlas.locator.locate(p) if locations is None else locations
    if tri.shape != (len(system),):
        raise ValueError("need one sphere-mesh location per vortex")
    pair = _sphere_pair_sum(p, p, system.strengths, exclude_diagonal=True)
    h = atlas.factor_at(tri, st)
    grads = atlas.grad_factor_at(tri)
    self_term = (system.strengths / h)[:, None] * np.cross(p, grads)
    return (pair + self_term_sign * self_term) / (4.0 * np.pi * (h * h)[:, None])


def surface_field_velocity(
    x,
    system: VortexSystem,
    atlas: ConformalAtlas,
    locations: tuple[NDArray[np.int64], FloatArray] | None = None,
) -> FloatArray:
    """Passive velocity at sphere point(s) x; no self term, scaled by 1/h(x)^2.

    `locations` may pass the points' sphere-mesh ``(tri, st)`` arrays to skip
    point location.
    """
    _require_geometry(system, CLOSED_SURFACE)
    _require_balanced(system.strengths)
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    pair = _sphere_pair_sum(pts, system.positions, system.strengths, exclude_diagonal=False)
    tri, st = atlas.locator.locate(pts) if locations is None else locations
    if tri.shape != (pts.shape[0],):
        raise ValueError("need one sphere-mesh location per field point")
    h = atlas.factor_at(tri, st)
    u = pair / (4.0 * np.pi * (h * h)[:, None])
    return u[0] if single else u


# ---------------------------------------------------------------------------
# Stream function, energy, balance
# ---------------------------------------------------------------------------

def stream_function(x, system: VortexSystem) -> float | FloatArray:
    """Stream function sum_i w_i G(x, p_i) for the plane or the sphere.

    Level lines of this field are the flow lines; it is not available on
    general closed surfaces (no closed-form Green's function there).
    """
    if system.geometry == CLOSED_SURFACE:
        raise ValueError("stream function is unsupported on closed surfaces")
    green = green_plane if system.geometry == PLANE else green_sphere
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    terms = system.strengths[None, :] * green(pts[:, None, :], system.positions[None, :, :])
    psi = terms.sum(axis=1)
    return float(psi[0]) if single else psi


def kinetic_energy(system: VortexSystem) -> float:
    """Excess kinetic energy E = -sum_{i<j} w_i w_j G(p_i, p_j).

    For closed-surface systems the sphere kernel is evaluated on the vortex
    images (the sphere part of the metric Hamiltonian).
    """
    n = len(system)
    if n < 2:
        return 0.0
    green = green_plane if system.geometry == PLANE else green_sphere
    iu, ju = np.triu_indices(n, k=1)
    g = np.asarray(green(system.positions[iu], system.positions[ju]))
    return -math.fsum(system.strengths[iu] * system.strengths[ju] * g)


def metric_hamiltonian(system: VortexSystem, atlas: ConformalAtlas) -> float:
    """Conserved Hamiltonian of the closed-surface dynamics.

    The sphere-kernel energy of the vortex images minus
    (1 / 4 pi) * sum_i w_i^2 * log h(p_i), valid under vanishing total
    vorticity.
    """
    _require_geometry(system, CLOSED_SURFACE)
    _require_balanced(system.strengths)
    log_h = np.log(atlas.factor_at(*atlas.locator.locate(system.positions)))
    correction = math.fsum(system.strengths * system.strengths * log_h)
    return kinetic_energy(system) - correction / (4.0 * np.pi)


def energy_diagnostics(system: VortexSystem,
                       atlas: ConformalAtlas | None = None) -> tuple[float, float | None]:
    """(E, H_tilde) of a system state; H_tilde is None except on closed surfaces."""
    h_tilde = None
    if system.geometry == CLOSED_SURFACE:
        if atlas is None:
            raise ValueError("closed-surface diagnostics need the conformal atlas")
        h_tilde = metric_hamiltonian(system, atlas)
    return kinetic_energy(system), h_tilde


def balance_vorticity(
    system: VortexSystem,
    mode: str = "reject",
    counter_position=None,
) -> VortexSystem:
    """Enforce vanishing total vorticity.

    ``reject`` raises when |sum w| exceeds the balance tolerance;
    ``counter_vortex`` appends one vortex of strength -sum(w) at
    `counter_position`. Already-balanced systems pass through unchanged.
    """
    total = system.total_strength
    scale = math.fsum(np.abs(system.strengths))
    if abs(total) <= BALANCE_RTOL * max(scale, 1.0):
        return system
    if mode == "reject":
        raise VorticityBalanceError(f"total vorticity {total:g} must vanish (reject mode)")
    if mode != "counter_vortex":
        raise ValueError(f"unknown balance mode {mode!r}")
    if counter_position is None:
        raise ValueError("counter_vortex mode needs a location for the counter vortex")
    counter = np.asarray(counter_position, dtype=np.float64)
    if counter.shape == (2,):
        counter = np.array([counter[0], counter[1], 0.0])
    positions = np.concatenate([system.positions, counter[None, :]])
    strengths = np.concatenate([system.strengths, [-total]])
    return VortexSystem(system.geometry, positions, strengths)


# ---------------------------------------------------------------------------
# Right-hand sides for the integrator
# ---------------------------------------------------------------------------

class SurfaceVelocityEvaluator:
    """Closed-surface RHS with a per-instance triangle-walk hint cache.

    The cache only accelerates point location (hints are re-derived if stale);
    instances must not be shared between concurrently running integrations.
    """

    def __init__(self, atlas: ConformalAtlas, strengths: FloatArray,
                 self_term_sign: int = DEFAULT_SELF_TERM_SIGN) -> None:
        self.atlas = atlas
        self.strengths = np.asarray(strengths, dtype=np.float64)
        self.self_term_sign = self_term_sign
        self._hints = np.zeros(self.strengths.shape[0], dtype=np.int64)

    def locate(self, positions: FloatArray):
        """Sphere-mesh ``(tri, st)`` of the positions; their triangles become the hints."""
        tri, st = self.atlas.locator.locate(positions, hints=self._hints)
        self._hints = tri
        return tri, st

    def __call__(self, positions: FloatArray) -> FloatArray:
        system = VortexSystem(CLOSED_SURFACE, positions, self.strengths, check=False)
        return surface_vortex_velocities(
            system, self.atlas, self_term_sign=self.self_term_sign,
            locations=self.locate(positions),
        )

    def to_source(self, positions: FloatArray) -> FloatArray:
        """Map sphere points back to the source mesh through the atlas."""
        return position_of(self.atlas.source_mesh, *self.locate(positions))


def make_rhs(system: VortexSystem, atlas: ConformalAtlas | None = None,
             self_term_sign: int = DEFAULT_SELF_TERM_SIGN):
    """Velocity evaluator (positions -> velocities) for a system's geometry."""
    w = system.strengths
    if system.geometry == PLANE:
        return lambda p: _plane_pair_sum(p, p, w, exclude_diagonal=True) / (2.0 * np.pi)
    if system.geometry == SPHERE:
        return lambda p: _sphere_pair_sum(p, p, w, exclude_diagonal=True) / (4.0 * np.pi)
    if atlas is None:
        raise ValueError("closed-surface dynamics need a conformal atlas")
    return SurfaceVelocityEvaluator(atlas, w, self_term_sign=self_term_sign)
