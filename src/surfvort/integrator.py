"""Fixed-step RK4 time stepping with geometry-respecting advection.

Planar systems use the standard vector RK4 update. Spherical systems replace
every straight-line displacement by a rotation: a point advected by tangent u
over dt travels the same arc length |u| dt along the great circle through u,
so the update never leaves the sphere and loses no motion to projection.
Stage tangents are combined as ambient 3-vectors and the weighted combination
is projected back onto the base point's tangent plane before the final
rotation.

A run's result is arrays, not per-step objects: the (k, n, 3) positions of
steps 0..k-1, on closed surfaces their map-back onto the source surface in
an array of the same shape, and one (step, E, H_tilde) row per diagnosed
step, with H_tilde NaN where the geometry does not define it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .dynamics import PLANE, VortexSystem
from .errors import SingularityError

FloatArray = NDArray[np.float64]


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; the advection follows the system's geometry."""

    dt: float
    steps: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive and finite")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


def _advect_sphere_rows(p: FloatArray, u: FloatArray, dt: float) -> FloatArray:
    """Rotate each unit row of p along its tangent u for time dt (arc length |u| dt).

    u is projected onto the tangent plane at p first; a row with no tangent
    part stays at p. The results are renormalized to unit length.
    """
    # p cos(theta) + (ut / |ut|) sin(theta) with theta = |ut| dt. A row at
    # rest has ut = 0 and theta = 0; dividing by 1 instead of 0 there makes
    # its tangent term exactly zero, so it comes back as p.
    ut = u - (u * p).sum(axis=1, keepdims=True) * p
    speed = np.sqrt((ut * ut).sum(axis=1, keepdims=True))
    theta = speed * dt
    out = p * np.cos(theta) + ut * (np.sin(theta) / np.where(speed > 0.0, speed, 1.0))
    return out / np.sqrt((out * out).sum(axis=1, keepdims=True))


def _advance(positions: FloatArray, k: FloatArray, dt: float, planar: bool) -> FloatArray:
    if planar:
        return positions + dt * k
    return _advect_sphere_rows(positions, k, dt)


def rk4_step(p: FloatArray, rhs, dt: float, planar: bool) -> FloatArray:
    """Positions after one RK4 step; stages move straight on the plane, by rotation otherwise.

    Rotational advection renormalizes onto the sphere and planar velocities
    keep z = 0 exactly, so the step needs no re-validation; near-collisions
    surface through the rhs's singularity guard.
    """
    k1 = rhs(p)
    k2 = rhs(_advance(p, k1, 0.5 * dt, planar))
    k3 = rhs(_advance(p, k2, 0.5 * dt, planar))
    k4 = rhs(_advance(p, k3, dt, planar))
    return _advance(p, (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, dt, planar)


@dataclass
class RunResult:
    """A run's trajectory arrays plus the collision flag for aborted runs."""

    records: FloatArray                    # (k, n, 3) positions at steps 0..k-1
    source_positions: FloatArray | None    # (k, n, 3) map-back, closed surfaces only
    diagnostics: FloatArray                # (d, 3) rows (step, E, H_tilde)
    collision_step: int | None = None
    collision_message: str = ""

    @property
    def completed(self) -> bool:
        return self.collision_step is None


def run(
    system: VortexSystem,
    rhs,
    config: IntegratorConfig,
    *,
    diagnostics=None,
    diagnostics_every: int = 1,
    map_back=None,
) -> RunResult:
    """Integrate `config.steps` RK4 steps, recording steps 0..steps.

    Parameters
    ----------
    diagnostics : callable((n, 3) array) -> (E, H_tilde or None), optional
        Evaluated on the positions at step 0, every `diagnostics_every`-th
        step and the final step.
    map_back : callable((n, 3) array) -> (n, 3) array, optional
        Maps sphere positions back to the source surface for the record
        (closed surfaces only).

    A singularity raised by `rhs` aborts the run; the steps recorded so far
    are returned with the collision step flagged rather than raised.
    """
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be >= 1")

    planar = system.geometry == PLANE
    p = system.positions
    records = np.empty((config.steps + 1,) + p.shape)
    source = None if map_back is None else np.empty_like(records)
    rows = []
    collision_step, message = None, ""
    for step in range(config.steps + 1):
        if step:
            try:
                p = rk4_step(p, rhs, config.dt, planar)
            except SingularityError as exc:
                collision_step, message = step, str(exc)
                break
        records[step] = p
        if source is not None:
            source[step] = map_back(p)
        if diagnostics is not None and (step % diagnostics_every == 0 or step == config.steps):
            energy, h_tilde = diagnostics(p)
            rows.append((step, energy, math.nan if h_tilde is None else h_tilde))

    kept = config.steps + 1 if collision_step is None else collision_step
    return RunResult(records[:kept], None if source is None else source[:kept],
                     np.array(rows, dtype=np.float64).reshape(-1, 3), collision_step, message)
