"""Fixed-step RK4 time stepping with geometry-respecting advection.

Planar systems use the standard vector RK4 update. Spherical systems replace
every straight-line displacement by a rotation: a point advected by tangent u
over dt travels the same arc length |u| dt along the great circle through u,
so the update never leaves the sphere and loses no motion to projection.
Stage tangents are combined as ambient 3-vectors and the weighted combination
is projected back onto the base point's tangent plane before the final
rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .dynamics import PLANE, EnergyDiagnostics, VortexSystem
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


def advect_sphere(p: FloatArray, u: FloatArray, dt: float) -> FloatArray:
    """Rotate unit vector p along tangent u for time dt (arc length |u| dt).

    u is projected onto the tangent plane at p first; |u| = 0 returns p.
    The result is renormalized to exactly unit length.
    """
    p = np.asarray(p, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    out = _advect_sphere_rows(p[None, :], u[None, :], dt)[0]
    return out


def _advect_sphere_rows(p: FloatArray, u: FloatArray, dt: float) -> FloatArray:
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


def rk4_step(system: VortexSystem, rhs, config: IntegratorConfig) -> VortexSystem:
    """One RK4 step; stage points move straight on the plane, by rotation otherwise.

    The returned system skips the constructor's pairwise re-validation:
    rotational advection renormalizes onto the sphere and planar velocities
    keep z = 0 exactly, while near-collisions surface through the rhs's
    singularity guard on the next evaluation.
    """
    p = system.positions
    dt = config.dt
    planar = system.geometry == PLANE
    k1 = rhs(p)
    k2 = rhs(_advance(p, k1, 0.5 * dt, planar))
    k3 = rhs(_advance(p, k2, 0.5 * dt, planar))
    k4 = rhs(_advance(p, k3, dt, planar))
    k = (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
    new_p = _advance(p, k, dt, planar)
    return VortexSystem(system.geometry, new_p, system.strengths, check=False)


@dataclass(frozen=True)
class TrajectoryRecord:
    """System state at one step; closed surfaces carry both surface copies."""

    step: int
    time: float
    positions: FloatArray
    source_positions: FloatArray | None = None
    energy: EnergyDiagnostics | None = None


@dataclass
class RunResult:
    """Trajectory records plus the collision flag for aborted runs."""

    records: list[TrajectoryRecord] = field(default_factory=list)
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
    observers=(),
) -> RunResult:
    """Integrate `config.steps` RK4 steps, recording steps 0..steps.

    Parameters
    ----------
    diagnostics : callable(VortexSystem) -> EnergyDiagnostics, optional
        Evaluated at step 0, every `diagnostics_every`-th step and the final
        step.
    map_back : callable((n, 3) array) -> (n, 3) array, optional
        Maps sphere positions back to the source surface for the record
        (closed surfaces only).
    observers : iterable of callable(TrajectoryRecord)
        Invoked for every record as it is produced.

    A singularity raised by `rhs` aborts the run; the partial trajectory is
    returned with the collision step flagged rather than raised.
    """
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be >= 1")

    total_strength0 = system.total_strength
    result = RunResult()

    def record(step: int, sys_now: VortexSystem) -> None:
        # strengths are immutable by construction; assert the conserved sum anyway
        assert sys_now.total_strength == total_strength0
        want_diag = diagnostics is not None and (
            step % diagnostics_every == 0 or step == config.steps
        )
        rec = TrajectoryRecord(
            step=step,
            time=step * config.dt,
            positions=sys_now.positions,
            source_positions=None if map_back is None else map_back(sys_now.positions),
            energy=diagnostics(sys_now) if want_diag else None,
        )
        result.records.append(rec)
        for obs in observers:
            obs(rec)

    record(0, system)
    current = system
    for step in range(1, config.steps + 1):
        try:
            current = rk4_step(current, rhs, config)
        except SingularityError as exc:
            result.collision_step = step
            result.collision_message = str(exc)
            break
        record(step, current)
    return result
