"""Fixed-step classical RK4 time stepping on the plane and on the unit sphere.

Planar systems use the standard vector RK4 update. Spherical systems (the
sphere, and the sphere images of closed surfaces) run the same update in R^3
on the velocity field extended to u(x / |x|), and put every stage point
p + c dt k and the step's result back on the unit sphere by normalising it.
That extension is smooth and tangent to every sphere about the origin, so
its flow keeps the unit sphere and the step keeps RK4's order 4 (projection
methods: Hairer, Lubich & Wanner, Geometric Numerical Integration, IV.4).
The right-hand side only ever sees unit vectors.

Plane and sphere systems of at most `dynamics.FEW_VORTICES` vortices take
the step in Python floats (their rhs's `rk4_step`), with the operations of
`rk4_step` in its order and so with its bits. Python floats do not raise on
overflow, so a step with a near pair or an overflow is taken again by numpy
over the blocked pair pass, and `run` flags the same error at the same step.

A run's result is arrays, not per-step objects: the (k, n, 3) positions of
steps 0..k-1, on closed surfaces their map-back onto the source surface in
an array of the same shape, and one (step, E, H_tilde) row per diagnosed
step, with H_tilde NaN where the geometry does not define it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PLANE, VortexSystem
from .errors import SingularityError
from .numerics import FloatArray


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


def _advance(p: FloatArray, k: FloatArray, h: float, planar: bool) -> FloatArray:
    """p + h k; on the sphere, renormalised onto the unit sphere.

    Stage velocities are tangent at p (their RK4 combination nearly so), so
    |p + h k| is at least about 1 and the division is safe.
    """
    q = p + h * k
    if planar:
        return q
    return q / np.sqrt((q * q).sum(axis=1, keepdims=True))


def rk4_step(p: FloatArray, rhs, dt: float, planar: bool) -> FloatArray:
    """Positions after one classical RK4 step; on the sphere each stage point is renormalised.

    Planar velocities keep z = 0 exactly and spherical points are put back on
    the unit sphere, so the step needs no re-validation; near-collisions
    surface through the rhs's singularity guard. An rhs with its own
    `rk4_step(p, dt)` takes the step itself (see the module notes).
    """
    if hasattr(rhs, "rk4_step"):
        return rhs.rk4_step(p, dt)
    k1 = rhs(p)
    k2 = rhs(_advance(p, k1, 0.5 * dt, planar))
    k3 = rhs(_advance(p, k2, 0.5 * dt, planar))
    k4 = rhs(_advance(p, k3, dt, planar))
    return _advance(p, (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0, dt, planar)


@dataclass
class RunResult:
    """A run's trajectory arrays plus the step that stopped it early, if any.

    A run stops at a collision or at non-finite state; `collision_message`
    says which.
    """

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

    A singularity raised by `rhs` aborts the run, and so do a step that
    overflows and positions or diagnostics that are not finite; the steps
    recorded before are returned with that step flagged rather than raised.
    """
    if diagnostics_every < 1:
        raise ValueError("diagnostics_every must be >= 1")

    planar = system.geometry == PLANE
    p = system.positions
    records = np.empty((config.steps + 1,) + p.shape)
    source = None if map_back is None else np.empty_like(records)
    rows = []
    collision_step, message = None, ""
    with np.errstate(over="raise"):  # else an overflowing step leaves stage points at 0 or NaN
        for step in range(config.steps + 1):
            if step:
                try:
                    p = rk4_step(p, rhs, config.dt, planar)
                    # NaN or infinite when any coordinate is; raises if finite ones overflow it
                    if not math.isfinite(p.sum()):
                        collision_step, message = step, "positions became non-finite"
                        break
                except SingularityError as exc:
                    collision_step, message = step, str(exc)
                    break
                except FloatingPointError:
                    collision_step, message = step, "step overflowed: non-finite state"
                    break
            records[step] = p
            if source is not None:
                source[step] = map_back(p)
            if diagnostics is not None and (step % diagnostics_every == 0 or step == config.steps):
                energy, h_tilde = diagnostics(p)
                if not (math.isfinite(energy) and (h_tilde is None or math.isfinite(h_tilde))):
                    collision_step, message = step, "energy diagnostics became non-finite"
                    break
                rows.append((step, energy, math.nan if h_tilde is None else h_tilde))

    kept = config.steps + 1 if collision_step is None else collision_step
    return RunResult(records[:kept], None if source is None else source[:kept],
                     np.array(rows, dtype=np.float64).reshape(-1, 3), collision_step, message)
