import itertools
import math

import numpy as np
import pytest

from surfvort import (
    IntegratorConfig,
    SingularityError,
    VortexSystem,
    rk4_step,
    run,
)
from surfvort.dynamics import FEW_VORTICES, PLANE, SPHERE, make_rhs
from surfvort.integrator import _advance
from surfvort.numerics import normalize_rows

from helpers import diagnostics_of, few_vortex_states, random_plane_system, random_sphere_system


def advect_row(p, u, dt):
    return _advance(p[None, :], u[None, :], dt, planar=False)[0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.0, steps=10)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=0.1, steps=-1)


class TestAdvectSphere:
    """The sphere's stage advance, p + dt u renormalised onto the unit sphere, and its RK4 step."""

    def test_zero_velocity(self):
        p = np.array([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(advect_row(p, np.zeros(3), 0.5), p)

    def test_quarter_turn(self):
        # RK4 steps of the rigid rotation field u = w x p turn p a quarter turn
        # in time pi / (2 |w|)
        omega = np.array([0.0, 0.0, 1.0])
        p = np.array([[1.0, 0.0, 0.0]])
        for _ in range(1000):
            p = rk4_step(p, lambda q: np.cross(omega, q), math.pi / 2000, planar=False)
        np.testing.assert_allclose(p[0], [0.0, 1.0, 0.0], atol=1e-13)

    def test_unit_norm_preserved(self, rng):
        for _ in range(200):
            p = normalize_rows(rng.normal(size=3))
            u = rng.normal(size=3)
            u -= (u @ p) * p
            q = advect_row(p, u, rng.uniform(-2, 2))
            assert abs(np.linalg.norm(q) - 1.0) < 1e-15

    def test_batch_mixes_resting_and_moving_rows(self, rng):
        p = normalize_rows(rng.normal(size=(6, 3)))
        u = rng.normal(size=(6, 3))
        u -= np.sum(u * p, axis=1, keepdims=True) * p
        p[1], u[1] = [0.0, 0.0, 1.0], 0.0
        p[4], u[4] = [-1.0, 0.0, 0.0], 0.0
        dt = 0.37
        with np.errstate(all="raise"):
            q = _advance(p, u, dt, planar=False)
        np.testing.assert_array_equal(q[[1, 4]], p[[1, 4]])
        for i in (0, 2, 3, 5):
            expected = p[i] + dt * u[i]
            np.testing.assert_allclose(q[i], expected / np.linalg.norm(expected), atol=1e-15)
            assert abs(np.linalg.norm(q[i]) - 1.0) < 1e-15


class TestRk4Step:
    def test_zero_strength_system_is_static(self):
        system = VortexSystem(PLANE, [[0, 0, 0], [1, 0, 0]], [0.0, 0.0])
        stepped = rk4_step(system.positions, make_rhs(system), 0.1, planar=True)
        np.testing.assert_array_equal(stepped, system.positions)

    def test_planar_pair_travels_straight(self):
        system = VortexSystem(PLANE, [[1, 0, 0], [-1, 0, 0]], [-1.0, 1.0])
        cfg = IntegratorConfig(dt=0.01, steps=1000)
        result = run(system, make_rhs(system), cfg)
        end = result.records[-1]
        expected_y = 1000 * 0.01 / (4 * math.pi)
        np.testing.assert_allclose(end[:, 1], expected_y, atol=1e-12)
        seps = np.linalg.norm(result.records[:, 0] - result.records[:, 1], axis=1)
        assert np.abs(seps - 2.0).max() < 1e-9

    def test_sphere_pair_keeps_contact_angle(self):
        s = 0.05
        p1 = [math.cos(s), math.sin(s), 0.0]
        p2 = [math.cos(s), -math.sin(s), 0.0]
        system = VortexSystem(SPHERE, [p1, p2], [-1.0, 1.0])
        cfg = IntegratorConfig(dt=0.002, steps=1000)
        result = run(system, make_rhs(system), cfg)
        dots = np.sum(result.records[:, 0] * result.records[:, 1], axis=1)
        assert np.abs(dots - dots[0]).max() < 1e-9


class TestRun:
    def test_zero_steps_returns_initial_state(self, rng):
        system = random_plane_system(rng, 3)
        result = run(system, make_rhs(system), IntegratorConfig(dt=0.1, steps=0))
        assert result.records.shape == (1, 3, 3)
        np.testing.assert_array_equal(result.records[0], system.positions)

    def test_record_count(self, rng):
        system = random_plane_system(rng, 3)
        result = run(system, make_rhs(system), IntegratorConfig(dt=0.01, steps=17))
        assert result.records.shape == (18, 3, 3)
        assert result.source_positions is None
        assert result.diagnostics.shape == (0, 3)

    def test_energy_drift_planar_three_vortex(self):
        system = VortexSystem(
            PLANE, [[0, 0, 0], [1.2, 0, 0], [0.4, 1.0, 0]], [1.0, -0.5, 0.75]
        )
        result = run(
            system,
            make_rhs(system),
            IntegratorConfig(dt=1e-3, steps=10_000),
            diagnostics=diagnostics_of(system),
            diagnostics_every=200,
        )
        energies = result.diagnostics[:, 1]
        drift = np.abs(energies - energies[0]).max() / abs(energies[0])
        assert drift < 1e-6

    def test_diagnostics_decimation(self, rng):
        system = random_plane_system(rng, 3)
        result = run(
            system,
            make_rhs(system),
            IntegratorConfig(dt=0.01, steps=10),
            diagnostics=diagnostics_of(system),
            diagnostics_every=4,
        )
        assert result.diagnostics[:, 0].tolist() == [0, 4, 8, 10]  # final step always included
        assert np.isnan(result.diagnostics[:, 2]).all()  # no H_tilde on the plane

    def test_collision_reported_not_raised(self, rng):
        system = random_plane_system(rng, 3)
        rhs = make_rhs(system)
        calls = {"n": 0}

        def failing_rhs(p):
            calls["n"] += 1
            if calls["n"] > 9:
                raise SingularityError("vortices 0 and 1 collided")
            return rhs(p)

        result = run(system, failing_rhs, IntegratorConfig(dt=0.01, steps=10),
                     diagnostics=diagnostics_of(system), diagnostics_every=2)
        assert not result.completed
        assert result.collision_step == 3  # 4 rhs calls per RK4 step
        assert "collided" in result.collision_message
        assert len(result.records) == 3  # steps 0..2 survived
        assert result.diagnostics[:, 0].tolist() == [0, 2]
        full = run(system, rhs, IntegratorConfig(dt=0.01, steps=2))
        np.testing.assert_array_equal(result.records, full.records)

    def test_non_finite_positions_stop_the_run(self, rng):
        system = random_plane_system(rng, 3)
        rhs = make_rhs(system)
        calls = {"n": 0}

        def overflowing_rhs(p):
            calls["n"] += 1
            return np.full_like(p, np.inf) if calls["n"] > 9 else rhs(p)

        result = run(system, overflowing_rhs, IntegratorConfig(dt=0.01, steps=10),
                     diagnostics=diagnostics_of(system))
        assert result.collision_step == 3
        assert result.collision_message == "positions became non-finite"
        assert len(result.records) == 3 and np.isfinite(result.records).all()
        assert result.diagnostics[:, 0].tolist() == [0, 1, 2]

    def test_non_finite_diagnostics_stop_the_run(self, rng):
        system = random_sphere_system(rng, 3)
        energies = iter([1.0, 2.0, math.inf])
        result = run(system, make_rhs(system), IntegratorConfig(dt=0.01, steps=10),
                     diagnostics=lambda p: (next(energies), None))
        assert result.collision_step == 2
        assert result.collision_message == "energy diagnostics became non-finite"
        assert len(result.records) == 2
        assert result.diagnostics[:, :2].tolist() == [[0, 1.0], [1, 2.0]]

    def test_near_coincident_positions_raise_in_rhs(self, rng):
        system = random_plane_system(rng, 2)
        rhs = make_rhs(system)
        squeezed = np.array([[0.0, 0.0, 0.0], [3e-10, 0.0, 0.0]])
        with pytest.raises(SingularityError):
            rhs(squeezed)


def numpy_step(rhs):
    """The same velocities behind a plain callable, which has no `rk4_step` and so takes numpy's step."""
    return lambda p: rhs(p)


def both_steps(system, rhs, dt, steps):
    """`run` through `rhs` as given and through `numpy_step(rhs)`, diagnosed every 10 steps."""
    return [run(system, r, IntegratorConfig(dt=dt, steps=steps), diagnostics=diagnostics_of(system),
                diagnostics_every=10) for r in (rhs, numpy_step(rhs))]


def passive_overtaking(geometry):
    """A unit vortex and two passive ones circling it, the inner one a little behind.

    The inner one circles faster and passes the outer one 5e-10 (plane) or
    8e-10 rad (sphere) inside it, within the singularity guard.
    """
    if geometry == PLANE:
        lag, dr = 2e-9, 5e-10
        p = [[0.0, 0.0, 0.0], [math.cos(-lag), math.sin(-lag), 0.0], [1.0 + dr, 0.0, 0.0]]
    else:  # a vortex at the north pole turns the sphere clockwise about z
        theta, dr = 0.5, 8e-10
        lag = 3e-9 / math.sin(theta)
        p = [[0.0, 0.0, 1.0], [math.sin(theta) * math.cos(lag), math.sin(theta) * math.sin(lag),
                               math.cos(theta)], [math.sin(theta + dr), 0.0, math.cos(theta + dr)]]
    return VortexSystem(geometry, p, [1.0, 0.0, 0.0])


class TestFewVortexStep:
    """Systems of at most FEW_VORTICES vortices take whole RK4 steps in Python floats.

    Those steps must give numpy's `rk4_step` bytes, and its failures at the
    same step with the same message.
    """

    @pytest.mark.parametrize("geometry", [PLANE, SPHERE])
    @pytest.mark.parametrize("n", range(1, FEW_VORTICES + 2))
    def test_records_match_the_numpy_step(self, geometry, n):
        for p, w in itertools.islice(few_vortex_states(geometry, n), 3):
            system = VortexSystem(geometry, p, w)
            rhs = make_rhs(system)
            assert hasattr(rhs, "rk4_step") == (n <= FEW_VORTICES)
            fast, slow = both_steps(system, rhs, 0.01, 200)
            assert fast.records.tobytes() == slow.records.tobytes()
            assert fast.diagnostics.tobytes() == slow.diagnostics.tobytes()
            assert (fast.collision_step, fast.collision_message) == (slow.collision_step,
                                                                     slow.collision_message)

    @pytest.mark.parametrize("geometry, step", [(PLANE, 72), (SPHERE, 25)])
    def test_near_collision_stops_at_the_same_step(self, geometry, step):
        system = passive_overtaking(geometry)
        fast, slow = both_steps(system, make_rhs(system), 0.1, 200)
        assert fast.collision_step == slow.collision_step == step
        assert fast.collision_message == slow.collision_message == (
            "evaluation point closer than the singularity guard to a vortex")
        assert fast.records.tobytes() == slow.records.tobytes()

    @pytest.mark.parametrize("geometry, p, dt", [
        (PLANE, [[1.0, 1.75e308, 0.0], [-1.0, 1.75e308, 0.0]], 1e308),  # the step's last addition
        (SPHERE, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], 1e300),  # a stage point's squared length
    ])
    def test_overflow_raises_as_the_numpy_step_does(self, geometry, p, dt):
        rhs = make_rhs(VortexSystem(geometry, p, [-1.0, 1.0]))
        raised = []
        for r in (rhs, numpy_step(rhs)):
            with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc:
                rk4_step(np.array(p), r, dt, geometry == PLANE)
            raised.append(str(exc.value))
        assert raised[0] == raised[1]

    def test_forwarding_wrapper_takes_the_python_step(self):
        class Counting:  # times nothing, but wraps an rhs as perfbench's tracer does
            def __init__(self, rhs):
                self.rhs, self.calls = rhs, 0

            def __call__(self, p):
                self.calls += 1
                return self.rhs(p)

            def __getattr__(self, name):
                return getattr(self.rhs, name)

        system = passive_overtaking(PLANE)
        wrapped = Counting(make_rhs(system))
        fast, slow = both_steps(system, wrapped, 0.01, 20)
        assert wrapped.calls == 4 * 20  # all of them from the numpy step
        assert fast.records.tobytes() == slow.records.tobytes()


class TestInvariants:
    def test_sphere_norm_never_drifts(self, rng):
        system = random_sphere_system(rng, 4)
        result = run(system, make_rhs(system),
                     IntegratorConfig(dt=0.01, steps=500))
        worst = np.abs(np.linalg.norm(result.records, axis=2) - 1.0).max()
        assert worst < 1e-12

    def test_time_reversal(self, rng):
        # reversing every strength integrates the time-reversed flow: RK4 with
        # (-w, +dt) is algebraically identical to (w, -dt)
        for make in (random_plane_system, random_sphere_system):
            system = make(rng, 3)
            cfg = IntegratorConfig(dt=1e-3, steps=50)
            fw = run(system, make_rhs(system), cfg)
            back_sys = VortexSystem(system.geometry, fw.records[-1], -system.strengths)
            bw = run(back_sys, make_rhs(back_sys), cfg)
            assert np.abs(bw.records[-1] - system.positions).max() < 1e-8

    def test_planar_momentum_invariant(self, rng):
        system = random_plane_system(rng, 4)
        result = run(system, make_rhs(system), IntegratorConfig(dt=1e-3, steps=2000))
        w = system.strengths[:, None]
        momenta = (result.records * w).sum(axis=1)
        assert np.abs(momenta - momenta[0]).max() < 1e-9

    def test_strength_sum_constant_across_records(self, rng):
        # the strengths are read-only, so no step can change their sum
        system = random_plane_system(rng, 4)
        total = system.total_strength
        run(system, make_rhs(system), IntegratorConfig(dt=0.01, steps=20),
            diagnostics=diagnostics_of(system))
        assert not system.strengths.flags.writeable
        with pytest.raises(ValueError):
            system.strengths[0] = 1.0
        assert system.total_strength == total
