import math

import mpmath
import numpy as np
import pytest

from surfvort import (
    SingularityError,
    green_plane,
    green_sphere,
    sgrad_green_plane,
    sgrad_green_sphere,
)
from surfvort.numerics import normalize_rows

from helpers import (
    fd_gradient_plane,
    fd_gradient_sphere,
    mp_relative_error,
    mp_sgrad_sphere,
    near_sphere_pair,
)


def plane_xy(x, y):
    return np.array([x, y, 0.0])


def sphere_distance(x, y):
    """Great-circle distance 2 arcsin(|x - y| / 2) from the chord, argument clamped to 1."""
    chord = np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), axis=-1)
    return 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))


class TestSphereDistance:
    def test_coincident(self):
        x = np.array([0, 0, 1], dtype=float)
        assert sphere_distance(x, x) == 0.0

    def test_antipodal(self):
        assert sphere_distance([0, 0, 1], [0, 0, -1]) == pytest.approx(math.pi, abs=1e-15)

    def test_orthogonal(self):
        assert sphere_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_clamps_rounding(self, rng):
        # half-chords that land epsilon above 1 must not produce NaN
        p = normalize_rows(rng.normal(size=(200, 3)))
        d = sphere_distance(p, p)
        assert np.all(np.isfinite(d))


class TestGreenPlane:
    def test_unit_separation_is_zero(self):
        assert green_plane(plane_xy(1, 0), plane_xy(0, 0)) == 0.0

    def test_hand_evaluated_value(self):
        # -(1/2pi) ln 2 at separation 2
        value = green_plane(plane_xy(2, 0), plane_xy(0, 0))
        assert value == pytest.approx(-math.log(2) / (2 * math.pi), abs=1e-15)
        assert value == pytest.approx(-0.1103178, abs=1e-7)

    def test_symmetry_exact(self, rng):
        for _ in range(200):
            x = plane_xy(*rng.uniform(-3, 3, 2))
            y = plane_xy(*rng.uniform(-3, 3, 2))
            if np.linalg.norm(x - y) < 1e-3:
                continue
            assert green_plane(x, y) == green_plane(y, x)

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            green_plane(plane_xy(0, 0), plane_xy(1e-12, 0))


class TestGreenSphere:
    def test_antipodal_is_zero(self):
        assert green_sphere([0, 0, 1], [0, 0, -1]) == 0.0

    def test_orthogonal_value(self):
        # sin(pi/4) = sqrt(2)/2 -> (ln 2)/(4 pi)
        value = green_sphere([1, 0, 0], [0, 1, 0])
        assert value == pytest.approx(math.log(2) / (4 * math.pi), abs=1e-15)
        assert value == pytest.approx(0.0551589, abs=1e-7)

    def test_symmetry_exact(self, rng):
        p = normalize_rows(rng.normal(size=(200, 2, 3)))
        for x, y in p:
            if sphere_distance(x, y) < 1e-3:
                continue
            assert green_sphere(x, y) == green_sphere(y, x)

    def test_singularity_guard(self):
        x = np.array([1, 0, 0], dtype=float)
        with pytest.raises(SingularityError):
            green_sphere(x, x)


def _mp_green(x, y, sphere):
    """The Green's function at the float points x, y, taken as exact, to 40 digits.

    On the sphere the angle is that between the two vectors as they are,
    atan2(|x cross y|, x . y), which needs no unit length.
    """
    with mpmath.workdps(40):
        x = [mpmath.mpf(float(c)) for c in x]
        y = [mpmath.mpf(float(c)) for c in y]
        if not sphere:
            return -mpmath.log(mpmath.sqrt(sum((a - b) ** 2 for a, b in zip(x, y)))) / (2 * mpmath.pi)
        cross = [x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0]]
        d = mpmath.atan2(mpmath.sqrt(sum(c * c for c in cross)), sum(a * b for a, b in zip(x, y)))
        return -mpmath.log(mpmath.sin(d / 2)) / (2 * mpmath.pi)


class TestGreenOracle:
    """Both Green's functions and the sphere's symplectic gradient against a
    40-digit mpmath oracle, at separations 1e-7 to 1.

    Sphere points are normalised floats, so not exactly unit; the Green's
    function oracle takes them as they are, and the gradient's projects them
    onto the sphere. The squared-chord forms stay within 1e-15
    relative here (2.1e-16 at worst when this test was written). The plane's
    error is taken relative to max(|G|, 1 / 2pi), because G crosses 0 at
    r = 1. The sphere's former form, -ln(sin(arccos(x . y) / 2)) / 2pi, read
    6.9e-4 relative at 1e-7 rad: the dot product's rounding error of about
    1e-16 is a relative error of 1e-2 in 1 - x . p there.
    """

    SEPARATIONS = np.logspace(-7, 0, 15)
    BOUND = 1e-15

    def test_plane(self, rng):
        for sep in self.SEPARATIONS:
            for _ in range(4):
                x = plane_xy(*rng.uniform(-1, 1, 2))
                a = rng.uniform(0, 2 * math.pi)
                y = x + sep * plane_xy(math.cos(a), math.sin(a))
                exact = _mp_green(x, y, sphere=False)
                err = abs(green_plane(x, y) - exact) / max(abs(exact), 1 / (2 * mpmath.pi))
                assert err < self.BOUND, (sep, float(err))

    def test_sphere(self, rng):
        for sep in self.SEPARATIONS:
            for _ in range(4):
                x, y = near_sphere_pair(rng, sep)
                exact = _mp_green(x, y, sphere=True)
                err = abs((green_sphere(x, y) - exact) / exact)
                assert err < self.BOUND, (sep, float(err))

    def test_sgrad_sphere(self, rng):
        # against (x cross y) / (4 pi (1 - x . y)) of the inputs projected onto
        # the sphere. Over 20 draws at each separation, x cross (y - x) / (2 pi c^2)
        # read at most 3.4e-16 when this test was written, and the former
        # (x cross y) / (2 pi c^2) 4.9e-10, 5.3e-11 and 4.5e-12 at 1e-7, 1e-6
        # and 1e-5 rad: x cross y is rounded relative to 1, not to the pair's angle.
        for sep in self.SEPARATIONS:
            for _ in range(4):
                x, y = near_sphere_pair(rng, sep)
                err = mp_relative_error(sgrad_green_sphere(x, y), mp_sgrad_sphere(x, y))
                assert err < self.BOUND, (sep, err)


class TestSgradPlane:
    def test_worked_pair_value(self):
        u = sgrad_green_plane(plane_xy(1, 0), plane_xy(-1, 0))
        np.testing.assert_allclose(u, [0, 1 / (4 * math.pi), 0], atol=1e-15)

    def test_perpendicular_to_separation(self, rng):
        for _ in range(200):
            x = plane_xy(*rng.uniform(-2, 2, 2))
            y = plane_xy(*rng.uniform(-2, 2, 2))
            if np.linalg.norm(x - y) < 1e-2:
                continue
            u = sgrad_green_plane(x, y)
            assert abs(u @ (x - y)) < 1e-12
            assert u[2] == 0.0

    def test_finite_difference_consistency(self, rng):
        # The planar kernel pair follows the opposite-sign stream convention
        # (counter-clockwise velocities around positive vorticity), so the
        # rotated-difference oracle differentiates the negated kernel:
        # sgrad = n x grad(-G). See notes on the 2D sign convention.
        checked = 0
        while checked < 1000:
            x = plane_xy(*rng.uniform(-2, 2, 2))
            y = plane_xy(*rng.uniform(-2, 2, 2))
            if np.linalg.norm(x - y) < 1e-2:
                continue
            oracle = np.cross([0, 0, 1.0], fd_gradient_plane(lambda q: -green_plane(q, y), x))
            u = sgrad_green_plane(x, y)
            assert np.linalg.norm(u - oracle) / np.linalg.norm(u) < 1e-6
            checked += 1

    def test_singularity_guard(self):
        with pytest.raises(SingularityError):
            sgrad_green_plane(plane_xy(0, 0), plane_xy(0, 0))


class TestSgradSphere:
    def test_hand_evaluated_value(self):
        u = sgrad_green_sphere([1, 0, 0], [0, 1, 0])
        np.testing.assert_allclose(u, [0, 0, 1 / (4 * math.pi)], atol=1e-15)

    def test_tangency(self, rng):
        p = normalize_rows(rng.normal(size=(500, 2, 3)))
        for x, y in p:
            if sphere_distance(x, y) < 1e-2:
                continue
            assert abs(sgrad_green_sphere(x, y) @ x) < 1e-12

    def test_antipodal_is_regular(self):
        u = sgrad_green_sphere([0, 0, 1.0], [0, 0, -1.0])
        np.testing.assert_allclose(u, 0.0, atol=1e-15)

    def test_cross_term_antisymmetry(self, rng):
        p = normalize_rows(rng.normal(size=(100, 2, 3)))
        for x, y in p:
            if sphere_distance(x, y) < 1e-2:
                continue
            a = sgrad_green_sphere(x, y) * (1.0 - x @ y)
            b = sgrad_green_sphere(y, x) * (1.0 - y @ x)
            np.testing.assert_allclose(a, -b, atol=1e-15)

    def test_finite_difference_consistency(self, rng):
        # the sphere kernel is sign-consistent: sgrad = x cross grad(G) directly
        checked = 0
        while checked < 1000:
            x, y = normalize_rows(rng.normal(size=(2, 3)))
            if sphere_distance(x, y) < 1e-2:
                continue
            oracle = np.cross(x, fd_gradient_sphere(lambda q: green_sphere(q, y), x))
            u = sgrad_green_sphere(x, y)
            assert np.linalg.norm(u - oracle) / np.linalg.norm(u) < 1e-5
            checked += 1

    def test_singularity_guard(self):
        x = np.array([0, 1, 0], dtype=float)
        with pytest.raises(SingularityError):
            sgrad_green_sphere(x, x)
