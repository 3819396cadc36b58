import math

import numpy as np
import pytest

from surfvort import (
    SingularityError,
    green_plane,
    green_sphere,
    sgrad_green_plane,
    sgrad_green_sphere,
    sphere_distance,
)
from surfvort.numerics import normalize_rows

from helpers import fd_gradient_plane, fd_gradient_sphere


def plane_xy(x, y):
    return np.array([x, y, 0.0])


class TestSphereDistance:
    def test_coincident(self):
        x = np.array([0, 0, 1], dtype=float)
        assert sphere_distance(x, x) == 0.0

    def test_antipodal(self):
        assert sphere_distance([0, 0, 1], [0, 0, -1]) == pytest.approx(math.pi, abs=1e-15)

    def test_orthogonal(self):
        assert sphere_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_clamps_rounding(self, rng):
        # dots that land epsilon outside [-1, 1] must not produce NaN
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
