"""Closed-form Green's functions for the plane and the unit sphere.

Both kernels come with their symplectic gradients ``sgrad = n x grad``; the
2D convention ``u = n x grad(psi)`` (counter-clockwise rotation about the
surface normal) is fixed throughout the package. All functions are pure,
accept single points of shape (3,) or broadcastable stacks ``(..., 3)``, and
raise :class:`SingularityError` for pairs closer than ``EPS_SEPARATION``.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .errors import SingularityError

FloatArray = NDArray[np.float64]

# Pairs closer than this (Euclidean on the plane, angular on the sphere)
# are treated as collisions rather than evaluated.
EPS_SEPARATION = 1e-9

PLANE_NORMAL = np.array([0.0, 0.0, 1.0])


def sphere_distance(x, y) -> FloatArray | float:
    """Great-circle distance arccos(x . y), dot clamped to [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dot = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    d = np.arccos(dot)
    return float(d) if d.ndim == 0 else d


def _check_separation(sep, kind: str) -> None:
    if np.any(sep < EPS_SEPARATION):
        raise SingularityError(
            f"{kind} kernel evaluated at separation below {EPS_SEPARATION:g}"
        )


def green_plane(x, y) -> FloatArray | float:
    """Planar Green's function -ln|x - y| / (2 pi); symmetric in its arguments."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = np.linalg.norm(x - y, axis=-1)
    _check_separation(r, "planar")
    g = -np.log(r) / (2.0 * np.pi)
    return float(g) if g.ndim == 0 else g


def green_sphere(x, y) -> FloatArray | float:
    """Unit-sphere Green's function -ln(sin(d/2)) / (2 pi) with d = arccos(x . y)."""
    d = np.asarray(sphere_distance(x, y))
    _check_separation(d, "spherical")
    g = -np.log(np.sin(0.5 * d)) / (2.0 * np.pi)
    return float(g) if g.ndim == 0 else g


def sgrad_green_plane(x, y) -> FloatArray:
    """Symplectic gradient of the planar kernel at x: n x (x-y) / (2 pi |x-y|^2).

    The result is tangent to the plane (z component 0) and perpendicular
    to x - y.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = x - y
    r2 = np.sum(d * d, axis=-1)
    _check_separation(np.sqrt(r2), "planar")
    return np.cross(PLANE_NORMAL, d) / (2.0 * np.pi * r2[..., None])


def sgrad_green_sphere(x, y) -> FloatArray:
    """Symplectic gradient of the sphere kernel at x: (x cross y) / (4 pi (1 - x.y)).

    Tangent at x. The formula stays regular at antipodal pairs
    (1 - x.y -> 2, x cross y -> 0); only near-coincident pairs raise.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dot = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
    _check_separation(np.arccos(dot), "spherical")
    return np.cross(x, y) / (4.0 * np.pi * (1.0 - dot)[..., None])
