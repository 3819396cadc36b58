"""Closed-form Green's functions for the plane and the unit sphere.

The pair sums of `dynamics` form their symplectic gradients ``n x grad``; the
2D convention ``u = n x grad(psi)`` (counter-clockwise rotation about the
surface normal) is fixed throughout the package. All functions are pure,
accept single points of shape (3,) or broadcastable stacks ``(..., 3)``, and
raise :class:`SingularityError` for pairs closer than ``EPS_SEPARATION``.

Every guard compares squared distances: ``|x - y|^2`` against
``EPS_SEPARATION^2`` on the plane, and on the sphere the squared chord
against the squared chord of the angle ``EPS_SEPARATION``,
``(2 sin(EPS_SEPARATION / 2))^2``. Both Green's functions are the log of a
squared distance, the sphere's through the chord ``|x - y| = 2 sin(d / 2)``
of the angle d, so neither takes a square root, an arccos or an arcsin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SingularityError
from .numerics import FloatArray

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


def squared_distance(x, y) -> FloatArray:
    """|x - y|^2 over the last axis, summed in the order x, y, z.

    The pair passes of `dynamics` add their squared components in the same
    order, so they get the same bits.
    """
    d = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return np.asarray(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


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
        raise SingularityError(
            f"{'spherical' if sphere else 'planar'} kernel evaluated at separation "
            f"below {EPS_SEPARATION:g}"
        )


def _green(x, y, sphere: bool) -> FloatArray | float:
    sq = squared_distance(x, y)
    check_squared_separation(sq, sphere)
    g = green_of_squared(sq, sphere, out=np.empty_like(sq))
    return float(g) if g.ndim == 0 else g


def green_plane(x, y) -> FloatArray | float:
    """Planar Green's function -ln|x - y| / (2 pi); symmetric in its arguments."""
    return _green(x, y, sphere=False)


def green_sphere(x, y) -> FloatArray | float:
    """Unit-sphere Green's function -ln(sin(d/2)) / (2 pi) of the angle d.

    Computed from the chord, sin(d / 2) = |x - y| / 2, which stays well
    conditioned for near pairs, where arccos(x . y) does not.
    """
    return _green(x, y, sphere=True)
