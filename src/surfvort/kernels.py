"""Closed-form Green's functions of squared distances, for the plane and the unit sphere.

The pair passes of `dynamics` compute the squared distances and form the
symplectic gradients ``n x grad``; the 2D convention ``u = n x grad(psi)``
(counter-clockwise rotation about the surface normal) is fixed throughout the
package. Both Green's functions are the log of a squared distance, the
sphere's through the chord ``|x - y| = 2 sin(d / 2)`` of the angle d, so
neither takes a square root, an arccos or an arcsin. The singularity guard
compares squared distances too: ``|x - y|^2`` against ``EPS_SEPARATION^2``
on the plane, and on the sphere the squared chord against that of the angle
``EPS_SEPARATION``; a pair inside it raises :class:`SingularityError`.
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
