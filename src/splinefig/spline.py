"""Interpolating cubic splines through sampled points.

Both constructions turn each consecutive point pair (P_j, P_j+1) into a
cubic Bezier segment whose inner control points Q, R sit on the chords
P_j-1 P_j+1 and P_j P_j+2:

    Q = P_j   + c_j * (P_j+1 - P_j-1)
    R = P_j+1 + c_j * (P_j   - P_j+2)

The classic Catmull-Rom choice is the constant c = 1/6.  The adaptive
variant scales the coefficient per interval by the local chord lengths
and by the angle theta between the two chord vectors:

    c = 4|P_j P_j+1| / (3 (|P_j-1 P_j+1| + |P_j P_j+2|))
        * 1 / (1 + sqrt((1 + cos theta) / 2))

For equally spaced collinear points this collapses to 1/6 exactly; on a
square inscribed in a circle it reproduces the standard (4/3)tan(pi/8)
circle-approximation offset.  Either way consecutive segments share the
chord direction at the joint, so the chain is G1.

Open point lists are extended with virtual neighbors: the parabola
through the three boundary points, continued one step (plain reflection
when only two points exist).  A chord-slope end rule loses an order of
accuracy at the ends, which is visible in integrals of the fitted
curve; the parabolic extension keeps the end tangents second order.
Closed lists wrap around, and a list whose last point repeats the
first (within 1e-9) is treated as closed.

build_spline applies the rule to every segment at once, in float64
columns, and returns the fit as one (n, 4, 2) control array
(geom.SplineCurve).  Where the adaptive coefficient is undefined the
columns take its fallbacks: both chords zero is a segment that is a
single point when P_j = P_j+1 and an error otherwise, a zero span gives
c = 0, one zero chord gives theta = 0, and a cos theta that rounding
leaves NaN reads as 1.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

import numpy as np

from .geom import SplineCurve, xy_array

CLOSE_TOL = 1e-9


class DegenerateGeometryError(ValueError):
    """Point configuration leaves the construction undefined."""


class SplineMethod(Enum):
    CATMULL_ROM = "catmull-rom"
    OSHIMA = "oshima"


def _hypot(v: np.ndarray) -> np.ndarray:
    """math.hypot of each (x, y) row; np.hypot rounds differently."""
    return np.fromiter(map(math.hypot, *v.T.tolist()), float, len(v))


def build_spline(
    points: Sequence[tuple[float, float]] | np.ndarray,
    method: SplineMethod = SplineMethod.OSHIMA,
    closed: bool | None = None,
) -> SplineCurve:
    """Interpolating spline through the points (an (n, 2) array or
    (x, y) pairs), in order.

    closed=None auto-detects: when the last point coincides with the
    first (within 1e-9) the duplicate is dropped and the curve closes.
    Passing closed explicitly overrides the detection.

    Every segment's Q and R come from one pass over the columns of the
    point array, math.hypot giving the norms; each row's float
    operations are those of the rule applied to that segment alone.
    """
    pts = xy_array(points)
    if len(pts) < 2:
        raise DegenerateGeometryError(f"need at least 2 points, got {len(pts)}")
    (x0, y0), (xn, yn) = pts[[0, -1]].tolist()
    coincide = math.hypot(x0 - xn, y0 - yn) <= CLOSE_TOL
    if closed is None:
        closed = len(pts) >= 4 and coincide
    if closed and coincide:
        pts = pts[:-1]
    n = len(pts)
    if closed and n < 3:
        raise DegenerateGeometryError(
            "a closed spline needs at least 3 distinct points"
        )
    if (pts[1:] == pts[0]).all():
        raise DegenerateGeometryError("all input points coincide")

    with np.errstate(all="ignore"):
        if closed:
            ext = pts[np.arange(-1, n + 2) % n]
        else:
            # synthesize the missing neighbors: continue the parabola
            # through the three boundary points (reflection when there
            # are only two)
            if n >= 3:
                head = pts[0] * 3.0 - pts[1] * 3.0 + pts[2]
                tail = pts[-1] * 3.0 - pts[-2] * 3.0 + pts[-3]
            else:
                head = pts[0] * 2.0 - pts[1]
                tail = pts[-1] * 2.0 - pts[-2]
            ext = np.vstack((head, pts, tail))
        # segment j runs P_j .. P_j+1 with neighbours P_j-1 and P_j+2
        pm1, pj, pjp1, pjp2 = ext[:-3], ext[1:-2], ext[2:-1], ext[3:]
        if method is SplineMethod.CATMULL_ROM:
            c, point = 1.0 / 6.0, []
        else:
            c, point = _oshima_columns(ext)
        q = pj + (pjp1 - pm1) * c
        r = pjp1 + (pj - pjp2) * c
    # four coincident points: the segment is that single point
    q[point] = r[point] = pj[point]
    return SplineCurve(np.stack((pj, q, r, pjp1), axis=1), closed=closed)


def _oshima_columns(ext: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adaptive coefficient of every segment as an (n, 1) column,
    and the mask of the segments that are a single point.

    Chord P_j P_j+2 of segment j is chord P_j-1 P_j+1 of segment j + 1,
    so one column of chords and their norms serves both.
    """
    chords = ext[2:] - ext[:-2]
    norms = _hypot(chords)
    (x1, y1), (x2, y2) = chords[:-1].T, chords[1:].T
    n1, n2 = norms[:-1], norms[1:]
    span = _hypot(ext[2:-1] - ext[1:-2])
    both = (n1 == 0.0) & (n2 == 0.0)
    point = both & (ext[1:-2] == ext[2:-1]).all(axis=1)
    if (both & ~point).any():
        # the neighbourhood carries no direction at all
        raise DegenerateGeometryError("both chord vectors are zero")
    norm = n1 * n2
    cos_theta = (x1 * x2 + y1 * y2) / norm
    # tiny chords: the product underflows, the unit chords' does not
    tiny = np.flatnonzero(norm == 0.0)
    if tiny.size:
        (ux1, uy1), (ux2, uy2) = (chords[tiny + k].T / norms[tiny + k] for k in (0, 1))
        cos_theta[tiny] = ux1 * ux2 + uy1 * uy2
    # exactly one chord zero: theta is taken as 0; NaN clamps to 1 too
    cos_theta[(n1 == 0.0) | (n2 == 0.0) | np.isnan(cos_theta)] = 1.0
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    ratio = 4.0 * span / (3.0 * (n1 + n2))
    c = ratio / (1.0 + np.sqrt((1.0 + cos_theta) / 2.0))
    c[span == 0.0] = 0.0
    return c[:, None], point
