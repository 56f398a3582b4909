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

control_points_cr and control_points_oshima state the two rules one
segment at a time.  build_spline applies them to every segment at once,
in float64 columns with the same operations in the same order, and
returns the fit as one (n, 4, 2) control array (geom.SplineCurve); the
few segments where the adaptive rule branches go through
control_points_oshima itself.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import starmap
from typing import Sequence

import numpy as np

from .geom import Point2, SplineCurve, xy_array

CLOSE_TOL = 1e-9


class DegenerateGeometryError(ValueError):
    """Point configuration leaves the construction undefined."""


class SplineMethod(Enum):
    CATMULL_ROM = "catmull-rom"
    OSHIMA = "oshima"


def control_points_cr(
    pm1: Point2, pj: Point2, pjp1: Point2, pjp2: Point2
) -> tuple[Point2, Point2]:
    """Inner control points with the constant 1/6 coefficient."""
    q = pj + (pjp1 - pm1) * (1.0 / 6.0)
    r = pjp1 + (pj - pjp2) * (1.0 / 6.0)
    return q, r


def oshima_coefficient(
    pm1: Point2, pj: Point2, pjp1: Point2, pjp2: Point2
) -> float:
    """Adaptive chord coefficient for the interval P_j .. P_j+1.

    theta is the angle between chords P_j-1 P_j+1 and P_j P_j+2; if
    exactly one chord vanishes theta is taken as 0 (the factor becomes
    1/2), if both vanish the neighborhood carries no direction at all
    and we refuse.
    """
    chord1 = pjp1 - pm1
    chord2 = pjp2 - pj
    n1 = chord1.norm()
    n2 = chord2.norm()
    if n1 == 0.0 and n2 == 0.0:
        raise DegenerateGeometryError("both chord vectors are zero")
    span = (pjp1 - pj).norm()
    if span == 0.0:
        return 0.0
    if n1 == 0.0 or n2 == 0.0:
        cos_theta = 1.0
    else:
        norms = n1 * n2
        if norms == 0.0:  # tiny chords: the product underflows, unit ones do not
            cos_theta = (chord1 / n1).dot(chord2 / n2)
        else:
            cos_theta = chord1.dot(chord2) / norms
        cos_theta = max(-1.0, min(1.0, cos_theta))
    ratio = 4.0 * span / (3.0 * (n1 + n2))
    return ratio / (1.0 + math.sqrt((1.0 + cos_theta) / 2.0))


def control_points_oshima(
    pm1: Point2, pj: Point2, pjp1: Point2, pjp2: Point2
) -> tuple[Point2, Point2]:
    """Inner control points with the adaptive coefficient."""
    try:
        c = oshima_coefficient(pm1, pj, pjp1, pjp2)
    except DegenerateGeometryError:
        if pj.x == pjp1.x and pj.y == pjp1.y:
            # four coincident points: the segment is that single point
            return pj, pj
        raise
    q = pj + (pjp1 - pm1) * c
    r = pjp1 + (pj - pjp2) * c
    return q, r


def _hypot(v: np.ndarray) -> np.ndarray:
    """math.hypot of each (x, y) row; np.hypot rounds differently."""
    return np.fromiter(map(math.hypot, *v.T.tolist()), float, len(v))


def build_spline(
    points: Sequence[Point2] | np.ndarray,
    method: SplineMethod = SplineMethod.OSHIMA,
    closed: bool | None = None,
) -> SplineCurve:
    """Interpolating spline through the points (Point2s or an (n, 2)
    array), in order.

    closed=None auto-detects: when the last point coincides with the
    first (within 1e-9) the duplicate is dropped and the curve closes.
    Passing closed explicitly overrides the detection.

    Every segment's Q and R come from one pass over the columns of the
    point array, with control_points_oshima's float operations in its
    order and math.hypot for the norms, so the control points are the
    scalar rules' bit for bit.  Rows where the scalar rule branches
    (both chords zero, a zero span) and rows where cos theta is not
    finite (|chord1| |chord2| underflowing to 0, or overflow; the scalar
    clamp reads NaN as 1) are handed to control_points_oshima itself.
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
            c, scalar = 1.0 / 6.0, []
        else:
            c, scalar = _oshima_columns(ext)
        q = pj + (pjp1 - pm1) * c
        r = pjp1 + (pj - pjp2) * c
    ctrl = np.stack((pj, q, r, pjp1), axis=1)
    for j in scalar:
        quad = starmap(Point2, ext[j : j + 4].tolist())
        ctrl[j, 1:3] = [p.as_tuple() for p in control_points_oshima(*quad)]
    return SplineCurve(ctrl, closed=closed)


def _oshima_columns(ext: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """oshima_coefficient of every segment as an (n, 1) column, and the
    segments it must be left to control_points_oshima for.

    Chord P_j P_j+2 of segment j is chord P_j-1 P_j+1 of segment j + 1,
    so one column of chords and their norms serves both.
    """
    chords = ext[2:] - ext[:-2]
    norms = _hypot(chords)
    chord1, chord2 = chords[:-1], chords[1:]
    n1, n2 = norms[:-1], norms[1:]
    span = _hypot(ext[2:-1] - ext[1:-2])
    dot = chord1[:, 0] * chord2[:, 0] + chord1[:, 1] * chord2[:, 1]
    cos_theta = dot / (n1 * n2)
    cos_theta[(n1 == 0.0) | (n2 == 0.0)] = 1.0
    # where n1 * n2 underflows to 0, cos theta is inf or NaN
    scalar = ((n1 == 0.0) & (n2 == 0.0)) | (span == 0.0) | ~np.isfinite(cos_theta)
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    ratio = 4.0 * span / (3.0 * (n1 + n2))
    c = ratio / (1.0 + np.sqrt((1.0 + cos_theta) / 2.0))
    return c[:, None], np.flatnonzero(scalar).tolist()
