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
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Sequence

from .geom import CubicBezier, Point2, SplineCurve

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


def build_spline(
    points: Sequence[Point2],
    method: SplineMethod = SplineMethod.OSHIMA,
    closed: bool | None = None,
) -> SplineCurve:
    """Interpolating spline through the points, in order.

    closed=None auto-detects: when the last point coincides with the
    first (within 1e-9) the duplicate is dropped and the curve closes.
    Passing closed explicitly overrides the detection.
    """
    pts = [Point2(float(p.x), float(p.y)) for p in points]
    if len(pts) < 2:
        raise DegenerateGeometryError(f"need at least 2 points, got {len(pts)}")
    coincide = pts[0].dist(pts[-1]) <= CLOSE_TOL
    if closed is None:
        closed = len(pts) >= 4 and coincide
    if closed and coincide:
        pts = pts[:-1]
    n = len(pts)
    if closed and n < 3:
        raise DegenerateGeometryError(
            "a closed spline needs at least 3 distinct points"
        )
    if all(p.x == pts[0].x and p.y == pts[0].y for p in pts[1:]):
        raise DegenerateGeometryError("all input points coincide")

    if closed:
        quads = [
            (pts[(j - 1) % n], pts[j], pts[(j + 1) % n], pts[(j + 2) % n])
            for j in range(n)
        ]
    else:
        # synthesize the missing neighbors: continue the parabola through
        # the three boundary points (reflection when there are only two)
        if n >= 3:
            head = pts[0] * 3.0 - pts[1] * 3.0 + pts[2]
            tail = pts[-1] * 3.0 - pts[-2] * 3.0 + pts[-3]
        else:
            head = pts[0] * 2.0 - pts[1]
            tail = pts[-1] * 2.0 - pts[-2]
        ext = [head, *pts, tail]
        quads = [tuple(ext[j : j + 4]) for j in range(n - 1)]

    make = (
        control_points_cr
        if method is SplineMethod.CATMULL_ROM
        else control_points_oshima
    )
    segments = []
    for pm1, pj, pjp1, pjp2 in quads:
        q, r = make(pm1, pj, pjp1, pjp2)
        segments.append(CubicBezier(pj, q, r, pjp1))
    return SplineCurve(tuple(segments), closed=closed)
