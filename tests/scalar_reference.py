"""The one-point-at-a-time forms the library no longer carries.

The tests check the library's array code against these, bit for bit.
Point2 is an (x, y) float pair with vector arithmetic; being a tuple, a
list of them is n (x, y) pairs, which the library reads as an (n, 2)
array.  control_points_cr, oshima_coefficient and control_points_oshima
state the two spline rules one segment at a time, as the builder once
applied them.  A cubic segment is its control row of four points, and
point_at reads it by geom.split.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from splinefig.geom import split
from splinefig.spline import DegenerateGeometryError


class Point2(NamedTuple):
    x: float
    y: float

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def __mul__(self, k: float) -> "Point2":
        return Point2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def __truediv__(self, k: float) -> "Point2":
        return Point2(self.x / k, self.y / k)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: tuple[float, float]) -> float:
        return math.hypot(self.x - other[0], self.y - other[1])

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


def control_rows(curve) -> list[list[Point2]]:
    """A spline's control-array rows as lists of four Point2s."""
    return [[Point2(*p) for p in row] for row in curve.ctrl.tolist()]


def vertices(poly) -> list[Point2]:
    """A polyline's vertex rows as Point2s."""
    return [Point2(*p) for p in poly.points.tolist()]


def point_at(row, t: float) -> Point2:
    """The point at t of the segment with control row row."""
    return Point2(*split(row, t)[0][-1])


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
