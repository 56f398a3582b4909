"""Numerical integration and differentiation on spline fits.

Sampled data (x_k, y_k) is interpolated by a cubic spline and the
integral of y dx is accumulated segment by segment.  For one cubic
segment with control points (x1,y1)..(x4,y4) the line integral
int_0^1 y(t) x'(t) dt has the closed form

    ((10 x4 - 6 x3 - 3 x2 - x1) y4 + (6 x4 - 3 x2 - 3 x1) y3
     + (3 x4 + 3 x3 - 6 x1) y2 + (x4 + 3 x3 + 6 x2 - 10 x1) y1) / 20

which is exact, so the only approximation error left is the spline fit
itself.  Boundary segments are clipped by solving x(t) = bound with
bisection and subdividing the cubic at the root.

Areas of closed traces come from the same machinery: for a curve
traversed counterclockwise the signed area is -contour_integral(y dx).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .geom import (
    CubicBezier,
    Point2,
    SplineCurve,
    bezier_derivative,
    bezier_eval,
    bezier_slice,
)
from .spline import SplineMethod, build_spline

BOUNDARY_REL_TOL = 1e-12
BOUNDARY_MAX_ITER = 200
VERTICAL_EPS = 1e-12


class CalculusError(ValueError):
    pass


class RangeError(CalculusError):
    """Requested interval does not meet the data's x-range."""


class NonMonotoneError(CalculusError):
    """x is not monotone where a boundary had to be solved."""


class VerticalTangentError(CalculusError):
    """dx/dt vanished at the evaluation point (infinite slope)."""


def segment_integral(b: CubicBezier) -> float:
    """Exact int_0^1 y(t) x'(t) dt for one cubic segment."""
    x1, y1 = b.p0.x, b.p0.y
    x2, y2 = b.c0.x, b.c0.y
    x3, y3 = b.c1.x, b.c1.y
    x4, y4 = b.p1.x, b.p1.y
    return (
        (10.0 * x4 - 6.0 * x3 - 3.0 * x2 - x1) * y4
        + (6.0 * x4 - 3.0 * x2 - 3.0 * x1) * y3
        + (3.0 * x4 + 3.0 * x3 - 6.0 * x1) * y2
        + (x4 + 3.0 * x3 + 6.0 * x2 - 10.0 * x1) * y1
    ) / 20.0


@dataclass(frozen=True)
class IntegrationRequest:
    """Data points, x-interval [a, b] and the spline method to fit with."""

    data: tuple[Point2, ...]
    interval: tuple[float, float]
    method: SplineMethod = SplineMethod.OSHIMA

    def __post_init__(self):
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.data) < 4:
            raise CalculusError("integration needs at least 4 data points")
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b)):
            raise CalculusError("interval bounds must be finite")
        if a > b:
            raise CalculusError(f"empty interval [{a!r}, {b!r}]")


def _solve_segment_x(seg: CubicBezier, bound: float) -> float:
    """Bisect x(t) = bound on [0, 1]; needs a sign change."""
    f0 = seg.p0.x - bound
    f1 = seg.p1.x - bound
    if f0 == 0.0:
        return 0.0
    if f1 == 0.0:
        return 1.0
    if f0 * f1 > 0.0:
        raise NonMonotoneError(
            f"no bracket for x = {bound!r} inside segment "
            f"[{seg.p0.x!r}, {seg.p1.x!r}]"
        )
    lo, hi = 0.0, 1.0
    flo = f0
    tol = BOUNDARY_REL_TOL * (1.0 + abs(bound))
    t = 0.5
    for _ in range(BOUNDARY_MAX_ITER):
        t = 0.5 * (lo + hi)
        ft = bezier_eval(seg, t).x - bound
        if abs(ft) <= tol:
            return t
        if flo * ft < 0.0:
            hi = t
        else:
            lo = t
            flo = ft
    return t


def _oriented(data: Sequence[Point2]) -> list[Point2]:
    """Data normalized to increasing x (graphs may be traced either way)."""
    pts = list(data)
    if pts[0].x > pts[-1].x:
        pts.reverse()
    for a, b in zip(pts, pts[1:]):
        if b.x < a.x:
            raise NonMonotoneError(
                f"x must be monotone to read the data as a graph; "
                f"{b.x!r} follows {a.x!r}"
            )
    return pts


def integrate(req: IntegrationRequest) -> float:
    """int_a^b y dx of the spline through the data, read as a graph y(x).

    The interval is clipped to the x-range actually covered by the data;
    it is an error only when the two do not meet at all.
    """
    pts = _oriented(req.data)
    a, b = req.interval
    lo = max(a, pts[0].x)
    hi = min(b, pts[-1].x)
    if lo > hi:
        raise RangeError(
            f"interval [{a!r}, {b!r}] outside data range "
            f"[{pts[0].x!r}, {pts[-1].x!r}]"
        )
    if lo == hi:
        return 0.0
    curve = build_spline(pts, method=req.method, closed=False)
    total = 0.0
    for seg in curve.segments:
        xs, xe = seg.p0.x, seg.p1.x
        if xe <= lo or xs >= hi:
            continue
        t0 = _solve_segment_x(seg, lo) if xs < lo else 0.0
        t1 = _solve_segment_x(seg, hi) if xe > hi else 1.0
        if t1 <= t0:
            continue
        piece = seg if (t0 == 0.0 and t1 == 1.0) else bezier_slice(seg, t0, t1)
        total += segment_integral(piece)
    return total


def closed_area(
    points: Sequence[Point2], method: SplineMethod = SplineMethod.OSHIMA
) -> float:
    """Signed area enclosed by the closed spline through the points.

    Counterclockwise traversal gives a positive area (Green's theorem,
    area = -contour_integral y dx).  The CLI reports the absolute value;
    the sign is kept here because it encodes orientation.
    """
    curve = build_spline(points, method=method, closed=True)
    return -sum(segment_integral(seg) for seg in curve.segments)


def _locate_segment(curve: SplineCurve, x0: float) -> tuple[CubicBezier, float]:
    for seg in curve.segments:
        if seg.p0.x <= x0 <= seg.p1.x or seg.p1.x <= x0 <= seg.p0.x:
            if x0 == seg.p0.x:
                return seg, 0.0
            if x0 == seg.p1.x:
                return seg, 1.0
            return seg, _solve_segment_x(seg, x0)
    raise RangeError(f"x = {x0!r} outside the data range")


def derivative_at(
    data: Sequence[Point2],
    x0: float,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> float:
    """Slope dy/dx of the spline fit at x = x0."""
    line = tangent_line(data, x0, method)
    if line.vertical:
        raise VerticalTangentError(f"vertical tangent at x = {x0!r}")
    return line.slope


def curve_y_at(
    data: Sequence[Point2],
    x0: float,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> float:
    """y value of the spline fit at x = x0 (same fit derivative_at uses)."""
    return tangent_line(data, x0, method).point.y


@dataclass(frozen=True)
class TangentLine:
    """Tangent of the fitted curve at a point; vertical lines have no slope."""

    point: Point2
    slope: float | None
    vertical: bool = False

    def y_at(self, x: float) -> float:
        if self.vertical:
            raise VerticalTangentError("vertical tangent has no y(x)")
        return self.point.y + self.slope * (x - self.point.x)


def tangent_line(
    data: Sequence[Point2],
    x0: float,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> TangentLine:
    """Tangent line of the spline fit at x = x0; one fit gives point and slope."""
    if len(data) < 2:
        raise CalculusError(f"need at least 2 data points, got {len(data)}")
    pts = _oriented(data)
    seg, t = _locate_segment(build_spline(pts, method=method, closed=False), x0)
    y0 = bezier_eval(seg, t).y
    d = bezier_derivative(seg, t)
    if abs(d.x) < VERTICAL_EPS:
        return TangentLine(Point2(x0, y0), None, vertical=True)
    return TangentLine(Point2(x0, y0), d.y / d.x, vertical=False)
