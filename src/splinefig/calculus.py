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
from dataclasses import dataclass, field
from itertools import starmap
from typing import Sequence

import numpy as np

from .geom import (
    CubicBezier,
    Point2,
    SplineCurve,
    bezier_derivative,
    bezier_eval,
    bezier_slice,
    xy_array,
)
from .spline import SplineMethod, build_spline

BOUNDARY_REL_TOL = 1e-12  # |x(t) - bound| at most this share of the x span
BOUNDARY_MAX_ITER = 200
VERTICAL_EPS = 1e-12  # |dx/dt| at most this share of the segment's x span


class CalculusError(ValueError):
    pass


class RangeError(CalculusError):
    """Requested interval does not meet the data's x-range."""


class NonMonotoneError(CalculusError):
    """x is not monotone where a boundary had to be solved."""


class VerticalTangentError(CalculusError):
    """dx/dt vanished at the evaluation point (infinite slope)."""


def _green(x1, y1, x2, y2, x3, y3, x4, y4):
    """int_0^1 y(t) x'(t) dt from the control coordinates: floats, or
    float64 columns, which round each operation as floats do."""
    return (
        (10.0 * x4 - 6.0 * x3 - 3.0 * x2 - x1) * y4
        + (6.0 * x4 - 3.0 * x2 - 3.0 * x1) * y3
        + (3.0 * x4 + 3.0 * x3 - 6.0 * x1) * y2
        + (x4 + 3.0 * x3 + 6.0 * x2 - 10.0 * x1) * y1
    ) / 20.0


def segment_integral(b: CubicBezier) -> float:
    """Exact int_0^1 y(t) x'(t) dt for one cubic segment."""
    return _green(
        b.p0.x, b.p0.y, b.c0.x, b.c0.y, b.c1.x, b.c1.y, b.p1.x, b.p1.y
    )


def _segment(curve: SplineCurve, k: int) -> CubicBezier:
    """Segment k of the curve, built from its control-array row."""
    return CubicBezier(*starmap(Point2, curve.ctrl[k].tolist()))


def _segment_integrals(curve: SplineCurve) -> list[float]:
    """segment_integral of every segment, in one pass over the columns."""
    with np.errstate(all="ignore"):
        return _green(*curve.ctrl.reshape(-1, 8).T).tolist()


@dataclass(frozen=True, eq=False)
class IntegrationRequest:
    """Data points, x-interval [a, b] and the spline method to fit with.

    The points are given as Point2s or an (n, 2) array and held as the
    array.
    """

    data: np.ndarray
    interval: tuple[float, float]
    method: SplineMethod = SplineMethod.OSHIMA

    def __post_init__(self):
        object.__setattr__(self, "data", xy_array(self.data))
        if len(self.data) < 4:
            raise CalculusError("integration needs at least 4 data points")
        a, b = self.interval
        if not (math.isfinite(a) and math.isfinite(b)):
            raise CalculusError("interval bounds must be finite")
        if a > b:
            raise CalculusError(f"empty interval [{a!r}, {b!r}]")


def _x_span(seg: CubicBezier) -> float:
    """The x span of the segment's control points: its own x scale."""
    xs = (seg.p0.x, seg.c0.x, seg.c1.x, seg.p1.x)
    return max(xs) - min(xs)


def _solve_segment_x(seg: CubicBezier, bound: float) -> float:
    """Bisect x(t) = bound on [0, 1]; needs a sign change.

    It stops where |x(t) - bound| is at most BOUNDARY_REL_TOL times the
    segment's x span, so it stops alike at every x scale, or where the
    bracket can halve no more.
    """
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
    tol = BOUNDARY_REL_TOL * _x_span(seg)
    t = 0.5
    for _ in range(BOUNDARY_MAX_ITER):
        t = 0.5 * (lo + hi)
        if t == lo or t == hi:
            return t
        ft = bezier_eval(seg, t).x - bound
        if abs(ft) <= tol:
            return t
        if flo * ft < 0.0:
            hi = t
        else:
            lo = t
            flo = ft
    return t


def _finite(value: float, what: str) -> float:
    """value, or CalculusError when it is inf or NaN (the fit overflowed)."""
    if not math.isfinite(value):
        raise CalculusError(f"the {what} is not finite: {value!r}")
    return value


def _oriented(data: Sequence[Point2] | np.ndarray) -> np.ndarray:
    """Data as an (n, 2) array normalized to increasing x (graphs may be
    traced either way)."""
    pts = xy_array(data)
    if pts[0, 0] > pts[-1, 0]:
        pts = pts[::-1]
    back = np.flatnonzero(pts[1:, 0] < pts[:-1, 0])
    if back.size:
        a, b = pts[back[0] : back[0] + 2, 0].tolist()
        raise NonMonotoneError(
            f"x must be monotone to read the data as a graph; {b!r} follows {a!r}"
        )
    return pts


def integrate(req: IntegrationRequest) -> float:
    """int_a^b y dx of the spline through the data, read as a graph y(x).

    The interval is clipped to the x-range actually covered by the data;
    it is an error only when the two do not meet at all.
    """
    pts = _oriented(req.data)
    first, last = pts[[0, -1], 0].tolist()
    a, b = req.interval
    lo = max(a, first)
    hi = min(b, last)
    if lo > hi:
        raise RangeError(
            f"interval [{a!r}, {b!r}] outside data range [{first!r}, {last!r}]"
        )
    if lo == hi:
        return 0.0
    curve = build_spline(pts, method=req.method, closed=False)
    parts = _segment_integrals(curve)
    starts = curve.ctrl[:, 0, 0].tolist()
    ends = curve.ctrl[:, 3, 0].tolist()
    total = 0.0
    for k, (xs, xe) in enumerate(zip(starts, ends)):
        if xe <= lo or xs >= hi:
            continue
        if not (xs < lo or xe > hi):
            total += parts[k]
            continue
        # one of the (at most two) segments that the interval clips
        seg = _segment(curve, k)
        t0 = _solve_segment_x(seg, lo) if xs < lo else 0.0
        t1 = _solve_segment_x(seg, hi) if xe > hi else 1.0
        if t1 <= t0:
            continue
        piece = seg if (t0 == 0.0 and t1 == 1.0) else bezier_slice(seg, t0, t1)
        total += segment_integral(piece)
    return _finite(total, "integral")


def closed_area(
    points: Sequence[Point2] | np.ndarray,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> float:
    """Signed area enclosed by the closed spline through the points.

    Counterclockwise traversal gives a positive area (Green's theorem,
    area = -contour_integral y dx).  The CLI reports the absolute value;
    the sign is kept here because it encodes orientation.
    """
    curve = build_spline(points, method=method, closed=True)
    return _finite(-sum(_segment_integrals(curve)), "area")


def _locate_segment(curve: SplineCurve, x0: float) -> tuple[CubicBezier, float]:
    """The first segment whose end abscissae bracket x0, and t there."""
    xs, xe = curve.ctrl[:, 0, 0], curve.ctrl[:, 3, 0]
    hit = ((xs <= x0) & (x0 <= xe)) | ((xe <= x0) & (x0 <= xs))
    if not hit.any():
        raise RangeError(f"x = {x0!r} outside the data range")
    seg = _segment(curve, int(hit.argmax()))
    if x0 == seg.p0.x:
        return seg, 0.0
    if x0 == seg.p1.x:
        return seg, 1.0
    return seg, _solve_segment_x(seg, x0)


@dataclass(frozen=True)
class TangentLine:
    """Tangent of the fitted curve at a point; vertical lines have no slope.

    curve is the fit the line touches, through the data ordered by x.
    """

    point: Point2
    slope: float | None
    vertical: bool = False
    curve: SplineCurve | None = field(default=None, compare=False, repr=False)

    def y_at(self, x: float) -> float:
        if self.vertical:
            raise VerticalTangentError("vertical tangent has no y(x)")
        return self.point.y + self.slope * (x - self.point.x)


def tangent_line(
    data: Sequence[Point2] | np.ndarray,
    x0: float,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> TangentLine:
    """Tangent line of the spline fit at x = x0; one fit gives point and slope.

    The tangent is vertical where dx/dt is no more than VERTICAL_EPS
    times the x span of the segment's control points, so the test reads
    the same at every x scale (dx/dt is at most three times that span).
    """
    if len(data) < 2:
        raise CalculusError(f"need at least 2 data points, got {len(data)}")
    curve = build_spline(_oriented(data), method=method, closed=False)
    seg, t = _locate_segment(curve, x0)
    point = Point2(x0, _finite(bezier_eval(seg, t).y, "tangent point's y"))
    d = bezier_derivative(seg, t)
    if abs(d.x) <= VERTICAL_EPS * _x_span(seg):
        return TangentLine(point, None, vertical=True, curve=curve)
    return TangentLine(point, _finite(d.y / d.x, "slope"), curve=curve)
