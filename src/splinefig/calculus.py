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
from itertools import pairwise
from typing import Sequence

import numpy as np

from .geom import SplineCurve, split, xy_array
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


def segment_integral(row) -> float:
    """Exact int_0^1 y(t) x'(t) dt for one cubic segment, given by its
    control row of four (x, y) pairs."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = row
    return _green(x1, y1, x2, y2, x3, y3, x4, y4)


def _segment_integrals(curve: SplineCurve) -> list[float]:
    """segment_integral of every segment, in one pass over the columns."""
    with np.errstate(all="ignore"):
        return _green(*curve.ctrl.reshape(-1, 8).T).tolist()


@dataclass(frozen=True, eq=False)
class IntegrationRequest:
    """Data points, x-interval [a, b] and the spline method to fit with.

    The points are given as an (n, 2) array or (x, y) pairs and held as
    the array.
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


def _x_span(seg: list) -> float:
    """The x span of the segment's control points: its own x scale."""
    xs = [x for x, _ in seg]
    return max(xs) - min(xs)


def _clip(seg: list, t0: float, t1: float) -> list:
    """The control row of the part of seg over [t0, t1], 0 <= t0 < t1 <= 1:
    split at t0, then the right piece at t1 rescaled."""
    if t0 > 0.0:
        seg = split(seg, t0)[1]
        t1 = (t1 - t0) / (1.0 - t0)
    if t1 < 1.0:
        seg = split(seg, t1)[0]
    return seg


def _velocity(seg: list, t: float) -> tuple[float, float]:
    """d(x, y)/dt at t, by de Casteljau on the hodograph's three points."""
    hodograph = [
        ((bx - ax) * 3.0, (by - ay) * 3.0) for (ax, ay), (bx, by) in pairwise(seg)
    ]
    return split(hodograph, t)[0][-1]


def _solve_segment_x(seg: list, bound: float) -> float:
    """Bisect x(t) = bound on [0, 1]; needs a sign change.

    It stops where |x(t) - bound| is at most BOUNDARY_REL_TOL times the
    segment's x span, so it stops alike at every x scale, or where the
    bracket can halve no more.
    """
    f0 = seg[0][0] - bound
    f1 = seg[3][0] - bound
    if f0 == 0.0:
        return 0.0
    if f1 == 0.0:
        return 1.0
    if f0 * f1 > 0.0:
        raise NonMonotoneError(
            f"no bracket for x = {bound!r} inside segment "
            f"[{seg[0][0]!r}, {seg[3][0]!r}]"
        )
    lo, hi = 0.0, 1.0
    flo = f0
    tol = BOUNDARY_REL_TOL * _x_span(seg)
    t = 0.5
    for _ in range(BOUNDARY_MAX_ITER):
        t = 0.5 * (lo + hi)
        if t == lo or t == hi:
            return t
        ft = split(seg, t)[0][-1][0] - bound
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


def _oriented(data: Sequence[tuple[float, float]] | np.ndarray) -> np.ndarray:
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
        seg = curve.ctrl[k].tolist()
        t0 = _solve_segment_x(seg, lo) if xs < lo else 0.0
        t1 = _solve_segment_x(seg, hi) if xe > hi else 1.0
        if t1 <= t0:
            continue
        total += segment_integral(_clip(seg, t0, t1))
    return _finite(total, "integral")


def closed_area(
    points: Sequence[tuple[float, float]] | np.ndarray,
    method: SplineMethod = SplineMethod.OSHIMA,
) -> float:
    """Signed area enclosed by the closed spline through the points.

    Counterclockwise traversal gives a positive area (Green's theorem,
    area = -contour_integral y dx).  The CLI reports the absolute value;
    the sign is kept here because it encodes orientation.
    """
    curve = build_spline(points, method=method, closed=True)
    return _finite(-sum(_segment_integrals(curve)), "area")


def _locate_segment(curve: SplineCurve, x0: float) -> tuple[list, float]:
    """The control row of the first segment whose end abscissae bracket
    x0, and t there."""
    xs, xe = curve.ctrl[:, 0, 0], curve.ctrl[:, 3, 0]
    hit = ((xs <= x0) & (x0 <= xe)) | ((xe <= x0) & (x0 <= xs))
    if not hit.any():
        raise RangeError(f"x = {x0!r} outside the data range")
    seg = curve.ctrl[int(hit.argmax())].tolist()
    if x0 == seg[0][0]:
        return seg, 0.0
    if x0 == seg[3][0]:
        return seg, 1.0
    return seg, _solve_segment_x(seg, x0)


@dataclass(frozen=True)
class TangentLine:
    """Tangent of the fitted curve at a point; vertical lines have no slope.

    curve is the fit the line touches, through the data ordered by x.
    """

    point: tuple[float, float]
    slope: float | None
    vertical: bool = False
    curve: SplineCurve | None = field(default=None, compare=False, repr=False)

    def y_at(self, x: float) -> float:
        if self.vertical:
            raise VerticalTangentError("vertical tangent has no y(x)")
        x0, y0 = self.point
        return y0 + self.slope * (x - x0)


def tangent_line(
    data: Sequence[tuple[float, float]] | np.ndarray,
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
    point = (x0, _finite(split(seg, t)[0][-1][1], "tangent point's y"))
    dx, dy = _velocity(seg, t)
    if abs(dx) <= VERTICAL_EPS * _x_span(seg):
        return TangentLine(point, None, vertical=True, curve=curve)
    return TangentLine(point, _finite(dy / dx, "slope"), curve=curve)
