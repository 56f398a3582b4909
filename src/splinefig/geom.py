"""Points, cubic Bezier segments, polylines and spline chains.

Everything here is immutable; curve construction returns new objects.
A cubic segment is stored by its four control points and evaluated with
de Casteljau's scheme (numerically stable and it gives subdivision for
free).  Point lists move through the CLI as plain CSV, one "x,y" per
line with '#' comments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


class PointFileError(ValueError):
    """A point file line that is not an 'x,y' pair of numbers."""


@dataclass(frozen=True, slots=True)
class Point2:
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

    def __neg__(self) -> "Point2":
        return Point2(-self.x, -self.y)

    def dot(self, other: "Point2") -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Point2") -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Point2") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True, slots=True)
class Point3:
    x: float
    y: float
    z: float

    def __add__(self, other: "Point3") -> "Point3":
        return Point3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Point3") -> "Point3":
        return Point3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, k: float) -> "Point3":
        return Point3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Point3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def dist(self, other: "Point3") -> float:
        return (self - other).norm()

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _lerp(a: Point2, b: Point2, t: float) -> Point2:
    # one-sided form keeps the endpoints exact at t=0 and t=1
    return Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


@dataclass(frozen=True, slots=True)
class CubicBezier:
    """A cubic segment: endpoints p0/p1, inner control points c0/c1."""

    p0: Point2
    c0: Point2
    c1: Point2
    p1: Point2


def bezier_eval(b: CubicBezier, t: float) -> Point2:
    """De Casteljau evaluation at t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter {t!r} outside [0, 1]")
    q0 = _lerp(b.p0, b.c0, t)
    q1 = _lerp(b.c0, b.c1, t)
    q2 = _lerp(b.c1, b.p1, t)
    r0 = _lerp(q0, q1, t)
    r1 = _lerp(q1, q2, t)
    return _lerp(r0, r1, t)


def bezier_derivative(b: CubicBezier, t: float) -> Point2:
    """Derivative with respect to t (a quadratic, evaluated the same way)."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter {t!r} outside [0, 1]")
    d0 = (b.c0 - b.p0) * 3.0
    d1 = (b.c1 - b.c0) * 3.0
    d2 = (b.p1 - b.c1) * 3.0
    e0 = _lerp(d0, d1, t)
    e1 = _lerp(d1, d2, t)
    return _lerp(e0, e1, t)


def bezier_subdivide(b: CubicBezier, t: float) -> tuple[CubicBezier, CubicBezier]:
    """Split at t in (0, 1); the halves join exactly at the split point."""
    if not 0.0 < t < 1.0:
        raise ValueError(f"split parameter {t!r} outside (0, 1)")
    q0 = _lerp(b.p0, b.c0, t)
    q1 = _lerp(b.c0, b.c1, t)
    q2 = _lerp(b.c1, b.p1, t)
    r0 = _lerp(q0, q1, t)
    r1 = _lerp(q1, q2, t)
    s = _lerp(r0, r1, t)
    return CubicBezier(b.p0, q0, r0, s), CubicBezier(s, r1, q2, b.p1)


def bezier_slice(b: CubicBezier, t0: float, t1: float) -> CubicBezier:
    """The sub-segment covering [t0, t1] of b, 0 <= t0 < t1 <= 1."""
    if not 0.0 <= t0 < t1 <= 1.0:
        raise ValueError(f"bad slice range ({t0!r}, {t1!r})")
    seg = b
    if t0 > 0.0:
        seg = bezier_subdivide(seg, t0)[1]
        t1 = (t1 - t0) / (1.0 - t0)
    if t1 < 1.0:
        seg = bezier_subdivide(seg, t1)[0]
    return seg


def bezier_bbox(b: CubicBezier) -> tuple[float, float, float, float]:
    """Control-point bounding box (xmin, ymin, xmax, ymax).

    By the convex hull property the curve never leaves this box.
    """
    xs = (b.p0.x, b.c0.x, b.c1.x, b.p1.x)
    ys = (b.p0.y, b.c0.y, b.c1.y, b.p1.y)
    return (min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class Polyline:
    """An ordered vertex chain.

    Vertices may carry their 3D preimage (space) and parameter tags
    (params), index-aligned with points.  Closed traces repeat the
    first vertex at the end; consecutive vertices are never identical.
    """

    points: tuple[Point2, ...]
    space: tuple[Point3, ...] | None = None
    params: tuple | None = None

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("a polyline needs at least 2 points")
        for a, b in zip(pts, pts[1:]):
            if a.x == b.x and a.y == b.y:
                raise ValueError("consecutive identical points in polyline")
        if self.space is not None:
            object.__setattr__(self, "space", tuple(self.space))
            if len(self.space) != len(pts):
                raise ValueError("space annotation length mismatch")
        if self.params is not None:
            object.__setattr__(self, "params", tuple(self.params))
            if len(self.params) != len(pts):
                raise ValueError("params annotation length mismatch")

    def __len__(self) -> int:
        return len(self.points)

    @property
    def pt_start(self) -> Point2:
        return self.points[0]

    @property
    def pt_end(self) -> Point2:
        return self.points[-1]

    def is_loop(self, tol: float = 0.0) -> bool:
        return self.points[0].dist(self.points[-1]) <= tol

    def as_array(self) -> np.ndarray:
        return np.array([(p.x, p.y) for p in self.points], dtype=float)

    def reversed(self) -> "Polyline":
        return Polyline(
            tuple(reversed(self.points)),
            tuple(reversed(self.space)) if self.space is not None else None,
            tuple(reversed(self.params)) if self.params is not None else None,
        )


def drop_repeats(points: Iterable[Point2]) -> tuple[Point2, ...]:
    """The points with every run of equal consecutive points kept once."""
    pts = tuple(points)
    return pts[:1] + tuple(
        b for a, b in zip(pts, pts[1:]) if a.x != b.x or a.y != b.y
    )


@dataclass(frozen=True)
class SplineCurve:
    """A chain of cubic segments joining end to start, maybe closed."""

    segments: tuple[CubicBezier, ...]
    closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("spline needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.p1 != b.p0:
                raise ValueError("segments do not chain")
        if self.closed and self.segments[-1].p1 != self.segments[0].p0:
            raise ValueError("closed spline does not wrap around")

    def joints(self) -> list[Point2]:
        pts = [seg.p0 for seg in self.segments]
        if not self.closed:
            pts.append(self.segments[-1].p1)
        return pts

    def point(self, k: int, t: float) -> Point2:
        return bezier_eval(self.segments[k], t)

    def sample(self, per_segment: int = 10) -> Polyline:
        """Polyline with per_segment subdivisions for each cubic piece."""
        if per_segment < 1:
            raise ValueError("per_segment must be >= 1")
        pts = [
            bezier_eval(seg, i / per_segment)
            for seg in self.segments
            for i in range(per_segment)
        ]
        pts.append(bezier_eval(self.segments[-1], 1.0))
        # a repeated data row gives a segment that is a single point
        return Polyline(drop_repeats(pts))


def closest_approach(a: Polyline, b: Polyline) -> tuple[int, int, float]:
    """Vertex pair (i, j, distance) minimizing Euclidean distance.

    Ties resolve to the lexicographically smallest index pair.
    """
    pa = a.as_array()
    pb = b.as_array()
    best = (0, 0, math.inf)
    # block in rows so huge polylines never allocate an n*m matrix
    block = max(1, int(4e6) // max(1, len(pb)))
    for lo in range(0, len(pa), block):
        chunk = pa[lo : lo + block]
        d2 = ((chunk[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        k = int(np.argmin(d2))
        i, j = divmod(k, d2.shape[1])
        d = math.sqrt(float(d2[i, j]))
        if d < best[2]:
            best = (lo + int(i), int(j), d)
    return best


def load_points(path: str | Path) -> list[Point2]:
    """Read "x,y" lines; blank lines and '#' comments are skipped."""
    pts: list[Point2] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise PointFileError(f"{path}:{lineno}: expected 'x,y', got {raw!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise PointFileError(f"{path}:{lineno}: bad number in {raw!r}") from exc
        pts.append(Point2(x, y))
    return pts


def save_points(path: str | Path, points: Iterable[Point2]) -> None:
    lines = [f"{p.x!r},{p.y!r}" for p in points]
    Path(path).write_text("\n".join(lines) + "\n")


def points_from_pairs(pairs: Sequence[Sequence[float]]) -> list[Point2]:
    return [Point2(float(x), float(y)) for x, y in pairs]
