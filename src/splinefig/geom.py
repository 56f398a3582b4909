"""Cubic Bezier segments, polylines and spline chains.

Everything here is immutable; curve construction returns new objects.
A point is an (x, y) float pair or a row of an (n, 2) array, and a
cubic segment is its (4, 2) control row, evaluated and subdivided by
de Casteljau's scheme (split; numerically stable, and it gives
subdivision for free).  A spline chain is its control rows, one float64
array that its sampler reads whole, and a polyline is its vertices, one
(n, 2) array.  Point lists move through the CLI as plain CSV, one "x,y"
per line with '#' comments, read into an (n, 2) array; a row that is
not two finite numbers is refused.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np


class PointFileError(ValueError):
    """A point file line that is not an 'x,y' pair of numbers."""


def split(row, t: float) -> tuple[list, list]:
    """De Casteljau's scheme at t on a control row of (x, y) pairs: the
    rows of the pieces over [0, t] and [t, 1], whose shared end is the
    curve's point at t.

    Each level is the one-sided lerp a + (b - a) * t, which keeps the
    ends exact at t = 0 and t = 1.  A (4, 2) row is a cubic segment; the
    three points of its hodograph give its derivative the same way.
    """
    pts = [(float(x), float(y)) for x, y in row]
    left, right = [pts[0]], [pts[-1]]
    while len(pts) > 1:
        pts = [
            (ax + (bx - ax) * t, ay + (by - ay) * t)
            for (ax, ay), (bx, by) in pairwise(pts)
        ]
        left.append(pts[0])
        right.append(pts[-1])
    return left, right[::-1]


def xy_array(points) -> np.ndarray:
    """The points, an (n, 2) array or n (x, y) pairs, as an (n, 2)
    float64 array (shape (0, 2) when there are none); an array is
    returned as it is."""
    xy = np.asarray(points, dtype=float)
    if xy.shape == (0,):
        xy = xy.reshape(0, 2)
    if xy.ndim != 2 or xy.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) array, got shape {xy.shape}")
    return xy


@dataclass(frozen=True, eq=False)
class Polyline:
    """An ordered vertex chain.

    `points` is one read-only float64 (n, 2) vertex array, given as such
    or as (x, y) pairs.  Vertices may carry their 3D preimages (space,
    (n, 3)) and (u, v) parameter tags (params, (n, 2)), read-only
    float64 arrays row-aligned with the vertices.  Closed traces repeat
    the first vertex at the end; consecutive vertices are never equal
    (-0.0 equals 0.0, NaN equals nothing).
    """

    points: np.ndarray
    space: np.ndarray | None = None
    params: np.ndarray | None = None

    def __post_init__(self):
        xy = np.array(xy_array(self.points), order="C")  # rows as C code reads them
        if len(xy) < 2:
            raise ValueError("a polyline needs at least 2 points")
        if (xy[1:] == xy[:-1]).all(axis=1).any():
            raise ValueError("consecutive identical points in polyline")
        xy.flags.writeable = False
        object.__setattr__(self, "points", xy)
        for name, width in (("space", 3), ("params", 2)):
            rows = getattr(self, name)
            if rows is not None:
                rows = frozen_rows(rows, width, len(xy), f"{name} annotation")
                object.__setattr__(self, name, rows)

    def is_loop(self, tol: float = 0.0) -> bool:
        (x0, y0), (x1, y1) = self.points[[0, -1]].tolist()
        return math.hypot(x0 - x1, y0 - y1) <= tol


def drop_repeats(points) -> np.ndarray:
    """The points' (n, 2) rows with every run of equal consecutive rows
    kept once: a row stays unless it equals the row before it."""
    xy = xy_array(points)
    return xy[run_starts(xy)]


def run_starts(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that do not equal the row before them (the
    first row always; -0.0 equals 0.0, NaN equals nothing)."""
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return keep


def frozen_rows(rows, width: int, n: int, name: str) -> np.ndarray:
    """The rows as a read-only float64 copy of shape (n, width); any
    other shape is a ValueError naming them."""
    arr = np.array(rows, dtype=float)
    if arr.shape != (n, width):
        raise ValueError(f"{name} must have shape ({n}, {width}), not {arr.shape}")
    arr.flags.writeable = False
    return arr


def diameter(points) -> float:
    """The largest distance between two points, given as an (n, 2) array
    or as (x, y) pairs (0 for fewer than 2), measured between the distinct
    points of their convex hull (Andrew's monotone chain), which keeps
    the points along its edges."""
    xy = xy_array(points)
    xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
    pts = xy[run_starts(xy)].tolist()

    def chain(seq: Iterable[list[float]]) -> list[list[float]]:
        out: list[list[float]] = []
        for px, py in seq:
            while len(out) >= 2:
                (bx, by), (ax, ay) = out[-2], out[-1]
                if not (ax - bx) * (py - by) - (ay - by) * (px - bx) < 0.0:
                    break
                out.pop()
            out.append([px, py])
        return out[:-1]

    hull = chain(pts) + chain(reversed(pts))
    pairs = (
        math.hypot(px - qx, py - qy)
        for i, (px, py) in enumerate(hull)
        for qx, qy in hull[i + 1:]
    )
    return max(pairs, default=0.0)


@dataclass(frozen=True, eq=False)
class SplineCurve:
    """A chain of cubic segments joining end to start, maybe closed.

    The curve is one read-only float64 control array of shape (n, 4, 2):
    row k holds segment k's points p0, c0, c1, p1, and row k's p1 is row
    k + 1's p0 (NaN matching NaN).  `segments` is another name for it.
    """

    ctrl: np.ndarray
    closed: bool = False

    def __post_init__(self):
        ctrl = np.array(self.ctrl, dtype=float)
        if ctrl.ndim != 3 or ctrl.shape[1:] != (4, 2) or not len(ctrl):
            raise ValueError("spline needs at least one segment")
        if not np.array_equal(ctrl[1:, 0], ctrl[:-1, 3], equal_nan=True):
            raise ValueError("segments do not chain")
        if self.closed and not np.array_equal(ctrl[0, 0], ctrl[-1, 3], equal_nan=True):
            raise ValueError("closed spline does not wrap around")
        ctrl.flags.writeable = False
        object.__setattr__(self, "ctrl", ctrl)

    @property
    def segments(self) -> np.ndarray:
        return self.ctrl

    def sample(self, per_segment: int = 10) -> Polyline:
        """Polyline with per_segment subdivisions for each cubic piece.

        Every segment is evaluated at every i / per_segment, i = 0 ..
        per_segment, in one array pass of split's lerps, in split's
        order: float64 arrays round as Python floats do, so the points
        are split's bit for bit, inf and NaN included.  Each segment
        gives its points before t = 1, and the last one its end point as
        well; drop_repeats then keeps one row of each run of equal rows,
        and those rows are the polyline's vertex array.
        """
        if per_segment < 1:
            raise ValueError("per_segment must be >= 1")
        t = (np.arange(per_segment + 1) / per_segment)[:, None, None]
        ctrl = self.ctrl[:, None]  # (segment, t, control point, xy)
        with np.errstate(all="ignore"):
            for _ in range(3):
                a, b = ctrl[:, :, :-1], ctrl[:, :, 1:]
                ctrl = a + (b - a) * t
        pts = np.vstack((ctrl[:, :-1].reshape(-1, 2), ctrl[-1, -1]))
        # a repeated data row gives a segment that is a single point
        return Polyline(drop_repeats(pts))


def load_points(path: str | Path) -> np.ndarray:
    """Read "x,y" lines into an (n, 2) float64 array; blank lines and
    '#' comments are skipped."""
    rows: list[tuple[float, float]] = []
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
        if not (math.isfinite(x) and math.isfinite(y)):
            raise PointFileError(f"{path}:{lineno}: non-finite coordinate in {raw!r}")
        rows.append((x, y))
    return np.array(rows, dtype=float).reshape(-1, 2)
