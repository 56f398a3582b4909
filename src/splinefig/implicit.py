"""Tracing the zero set of F(x, y) on a rectangle.

A marching-squares pass over an n x n cell grid finds every sign change
along cell edges, refines each crossing by bisection, and chains the
per-cell segments into polylines.  Saddle cells (two opposite positive
corners) are disambiguated by the sign of F at the cell center.  The
output is deterministic: same F, same window, same grid, same bytes.

F is evaluated at the (n + 1)^2 nodes in one array pass (`f.grid`,
bit for bit the values of the scalar F), and the cells are classified
as arrays; the Python loop visits only the cells the curve crosses, in
row order (j, then i), and calls the scalar F for bisection and saddle
centers.

Closed components come back counterclockwise with the first vertex
repeated at the end; open components terminate on the rectangle
boundary (or at the edge of an undefined region) and are oriented so
the start vertex has the larger x.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expr import BinOp, DomainError, ExprNode, compile_fn, free_vars, parse, steps
from .geom import Point2, Polyline

log = logging.getLogger(__name__)

RESIDUAL_FACTOR = 1e-10
MAX_BISECT = 30
JOIN_TOL = 1e-9  # chained crossing points closer than this are one vertex

# cell corner order: SW, SE, NE, NW; case bit k set when corner k has F > 0
_SEGMENT_TABLE: dict[int, tuple[tuple[str, str], ...]] = {
    0: (),
    1: (("W", "S"),),
    2: (("S", "E"),),
    3: (("W", "E"),),
    4: (("E", "N"),),
    6: (("S", "N"),),
    7: (("W", "N"),),
    8: (("W", "N"),),
    9: (("S", "N"),),
    11: (("E", "N"),),
    12: (("W", "E"),),
    13: (("S", "E"),),
    14: (("S", "W"),),
    15: (),
}


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class TraceConfig:
    xrange: tuple[float, float]
    yrange: tuple[float, float]
    grid: int = 200

    def __post_init__(self):
        if self.grid < 8:
            raise TraceError("grid must be at least 8")
        if not self.xrange[0] < self.xrange[1]:
            raise TraceError("degenerate x range")
        if not self.yrange[0] < self.yrange[1]:
            raise TraceError("degenerate y range")


def trace_implicit(f: ExprNode | str, cfg: TraceConfig) -> list[Polyline]:
    """Trace F = 0 where F is an expression in x and y."""
    node = parse(f) if isinstance(f, str) else f
    extra = free_vars(node) - {"x", "y"}
    if extra:
        raise TraceError(f"unexpected free variables {sorted(extra)}")
    return trace_zero_set(compile_fn(node, ("x", "y")), cfg)


def parse_equation(text: str) -> ExprNode:
    """Parse "F" or "F=G" (the latter becomes F - G)."""
    if "=" in text:
        lhs, rhs = text.split("=", 1)
        return BinOp("-", parse(lhs), parse(rhs))
    return parse(text)


def trace_zero_set(
    f: Callable[[float, float], float], cfg: TraceConfig
) -> list[Polyline]:
    """Marching-squares trace of f(x, y) = 0.

    f is compiled (see `expr.compile_fn`): `f.grid` gives the node
    values, NaN where f raises DomainError, and the scalar f refines
    crossings and resolves saddles.
    """
    n = cfg.grid
    xs = steps(*cfg.xrange, n)
    ys = steps(*cfg.yrange, n)
    vals = f.grid(xs, ys)

    def crossing(i1: int, j1: int, i2: int, j2: int) -> Point2:
        f1 = float(vals[i1, j1])
        f2 = float(vals[i2, j2])
        p1 = (xs[i1], ys[j1])
        p2 = (xs[i2], ys[j2])
        if f1 == 0.0:
            return Point2(*p1)
        if f2 == 0.0:
            return Point2(*p2)
        tol = RESIDUAL_FACTOR * (1.0 + max(abs(f1), abs(f2)))

        def at(t: float) -> tuple[float, float]:
            return (p1[0] + (p2[0] - p1[0]) * t, p1[1] + (p2[1] - p1[1]) * t)

        # linear interpolation first, then bisection; keep the best seen
        t_best = f1 / (f1 - f2)
        try:
            f_best = abs(f(*at(t_best)))
        except DomainError:
            t_best, f_best = 0.5, math.inf
        if f_best <= tol:
            return Point2(*at(t_best))
        ta, fa = 0.0, f1
        tb = 1.0
        for _ in range(MAX_BISECT):
            tm = 0.5 * (ta + tb)
            try:
                fm = f(*at(tm))
            except DomainError:
                break
            if abs(fm) < f_best:
                t_best, f_best = tm, abs(fm)
            if f_best <= tol:
                break
            if fa * fm < 0.0:
                tb = tm
            else:
                ta, fa = tm, fm
        return Point2(*at(t_best))

    # edge keys: ("h", i, j) joins node (i,j)-(i+1,j); ("v", i, j) joins
    # (i,j)-(i,j+1).  every crossing is computed once and shared by the
    # two adjacent cells, which is what makes the chains join exactly.
    points: dict[tuple, Point2] = {}
    adjacency: dict[tuple, list[tuple]] = {}
    segments: list[tuple[tuple, tuple]] = []

    def edge_point(key: tuple) -> Point2:
        pt = points.get(key)
        if pt is None:
            kind, i, j = key
            if kind == "h":
                pt = crossing(i, j, i + 1, j)
            else:
                pt = crossing(i, j, i, j + 1)
            points[key] = pt
        return pt

    # cells as [i, j] arrays over the corners SW, SE, NE, NW; a cell with
    # a non-finite corner is skipped, one with all corners on one side
    # holds no segment
    valid = np.ones((n, n), dtype=bool)
    case = np.zeros((n, n), dtype=np.uint8)
    for bit, corner in enumerate(
        (vals[:-1, :-1], vals[1:, :-1], vals[1:, 1:], vals[:-1, 1:])
    ):
        valid &= np.isfinite(corner)
        case |= (corner > 0.0).astype(np.uint8) << bit
    valid_cells = int(np.count_nonzero(valid))
    skipped = n * n - valid_cells
    # transposed, so the crossed cells come j-major, i-minor: the
    # segment order the chains are built from
    crossed = (valid & (case != 0) & (case != 15)).T
    jj, ii = np.nonzero(crossed)
    for i, j, case_ij in zip(ii.tolist(), jj.tolist(), case.T[crossed].tolist()):
        if case_ij in (5, 10):
            try:
                fc = f(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1]))
            except DomainError:
                fc = 0.0
            center_pos = fc > 0.0
            if case_ij == 5:
                pairs = (
                    (("S", "E"), ("W", "N"))
                    if center_pos
                    else (("S", "W"), ("E", "N"))
                )
            else:
                pairs = (
                    (("S", "W"), ("E", "N"))
                    if center_pos
                    else (("S", "E"), ("W", "N"))
                )
        else:
            pairs = _SEGMENT_TABLE[case_ij]
        names = {
            "S": ("h", i, j),
            "N": ("h", i, j + 1),
            "W": ("v", i, j),
            "E": ("v", i + 1, j),
        }
        for ea, eb in pairs:
            ka, kb = names[ea], names[eb]
            seg_id = len(segments)
            segments.append((ka, kb))
            adjacency.setdefault(ka, []).append((kb, seg_id))
            adjacency.setdefault(kb, []).append((ka, seg_id))

    if valid_cells == 0:
        raise TraceError("function undefined on the whole window")
    if skipped:
        log.warning("skipped %d cells with undefined corners", skipped)

    visited = [False] * len(segments)

    def walk(start: tuple) -> list[tuple]:
        chain = [start]
        current = start
        while True:
            step = None
            for other, seg_id in adjacency[current]:
                if not visited[seg_id]:
                    step = (other, seg_id)
                    break
            if step is None:
                return chain
            visited[step[1]] = True
            current = step[0]
            chain.append(current)

    chains: list[tuple[list[tuple], bool]] = []
    for key in sorted(adjacency):
        if len(adjacency[key]) == 1 and not visited[adjacency[key][0][1]]:
            chains.append((walk(key), False))
    for key in sorted(adjacency):
        if any(not visited[s] for _, s in adjacency[key]):
            chain = walk(key)
            closed = chain[0] == chain[-1] if len(chain) > 2 else False
            chains.append((chain, closed))

    result: list[Polyline] = []
    for chain, closed in chains:
        pts: list[Point2] = []
        for key in chain:
            p = edge_point(key)
            if pts and pts[-1].dist(p) <= JOIN_TOL:
                continue
            pts.append(p)
        if closed and len(pts) > 1 and pts[0].dist(pts[-1]) <= JOIN_TOL:
            pts.pop()
        if closed:
            if len(pts) < 3:
                continue
            if _shoelace(pts) < 0.0:
                pts.reverse()
            pts.append(pts[0])
        else:
            if len(pts) < 2:
                continue
            # start vertex gets the larger x (ties: the larger y)
            first, last = pts[0], pts[-1]
            if (first.x, first.y) < (last.x, last.y):
                pts.reverse()
        result.append(Polyline(tuple(pts)))
    return result


def _shoelace(pts: list[Point2]) -> float:
    area = 0.0
    m = len(pts)
    for k in range(m):
        p = pts[k]
        q = pts[(k + 1) % m]
        area += p.x * q.y - q.x * p.y
    return 0.5 * area
