"""Tracing the zero set of F(x, y) on a rectangle.

A marching-squares pass over an n x n cell grid finds every sign change
along cell edges, refines each crossing by bisection, and chains the
per-cell segments into polylines.  Saddle cells (two opposite positive
corners) are disambiguated by the sign of F at the cell center.  The
output is deterministic: same F, same window, same grid, same bytes.

F is evaluated only in array passes, bit for bit the values of the
scalar F: once at the (n + 1)^2 nodes (`f.grid`), once at the centers
of the saddle cells, and once per bisection step over every crossing
still being refined (`f.at`).  Cells are classified and their segments
read from a case table as arrays, in row order (j, then i); Python
loops remain only where the segments are chained.

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

from .expr import BinOp, ExprNode, compile_fn, free_vars, parse, steps
from .geom import Point2, Polyline

log = logging.getLogger(__name__)

RESIDUAL_FACTOR = 1e-10
MAX_BISECT = 30
JOIN_TOL = 1e-9  # chained crossing points closer than this are one vertex

# cell corner order: SW, SE, NE, NW; case bit k set when corner k has F > 0.
# Each case lists its segments as pairs of cell edges, -1 for none; the
# saddles 5 and 10 are listed for a positive center, and a saddle cell
# whose center is not positive takes the other saddle's row.
_S, _N, _W, _E = range(4)
_SEGMENT_TABLE = np.array(
    [
        [(-1, -1), (-1, -1)],  # 0
        [(_W, _S), (-1, -1)],  # 1
        [(_S, _E), (-1, -1)],  # 2
        [(_W, _E), (-1, -1)],  # 3
        [(_E, _N), (-1, -1)],  # 4
        [(_S, _E), (_W, _N)],  # 5
        [(_S, _N), (-1, -1)],  # 6
        [(_W, _N), (-1, -1)],  # 7
        [(_W, _N), (-1, -1)],  # 8
        [(_S, _N), (-1, -1)],  # 9
        [(_S, _W), (_E, _N)],  # 10
        [(_E, _N), (-1, -1)],  # 11
        [(_W, _E), (-1, -1)],  # 12
        [(_S, _E), (-1, -1)],  # 13
        [(_S, _W), (-1, -1)],  # 14
        [(-1, -1), (-1, -1)],  # 15
    ],
    dtype=np.int64,
)


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


def trace_zero_set(f: Callable[..., float], cfg: TraceConfig) -> list[Polyline]:
    """Marching-squares trace of f(x, y) = 0.

    f is compiled (see `expr.compile_fn`); the trace evaluates it only
    in array passes, NaN where f raises DomainError: `f.grid` for the
    nodes, one `f.at` for the saddle centers, and one `f.at` per
    bisection step over every crossing still being refined.  It never
    calls the scalar f.
    """
    n = cfg.grid
    xs = np.array(steps(*cfg.xrange, n))
    ys = np.array(steps(*cfg.yrange, n))
    vals = f.grid(xs, ys)

    # cells as [i, j] arrays over the corners SW, SE, NE, NW; a cell with
    # a non-finite corner is skipped, one with all corners on one side
    # holds no segment
    defined = np.isfinite(vals)
    valid = defined[:-1, :-1] & defined[1:, :-1] & defined[1:, 1:] & defined[:-1, 1:]
    pos = (vals > 0.0).view(np.uint8)
    case = (
        pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    )
    valid_cells = int(np.count_nonzero(valid))
    if valid_cells == 0:
        raise TraceError("function undefined on the whole window")
    if valid_cells < n * n:
        log.warning("skipped %d cells with undefined corners", n * n - valid_cells)

    # transposed, so the crossed cells come j-major, i-minor: the
    # segment order the chains are built from
    crossed = (valid & (case != 0) & (case != 15)).T
    jj, ii = np.nonzero(crossed)
    cell_case = case.T[crossed]
    saddle = np.flatnonzero((cell_case == 5) | (cell_case == 10))
    si, sj = ii[saddle], jj[saddle]
    center = f.at(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
    # a center where f is undefined counts as not positive
    cell_case[saddle[~(center > 0.0)]] ^= 15

    # an edge is an int key: i*m + j for the edge from node (i, j) to
    # (i + 1, j), m*m + i*m + j for the one from (i, j) to (i, j + 1), so
    # sorted keys list the first kind before the second, each by i then
    # j.  every crossing is computed once and shared by the two adjacent
    # cells, which is what makes the chains join exactly.
    m = n + 1
    offsets = np.array([0, 1, m * m, m * m + m])  # S, N, W, E of cell (0, 0)
    pairs = _SEGMENT_TABLE[cell_case]
    has = pairs[:, :, 0] >= 0
    base = (ii * m + jj)[:, None]
    seg_a = (base + offsets[pairs[:, :, 0]])[has].tolist()
    seg_b = (base + offsets[pairs[:, :, 1]])[has].tolist()
    adjacency: dict[int, list[tuple[int, int]]] = {}
    for seg_id, (ka, kb) in enumerate(zip(seg_a, seg_b)):
        adjacency.setdefault(ka, []).append((kb, seg_id))
        adjacency.setdefault(kb, []).append((ka, seg_id))

    keys = sorted(adjacency)
    codes = np.array(keys, dtype=np.int64)
    vertical = codes >= m * m
    i1, j1 = np.divmod(codes - vertical * (m * m), m)
    i2, j2 = i1 + ~vertical, j1 + vertical
    px, py = _refine_crossings(
        f, xs[i1], ys[j1], xs[i2], ys[j2], vals[i1, j1], vals[i2, j2]
    )
    points = dict(zip(keys, map(Point2, px.tolist(), py.tolist())))

    visited = [False] * len(seg_a)

    def walk(start: int) -> list[int]:
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

    chains: list[tuple[list[int], bool]] = []
    for key in keys:
        if len(adjacency[key]) == 1 and not visited[adjacency[key][0][1]]:
            chains.append((walk(key), False))
    for key in keys:
        if any(not visited[s] for _, s in adjacency[key]):
            chain = walk(key)
            closed = chain[0] == chain[-1] if len(chain) > 2 else False
            chains.append((chain, closed))

    result: list[Polyline] = []
    for chain, closed in chains:
        pts: list[Point2] = []
        for key in chain:
            p = points[key]
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


def _refine_crossings(
    f: Callable[..., float],
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    f1: np.ndarray,
    f2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The crossing points on the edges (x1, y1)-(x2, y2), all at once.

    f1 and f2 are f at the ends, finite and of opposite signs or zero.
    An end where f is 0 is the crossing.  Otherwise the linear
    interpolation guess comes first, then up to MAX_BISECT halvings of
    the bracket; an edge stops when |f| <= tol or f is undefined at its
    midpoint, and keeps the best point seen.  Each edge makes exactly
    the float operations of a scalar bisection, so the bits match it;
    each step is one `f.at` over the edges still going.
    """
    dx, dy = x2 - x1, y2 - y1
    # Python floats overflow to inf silently; numpy would warn
    with np.errstate(over="ignore", invalid="ignore"):
        tol = RESIDUAL_FACTOR * (1.0 + np.maximum(np.abs(f1), np.abs(f2)))
        t_best = f1 / (f1 - f2)
        f_best = np.abs(f.at(x1 + dx * t_best, y1 + dy * t_best))
        undefined = np.isnan(f_best)
        t_best[undefined] = 0.5
        f_best[undefined] = math.inf
        ta, fa, tb = np.zeros_like(f1), f1.copy(), np.ones_like(f1)
        live = np.flatnonzero((f_best > tol) & (f1 != 0.0) & (f2 != 0.0))
        for _ in range(MAX_BISECT):
            if live.size == 0:
                break
            tm = 0.5 * (ta[live] + tb[live])
            fm = f.at(x1[live] + dx[live] * tm, y1[live] + dy[live] * tm)
            defined = ~np.isnan(fm)
            live, tm, fm = live[defined], tm[defined], fm[defined]
            better = np.abs(fm) < f_best[live]
            t_best[live[better]] = tm[better]
            f_best[live[better]] = np.abs(fm[better])
            going = f_best[live] > tol[live]
            live, tm, fm = live[going], tm[going], fm[going]
            lower = fa[live] * fm < 0.0
            tb[live[lower]] = tm[lower]
            ta[live[~lower]] = tm[~lower]
            fa[live[~lower]] = fm[~lower]
        x = np.where(f1 == 0.0, x1, np.where(f2 == 0.0, x2, x1 + dx * t_best))
        y = np.where(f1 == 0.0, y1, np.where(f2 == 0.0, y2, y1 + dy * t_best))
    return x, y


def _shoelace(pts: list[Point2]) -> float:
    area = 0.0
    m = len(pts)
    for k in range(m):
        p = pts[k]
        q = pts[(k + 1) % m]
        area += p.x * q.y - q.x * p.y
    return 0.5 * area
