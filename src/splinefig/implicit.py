"""Tracing the zero set of F(x, y) on a rectangle.

A marching-squares pass over an n x n cell grid finds every sign change
along cell edges, refines each crossing by regula falsi (the Illinois
variant), and chains the per-cell segments into polylines.  Saddle
cells (two opposite positive corners) are disambiguated by the sign of
F at the cell center.  A sign change where F has no root, at a pole or
a jump, is drawn all the same, and the trace warns how many there are.
The output is deterministic: same F, same window, same grid, same bytes.

F is evaluated only in array passes, bit for bit the values of the
scalar F.  First its interval enclosure (`f.enclose`) bounds F on each
block of BLOCK x BLOCK cells; a block whose bound is finite and
excludes 0 holds no crossing and is not evaluated (the filter of
Snyder, "Interval analysis for computer graphics", SIGGRAPH 1992).
Then `f.at` runs once at the nodes of the open blocks, once at the
centers of the saddle cells, and once per refinement step over the
crossings still being refined.  Only a sign mask and its comparisons
along both edge directions span the open blocks; the crossed cells are
then classified from a case table, and their segments chained, on
arrays the size of the zero set.  Where the open blocks would hold as
many nodes as the grid (F has no enclosure rule, say), they are one
block of the whole grid.

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
from .geom import Polyline

log = logging.getLogger(__name__)

RESIDUAL_FACTOR = 1e-10
# refinement steps per crossing: the roots of the README conic stop within 5
MAX_STEPS = 100
# steps in a row that find no smaller |f| end a crossing's refinement: at
# a pole or jump |f| stops falling after the first few, where the bracket
# took about 100 steps to spend
STALL_STEPS = 4
JOIN_TOL = 1e-9  # see TraceConfig.join_tol
MAX_GRID = 4096  # cells per side: the nodes alone take 134 MB at this size
BLOCK = 16  # cells per side of a block whose sign one enclosure may prove

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


# the corners at the two ends (lower node first) of the S, N, W, E edges
_EDGE_CORNERS = np.array([[0, 1], [3, 2], [0, 3], [1, 2]])


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class TraceConfig:
    xrange: tuple[float, float]
    yrange: tuple[float, float]
    grid: int = 200

    def __post_init__(self):
        if not 8 <= self.grid <= MAX_GRID:
            raise TraceError(f"grid must be between 8 and {MAX_GRID}, got {self.grid}")
        if not self.xrange[0] < self.xrange[1]:
            raise TraceError("degenerate x range")
        if not self.yrange[0] < self.yrange[1]:
            raise TraceError("degenerate y range")

    @property
    def join_tol(self) -> float:
        """Crossings closer than this are one vertex: JOIN_TOL, times the
        window's shorter side where that is below 1."""
        sides = (self.xrange[1] - self.xrange[0], self.yrange[1] - self.yrange[0])
        return JOIN_TOL * min(1.0, *sides)


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

    f is compiled (see `expr.compile_fn`) and evaluated as the module
    says, NaN where it raises DomainError; the scalar f is never called.
    After `f.at` at the nodes of the open blocks, a sign mask, one `!=`
    per edge direction and their OR span those blocks (so does a
    finiteness mask of their cells, but only when some node is
    undefined, to count the skipped cells; a proven block has none);
    all else runs on the crossed cells, in i-major order, and their
    edges.  Each component is the rows of the crossing array that its
    chained edge keys pick.
    """
    n = cfg.grid
    m = n + 1
    xs = np.array(steps(*cfg.xrange, n))
    ys = np.array(steps(*cfg.yrange, n))
    # the nodes of each open block, as (k, size + 1) indices along x and
    # y; a block past the last node repeats it, and its cells there are
    # not the grid's
    i0, j0, size = _open_blocks(f, xs, ys)
    local = np.arange(size + 1)
    ni, nj = np.minimum(i0[:, None] + local, n), np.minimum(j0[:, None] + local, n)
    vals = f.at(xs[ni][:, :, None], ys[nj][:, None, :])
    real = True
    if n % size:
        real = (ni[:, :-1] < n)[:, :, None] & (nj[:, :-1] < n)[:, None, :]
    ok = np.isfinite(vals)
    if not ok.all():
        valid = ok[:, :-1, :-1] & ok[:, 1:, :-1] & ok[:, 1:, 1:] & ok[:, :-1, 1:]
        skipped = np.count_nonzero(real & ~valid)
        if skipped == n * n:
            raise TraceError("function undefined on the whole window")
        log.warning("skipped %d cells with undefined corners", skipped)

    # a cell whose S, W and E edges keep their sign has all corners on one
    # side.  The crossed cells are put in i-major order: a chain takes an
    # edge's two segments in cell order, the same as j-major (the scalar
    # order).
    pos = vals > 0.0
    flip_i, flip_j = pos[:, :-1] != pos[:, 1:], pos[:, :, :-1] != pos[:, :, 1:]
    crossed = flip_j[:, :-1] | flip_j[:, 1:] | flip_i[:, :, :-1]
    if n % size:
        crossed &= real
    b, r = np.divmod(np.flatnonzero(crossed), size * size)
    r, s = np.divmod(r, size)
    ii, jj = i0[b] + r, j0[b] + s
    order = np.argsort(ii * m + jj)
    ii, jj = ii[order], jj[order]
    node = ((b * (size + 1) + r) * (size + 1) + s)[order]  # the SW corner in vals
    corners = vals.ravel()[[node, node + size + 1, node + size + 2, node + 1]]
    defined = np.isfinite(corners).all(axis=0)  # else the cell is skipped
    ii, jj, corners = ii[defined], jj[defined], corners[:, defined]
    sw = ii * m + jj  # the flat node index of the cell's SW corner
    cell_case = (1, 2, 4, 8) @ (corners > 0.0)
    saddle = np.flatnonzero((cell_case == 5) | (cell_case == 10))
    si, sj = ii[saddle], jj[saddle]
    center = f.at(0.5 * (xs[si] + xs[si + 1]), 0.5 * (ys[sj] + ys[sj + 1]))
    # a center where f is undefined counts as not positive
    cell_case[saddle[~(center > 0.0)]] ^= 15

    # an edge is an int key: i*m + j for the edge from node (i, j) to
    # (i + 1, j), m*m + i*m + j for the one from (i, j) to (i, j + 1), so
    # sorted keys list the first kind before the second, each by i then
    # j.  every crossing is computed once and shared by the two adjacent
    # cells, which is what makes the chains join exactly.  Segment e // 2
    # ends on key ends[e], row end_row[e]; a row has a first and last end.
    offsets = np.array([0, 1, m * m, m * m + m])  # S, N, W, E of cell (0, 0)
    pairs = _SEGMENT_TABLE[cell_case]
    drawn = pairs[:, :, 0] >= 0
    sides = pairs[drawn].ravel()
    end_cell = np.repeat(np.nonzero(drawn)[0], 2)
    ends = sw[end_cell] + offsets[sides]
    order = np.argsort(ends, kind="stable")
    ordered = ends[order]
    new = np.diff(ordered, prepend=-1) != 0
    codes, first_end = ordered[new], order[new]
    last_end = order[np.diff(ordered, append=-1) != 0]  # first_end for one segment
    end_row = np.empty_like(order)
    end_row[order] = np.cumsum(new) - 1

    # f at an edge's two nodes is at two corners of a cell it bounds
    vertical = codes >= m * m
    i1, j1 = np.divmod(codes - vertical * (m * m), m)
    i2, j2 = i1 + ~vertical, j1 + vertical
    ends_at = _EDGE_CORNERS[sides[first_end]].T
    f1, f2 = corners[ends_at, end_cell[first_end]]
    px, py, no_root = _refine_crossings(f, xs[i1], ys[j1], xs[i2], ys[j2], f1, f2)
    if no_root.any():
        log.warning(
            "%d crossings are sign changes where F has no root (pole or jump?)",
            np.count_nonzero(no_root),
        )
    xy = np.column_stack((px, py))
    cx, cy = px.tolist(), py.tolist()

    end_rows, firsts, lasts = end_row.tolist(), first_end.tolist(), last_end.tolist()
    visited = [False] * (ends.size // 2)

    def walk(k: int) -> list[int]:
        chain = [k]
        while True:
            e = lasts[k] if visited[firsts[k] >> 1] else firsts[k]
            if visited[e >> 1]:
                return chain
            visited[e >> 1] = True
            k = end_rows[e ^ 1]
            chain.append(k)

    chains: list[tuple[list[int], bool]] = []
    for k in np.flatnonzero(first_end == last_end).tolist():
        if not visited[firsts[k] >> 1]:
            chains.append((walk(k), False))
    for k, (a, b) in enumerate(zip(firsts, lasts)):
        if not (visited[a >> 1] and visited[b >> 1]):
            chain = walk(k)
            closed = chain[0] == chain[-1] if len(chain) > 2 else False
            chains.append((chain, closed))

    def apart(a: int, b: int, tol: float = cfg.join_tol) -> bool:
        return math.hypot(cx[a] - cx[b], cy[a] - cy[b]) > tol

    # each component is the crossing rows of its chained keys
    result: list[Polyline] = []
    for chain, closed in chains:
        rows: list[int] = []
        for k in chain:
            if not rows or apart(rows[-1], k):
                rows.append(k)
        if closed and len(rows) > 1 and not apart(rows[0], rows[-1]):
            rows.pop()
        if closed:
            if len(rows) < 3:
                continue
            if _shoelace([cx[k] for k in rows], [cy[k] for k in rows]) < 0.0:
                rows.reverse()
            rows.append(rows[0])
        else:
            if len(rows) < 2:
                continue
            # start vertex gets the larger x (ties: the larger y)
            first, last = rows[0], rows[-1]
            if (cx[first], cy[first]) < (cx[last], cy[last]):
                rows.reverse()
        result.append(Polyline(xy[rows]))
    return result


def _open_blocks(
    f: Callable[..., float], xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """The first node indices (i0, j0) of the grid's blocks whose sign
    f's enclosure does not prove, and the block size in cells.

    The blocks are BLOCK cells a side, the last one in each direction
    cut at the grid's edge.  A block is proven when the enclosure over
    its box has finite ends that exclude 0: f is then defined and of one
    sign, not zero, at all its nodes, as the steps are increasing.  When
    the open blocks would hold as many nodes as the grid, they are one
    block of the whole grid, which costs what a plain grid pass does.
    """
    n = len(xs) - 1
    start = np.arange(0, n, BLOCK)
    end = np.minimum(start + BLOCK, n)
    lo, hi = f.enclose((xs[start, None], xs[end, None]), (ys[None, start], ys[None, end]))
    proven = np.isfinite(lo) & np.isfinite(hi) & ((lo > 0.0) | (hi < 0.0))
    bi, bj = np.nonzero(~proven)
    if bi.size * (BLOCK + 1) ** 2 >= (n + 1) ** 2:
        return np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64), n
    return start[bi], start[bj], BLOCK


def _refine_crossings(
    f: Callable[..., float],
    x1: np.ndarray,
    y1: np.ndarray,
    x2: np.ndarray,
    y2: np.ndarray,
    f1: np.ndarray,
    f2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The crossing points on the edges (x1, y1)-(x2, y2), all at once,
    and the mask of the edges where F has no root to find.

    f1 and f2 are f at the ends, finite and of opposite signs or zero.
    An end where f is 0 is the crossing.  Otherwise the edge's bracket
    [ta, tb] = [0, 1] shrinks by the Illinois variant of regula falsi
    (Dowell & Jarratt, BIT 11, 1971).  Each step evaluates f at the
    secant point of the bracket, the first being the linear
    interpolation guess, or at the bracket's midpoint where the secant
    point is not finite or not inside it.  The point replaces the end
    whose sign it shares, and an end kept twice in a row has its stored
    f halved.  An edge stops when |f| <= RESIDUAL_FACTOR * max(|f1|,
    |f2|), when f is undefined at its step, when the bracket can shrink
    no more, after STALL_STEPS steps in a row that found no smaller |f|,
    or after MAX_STEPS steps, and keeps the best point seen
    (the midpoint when it saw none).  Where that best |f| neither meets
    the stop nor is below min(|f1|, |f2|), F changes sign across the
    edge without a root (a pole, a jump, an undefined gap) and the edge
    is flagged.

    Each edge makes exactly the float operations of the scalar
    iteration, so the bits match it.  Each step is one `f.at` over the
    edges still going, whose state is kept compact: updated in place,
    recompacted after a step where one stopped.
    """
    dx, dy = x2 - x1, y2 - y1
    end = (f1 == 0.0) | (f2 == 0.0)
    t_best, f_best = np.full_like(f1, 0.5), np.full_like(f1, math.inf)
    tol = RESIDUAL_FACTOR * np.maximum(np.abs(f1), np.abs(f2))
    live = np.flatnonzero(~end)
    fa, fb = f1[live], f2[live]
    # Python floats overflow to inf silently; numpy would warn
    with np.errstate(over="ignore", invalid="ignore"):
        tm = fa / (fa - fb)
        tm[~((0.0 < tm) & (tm < 1.0))] = 0.5
        # per live edge: the best t and its |f|, the bracket [ta, tb] with
        # its stored fa and fb, the end the last step kept (1 for a, -1
        # for b, 0 before the first step), the steps since |f| last fell,
        # the next t, the edge's start and step, and its tol
        bracket = (np.zeros_like(fa), fa, np.ones_like(fa), fb, np.zeros(fa.shape, np.int8))
        state = [
            t_best[live], f_best[live], *bracket, np.zeros(fa.shape, np.int8), tm,
            *(a[live] for a in (x1, y1, dx, dy, tol)),
        ]
        for _ in range(MAX_STEPS):
            if live.size == 0:
                break
            tk, fk, ta, fa, tb, fb, kept, stale, tm, sx, sy, sdx, sdy, stol = state
            fm = f.at(sx + sdx * tm, sy + sdy * tm)
            better = np.abs(fm) < fk  # never where f is undefined
            np.copyto(tk, tm, where=better)
            np.copyto(fk, np.abs(fm), where=better)
            np.copyto(stale, np.where(better, 0, stale + 1))
            keep_a = np.signbit(fm) != np.signbit(fa)
            np.multiply(fa, 0.5, out=fa, where=keep_a & (kept == 1))
            np.multiply(fb, 0.5, out=fb, where=~keep_a & (kept == -1))
            np.copyto(tb, tm, where=keep_a)
            np.copyto(fb, fm, where=keep_a)
            np.copyto(ta, tm, where=~keep_a)
            np.copyto(fa, fm, where=~keep_a)
            np.copyto(kept, np.where(keep_a, 1, -1))
            np.add(ta, (tb - ta) * (fa / (fa - fb)), out=tm)
            # the midpoint where the secant point is NaN or not inside;
            # where the midpoint is not inside either, the bracket is spent
            np.copyto(tm, 0.5 * (ta + tb), where=~((ta < tm) & (tm < tb)))
            going = (
                (fk > stol) & (stale < STALL_STEPS) & ~np.isnan(fm)
                & (ta < tm) & (tm < tb)
            )
            if not going.all():
                t_best[live], f_best[live] = tk, fk
                live, state = live[going], [a[going] for a in state]
        t_best[live], f_best[live] = state[0], state[1]
        x = np.where(f1 == 0.0, x1, np.where(f2 == 0.0, x2, x1 + dx * t_best))
        y = np.where(f1 == 0.0, y1, np.where(f2 == 0.0, y2, y1 + dy * t_best))
    near = (f_best <= tol) | (f_best < np.minimum(np.abs(f1), np.abs(f2)))
    return x, y, ~end & ~near


def _shoelace(xs: list[float], ys: list[float]) -> float:
    area = 0.0
    m = len(xs)
    for k in range(m):
        q = (k + 1) % m
        area += xs[k] * ys[q] - xs[q] * ys[k]
    return 0.5 * area
