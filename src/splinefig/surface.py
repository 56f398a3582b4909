"""Hidden-line wireframe scenes of parametric surfaces.

A surface (x(u,v), y(u,v), z(u,v)) is viewed under an orthographic
camera with azimuth theta and elevation phi:

    X     = -x sin(theta) + y cos(theta)
    Y     = -x cos(theta) sin(phi) - y sin(theta) sin(phi) + z cos(phi)
    depth =  x cos(theta) cos(phi) + y sin(theta) cos(phi) + z sin(phi)

Larger depth means nearer the eye.  The drawing pipeline:

 1. collect the curves to draw: parameter-rectangle boundaries, the
    silhouette (zero set of the projected Jacobian J(u,v), traced with
    the implicit machinery), iso-parameter wires, and the axes;
 2. intersect each projected curve with the projected outline curves
    (a sort and sweep of their segments' boxes finds the crossings and
    the near-tangential contact sites; the scan runs compiled from
    refine.c where a C compiler is found, and in numpy otherwise, with
    the same bits), and refine each contact to where local spline fits
    of the two curves cross or come closest (refine_contact; its fits,
    search and answer run in one call of refine.c too, and in Python
    otherwise);
 3. cut the curves at the parameters where they were crossed (an
    outline crossing itself at both passes) and where each contact
    answer lies nearest, and decide each interval's visibility by a
    depth test at its midpoint (damped Newton solves find every
    surface point covering the midpoint; they and their roots' checks
    run compiled from refine.c, interpreting the surface's lowered
    program, where a C compiler is found, and in Python otherwise, with
    the same bits);
 4. emit visible intervals solid and hidden ones dashed (or drop them).

Everything is deterministic; the per-curve work items are independent
and run through a thread pool.
"""

from __future__ import annotations

import ctypes
import heapq
import logging
import math
import os
import subprocess
import sys
import tempfile
import threading
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, count, pairwise, product, starmap
from typing import Callable, Iterator, Sequence

import numpy as np

from .expr import (
    BinOp,
    Const,
    DomainError,
    ExprNode,
    compile_fn,
    compile_many,
    diff,
    free_vars,
    parse,
    steps,
)
from .geom import Polyline, diameter, drop_repeats, frozen_rows, run_starts
from .implicit import TraceConfig, trace_zero_set
from .render import DrawItem, Label, Scene, Style, fmt5, scene_from_items
from .spline import DegenerateGeometryError, SplineMethod, build_spline

log = logging.getLogger(__name__)

NEWTON_MAX_ITER = 40
NEWTON_TOL = 1e-10
SELF_OCCLUSION_UV_TOL = 1e-4
OCCLUSION_EPS_FACTOR = 1e-6
CROSSING_DEDUP_TOL = 1e-9
OCCLUSION_SEEDS = 32  # seed grid cells per parameter direction
CONTACT_TOL = 0.02  # closest approach that flags a contact site
REFINE_WINDOW = 6  # vertices each side of a contact site in its spline fit
REFINE_TOL = 1e-7  # box diagonal at which refinement accepts a point
REFINE_POPS = 5000  # pops after which refinement gives a site up
FEET_BLOCK = 1 << 16  # pairs per block in _locate_params and _pair_blocks


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class Projection:
    """Orthographic camera; angles in radians."""

    azimuth: float = math.radians(60.0)
    elevation: float = math.radians(25.0)

    def __post_init__(self):
        if not -math.pi / 2 < self.elevation < math.pi / 2:
            raise SurfaceError("elevation must lie in (-pi/2, pi/2)")

    @cached_property
    def trig(self) -> tuple[float, float, float, float]:
        """sin and cos of the azimuth, then sin and cos of the elevation."""
        a, e = self.azimuth, self.elevation
        return math.sin(a), math.cos(a), math.sin(e), math.cos(e)


def project(p, proj: Projection) -> tuple:
    """Screen x, y and depth (larger depth = nearer the eye) of p = (x, y,
    z): three floats, or three columns, which give three columns."""
    x, y, z = p
    st, ct, sf, cf = proj.trig
    sx, sy = -x * st + y * ct, -x * ct * sf - y * st * sf + z * cf
    return sx, sy, x * ct * cf + y * st * cf + z * sf


@dataclass(frozen=True)
class ParametricSurface:
    """Coordinate expressions over the closed rectangle u_range x v_range."""

    x: ExprNode
    y: ExprNode
    z: ExprNode
    u_range: tuple[float, float]
    v_range: tuple[float, float]

    def __post_init__(self):
        if not self.u_range[0] < self.u_range[1]:
            raise SurfaceError("degenerate u range")
        if not self.v_range[0] < self.v_range[1]:
            raise SurfaceError("degenerate v range")
        extra = (
            free_vars(self.x) | free_vars(self.y) | free_vars(self.z)
        ) - {"u", "v"}
        if extra:
            raise SurfaceError(f"unexpected free variables {sorted(extra)}")

    @classmethod
    def from_strings(
        cls,
        x: str,
        y: str,
        z: str,
        u_range: tuple[float, float],
        v_range: tuple[float, float],
    ) -> "ParametricSurface":
        return cls(parse(x), parse(y), parse(z), tuple(u_range), tuple(v_range))

    @cached_property
    def _xyz(self) -> Callable:
        return compile_many((self.x, self.y, self.z), ("u", "v"))

    def point(self, u: float, v: float) -> tuple[float, float, float]:
        return self._xyz(u, v)


@dataclass(frozen=True, eq=False)
class SpaceCurve:
    """An ordered 3D vertex chain: xyz, a read-only float64 (n, 3) array,
    and uv, the vertices' (u, v) preimages as an (n, 2) one, or None."""

    xyz: np.ndarray
    uv: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        xyz = frozen_rows(self.xyz, 3, len(self.xyz), "xyz")
        if len(xyz) < 2:
            raise ValueError("a space curve needs at least 2 points")
        object.__setattr__(self, "xyz", xyz)
        if self.uv is not None:
            object.__setattr__(self, "uv", frozen_rows(self.uv, 2, len(xyz), "uv"))


def _projected_exprs(s: ParametricSurface, proj: Projection) -> tuple[ExprNode, ExprNode]:
    st, ct, sf, cf = proj.trig
    x_expr = BinOp("+", BinOp("*", Const(-st), s.x), BinOp("*", Const(ct), s.y))
    y_expr = BinOp(
        "+",
        BinOp(
            "+",
            BinOp("*", Const(-ct * sf), s.x),
            BinOp("*", Const(-st * sf), s.y),
        ),
        BinOp("*", Const(cf), s.z),
    )
    return x_expr, y_expr


def _projected_partials(
    s: ParametricSurface, proj: Projection
) -> tuple[ExprNode, ExprNode, ExprNode, ExprNode]:
    """Symbolic partials X_u, X_v, Y_u, Y_v of the projection."""
    x_expr, y_expr = _projected_exprs(s, proj)
    return tuple(diff(e, var) for e in (x_expr, y_expr) for var in ("u", "v"))


def _jacobian_fn(
    s: ParametricSurface, proj: Projection
) -> Callable[[float, float], float]:
    """J(u,v) = X_u Y_v - X_v Y_u, compiled (so with `grid`)."""
    xu, xv, yu, yv = _projected_partials(s, proj)
    jac = BinOp("-", BinOp("*", xu, yv), BinOp("*", xv, yu))
    return compile_fn(jac, ("u", "v"))


def _on_surface(
    s: ParametricSurface, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Surface points (n, 3) at the parameter columns u and v, and their
    (u, v) rows (n, 2), where the surface is defined: `at` gives NaN
    exactly where the scalar call raises."""
    xyz = np.column_stack(s._xyz.at(u, v))
    keep = ~np.isnan(xyz).any(axis=1)
    return xyz[keep], np.column_stack((u, v))[keep]


def silhouette(
    s: ParametricSurface, proj: Projection, grid: int = 200
) -> list[SpaceCurve]:
    """Fold curves of the projection: J(u, v) = 0 traced on a grid x grid scan."""
    cfg = TraceConfig(s.u_range, s.v_range, grid=grid)
    curves: list[SpaceCurve] = []
    for poly in trace_zero_set(_jacobian_fn(s, proj), cfg):
        xyz, uv = _on_surface(s, *poly.points.T)
        if len(xyz) < 2:
            continue
        curve = SpaceCurve(xyz, uv, f"silhouette:{len(curves)}")
        # a fold along a degenerate parameter line (a cone apex, a pole)
        # maps to a single 3D point and is no curve at all
        if not _collapsed(curve):
            curves.append(curve)
    return curves


def _edge_curve(
    s: ParametricSurface, fixed: str, value: float, samples: int
) -> SpaceCurve | None:
    lo, hi = s.v_range if fixed == "u" else s.u_range
    ts = np.array(steps(lo, hi, samples))
    same = np.full_like(ts, value)
    xyz, uv = _on_surface(s, *((same, ts) if fixed == "u" else (ts, same)))
    if len(xyz) < 2:
        return None
    return SpaceCurve(xyz, uv, f"boundary:{fixed}={value:g}")


def _same_points(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether each point of a counts as b's point (b one point, or as
    many as a): within 1e-9 * max(1, a's largest |coordinate|), measured
    as sqrt(dx*dx + dy*dy + dz*dz)."""
    tol = 1e-9 * max(1.0, float(np.abs(a).max()))
    with np.errstate(over="ignore"):  # a square past the double range is inf
        dx, dy, dz = (a - b).T
        return bool((np.sqrt(dx * dx + dy * dy + dz * dz) <= tol).all())


def _collapsed(curve: SpaceCurve) -> bool:
    return _same_points(curve.xyz, curve.xyz[0])


def _is_seam(a: SpaceCurve, b: SpaceCurve) -> bool:
    """Opposite edges that trace the same points (a closure seam).

    Either in step (surface of revolution) or reversed (a half-twist
    closure): both mean the edge is interior to the surface.
    """
    if len(a.xyz) != len(b.xyz):
        return False
    return _same_points(a.xyz, b.xyz) or _same_points(a.xyz, b.xyz[::-1])


def boundary_curves(s: ParametricSurface, samples: int = 100) -> list[SpaceCurve]:
    """Parameter-rectangle edges that bound actual geometry.

    Edges that collapse to a point (cones, poles) are dropped, and so
    are pairs of opposite edges that coincide pointwise (the seam of a
    closed surface of revolution is not a boundary).
    """
    result = []
    for fixed, rng in (("u", s.u_range), ("v", s.v_range)):
        pair = [_edge_curve(s, fixed, value, samples) for value in rng]
        if None not in pair and _is_seam(*pair):
            continue
        result.extend(e for e in pair if e is not None and not _collapsed(e))
    return result


def wires(
    s: ParametricSurface,
    fixed_u: Sequence[float] = (),
    fixed_v: Sequence[float] = (),
    samples: int = 100,
) -> list[SpaceCurve]:
    """Iso-parameter curves at the given u values, then the given v values."""
    out: list[SpaceCurve] = []
    for fixed, values, rng in (("u", fixed_u, s.u_range), ("v", fixed_v, s.v_range)):
        for value in values:
            if not rng[0] <= value <= rng[1]:
                raise SurfaceError(f"wire {fixed}={value!r} outside {rng}")
            curve = _edge_curve(s, fixed, value, samples)
            if curve is not None and not _collapsed(curve):
                out.append(replace(curve, label=f"wire:{fixed}={value:g}"))
    return out


def project_curve(curve: SpaceCurve, proj: Projection) -> Polyline | None:
    """Project to screen coordinates, keeping 3D and uv annotations; a
    vertex that projects where the one before it does is dropped."""
    with np.errstate(over="ignore"):  # as Python floats overflow, to inf
        sx, sy, _ = project(curve.xyz.T, proj)
    xy = np.column_stack((sx, sy))
    keep = run_starts(xy)
    if keep.sum() < 2:
        return None
    uv = None if curve.uv is None else curve.uv[keep]
    return Polyline(xy[keep], curve.xyz[keep], uv)


# ---------------------------------------------------------------------------
# projected-curve intersections and contact refinement


@dataclass(frozen=True)
class Crossing:
    point: tuple[float, float]
    ia: int
    ib: int


@dataclass(frozen=True)
class IntersectionResult:
    crossings: tuple[Crossing, ...]
    contacts: tuple[Crossing, ...]  # near-tangential sites to refine
    # where each crossing lies on a, as a parameter (vertex index +
    # fraction), in crossing order; a polyline against itself gives both
    # passes of each crossing
    params: tuple[float, ...]


def _pow2_scale(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Powers of two s with max(|x|, |y|) / s in [1, 2) (1/2 where both are 0)."""
    return np.ldexp(1.0, np.frexp(np.maximum(np.abs(x), np.abs(y)))[1] - 1)


def _feet(
    p: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feet of the points p on the segments a -> b, rows (..., 2) that
    broadcast against each other.

    Returns the clamped segment fractions t and the distances to the
    feet; a zero-length segment has t = 0.  Each segment, each point's
    offset from the segment's start and each point's offset from its
    foot is divided by a power of two (exactly) before it is multiplied,
    so no product under- or overflows; where none did unscaled, t and
    the distance are bit for bit those of the unscaled formulas.  Every
    value is computed element by element, so a pair gets the same bits
    in any batch.
    """
    bx, by = a[..., 0], a[..., 1]
    sx, sy = b[..., 0] - bx, b[..., 1] - by
    scale = _pow2_scale(sx, sy)
    ux, uy = sx / scale, sy / scale
    unit_len2 = ux * ux + uy * uy
    unit_len2[unit_len2 == 0.0] = 1.0
    px, py = p[..., 0], p[..., 1]
    dx, dy = px - bx, py - by
    d_scale = _pow2_scale(dx, dy)
    # (d . seg) / |seg|^2 = (d / d_scale . u) / |u|^2 * d_scale / scale,
    # the last factor applied as one exponent so that only the result
    # is rounded out of the normal range; a ratio past the double range
    # lies far outside [0, 1] and clips like one inside
    with np.errstate(over="ignore"):
        t = np.ldexp(
            (dx / d_scale * ux + dy / d_scale * uy) / unit_len2,
            np.frexp(d_scale)[1] - np.frexp(scale)[1],
        )
    t = np.clip(t, 0.0, 1.0)
    ox = px - (bx + t * sx)
    oy = py - (by + t * sy)
    r = _pow2_scale(ox, oy)
    ox, oy = ox / r, oy / r
    return t, np.sqrt(ox * ox + oy * oy) * r


def _meet(
    p: np.ndarray, r: np.ndarray, q: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Where the lines p + t*r and q + s*w meet: t and s, for rows (n, 2).

    Each row's r, w and q - p are divided by the power of two that brings
    their largest component into [1/2, 1), so no cross product overflows;
    t and s are ratios, bit for bit the unscaled ones wherever no value
    under- or overflowed.  Parallel lines give a t that is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        six = np.hstack((r, w, q - p))
        e = -np.frexp(np.abs(six).max(axis=1))[1]
        rx, ry, wx, wy, dx, dy = np.ldexp(six, e[:, None]).T
        denom = rx * wy - ry * wx
        return (dx * wy - dy * wx) / denom, (dx * ry - dy * rx) / denom


def _segment_boxes(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high corners of each segment's box, (n - 1, 2) each."""
    return np.minimum(points[:-1], points[1:]), np.maximum(points[:-1], points[1:])


def _pair_blocks(
    alo: np.ndarray, ahi: np.ndarray, blo: np.ndarray, bhi: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Every (i, j) whose closed boxes meet, box i of a spanning alo[i]
    to ahi[i] and box j of b blo[j] to bhi[j], in row-major blocks.

    Sort and sweep (Shamos & Hoey, "Geometric intersection problems",
    FOCS 1976): with b's boxes sorted by x_min, box i can only meet the
    run from the first box where the running max of x_max reaches its
    x_min to the last whose x_min is not past its x_max.  The bounds
    are compared, never computed, so rounding loses no pair; each
    candidate then passes the four box tests exactly.  Each block is
    (lo, hi, i, j): the pairs of rows lo to hi - 1, whose runs hold
    about FEET_BLOCK candidates (or one row with more), so no temporary
    holds n × m entries unless one row has that many candidates.
    """
    order = np.argsort(blo[:, 0], kind="stable")
    start = np.searchsorted(np.fmax.accumulate(bhi[order, 0]), alo[:, 0], "left")
    stop = np.searchsorted(blo[order, 0], ahi[:, 0], "right")
    runs = np.maximum(stop - start, 0)
    ends = np.cumsum(runs)
    cuts = np.searchsorted(ends, np.arange(FEET_BLOCK, ends[-1], FEET_BLOCK))
    n, m = len(alo), len(blo)
    for lo, hi in pairwise([0, *np.unique(cuts[cuts > 0]).tolist(), n]):
        rows = np.arange(lo, hi)
        run = runs[rows]
        i = np.repeat(rows, run)
        # the k-th pair of a row sits k places past the row's start in order
        j = order[np.arange(len(i)) + np.repeat(start[rows] - (np.cumsum(run) - run), run)]
        hit = (
            (alo[i, 0] <= bhi[j, 0])
            & (blo[j, 0] <= ahi[i, 0])
            & (alo[i, 1] <= bhi[j, 1])
            & (blo[j, 1] <= ahi[i, 1])
        )
        yield lo, hi, *np.divmod(np.sort(i[hit] * m + j[hit]), m)


def _contact_sites(pa: np.ndarray, pb: np.ndarray) -> list[tuple[float, int, int, float]]:
    """(distance, i, j, t) of every local minimum below CONTACT_TOL of
    the distance from vertex i of pa to segment j of pb (foot fraction
    t), over the 5 x 5 window of vertex i +-2 and segment j +-2; sorted.

    Distances are taken for the pairs whose boxes lie within
    2*CONTACT_TOL, one block of vertices at a time; any other pair is
    farther than every site, so it reads as +inf in a window.  A row's
    window is looked up, FEET_BLOCK entries at a time, once the two
    rows after it are in; the two rows before it are held over.
    """
    pad = 2.0 * CONTACT_TOL
    blo, bhi = _segment_boxes(pb)
    n, m = len(pa), len(blo)
    di, dj = np.mgrid[-2:3, -2:3].reshape(2, 1, 25)
    step = max(1, FEET_BLOCK // 25)
    sites = []
    held = None
    done = 0  # the rows before this one are looked up
    for _, hi, vi, sj in _pair_blocks(pa - pad, pa + pad, blo, bhi):
        pairs = [vi, sj, *_feet(pa[vi], pb[sj], pb[sj + 1])]
        if held is not None:
            pairs = [np.concatenate(x) for x in zip(held, pairs)]
        vi, sj, tt, dist = pairs
        keys = vi * m + sj  # sorted, as the pairs are row-major
        last, done = done, hi if hi == n else hi - 2
        below = np.flatnonzero((dist < CONTACT_TOL) & (vi >= last) & (vi < done))
        for part in np.split(below, range(step, len(below), step)):
            ni, nj = vi[part, None] + di, sj[part, None] + dj
            nk = ni * m + nj
            at = np.minimum(np.searchsorted(keys, nk), len(keys) - 1)
            listed = (nj >= 0) & (nj < m) & (keys[at] == nk)
            low = part[dist[part] <= np.where(listed, dist[at], np.inf).min(axis=1)]
            sites.extend(zip(*(x[low].tolist() for x in (dist, vi, sj, tt))))
        keep = vi >= done - 2
        held = [x[keep] for x in pairs]
    return sorted(sites)


def _crossing_hits(pa: np.ndarray, pb: np.ndarray, self_mode: bool) -> list[tuple]:
    """(i, j, t, s, x, y) of each pair of segment i of pa and segment j
    of pb (j >= i + 2 in self mode) whose lines meet at fractions t and
    s in [0, 1], at (x, y), in row-major order."""
    hits = []
    for _, _, i, j in _pair_blocks(*_segment_boxes(pa), *_segment_boxes(pb)):
        if self_mode:
            # each pair once, and no segment against itself or a neighbour
            keep = j >= i + 2
            i, j = i[keep], j[keep]
        with np.errstate(over="ignore", invalid="ignore"):  # as Python floats do
            p, r = pa[i], pa[i + 1] - pa[i]
            t, s = _meet(p, r, pb[j], pb[j + 1] - pb[j])
            on = (0.0 <= t) & (t <= 1.0) & (0.0 <= s) & (s <= 1.0)
            xy = p[on] + t[on, None] * r[on]
        hits.extend(zip(*(h.tolist() for h in (i[on], j[on], t[on], s[on], *xy.T))))
    return hits


# the rows refine.c's intersect_scan writes: a crossing hit and a contact site
_LONG = np.dtype(ctypes.c_long)
_HIT = np.dtype(
    [("i", _LONG), ("j", _LONG), ("t", float), ("s", float), ("x", float), ("y", float)],
    align=True,
)
_SITE = np.dtype([("dist", float), ("i", _LONG), ("j", _LONG), ("t", float)], align=True)
SCAN_ROWS = 256  # hits and sites the first output buffers of a scan hold


def _compiled_scan(
    kernel, pa: np.ndarray, pb: np.ndarray, self_mode: bool
) -> tuple[list[tuple], list[tuple]]:
    """_crossing_hits and, unless in self mode, _contact_sites, run by
    the loaded refine.c in one scan; a scan whose output outgrows the
    buffers runs again into buffers of its size."""
    counts = (ctypes.c_long * 2)()
    caps = (SCAN_ROWS, SCAN_ROWS)
    while True:
        hits, sites = np.empty(caps[0], _HIT), np.empty(caps[1], _SITE)
        if kernel.intersect_scan(
            pa, len(pa), pb, len(pb), self_mode, CONTACT_TOL,
            hits, caps[0], sites, caps[1], counts,
        ):
            raise SurfaceError("the intersection scan ran out of memory")
        if counts[0] <= caps[0] and counts[1] <= caps[1]:
            return hits[: counts[0]].tolist(), sorted(sites[: counts[1]].tolist())
        caps = tuple(counts)


def intersect_projected(a: Polyline, b: Polyline) -> IntersectionResult:
    """Transversal crossings of two polylines, with their parameters on
    a, plus flagged contact sites.

    A closest approach below CONTACT_TOL with no crossing nearby, or
    more than 3 crossings inside a 5-vertex window, marks a site for
    refinement.  With a is b the polyline is tested against itself
    (adjacent segments skipped).  Segment pairs come from a sort and
    sweep of their boxes, so the memory grows with the curves' lengths
    and the pairs that meet, not with their product.  The scan for
    crossing segments and contact sites runs compiled (refine.c's
    intersect_scan, one call per pair of curves) where a C compiler is
    found, and in numpy (_crossing_hits, _contact_sites) otherwise, with
    the same bits; the dedup, grouping and site filter below take
    either's rows.
    """
    self_mode = a is b
    own = 2 if self_mode else 1  # the passes of a crossing that lie on a
    pa, pb = a.points, b.points
    kernel = _load_kernel()
    if kernel:
        hits, sites = _compiled_scan(kernel, pa, pb, self_mode)
    else:
        hits = _crossing_hits(pa, pb, self_mode)
        sites = [] if self_mode else _contact_sites(pa, pb)

    # the first of crossings within CROSSING_DEDUP_TOL of each other wins.
    # Kept ones are filed by cells of twice that side (spatial hashing,
    # Teschner et al., VMV 2003): two floats that close are equal or under
    # about 9e6, so their cells are exact integers at most 1 apart
    side = 2.0 * CROSSING_DEDUP_TOL
    cells: dict[tuple[float, float], list[tuple[float, float]]] = {}
    crossings: list[Crossing] = []
    params: list[float] = []
    for i, j, t, s, x, y in hits:
        kx, ky = x // side, y // side
        if any(
            math.hypot(x - cx, y - cy) <= CROSSING_DEDUP_TOL
            for dx, dy in product((-1.0, 0.0, 1.0), repeat=2)
            for cx, cy in cells.get((kx + dx, ky + dy), ())
        ):
            continue
        cells.setdefault((kx, ky), []).append((x, y))
        crossings.append(Crossing((x, y), i, j))
        params.extend((i + t, j + s)[:own])

    ias = [c.ia for c in crossings]

    def near(i: int) -> range:
        """The crossings within 5 vertices of i: ia never falls along them."""
        return range(bisect_left(ias, i - 5), bisect_right(ias, i + 5))

    contacts: list[Crossing] = []
    # crossings bunched along a few vertices signal a tangential wiggle
    used = set()
    for k, c in enumerate(crossings):
        if k in used:
            continue
        group = [m for m in near(c.ia) if m not in used]
        if len(group) > 3:
            used.update(group)
            contacts.append(crossings[group[len(group) // 2]])
    if not self_mode:
        # every local minimum of the vertex-to-segment distance below
        # CONTACT_TOL is a candidate tangency (curves can brush the
        # outline more than once, so the single global closest approach
        # is not enough); kept sites are filed by their vertex
        kept: dict[int, list[int]] = {}
        for _, i, j, t in sites:
            if any(abs(j - kj) < 6 for k in range(i - 5, i + 6) for kj in kept.get(k, ())):
                continue
            if any(abs(crossings[m].ib - j) <= 5 for m in near(i)):
                continue
            kept.setdefault(i, []).append(j)
            (px, py), (qx, qy), (bx, by) = pa[i].tolist(), *pb[j : j + 2].tolist()
            fx, fy = qx + t * (bx - qx), qy + t * (by - qy)
            contacts.append(Crossing((0.5 * (px + fx), 0.5 * (py + fy)), i, j))
    return IntersectionResult(tuple(crossings), tuple(contacts), tuple(params))


@dataclass(frozen=True)
class RefinedContact:
    point: tuple[float, float]
    refined: bool  # False: tangential site left at the closest-approach midpoint


def _piece(x0, y0, x1, y1, x2, y2, x3, y3) -> list:
    """A cubic as a flat list: control coordinates, box, diagonal, halves.

    The box p[8:12] = (xmin, ymin, xmax, ymax) is that of the control
    points, which holds the curve, taken once when the piece is made;
    each extreme is kept left to right with a strict comparison, as min
    and max keep it, so even a signed zero comes out the same (and
    faster than calling them).
    p[12] is the box diagonal, and the slots p[13:15] hold the piece's
    _halves once _best_first has split it.
    """
    xmin = x1 if x1 < x0 else x0
    xmin = x2 if x2 < xmin else xmin
    xmin = x3 if x3 < xmin else xmin
    ymin = y1 if y1 < y0 else y0
    ymin = y2 if y2 < ymin else ymin
    ymin = y3 if y3 < ymin else ymin
    xmax = x1 if x1 > x0 else x0
    xmax = x2 if x2 > xmax else xmax
    xmax = x3 if x3 > xmax else xmax
    ymax = y1 if y1 > y0 else y0
    ymax = y2 if y2 > ymax else ymax
    ymax = y3 if y3 > ymax else ymax
    return [
        x0, y0, x1, y1, x2, y2, x3, y3,
        xmin, ymin, xmax, ymax, math.hypot(xmax - xmin, ymax - ymin), None, None,
    ]


def _halves(p: list) -> tuple[list, list]:
    """The pieces of p split at t = 1/2, each carrying its own box.

    These are geom.split(row, 0.5)'s float operations, the one-sided
    a + (b - a) * t in the same order, so every control coordinate is
    bit-identical to split's.
    """
    x0, y0, x1, y1, x2, y2, x3, y3 = p[:8]
    qx0 = x0 + (x1 - x0) * 0.5
    qy0 = y0 + (y1 - y0) * 0.5
    qx1 = x1 + (x2 - x1) * 0.5
    qy1 = y1 + (y2 - y1) * 0.5
    qx2 = x2 + (x3 - x2) * 0.5
    qy2 = y2 + (y3 - y2) * 0.5
    rx0 = qx0 + (qx1 - qx0) * 0.5
    ry0 = qy0 + (qy1 - qy0) * 0.5
    rx1 = qx1 + (qx2 - qx1) * 0.5
    ry1 = qy1 + (qy2 - qy1) * 0.5
    sx = rx0 + (rx1 - rx0) * 0.5
    sy = ry0 + (ry1 - ry0) * 0.5
    return (
        _piece(x0, y0, qx0, qy0, rx0, ry0, sx, sy),
        _piece(sx, sy, rx1, ry1, qx2, qy2, x3, y3),
    )


def _window_pieces(pts: np.ndarray):
    """Flat pieces of the open Oshima fit through a window's rows pts;
    None where the window is too short or too degenerate to fit."""
    if len(pts) < 2:
        return None
    try:
        sp = build_spline(pts, method=SplineMethod.OSHIMA, closed=False)
    except DegenerateGeometryError:
        # a noise outline zig-zagging between points 1e-15 apart
        return None
    # a row (p0, c0, c1, p1) read flat is _piece's argument order
    return list(starmap(_piece, sp.ctrl.reshape(-1, 8).tolist()))


def _in_boxes(x: float, y: float, *fits: list) -> bool:
    """Whether (x, y) lies in the box around each fit's pieces."""
    for pieces in fits:
        if not (
            min(p[8] for p in pieces) <= x <= max(p[10] for p in pieces)
            and min(p[9] for p in pieces) <= y <= max(p[11] for p in pieces)
        ):
            return False
    return True


def _best_first(
    pieces_a: list, pieces_b: list, sx: float, sy: float, tol: float
) -> tuple[float, list, list] | None:
    """The first pair of leaves, pieces under tol across, to pop within
    REFINE_POPS pops, with its gap; None if none does.

    Pairs pop by the gap between their boxes, then by the seed (sx, sy)'s
    distance to the overlap of their boxes, then first pushed first; of
    a popped pair the piece with the longer box diagonal is split.
    refine.c runs these float operations in this order.
    """
    tick = count()
    heap = []
    pairs = product(pieces_a, pieces_b)
    for _ in range(REFINE_POPS):
        for pa, pb in pairs:
            # the boxes' gap: max(dx, ex, 0.0) on each axis, kept as in _piece
            dx, ex = pa[8] - pb[10], pb[8] - pa[10]
            dy, ey = pa[9] - pb[11], pb[9] - pa[11]
            dx = ex if ex > dx else dx
            dy = ey if ey > dy else dy
            dx = 0.0 if 0.0 > dx else dx
            dy = 0.0 if 0.0 > dy else dy
            # the seed's distance to the boxes' overlap: no crossing the
            # pair holds lies nearer the seed
            lo = pa[8] if pa[8] > pb[8] else pb[8]
            hi = pa[10] if pa[10] < pb[10] else pb[10]
            fx = lo - sx if lo - sx > sx - hi else sx - hi
            lo = pa[9] if pa[9] > pb[9] else pb[9]
            hi = pa[11] if pa[11] < pb[11] else pb[11]
            fy = lo - sy if lo - sy > sy - hi else sy - hi
            fx = 0.0 if 0.0 > fx else fx
            fy = 0.0 if 0.0 > fy else fy
            heapq.heappush(
                heap, (math.hypot(dx, dy), math.hypot(fx, fy), next(tick), pa, pb)
            )
        if not heap:
            break
        gap, _, _, pa, pb = heapq.heappop(heap)
        if pa[12] < tol and pb[12] < tol:
            return gap, pa, pb
        if pa[12] >= pb[12]:
            if pa[13] is None:
                pa[13:15] = _halves(pa)
            pairs = ((pa[13], pb), (pa[14], pb))
        else:
            if pb[13] is None:
                pb[13:15] = _halves(pb)
            pairs = ((pa, pb[13]), (pa, pb[14]))
    return None


_kernel_lock = threading.Lock()
_kernel = None  # refine.c once loaded; False where it cannot be built


def _load_kernel():
    """refine.c compiled and loaded on first use, else False.

    The first caller builds it, in a private directory removed once the
    library is loaded; the rest of the process uses it, or, where there
    is no C compiler or the build or load fails, the Python loop.
    """
    global _kernel
    with _kernel_lock:
        if _kernel is None:
            _kernel = _build_kernel()
    return _kernel


def _build_kernel():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refine.c")
    try:
        with tempfile.TemporaryDirectory() as tmp:
            lib = os.path.join(tmp, "refine.so")
            # math.hypot's subnormal branch changed in CPython 3.12
            by_max = f"-DHYPOT_DIVIDES_BY_MAX={int(sys.version_info < (3, 12))}"
            subprocess.run(
                ["cc", "-O2", "-ffp-contract=off", by_max, "-shared", "-fPIC",
                 "-o", lib, src, "-lm"],
                stdin=subprocess.DEVNULL, capture_output=True, check=True, timeout=60,
            )
            dll = ctypes.CDLL(lib)
    except (OSError, subprocess.SubprocessError):
        return False
    rows = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    c_long, c_double = ctypes.c_long, ctypes.c_double
    doubles, longs = ctypes.POINTER(c_double), ctypes.POINTER(c_long)
    dll.refine_contact.argtypes = [
        rows, c_long, c_long, rows, c_long, c_long, c_long, c_double, c_long, doubles, longs,
    ]
    dll.oshima_fit.argtypes = [rows, c_long, rows]
    dll.py_hypot.argtypes = [c_double, c_double]
    dll.py_hypot.restype = c_double
    dll.program_run.argtypes = [ctypes.POINTER(_Program), rows, rows, rows]
    dll.program_run.restype = ctypes.c_int
    dll.occlusion_covers.argtypes = [
        ctypes.POINTER(_Tester), c_double, c_double, doubles, longs,
    ]
    dll.occlusion_covers.restype = ctypes.c_int
    dll.intersect_scan.argtypes = [
        rows, c_long, rows, c_long, ctypes.c_int, c_double,
        np.ctypeslib.ndpointer(_HIT, flags="C_CONTIGUOUS"), c_long,
        np.ctypeslib.ndpointer(_SITE, flags="C_CONTIGUOUS"), c_long, longs,
    ]
    dll.intersect_scan.restype = ctypes.c_int
    return dll


# refine.c's numbers for the operations of a lowered program; 0 and 1
# are a variable and a constant
_OPCODES = {
    op: code for code, op in enumerate(
        ("neg", "abs", "sqrt", "sin", "cos", "tan", "exp", "log", "+", "-", "*", "/", "^"),
        start=2,
    )
}


class _Program(ctypes.Structure):
    """A compiled callable's program (its `ops` and `outputs`) as
    refine.c's Program; it holds the arrays its pointers point into."""

    _fields_ = [
        ("n", ctypes.c_long), ("code", ctypes.c_void_p), ("arg", ctypes.c_void_p),
        ("val", ctypes.c_void_p), ("nout", ctypes.c_long), ("out", ctypes.c_void_p),
    ]

    def __init__(self, call: Callable, params: tuple[str, ...]):
        n = len(call.ops)
        code = np.empty(n, dtype=_LONG)
        arg = np.zeros((n, 2), dtype=_LONG)
        val = np.zeros(n)
        for k, (op, *args) in enumerate(call.ops):
            if args:
                code[k] = _OPCODES[op]
                arg[k, : len(args)] = args
            elif op.startswith("_v_"):
                code[k], arg[k, 0] = 0, params.index(op[3:])
            else:
                code[k], val[k] = 1, float(op)
        out = np.array(call.outputs, dtype=_LONG)
        self._arrays = (code, arg, val, out)
        super().__init__(
            n, code.ctypes.data, arg.ctypes.data, val.ctypes.data, len(out), out.ctypes.data
        )


class _Tester(ctypes.Structure):
    """An OcclusionTester's fixed terms as refine.c's Tester: its programs,
    its defined seed cells' boxes and Newton starts, and its bounds; it
    holds the arrays its pointers point into."""

    _fields_ = [
        ("f", ctypes.POINTER(_Program)), ("df", ctypes.POINTER(_Program)),
        ("n", ctypes.c_long), ("box", ctypes.c_void_p), ("start", ctypes.c_void_p),
        ("lim", ctypes.c_void_p), ("range", ctypes.c_void_p),
        ("tol", ctypes.c_double), ("max_iter", ctypes.c_long),
    ]

    def __init__(self, programs: tuple[_Program, _Program], box: np.ndarray,
                 start: np.ndarray, lim: np.ndarray, bounds: np.ndarray, tol: float):
        self._arrays = (programs, box, start, lim, bounds)
        super().__init__(
            *map(ctypes.pointer, programs), len(box), box.ctypes.data, start.ctypes.data,
            lim.ctypes.data, bounds.ctypes.data, tol, NEWTON_MAX_ITER,
        )


def refine_contact(
    a: Polyline,
    b: Polyline,
    center_a: int,
    center_b: int,
    window: int = REFINE_WINDOW,
    tol: float = REFINE_TOL,
) -> RefinedContact:
    """Where local spline fits around a contact site cross or come closest.

    Open splines through 2*window+1 vertices around each center are
    searched best first on flat pieces (_piece, _halves): pairs pop by
    the gap between their boxes, then by the site's distance to the
    overlap of their boxes, and the piece with the longer box diagonal
    is split until both diagonals are under tol.  Every ancestor of an
    overlapping pair overlaps too, and its overlap holds the pair's, so
    where the fits cross, the search ends at the overlapping leaves
    nearest the site before it pops any pair with a gap.  The answer is
    then where the lines through the two leaves' chords meet, if that
    is within 10*tol of the leaves and inside both fits' boxes: the
    fits' crossing to the chords' accuracy, even when it lies in a
    neighbouring leaf.  Otherwise, as where the fits only graze or the
    near-parallel chords of overlapping fits meet past a fit's end, it
    is the winning pair's box midpoint.
    A winning gap over a percent of the window size is no contact, and
    the site is returned unrefined, as it is when REFINE_POPS pops find
    nothing.  A piece meets many partners as the search goes on, so it
    keeps its halves and is split once.
    Where a C compiler is found, all of this runs compiled, in one call
    of refine.c, and in Python otherwise (_window_pieces, _best_first),
    with the same bits.
    """
    kernel = _load_kernel()
    if kernel:
        point, made = (ctypes.c_double * 2)(), ctypes.c_long()
        found = kernel.refine_contact(
            a.points, len(a.points), center_a, b.points, len(b.points), center_b,
            window, tol, REFINE_POPS, point, made,
        )
        if found == -1:
            raise SurfaceError("refine_contact's search ran out of memory")
        if found >= 0:  # else a center lies outside its polyline or window < 0
            return RefinedContact(tuple(point), found == 1)
    (ax, ay), (bx, by) = a.points[center_a].tolist(), b.points[center_b].tolist()
    sx, sy = (ax + bx) * 0.5, (ay + by) * 0.5
    seed = (sx, sy)
    win_a = a.points[max(0, center_a - window) : center_a + window + 1]
    win_b = b.points[max(0, center_b - window) : center_b + window + 1]
    pieces_a = _window_pieces(win_a)
    pieces_b = _window_pieces(win_b)
    if pieces_a is None or pieces_b is None:
        return RefinedContact(seed, False)

    # overlapping windows (a curve drawn twice, grazing duplicates)
    # never separate under subdivision; bail before burning the budget
    if (_feet(win_a[:, None], win_b[:-1], win_b[1:])[1].min(axis=1) <= 10.0 * tol).all():
        return RefinedContact(seed, False)

    found = _best_first(pieces_a, pieces_b, sx, sy, tol)
    span = 1e-12
    for pa in pieces_a:
        span = max(span, pa[10] - pa[8], pa[11] - pa[9])
    if found is None or found[0] > 0.01 * (1.0 + span):
        return RefinedContact(seed, False)
    gap, pa, pb = found
    mx = 0.25 * (pa[8] + pa[10] + pb[8] + pb[10])
    my = 0.25 * (pa[9] + pa[11] + pb[9] + pb[11])
    if gap == 0.0:
        # where the lines through the chords meet (nowhere if parallel)
        px, py, qx, qy = pa[0], pa[1], pb[0], pb[1]
        rx, ry = pa[6] - px, pa[7] - py
        rows = np.array([[px, py], [rx, ry], [qx, qy], [pb[6] - qx, pb[7] - qy]])
        t = float(_meet(*rows[:, None])[0][0])
        x, y = px + t * rx, py + t * ry
        if math.hypot(x - mx, y - my) <= 10.0 * tol and _in_boxes(x, y, pieces_a, pieces_b):
            return RefinedContact((x, y), True)
    return RefinedContact((mx, my), True)


# ---------------------------------------------------------------------------
# visibility


@dataclass(frozen=True)
class VisibilityTaggedCurve:
    """A projected curve split at cut parameters into tagged intervals.

    Cut parameters are vertex index + fraction along the polyline; the
    hidden tuple has one flag per interval (len(cuts) + 1).
    newton_failed is set when some interval was left visible because
    its occlusion solves all failed.
    """

    polyline: Polyline
    cuts: tuple[float, ...]
    hidden: tuple[bool, ...]
    label: str = ""
    newton_failed: bool = False

    def intervals(self) -> list[tuple[Polyline, bool]]:
        bounds = [0.0, *self.cuts, float(len(self.polyline.points) - 1)]
        subs = (_sub_polyline(self.polyline, *pair) for pair in pairwise(bounds))
        return [(sub, flag) for sub, flag in zip(subs, self.hidden) if sub is not None]


def _split_param(poly: Polyline, param: float) -> tuple[int, float]:
    """A cut parameter as (segment index, fraction along that segment)."""
    i = min(int(param), len(poly.points) - 2)
    return i, param - i


def _sub_polyline(poly: Polyline, p0: float, p1: float) -> Polyline | None:
    if p1 - p0 <= 1e-12:
        return None
    xy = poly.points
    (i, s), (j, t) = _split_param(poly, p0), _split_param(poly, p1)
    # the cut points, a + (b - a) * t on the segments they cut
    ends = xy[[i, j]] + (xy[[i + 1, j + 1]] - xy[[i, j]]) * [[s], [t]]
    pts = drop_repeats(np.vstack((ends[0], xy[int(p0) + 1 : int(p1) + 1], ends[1])))
    return Polyline(pts) if len(pts) >= 2 else None


def _locate_params(
    poly: Polyline, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The nearest param on the polyline of each of the points (n, 2),
    and its distance: the first nearest segment's foot, found in blocks
    of about FEET_BLOCK point-segment pairs to bound the temporaries."""
    size = max(1, FEET_BLOCK // len(poly.points))
    found = []
    for block in np.split(points, range(size, len(points), size)):
        t, dist = _feet(block[:, None], poly.points[:-1], poly.points[1:])
        i, rows = np.argmin(dist, axis=1), np.arange(len(block))
        found.append((i + t[rows, i], dist[rows, i]))
    return tuple(map(np.concatenate, zip(*found)))


class OcclusionTester:
    """Finds surface points covering a screen position by damped Newton
    from the midpoint of each seed cell whose padded box holds it.

    One `covers` call runs compiled in one call of refine.c where a C
    compiler is found (the box test, the solves with the surface's (X,
    Y) and partials programs interpreted with the scalar call's
    operations, and the roots' range check, clamp and dedup), and in
    Python (_newton) otherwise, with the same bits."""

    def __init__(self, s: ParametricSurface, proj: Projection):
        self.surface = s
        self.proj = proj
        self.fxy = compile_many(_projected_exprs(s, proj), ("u", "v"))
        self.partials = compile_many(_projected_partials(s, proj), ("u", "v"))

        us = steps(*s.u_range, OCCLUSION_SEEDS)
        vs = steps(*s.v_range, OCCLUSION_SEEDS)
        gx, gy = self.fxy.grid(us, vs)
        gy[np.isnan(gx)] = np.nan  # a node is undefined when either is
        cx = np.stack([gx[:-1, :-1], gx[1:, :-1], gx[1:, 1:], gx[:-1, 1:]])
        cy = np.stack([gy[:-1, :-1], gy[1:, :-1], gy[1:, 1:], gy[:-1, 1:]])
        self.cell_ok = ~np.isnan(cx).any(axis=0) & ~np.isnan(cy).any(axis=0)
        # fmin/fmax skip NaN corners like nanmin/nanmax, and give NaN for
        # an all-NaN cell without warning about it
        self.xmin = np.fmin.reduce(cx, axis=0)
        self.xmax = np.fmax.reduce(cx, axis=0)
        self.ymin = np.fmin.reduce(cy, axis=0)
        self.ymax = np.fmax.reduce(cy, axis=0)
        # the projected cell can poke out of its corner box; inflate
        finite_x = gx[np.isfinite(gx)]
        finite_y = gy[np.isfinite(gy)]
        if finite_y.size == 0:  # y is NaN wherever x is
            raise SurfaceError("surface projects nowhere")
        span = max(
            float(finite_x.max() - finite_x.min()),
            float(finite_y.max() - finite_y.min()),
            1e-9,
        )
        self.scene_scale = span
        pad = 0.75 * (self.xmax - self.xmin + self.ymax - self.ymin) + 1e-9
        self.xmin -= pad
        self.xmax += pad
        self.ymin -= pad
        self.ymax += pad
        # each cell's midpoint, its Newton start, in np.argwhere's order
        with np.errstate(over="ignore"):  # as float sums overflow, to inf
            mid_u, mid_v = (0.5 * (w[:-1] + w[1:]) for w in map(np.array, (us, vs)))
        self.starts = np.stack(np.meshgrid(mid_u, mid_v, indexing="ij"), axis=-1)
        # the bounds a Newton step must stay within, and its tolerance
        ulo, uhi = s.u_range
        vlo, vhi = s.v_range
        mu = 0.05 * (uhi - ulo)
        mv = 0.05 * (vhi - vlo)
        self.limits = np.array([ulo - mu, uhi + mu, vlo - mv, vhi + mv])
        self.tol = NEWTON_TOL * (1.0 + self.scene_scale)
        # covers keeps a root up to 1e-9 of each range's span past its ends
        eps_u = 1e-9 * (uhi - ulo)
        eps_v = 1e-9 * (vhi - vlo)
        self.root_bounds = (ulo - eps_u, uhi + eps_u, vlo - eps_v, vhi + eps_v)
        ok = self.cell_ok
        box = np.column_stack([w[ok] for w in (self.xmin, self.xmax, self.ymin, self.ymax)])
        programs = tuple(_Program(f, ("u", "v")) for f in (self.fxy, self.partials))
        bounds = np.array([ulo, uhi, vlo, vhi, *self.root_bounds])
        self._fixed = _Tester(programs, box, self.starts[ok], self.limits, bounds, self.tol)
        self._roots = ctypes.c_double * (2 * len(box))  # room for a root per cell

    def _newton(
        self, q: tuple[float, float], u: float, v: float
    ) -> tuple[float, float] | None:
        u_lo, u_hi, v_lo, v_hi = self.limits.tolist()
        tol = self.tol
        qx, qy = q
        try:
            x, y = self.fxy(u, v)
        except DomainError:
            return None
        gx, gy = x - qx, y - qy
        err = math.hypot(gx, gy)
        for _ in range(NEWTON_MAX_ITER):
            if err <= tol:
                return (u, v)
            try:
                a, b, c, d = self.partials(u, v)
            except DomainError:
                return None
            det = a * d - b * c
            if abs(det) < 1e-300:
                return None
            du = (d * gx - b * gy) / det
            dv = (a * gy - c * gx) / det
            lam = 1.0
            stepped = False
            while lam >= 1.0 / 64.0:
                nu = u - lam * du
                nv = v - lam * dv
                if u_lo <= nu <= u_hi and v_lo <= nv <= v_hi:
                    try:
                        nx, ny = self.fxy(nu, nv)
                        ngx, ngy = nx - qx, ny - qy
                    except DomainError:
                        ngx = ngy = math.inf
                    nerr = math.hypot(ngx, ngy)
                    if nerr < err:
                        u, v, gx, gy, err = nu, nv, ngx, ngy, nerr
                        stepped = True
                        break
                lam *= 0.5
            if not stepped:
                return None
        return (u, v) if err <= tol else None

    def covers(
        self, q: tuple[float, float]
    ) -> tuple[list[tuple[float, float]], int]:
        """All distinct (u, v) with projection q = (x, y), and the
        candidate count: the roots of the solves from the seed cells
        whose boxes hold q, in the cells' order, each inside
        self.root_bounds clamped to the parameter ranges, and dropped
        within 1e-7 of one kept before.  One call of refine.c does it
        where it is loaded, else _newton from each cell."""
        qx, qy = q
        kernel = _load_kernel()
        if kernel:
            found, counts = self._roots(), (ctypes.c_long * 2)()
            if kernel.occlusion_covers(ctypes.byref(self._fixed), qx, qy, found, counts):
                raise SurfaceError("the occlusion solves ran out of memory")
            flat = found[: 2 * counts[0]]
            return list(zip(flat[0::2], flat[1::2])), counts[1]
        mask = (
            self.cell_ok
            & (self.xmin <= qx)
            & (qx <= self.xmax)
            & (self.ymin <= qy)
            & (qy <= self.ymax)
        )
        starts = self.starts[mask]
        roots: list[tuple[float, float]] = []
        ulo, uhi = self.surface.u_range
        vlo, vhi = self.surface.v_range
        u_lo, u_hi, v_lo, v_hi = self.root_bounds
        # floats, not numpy scalars that warn on overflow
        for start in starts.tolist():
            root = self._newton(q, *start)
            if root is None:
                continue
            u, v = root
            if not (u_lo <= u <= u_hi and v_lo <= v <= v_hi):
                continue
            u = min(max(u, ulo), uhi)
            v = min(max(v, vlo), vhi)
            if any(math.hypot(u - ru, v - rv) <= 1e-7 for ru, rv in roots):
                continue
            roots.append((u, v))
        return roots, len(starts)


def classify_visibility(
    poly: Polyline, label: str, params: Sequence[float], tester: OcclusionTester
) -> VisibilityTaggedCurve:
    """Split poly, a `project_curve` result of a curve seen through
    tester.proj, at the cut parameters params (vertex index + fraction,
    in any order), and tag each interval against tester.surface; label
    names the result.

    Visibility is decided at the interval midpoint: the interval is
    hidden when some surface point projects there with strictly larger
    depth (beyond a small epsilon).  Points within parameter distance
    1e-4 of the curve's own preimage never count as occluders.  When
    the Newton solves all fail for a curve on the surface, the interval
    stays visible and the result's newton_failed is set.
    """
    # arc length at each vertex: a cut within 10*REFINE_TOL along the
    # curve of an end or of the last kept cut would leave a stub interval
    gaps = map(math.hypot, *np.diff(poly.points, axis=0).T.tolist())
    arc = [0.0, *accumulate(gaps)]
    cleaned: list[float] = []
    last = 0.0
    for p in sorted(params):
        i, t = _split_param(poly, p)
        at = arc[i] + (arc[i + 1] - arc[i]) * t
        if min(at - last, arc[-1] - at) > 10.0 * REFINE_TOL:
            cleaned.append(p)
            last = at

    eps = OCCLUSION_EPS_FACTOR * tester.scene_scale
    bounds = [0.0, *cleaned, float(len(poly.points) - 1)]
    hidden: list[bool] = []
    trouble = False
    for lo, hi in pairwise(bounds):
        i, t = _split_param(poly, 0.5 * (lo + hi))
        # the midpoint's own (u, v) on a surface curve, else its 3D point
        rows = poly.space if poly.params is None else poly.params
        mid = tuple(a + (b - a) * t for a, b in zip(*rows[i : i + 2].tolist()))
        own_uv = None if poly.params is None else mid
        p3 = mid if own_uv is None else tester.surface.point(*mid)
        qx, qy, d = project(p3, tester.proj)
        roots, candidates = tester.covers((qx, qy))
        # a point on the surface is its own preimage, so finding no root
        # is a failed solve; a point off it (an axis) may have none
        trouble = trouble or (own_uv is not None and candidates > 0 and not roots)
        hidden.append(
            any(
                project(tester.surface.point(u, v), tester.proj)[2] > d + eps
                for u, v in roots
                if own_uv is None
                or math.hypot(u - own_uv[0], v - own_uv[1]) > SELF_OCCLUSION_UV_TOL
            )
        )
    return VisibilityTaggedCurve(poly, tuple(cleaned), tuple(hidden), label, trouble)


# ---------------------------------------------------------------------------
# scene assembly


@dataclass(frozen=True)
class SceneConfig:
    """Scene settings; `splinefig surface` reads each from a `.surf` key.

    wires_u, wires_v  iso-parameter wire values (keys `wires_u`, `wires_v`)
    grid              silhouette trace resolution (key `grid`)
    samples           points per drawn curve (key `samples`)
    hidden_style      "dashed" or "omit" for hidden intervals (key `hidden`)
    axes              draw the coordinate axes (key `axes`, on or off)
    """

    wires_u: tuple[float, ...] = ()
    wires_v: tuple[float, ...] = ()
    grid: int = 200
    samples: int = 100
    hidden_style: str = "dashed"  # or "omit"
    axes: bool = True

    def __post_init__(self):
        if self.hidden_style not in ("dashed", "omit"):
            raise SurfaceError(
                f"hidden style must be 'dashed' or 'omit', got {self.hidden_style!r}"
            )
        if self.samples < 1:
            raise SurfaceError(f"samples must be at least 1, got {self.samples!r}")


@dataclass(frozen=True)
class SceneReport:
    """What went into a scene, for inspection and tests."""

    silhouettes: tuple[VisibilityTaggedCurve, ...]
    boundaries: tuple[VisibilityTaggedCurve, ...]
    wires: tuple[VisibilityTaggedCurve, ...]
    extras: tuple[VisibilityTaggedCurve, ...]


def _axis_curves(s: ParametricSurface, samples: int) -> list[SpaceCurve]:
    # the surface's extent, from an 8 x 8 cell parameter grid
    u, v = np.meshgrid(steps(*s.u_range, 8), steps(*s.v_range, 8))
    xyz, _ = _on_surface(s, u.ravel(), v.ravel())
    if not len(xyz):
        raise SurfaceError("surface undefined everywhere")
    los, his = xyz.min(axis=0).tolist(), xyz.max(axis=0).tolist()
    curves = []
    for axis, name in enumerate("xyz"):
        span = max(his[axis] - los[axis], 1.0)
        lo = min(los[axis], 0.0) - 0.35 * span
        hi = max(his[axis], 0.0) + 0.35 * span
        coords = np.zeros((samples + 1, 3))
        coords[:, axis] = steps(lo, hi, samples)
        curves.append(SpaceCurve(coords, None, f"axis:{name}"))
    return curves


def build_surface_scene(
    s: ParametricSurface, proj: Projection, config: SceneConfig
) -> tuple[Scene, SceneReport]:
    """Assemble the hidden-line scene and report its tagged curves."""
    # in SceneReport's order; the scene draws boundaries first
    curves = {
        "silhouette": silhouette(s, proj, config.grid),
        "boundary": boundary_curves(s, samples=config.samples),
        "wire": wires(s, config.wires_u, config.wires_v, samples=config.samples),
        "extra": _axis_curves(s, config.samples) if config.axes else [],
    }
    projected: list[tuple[str, str, Polyline]] = []
    for role in ("boundary", "silhouette", "wire", "extra"):
        for curve in curves[role]:
            poly = project_curve(curve, proj)
            if poly is None:
                log.warning("dropping curve %r: degenerate projection", curve.label)
                continue
            projected.append((role, curve.label, poly))
    # the emitters refuse a coordinate fmt5 cannot write; refuse it before
    # the scene's work, which overflows and crawls at such sizes
    fmt5(max((float(np.abs(p.points).max()) for _, _, p in projected), default=0.0))
    outlines = [p for role, _, p in projected if role in ("boundary", "silhouette")]

    tester = OcclusionTester(s, proj)

    def work(item: tuple[str, str, Polyline]) -> VisibilityTaggedCurve:
        _, label, poly = item
        params: list[float] = []
        answers: list[tuple[float, float]] = []
        for op in outlines:
            res = intersect_projected(poly, op)
            params.extend(res.params)
            answers.extend(refine_contact(poly, op, c.ia, c.ib).point for c in res.contacts)
        # a contact answer is a point: poly is cut where it lies nearest,
        # if that is near enough
        located, dists = _locate_params(poly, np.array(answers, dtype=float).reshape(-1, 2))
        params.extend(located[dists <= 0.05 * (1.0 + tester.scene_scale)].tolist())
        return classify_visibility(poly, label, params, tester)

    with ThreadPoolExecutor() as pool:
        tagged = list(pool.map(work, projected))

    items: list[DrawItem] = []
    for tc in tagged:
        # logged here, in curve order, not from the pool's threads
        if tc.newton_failed:
            log.warning(
                "newton occlusion solve failed for %r; leaving interval visible",
                tc.label,
            )
        drawn: list[DrawItem] = []
        for sub, hidden_flag in tc.intervals():
            if hidden_flag and config.hidden_style == "omit":
                continue
            style = Style.DASHED if hidden_flag else Style.SOLID
            drawn.append(DrawItem(sub, style=style))
        if drawn and tc.label.startswith("axis:"):
            # axis letter just past the positive end
            name = tc.label.split(":", 1)[1]
            ex, ey = tc.polyline.points[-1].tolist()
            drawn[-1] = replace(
                drawn[-1], label=Label(name, (ex + 0.15, ey + 0.15))
            )
        items.extend(drawn)
    scene = scene_from_items(items)
    roles = [role for role, _, _ in projected]
    report = SceneReport(
        *(tuple(tc for r, tc in zip(roles, tagged) if r == role) for role in curves)
    )
    return scene, report


# ---------------------------------------------------------------------------
# the contact showcase: a paraboloid silhouette brushed by the y axis


@dataclass(frozen=True, eq=False)
class ContactDemoResult:
    refined: tuple[float, float]
    refined_ok: bool
    analytic: tuple[float, float]
    analytic_drawn: bool  # on the drawn axis, |y| <= 4, and on the silhouette
    cluster: np.ndarray  # (k, 2) midpoints of the vertex pairs within 2 dmin
    cluster_spread: float
    crossings: int


def paraboloid_surface() -> ParametricSurface:
    return ParametricSurface.from_strings(
        "u*cos(v)", "u*sin(v)", "4-u^2", (0.0, 2.0), (0.0, 2.0 * math.pi)
    )


def contact_demo(
    theta: float = math.radians(60.0),
    phi: float = math.radians(25.0),
    grid: int = 200,
    samples: int = 100,
    window: int = REFINE_WINDOW,
    tol: float = REFINE_TOL,
) -> ContactDemoResult:
    """Refine the y-axis / silhouette crossing of the standard paraboloid.

    The projected silhouette of z = 4 - u^2 is the parabola
    Y = (T/2) sin(phi) + (4 - T^2/4) cos(phi) - cos(phi) X^2 with
    T = tan(phi), and the projected y axis is Y = -tan(theta) sin(phi) X,
    so the true crossing solves a quadratic; that closed form is the
    reference the refined point is compared against.  A root past the
    drawn stretch of the axis, y in [-4, 4], is no reference: then
    `analytic_drawn` is false.
    """
    s = paraboloid_surface()
    proj = Projection(theta, phi)
    sil = silhouette(s, proj, grid)
    if not sil:
        raise SurfaceError("no silhouette under this view")
    sil_poly = project_curve(max(sil, key=lambda c: len(c.xyz)), proj)

    axis = np.zeros((samples + 1, 3))
    axis[:, 1] = steps(-4.0, 4.0, samples)
    axis_poly = project_curve(SpaceCurve(axis, None, "axis:y"), proj)

    res = intersect_projected(axis_poly, sil_poly)

    # the closest vertex pair (the first in row order on a tie), and the
    # raw vertex-pair cluster around it: this is what the crossing looks
    # like before refinement
    pa = axis_poly.points
    pb = sil_poly.points

    def near(r: float) -> tuple[np.ndarray, ...]:
        """The vertex pairs within r of each other, in row order, and
        their squared distances."""
        found = []
        for _, _, i, j in _pair_blocks(pa - r, pa + r, pb, pb):
            d2 = ((pa[i] - pb[j]) ** 2).sum(axis=1)
            keep = d2 <= r * r
            found.append((i[keep], j[keep], d2[keep]))
        return tuple(map(np.concatenate, zip(*found)))

    r = CONTACT_TOL
    while not len(d2 := near(r)[2]):
        r *= 2.0
    # dmin is at most the closest pair found so far, so every pair within
    # the cluster's 2 dmin lies well within this radius
    i, j, d2 = near(2.0 * max(2.0 * math.sqrt(float(d2.min())), 1e-12))
    k = int(np.argmin(d2))
    dmin = math.sqrt(float(d2[k]))
    thresh = max(2.0 * dmin, 1e-12)
    close = np.sqrt(d2) <= thresh
    cluster = 0.5 * (pa[i[close]] + pb[j[close]])
    i, j = int(i[k]), int(j[k])

    rc = refine_contact(axis_poly, sil_poly, i, j, window=window, tol=tol)

    t_phi = math.tan(phi)
    c0 = (t_phi / 2.0) * math.sin(phi) + (4.0 - t_phi * t_phi / 4.0) * math.cos(phi)
    slope = -math.tan(theta) * math.sin(phi)
    # equating the two: cos(phi) X^2 + slope X - c0 = 0
    a_q = math.cos(phi)
    disc = slope * slope + 4.0 * a_q * c0
    x_limit = math.sqrt(max(4.0 - t_phi * t_phi / 4.0, 0.0))
    # stable form (Higham, "Accuracy and Stability", 1.8): the root that
    # would cancel comes from the product of the roots, -c0 / a_q
    q = -0.5 * (slope + math.copysign(math.sqrt(disc), slope))
    roots = [q / a_q, -c0 / q]
    on_sil = [x for x in roots if abs(x) <= x_limit]
    # the axis point (0, y, 0) projects to y * (cos(theta), -sin(theta) sin(phi))
    st, ct, sf, _ = proj.trig
    reach = 4.0 * math.hypot(ct, st * sf)
    drawn = [x for x in on_sil if math.hypot(x, slope * x) <= reach]
    xr = min(drawn or on_sil or roots, key=lambda x: abs(x - rc.point[0]))
    analytic = (xr, slope * xr)

    return ContactDemoResult(
        rc.point, rc.refined, analytic, bool(drawn), cluster, diameter(cluster),
        len(res.crossings),
    )
