"""Hidden-line wireframe scenes of parametric surfaces.

A surface (x(u,v), y(u,v), z(u,v)) is viewed under an orthographic
camera with azimuth theta and elevation phi:

    X     = -x sin(theta) + y cos(theta)
    Y     = -x cos(theta) sin(phi) - y sin(theta) sin(phi) + z cos(phi)
    depth =  x cos(theta) cos(phi) + y sin(theta) cos(phi) + z sin(phi)

Larger depth means nearer the eye.  The drawing pipeline:

 1. collect the curves to draw: parameter-rectangle boundaries, the
    silhouette (zero set of the projected Jacobian J(u,v), traced with
    the implicit machinery), iso-parameter wires, and extras (axes);
 2. intersect each projected curve with the projected outline curves,
    refining near-tangential contacts with spline windows;
 3. cut the curves at those points and decide each interval's
    visibility by a depth test at its midpoint (a damped Newton solve
    finds every surface point covering the midpoint);
 4. emit visible intervals solid and hidden ones dashed (or drop them).

Everything is deterministic; the per-curve work items are independent
and run through a thread pool.
"""

from __future__ import annotations

import heapq
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, product
from typing import Callable, Iterable, Sequence

import numpy as np

from .expr import (
    BinOp,
    Const,
    DomainError,
    ExprNode,
    compile_fn,
    diff,
    free_vars,
    parse,
    steps,
)
from .geom import (
    Point2,
    Point3,
    Polyline,
    _lerp,
    closest_approach,
    drop_repeats,
)
from .implicit import TraceConfig, trace_zero_set
from .render import DrawItem, Label, Scene, Style, fmt5, scene_from_items
from .spline import SplineMethod, build_spline

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


def project(p: Point3, proj: Projection) -> tuple[Point2, float]:
    """Screen position and depth (larger depth = nearer the eye)."""
    st, ct, sf, cf = proj.trig
    sx = -p.x * st + p.y * ct
    sy = -p.x * ct * sf - p.y * st * sf + p.z * cf
    d = p.x * ct * cf + p.y * st * cf + p.z * sf
    return Point2(sx, sy), d


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
    def _fns(self) -> tuple[Callable, Callable, Callable]:
        return (
            compile_fn(self.x, ("u", "v")),
            compile_fn(self.y, ("u", "v")),
            compile_fn(self.z, ("u", "v")),
        )

    def point(self, u: float, v: float) -> Point3:
        fx, fy, fz = self._fns
        return Point3(fx(u, v), fy(u, v), fz(u, v))


@dataclass(frozen=True)
class SpaceCurve:
    """An ordered 3D vertex chain, optionally tagged with (u, v) preimages."""

    points: tuple[Point3, ...]
    uv: tuple[tuple[float, float], ...] | None = None
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.points) < 2:
            raise ValueError("a space curve needs at least 2 points")
        if self.uv is not None:
            object.__setattr__(self, "uv", tuple(self.uv))
            if len(self.uv) != len(self.points):
                raise ValueError("uv tag length mismatch")


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
    s: ParametricSurface, params: Iterable[tuple[float, float]]
) -> tuple[list[Point3], list[tuple[float, float]]]:
    """Surface points at the (u, v) params, skipping undefined ones."""
    pts: list[Point3] = []
    uv: list[tuple[float, float]] = []
    for u, v in params:
        try:
            pts.append(s.point(u, v))
        except DomainError:
            continue
        uv.append((u, v))
    return pts, uv


def silhouette(
    s: ParametricSurface,
    proj: Projection,
    cfg: TraceConfig | None = None,
) -> list[SpaceCurve]:
    """Fold curves of the projection: trace of J(u, v) = 0."""
    if cfg is None:
        cfg = TraceConfig(s.u_range, s.v_range)
    jac = _jacobian_fn(s, proj)
    curves: list[SpaceCurve] = []
    for poly in trace_zero_set(jac, cfg):
        pts, uv = _on_surface(s, ((p.x, p.y) for p in poly.points))
        if len(pts) < 2:
            continue
        curve = SpaceCurve(tuple(pts), tuple(uv), f"silhouette:{len(curves)}")
        # a fold along a degenerate parameter line (a cone apex, a pole)
        # maps to a single 3D point and is no curve at all
        if _collapsed(curve):
            continue
        curves.append(curve)
    return curves


def _edge_curve(
    s: ParametricSurface, fixed: str, value: float, samples: int
) -> SpaceCurve | None:
    lo, hi = s.v_range if fixed == "u" else s.u_range
    ts = steps(lo, hi, samples)
    pts, uv = _on_surface(
        s, ((value, t) if fixed == "u" else (t, value) for t in ts)
    )
    if len(pts) < 2:
        return None
    return SpaceCurve(tuple(pts), tuple(uv), f"boundary:{fixed}={value:g}")


def _same_point_tol(points: Sequence[Point3]) -> float:
    """Distance under which two of these points count as one."""
    scale = max(max(abs(p.x), abs(p.y), abs(p.z)) for p in points)
    return 1e-9 * max(1.0, scale)


def _collapsed(curve: SpaceCurve) -> bool:
    first = curve.points[0]
    tol = _same_point_tol(curve.points)
    return all(p.dist(first) <= tol for p in curve.points)


def _is_seam(a: SpaceCurve, b: SpaceCurve) -> bool:
    """Opposite edges that trace the same points (a closure seam).

    Either in step (surface of revolution) or reversed (a half-twist
    closure): both mean the edge is interior to the surface.
    """
    if len(a.points) != len(b.points):
        return False
    tol = _same_point_tol(a.points)
    if all(p.dist(q) <= tol for p, q in zip(a.points, b.points)):
        return True
    return all(
        p.dist(q) <= tol for p, q in zip(a.points, reversed(b.points))
    )


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
    """Project to screen coordinates, keeping 3D and uv annotations."""
    pts: list[Point2] = []
    space: list[Point3] = []
    uv: list[tuple[float, float]] = []
    for k, p in enumerate(curve.points):
        q, _ = project(p, proj)
        if pts and pts[-1].dist(q) == 0.0:
            continue
        pts.append(q)
        space.append(p)
        if curve.uv is not None:
            uv.append(curve.uv[k])
    if len(pts) < 2:
        return None
    return Polyline(
        tuple(pts), tuple(space), tuple(uv) if curve.uv is not None else None
    )


# ---------------------------------------------------------------------------
# projected-curve intersections and contact refinement


@dataclass(frozen=True)
class Crossing:
    point: Point2
    ia: int
    ib: int


@dataclass(frozen=True)
class ContactSite:
    """A near-tangential approach that deserves spline refinement."""

    point: Point2
    ia: int
    ib: int


@dataclass(frozen=True)
class IntersectionResult:
    crossings: tuple[Crossing, ...]
    contacts: tuple[ContactSite, ...]


def _pow2_scale(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Powers of two s with max(|x|, |y|) / s in [1, 2) (1/2 where both are 0)."""
    return np.ldexp(1.0, np.frexp(np.maximum(np.abs(x), np.abs(y)))[1] - 1)


def _segment_feet(
    points: np.ndarray, chain: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Feet of points (n, 2) on the segments of chain (m, 2).

    Returns the clamped segment fractions t and the distances to the
    feet, both of shape (n, m - 1); a zero-length segment has t = 0.
    Each segment, and each point's offset from its foot, is divided by
    a power of two (exactly) before it is squared, so no square under-
    or overflows; where none did unscaled, t and the distance are bit
    for bit those of the unscaled formulas.
    """
    bx, by = chain[:-1, 0], chain[:-1, 1]
    sx, sy = chain[1:, 0] - bx, chain[1:, 1] - by
    scale = _pow2_scale(sx, sy)
    ux, uy = sx / scale, sy / scale
    unit_len2 = ux * ux + uy * uy
    unit_len2[unit_len2 == 0.0] = 1.0
    px, py = points[:, :1], points[:, 1:]
    # (d . seg) / |seg|^2 = (d . u) / |u|^2 / scale; a ratio past the
    # double range lies far outside [0, 1] and clips like one inside
    with np.errstate(over="ignore"):
        t = ((px - bx) * ux + (py - by) * uy) / unit_len2 / scale
    t = np.clip(t, 0.0, 1.0)
    ox = px - (bx + t * sx)
    oy = py - (by + t * sy)
    r = _pow2_scale(ox, oy)
    ox, oy = ox / r, oy / r
    return t, np.sqrt(ox * ox + oy * oy) * r


def intersect_projected(
    a: Polyline, b: Polyline, tol: float = 0.01
) -> IntersectionResult:
    """Transversal crossings of two polylines plus flagged contact sites.

    tol is the contact threshold: a closest approach below tol with no
    crossing nearby, or more than 3 crossings inside a 5-vertex window,
    marks a site for refinement.  With a is b the polyline is tested
    against itself (adjacent segments skipped).
    """
    self_mode = a is b
    pa = a.as_array()
    pb = b.as_array()
    a0, a1 = pa[:-1], pa[1:]
    b0, b1 = pb[:-1], pb[1:]
    amin = np.minimum(a0, a1)
    amax = np.maximum(a0, a1)
    bmin = np.minimum(b0, b1)
    bmax = np.maximum(b0, b1)
    overlap = (
        (amin[:, None, 0] <= bmax[None, :, 0])
        & (bmin[None, :, 0] <= amax[:, None, 0])
        & (amin[:, None, 1] <= bmax[None, :, 1])
        & (bmin[None, :, 1] <= amax[:, None, 1])
    )
    if self_mode:
        n = len(a0)
        idx = np.arange(n)
        near_diag = np.abs(idx[:, None] - idx[None, :]) <= 1
        overlap &= ~near_diag
        overlap &= idx[:, None] < idx[None, :]
    cand_i, cand_j = np.nonzero(overlap)

    # the crossing arithmetic runs on Python floats.  Each candidate's
    # three vectors are divided by one power of two that brings their
    # largest component into [1/2, 1), so no cross product overflows;
    # t and s are ratios, bit for bit the unscaled ones wherever no
    # value under- or overflowed
    va, vb = pa.tolist(), pb.tolist()
    crossings: list[Crossing] = []
    for i, j in zip(cand_i.tolist(), cand_j.tolist()):
        (px, py), (ax, ay) = va[i], va[i + 1]
        (qx, qy), (bx, by) = vb[j], vb[j + 1]
        rx, ry, wx, wy = ax - px, ay - py, bx - qx, by - qy
        dx, dy = qx - px, qy - py
        big = max(abs(rx), abs(ry), abs(wx), abs(wy), abs(dx), abs(dy))
        e = -math.frexp(big)[1]
        sx, sy = math.ldexp(rx, e), math.ldexp(ry, e)
        ux, uy = math.ldexp(wx, e), math.ldexp(wy, e)
        ex, ey = math.ldexp(dx, e), math.ldexp(dy, e)
        denom = sx * uy - sy * ux
        if denom == 0.0:
            continue
        t = (ex * uy - ey * ux) / denom
        s = (ex * sy - ey * sx) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
            pt = Point2(px + t * rx, py + t * ry)
            if any(pt.dist(c.point) <= CROSSING_DEDUP_TOL for c in crossings):
                continue
            crossings.append(Crossing(pt, i, j))

    contacts: list[ContactSite] = []
    # crossings bunched along a few vertices signal a tangential wiggle
    used = set()
    for k, c in enumerate(crossings):
        if k in used:
            continue
        group = [
            m
            for m, d in enumerate(crossings)
            if abs(d.ia - c.ia) <= 5 and m not in used
        ]
        if len(group) > 3:
            used.update(group)
            mid = group[len(group) // 2]
            g = crossings[mid]
            contacts.append(ContactSite(g.point, g.ia, g.ib))
    if not self_mode:
        # every local minimum of the vertex-to-segment distance below tol
        # is a candidate tangency (curves can brush the outline more than
        # once, so the single global closest approach is not enough)
        tt, dist = _segment_feet(pa, pb)
        below = np.argwhere(dist < tol)
        sites: list[tuple[float, int, int]] = []
        for i, j in below.tolist():
            window = dist[
                max(0, i - 2) : i + 3, max(0, j - 2) : j + 3
            ]
            if dist[i, j] <= window.min():
                sites.append((float(dist[i, j]), int(i), int(j)))
        sites.sort()
        kept: list[tuple[int, int]] = []
        for d, i, j in sites:
            if any(abs(i - ki) < 6 and abs(j - kj) < 6 for ki, kj in kept):
                continue
            if any(abs(c.ia - i) <= 5 and abs(c.ib - j) <= 5 for c in crossings):
                continue
            kept.append((i, j))
            (qx, qy), (bx, by), t = vb[j], vb[j + 1], float(tt[i, j])
            fx, fy = qx + t * (bx - qx), qy + t * (by - qy)
            mid = Point2(0.5 * (va[i][0] + fx), 0.5 * (va[i][1] + fy))
            contacts.append(ContactSite(mid, i, j))
    return IntersectionResult(tuple(crossings), tuple(contacts))


@dataclass(frozen=True)
class RefinedContact:
    point: Point2
    refined: bool  # False: tangential site left at the closest-approach midpoint


def _piece(x0, y0, x1, y1, x2, y2, x3, y3) -> tuple[float, ...]:
    """A cubic as a flat tuple: its control coordinates, then its box.

    The box p[8:] = (xmin, ymin, xmax, ymax) is geom.bezier_bbox's,
    taken once when the piece is made; min and max see the coordinates
    in the same order, so even a signed zero comes out the same.
    """
    return (
        x0, y0, x1, y1, x2, y2, x3, y3,
        min(x0, x1, x2, x3),
        min(y0, y1, y2, y3),
        max(x0, x1, x2, x3),
        max(y0, y1, y2, y3),
    )


def _halves(p: tuple[float, ...]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The pieces of p split at t = 1/2, each carrying its own box.

    These are geom.bezier_subdivide(b, 0.5)'s float operations, the
    one-sided a + (b - a) * t in the same order, so every control
    coordinate and box is bit-identical to the CubicBezier route.
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


def _box_gap(pa: tuple[float, ...], pb: tuple[float, ...]) -> float:
    """Least distance between the boxes of two pieces."""
    dx = max(pa[8] - pb[10], pb[8] - pa[10], 0.0)
    dy = max(pa[9] - pb[11], pb[9] - pa[11], 0.0)
    return math.hypot(dx, dy)


def _window_pieces(poly: Polyline, center: int, window: int):
    """Flat pieces of the open Oshima fit through the window around center."""
    lo = max(0, center - window)
    hi = min(len(poly.points) - 1, center + window)
    pts = poly.points[lo : hi + 1]
    if len(pts) < 2:
        return None
    sp = build_spline(pts, method=SplineMethod.OSHIMA, closed=False)
    return [
        _piece(s.p0.x, s.p0.y, s.c0.x, s.c0.y, s.c1.x, s.c1.y, s.p1.x, s.p1.y)
        for s in sp.segments
    ]


def _closest_fit_point(pieces_a, pieces_b, seed: Point2, tol: float):
    """Best-first closest approach of two spline fits given as flat pieces.

    Boxes are popped by their minimum possible separation and split
    until both are smaller than tol; the midpoint of the winning pair
    is the contact estimate.  A pair further apart than a percent of
    the window size is no contact at all.  Pieces are flat float tuples
    split by _halves, which repeats geom.bezier_subdivide's exact
    operations, so the search pops the same boxes the CubicBezier form
    would.
    """
    tick = count()
    heap = []
    span = 1e-12
    for pa in pieces_a:
        span = max(span, pa[10] - pa[8], pa[11] - pa[9])
        for pb in pieces_b:
            heapq.heappush(heap, (_box_gap(pa, pb), next(tick), pa, pb))

    for _ in range(5000):
        if not heap:
            break
        gap, _, pa, pb = heapq.heappop(heap)
        da = math.hypot(pa[10] - pa[8], pa[11] - pa[9])
        db = math.hypot(pb[10] - pb[8], pb[11] - pb[9])
        if da < tol and db < tol:
            if gap > 0.01 * (1.0 + span):
                break
            return RefinedContact(
                Point2(
                    0.25 * (pa[8] + pa[10] + pb[8] + pb[10]),
                    0.25 * (pa[9] + pa[11] + pb[9] + pb[11]),
                ),
                True,
            )
        if da >= db:
            for piece in _halves(pa):
                heapq.heappush(heap, (_box_gap(piece, pb), next(tick), piece, pb))
        else:
            for piece in _halves(pb):
                heapq.heappush(heap, (_box_gap(pa, piece), next(tick), pa, piece))
    return RefinedContact(seed, False)


def refine_contact(
    a: Polyline,
    b: Polyline,
    center_a: int,
    center_b: int,
    window: int = REFINE_WINDOW,
    tol: float = REFINE_TOL,
) -> RefinedContact:
    """Intersection of local spline fits around a contact site.

    Open splines through 2*window+1 vertices around each center are
    intersected by recursive bounding-box subdivision (split both
    curves at t=1/2 while the boxes overlap, accept once both box
    diagonals drop under tol).  Candidates within 10*tol collapse to
    their centroid; with several candidates the one nearest the
    original site wins; with none the site is returned unrefined.

    Both searches run on flat float tuples (_piece, _halves) with
    geom.bezier_subdivide's exact operations: the same control points,
    boxes and candidates as splitting CubicBezier objects, without
    building one per split.
    """
    seed = (a.points[center_a] + b.points[center_b]) * 0.5
    pieces_a = _window_pieces(a, center_a, window)
    pieces_b = _window_pieces(b, center_b, window)
    if pieces_a is None or pieces_b is None:
        return RefinedContact(seed, False)

    # overlapping windows (a curve drawn twice, grazing duplicates)
    # never separate under subdivision; bail before burning the budget
    win_a = a.as_array()[max(0, center_a - window) : center_a + window + 1]
    win_b = b.as_array()[max(0, center_b - window) : center_b + window + 1]
    if (_segment_feet(win_a, win_b)[1].min(axis=1) <= 10.0 * tol).all():
        return RefinedContact(seed, False)

    candidates: list[Point2] = []
    # depth first, in the preorder of the recursive form: children go
    # on the stack reversed, and every pop spends one unit of budget
    stack = [(pa, pb, 0) for pa in pieces_a[::-1] for pb in pieces_b[::-1]]
    for _ in range(20_000):
        if not stack:
            break
        pa, pb, depth = stack.pop()
        xa0, ya0, xa1, ya1 = pa[8:]
        xb0, yb0, xb1, yb1 = pb[8:]
        if xa1 < xb0 or xb1 < xa0 or ya1 < yb0 or yb1 < ya0:
            continue
        da = math.hypot(xa1 - xa0, ya1 - ya0)
        db = math.hypot(xb1 - xb0, yb1 - yb0)
        if da < tol and db < tol:
            candidates.append(
                Point2(
                    0.25 * (xa0 + xa1 + xb0 + xb1),
                    0.25 * (ya0 + ya1 + yb0 + yb1),
                )
            )
            continue
        if depth > 60:
            continue
        halves_a = _halves(pa) if da >= tol else (pa,)
        halves_b = _halves(pb) if db >= tol else (pb,)
        stack.extend(
            (ha, hb, depth + 1) for ha in halves_a[::-1] for hb in halves_b[::-1]
        )

    if not candidates:
        # the fits never cross: a grazing contact.  The touch point is
        # then the closest approach of the two fits, found best-first
        # on bounding-box distance.
        return _closest_fit_point(pieces_a, pieces_b, seed, tol)
    clusters: list[list[Point2]] = []
    for p in candidates:
        for cluster in clusters:
            if p.dist(cluster[0]) <= 10.0 * tol:
                cluster.append(p)
                break
        else:
            clusters.append([p])
    centroids = [
        Point2(sum(p.x for p in c) / len(c), sum(p.y for p in c) / len(c))
        for c in clusters
    ]
    best = min(centroids, key=lambda p: (p.dist(seed), p.x, p.y))
    return RefinedContact(best, True)


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
        out = []
        for k in range(len(bounds) - 1):
            sub = _sub_polyline(self.polyline, bounds[k], bounds[k + 1])
            if sub is not None:
                out.append((sub, self.hidden[k]))
        return out


def _split_param(poly: Polyline, param: float) -> tuple[int, float]:
    """A cut parameter as (segment index, fraction along that segment)."""
    i = min(int(param), len(poly.points) - 2)
    return i, param - i


def _param_point(poly: Polyline, param: float) -> Point2:
    i, t = _split_param(poly, param)
    return _lerp(poly.points[i], poly.points[i + 1], t)


def _sub_polyline(poly: Polyline, p0: float, p1: float) -> Polyline | None:
    if p1 - p0 <= 1e-12:
        return None
    pts = [_param_point(poly, p0)]
    i0 = int(math.floor(p0)) + 1
    i1 = int(math.ceil(p1))
    for k in range(i0, min(i1, len(poly.points) - 1) + 1):
        if k <= p1:
            pts.append(poly.points[k])
    pts.append(_param_point(poly, p1))
    pts = drop_repeats(pts)
    if len(pts) < 2:
        return None
    return Polyline(pts)


def _locate_param(poly: Polyline, q: Point2) -> tuple[float, float]:
    """Nearest (param, distance) of a point on the polyline."""
    t, dist = _segment_feet(np.array([[q.x, q.y]]), poly.as_array())
    i = int(np.argmin(dist[0]))
    return i + float(t[0, i]), float(dist[0, i])


class OcclusionTester:
    """Finds surface points covering a screen position by damped Newton."""

    def __init__(self, s: ParametricSurface, proj: Projection):
        self.surface = s
        self.proj = proj
        x_expr, y_expr = _projected_exprs(s, proj)
        self.fx = compile_fn(x_expr, ("u", "v"))
        self.fy = compile_fn(y_expr, ("u", "v"))
        self.fxu, self.fxv, self.fyu, self.fyv = (
            compile_fn(e, ("u", "v")) for e in _projected_partials(s, proj)
        )

        # lists: Newton starts from floats, not numpy scalars that warn on overflow
        us = steps(*s.u_range, OCCLUSION_SEEDS)
        vs = steps(*s.v_range, OCCLUSION_SEEDS)
        gx = self.fx.grid(us, vs)
        gy = self.fy.grid(us, vs)
        gy[np.isnan(gx)] = np.nan  # a node is undefined when either is
        self.us, self.vs = us, vs
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

    def _newton(self, q: Point2, u: float, v: float) -> tuple[float, float] | None:
        s = self.surface
        ulo, uhi = s.u_range
        vlo, vhi = s.v_range
        mu = 0.05 * (uhi - ulo)
        mv = 0.05 * (vhi - vlo)
        tol = NEWTON_TOL * (1.0 + self.scene_scale)
        try:
            gx = self.fx(u, v) - q.x
            gy = self.fy(u, v) - q.y
        except DomainError:
            return None
        err = math.hypot(gx, gy)
        for _ in range(NEWTON_MAX_ITER):
            if err <= tol:
                return (u, v)
            try:
                a = self.fxu(u, v)
                b = self.fxv(u, v)
                c = self.fyu(u, v)
                d = self.fyv(u, v)
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
                if (
                    ulo - mu <= nu <= uhi + mu
                    and vlo - mv <= nv <= vhi + mv
                ):
                    try:
                        ngx = self.fx(nu, nv) - q.x
                        ngy = self.fy(nu, nv) - q.y
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

    def covers(self, q: Point2) -> tuple[list[tuple[float, float]], int]:
        """All distinct (u, v) with projection q, and the candidate count."""
        mask = (
            self.cell_ok
            & (self.xmin <= q.x)
            & (q.x <= self.xmax)
            & (self.ymin <= q.y)
            & (q.y <= self.ymax)
        )
        cells = np.argwhere(mask)
        roots: list[tuple[float, float]] = []
        for i, j in cells.tolist():
            u0 = 0.5 * (self.us[i] + self.us[i + 1])
            v0 = 0.5 * (self.vs[j] + self.vs[j + 1])
            root = self._newton(q, u0, v0)
            if root is None:
                continue
            u, v = root
            ulo, uhi = self.surface.u_range
            vlo, vhi = self.surface.v_range
            eps_u = 1e-9 * (uhi - ulo)
            eps_v = 1e-9 * (vhi - vlo)
            if not (ulo - eps_u <= u <= uhi + eps_u and vlo - eps_v <= v <= vhi + eps_v):
                continue
            u = min(max(u, ulo), uhi)
            v = min(max(v, vlo), vhi)
            if any(math.hypot(u - ru, v - rv) <= 1e-7 for ru, rv in roots):
                continue
            roots.append((u, v))
        return roots, len(cells)

    def depth_at(self, u: float, v: float) -> float:
        _, d = project(self.surface.point(u, v), self.proj)
        return d

    def hidden(
        self,
        q: Point2,
        depth: float,
        own_uv: tuple[float, float] | None,
        eps: float,
    ) -> tuple[bool, bool]:
        """(is_hidden, newton_trouble) for a point at the given depth."""
        roots, n_candidates = self.covers(q)
        if n_candidates > 0 and not roots:
            return False, True
        for u, v in roots:
            if own_uv is not None:
                if math.hypot(u - own_uv[0], v - own_uv[1]) <= SELF_OCCLUSION_UV_TOL:
                    continue
            if self.depth_at(u, v) > depth + eps:
                return True, False
        return False, False


def classify_visibility(
    poly: Polyline,
    label: str,
    s: ParametricSurface,
    proj: Projection,
    cuts: Sequence[Point2],
    tester: OcclusionTester | None = None,
) -> VisibilityTaggedCurve:
    """Split poly, a `project_curve` result, at the cut points and tag
    each interval; label names the result.

    Visibility is decided at the interval midpoint: the interval is
    hidden when some surface point projects there with strictly larger
    depth (beyond a small epsilon).  Points within parameter distance
    1e-4 of the curve's own preimage never count as occluders.  When
    the Newton solves all fail the interval stays visible and the
    result's newton_failed is set.
    """
    if tester is None:
        tester = OcclusionTester(s, proj)
    n_last = float(len(poly.points) - 1)
    params: list[float] = []
    for q in cuts:
        param, dist = _locate_param(poly, q)
        if dist > 0.05 * (1.0 + tester.scene_scale):
            continue
        params.append(param)
    params.sort()
    cleaned: list[float] = []
    for p in params:
        if p <= 1e-9 or p >= n_last - 1e-9:
            continue
        if cleaned and p - cleaned[-1] <= 1e-9:
            continue
        cleaned.append(p)

    eps = OCCLUSION_EPS_FACTOR * tester.scene_scale
    bounds = [0.0, *cleaned, n_last]
    hidden_flags: list[bool] = []
    trouble = False
    for k in range(len(bounds) - 1):
        i, t = _split_param(poly, 0.5 * (bounds[k] + bounds[k + 1]))
        if poly.params is not None:
            ua, va = poly.params[i]
            ub, vb = poly.params[i + 1]
            own_uv = (ua + (ub - ua) * t, va + (vb - va) * t)
            p3 = s.point(*own_uv)
        else:
            own_uv = None
            a3, b3 = poly.space[i], poly.space[i + 1]
            p3 = a3 + (b3 - a3) * t
        q, d = project(p3, proj)
        flag, bad = tester.hidden(q, d, own_uv, eps)
        hidden_flags.append(flag)
        trouble = trouble or bad
    return VisibilityTaggedCurve(
        poly, tuple(cleaned), tuple(hidden_flags), label, trouble
    )


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
    pts, _ = _on_surface(s, product(steps(*s.u_range, 8), steps(*s.v_range, 8)))
    if not pts:
        raise SurfaceError("surface undefined everywhere")
    los = [min(p.x for p in pts), min(p.y for p in pts), min(p.z for p in pts)]
    his = [max(p.x for p in pts), max(p.y for p in pts), max(p.z for p in pts)]
    curves = []
    for axis, name in enumerate("xyz"):
        span = max(his[axis] - los[axis], 1.0)
        lo = min(los[axis], 0.0) - 0.35 * span
        hi = max(his[axis], 0.0) + 0.35 * span
        coords = []
        for t in steps(lo, hi, samples):
            vec = [0.0, 0.0, 0.0]
            vec[axis] = t
            coords.append(Point3(*vec))
        curves.append(SpaceCurve(tuple(coords), None, f"axis:{name}"))
    return curves


def build_surface_scene(
    s: ParametricSurface,
    proj: Projection | None = None,
    config: SceneConfig | None = None,
    extra_curves: Sequence[SpaceCurve] = (),
) -> tuple[Scene, SceneReport]:
    """Assemble the hidden-line scene and report its tagged curves."""
    proj = proj or Projection()
    cfg = config or SceneConfig()

    sil = silhouette(s, proj, TraceConfig(s.u_range, s.v_range, grid=cfg.grid))
    bounds = boundary_curves(s, samples=cfg.samples)
    wire_curves = wires(s, cfg.wires_u, cfg.wires_v, samples=cfg.samples)
    extras = list(extra_curves)
    if cfg.axes:
        extras.extend(_axis_curves(s, cfg.samples))

    outline_curves = [*bounds, *sil]
    drawn: list[tuple[str, SpaceCurve]] = (
        [("boundary", c) for c in bounds]
        + [("silhouette", c) for c in sil]
        + [("wire", c) for c in wire_curves]
        + [("extra", c) for c in extras]
    )
    projected: list[tuple[str, str, Polyline]] = []
    for role, curve in drawn:
        poly = project_curve(curve, proj)
        if poly is None:
            log.warning("dropping curve %r: degenerate projection", curve.label)
            continue
        projected.append((role, curve.label, poly))
    # the emitters refuse a coordinate fmt5 cannot write; refuse it before
    # the scene's work, which overflows and crawls at such sizes
    extent = max(
        (abs(c) for _, _, p in projected for q in p.points for c in (q.x, q.y)),
        default=0.0,
    )
    fmt5(extent)
    outline_polys = [
        p for role, _, p in projected if role in ("boundary", "silhouette")
    ]

    tester = OcclusionTester(s, proj)

    def cut_points(poly: Polyline) -> list[Point2]:
        pts: list[Point2] = []
        for op in outline_polys:
            # op is poly when an outline curve meets itself
            res = intersect_projected(poly, op, tol=CONTACT_TOL)
            pts.extend(c.point for c in res.crossings)
            for site in res.contacts:
                pts.append(refine_contact(poly, op, site.ia, site.ib).point)
        return pts

    def work(item: tuple[str, str, Polyline]) -> VisibilityTaggedCurve:
        _, label, poly = item
        return classify_visibility(poly, label, s, proj, cut_points(poly), tester)

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
            if hidden_flag and cfg.hidden_style == "omit":
                continue
            style = Style.DASHED if hidden_flag else Style.SOLID
            drawn.append(DrawItem(sub, style=style))
        if drawn and tc.label.startswith("axis:"):
            # axis letter just past the positive end
            name = tc.label.split(":", 1)[1]
            end = tc.polyline.points[-1]
            drawn[-1] = replace(
                drawn[-1], label=Label(name, Point2(end.x + 0.15, end.y + 0.15))
            )
        items.extend(drawn)
    scene = scene_from_items(items)
    report = SceneReport(
        *(
            tuple(tc for (r, _, _), tc in zip(projected, tagged) if r == role)
            for role in ("silhouette", "boundary", "wire", "extra")
        )
    )
    return scene, report


# ---------------------------------------------------------------------------
# the contact showcase: a paraboloid silhouette brushed by the y axis


@dataclass(frozen=True)
class ContactDemoResult:
    refined: Point2
    refined_ok: bool
    analytic: Point2
    cluster: tuple[Point2, ...]
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
    reference the refined point is compared against.
    """
    s = paraboloid_surface()
    proj = Projection(theta, phi)
    sil = silhouette(s, proj, TraceConfig(s.u_range, s.v_range, grid=grid))
    if not sil:
        raise SurfaceError("no silhouette under this view")
    sil_curve = max(sil, key=lambda c: len(c.points))
    sil_poly = project_curve(sil_curve, proj)

    axis_pts = tuple(Point3(0.0, y, 0.0) for y in steps(-4.0, 4.0, samples))
    axis_poly = project_curve(SpaceCurve(axis_pts, None, "axis:y"), proj)

    res = intersect_projected(axis_poly, sil_poly, tol=0.02)
    i, j, dmin = closest_approach(axis_poly, sil_poly)

    # the raw vertex-pair cluster around the closest approach: this is
    # what the crossing looks like before refinement
    pa = axis_poly.as_array()
    pb = sil_poly.as_array()
    d = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2))
    thresh = max(2.0 * dmin, 1e-12)
    pairs = np.argwhere(d <= thresh)
    cluster = tuple(
        Point2(*(0.5 * (pa[ii] + pb[jj]))) for ii, jj in pairs.tolist()
    )
    spread = 0.0
    for m in range(len(cluster)):
        for k in range(m + 1, len(cluster)):
            spread = max(spread, cluster[m].dist(cluster[k]))

    rc = refine_contact(axis_poly, sil_poly, i, j, window=window, tol=tol)

    t_phi = math.tan(phi)
    c0 = (t_phi / 2.0) * math.sin(phi) + (4.0 - t_phi * t_phi / 4.0) * math.cos(phi)
    slope = -math.tan(theta) * math.sin(phi)
    # equating the two: cos(phi) X^2 + slope X - c0 = 0
    a_q = math.cos(phi)
    disc = slope * slope + 4.0 * a_q * c0
    x_limit = math.sqrt(max(4.0 - t_phi * t_phi / 4.0, 0.0))
    roots = [
        (-slope + sgn * math.sqrt(disc)) / (2.0 * a_q) for sgn in (-1.0, 1.0)
    ]
    on_sil = [x for x in roots if abs(x) <= x_limit] or roots
    xr = min(on_sil, key=lambda x: abs(x - rc.point.x))
    analytic = Point2(xr, slope * xr)

    return ContactDemoResult(
        rc.point, rc.refined, analytic, cluster, spread, len(res.crossings)
    )
