import math
import struct
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinefig.calculus import IntegrationRequest, closed_area, integrate
from splinefig.expr import DomainError, compile_fn, steps
from splinefig.geom import Point2, Polyline
from splinefig.implicit import (
    JOIN_TOL,
    MAX_BISECT,
    RESIDUAL_FACTOR,
    TraceConfig,
    TraceError,
    _refine_crossings,
    _shoelace,
    parse_equation,
    trace_implicit,
    trace_zero_set,
)
from splinefig.spline import SplineMethod

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"


class TestParseEquation:
    def test_equation_moves_rhs(self):
        from splinefig.expr import evaluate

        node = parse_equation("x^2+y^2=4")
        assert evaluate(node, {"x": 2.0, "y": 0.0}) == 0.0
        assert evaluate(node, {"x": 0.0, "y": 0.0}) == -4.0

    def test_plain_expression_passes_through(self):
        from splinefig.expr import evaluate

        node = parse_equation("x - y")
        assert evaluate(node, {"x": 3.0, "y": 1.0}) == 2.0


class TestCircle:
    CFG = TraceConfig((-2, 2), (-2, 2))

    def test_single_loop(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        assert len(comps) == 1
        assert comps[0].is_loop(0.0)
        assert len(comps[0].points) == 381

    def test_residuals_are_tiny(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        fn = compile_fn(parse_equation("x^2+y^2-1"), ("x", "y"))
        worst = max(abs(fn(p.x, p.y)) for p in comps[0].points)
        assert worst < 1e-8

    def test_enclosed_area(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        area = closed_area(list(comps[0].points)[:-1])
        assert area == pytest.approx(math.pi, abs=1e-3)

    def test_loop_closes_on_itself(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        pts = comps[0].points
        assert pts[0] == pts[-1]


class TestConic:
    CFG = TraceConfig((-2, 2), (-2, 2.5))

    def trace(self):
        return trace_implicit(parse_equation(CONIC), self.CFG)

    def test_one_open_branch(self):
        comps = self.trace()
        assert len(comps) == 1
        c = comps[0]
        assert not c.is_loop(1e-9)
        # clipped by the window: one end on x = 2, the other on y = 2.5
        assert c.pt_start.x == 2.0
        assert c.pt_end.y == 2.5

    def test_endpoints_pinned(self):
        c = self.trace()[0]
        assert c.pt_start.y == pytest.approx(1.5328946712776088, abs=1e-12)
        assert c.pt_end.x == pytest.approx(-0.5924263032525778, abs=1e-12)

    def test_start_is_lexicographically_larger_end(self):
        c = self.trace()[0]
        s, e = c.pt_start, c.pt_end
        assert (s.x, s.y) > (e.x, e.y)

    def test_integral_between_endpoints(self):
        c = self.trace()[0]
        lo, hi = sorted((c.pt_start.x, c.pt_end.x))
        data = tuple(c.points)
        osh = integrate(IntegrationRequest(data, (lo, hi)))
        cr = integrate(
            IntegrationRequest(data, (lo, hi), SplineMethod.CATMULL_ROM)
        )
        assert osh == pytest.approx(1.6984793827223847, abs=1e-12)
        assert cr == pytest.approx(1.6984831587501117, abs=1e-12)

    def test_deterministic_retrace(self):
        a = self.trace()
        b = self.trace()
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.points == cb.points


class TestEdgeCases:
    def test_empty_zero_set(self):
        comps = trace_zero_set(
            compile_fn(parse_equation("x*x + y*y + 1.0"), ("x", "y")),
            TraceConfig((-2, 2), (-2, 2), grid=40),
        )
        assert comps == []

    def test_partial_domain(self):
        # sqrt is undefined on half the window; the x = 1 line must
        # still come out of the defined half
        comps = trace_implicit(
            "sqrt(x)-1", TraceConfig((-2, 2), (-2, 2), grid=60)
        )
        assert len(comps) == 1
        xs = [p.x for p in comps[0].points]
        ys = [p.y for p in comps[0].points]
        assert max(abs(x - 1.0) for x in xs) < 1e-9
        assert max(ys) - min(ys) > 3.0

    def test_two_components(self):
        # hyperbola branches on either side of the y-axis
        comps = trace_implicit(
            "x^2-y^2-1", TraceConfig((-3, 3), (-3, 3), grid=120)
        )
        assert len(comps) == 2
        sides = sorted(c.points[len(c.points) // 2].x for c in comps)
        assert sides[0] < -0.9 and sides[1] > 0.9

    def test_saddle_is_deterministic(self):
        cfg = TraceConfig((-1, 1), (-1, 1), grid=50)
        a = trace_implicit("x*y", cfg)
        b = trace_implicit("x*y", cfg)
        assert [c.points for c in a] == [c.points for c in b]
        assert len(a) >= 2

    def test_grid_validation(self):
        with pytest.raises((TraceError, ValueError)):
            TraceConfig((-1, 1), (-1, 1), grid=1)
        with pytest.raises((TraceError, ValueError)):
            TraceConfig((1, -1), (-1, 1))

    @pytest.mark.parametrize(
        "kwargs",
        [{"grid": 4}, {"xrange": (1, -1)}, {"yrange": (0, 0)}],
    )
    def test_bad_config_is_trace_error(self, kwargs):
        with pytest.raises(TraceError):
            TraceConfig(**{"xrange": (-1, 1), "yrange": (-1, 1), **kwargs})


# ---------------------------------------------------------------------------
# the batched trace against the scalar reference (at the end of the file)


def _bits(comps: list[Polyline]) -> list[list[bytes]]:
    return [[struct.pack("<2d", p.x, p.y) for p in c.points] for c in comps]


def _outcome(trace, f, cfg: TraceConfig) -> list[list[bytes]] | str:
    try:
        return _bits(trace(f, cfg))
    except TraceError as exc:
        return str(exc)


COEFFS = st.sampled_from([-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) | st.floats(
    -3.0, 3.0
)
CONIC_TERMS = ("x^2", "x*y", "y^2", "x", "y", "1")
CUBIC_TERMS = ("x^3", "x^2*y", "x*y^2", "y^3", *CONIC_TERMS)
# {p} and {q} are random conics or cubics, {a} and {b} coefficients
FORMS = (
    "{p}",
    "sqrt({q}) - {a}",
    "log({q}) - {a}",
    "1/x - {p}",
    "1/({q}) - {a}",
    "sqrt(x - {a}) + {p}",
    "({a} - x)*(y - {b})",
    "x*y - {a}",
    "({p})/abs({p})",
    "(x - {a})*sqrt((x - {a})^2 - 0.01)",
)


@st.composite
def polynomials(draw) -> str:
    terms = draw(st.sampled_from((CONIC_TERMS, CUBIC_TERMS)))
    return " + ".join(f"({draw(COEFFS)!r})*{m}" for m in terms)


@st.composite
def equations(draw) -> str:
    form = draw(st.sampled_from(FORMS))
    return form.format(
        p=draw(polynomials()), q=draw(polynomials()), a=draw(COEFFS), b=draw(COEFFS)
    )


# integer and binary-fraction windows put nodes exactly on zero sets
# with such coefficients
ENDS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 1.0]) | st.floats(-3.0, 3.0)
WIDTHS = st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.1, 6.0)


@settings(max_examples=300, deadline=None)
@given(
    text=equations(),
    x0=ENDS,
    wx=WIDTHS,
    y0=ENDS,
    wy=WIDTHS,
    grid=st.sampled_from([8, 9, 16, 40, 60]) | st.integers(8, 60),
)
# nodes on the zero set (on the second, x1 + (x2 - x1) != x2), a saddle
# on a node, a saddle whose center lies exactly on x = 0 where F is
# undefined, F undefined at both the linear guess and the first
# midpoint, undefined regions
@example(text="x - y", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="x - y", x0=-0.038, wx=4.545, y0=-0.038, wy=4.545, grid=17)
@example(text="y - x", x0=-0.038, wx=4.545, y0=-0.038, wy=4.545, grid=17)
@example(text="x*sqrt(x^2 - 0.0049)", x0=-1.1, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="x*y", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="x*y", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=9)
@example(text="x*y + 0*log(abs(x))", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=9)
@example(text="(x - 0.25)*(y + 0.5)", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=16)
@example(text="log(x*y) - 0.1", x0=-2.0, wx=4.0, y0=-2.0, wy=4.0, grid=33)
@example(text="sqrt(-x^2 - y^2)", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
def test_property_trace_matches_the_scalar_reference(text, x0, wx, y0, wy, grid):
    """The traced polylines, and the crossing on every edge whose ends
    lie on both sides, equal the point-by-point ones bit for bit (the
    chains drop a point within JOIN_TOL of the last, which can hide one)."""
    f = compile_fn(parse_equation(text), ("x", "y"))
    cfg = TraceConfig((x0, x0 + wx), (y0, y0 + wy), grid=grid)
    assert _outcome(trace_zero_set, f, cfg) == _outcome(reference_trace, f, cfg)

    xs, ys = steps(x0, x0 + wx, grid), steps(y0, y0 + wy, grid)
    vals = f.grid(xs, ys)
    i, j = np.indices(vals.shape)
    h = (i[:-1], j[:-1], i[1:], j[1:])  # (i, j)-(i + 1, j)
    v = (i[:, :-1], j[:, :-1], i[:, 1:], j[:, 1:])  # (i, j)-(i, j + 1)
    i1, j1, i2, j2 = (np.concatenate([a.ravel(), b.ravel()]) for a, b in zip(h, v))
    f1, f2 = vals[i1, j1], vals[i2, j2]
    crossed = np.isfinite(f1) & np.isfinite(f2) & ((f1 > 0.0) != (f2 > 0.0))
    i1, j1, i2, j2 = i1[crossed], j1[crossed], i2[crossed], j2[crossed]
    ax, ay = np.array(xs), np.array(ys)
    px, py = _refine_crossings(
        f, ax[i1], ay[j1], ax[i2], ay[j2], vals[i1, j1], vals[i2, j2]
    )
    got = [struct.pack("<2d", x, y) for x, y in zip(px.tolist(), py.tolist())]
    want = []
    for a, b, c, d in zip(i1.tolist(), j1.tolist(), i2.tolist(), j2.tolist()):
        p = reference_crossing(
            f, (xs[a], ys[b]), (xs[c], ys[d]), float(vals[a, b]), float(vals[c, d])
        )
        want.append(struct.pack("<2d", p.x, p.y))
    assert got == want


class _CountingFn:
    """A compiled F that counts its scalar calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0
        self.at, self.grid = f.at, f.grid

    def __call__(self, *args: float) -> float:
        self.calls += 1
        return self.f(*args)


def test_trace_makes_no_scalar_call():
    f = compile_fn(parse_equation(CONIC), ("x", "y"))
    cfg = TraceConfig((-2, 2), (-2, 2.5), grid=800)
    batched, scalar = _CountingFn(f), _CountingFn(f)
    comps = trace_zero_set(batched, cfg)
    assert batched.calls == 0
    assert _bits(comps) == _bits(reference_trace(scalar, cfg))
    assert scalar.calls > 30000


# ---------------------------------------------------------------------------
# the scalar reference for the batched trace

_REFERENCE_SEGMENTS: dict[int, tuple[tuple[str, str], ...]] = {
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


def reference_crossing(
    f: Callable[[float, float], float],
    p1: tuple[float, float],
    p2: tuple[float, float],
    f1: float,
    f2: float,
) -> Point2:
    """The crossing on the edge p1-p2, refined by scalar bisection."""
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


def reference_trace(
    f: Callable[[float, float], float], cfg: TraceConfig
) -> list[Polyline]:
    """The point-by-point trace: scalar bisection per edge, a loop per cell.

    This is the tracer as it was before crossings were refined in array
    passes; `trace_zero_set` must give the same polylines, bit for bit.
    """
    n = cfg.grid
    xs = steps(*cfg.xrange, n)
    ys = steps(*cfg.yrange, n)
    vals = f.grid(xs, ys)

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
            i2, j2 = (i + 1, j) if kind == "h" else (i, j + 1)
            pt = reference_crossing(
                f, (xs[i], ys[j]), (xs[i2], ys[j2]), float(vals[i, j]), float(vals[i2, j2])
            )
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
            pairs = _REFERENCE_SEGMENTS[case_ij]
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
