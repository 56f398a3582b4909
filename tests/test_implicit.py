import hashlib
import logging
import math
import struct
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from splinefig import expr
from splinefig.calculus import IntegrationRequest, closed_area, integrate
from splinefig.expr import DomainError, compile_fn, steps
from scalar_reference import Point2
from splinefig.geom import Polyline
from splinefig.implicit import (
    BLOCK,
    JOIN_TOL,
    MAX_GRID,
    MAX_STEPS,
    RESIDUAL_FACTOR,
    STALL_STEPS,
    TraceConfig,
    TraceError,
    _open_blocks,
    _refine_crossings,
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
        worst = max(abs(fn(x, y)) for x, y in comps[0].points.tolist())
        assert worst < 1e-8

    def test_enclosed_area(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        area = closed_area(comps[0].points[:-1])
        assert area == pytest.approx(math.pi, abs=1e-3)

    def test_loop_closes_on_itself(self):
        comps = trace_implicit("x^2+y^2-1", self.CFG)
        pts = comps[0].points
        assert pts[0].tobytes() == pts[-1].tobytes()


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
        (x0, _), (_, y1) = c.points[[0, -1]].tolist()
        assert x0 == 2.0
        assert y1 == 2.5

    def test_endpoints_pinned(self):
        (_, y0), (x1, _) = self.trace()[0].points[[0, -1]].tolist()
        assert y0 == pytest.approx(1.5328946712709097, abs=1e-12)
        assert x1 == pytest.approx(-0.5924263032484841, abs=1e-12)
        # the roots of F(2, y) and F(x, 2.5)
        r2 = math.sqrt(2.0)
        assert y0 == pytest.approx(7 * r2 - math.sqrt(70.0), abs=1e-14)
        b, c0 = 10 * r2 + 3, 8.25 - 15 * r2
        assert x1 == pytest.approx((b - math.sqrt(b * b - 32 * c0)) / 16, abs=1e-14)

    def test_start_is_lexicographically_larger_end(self):
        start, end = self.trace()[0].points[[0, -1]].tolist()
        assert start > end

    def test_integral_between_endpoints(self):
        c = self.trace()[0]
        lo, hi = sorted(c.points[[0, -1], 0].tolist())
        data = c.points
        osh = integrate(IntegrationRequest(data, (lo, hi)))
        cr = integrate(
            IntegrationRequest(data, (lo, hi), SplineMethod.CATMULL_ROM)
        )
        assert osh == pytest.approx(1.6984793827134543, abs=1e-12)
        assert cr == pytest.approx(1.6984831587411096, abs=1e-12)

    def test_deterministic_retrace(self):
        a = self.trace()
        b = self.trace()
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.points.tobytes() == cb.points.tobytes()


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
        xs, ys = comps[0].points.T.tolist()
        assert max(abs(x - 1.0) for x in xs) < 1e-9
        assert max(ys) - min(ys) > 3.0

    def test_two_components(self):
        # hyperbola branches on either side of the y-axis
        comps = trace_implicit(
            "x^2-y^2-1", TraceConfig((-3, 3), (-3, 3), grid=120)
        )
        assert len(comps) == 2
        sides = sorted(float(c.points[len(c.points) // 2, 0]) for c in comps)
        assert sides[0] < -0.9 and sides[1] > 0.9

    def test_saddle_is_deterministic(self):
        cfg = TraceConfig((-1, 1), (-1, 1), grid=50)
        a = trace_implicit("x*y", cfg)
        b = trace_implicit("x*y", cfg)
        assert [c.points.tobytes() for c in a] == [c.points.tobytes() for c in b]
        assert len(a) >= 2

    def test_grid_validation(self):
        with pytest.raises((TraceError, ValueError)):
            TraceConfig((-1, 1), (-1, 1), grid=1)
        with pytest.raises((TraceError, ValueError)):
            TraceConfig((1, -1), (-1, 1))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid": 4},
            {"grid": MAX_GRID + 1},
            {"xrange": (1, -1)},
            {"yrange": (0, 0)},
        ],
    )
    def test_bad_config_is_trace_error(self, kwargs):
        with pytest.raises(TraceError):
            TraceConfig(**{"xrange": (-1, 1), "yrange": (-1, 1), **kwargs})

    @pytest.mark.parametrize("r", [1e-12, 1e-6, 1.0, 1e9])
    def test_join_distance_scales_with_the_window(self, r):
        # an absolute JOIN_TOL merged the whole r = 1e-12 circle into one
        # point; on the window's scale every size traces the same loop
        cfg = TraceConfig((-2 * r, 2 * r), (-2 * r, 2 * r), grid=50)
        comps = trace_implicit(f"x^2+y^2-{r!r}^2", cfg)
        assert len(comps) == 1
        assert comps[0].is_loop(0.0)
        assert len(comps[0].points) == 101
        assert cfg.join_tol == JOIN_TOL * min(1.0, 4 * r)


class TestRefinement:
    @pytest.mark.parametrize("grid", [50, 200, 800])
    def test_stop_is_relative_to_the_scale_of_f(self, grid, caplog):
        # an absolute stop, 1e-10*(1 + max(|f1|, |f2|)), accepted the
        # linear guess here, up to 8e-4 off the circle at grid 50
        cfg = TraceConfig((-2, 2), (-2, 2), grid=grid)
        with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
            comps = trace_implicit("1e-20*(x^2+y^2-1)", cfg)
        assert len(comps) == 1 and caplog.records == []
        x, y = comps[0].points.T
        assert np.abs(np.hypot(x, y) - 1.0).max() <= 1e-10

    def test_conic_vertices_have_an_exact_residual_below_the_stop(self):
        # F with coefficients exact to 30 digits, at each vertex's exact
        # value; bisection's absolute stop left up to 1.1e-10
        r2 = Fraction(math.isqrt(2 * 10**60), 10**30)
        comps = trace_implicit(parse_equation(CONIC), TraceConfig((-2, 2), (-2, 2.5), grid=800))
        worst = 0
        for x, y in comps[0].points.tolist():
            x, y = Fraction(x), Fraction(y)
            f = 8 * x * x - 4 * r2 * x * y + y * y - 3 * x - 6 * r2 * y + 2
            worst = max(worst, abs(f))
        assert worst <= Fraction(11, 10**12)

    @pytest.mark.parametrize(
        "text, xrange, yrange, grid, flagged",
        [
            ("1/(x^2+y^2-1)", (-2, 2), (-2, 2), 50, 100),  # the pole circle
            ("tan(x)-y", (-3, 3), (-2, 2), 200, 402),  # the asymptotes x = ±pi/2
            ("(x^2+y^2-1)/abs(x^2+y^2-1)", (-2, 2), (-2, 2), 50, 100),  # a jump
            (CONIC, (-2, 2), (-2, 2.5), 800, 0),
            ("y^2-x^3+x", (-2, 2), (-2, 2), 203, 0),
            ("x^2+y^2-1", (-2, 2), (-2, 2), 200, 0),
        ],
    )
    def test_sign_changes_without_a_root_are_counted(
        self, text, xrange, yrange, grid, flagged, caplog
    ):
        cfg = TraceConfig(xrange, yrange, grid)
        with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
            comps = trace_implicit(parse_equation(text), cfg)
        assert comps
        assert [r.getMessage() for r in caplog.records] == (
            [f"{flagged} crossings are sign changes where F has no root (pole or jump?)"]
            if flagged
            else []
        )


# ---------------------------------------------------------------------------
# the batched trace against the scalar reference (at the end of the file)


def _bits(comps: list[Polyline]) -> list[list[bytes]]:
    return [[struct.pack("<2d", x, y) for x, y in c.points.tolist()] for c in comps]


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
# midpoint, undefined regions; a lemniscate whose double point is a
# node, so its loop passes twice through a point where F = 0; a line
# that cuts off a window corner (one segment, both keys of degree 1);
# a crossed edge shared with a cell that has an undefined corner; F = 0
# at every node; a cubic with an open and a closed branch at grid 200
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
@example(text="(x^2+y^2)^2-2*(x^2-y^2)", x0=-2.0, wx=4.0, y0=-2.0, wy=4.0, grid=8)
@example(text="(x^2+y^2)^2-2*(x^2-y^2)", x0=-2.0, wx=4.0, y0=-1.0, wy=2.0, grid=16)
@example(text="x + y - 1.9", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="x - 0.3 + 0*sqrt(y)", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="0*x", x0=-1.0, wx=2.0, y0=-1.0, wy=2.0, grid=8)
@example(text="y^2 - x^3 + x", x0=-2.0, wx=4.0, y0=-2.0, wy=4.0, grid=200)
# most blocks proven one-signed, at grids that are not whole blocks
@example(text="x^2 + 0.5*x*y + y^2 - 1", x0=-2.0, wx=4.0, y0=-2.0, wy=4.0, grid=50)
@example(text="x^2 + 0.5*x*y + y^2 - 1", x0=-2.0, wx=4.0, y0=-2.0, wy=4.0, grid=203)
def test_property_trace_matches_the_scalar_reference(text, x0, wx, y0, wy, grid):
    """The traced polylines, and the crossing on every edge whose ends
    lie on both sides, equal the point-by-point ones bit for bit (the
    chains drop a point within `cfg.join_tol` of the last, which can hide
    one)."""
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
    px, py, no_root = _refine_crossings(
        f, ax[i1], ay[j1], ax[i2], ay[j2], vals[i1, j1], vals[i2, j2]
    )
    got = [
        (struct.pack("<2d", x, y), flag)
        for x, y, flag in zip(px.tolist(), py.tolist(), no_root.tolist())
    ]
    want = []
    for a, b, c, d in zip(i1.tolist(), j1.tolist(), i2.tolist(), j2.tolist()):
        p, flag = reference_crossing(
            f, (xs[a], ys[b]), (xs[c], ys[d]), float(vals[a, b]), float(vals[c, d])
        )
        want.append((struct.pack("<2d", p.x, p.y), flag))
    assert got == want


# grids of whole blocks and not, where the enclosure proves most blocks
# one-signed, so that only the open ones are evaluated
_XS = steps(-1.0, 1.0, 203)
CULLED = [
    ("x^2+y^2-1", (-2.0, 2.0), (-2.0, 2.0), 50),
    ("x^2+y^2-1", (-2.0, 2.0), (-2.0, 2.0), 64),
    ("1.234567*x^2+0.456789*x*y+0.987654*y^2-1", (-2.0, 2.0), (-2.0, 2.0), 200),
    ("y^2 - x^3 + x", (-2.0, 2.0), (-2.0, 2.0), 203),
    # undefined on the left half: the open blocks hold every skipped cell
    ("sqrt(x) - 1 + y^2", (-2.0, 2.0), (-2.0, 2.0), 203),
    # overflow inside blocks: undefined nodes, an infinite bound
    ("1e200*x^2+y^2-1", (-1.5e54, 1.5e54), (-2.0, 2.0), 200),
    # zero at every node of a block edge
    (f"x - {_XS[16]!r}", (-1.0, 1.0), (-1.0, 1.0), 203),
]


@pytest.mark.parametrize("text, xrange, yrange, grid", CULLED)
def test_culled_trace_matches_the_scalar_reference(text, xrange, yrange, grid, caplog):
    f = compile_fn(parse_equation(text), ("x", "y"))
    xs, ys = np.array(steps(*xrange, grid)), np.array(steps(*yrange, grid))
    i0, _, size = _open_blocks(f, xs, ys)
    assert size == BLOCK and len(i0) < ((grid + BLOCK - 1) // BLOCK) ** 2
    cfg = TraceConfig(xrange, yrange, grid)
    with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
        comps = trace_zero_set(f, cfg)
    assert comps and _bits(comps) == _bits(reference_trace(f, cfg))
    # the same skipped-cell count as over the whole grid
    ok = np.isfinite(f.grid(xs, ys))
    valid = ok[:-1, :-1] & ok[1:, :-1] & ok[1:, 1:] & ok[:-1, 1:]
    skipped = grid * grid - np.count_nonzero(valid)
    warned = [r.getMessage() for r in caplog.records]
    assert warned == ([f"skipped {skipped} cells with undefined corners"] if skipped else [])


class _CountingFn:
    """A compiled F that counts its scalar calls, its array passes and
    the points those passes evaluate."""

    def __init__(self, f):
        self.f, self.calls, self.passes, self.points = f, 0, 0, 0
        self.sizes: list[int] = []

    def __call__(self, *args: float) -> float:
        self.calls += 1
        return self.f(*args)

    def at(self, *arrays):
        self.passes += 1
        self.sizes.append(np.broadcast(*arrays).size)
        self.points += self.sizes[-1]
        return self.f.at(*arrays)

    def grid(self, xs, ys):
        self.passes += 1
        return self.f.grid(xs, ys)

    def enclose(self, *boxes):
        # bounds over the block boxes, not a pass of F's values
        return self.f.enclose(*boxes)


def test_trace_makes_no_scalar_call():
    f = compile_fn(parse_equation(CONIC), ("x", "y"))
    cfg = TraceConfig((-2, 2), (-2, 2.5), grid=800)
    batched, scalar = _CountingFn(f), _CountingFn(f)
    comps = trace_zero_set(batched, cfg)
    assert batched.calls == 0
    # proven blocks are not evaluated: fewer points than the grid's nodes
    assert batched.points < 801 * 801 // 4
    assert _bits(comps) == _bits(reference_trace(scalar, cfg))
    # past the nodes, the passes evaluate the points the reference does,
    # one scalar call each: the saddle centers and the refinement steps
    assert scalar.calls == batched.points - batched.sizes[0] > 4000


def test_trace_makes_no_scalar_libm_call(monkeypatch):
    # each ^ of the conic is one float_power per pass; mapping math.pow
    # over the elements called `_each` once per ^ per pass instead
    each, pows = [], []
    real_each, real_pow = expr._each, expr._pow_array
    monkeypatch.setattr(expr, "_each", lambda *a: each.append(a) or real_each(*a))
    monkeypatch.setattr(expr, "_pow_array", lambda *a: pows.append(a) or real_pow(*a))
    f = _CountingFn(compile_fn(parse_equation(CONIC), ("x", "y")))
    comps = trace_zero_set(f, TraceConfig((-2, 2), (-2, 2.5), grid=800))
    assert len(comps) == 1
    assert each == []
    # the nodes, the saddle centers and a few refinement steps, where
    # bisection took about 30
    assert f.passes <= 12 and len(pows) == 2 * f.passes


@pytest.mark.parametrize(
    "text, xrange, yrange, grid, digest",
    [
        ("tan(x)-y", (-3, 3), (-2, 2), 200, "d941b29245ca3ea9"),
        ("1/(x^2+y^2-1)", (-2, 2), (-2, 2), 50, "cddbea8a3ae5fc89"),
        ("(x^2+y^2-1)/abs(x^2+y^2-1)", (-2, 2), (-2, 2), 50, "4cccf25c6a88cb35"),
    ],
)
def test_pole_and_jump_edges_stop_early(text, xrange, yrange, grid, digest):
    # |f| stops falling after the first steps at a pole or jump, and each
    # such edge ran all MAX_STEPS steps (102 passes at the poles, 63 at
    # the jump) before STALL_STEPS ended it; the vertices stay the same
    f = _CountingFn(compile_fn(parse_equation(text), ("x", "y")))
    comps = trace_zero_set(f, TraceConfig(xrange, yrange, grid))
    assert f.passes <= 10
    vertices = b"".join(b for c in _bits(comps) for b in c)
    assert hashlib.sha256(vertices).hexdigest()[:16] == digest


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
) -> tuple[Point2, bool]:
    """The crossing on the edge p1-p2, refined by a scalar Illinois
    iteration, and whether F changes sign there without a root."""
    if f1 == 0.0:
        return Point2(*p1), False
    if f2 == 0.0:
        return Point2(*p2), False
    tol = RESIDUAL_FACTOR * max(abs(f1), abs(f2))

    def at(t: float) -> tuple[float, float]:
        return (p1[0] + (p2[0] - p1[0]) * t, p1[1] + (p2[1] - p1[1]) * t)

    def inside(t: float) -> bool:
        return ta < t < tb  # false for NaN

    # the secant point of [ta, tb], else its midpoint; the first secant
    # point is the linear interpolation guess.  Keep the best point seen,
    # and stop after STALL_STEPS steps in a row that did not better it.
    ta, fa, tb, fb, kept = 0.0, f1, 1.0, f2, None
    t_best, f_best, stale = 0.5, math.inf, 0
    tm = f1 / (f1 - f2)
    for _ in range(MAX_STEPS):
        if not inside(tm):
            tm = 0.5 * (ta + tb)
        if not inside(tm):
            break
        try:
            fm = f(*at(tm))
        except DomainError:
            break
        if abs(fm) < f_best:
            t_best, f_best, stale = tm, abs(fm), 0
        else:
            stale += 1
        if f_best <= tol or stale == STALL_STEPS:
            break
        if math.copysign(1.0, fm) != math.copysign(1.0, fa):
            if kept == "a":
                fa *= 0.5
            tb, fb, kept = tm, fm, "a"
        else:
            if kept == "b":
                fb *= 0.5
            ta, fa, kept = tm, fm, "b"
        tm = ta + (tb - ta) * (fa / (fa - fb))
    return Point2(*at(t_best)), not (f_best <= tol or f_best < min(abs(f1), abs(f2)))


def _shoelace(pts: list[Point2]) -> float:
    area = 0.0
    m = len(pts)
    for k in range(m):
        p = pts[k]
        q = pts[(k + 1) % m]
        area += p.x * q.y - q.x * p.y
    return 0.5 * area


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
            pt, _ = reference_crossing(
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
            if pts and pts[-1].dist(p) <= cfg.join_tol:
                continue
            pts.append(p)
        if closed and len(pts) > 1 and pts[0].dist(pts[-1]) <= cfg.join_tol:
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
