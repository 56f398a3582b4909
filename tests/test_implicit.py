import math

import pytest

from splinefig.calculus import IntegrationRequest, closed_area, integrate
from splinefig.expr import compile_fn
from splinefig.implicit import (
    TraceConfig,
    TraceError,
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
        [{"grid": 4}, {"xrange": (1, -1)}, {"yrange": (0, 0)}, {"join_tol": 0.0}],
    )
    def test_bad_config_is_trace_error(self, kwargs):
        with pytest.raises(TraceError):
            TraceConfig(**{"xrange": (-1, 1), "yrange": (-1, 1), **kwargs})
