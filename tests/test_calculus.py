import math

import pytest
from hypothesis import given, settings, strategies as st

from splinefig import calculus
from splinefig.calculus import (
    CalculusError,
    IntegrationRequest,
    NonMonotoneError,
    RangeError,
    VerticalTangentError,
    closed_area,
    curve_y_at,
    derivative_at,
    integrate,
    segment_integral,
    tangent_line,
)
from splinefig.geom import CubicBezier, Point2, bezier_derivative, bezier_eval
from splinefig.spline import SplineMethod, build_spline

EXACT_X2SINX = math.pi ** 2 - 4.0  # int_0^pi x^2 sin x dx


def fn_samples(f, lo, hi, n):
    return tuple(
        Point2(lo + (hi - lo) * k / n, f(lo + (hi - lo) * k / n))
        for k in range(n + 1)
    )


def riemann(b: CubicBezier, n: int = 200_000) -> float:
    # midpoint rule on int y x' dt, the oracle for the closed form
    total = 0.0
    h = 1.0 / n
    for k in range(n):
        t = (k + 0.5) * h
        p = bezier_eval(b, t)
        total += p.y * bezier_derivative(b, t).x * h
    return total


class TestSegmentIntegral:
    def test_straight_line(self):
        # y = x from 0 to 1: int y dx = 1/2
        b = CubicBezier(
            Point2(0, 0), Point2(1 / 3, 1 / 3), Point2(2 / 3, 2 / 3), Point2(1, 1)
        )
        assert segment_integral(b) == pytest.approx(0.5, abs=1e-15)

    def test_constant_height(self):
        b = CubicBezier(Point2(0, 2), Point2(1, 2), Point2(2, 2), Point2(3, 2))
        assert segment_integral(b) == pytest.approx(6.0, abs=1e-12)

    def test_against_riemann(self):
        b = CubicBezier(
            Point2(0, 1), Point2(0.8, 3), Point2(1.9, -2), Point2(3, 0.5)
        )
        assert segment_integral(b) == pytest.approx(riemann(b), abs=1e-9)

    def test_reversal_negates(self):
        b = CubicBezier(
            Point2(0, 1), Point2(0.8, 3), Point2(1.9, -2), Point2(3, 0.5)
        )
        rev = CubicBezier(b.p1, b.c1, b.c0, b.p0)
        assert segment_integral(rev) == pytest.approx(
            -segment_integral(b), abs=1e-14
        )


class TestIntegrate:
    def test_x2_sinx_both_rules(self):
        # 50 subintervals on [-pi, pi], integrated over [0, pi]
        data = fn_samples(lambda x: x * x * math.sin(x), -math.pi, math.pi, 50)
        osh = integrate(IntegrationRequest(data, (0.0, math.pi)))
        cr = integrate(
            IntegrationRequest(data, (0.0, math.pi), SplineMethod.CATMULL_ROM)
        )
        # pinned values; both land well inside 1e-3 of the exact integral
        assert osh == pytest.approx(5.869529349688943, abs=1e-12)
        assert cr == pytest.approx(5.869636715821734, abs=1e-12)
        assert abs(osh - EXACT_X2SINX) < 1e-3
        assert abs(cr - EXACT_X2SINX) < 1e-3

    def test_polynomial_high_accuracy(self):
        data = fn_samples(lambda x: x * x, 0.0, 1.0, 20)
        got = integrate(IntegrationRequest(data, (0.0, 1.0)))
        assert got == pytest.approx(1 / 3, abs=1e-5)

    def test_additivity(self):
        data = fn_samples(math.sin, 0.0, 2.0, 37)
        whole = integrate(IntegrationRequest(data, (0.0, 2.0)))
        a = integrate(IntegrationRequest(data, (0.0, 0.73)))
        b = integrate(IntegrationRequest(data, (0.73, 2.0)))
        assert a + b == pytest.approx(whole, abs=1e-12)

    def test_linearity_in_y(self):
        # the fixed-fraction rule is linear in the data; scaling y alone
        # scales the integral (the adaptive rule is not linear this way)
        f = lambda x: math.sin(x) + 0.3 * x
        data = fn_samples(f, 0.0, 2.0, 30)
        scaled = tuple(Point2(p.x, 2.5 * p.y) for p in data)
        i1 = integrate(
            IntegrationRequest(data, (0.2, 1.7), SplineMethod.CATMULL_ROM)
        )
        i2 = integrate(
            IntegrationRequest(scaled, (0.2, 1.7), SplineMethod.CATMULL_ROM)
        )
        assert i2 == pytest.approx(2.5 * i1, rel=1e-12)

    def test_similarity_scaling(self):
        # scaling both axes by s multiplies int y dx by s^2, either rule
        f = lambda x: math.sin(x) + 0.3 * x
        data = fn_samples(f, 0.0, 2.0, 30)
        s = 3.5
        scaled = tuple(Point2(s * p.x, s * p.y) for p in data)
        for method in SplineMethod:
            i1 = integrate(IntegrationRequest(data, (0.2, 1.7), method))
            i2 = integrate(
                IntegrationRequest(scaled, (s * 0.2, s * 1.7), method)
            )
            assert i2 == pytest.approx(s * s * i1, rel=1e-9)

    @pytest.mark.parametrize(
        "n, interval", [(2, (0.0, 1.0)), (16, (0.9, 0.1)), (16, (0.0, math.inf))]
    )
    def test_bad_request_is_calculus_error(self, n, interval):
        with pytest.raises(CalculusError):
            IntegrationRequest(fn_samples(math.exp, 0.0, 1.0, n), interval)

    def test_backwards_interval_rejected(self):
        data = fn_samples(math.exp, 0.0, 1.0, 16)
        with pytest.raises(ValueError):
            IntegrationRequest(data, (0.9, 0.1))

    def test_interval_clamps_to_data(self):
        data = fn_samples(math.cos, 0.0, 1.0, 16)
        inside = integrate(IntegrationRequest(data, (0.0, 1.0)))
        beyond = integrate(IntegrationRequest(data, (-10.0, 10.0)))
        assert beyond == inside

    def test_non_monotone_x_rejected(self):
        data = (Point2(0, 0), Point2(1, 1), Point2(0.5, 2), Point2(2, 0))
        with pytest.raises(NonMonotoneError):
            integrate(IntegrationRequest(data, (0.0, 1.0)))


class TestClosedArea:
    def test_ellipse_ratio_pinned(self):
        # 3-2 ellipse sampled every 2pi/50; dimensionless ratio to 6pi
        pts = [
            Point2(3 * math.cos(2 * math.pi * k / 50),
                   2 * math.sin(2 * math.pi * k / 50))
            for k in range(50)
        ]
        osh = closed_area(pts) / (6 * math.pi)
        cr = closed_area(pts, SplineMethod.CATMULL_ROM) / (6 * math.pi)
        assert osh == pytest.approx(0.9999998284267583, abs=1e-12)
        assert cr == pytest.approx(0.9999937705168602, abs=1e-12)

    def test_orientation_sign(self):
        dia = [Point2(1, 0), Point2(0, 1), Point2(-1, 0), Point2(0, -1)]
        ccw = closed_area(dia)
        assert ccw > 0
        assert closed_area(list(reversed(dia))) == pytest.approx(-ccw)

    def test_open_input_rejected(self):
        with pytest.raises(ValueError):
            closed_area([Point2(0, 0), Point2(1, 0)])


class TestDerivative:
    def test_matches_cosine(self):
        data = fn_samples(math.sin, -2.0, 2.0, 80)
        for x0 in (-1.5, -0.3, 0.0, 0.7, 1.9):
            got = derivative_at(data, x0)
            assert got == pytest.approx(math.cos(x0), abs=5e-4)

    def test_at_a_sample_point(self):
        data = fn_samples(lambda x: x ** 3, 0.0, 2.0, 40)
        assert derivative_at(data, 1.0) == pytest.approx(3.0, abs=5e-3)

    def test_outside_range(self):
        data = fn_samples(math.sin, 0.0, 1.0, 10)
        with pytest.raises(RangeError):
            derivative_at(data, 2.0)

    def test_folded_data_rejected(self):
        # a circle is not a graph; the fold must be caught, not mis-read
        pts = [
            Point2(math.cos(t), math.sin(t))
            for t in [k * 2 * math.pi / 16 for k in range(17)]
        ]
        with pytest.raises(NonMonotoneError):
            derivative_at(pts, 1.0)

    def test_vertical_tangent(self):
        # abscissae 0, 1, 4 make the end tangent exactly vertical:
        # x'(0) is proportional to 4*x1 - 3*x0 - x2 = 0
        data = [Point2(0, 0), Point2(1, 1), Point2(4, 2), Point2(6, 3)]
        with pytest.raises(VerticalTangentError):
            derivative_at(data, 0.0, SplineMethod.CATMULL_ROM)
        line = tangent_line(data, 0.0, SplineMethod.CATMULL_ROM)
        assert line.vertical
        with pytest.raises(VerticalTangentError):
            line.y_at(1.0)


class TestTangent:
    def test_touches_curve(self):
        data = fn_samples(lambda x: x * x, -1.0, 1.0, 40)
        line = tangent_line(data, 0.5)
        assert line.y_at(0.5) == pytest.approx(curve_y_at(data, 0.5), abs=1e-12)
        assert line.slope == pytest.approx(1.0, abs=1e-3)
        # second-order contact: offset error shrinks like h^2
        for h in (0.05, 0.01):
            gap = abs(line.y_at(0.5 + h) - curve_y_at(data, 0.5 + h))
            assert gap < 2 * h * h + 1e-6

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_points_is_calculus_error(self, n):
        with pytest.raises(CalculusError, match="at least 2"):
            tangent_line([Point2(0, 0)] * n, 0.0)

    def test_one_fit_per_tangent(self, monkeypatch):
        fits = []

        def counted(*args, **kwargs):
            fits.append(args)
            return build_spline(*args, **kwargs)

        monkeypatch.setattr(calculus, "build_spline", counted)
        tangent_line(fn_samples(math.sin, 0.0, 3.0, 30), 1.0)
        assert len(fits) == 1

    def test_curve_y_between_samples(self):
        data = fn_samples(math.exp, 0.0, 1.0, 25)
        assert curve_y_at(data, 0.377) == pytest.approx(
            math.exp(0.377), abs=1e-6
        )


bez = st.tuples(
    *[st.floats(min_value=-5, max_value=5) for _ in range(8)]
)


@settings(max_examples=25, deadline=None)
@given(bez)
def test_property_segment_closed_form(coords):
    b = CubicBezier(
        Point2(coords[0], coords[1]),
        Point2(coords[2], coords[3]),
        Point2(coords[4], coords[5]),
        Point2(coords[6], coords[7]),
    )
    assert segment_integral(b) == pytest.approx(riemann(b, 50_000), abs=1e-6)
