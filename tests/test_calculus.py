import math
from fractions import Fraction

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
    integrate,
    segment_integral,
    tangent_line,
)
from scalar_reference import Point2, control_rows
from splinefig.spline import SplineMethod, build_spline

EXACT_X2SINX = math.pi ** 2 - 4.0  # int_0^pi x^2 sin x dx


def fn_samples(f, lo, hi, n):
    return tuple(
        Point2(lo + (hi - lo) * k / n, f(lo + (hi - lo) * k / n))
        for k in range(n + 1)
    )


def exact_integral(b: list[Point2]) -> Fraction:
    """int_0^1 y x' dt in exact arithmetic, the oracle for the closed form.

    y is the cubic Bernstein sum of the y_i and x' is 3 times the
    quadratic one of the x_(j+1) - x_j; each product of Bernstein basis
    polynomials integrates by int t^a (1-t)^b dt = a! b! / (a+b+1)!.
    """
    xs = [Fraction(x) for x, _ in b]
    ys = [Fraction(y) for _, y in b]
    total = Fraction(0)
    for i in range(4):
        for j in range(3):
            beta = Fraction(
                math.factorial(i + j) * math.factorial(5 - i - j), math.factorial(6)
            )
            weight = 3 * math.comb(3, i) * math.comb(2, j) * beta
            total += ys[i] * (xs[j + 1] - xs[j]) * weight
    return total


def _power_basis(c0: Fraction, c1: Fraction, c2: Fraction, c3: Fraction):
    """Coefficients of t^0..t^3 of a cubic Bernstein sum, exactly."""
    return (c0, 3 * (c1 - c0), 3 * (c0 - 2 * c1 + c2), -c0 + 3 * c1 - 3 * c2 + c3)


def exact_piece_integral(b: list[Point2], t0: Fraction, t1: Fraction) -> Fraction:
    """int_t0^t1 y x' dt of b's own polynomials in exact arithmetic."""
    ax = _power_basis(*(Fraction(x) for x, _ in b))
    ay = _power_basis(*(Fraction(y) for _, y in b))
    total = Fraction(0)
    for i, yi in enumerate(ay):
        for j in range(1, 4):
            # y_i t^i times j x_j t^(j-1), integrated: t^(i+j) / (i+j)
            m = i + j
            total += yi * j * ax[j] * (t1**m - t0**m) / m
    return total


def _scale(b: list[Point2]) -> Fraction:
    """(sum |coords|)^2 of a segment, the size of its rounding error."""
    return Fraction(sum(abs(v) for p in b for v in p)) ** 2


def assert_near_exact(b: list[Point2]) -> None:
    # the closed form's rounding error stays under 5e-17 (sum |coords|)^2
    # over random segments at scales 1e-3 to 1e3; the scale is squared
    # exactly, as in floats it underflows to 0 below coordinates of 1e-162,
    # and one unit of the least subnormal is allowed on top, the spacing
    # of doubles where the result itself is subnormal
    err = abs(Fraction(segment_integral(b)) - exact_integral(b))
    assert err <= Fraction(2e-16) * _scale(b) + Fraction(2.0**-1074)


class TestSegmentIntegral:
    def test_straight_line(self):
        # y = x from 0 to 1: int y dx = 1/2
        b = [Point2(0, 0), Point2(1 / 3, 1 / 3), Point2(2 / 3, 2 / 3), Point2(1, 1)]
        assert segment_integral(b) == pytest.approx(0.5, abs=1e-15)

    def test_constant_height(self):
        b = [Point2(0, 2), Point2(1, 2), Point2(2, 2), Point2(3, 2)]
        assert segment_integral(b) == pytest.approx(6.0, abs=1e-12)

    def test_against_exact_integral(self):
        b = [Point2(0, 1), Point2(0.8, 3), Point2(1.9, -2), Point2(3, 0.5)]
        assert_near_exact(b)

    def test_reversal_negates(self):
        b = [Point2(0, 1), Point2(0.8, 3), Point2(1.9, -2), Point2(3, 0.5)]
        rev = b[::-1]
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

    @pytest.mark.parametrize("method", list(SplineMethod))
    def test_clipped_integral_scales_as_r_squared(self, method):
        # both bounds cut a segment of the upper half circle through
        # abscissae -r, -0.75r, 0, 0.75r and r; each cut stops at a share
        # of its segment's own x span, so it lands alike at every r
        h = math.sqrt(1.0 - 0.75**2)
        rows = [(-1.0, 0.0), (-0.75, h), (0.0, 1.0), (0.75, h), (1.0, 0.0)]

        def clipped(r: float) -> float:
            data = [Point2(x * r, y * r) for x, y in rows]
            return integrate(IntegrationRequest(data, (-0.3 * r, 0.6 * r), method))

        unit = clipped(1.0)
        for r in (1e-13, 1e-6, 1e6, 1e12):
            assert clipped(r) / (r * r) == pytest.approx(unit, rel=1e-12)

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
            got = tangent_line(data, x0).slope
            assert got == pytest.approx(math.cos(x0), abs=5e-4)

    def test_at_a_sample_point(self):
        data = fn_samples(lambda x: x ** 3, 0.0, 2.0, 40)
        assert tangent_line(data, 1.0).slope == pytest.approx(3.0, abs=5e-3)

    def test_outside_range(self):
        data = fn_samples(math.sin, 0.0, 1.0, 10)
        with pytest.raises(RangeError):
            tangent_line(data, 2.0)

    def test_folded_data_rejected(self):
        # a circle is not a graph; the fold must be caught, not mis-read
        pts = [
            Point2(math.cos(t), math.sin(t))
            for t in [k * 2 * math.pi / 16 for k in range(17)]
        ]
        with pytest.raises(NonMonotoneError):
            tangent_line(pts, 1.0)

    def test_vertical_tangent(self):
        # abscissae 0, 1, 4 make the end tangent exactly vertical:
        # x'(0) is proportional to 4*x1 - 3*x0 - x2 = 0
        data = [Point2(0, 0), Point2(1, 1), Point2(4, 2), Point2(6, 3)]
        line = tangent_line(data, 0.0, SplineMethod.CATMULL_ROM)
        assert line.vertical and line.slope is None
        assert line.point == (0.0, 0.0)
        with pytest.raises(VerticalTangentError):
            line.y_at(1.0)


class TestTangent:
    def test_touches_curve(self):
        data = fn_samples(lambda x: x * x, -1.0, 1.0, 40)
        line = tangent_line(data, 0.5)
        x, y = line.point
        assert x == 0.5 and line.y_at(0.5) == y
        assert y == pytest.approx(0.25, abs=1e-4)
        assert line.slope == pytest.approx(1.0, abs=1e-3)
        # second-order contact: offset error shrinks like h^2
        for h in (0.05, 0.01):
            gap = abs(line.y_at(0.5 + h) - tangent_line(data, 0.5 + h).point[1])
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
        assert tangent_line(data, 0.377).point[1] == pytest.approx(
            math.exp(0.377), abs=1e-6
        )


bez = st.tuples(
    *[st.floats(min_value=-5, max_value=5) for _ in range(8)]
)


@settings(max_examples=200, deadline=None)
@given(bez)
def test_property_segment_closed_form(coords):
    b = [Point2(x, y) for x, y in zip(coords[::2], coords[1::2])]
    assert_near_exact(b)


# monotone data: distinct increasing abscissae, any ordinates
graph_data = st.lists(
    st.tuples(st.floats(0.05, 2.0), st.floats(-5.0, 5.0)), min_size=4, max_size=12
).map(
    lambda steps: tuple(
        Point2(sum(dx for dx, _ in steps[: k + 1]), y) for k, (_, y) in enumerate(steps)
    )
)


@settings(max_examples=150, deadline=None)
@given(
    graph_data,
    st.floats(-0.5, 1.5),
    st.floats(-0.5, 1.5),
    st.sampled_from(list(SplineMethod)),
)
def test_property_clipped_integrate_matches_exact_integral(data, u, v, method):
    # the interval reaches past either end of the data at times, so the
    # end segments are clipped by the bisection's parameters, whose exact
    # polynomial integral is taken from Fraction(t0) to Fraction(t1)
    x0, xn = data[0].x, data[-1].x
    a, b = sorted((x0 + u * (xn - x0), x0 + v * (xn - x0)))
    lo, hi = max(a, x0), min(b, xn)
    if not lo < hi:
        return
    got = integrate(IntegrationRequest(data, (a, b), method))
    exact = bound = Fraction(0)
    for seg in control_rows(build_spline(data, method=method, closed=False)):
        if seg[3].x <= lo or seg[0].x >= hi:
            continue
        t0 = calculus._solve_segment_x(seg, lo) if seg[0].x < lo else 0.0
        t1 = calculus._solve_segment_x(seg, hi) if seg[3].x > hi else 1.0
        exact += exact_piece_integral(seg, Fraction(t0), Fraction(t1))
        bound += Fraction(2e-16) * _scale(seg)
    assert abs(Fraction(got) - exact) <= bound


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(0, 359), min_size=3, max_size=12, unique=True),
    st.floats(0.5, 5.0),
    st.floats(0.5, 5.0),
    st.sampled_from(list(SplineMethod)),
)
def test_property_closed_area_matches_exact_integral(angles, rx, ry, method):
    # points around an ellipse at whole degrees, in angle order: minus
    # the sum over the closed spline's segments of int y x' dt, each exact
    pts = [
        Point2(rx * math.cos(math.radians(t)), ry * math.sin(math.radians(t)))
        for t in sorted(angles)
    ]
    got = closed_area(pts, method)
    segments = control_rows(build_spline(pts, method=method, closed=True))
    exact = -sum(exact_integral(seg) for seg in segments)
    bound = sum(Fraction(2e-16) * _scale(seg) for seg in segments)
    assert abs(Fraction(got) - exact) <= bound
