import math

import pytest
from hypothesis import given, settings, strategies as st

from splinefig.geom import Point2, bezier_derivative, bezier_eval
from splinefig.spline import (
    DegenerateGeometryError,
    SplineMethod,
    build_spline,
    control_points_cr,
    control_points_oshima,
    oshima_coefficient,
)

# closed diamond data used by the ellipse-style anchors below
QUAD = [Point2(3, 0), Point2(0, 2), Point2(-3, 0), Point2(0, -2)]


def circle_points(n: int, r: float = 1.0, phase: float = 0.0) -> list[Point2]:
    return [
        Point2(r * math.cos(phase + 2 * math.pi * k / n),
               r * math.sin(phase + 2 * math.pi * k / n))
        for k in range(n)
    ]


class TestControlPoints:
    def test_cr_collinear(self):
        q, r = control_points_cr(
            Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(3, 0)
        )
        assert q == Point2(4 / 3, 0)
        assert r == Point2(5 / 3, 0)

    def test_cr_fraction_is_one_sixth(self):
        pm1, pj, pj1, pj2 = Point2(0, 1), Point2(1, 3), Point2(4, 2), Point2(5, -1)
        q, r = control_points_cr(pm1, pj, pj1, pj2)
        assert q == pj + (pj1 - pm1) * (1 / 6)
        assert r == pj1 - (pj2 - pj) * (1 / 6)

    def test_coefficient_collinear_equally_spaced(self):
        c = oshima_coefficient(
            Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(3, 0)
        )
        assert c == 1 / 6

    def test_coefficient_of_chords_whose_norms_underflow(self):
        # |chord1| * |chord2| = 2^-1198 is below the double range
        h = 2.0**-600
        c = oshima_coefficient(
            Point2(0, 0), Point2(h, 0), Point2(2 * h, 0), Point2(3 * h, 0)
        )
        assert c == 1 / 6

    def test_oshima_quad_anchor(self):
        # first arc of the closed diamond, pinned once
        q, r = control_points_oshima(QUAD[3], QUAD[0], QUAD[1], QUAD[2])
        assert q.x == pytest.approx(3.0, abs=1e-12)
        assert q.y == pytest.approx(1.12644428657877, abs=1e-12)
        assert r.x == pytest.approx(1.6896664298681552, abs=1e-12)
        assert r.y == pytest.approx(2.0, abs=1e-12)

    def test_square_on_circle_offset(self):
        # 4 points at 90 degrees: control offset is the classic
        # circle-approximation constant (4/3)tan(pi/8) times the radius
        r = 2.0
        pts = circle_points(4, r)
        q, _ = control_points_oshima(pts[3], pts[0], pts[1], pts[2])
        offset = (q - pts[0]).norm()
        assert abs(offset - (4 / 3) * math.tan(math.pi / 8) * r) < 1e-9
        c = oshima_coefficient(pts[3], pts[0], pts[1], pts[2])
        assert abs(c - (2 / 3) * math.tan(math.pi / 8)) < 1e-9

    def test_zero_chord_gives_zero_coefficient(self):
        # p_j == p_{j+1}: the segment collapses, both controls sit on it
        pj = Point2(1, 1)
        q, r = control_points_oshima(Point2(0, 0), pj, pj, Point2(2, 0))
        assert q == pj
        assert r == pj

    def test_coincident_outer_neighbor_is_tolerated(self):
        # p_{j-1} == p_{j+1} leaves one chord zero; treated as angle 0
        q, r = control_points_oshima(
            Point2(0, 1), Point2(0, 0), Point2(0, 1), Point2(1, 1)
        )
        assert math.isfinite(q.x) and math.isfinite(r.y)

    def test_both_chords_zero_raises(self):
        p = Point2(1, 2)
        with pytest.raises(DegenerateGeometryError):
            oshima_coefficient(p, p, p, p)


class TestBuildSpline:
    def test_segment_counts(self):
        pts = circle_points(6)
        assert len(build_spline(pts, closed=True).segments) == 6
        assert len(build_spline(pts, closed=False).segments) == 5

    def test_closed_autodetect(self):
        pts = circle_points(5) + [Point2(*circle_points(5)[0].as_tuple())]
        sp = build_spline(pts)
        assert sp.closed
        assert len(sp.segments) == 5

    def test_interpolates_data(self):
        pts = [Point2(0, 0), Point2(1, 2), Point2(3, 1), Point2(4, -1)]
        for method in SplineMethod:
            sp = build_spline(pts, method=method, closed=False)
            for k, seg in enumerate(sp.segments):
                assert bezier_eval(seg, 0.0).dist(pts[k]) < 1e-12
                assert bezier_eval(seg, 1.0).dist(pts[k + 1]) < 1e-12

    def test_two_points_is_a_straight_segment(self):
        sp = build_spline([Point2(0, 0), Point2(2, 2)], closed=False)
        assert len(sp.segments) == 1
        mid = bezier_eval(sp.segments[0], 0.25)
        assert abs(mid.x - mid.y) < 1e-12

    def test_collinear_open_data_stays_collinear(self):
        pts = [Point2(x, 2 * x + 1) for x in (0, 0.5, 1.25, 2.0, 3.0)]
        for method in SplineMethod:
            sp = build_spline(pts, method=method, closed=False)
            for p in sp.sample(20).points:
                assert abs(p.y - (2 * p.x + 1)) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            build_spline([Point2(0, 0)])

    @pytest.mark.parametrize(
        "pts, closed",
        [
            ([], None),
            ([Point2(0, 0)], False),
            ([Point2(0, 0), Point2(1, 1)], True),
            ([Point2(0, 0), Point2(1, 1), Point2(0, 0)], True),
        ],
    )
    def test_too_few_points_is_degenerate(self, pts, closed):
        with pytest.raises(DegenerateGeometryError):
            build_spline(pts, closed=closed)

    def test_cr_quad_samples(self):
        # closed diamond, first segment, pinned dense-sample values
        sp = build_spline(QUAD, method=SplineMethod.CATMULL_ROM, closed=True)
        p = sp.point(0, 0.1)
        assert (p.x, p.y) == pytest.approx((2.943, 0.218), abs=1e-12)
        p = sp.point(0, 0.5)
        assert (p.x, p.y) == pytest.approx((1.875, 1.25), abs=1e-12)

    def test_oshima_quad_samples(self):
        sp = build_spline(QUAD, method=SplineMethod.OSHIMA, closed=True)
        p = sp.point(0, 0.1)
        assert p.x == pytest.approx(2.96162, abs=1e-5)
        assert p.y == pytest.approx(0.32972, abs=1e-5)

    def test_sample_joints(self):
        sp = build_spline(QUAD, closed=True)
        pl = sp.sample(10)
        assert len(pl.points) == 41
        assert pl.is_loop()
        joints = sp.joints()
        assert joints == QUAD


class TestCircleFidelity:
    def test_oshima_beats_cr_on_circle(self):
        pts = circle_points(12, 2.0)
        def max_radial_error(method):
            sp = build_spline(pts, method=method, closed=True)
            return max(abs(p.norm() - 2.0) for p in sp.sample(200).points)
        osh = max_radial_error(SplineMethod.OSHIMA)
        cr = max_radial_error(SplineMethod.CATMULL_ROM)
        assert osh < 1e-5
        assert osh < cr / 100


point_sets = st.lists(
    st.tuples(
        st.floats(min_value=-50, max_value=50),
        st.floats(min_value=-50, max_value=50),
    ),
    min_size=4,
    max_size=12,
).filter(
    lambda ps: min(
        math.dist(a, b)
        for i, a in enumerate(ps)
        for b in ps[i + 1:]
    ) > 1e-2
)


@settings(max_examples=40, deadline=None)
@given(point_sets, st.booleans(), st.sampled_from(list(SplineMethod)))
def test_property_interpolation(pairs, closed, method):
    pts = [Point2(x, y) for x, y in pairs]
    sp = build_spline(pts, method=method, closed=closed)
    data = pts + [pts[0]] if closed else pts
    for k, seg in enumerate(sp.segments):
        assert bezier_eval(seg, 0.0).dist(data[k]) < 1e-9
        assert bezier_eval(seg, 1.0).dist(data[k + 1]) < 1e-9


@settings(max_examples=40, deadline=None)
@given(point_sets, st.sampled_from(list(SplineMethod)))
def test_property_g1_joints(pairs, method):
    # tangent directions agree where segments meet
    pts = [Point2(x, y) for x, y in pairs]
    sp = build_spline(pts, method=method, closed=True)
    segs = sp.segments
    for k in range(len(segs)):
        a = bezier_derivative(segs[k], 1.0)
        b = bezier_derivative(segs[(k + 1) % len(segs)], 0.0)
        na, nb = a.norm(), b.norm()
        if na < 1e-9 or nb < 1e-9:
            continue
        assert a.cross(b) / (na * nb) == pytest.approx(0.0, abs=1e-9)
        assert a.dot(b) > 0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=-math.pi, max_value=math.pi))
def test_property_rotation_equivariance(angle):
    # rotating the data rotates the curve (both rules are euclidean)
    pts = [Point2(0, 0), Point2(1, 0.5), Point2(2.5, -0.5), Point2(3, 1)]
    ca, sa = math.cos(angle), math.sin(angle)
    rot = lambda p: Point2(ca * p.x - sa * p.y, sa * p.x + ca * p.y)
    for method in SplineMethod:
        base = build_spline(pts, method=method, closed=False).sample(8)
        turned = build_spline(
            [rot(p) for p in pts], method=method, closed=False
        ).sample(8)
        for p, q in zip(base.points, turned.points):
            assert rot(p).dist(q) < 1e-9
