import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from splinefig.geom import (
    CubicBezier,
    Point2,
    Point3,
    PointFileError,
    Polyline,
    SplineCurve,
    bezier_bbox,
    bezier_derivative,
    bezier_eval,
    bezier_slice,
    bezier_subdivide,
    closest_approach,
    drop_repeats,
    load_points,
    points_from_pairs,
    save_points,
)

B = CubicBezier(Point2(0, 0), Point2(1, 2), Point2(3, 2), Point2(4, 0))

coord = st.floats(min_value=-10, max_value=10, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0)


class TestPoints:
    def test_arithmetic(self):
        a, b = Point2(1, 2), Point2(3, -4)
        assert (a + b).as_tuple() == (4, -2)
        assert (a - b).as_tuple() == (-2, 6)
        assert (a * 2).as_tuple() == (2, 4)
        assert a.dot(b) == -5
        assert a.cross(b) == -10
        assert Point2(3, 4).norm() == 5
        assert a.dist(b) == math.hypot(2, 6)

    def test_point3(self):
        p = Point3(1, 2, 2)
        assert p.norm() == 3
        assert p.dot(Point3(1, 0, 0)) == 1
        assert (p + p).as_tuple() == (2, 4, 4)


class TestBezier:
    def test_endpoints(self):
        assert bezier_eval(B, 0.0) == B.p0
        assert bezier_eval(B, 1.0) == B.p1

    def test_midpoint(self):
        # (p0 + 3 p1 + 3 p2 + p3) / 8
        assert bezier_eval(B, 0.5) == Point2(2.0, 1.5)

    def test_derivative_at_ends(self):
        assert bezier_derivative(B, 0.0) == Point2(3.0, 6.0)
        assert bezier_derivative(B, 1.0) == Point2(3.0, -6.0)

    @given(unit, unit)
    def test_subdivide_matches_original(self, ts, t):
        ts = min(max(ts, 1e-6), 1 - 1e-6)
        left, right = bezier_subdivide(B, ts)
        want = bezier_eval(B, ts * t)
        got = bezier_eval(left, t)
        assert got.dist(want) < 1e-12
        want = bezier_eval(B, ts + (1 - ts) * t)
        got = bezier_eval(right, t)
        assert got.dist(want) < 1e-12

    @given(unit, unit, unit)
    def test_slice_matches_original(self, t0, t1, t):
        t0, t1 = sorted((t0, t1))
        if t1 - t0 < 1e-6:
            return
        piece = bezier_slice(B, t0, t1)
        want = bezier_eval(B, t0 + (t1 - t0) * t)
        assert bezier_eval(piece, t).dist(want) < 1e-10

    @given(unit)
    def test_bbox_contains_curve(self, t):
        x0, y0, x1, y1 = bezier_bbox(B)
        p = bezier_eval(B, t)
        assert x0 - 1e-12 <= p.x <= x1 + 1e-12
        assert y0 - 1e-12 <= p.y <= y1 + 1e-12

    def test_bbox_from_hull(self):
        assert bezier_bbox(B) == (0.0, 0.0, 4.0, 2.0)


class TestPolyline:
    def test_basics(self):
        pl = Polyline((Point2(0, 0), Point2(1, 0), Point2(1, 1)))
        assert pl.pt_start == Point2(0, 0)
        assert pl.pt_end == Point2(1, 1)
        assert not pl.is_loop()
        assert pl.reversed().pt_start == Point2(1, 1)
        arr = pl.as_array()
        assert arr.shape == (3, 2)
        assert np.allclose(arr[2], [1, 1])

    def test_loop(self):
        pl = Polyline(
            (Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(0, 0))
        )
        assert pl.is_loop()

    def test_too_short(self):
        with pytest.raises(ValueError):
            Polyline((Point2(0, 0),))


def test_drop_repeats():
    pts = [Point2(0, 0), Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(0, 0)]
    assert drop_repeats(pts) == (Point2(0, 0), Point2(1, 0), Point2(0, 0))
    assert drop_repeats([]) == ()


def test_sample_skips_a_point_segment():
    p, q = Point2(0, 0), Point2(1, 1)
    point_seg = CubicBezier(p, p, p, p)
    curve = SplineCurve((point_seg, CubicBezier(p, p, q, q)))
    poly = curve.sample(4)
    assert poly.points[0] == p
    assert len(poly) == 5  # the point segment adds one vertex, not four


def test_closest_approach():
    a = Polyline(tuple(Point2(x, 0.0) for x in np.linspace(0, 10, 21)))
    b = Polyline(tuple(Point2(x, 3.0 - x) for x in np.linspace(0, 10, 21)))
    i, j, d = closest_approach(a, b)
    # the crossing at x = 3 falls on a shared vertex
    assert a.points[i].x == 3.0
    assert d == 0.0
    assert abs(a.points[i].dist(b.points[j]) - d) < 1e-15


def test_points_csv_roundtrip(tmp_path):
    pts = [Point2(0.125, -3.5), Point2(math.pi, 2.0), Point2(-1e-9, 7.25)]
    path = tmp_path / "pts.csv"
    save_points(path, pts)
    back = load_points(path)
    assert len(back) == 3
    for p, q in zip(pts, back):
        assert p.dist(q) == 0.0


def test_load_points_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nfoo,bar\n")
    with pytest.raises(ValueError):
        load_points(path)


@pytest.mark.parametrize("row", ["1,x", "1,2,3"])
def test_load_points_error_names_the_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0\n{row}\n")
    with pytest.raises(PointFileError, match=":2: "):
        load_points(path)


def test_points_from_pairs():
    pts = points_from_pairs([(0, 1), (2.5, -3)])
    assert pts == [Point2(0, 1), Point2(2.5, -3)]
