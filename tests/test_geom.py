import ast
import math
import warnings
from itertools import starmap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scalar_reference import Point2, point_at
from splinefig import calculus
from splinefig.geom import (
    PointFileError,
    Polyline,
    SplineCurve,
    diameter,
    drop_repeats,
    load_points,
    split,
    xy_array,
)
from splinefig.implicit import TraceConfig, trace_implicit
from splinefig.surface import _piece

B = [Point2(0, 0), Point2(1, 2), Point2(3, 2), Point2(4, 0)]

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


class TestBezier:
    def test_endpoints(self):
        assert point_at(B, 0.0) == B[0]
        assert point_at(B, 1.0) == B[3]
        left, right = split(B, 0.25)
        assert left[0] == B[0] and right[-1] == B[3] and left[-1] == right[0]

    def test_midpoint(self):
        # (p0 + 3 p1 + 3 p2 + p3) / 8
        assert point_at(B, 0.5) == Point2(2.0, 1.5)
        assert split(B, 0.5) == (
            [(0.0, 0.0), (0.5, 1.0), (1.25, 1.5), (2.0, 1.5)],
            [(2.0, 1.5), (2.75, 1.5), (3.5, 1.0), (4.0, 0.0)],
        )

    def test_derivative_at_ends(self):
        assert calculus._velocity(B, 0.0) == (3.0, 6.0)
        assert calculus._velocity(B, 1.0) == (3.0, -6.0)

    @given(unit, unit)
    def test_subdivide_matches_original(self, ts, t):
        ts = min(max(ts, 1e-6), 1 - 1e-6)
        left, right = split(B, ts)
        want = point_at(B, ts * t)
        got = point_at(left, t)
        assert got.dist(want) < 1e-12
        want = point_at(B, ts + (1 - ts) * t)
        got = point_at(right, t)
        assert got.dist(want) < 1e-12

    @given(unit, unit, unit)
    def test_slice_matches_original(self, t0, t1, t):
        t0, t1 = sorted((t0, t1))
        if t1 - t0 < 1e-6:
            return
        piece = calculus._clip(B, t0, t1)
        want = point_at(B, t0 + (t1 - t0) * t)
        assert point_at(piece, t).dist(want) < 1e-10

    @given(unit)
    def test_bbox_contains_curve(self, t):
        # a contact-search piece's box is its control points' box
        x0, y0, x1, y1 = _piece(*(c for p in B for c in p))[8:12]
        p = point_at(B, t)
        assert x0 - 1e-12 <= p.x <= x1 + 1e-12
        assert y0 - 1e-12 <= p.y <= y1 + 1e-12

    def test_bbox_from_hull(self):
        assert _piece(*(c for p in B for c in p))[8:12] == [0.0, 0.0, 4.0, 2.0]


class TestPolyline:
    def test_basics(self):
        pl = Polyline(((0, 0), (1, 0), (1, 1)))
        assert not pl.is_loop()
        assert pl.is_loop(math.sqrt(2.0))
        arr = pl.points
        assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
        assert not arr.flags.writeable
        assert arr.tolist() == [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]

    def test_loop(self):
        pl = Polyline(
            (Point2(0, 0), Point2(1, 0), Point2(0, 1), Point2(0, 0))
        )
        assert pl.is_loop()

    def test_too_short(self):
        with pytest.raises(ValueError):
            Polyline((Point2(0, 0),))

    def test_rows_are_c_ordered(self):
        # the compiled kernels read the vertices row after row
        xy = np.asfortranarray([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        pl = Polyline(xy)
        assert pl.points.flags.c_contiguous
        assert pl.points.tolist() == xy.tolist()


def _drop_repeats_reference(pts: list[Point2]) -> tuple[Point2, ...]:
    """The scalar rule: a point is kept unless it equals the one before."""
    return tuple(pts[:1]) + tuple(
        b for a, b in zip(pts, pts[1:]) if a.x != b.x or a.y != b.y
    )


few_values = st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf])


def _old_polyline_refuses(points, space=None, params=None) -> bool:
    """The Point2 constructor's checks: at least two points, no two
    consecutive ones equal, annotations as long as the points."""
    pts = tuple(points)
    return (
        len(pts) < 2
        or any(a.x == b.x and a.y == b.y for a, b in zip(pts, pts[1:]))
        or (space is not None and len(space) != len(pts))
        or (params is not None and len(params) != len(pts))
    )


@given(
    st.lists(st.builds(Point2, few_values, few_values), max_size=6),
    st.none() | st.integers(0, 7),
    st.none() | st.integers(0, 7),
)
def test_property_polyline_refuses_what_the_point2_constructor_refused(
    pts, n_space, n_params
):
    space = None if n_space is None else np.arange(3.0 * n_space).reshape(-1, 3)
    params = None if n_params is None else ((0.0, -0.0),) * n_params
    refused = _old_polyline_refuses(pts, space, params)
    xy = np.array([(p.x, p.y) for p in pts]).reshape(-1, 2)
    for given_as in (pts, tuple(pts), xy):
        try:
            poly = Polyline(given_as, space, params)
        except ValueError:
            assert refused
            continue
        assert not refused
        # the vertices are one read-only float64 copy, signed zeros kept
        assert _reprs(poly.points) == _reprs(pts)
        assert poly.points is poly.points
        assert poly.points.dtype == np.float64 and poly.points.shape == (len(pts), 2)
        assert not poly.points.flags.writeable
        assert not np.shares_memory(poly.points, xy)
        for given_rows, rows in ((space, poly.space), (params, poly.params)):
            if given_rows is None:
                assert rows is None
                continue
            # a read-only float64 copy, signed zeros kept
            assert rows.dtype == np.float64 and not rows.flags.writeable
            assert rows.tobytes() == np.array(given_rows, dtype=float).tobytes()


def test_lengths_build_no_point2():
    # bench/spans.py counts vertices as len(poly.points) and segments as
    # len(curve.segments) inside traced runs; the library has no point
    # or segment class to build (test_src_has_one_point_and_one_cubic_form)
    curve = _chain([0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 4.0, 0.0, 5.0, 1.0, 6.0, 2.0, 7.0, 0.0])
    assert len(curve.segments) == 2 and curve.segments is curve.ctrl
    assert len(curve.sample(10).points) == 21
    comps = trace_implicit("x^2 + y^2 - 1", TraceConfig((-2.0, 2.0), (-2.0, 2.0), 40))
    assert sum(len(p.points) for p in comps) > 40
    # reading the vertices builds nothing either: they are the array's rows
    poly = comps[0]
    assert poly.points[0].tolist() == poly.points.tolist()[0]
    assert len(list(poly.points)) == len(poly.points)


def test_drop_repeats():
    pts = [Point2(0, 0), Point2(0, 0), Point2(1, 0), Point2(1, 0), Point2(0, 0)]
    assert drop_repeats(pts).tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    assert drop_repeats([]).shape == (0, 2)


@given(st.lists(st.builds(Point2, few_values, few_values), max_size=12))
def test_property_drop_repeats_is_the_scalar_rule(pts):
    # -0.0 equals 0.0 and NaN equals nothing, as in the scalar test
    want = _reprs(_drop_repeats_reference(pts))
    assert _reprs(starmap(Point2, drop_repeats(pts).tolist())) == want
    xy = np.array([(p.x, p.y) for p in pts]).reshape(-1, 2)
    assert _reprs(starmap(Point2, drop_repeats(xy).tolist())) == want


def test_sample_skips_a_point_segment():
    p, q = Point2(0, 0), Point2(1, 1)
    curve = SplineCurve([[p, p, p, p], [p, p, q, q]])
    poly = curve.sample(4)
    assert poly.points[0].tolist() == [p.x, p.y]
    assert len(poly.points) == 5  # the point segment adds one vertex, not four


def _sample_reference(curve: SplineCurve, per_segment: int) -> tuple[Point2, ...]:
    """The sampled vertices one split call at a time."""
    segs = curve.ctrl.tolist()
    pts = [point_at(seg, i / per_segment) for seg in segs for i in range(per_segment)]
    pts.append(point_at(segs[-1], 1.0))
    return _drop_repeats_reference(pts)


def _reprs(points) -> list[tuple[str, str]]:
    """Point2s or (n, 2) rows as repr pairs: repr tells -0.0 from 0.0
    and reads back to the same bits; NaN is "nan"."""
    if isinstance(points, np.ndarray):
        return [(repr(x), repr(y)) for x, y in points.tolist()]
    return [(repr(p.x), repr(p.y)) for p in points]


def _check_sample(curve: SplineCurve, per_segment: int) -> None:
    want = _sample_reference(curve, per_segment)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if len(want) < 2:
            with pytest.raises(ValueError):
                curve.sample(per_segment)
            return
        got = curve.sample(per_segment).points
    assert _reprs(got) == _reprs(want)


def _chain(coords: list[float]) -> SplineCurve:
    pts = [Point2(x, y) for x, y in zip(coords[::2], coords[1::2])]
    k = (len(pts) - 1) // 3
    return SplineCurve([pts[3 * i : 3 * i + 4] for i in range(k)])


huge = st.sampled_from([1.7e308, -1.7e308, 1e308, -1e308, 8e307, 0.0, -0.0])


@settings(max_examples=300, deadline=None)
@given(
    segments=st.integers(1, 4),
    data=st.data(),
    per_segment=st.integers(1, 40),
)
def test_property_sample_is_bezier_eval_bit_for_bit(segments, data, per_segment):
    coord_or_huge = st.floats(allow_nan=False, allow_infinity=False) | huge
    n = 2 * (3 * segments + 1)
    coords = data.draw(st.lists(coord_or_huge, min_size=n, max_size=n))
    _check_sample(_chain(coords), per_segment)


def test_sample_matches_bezier_eval_for_every_count():
    curve = _chain([0.0, 0.0, 1.0, 2.0, 3.0, 2.0, 4.0, 0.0, 5.0, -1.0, 0.1, 0.3, 7.0, 7.0])
    for per_segment in range(1, 41):
        _check_sample(curve, per_segment)


def test_sample_overflows_where_bezier_eval_does():
    # x differences past the largest float are inf, and the next lerp
    # (or inf * 0 at t = 0) makes them NaN; y stays finite
    curve = _chain([-1e308, 0.0, 1e308, 1.0, 1e308, 2.0, -1e308, 3.0])
    for per_segment in (1, 2, 7, 40):
        _check_sample(curve, per_segment)
    poly = curve.sample(7)
    assert np.isnan(poly.points[:, 0]).all()
    assert np.isfinite(poly.points[:, 1]).all()


def test_points_csv_roundtrip(tmp_path):
    # every float written as its repr reads back exactly; integers read as floats
    pts = [Point2(0.125, -3.5), Point2(math.pi, 2.0), Point2(-1e-9, 7.25)]
    path = tmp_path / "pts.csv"
    path.write_text("".join(f"{p.x!r},{p.y!r}\n" for p in pts) + "0, 1\n")
    back = load_points(path)
    assert back.dtype == np.float64
    assert back.tolist() == [[p.x, p.y] for p in pts] + [[0.0, 1.0]]


def test_load_points_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\nfoo,bar\n")
    with pytest.raises(ValueError):
        load_points(path)


@pytest.mark.parametrize("row", ["1,x", "1,2,3", "nan,1", "1,-inf"])
def test_load_points_error_names_the_line(tmp_path, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"0,0\n{row}\n")
    with pytest.raises(PointFileError, match=":2: "):
        load_points(path)


def _pairwise_diameter(points) -> float:
    """The double loop over every pair, kept as the reference."""
    spread = 0.0
    for m in range(len(points)):
        for k in range(m + 1, len(points)):
            spread = max(spread, points[m].dist(points[k]))
    return spread


# free points, and points on a small lattice, which are often collinear
cluster_coord = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0]) | st.floats(-1e3, 1e3)
lattice_coord = st.integers(-3, 3).map(float)
clusters = st.lists(
    st.builds(Point2, cluster_coord, cluster_coord)
    | st.builds(Point2, lattice_coord, lattice_coord),
    max_size=40,
)


@settings(max_examples=300)
@given(clusters)
def test_property_hull_diameter_is_the_pairwise_maximum(points):
    assert diameter(points) == _pairwise_diameter(points)


def test_diameter_of_collinear_and_repeated_points():
    line = [Point2(k / 7, 2 * k / 7) for k in range(8)]
    assert diameter(line) == line[0].dist(line[-1])
    assert diameter([Point2(1, 1)] * 3) == 0.0
    assert diameter([Point2(1, 1)]) == diameter([]) == 0.0


def test_diameter_of_a_duplicate_heavy_cluster():
    # as contact-demo's cluster at theta 90, phi 0 (16 362 midpoints, 655
    # distinct): the hull keeps every copy of a point on it unless the
    # copies are dropped first, and pairing those copies took minutes
    distinct = [Point2(math.cos(k / 9), math.sin(k / 9) / 3) for k in range(40)]
    distinct += [Point2(k / 7, 0.0) for k in range(-7, 8)]  # collinear, on an edge
    cluster = [p for _ in range(300) for p in distinct]
    assert diameter(cluster) == _pairwise_diameter(distinct)
    assert diameter(cluster[::-1]) == diameter(distinct)


class TestXyArray:
    def test_pairs_are_rows(self):
        xy = xy_array([(0, 1), (2.5, -3)])
        assert xy.dtype == np.float64 and xy.tolist() == [[0.0, 1.0], [2.5, -3.0]]
        assert xy_array([Point2(1, 2)]).tolist() == [[1.0, 2.0]]

    def test_an_array_is_returned_as_it_is(self):
        xy = np.zeros((3, 2))
        assert xy_array(xy) is xy

    def test_no_points(self):
        assert xy_array([]).shape == (0, 2)
        assert xy_array(np.zeros((0, 2))).shape == (0, 2)

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 1, 2), (3, 4, 5)],  # (2, 3), not to be read as (3, 2)
            np.zeros((3, 3)),
            [0.0, 1.0, 2.0, 3.0],  # (2n,)
            np.zeros(4),
            [(0, 1), (2,)],  # ragged
            [(0, 1), (2, 3, 4)],
        ],
    )
    def test_other_shapes_are_refused(self, points):
        with pytest.raises(ValueError):
            xy_array(points)


# the scalar forms the library once carried beside its arrays; their
# functions were named bezier_*
_SCALAR_FORMS = {"Point2", "CubicBezier", "_lerp"}


def _scalar_form_names(tree: ast.AST) -> list[str]:
    """Names of the scalar point and cubic forms that a module defines,
    imports or reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name.rsplit(".", 1)[-1] for a in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [n for n in names if n in _SCALAR_FORMS or n.startswith("bezier_")]
    return found


def test_src_has_one_point_and_one_cubic_form():
    # a point is an (x, y) pair or an array row, a cubic its control row
    src = Path(__file__).parents[1] / "src" / "splinefig"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 9
    found = {
        path.name: names
        for path in modules
        if (names := _scalar_form_names(ast.parse(path.read_text())))
    }
    assert found == {}


def test_the_src_guard_sees_each_form():
    for code in (
        "class Point2: pass",
        "from .geom import CubicBezier",
        "import splinefig.geom.Point2 as P",
        "def bezier_eval(b, t): pass",
        "x = geom.bezier_slice(b, 0, 1)",
        "y = _lerp(a, b, t)",
    ):
        assert _scalar_form_names(ast.parse(code)), code
    assert _scalar_form_names(ast.parse("from .geom import split")) == []
