"""LaTeX picture and SVG emission: exact bytes, wrapping, dashes, labels."""

import math
import re
from decimal import ROUND_HALF_UP, Decimal
from itertools import starmap

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinefig import render
from scalar_reference import Point2
from splinefig.geom import Polyline
from splinefig.render import (
    CM_TO_PX,
    DISC_DIAMETER,
    DrawItem,
    Label,
    RenderError,
    Scene,
    Style,
    emit_latex,
    emit_svg,
    fmt5,
    fmt5_column,
    scene_from_items,
)
from splinefig.spline import SplineMethod, build_spline

UNIT_LINE = Polyline((Point2(0.0, 0.0), Point2(1.0, 0.0)))


def unit_scene(*items: DrawItem) -> Scene:
    return Scene(tuple(items), (1.0, 1.0, 0.0, 0.0))


class TestFmt5:
    def test_five_decimals_always(self):
        assert fmt5(2.943) == "2.94300"
        assert fmt5(0.0) == "0.00000"
        assert fmt5(-3.3) == "-3.30000"
        assert fmt5(12.0) == "12.00000"

    def test_ties_round_away_from_zero(self):
        assert fmt5(0.000005) == "0.00001"
        assert fmt5(-0.000005) == "-0.00001"
        assert fmt5(0.000015) == "0.00002"

    def test_no_negative_zero(self):
        assert fmt5(-0.0) == "0.00000"
        assert fmt5(-1e-9) == "0.00000"

    def test_more_digits_than_the_decimal_context_rejected(self):
        assert fmt5(9e22) == "90000000000000000000000.00000"
        with pytest.raises(RenderError):
            fmt5(1e24)

    def test_nonfinite_rejected(self):
        with pytest.raises(RenderError):
            fmt5(float("nan"))
        with pytest.raises(RenderError):
            fmt5(float("inf"))


def _fmt5_reference(x: float) -> str:
    """fmt5's rule spelled out: repr(x) rounded half up in Decimal."""
    q = Decimal(repr(x)).quantize(Decimal("0.00001"), rounding=ROUND_HALF_UP)
    return str(abs(q) if q.is_zero() else q)


def _neighbours(x: float) -> tuple[float, float, float]:
    return math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)


class TestFmt5Reference:
    """fmt5 writes what the Decimal rule writes, on and off its fast path."""

    @settings(max_examples=500)
    @given(st.floats(-1e22, 1e22) | st.floats(-1e-3, 1e-3) | st.floats(-1e10, 1e10))
    def test_property_floats(self, x):
        assert fmt5(x) == _fmt5_reference(x)

    @given(st.integers(-(10**21), 10**21))
    def test_property_ints(self, n):
        assert fmt5(n) == _fmt5_reference(n)
        assert fmt5(float(n)) == _fmt5_reference(float(n))

    def test_signed_zeros(self):
        assert fmt5(0.0) == fmt5(-0.0) == _fmt5_reference(-0.0) == "0.00000"

    def test_ties_and_their_neighbours(self):
        # (2k + 1) / 200000 is the float nearest the tie (k + 1/2) * 1e-5;
        # 3125 / 200000 = 2**-6 is the tie itself.  Every tie in
        # [-0.2, 0.2], then a run of them at each power of ten to 1e8
        ks = list(range(-20_000, 20_000))
        for e in range(5, 14):
            ks.extend(k for c in (10**e, -(10**e)) for k in range(c - 100, c + 100))
        for k in ks:
            for x in _neighbours((2 * k + 1) / 200_000):
                assert fmt5(x) == _fmt5_reference(x), x

    def test_around_the_fast_path_bound(self):
        # ties and values a few ulps either side of 1e9, where one ulp
        # is 1.2e-7
        for centre in (1e9, 1e9 - 0.5e-5, 1e9 + 0.5e-5, 999_999_999.99999):
            for sign in (1.0, -1.0):
                x = sign * centre
                for _ in range(40):
                    x = math.nextafter(x, math.inf)
                    assert fmt5(x) == _fmt5_reference(x), x
                for _ in range(80):
                    x = math.nextafter(x, -math.inf)
                    assert fmt5(x) == _fmt5_reference(x), x
        for k in range(-1000, 1000):
            for x in _neighbours(1e9 + (2 * k + 1) / 200_000):
                assert fmt5(x) == _fmt5_reference(x), x

    @pytest.mark.parametrize(
        "x",
        [1e-05, 5e-06, -5e-06, 1.5e-05, 4.9999999e-06, 5.000001e-06, 1e-300,
         -2.5e-07, 1e16, -1.2345e20, 9.999999999999999e21],
    )
    def test_exponent_form_reprs(self, x):
        assert "e" in repr(x)
        for y in _neighbours(x):
            assert fmt5(y) == _fmt5_reference(y)


class TestFmt5ColumnReference(TestFmt5Reference):
    """TestFmt5Reference's checks, unedited, with `fmt5` in them writing
    each value as a one-value column of fmt5_column.

    Hypothesis runs a @given method from one class only, so the two
    properties are given again here, around the same bodies and with
    the same strategies.
    """

    @pytest.fixture(autouse=True, scope="class")
    def _column_as_fmt5(self):
        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(globals(), "fmt5", lambda x: fmt5_column([x])[0])
            yield

    test_property_floats = settings(max_examples=500)(
        given(st.floats(-1e22, 1e22) | st.floats(-1e-3, 1e-3) | st.floats(-1e10, 1e10))(
            TestFmt5Reference.test_property_floats.hypothesis.inner_test
        )
    )
    test_property_ints = given(st.integers(-(10**21), 10**21))(
        TestFmt5Reference.test_property_ints.hypothesis.inner_test
    )


column_values = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, -1e-9, -4.4e-6, -4.6e-6, 5e-6, -5e-6, 1.5e-5, 1e9, -1e9, 9e22]
)


@settings(max_examples=300)
@given(st.lists(column_values | st.floats(-10.0, 10.0), max_size=40))
def test_property_column_is_fmt5_of_each_value(values):
    try:
        want = [fmt5(x) for x in values]
    except RenderError:
        with pytest.raises(RenderError):
            fmt5_column(values)
        return
    assert fmt5_column(values) == want


def test_column_past_the_fast_path_bound():
    # from 1e9 up an ulp is 1.2e-7 or more, so x and repr(x) may round
    # apart: ties and their neighbours up to 1e12 all take fmt5's road
    values = [
        y
        for centre in (1e9, 2.5e9, 3e10, 4.4e11, 7.7e11)
        for k in range(-300, 300)
        for y in _neighbours(centre + (2 * k + 1) / 200_000)
    ]
    assert fmt5_column(values) == [fmt5(x) for x in values]


@settings(max_examples=200)
@given(
    st.lists(st.integers(-(10**15), 10**15) | st.integers(-(10**6), 10**6), max_size=20),
    st.integers(-3, 3),
)
def test_property_column_is_fmt5_at_ties_and_their_neighbours(ks, ulps):
    # (2k + 1) / 200000 is the float nearest the tie (k + 1/2) * 1e-5, up
    # to 1e10 in size, where fmt5_column's band nears 1/2; then ulps
    # steps up or down from it
    values = []
    for k in ks:
        x = (2 * k + 1) / 200_000
        for _ in range(abs(ulps)):
            x = math.nextafter(x, math.copysign(math.inf, ulps))
        values.append(x)
    assert fmt5_column(values) == [fmt5(x) for x in values]


def test_column_sends_only_values_near_a_tie_to_fmt5(monkeypatch):
    # a band of 0.05 around each tie sent about 1 value in 10 to fmt5;
    # the rounding-sized band sends almost none
    values = np.random.default_rng(5).uniform(-10.0, 10.0, 20_000).tolist()
    calls = []
    real = render.fmt5
    monkeypatch.setattr(render, "fmt5", lambda x: calls.append(x) or real(x))
    text = fmt5_column(values)
    assert len(calls) < 10
    assert text == [real(x) for x in values]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e24])
def test_column_refuses_what_fmt5_refuses(bad):
    with pytest.raises(RenderError):
        fmt5_column([0.5, bad, 1.0])


class TestLatexStructure:
    def test_single_segment(self):
        poly = Polyline((Point2(0.0, 0.0), Point2(1.0, 1.0)))
        tex = emit_latex(unit_scene(DrawItem(poly)))
        assert "\\polyline(0.00000,0.00000)(1.00000,1.00000)%" in tex.splitlines()

    def test_header_footer_and_comment_guards(self):
        tex = emit_latex(Scene((DrawItem(UNIT_LINE),), (6.6, 4.6, -3.3, -2.3)))
        lines = tex.splitlines()
        assert lines[0] == "{\\unitlength=1cm%"
        assert lines[1] == "\\begin{picture}%"
        assert lines[2] == "(6.6,4.6)(-3.3,-2.3)%"
        assert lines[-1] == "\\end{picture}}"
        # every drawing line is %-terminated so \input never injects spaces
        for line in lines[:-1]:
            assert line.endswith("%")

    def test_five_pairs_per_line(self):
        pts = tuple(Point2(0.1 * k, 0.0) for k in range(12))
        tex = emit_latex(Scene((DrawItem(Polyline(pts)),), (1.2, 1.0, 0.0, 0.0)))
        rows = [l for l in tex.splitlines() if "(0." in l or "(1." in l]
        rows = [l for l in rows if not l.startswith("(6")]
        counts = [l.count("(") for l in rows[1:]]  # skip the size header
        assert rows[1].startswith("\\polyline(")
        assert counts == [5, 5, 2]

    def test_closed_quad_figure(self):
        # the classic inscribed quadrilateral, 10 samples per arc
        quad = [Point2(3, 0), Point2(0, 2), Point2(-3, 0), Point2(0, -2)]
        sp = build_spline(quad, method=SplineMethod.CATMULL_ROM, closed=True)
        scene = Scene((DrawItem(sp.sample(10)),), (6.6, 4.6, -3.3, -2.3))
        body = emit_latex(scene).splitlines()[4:-1]
        assert body == [
            "\\polyline(3.00000,0.00000)(2.94300,0.21800)(2.78400,0.46400)(2.54100,0.72600)(2.23200,0.99200)%",
            "(1.87500,1.25000)(1.48800,1.48800)(1.08900,1.69400)(0.69600,1.85600)(0.32700,1.96200)%",
            "(0.00000,2.00000)(-0.32700,1.96200)(-0.69600,1.85600)(-1.08900,1.69400)(-1.48800,1.48800)%",
            "(-1.87500,1.25000)(-2.23200,0.99200)(-2.54100,0.72600)(-2.78400,0.46400)(-2.94300,0.21800)%",
            "(-3.00000,0.00000)(-2.94300,-0.21800)(-2.78400,-0.46400)(-2.54100,-0.72600)(-2.23200,-0.99200)%",
            "(-1.87500,-1.25000)(-1.48800,-1.48800)(-1.08900,-1.69400)(-0.69600,-1.85600)(-0.32700,-1.96200)%",
            "(0.00000,-2.00000)(0.32700,-1.96200)(0.69600,-1.85600)(1.08900,-1.69400)(1.48800,-1.48800)%",
            "(1.87500,-1.25000)(2.23200,-0.99200)(2.54100,-0.72600)(2.78400,-0.46400)(2.94300,-0.21800)%",
            "(3.00000,0.00000)%",
        ]

    def test_dashed_runs(self):
        tex = emit_latex(unit_scene(DrawItem(UNIT_LINE, Style.DASHED)))
        assert tex.splitlines()[4:-1] == [
            "\\polyline(0.00000,0.00000)(0.10000,0.00000)\\polyline(0.20000,0.00000)(0.30000,0.00000)%",
            "\\polyline(0.40000,0.00000)(0.50000,0.00000)\\polyline(0.60000,0.00000)(0.70000,0.00000)%",
            "\\polyline(0.80000,0.00000)(0.90000,0.00000)%",
        ]

    def test_dash_count_is_bounded(self, monkeypatch):
        # the unit line takes 5 runs: at the bound it is drawn, past it
        # refused from its length before any dash point is made
        monkeypatch.setattr(render, "MAX_DASHES", 5)
        assert emit_latex(unit_scene(DrawItem(UNIT_LINE, Style.DASHED))).count("polyline") == 5
        monkeypatch.setattr(render, "MAX_DASHES", 4)
        monkeypatch.setattr(render, "_arc_length_points", None)
        with pytest.raises(RenderError, match="dashed line 1 cm long needs more than 4 dashes"):
            emit_latex(unit_scene(DrawItem(UNIT_LINE, Style.DASHED)))

    def test_vertex_discs(self):
        pts = Polyline((Point2(0, 0), Point2(0.5, 0.5), Point2(1, 0)))
        tex = emit_latex(unit_scene(DrawItem(pts, Style.DOTTED_DISC)))
        assert tex.count(f"\\circle*{{{DISC_DIAMETER:g}}}") == 3

    def test_linethickness_on_change_only(self):
        # every line has one width: written once, before the first item
        items = [DrawItem(UNIT_LINE, style) for style in Style]
        lines = emit_latex(unit_scene(*items)).splitlines()
        assert [l for l in lines if "\\linethickness" in l] == [
            "\\linethickness{0.008in}%"
        ]
        assert lines[3] == "\\linethickness{0.008in}%"
        assert "\\linethickness" not in emit_latex(unit_scene())

    def test_label_alignment_map(self):
        # a label is centred on its anchor: a makebox with no position
        item = DrawItem(UNIT_LINE, label=Label("X", Point2(0.5, 0.5)))
        tex = emit_latex(unit_scene(item))
        assert "\\put(0.50000,0.50000){\\makebox(0,0){X}}%" in tex.splitlines()

    def test_deterministic_bytes(self):
        def build():
            quad = [Point2(3, 0), Point2(0, 2), Point2(-3, 0), Point2(0, -2)]
            sp = build_spline(quad, closed=True)
            return emit_latex(Scene((DrawItem(sp.sample(7)),), (6.6, 4.6, -3.3, -2.3)))

        assert build() == build()


class TestSceneValidation:
    def test_slack_is_five_percent(self):
        inside = Polyline((Point2(0, 0), Point2(1.04, 0)))
        Scene((DrawItem(inside),), (1.0, 1.0, 0.0, 0.0))
        outside = Polyline((Point2(0, 0), Point2(1.06, 0)))
        with pytest.raises(RenderError):
            Scene((DrawItem(outside),), (1.0, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "bbox, message",
        [
            ((2e299, 1.0, 0.0, 0.0), "2e+299"),
            ((1.0, 1e24, 0.0, 0.0), "1e+24"),
            # the size is writable, the far corner widened by 5% is not
            ((9.6e22, 1.0, 0.0, 0.0), "1.008e+23"),
            ((1.0, 4e21, 0.0, -9.99e22), "-1.0009999999999999e+23"),
        ],
    )
    def test_box_fmt5_cannot_write_is_refused(self, bbox, message):
        match = re.escape(f"cannot format {message} with five decimals")
        with pytest.raises(RenderError, match=match):
            Scene((), bbox)

    def test_box_must_have_positive_size(self):
        with pytest.raises(RenderError):
            Scene((), (0.0, 1.0, 0.0, 0.0))

    def test_fitted_box(self):
        scene = scene_from_items([DrawItem(UNIT_LINE)])
        w, h, x0, y0 = scene.bbox
        assert w == pytest.approx(1.1)
        assert h == pytest.approx(0.1)
        assert x0 == pytest.approx(-0.05)
        assert y0 == pytest.approx(-0.05)

    def test_fitted_box_covers_label_anchors(self):
        item = DrawItem(UNIT_LINE, label=Label("far", Point2(0.5, 3.0)))
        w, h, x0, y0 = scene_from_items([item]).bbox
        assert y0 + h >= 3.0

    def test_no_items(self):
        scene = scene_from_items([])
        assert scene.items == ()
        assert scene.bbox == (1.0, 1.0, 0.0, 0.0)


class TestSvg:
    def test_document_shape(self):
        svg = emit_svg(unit_scene(DrawItem(UNIT_LINE)))
        assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        assert 'width="37.795" height="37.795"' in svg
        assert svg.rstrip().endswith("</svg>")

    def test_y_axis_points_up(self):
        # (0.25, 0.25) in a unit box lands at user units (9.449, 28.346)
        poly = Polyline((Point2(0.25, 0.25), Point2(0.75, 0.75)))
        svg = emit_svg(unit_scene(DrawItem(poly)))
        assert 'd="M9.449 28.346 L28.346 9.449"' in svg

    def test_dash_array(self):
        svg = emit_svg(unit_scene(DrawItem(UNIT_LINE, Style.DASHED)))
        assert 'stroke-dasharray="3.7795 3.7795"' in svg

    def test_disc_radius(self):
        svg = emit_svg(unit_scene(DrawItem(UNIT_LINE, Style.DOTTED_DISC)))
        r = 0.5 * DISC_DIAMETER * CM_TO_PX
        assert svg.count(f'r="{r:.3f}"') == 2

    def test_text_anchors(self):
        item = DrawItem(UNIT_LINE, label=Label("X", Point2(0.5, 0.5)))
        svg = emit_svg(unit_scene(item))
        assert (
            '<text x="18.898" y="18.898" font-size="12" '
            'text-anchor="middle" dy="4">X</text>'
        ) in svg.splitlines()

    def test_deterministic_bytes(self):
        scene = unit_scene(DrawItem(UNIT_LINE, Style.DASHED))
        assert emit_svg(scene) == emit_svg(scene)


_COORD = re.compile(r"\((-?\d+\.\d+),(-?\d+\.\d+)\)")


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5, allow_nan=False),
                st.floats(-5, 5, allow_nan=False),
            ),
            min_size=2,
            max_size=8,
        ),
        st.sampled_from(list(Style)),
    )
    def test_emission_is_deterministic_and_five_decimal(self, coords, style):
        pts = [Point2(x, y) for x, y in coords]
        pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
        if len(pts) < 2:
            pts = [Point2(0, 0), Point2(1, 1)]
        poly = Polyline(tuple(pts))
        scene = scene_from_items([DrawItem(poly, style)])
        tex = emit_latex(scene)
        assert tex == emit_latex(scene)
        body = tex.splitlines()[3:]
        for line in body:
            for mx, my in _COORD.findall(line):
                assert len(mx.split(".")[1]) == 5
                assert len(my.split(".")[1]) == 5
        assert emit_svg(scene) == emit_svg(scene)


# ---------------------------------------------------------------------------
# The Point2 emitters, a vertex at a time: the reference for the ones that
# read each polyline as its (n, 2) array.


def _vertices(item) -> list[Point2]:
    return list(starmap(Point2, item.polyline.points.tolist()))


def _ref_dash_runs(pts: list[Point2]) -> list[Point2]:
    """The dash run ends, run k from point 2k to point 2k + 1: a point
    every DASH_STEP of arc length, both ends included, paired off."""
    step = render.DASH_STEP
    out = [pts[0]]
    carry = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = a.dist(b)
        if seg == 0.0:
            continue
        s = step - carry
        while s <= seg:
            t = s / seg
            out.append(Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
            s += step
        carry = (carry + seg) % step
    if out[-1].dist(pts[-1]) > 1e-12:
        out.append(pts[-1])
    return out[: len(out) // 2 * 2]


def _ref_pairs(points) -> list[str]:
    text = fmt5_column([c for p in points for c in (p.x, p.y)])
    return [f"({x},{y})" for x, y in zip(text[::2], text[1::2])]


def _ref_fit(items) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for item in items:
        for p in _vertices(item):
            xs.append(p.x)
            ys.append(p.y)
        if item.label is not None:
            xs.append(item.label.anchor.x)
            ys.append(item.label.anchor.y)
    if not xs:
        return (1.0, 1.0, 0.0, 0.0)
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    margin = render.SCENE_PAD * max(x1 - x0, y1 - y0, 1.0)
    return ((x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin, x0 - margin, y0 - margin)


def _ref_check(items, bbox) -> None:
    w, h, x0, y0 = bbox
    if not (w > 0 and h > 0):
        raise RenderError("bounding box must have positive size")
    sx, sy = 0.05 * w, 0.05 * h
    for c in (w, h, x0 - sx, x0 + w + sx, y0 - sy, y0 + h + sy):
        fmt5(c)
    for item in items:
        for p in _vertices(item):
            if not (x0 - sx <= p.x <= x0 + w + sx and y0 - sy <= p.y <= y0 + h + sy):
                raise RenderError(f"vertex ({p.x}, {p.y}) outside bounding box {bbox}")


def _ref_latex(items, bbox) -> str:
    w, h, x0, y0 = bbox
    short = render._fmt_short
    out = [
        "{\\unitlength=1cm%",
        "\\begin{picture}%",
        f"({short(w)},{short(h)})({short(x0)},{short(y0)})%",
    ]
    if items:
        out.append(f"\\linethickness{{{render.LINE_THICKNESS:g}in}}%")
    for item in items:
        pts = _vertices(item)
        if item.style is Style.SOLID:
            out.extend(render._wrap_pairs("\\polyline", _ref_pairs(pts)))
        elif item.style is Style.DASHED:
            ends = _ref_pairs(_ref_dash_runs(pts))
            chunks = [f"\\polyline{a}{b}" for a, b in zip(ends[::2], ends[1::2])]
            out.extend(render._wrap_pairs("", chunks, 2))
        else:
            chunks = [
                f"\\put{p}{{\\circle*{{{DISC_DIAMETER:g}}}}}" for p in _ref_pairs(pts)
            ]
            out.extend(render._wrap_pairs("", chunks, 2))
        if item.label is not None:
            (anchor,) = _ref_pairs([item.label.anchor])
            out.append(f"\\put{anchor}{{\\makebox(0,0){{{item.label.text}}}}}%")
    out.append("\\end{picture}}")
    return "\n".join(out) + "\n"


def _ref_svg_xy(p: Point2, bbox) -> tuple[float, float]:
    w, h, x0, y0 = bbox
    return (p.x - x0) * CM_TO_PX, (y0 + h - p.y) * CM_TO_PX


def _ref_svg_path(pts) -> str:
    words = []
    for k, (x, y) in enumerate(pts):
        cmd = "M" if k == 0 else "L"
        words.append(f"{cmd}{x:.3f} {y:.3f}")
    return " ".join(words)


def _ref_svg(items, bbox) -> str:
    w, h, x0, y0 = bbox
    width, height = w * CM_TO_PX, h * CM_TO_PX
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" '
        f'height="{height:.3f}" viewBox="0 0 {width:.3f} {height:.3f}">',
    ]
    dash = f"{render.DASH_STEP * CM_TO_PX:.4f}"
    common = (
        f'fill="none" stroke="black" '
        f'stroke-width="{render.LINE_THICKNESS * 96.0:.3f}"'
    )
    for item in items:
        pts = [_ref_svg_xy(p, bbox) for p in _vertices(item)]
        if item.style is Style.SOLID:
            out.append(f'<path {common} d="{_ref_svg_path(pts)}"/>')
        elif item.style is Style.DASHED:
            out.append(
                f'<path {common} stroke-dasharray="{dash} {dash}" '
                f'd="{_ref_svg_path(pts)}"/>'
            )
        else:
            r = 0.5 * DISC_DIAMETER * CM_TO_PX
            for x, y in pts:
                out.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="black"/>'
                )
        if item.label is not None:
            x, y = _ref_svg_xy(item.label.anchor, bbox)
            out.append(
                f'<text x="{x:.3f}" y="{y:.3f}" font-size="12" '
                f'text-anchor="middle" dy="4">{item.label.text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _reference(items, bbox=None) -> tuple[str, str] | str:
    """Both figures, or the RenderError text, the Point2 way."""
    try:
        bbox = _ref_fit(items) if bbox is None else bbox
        _ref_check(items, bbox)
        return _ref_latex(items, bbox), _ref_svg(items, bbox)
    except RenderError as exc:
        return str(exc)


def _emitted(items, bbox=None) -> tuple[str, str] | str:
    try:
        scene = scene_from_items(items) if bbox is None else Scene(items, bbox)
        return emit_latex(scene), emit_svg(scene)
    except RenderError as exc:
        return str(exc)


_TIES = st.integers(-3000, 3000).map(lambda k: (2 * k + 1) / 200_000)
_NEAR_1E9 = st.builds(
    lambda c, k: c + (2 * k + 1) / 200_000,
    st.sampled_from([1e9, -1e9, 999_999_999.0, -999_999_999.0]),
    st.integers(-50, 50),
)
_SHORT = (
    st.floats(-10.0, 10.0)
    | st.sampled_from([0.0, -0.0, -1e-9, 4.4e-6, -4.6e-6, 5e-6, 1e-300])
    | _TIES
)
_COORDS = _SHORT | _NEAR_1E9
_ODD = st.sampled_from([math.nan, math.inf, -math.inf, 2e22, -9e22])


def _nudged(values):
    """A value a few ulps either side of one drawn from values."""
    def step(x, k):
        for _ in range(abs(k)):
            x = math.nextafter(x, math.copysign(math.inf, k))
        return x

    return st.builds(step, values, st.integers(-3, 3))


@st.composite
def _items(draw, coords):
    items = []
    for _ in range(draw(st.integers(1, 4))):
        style = draw(st.sampled_from(list(Style)))
        # dashes are cut every DASH_STEP along the line, so a dashed line
        # stays short
        xy = _SHORT if style is Style.DASHED else coords
        pts = draw(st.lists(st.builds(Point2, xy, xy), min_size=2, max_size=8))
        pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
        if len(pts) < 2:
            continue
        label = draw(st.none() | st.builds(Label, st.just("L"), st.builds(Point2, coords, coords)))
        items.append(DrawItem(Polyline(tuple(pts)), style, label))
    return items


class TestArrayEmittersMatchTheReference:
    """scene_from_items, the Scene check and both emitters read each
    polyline as an array; the bytes, or the refusal, are the Point2 ones."""

    @settings(max_examples=200, deadline=None)
    @given(_items(_nudged(_COORDS) | _ODD))
    def test_property_fitted_scene(self, items):
        assert _emitted(items) == _reference(items)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.builds(Point2, _SHORT, _SHORT), min_size=2, max_size=8))
    def test_property_dash_runs_are_the_point2_ones_bit_for_bit(self, pts):
        pts = [p for k, p in enumerate(pts) if k == 0 or p != pts[k - 1]]
        assume(len(pts) >= 2)
        want = [(p.x, p.y) for p in _ref_dash_runs(pts)]
        got = render._dash_runs(Polyline(tuple(pts)).points)
        assert got.dtype == np.float64 and got.shape == (len(want), 2)
        assert got.tobytes() == np.array(want).reshape(-1, 2).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        _items(_nudged(_COORDS)),
        st.data(),
        st.sampled_from([0.5, 1.0, 3.0]),
        st.integers(-2, 2),
        st.integers(-2, 2),
    )
    def test_property_box_edge_through_a_vertex(self, items, data, size, kx, ky):
        # a box whose slack edge passes through one vertex, moved a few
        # ulps either way: the first vertex outside, in item order, is named
        assume(items)
        vertices = [p for item in items for p in _vertices(item)]
        v = data.draw(st.sampled_from(vertices))
        x0, y0 = v.x - 1.05 * size, v.y + 0.05 * size
        for _ in range(abs(kx)):
            x0 = math.nextafter(x0, math.copysign(math.inf, kx))
        for _ in range(abs(ky)):
            y0 = math.nextafter(y0, math.copysign(math.inf, ky))
        bbox = (size, size, x0, y0)
        assert _emitted(items, bbox) == _reference(items, bbox)

    def test_first_vertex_outside_is_named(self):
        a = Polyline((Point2(0.0, 0.0), Point2(2.0, 0.0), Point2(3.0, 0.0)))
        b = Polyline((Point2(0.0, 0.0), Point2(-0.5, 0.0)))
        with pytest.raises(RenderError, match=re.escape("vertex (-0.5, 0.0) outside")):
            Scene((DrawItem(b), DrawItem(a)), (1.0, 1.0, 0.0, 0.0))
        with pytest.raises(RenderError, match=re.escape("vertex (2.0, 0.0) outside")):
            Scene((DrawItem(a), DrawItem(b)), (1.0, 1.0, 0.0, 0.0))

    def test_box_of_non_finite_vertices_follows_item_order(self):
        # Python's min and max keep their first operand against NaN
        a = DrawItem(Polyline((Point2(math.nan, 0.0), Point2(1.0, 1.0))))
        b = DrawItem(Polyline((Point2(-1.0, 0.0), Point2(2.0, 1.0))))
        for items in ([a, b], [b, a]):
            assert _emitted(items) == _reference(items)
