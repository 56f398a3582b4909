"""LaTeX picture and SVG emission: exact bytes, wrapping, dashes, labels."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinefig.geom import Point2, Polyline
from splinefig.render import (
    CM_TO_PX,
    DISC_DIAMETER,
    DOT_DIAMETER,
    DrawItem,
    Label,
    RenderError,
    Scene,
    Style,
    emit_latex,
    emit_svg,
    fmt5,
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

    def test_dotted_spacing(self):
        tex = emit_latex(unit_scene(DrawItem(UNIT_LINE, Style.DOTTED)))
        assert tex.count(f"\\circle*{{{DOT_DIAMETER:g}}}") == 11
        rows = [l for l in tex.splitlines() if "circle" in l]
        assert all(l.count("\\put") <= 2 for l in rows)

    def test_vertex_discs(self):
        pts = Polyline((Point2(0, 0), Point2(0.5, 0.5), Point2(1, 0)))
        tex = emit_latex(unit_scene(DrawItem(pts, Style.DOTTED_DISC)))
        assert tex.count(f"\\circle*{{{DISC_DIAMETER:g}}}") == 3

    def test_linethickness_on_change_only(self):
        a = DrawItem(UNIT_LINE, thickness=0.008)
        b = DrawItem(UNIT_LINE, thickness=0.008)
        c = DrawItem(UNIT_LINE, thickness=0.003)
        tex = emit_latex(unit_scene(a, b, c))
        assert tex.count("\\linethickness") == 2
        assert "\\linethickness{0.008in}%" in tex
        assert "\\linethickness{0.003in}%" in tex

    def test_label_alignment_map(self):
        cases = {
            "c": "\\makebox(0,0){X}",
            "n": "\\makebox(0,0)[b]{X}",
            "s": "\\makebox(0,0)[t]{X}",
            "e": "\\makebox(0,0)[l]{X}",
            "w": "\\makebox(0,0)[r]{X}",
            "ne": "\\makebox(0,0)[bl]{X}",
            "sw": "\\makebox(0,0)[tr]{X}",
        }
        for align, box in cases.items():
            item = DrawItem(UNIT_LINE, label=Label("X", Point2(0.5, 0.5), align))
            tex = emit_latex(unit_scene(item))
            assert f"\\put(0.50000,0.50000){{{box}}}%" in tex, align

    def test_bad_alignment(self):
        with pytest.raises(RenderError):
            Label("X", Point2(0, 0), "q")

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

    def test_dots_are_round_caps(self):
        svg = emit_svg(unit_scene(DrawItem(UNIT_LINE, Style.DOTTED)))
        assert 'stroke-linecap="round"' in svg
        assert 'stroke-dasharray="0.01 3.7795"' in svg

    def test_disc_radius(self):
        svg = emit_svg(unit_scene(DrawItem(UNIT_LINE, Style.DOTTED_DISC)))
        r = 0.5 * DISC_DIAMETER * CM_TO_PX
        assert svg.count(f'r="{r:.3f}"') == 2

    def test_text_anchors(self):
        def one(align: str) -> str:
            item = DrawItem(UNIT_LINE, label=Label("X", Point2(0.5, 0.5), align))
            return emit_svg(unit_scene(item))

        assert 'text-anchor="start" dy="-3"' in one("ne")
        assert 'text-anchor="end"' in one("w")
        assert 'dy="12"' in one("s")
        assert 'text-anchor="middle" dy="4"' in one("c")

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
