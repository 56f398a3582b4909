"""End-to-end runs of the command line through main(argv)."""

import contextlib
import hashlib
import io
import logging
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import splinefig
from splinefig import cli, geom, surface
from splinefig.cli import build_parser, main
from splinefig.expr import evaluate, parse
from splinefig.spline import build_spline

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"

PARABOLOID_FILE = """\
# paraboloid of revolution, tilted view
x = u*cos(v)
y = u*sin(v)
z = 4 - u^2
u = 0, 2
v = 0, 2*pi
wires_v = 0, pi
grid = 80
samples = 60
"""


def _surf_with(line: str) -> str:
    """PARABOLOID_FILE with `line` in place of the line setting its key,
    or after the others when no line sets it."""
    key = line.partition("=")[0].strip()
    kept = [l for l in PARABOLOID_FILE.splitlines() if l.partition("=")[0].strip() != key]
    return "\n".join([*kept, line]) + "\n"


class _CountedHypot:
    """Stands in for a module's `math` and counts its hypot calls, those
    for which `counting()` is true; the first past `bound` fails the
    test at once, before the work it guards runs its course."""

    def __init__(self, bound: int, counting=lambda: True):
        self.calls, self.bound, self.counting = 0, bound, counting
        self.lock = threading.Lock()  # a scene calls from its pool's threads

    def __getattr__(self, name):
        return getattr(math, name)

    def hypot(self, *args):
        if self.counting():
            with self.lock:
                self.calls += 1
                assert self.calls < self.bound, f"{self.bound} distances or more"
        return math.hypot(*args)


@pytest.fixture
def diamond(tmp_path):
    p = tmp_path / "diamond.csv"
    p.write_text("1,0\n0,1\n-1,0\n0,-1\n")
    return str(p)


class TestIntegrate:
    def test_oshima(self, capsys):
        code = main(
            [
                "integrate",
                "--fn", "x^2*sin(x)",
                "--sample-range=-pi,pi",
                "--num", "50",
                "--interval", "0,pi",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "5.869529\n"

    def test_catmull_rom(self, capsys):
        code = main(
            [
                "integrate",
                "--fn", "x^2*sin(x)",
                "--sample-range=-pi,pi",
                "--num", "50",
                "--interval", "0,pi",
                "--method", "catmull-rom",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "5.869637\n"

    def test_interval_defaults_to_data_range(self, capsys):
        code = main(
            ["integrate", "--fn", "x", "--sample-range", "0,2", "--num", "8"]
        )
        assert code == 0
        assert capsys.readouterr().out == "2.000000\n"

    def test_needs_a_data_source(self, capsys):
        assert main(["integrate", "--interval", "0,1"]) == 1
        assert "error:" in capsys.readouterr().err


class TestArea:
    def test_parametric_ellipse(self, capsys):
        code = main(
            [
                "area",
                "--fx", "3*cos(t)",
                "--fy", "2*sin(t)",
                "--range", "0,2*pi",
                "--num", "50",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out == "18.849553\n"
        assert abs(float(out) / (6 * math.pi) - 1) < 1e-3

    def test_point_file(self, capsys, diamond):
        assert main(["area", "--points", diamond]) == 0
        assert capsys.readouterr().out == "3.142472\n"


class TestTangent:
    def test_slope(self, capsys):
        code = main(
            [
                "tangent",
                "--fn", "sin(x)",
                "--sample-range", "0,3",
                "--num", "30",
                "--at", "1",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "point (1.000000,0.841471) slope 0.539402\n"
        )

    def test_vertical(self, capsys, tmp_path):
        p = tmp_path / "steep.csv"
        p.write_text("0,0\n1,1\n4,2\n6,3\n")
        code = main(
            ["tangent", "--points", str(p), "--at", "0", "--method", "catmull-rom"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "point (0.000000,0.000000) tangent vertical\n"
        )

    def test_figure_has_dashed_tangent(self, capsys, tmp_path):
        out = tmp_path / "fig.tex"
        code = main(
            [
                "tangent",
                "--fn", "sin(x)",
                "--sample-range", "0,3",
                "--num", "12",
                "--at", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        tex = out.read_text()
        assert tex.startswith("{\\unitlength=1cm%")
        # two pen-down runs share an output line
        assert any(
            line.count("\\polyline") == 2 for line in tex.splitlines()
        )
        assert "\\circle*{0.12}" in tex

    def test_figure_of_rows_sharing_one_x(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,1\n1,3\n")
        out = tmp_path / "fig.tex"
        argv = ["tangent", "--points", str(pts), "--at", "1", "--out", str(out)]
        assert main(argv) == 0
        assert "tangent vertical" in capsys.readouterr().out
        assert "\\circle*{0.12}" in out.read_text()

    def test_one_fit_per_figure(self, capsys, tmp_path, monkeypatch):
        # the figure draws the fit that gave the line
        fits = []

        def counted(*args, **kwargs):
            fits.append(args)
            return build_spline(*args, **kwargs)

        monkeypatch.setattr("splinefig.calculus.build_spline", counted)
        monkeypatch.setattr("splinefig.cli.build_spline", counted)
        out = tmp_path / "fig.tex"
        argv = [
            "tangent", "--fn", "sin(x)", "--sample-range", "0,3", "--num", "30",
            "--at", "1", "--out", str(out),
        ]
        assert main(argv) == 0
        assert len(fits) == 1

    def test_decreasing_data_draws_the_same_fit_left_to_right(self, capsys, tmp_path):
        rows = [(0.25 * k, math.sin(0.25 * k)) for k in range(13)]
        figures, printed = [], []
        for order in (rows, rows[::-1]):
            pts = tmp_path / "pts.csv"
            pts.write_text("".join(f"{x!r},{y!r}\n" for x, y in order))
            out = tmp_path / "fig.tex"
            assert main(["tangent", "--points", str(pts), "--at", "1", "--out", str(out)]) == 0
            printed.append(capsys.readouterr().out)
            figures.append(out.read_text().split("\\put", 1)[0])
        assert printed[0] == printed[1]
        # the curve and the dashed line; only the data markers keep file order
        assert figures[0] == figures[1]
        assert figures[0].split("\\polyline", 2)[1].startswith("(0.00000,0.00000)")

    @pytest.mark.parametrize(
        "argv, slope",
        [
            ("--fn x --sample-range 0,1e-13 --num 10 --at 5e-14", "1.000000"),
            ("--fn 2*x --sample-range 0,1e-10 --num 10 --at 5e-11", "2.000000"),
        ],
    )
    def test_vertical_is_judged_at_the_data_scale(self, capsys, argv, slope):
        # a line on a tiny x scale has a tiny dx/dt, but no vertical tangent
        assert main(["tangent", *argv.split()]) == 0
        assert capsys.readouterr().out == f"point (0.000000,0.000000) slope {slope}\n"

    @pytest.mark.parametrize("r", [1e-13, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("method", ["oshima", "catmull-rom"])
    def test_vertical_at_the_ends_of_a_half_circle(self, capsys, tmp_path, r, method):
        # the upper half of a circle through abscissae -1, -0.75, 0, 0.75
        # and 1: the end rule's parabola makes dx/dt exactly 0 at both ends.
        # Both tests read the segment's x span, so every radius r prints
        # the same, and the same slope at r/2
        h = math.sqrt(1.0 - 0.75**2)
        rows = [(-1.0, 0.0), (-0.75, h), (0.0, 1.0), (0.75, h), (1.0, 0.0)]
        pts = tmp_path / "half.csv"
        pts.write_text("".join(f"{x * r!r},{y * r!r}\n" for x, y in rows))
        for at in (-r, r):
            argv = ["tangent", "--points", str(pts), f"--at={at!r}", "--method", method]
            assert main(argv) == 0
            assert capsys.readouterr().out == f"point ({at:.6f},0.000000) tangent vertical\n"
        assert main(["tangent", "--points", str(pts), f"--at={0.5 * r!r}"]) == 0
        assert capsys.readouterr().out.endswith(" slope -0.592065\n")

    def test_literal_options_compile_no_program(self, capsys, monkeypatch):
        # 0, 3 and 1 are literals; only the function is compiled
        from splinefig import expr

        compiled = []

        def counted(trees, *args, **kwargs):
            compiled.append(trees)
            return compile_(trees, *args, **kwargs)

        compile_ = expr._compile
        monkeypatch.setattr(expr, "_compile", counted)
        argv = "tangent --fn sin(x) --sample-range 0,3 --num 30 --at 1".split()
        assert main(argv) == 0
        assert capsys.readouterr().out == "point (1.000000,0.841471) slope 0.539402\n"
        assert len(compiled) == 1
        # so are the negated literals -2 of the ranges
        compiled.clear()
        argv = "implicit --fn x^2+y^2=1 --xrange=-2,2 --yrange=-2,2".split()
        assert main(argv) == 0
        assert len(compiled) == 1

    @pytest.mark.parametrize("text", ["-2", "-0", "-0.5", "-pi", "--2", "-(2)"])
    def test_negated_literal_is_the_compiled_value(self, text):
        want = evaluate(parse(text))
        got = cli._const(text)
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestRepeatedRows:
    """A row equal to the one before it is drawn once, not refused."""

    @pytest.mark.parametrize(
        "cmd",
        [
            "spline --points PTS --out OUT",
            "spline --points PTS --method catmull-rom --out OUT",
            "tangent --points PTS --at 1 --out OUT",
        ],
    )
    def test_drawn_once(self, capsys, tmp_path, cmd):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n0,0\n1,1\n2,0\n")
        out = tmp_path / "fig.tex"
        files = {"PTS": str(pts), "OUT": str(out)}
        assert main([files.get(a, a) for a in cmd.split()]) == 0
        assert out.read_text().count("\\circle*{0.12}") == 3


class TestSpline:
    def test_figure(self, capsys, diamond):
        assert main(["spline", "--points", diamond, "--closed"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "{\\unitlength=1cm%"
        assert lines[2] == "(2.2,2.2)(-1.1,-1.1)%"
        assert lines[4].startswith("\\polyline(1.00000,0.00000)(0.98691,0.16221)")
        assert out.count("\\circle*{0.12}") == 4

    def test_csv_roundtrip(self, capsys, diamond):
        code = main(["spline", "--points", diamond, "--closed", "--format", "csv"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "# component 0"
        pts = [tuple(map(float, r.split(","))) for r in rows[1:]]
        assert len(pts) == 41
        assert pts[0] == (1.0, 0.0)
        assert pts[0] == pts[-1]

    def test_svg(self, capsys, diamond):
        assert main(["spline", "--points", diamond, "--format", "svg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith('<?xml version="1.0"')
        assert "<path" in out

    def test_show_config(self, capsys, diamond):
        code = main(["spline", "--points", diamond, "--show-config"])
        assert code == 0
        out = capsys.readouterr().out
        assert "method = oshima" in out
        assert "closed = auto" in out


class TestImplicit:
    def test_conic_integral(self, capsys):
        code = main(
            [
                "implicit",
                "--fn", CONIC,
                "--xrange=-2,2",
                "--yrange=-2,2.5",
                "--integrate-endpoints",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == "1.698479\n"

    def test_circle_figure(self, capsys):
        code = main(
            [
                "implicit",
                "--fn", "x^2+y^2=1",
                "--xrange=-2,2",
                "--yrange=-2,2",
                "--grid", "100",
            ]
        )
        assert code == 0
        assert "\\polyline" in capsys.readouterr().out

    def test_empty_window(self, capsys):
        code = main(
            [
                "implicit",
                "--fn", "x^2+y^2=1",
                "--xrange", "5,6",
                "--yrange", "5,6",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSurface:
    def test_render_to_file(self, tmp_path):
        desc = tmp_path / "par.surf"
        desc.write_text(PARABOLOID_FILE)
        out = tmp_path / "par.tex"
        assert main(["surface", str(desc), "--out", str(out)]) == 0
        tex = out.read_text()
        assert tex.startswith("{\\unitlength=1cm%")
        assert "\\polyline" in tex
        assert tex.rstrip().endswith("\\end{picture}}")

    def test_show_config(self, capsys, tmp_path):
        desc = tmp_path / "par.surf"
        desc.write_text(PARABOLOID_FILE)
        code = main(["surface", str(desc), "--show-config", "--phi", "30"])
        assert code == 0
        out = capsys.readouterr().out
        assert "phi = 30.0" in out
        assert "grid = 80" in out
        assert "hidden = dashed" in out

    def test_missing_keys(self, capsys, tmp_path):
        desc = tmp_path / "bad.surf"
        desc.write_text("x = u\ny = v\nu = 0, 1\nv = 0, 1\n")
        assert main(["surface", str(desc)]) == 1
        assert "surface file lacks ['z']" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["surface", "/no/such/file.surf"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_readme_file_with_inline_comments(self, capsys, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("with `paraboloid.surf`:\n\n```\n", 1)[1]
        commented = tmp_path / "paraboloid.surf"
        commented.write_text(block.split("```", 1)[0])
        plain = tmp_path / "plain.surf"
        plain.write_text(
            "x = u*cos(v)\ny = u*sin(v)\nz = 4 - u^2\nu = 0, 2\nv = 0, 2*pi\n"
            "wires_v = 0, pi/3, 2*pi/3, pi, 4*pi/3, 5*pi/3\n"
            "theta = 60\nphi = 25\ngrid = 200\nsamples = 100\n"
            "hidden = dashed\naxes = on\n"
        )
        assert main(["surface", str(commented)]) == 0
        with_comments = capsys.readouterr().out
        assert main(["surface", str(plain)]) == 0
        assert with_comments == capsys.readouterr().out


    @pytest.mark.parametrize(
        "text",
        [
            # a drawing about 1e-295 cm across: spline fits of its windows
            # see chords whose norms multiply to below the double range
            "x = u^v\ny = 0\nz = 0\nu = 0, 2*pi\nv = 0, 2*pi\n"
            "theta = 1e-300\nphi = 1e-300\ngrid = 8\nsamples = 3\naxes = off\n",
            # occlusion Newton steps where exp overflows
            "x = exp(u*v*1e3)\ny = exp(u*v*1e3)\nz = exp(u*v*1e3)\n"
            "u = -1e300, 1e300\nv = -1e300, 1e300\nphi = 1e-300\n"
            "grid = 12\nsamples = 6\n",
        ],
        ids=["norms-underflow", "newton-overflows"],
    )
    def test_extreme_values_are_drawn(self, capsys, tmp_path, text):
        desc = tmp_path / "extreme.surf"
        desc.write_text(text)
        assert main(["surface", str(desc)]) == 0
        assert capsys.readouterr().out.startswith("{\\unitlength=1cm%")

    def test_surface_projecting_to_a_line_in_near_linear_time(
        self, monkeypatch, capsys, tmp_path, caplog
    ):
        # every curve of x = y = z = cos(v)*u projects onto one line, so
        # the fits at 22 of its 36 contact sites overlap; the search ends
        # at the first overlapping leaves, and the crossings' dedup
        # measures 83 distances (803 comparing each crossing with every
        # earlier one), where clustering every overlapping leaf took 5.65 M
        inside = threading.local()
        intersect = surface.intersect_projected

        def counted_intersect(a, b):
            inside.on = True
            try:
                return intersect(a, b)
            finally:
                inside.on = False

        monkeypatch.setattr(surface, "intersect_projected", counted_intersect)
        hypot = _CountedHypot(5_000, lambda: getattr(inside, "on", False))
        monkeypatch.setattr(surface, "math", hypot)
        desc = tmp_path / "line.surf"
        desc.write_text(
            "x = cos(v)*u\ny = cos(v)*u\nz = cos(v)*u\nu = 0, 1\nv = 0, 2*pi\n"
            "grid = 10\nsamples = 3\n"
        )
        with caplog.at_level(logging.WARNING):
            assert main(["surface", str(desc), "--format", "tex"]) == 0
        assert 0 < hypot.calls < 5_000
        # J is rounding noise here, and its sign changes trace 7 folds; at
        # one of them |J| falls for no STALL_STEPS steps in a row, and the
        # crossing is counted as a sign change without a root; at float
        # resolution that edge is a jump (its ends are 2^-58 and -2^-57,
        # and each step's J is one of -2^-58 and -2^-57 until the sixth
        # is an exact 0), so a rule that ends jumps early ends it too
        labels = ["boundary:u=1", *(f"silhouette:{k}" for k in range(7))]
        assert [r.getMessage() for r in caplog.records] == [
            "1 crossings are sign changes where F has no root (pole or jump?)",
            *(
                f"newton occlusion solve failed for {label!r}; leaving interval visible"
                for label in labels
            ),
        ]
        # two of those folds cross themselves, and each self-crossing is
        # cut at both of its passes; every curve runs back over itself
        # along the line, so each crossing is cut where it was found, not
        # on the first pass nearest its point
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
            "564d3f56fef5a4353098923ab05c11fa6c737966c2ae6eb8d9c67a4bceef00d4"
        )

    def test_wire_on_the_rim_is_deduplicated_in_linear_time(self, monkeypatch):
        # a wire laid on the paraboloid's rim crosses it at every vertex,
        # each crossing found twice (the segments before and after it);
        # a crossing compared with every earlier one measured 8 M
        # distances here, one compared with the crossings in the cells
        # around it measures one per repeat
        s, view = surface.paraboloid_surface(), surface.Projection()
        wire = surface.project_curve(surface.wires(s, [2.0], samples=4000)[0], view)
        rim = next(
            surface.project_curve(c, view)
            for c in surface.boundary_curves(s, samples=4000)
            if c.label == "boundary:u=2"
        )
        hypot = _CountedHypot(2 * 3999)
        monkeypatch.setattr(surface, "math", hypot)
        assert len(surface.intersect_projected(wire, rim).crossings) == 3999
        assert 0 < hypot.calls < 2 * 3999

    def test_wire_on_the_rim_locates_only_contact_answers(
        self, monkeypatch, capsys, tmp_path
    ):
        # the README paraboloid with a wire on its rim: a crossing is cut
        # at the parameter where it was found, so the only points located
        # on a curve are refine_contact's answers (once 1212 points here,
        # every crossing among them, where there are far fewer answers)
        located, refined = [], []
        locate, refine = surface._locate_params, surface.refine_contact

        def counted_locate(poly, points):
            located.append(len(points))
            return locate(poly, points)

        def counted_refine(*args, **kwargs):
            refined.append(1)
            return refine(*args, **kwargs)

        monkeypatch.setattr(surface, "_locate_params", counted_locate)
        monkeypatch.setattr(surface, "refine_contact", counted_refine)
        desc = tmp_path / "rim.surf"
        desc.write_text(
            "x = u*cos(v)\ny = u*sin(v)\nz = 4 - u^2\nu = 0, 2\nv = 0, 2*pi\n"
            "wires_u = 2\nwires_v = 0, pi/3, 2*pi/3, pi, 4*pi/3, 5*pi/3\n"
            "samples = 1000\n"
        )
        assert main(["surface", str(desc), "--format", "tex"]) == 0
        capsys.readouterr()
        assert 0 < sum(refined) == sum(located)

    def test_degenerate_refine_window_leaves_the_site_unrefined(self, tmp_path, capsys):
        # at this view a noise silhouette of the Moebius band zig-zags
        # between points about 2e-15 apart, and a contact window on it has
        # no chord direction to fit: that site stays unrefined, where it
        # once ended the scene with "error: both chord vectors are zero"
        desc = tmp_path / "mobius.surf"
        desc.write_text(
            "x = 2*cos(v)*(2+u*cos(v/2))\ny = 2*sin(v)*(2+u*cos(v/2))\n"
            "z = 2*u*sin(v/2)\nu = -0.4, 0.4\nv = 0, 2*pi\n"
        )
        assert main(["surface", str(desc), "--theta", "40", "--phi", "20"]) == 0
        out, err = capsys.readouterr()
        assert out.rstrip().endswith("\\end{picture}}")
        assert err == ""

    def test_undefined_seed_cells_print_no_numpy_warning(self, tmp_path):
        # z is undefined for v < 0.5, so some occlusion seed cells have
        # no defined corner at all; run as a user would, so numpy's
        # warnings reach stderr as they would in a shell
        desc = tmp_path / "partial.surf"
        desc.write_text(
            "x = u\ny = v\nz = sqrt(v - 0.5) + u^2\nu = -1, 1\nv = 0, 2\n"
            "grid = 40\nsamples = 30\n"
        )
        src = Path(splinefig.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        run = subprocess.run(
            [sys.executable, "-m", "splinefig.cli", "surface", str(desc)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("{\\unitlength=1cm%")
        assert "RuntimeWarning" not in run.stderr


class TestContactDemo:
    def test_report(self, capsys):
        assert main(["contact-demo"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "crossings: 1",
            "cluster: 2 candidate midpoints, spread 0.015913",
            "contact: (-1.649807,1.207653) [refined]",
            "analytic: (-1.649807,1.207653)",
            "distance: 0.000000",
        ]

    def test_steep_axis_measures_the_cluster_on_its_hull(self, monkeypatch, capsys):
        # the y axis misses the silhouette: every vertex pair within
        # 2 * dmin joins the cluster, 13 266 midpoints, whose every pair
        # is 88 M distances; the hull's pairs are 33 411
        hypot = _CountedHypot(100_000)
        monkeypatch.setattr(geom, "math", hypot)
        argv = "--theta=-90 --phi=25 --grid=40 --samples=300 --window=0 --tol=0.01"
        assert main(["contact-demo", *argv.split()]) == 0
        assert 0 < hypot.calls < 100_000
        out = capsys.readouterr().out.splitlines()
        assert out[:2] == [
            "crossings: 0",
            "cluster: 13266 candidate midpoints, spread 3.629212",
        ]

    def test_axis_along_the_line_of_sight(self, monkeypatch, capsys):
        # the y axis projects to a 5e-16-long stub, so the cluster holds
        # 16 362 midpoints but only 655 distinct ones; a hull over every
        # copy paired about 5e8 distances (152 s), one over the distinct
        # points pairs 14 706
        hypot = _CountedHypot(100_000)
        monkeypatch.setattr(geom, "math", hypot)
        assert main(["contact-demo", "--theta", "90", "--phi", "0"]) == 0
        assert 0 < hypot.calls < 100_000
        assert capsys.readouterr().out.splitlines() == [
            "crossings: 0",
            "cluster: 16362 candidate midpoints, spread 2.085572",
            "contact: (0.935000,0.251550) [unrefined (closest approach)]",
            "analytic: none on the drawn axis (|y| <= 4)",
        ]

    def test_root_off_the_drawn_axis_is_no_reference(self, capsys):
        # the axis y in [-4, 4] projects to |Y| <= 1.69 and never meets the
        # outline, whose crossing with the whole axis is its apex, Y = 3.67
        argv = "--theta=-90 --phi=25 --grid=40 --samples=300 --window=0 --tol=0.01"
        assert main(["contact-demo", *argv.split()]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2:] == [
            "contact: (0.639461,1.941290) [unrefined (closest approach)]",
            "analytic: none on the drawn axis (|y| <= 4)",
        ]


class TestOneProcess:
    def test_import_loads_no_surface_code(self):
        src = Path(splinefig.__file__).parents[1]
        code = (
            "import sys, splinefig.cli; "
            "print([m for m in ('splinefig.surface', 'concurrent.futures', 'subprocess') "
            "if m in sys.modules])"
        )
        run = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_surface_error_reported_in_a_fresh_process(self, tmp_path):
        desc = tmp_path / "bad.surf"
        desc.write_text("x = u\n")
        src = Path(splinefig.__file__).parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "splinefig.cli", "surface", str(desc)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr == "error: surface file lacks ['u', 'v', 'y', 'z']\n"

    def test_later_calls_match_fresh_parsers(self, capsys, tmp_path, diamond):
        graph = tmp_path / "graph.csv"
        graph.write_text("0,0\n1,1\n2,4\n3,9\n")
        argvs = [
            ["integrate", "--fn", "x", "--sample-range", "0"],  # usage error
            ["area", "--points", diamond, "--show-config"],
            ["area", "--points", diamond],
            ["tangent", "--points", diamond, "--at", "0.5", "--num", "oops"],
            ["integrate", "--points", str(graph)],
        ]

        def run_all(fresh: bool) -> list[tuple]:
            results = []
            for argv in argvs:
                if fresh:
                    build_parser.cache_clear()
                code = main(argv)
                results.append((code, *capsys.readouterr()))
            return results

        build_parser.cache_clear()
        shared = run_all(fresh=False)
        assert build_parser.cache_info().misses == 1
        assert shared == run_all(fresh=True)
        assert [r[0] for r in shared] == [2, 0, 0, 2, 0]
        assert shared[1][1].startswith("points = ")
        assert shared[2][1] == "3.142472\n"


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each README `splinefig` command followed by `# <output>` lines.

    Lines continued with a backslash are joined; an output line is read
    up to its first run of two spaces, where a remark may follow.
    """
    lines = (Path(__file__).parents[1] / "README.md").read_text().splitlines()
    examples = []
    k = 0
    while k < len(lines):
        cmd = lines[k]
        k += 1
        if not cmd.startswith("splinefig "):
            continue
        while cmd.endswith("\\"):
            cmd = cmd[:-1] + lines[k]
            k += 1
        expected = []
        while k < len(lines) and lines[k].startswith("# "):
            expected.append(re.split(r"  +", lines[k][2:], maxsplit=1)[0])
            k += 1
        if expected:
            examples.append((cmd, expected))
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_found(self):
        commands = [cmd.split()[1] for cmd, _ in README_EXAMPLES]
        assert commands == [
            "integrate", "area", "tangent", "implicit", "contact-demo"
        ]

    @pytest.mark.parametrize(
        "cmd, expected",
        README_EXAMPLES,
        ids=[cmd.split()[1] for cmd, _ in README_EXAMPLES],
    )
    def test_prints_as_documented(self, capsys, caplog, cmd, expected):
        with caplog.at_level(logging.WARNING):
            assert main(shlex.split(cmd, comments=True)[1:]) == 0
        assert capsys.readouterr().out.splitlines() == expected
        assert caplog.records == []

    def test_python_blocks_run(self):
        # the "Library use" examples, each in a fresh namespace
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
        assert len(blocks) == 3
        for k, block in enumerate(blocks):
            exec(compile(block, f"README.md python block {k}", "exec"), {})


class TestErrors:
    def test_usage_error_is_exit_2(self, capsys):
        assert main(["implicit"]) == 2  # --fn et al. required
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_bad_pair(self, capsys):
        code = main(
            ["integrate", "--fn", "x", "--sample-range", "0", "--num", "4"]
        )
        assert code == 2
        capsys.readouterr()

    def test_unknown_function_is_exit_1(self, capsys):
        code = main(
            ["integrate", "--fn", "sinn(x)", "--sample-range", "0,1", "--num", "4"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_literal_beyond_double_range_is_exit_1(self, capsys):
        # 1e400 reads as inf: every node is undefined, no NameError
        argv = ["implicit", "--fn", "x-1e400*y", "--xrange=-1,1", "--yrange=-1,1"]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()


class TestRefusals:
    """Bad input ends in `error: ...` (exit 1) or a usage error (exit 2)."""

    @pytest.mark.parametrize(
        "line, key",
        [
            ("grid = abc", "grid"),
            ("samples = 0", "samples"),
            ("grid = 4", "grid"),
            ("hidden = dotted", "hidden"),
            ("phi = 90", "phi"),
            ("grid = 30000", "grid"),
            ("samples = 300000000", "samples"),
        ],
    )
    def test_bad_surface_value(self, capsys, tmp_path, line, key):
        desc = tmp_path / "bad.surf"
        desc.write_text(_surf_with(line))
        assert main(["surface", str(desc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (_surf_with("x = 1e30*u*cos(v)"), "cannot format"),
            (_surf_with("u = -1e308, 1e308"), "-1e+308 to 1e+308 is wider"),
            (
                "x = u\ny = u^2 - v^2\nz = 1/u\nu = 0, 1e300\nv = 0, 1\n"
                "grid = 8\nsamples = 2\naxes = off\n",
                "surface projects nowhere",
            ),
            (PARABOLOID_FILE + "wire_v = 1\n", "bad.surf:10: unknown key 'wire_v'"),
            (PARABOLOID_FILE + "sample = 50\n", "bad.surf:10: unknown key 'sample'"),
            (PARABOLOID_FILE + "= 1\n", "bad.surf:10: unknown key ''"),
            (PARABOLOID_FILE + "axes = no\n", "axes: expected on or off, got 'no'"),
            (PARABOLOID_FILE + "axes = On\n", "axes: expected on or off, got 'On'"),
            (PARABOLOID_FILE + "grid = 12\n", "bad.surf:10: repeated key 'grid'"),
            (PARABOLOID_FILE + "x = u\n", "bad.surf:10: repeated key 'x'"),
        ],
        ids=[
            "coordinates-past-five-decimals",
            "u-range-wider-than-a-float",
            "y-undefined-where-x-is-defined",
            "unknown-key-wire_v",
            "unknown-key-sample",
            "empty-key",
            "axes-no",
            "axes-On",
            "repeated-key-grid",
            "repeated-key-x",
        ],
    )
    def test_bad_surface(self, capsys, tmp_path, text, message):
        desc = tmp_path / "bad.surf"
        desc.write_text(text)
        assert main(["surface", str(desc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err

    @pytest.mark.parametrize(
        "line", ["wire_v = 1", "sample = 50", "axes = no", "grid = 12"]
    )
    def test_show_config_refuses_what_a_drawing_refuses(self, capsys, tmp_path, line):
        # once, --show-config printed the defaults in place of such keys
        desc = tmp_path / "bad.surf"
        desc.write_text(PARABOLOID_FILE + line + "\n")
        assert main(["surface", str(desc), "--show-config"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            "spline --points DIAMOND --samples 0",
            "integrate --fn x --sample-range 0,1 --num 0",
            "area --fx cos(t) --fy sin(t) --range 0,1 --num 0",
            "tangent --fn x --sample-range 0,1 --at 0 --num 0",
            "implicit --fn x=y --xrange 0,1 --yrange 0,1 --grid 4",
            "contact-demo --grid 4",
            "contact-demo --samples 0",
            # past the bounds, refused before any point or node is made
            "implicit --fn x=y --xrange 0,1 --yrange 0,1 --grid 30000",
            "contact-demo --grid 30000",
            "contact-demo --samples 10001",
            "contact-demo --samples 100000",
            # no box diagonal is below a tolerance of 0 or less
            "contact-demo --tol 0",
            "contact-demo --tol=-1",
            "contact-demo --tol 1e-400",
            "integrate --fn x^2 --sample-range 0,1 --num 300000000 --interval 0,1",
            "surface SURF --phi 90",
            "contact-demo --phi 90",
            "surface SURF --format csv",
            "tangent --fn x --sample-range 0,1 --at 0 --format csv",
            "contact-demo --format csv",
        ],
    )
    def test_usage_error(self, capsys, tmp_path, diamond, argv):
        desc = tmp_path / "par.surf"
        desc.write_text(PARABOLOID_FILE)
        files = {"DIAMOND": diamond, "SURF": str(desc)}
        assert main([files.get(a, a) for a in argv.split()]) == 2
        assert "error: argument --" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, vertices",
        [
            ("--samples 300000000", "3 segments samples 900000001"),
            ("--samples 250000 --closed", "4 segments samples 1000001"),
        ],
    )
    def test_spline_samples_past_the_vertex_bound(self, capsys, diamond, argv, vertices):
        # refused before any vertex is sampled
        assert main(["spline", "--points", diamond, *argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert f"{vertices} vertices, more than 1000000" in captured.err
        assert captured.out == ""

    def test_sample_bounds_are_inclusive(self, capsys, monkeypatch, diamond):
        assert main(["contact-demo", "--samples", "10000", "--show-config"]) == 0
        assert "samples = 10000" in capsys.readouterr().out
        # 3 segments at 10 samples: 31 vertices, at a bound of 31
        monkeypatch.setattr(cli, "MAX_VERTICES", 31)
        argv = ["spline", "--points", diamond, "--format", "csv"]
        assert main([*argv, "--samples", "10"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 31
        assert main([*argv, "--samples", "11"]) == 1
        assert "34 vertices, more than 31" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "implicit --fn=x-y --xrange=-1e308,1e308 --yrange=0,1",
                "-1e+308 to 1e+308",
            ),
            (
                "implicit --fn=x-y --xrange=0,1 --yrange=-1.5e308,1e308",
                "-1.5e+308 to 1e+308",
            ),
            ("integrate --fn=x --sample-range=-1e308,1e308", "-1e+308 to 1e+308"),
            ("area --fx=cos(t) --fy=sin(t) --range=1e308,-1e308", "1e+308 to -1e+308"),
            ("tangent --fn=x --sample-range=-1e308,1e308 --at=0", "-1e+308 to 1e+308"),
        ],
        ids=[
            "implicit-x-range",
            "implicit-y-range",
            "integrate-sample-range",
            "area-reversed-range",
            "tangent-sample-range",
        ],
    )
    def test_range_wider_than_a_float(self, capsys, argv, message):
        assert main(argv.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"range {message} is wider than the largest float" in err

    @pytest.mark.parametrize("fmt", ["tex", "svg"])
    def test_figure_past_five_decimals(self, capsys, fmt):
        # the fitted box is 2e299 cm wide: neither emitter may write it
        argv = [
            "implicit", "--fn", "x*1e300-y", "--xrange=-1,1",
            "--yrange=-1e300,1e300", "--grid=9", f"--format={fmt}",
        ]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot format 2e+299 with five decimals\n"
        assert captured.out == ""

    def test_dashed_line_too_long_to_cut(self, capsys, tmp_path):
        # the dashed tangent is 7e8 cm long, about 7e9 dash points: it is
        # refused from its length, before any is made
        out = tmp_path / "t.tex"
        argv = [
            "tangent", "--fn", "x", "--sample-range", "0,1e9", "--num", "10",
            "--at", "5e8", f"--out={out}",
        ]
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 10.0
        captured = capsys.readouterr()
        assert captured.err == (
            "error: dashed line 7.07107e+08 cm long needs more than 50000 dashes\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "rows, extra",
        [
            ("0,0\n1,1\n2,4\n", []),
            ("0,0\n1,1\n2,4\n3,9\n", ["--interval", "1,0"]),
            ("0,0\n1,x\n2,4\n3,9\n", []),
        ],
        ids=["three-rows", "backwards-interval", "bad-number"],
    )
    def test_data_error(self, capsys, tmp_path, rows, extra):
        pts = tmp_path / "pts.csv"
        pts.write_text(rows)
        assert main(["integrate", "--points", str(pts), *extra]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "cmd, rows",
        [
            ("spline", ""),
            ("spline", "0,0\n"),
            ("area", ""),
            ("area", "0,0\n"),
            ("tangent --at 0", ""),
            ("tangent --at 0", "0,0\n"),
            ("spline --closed", "0,0\n1,1\n"),
            ("area", "0,0\n1,1\n"),
        ],
        ids=[
            "spline-0", "spline-1", "area-0", "area-1", "tangent-0",
            "tangent-1", "closed-spline-2", "area-2",
        ],
    )
    def test_too_few_rows(self, capsys, tmp_path, cmd, rows):
        pts = tmp_path / "pts.csv"
        pts.write_text(rows)
        assert main([*cmd.split(), "--points", str(pts)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("row", ["0.5,nan", "inf,1", "-inf,-inf", "nan,0"])
    @pytest.mark.parametrize(
        "cmd",
        [
            "spline --out OUT",
            "spline --format csv --out OUT",
            "tangent --at 0.5",
            "integrate",
        ],
    )
    def test_non_finite_row(self, capsys, tmp_path, cmd, row):
        # once: `bounding box must have positive size`, `nan,nan` csv
        # rows, `point (0.500000,nan) slope nan`, and `nan`
        pts = tmp_path / "pts.csv"
        pts.write_text(f"0,0\n{row}\n1,1\n2,0\n3,1\n")
        out = tmp_path / "out"
        argv = [str(out) if a == "OUT" else a for a in cmd.split()]
        assert main([*argv, "--points", str(pts)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {pts}:2: non-finite coordinate in {row!r}\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "area --fx 1e200*cos(t) --fy 1e200*sin(t) --range 0,2*pi --num 50",
                "the area is not finite: nan",
            ),
            (
                "integrate --fn 1e300 --sample-range=-1e300,1e300 --num 5",
                "the integral is not finite: inf",
            ),
            (
                "tangent --fn 1e308*sin(x) --sample-range 0,3 --num 5 --at 0.1",
                "the tangent point's y is not finite: nan",
            ),
            (
                "tangent --fn 1e299*x*1e11 --sample-range 0,1e-11 --num 5 --at 5e-12",
                "the slope is not finite: inf",
            ),
        ],
        ids=["area", "integrate", "tangent-point", "tangent-slope"],
    )
    def test_non_finite_answer(self, capsys, argv, message):
        # the fits overflow; each of these once printed nan or inf, exit 0
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


class TestShowConfig:
    """--show-config prints every option in parser order, then resolved values."""

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (
                ["spline", "--points", "DIAMOND"],
                "points samples open method out format closed",
            ),
            (["integrate"], "points fn sample_range num interval method"),
            (["area"], "points fx fy range num method"),
            (
                ["tangent", "--at", "1"],
                "points fn sample_range num at method out format",
            ),
            (
                ["implicit", "--fn", "x=y", "--xrange", "0,1", "--yrange", "0,1"],
                "fn xrange yrange grid integrate_endpoints method out format",
            ),
            (
                ["surface", "SURF"],
                "file out format x y z u v theta phi wires_u wires_v grid "
                "samples hidden axes",
            ),
            (
                ["contact-demo"],
                "theta phi grid samples window tol out format",
            ),
            (
                ["spline", "--points", "MISSING"],
                "points samples open method out format closed",
            ),
        ],
    )
    def test_every_option(self, capsys, tmp_path, diamond, argv, keys):
        desc = tmp_path / "par.surf"
        desc.write_text(PARABOLOID_FILE)
        missing = str(tmp_path / "missing.csv")
        argv = [
            {"DIAMOND": diamond, "SURF": str(desc), "MISSING": missing}.get(a, a)
            for a in argv
        ]
        assert main([*argv, "--show-config"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" = ", 1)[0] for line in lines] == keys.split()


POINT_COMMANDS = [
    "spline",
    "spline --open",
    "spline --closed",
    "integrate",
    "area",
    "tangent AT",
    "tangent AT --out OUT",
]


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=8),
    in_order=st.booleans(),
    cmd=st.sampled_from(POINT_COMMANDS),
    half_steps=st.integers(-6, 6),
)
def test_property_point_files_never_raise(
    tmp_path_factory, rows, in_order, cmd, half_steps
):
    """Any small point file ends in exit 0, 1 or 2, never in a traceback."""
    base = tmp_path_factory.getbasetemp()
    pts = base / "rows.csv"
    rows = sorted(rows) if in_order else rows
    pts.write_text("".join(f"{x},{y}\n" for x, y in rows))
    files = {"AT": f"--at={half_steps / 2}", "OUT": str(base / "fig.tex")}
    argv = [files.get(a, a) for a in [*cmd.split(), "--points", str(pts)]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error: ")


# `.surf` fuzzing: a file with a good value for every key, then a few
# corruptions (a value from anywhere, a dropped key, a junk key or line)
EXPRESSIONS = (
    "u", "v", "u*v", "u^2 - v^2", "cos(v)*u", "sqrt(u)", "1/u", "log(v)",
    "u^v", "exp(u*v*1e3)", "abs(u)", "1e300*u", "0",
)
RANGES = ("0, 1", "-1, 1", "0, 2*pi", "0, 1e300", "-1e300, 1e300", "1e-300, 2e-300")
NUMBERS = ("0", "60", "-30", "89.9", "1e-300", "1e300")
WIRES = ("", "0", "0.5", "0, 0.5, 1", "-1", "7", "1e300")
GOOD_SURF_VALUES = {
    "x": EXPRESSIONS,
    "y": EXPRESSIONS,
    "z": EXPRESSIONS,
    "u": RANGES,
    "v": RANGES,
    "theta": NUMBERS,
    "phi": ("25", "0", "-89", "1e-300"),
    "wires_u": WIRES,
    "wires_v": WIRES,
    "grid": tuple(str(n) for n in range(8, 13)),
    "samples": tuple(str(n) for n in range(2, 7)),
    "hidden": ("dashed", "omit"),
    "axes": ("on", "off"),
}
BAD_TEXT = (
    "", "abc", "(", "1,", ",", "u*", "sinn(u)", "w", "1 2", "nan", "inf",
    "1e400", "-1e400", "1, 0", "0, 0", "0, 1, 2", "90", "4", "-3", "dotted",
)
ANY_SURF_VALUE = st.sampled_from(
    sorted({v for vs in GOOD_SURF_VALUES.values() for v in vs} | set(BAD_TEXT))
)


@st.composite
def surf_files(draw) -> str:
    desc = {key: draw(st.sampled_from(vs)) for key, vs in GOOD_SURF_VALUES.items()}
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("value", "drop", "junk key", "junk line")))
        key = draw(st.sampled_from(sorted(GOOD_SURF_VALUES)))
        if kind == "value":
            desc[key] = draw(ANY_SURF_VALUE)
        elif kind == "drop":
            desc.pop(key, None)
        elif kind == "junk key":
            junk = draw(st.sampled_from(("colour", "X", "grid2", "", "=")))
            lines.append(f"{junk} = {draw(ANY_SURF_VALUE)}")
        else:
            lines.append(draw(st.sampled_from(("no equals sign", "# note", "="))))
    lines.extend(f"{key} = {value}" for key, value in desc.items())
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=50, deadline=None)
@given(text=surf_files(), flags=st.sampled_from(((), ("--theta=30",), ("--phi=1e-300",))))
def test_property_surface_files_never_raise(tmp_path_factory, text, flags):
    """Any `.surf` file ends in exit 0, 1 or 2, never in a traceback."""
    desc = tmp_path_factory.getbasetemp() / "fuzz.surf"
    desc.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["surface", str(desc), *flags])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


# `implicit` argv fuzzing: equations from a small grammar, windows that
# may be reversed, degenerate or huge, every format
FN_CONSTANTS = ("0", "1", "2", "0.5", "3.75", "1e-300", "1e-5", "1e5", "1e300", "pi")
FN_LEAVES = ("x", "y", "(x-y)", "(x*y)", "(x^2+y^2-1)", *FN_CONSTANTS)
EXPONENTS = ("2", "3", "-1", "-2", "0.5", "-0.5", "1.5", "0")
fn_texts = st.recursive(
    st.sampled_from(FN_LEAVES),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map("({0[0]}{0[1]}{0[2]})".format),
        st.tuples(sub, st.sampled_from(EXPONENTS)).map("({0[0]})^{0[1]}".format),
        st.tuples(st.sampled_from(("sqrt", "log", "exp", "tan", "-")), sub).map(
            "{0[0]}({0[1]})".format
        ),
    ),
    max_leaves=8,
)
WINDOWS = (
    "-2,2", "-1,1", "0,1", "-pi,pi", "-1e5,1e5", "0,1e300", "-1e300,1e300",
    "1e-300,2e-300", "1,-1", "0,0", "1e300,-1e300", "-1e308,1e308",
)


@st.composite
def implicit_argvs(draw) -> list[str]:
    fn = draw(fn_texts)
    if draw(st.booleans()):
        fn = f"{fn}={draw(fn_texts)}"
    argv = ["implicit", f"--fn={fn}"]
    argv.append(f"--xrange={draw(st.sampled_from(WINDOWS))}")
    argv.append(f"--yrange={draw(st.sampled_from(WINDOWS))}")
    argv.append(f"--grid={draw(st.integers(8, 40))}")
    argv.append(f"--format={draw(st.sampled_from(('tex', 'svg', 'csv')))}")
    if draw(st.booleans()):
        argv.append("--integrate-endpoints")
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=implicit_argvs())
def test_property_implicit_argv_never_raises(argv):
    """Any generated `implicit` argv ends in exit 0, 1 or 2, never in a traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("error: ")


# argv fuzzing for the curve commands (--fn in x, or --fx/--fy in t, over
# generated ranges, counts, intervals and points) and for contact-demo
def _in_variable(var: str):
    return fn_texts.map(lambda text: re.sub(r"\b[xy]\b", var, text))


NUMBERS = (
    "0", "1", "-1", "0.5", "pi", "-pi/4", "1e-300", "1e300", "-1e308", "1e400",
    "x", "1/0",
)
ELEVATIONS = ("25", "0", "-30", "89.9", "-89.9", "1e-300", "90")
TOLERANCES = ("1e-7", "0.01", "1", "1e300", "1e-300", "0", "-1")


@st.composite
def curve_argvs(draw) -> list[str]:
    cmd = draw(st.sampled_from(("integrate", "area", "tangent")))
    window = draw(st.sampled_from(WINDOWS))
    if cmd == "area":
        fx, fy = draw(_in_variable("t")), draw(_in_variable("t"))
        argv = [cmd, f"--fx={fx}", f"--fy={fy}", f"--range={window}"]
    else:
        argv = [cmd, f"--fn={draw(_in_variable('x'))}", f"--sample-range={window}"]
    argv.append(f"--num={draw(st.integers(1, 60))}")
    if cmd == "integrate" and draw(st.booleans()):
        argv.append(f"--interval={draw(st.sampled_from(WINDOWS))}")
    if cmd == "tangent":
        argv.append(f"--at={draw(st.sampled_from(NUMBERS))}")
    if draw(st.booleans()):
        argv.append("--method=catmull-rom")
    return argv


@st.composite
def contact_demo_argvs(draw) -> list[str]:
    return [
        "contact-demo",
        f"--theta={draw(st.sampled_from(NUMBERS + ('60', '90', '180')))}",
        f"--phi={draw(st.sampled_from(ELEVATIONS))}",
        f"--grid={draw(st.integers(8, 30))}",
        f"--samples={draw(st.integers(1, 40))}",
        f"--window={draw(st.integers(0, 10))}",
        f"--tol={draw(st.sampled_from(TOLERANCES))}",
    ]


@settings(max_examples=200, deadline=None)
@given(argv=curve_argvs() | contact_demo_argvs())
@example(argv=["area", "--fx=1e200*cos(t)", "--fy=1e200*sin(t)", "--range=0,2*pi"])
def test_property_curve_and_contact_demo_argv_never_raise(argv):
    """Any generated curve or contact-demo argv ends in exit 0, 1 or 2,
    and a run that exits 0 prints no inf or NaN."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().splitlines()[-1].startswith("error: ")
    if code == 0:
        assert not re.search(r"\b(nan|inf)\b", out.getvalue()), out.getvalue()
