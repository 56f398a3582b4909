"""End-to-end runs of the command line through main(argv)."""

import math
from pathlib import Path

import pytest

from splinefig.cli import main

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

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()
