"""End-to-end runs of the command line through main(argv)."""

import contextlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import splinefig
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

    def test_figure_of_rows_sharing_one_x(self, capsys, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("1,1\n1,3\n")
        out = tmp_path / "fig.tex"
        argv = ["tangent", "--points", str(pts), "--at", "1", "--out", str(out)]
        assert main(argv) == 0
        assert "tangent vertical" in capsys.readouterr().out
        assert "\\circle*{0.12}" in out.read_text()


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
    def test_prints_as_documented(self, capsys, cmd, expected):
        assert main(shlex.split(cmd, comments=True)[1:]) == 0
        assert capsys.readouterr().out.splitlines() == expected


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
        ],
    )
    def test_bad_surface_value(self, capsys, tmp_path, line, key):
        desc = tmp_path / "bad.surf"
        desc.write_text(PARABOLOID_FILE + line + "\n")
        assert main(["surface", str(desc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert key in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (PARABOLOID_FILE + "x = 1e30*u*cos(v)\n", "cannot format"),
            (PARABOLOID_FILE + "u = -1e308, 1e308\n", "-1e+308 to 1e+308 is wider"),
            (
                "x = u\ny = u^2 - v^2\nz = 1/u\nu = 0, 1e300\nv = 0, 1\n"
                "grid = 8\nsamples = 2\naxes = off\n",
                "surface projects nowhere",
            ),
        ],
        ids=[
            "coordinates-past-five-decimals",
            "u-range-wider-than-a-float",
            "y-undefined-where-x-is-defined",
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
        "argv",
        [
            "spline --points DIAMOND --samples 0",
            "integrate --fn x --sample-range 0,1 --num 0",
            "area --fx cos(t) --fy sin(t) --range 0,1 --num 0",
            "tangent --fn x --sample-range 0,1 --at 0 --num 0",
            "implicit --fn x=y --xrange 0,1 --yrange 0,1 --grid 4",
            "contact-demo --grid 4",
            "contact-demo --samples 0",
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
        ],
    )
    def test_every_option(self, capsys, tmp_path, diamond, argv, keys):
        desc = tmp_path / "par.surf"
        desc.write_text(PARABOLOID_FILE)
        argv = [{"DIAMOND": diamond, "SURF": str(desc)}.get(a, a) for a in argv]
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
