"""Golden SHA-256 digests of fixed figures and reports.

The emitted bytes are the contract: a refactor of the pipeline must
leave these digests unchanged.  A deliberate change of output updates
the digest here and says why in CHANGES.md.
"""

import hashlib

import pytest

from splinefig.cli import main

# the README's paraboloid.surf with its comments taken out
PARABOLOID = """\
x = u*cos(v)
y = u*sin(v)
z = 4 - u^2
u = 0, 2
v = 0, 2*pi
wires_v = 0, pi/3, 2*pi/3, pi, 4*pi/3, 5*pi/3
theta = 60
phi = 25
grid = 200
samples = 100
hidden = dashed
axes = on
"""

MOBIUS = """\
x = 2*cos(v)*(2+u*cos(v/2))
y = 2*sin(v)*(2+u*cos(v/2))
z = 2*u*sin(v/2)
u = -0.4, 0.4
v = 0, 2*pi
"""

GOLDEN = {
    "paraboloid.tex": "12ea1b7fafb2f266366b7b29a40f79abb27cb54a3c6f2083f6a6d3bb2794282a",
    "paraboloid.svg": "598f494ca72fd5e72ec51b231abe7fcdf66abab1a4f3ea9a323cffe5dfa8b732",
    "mobius.tex": "44f47feb8f57d337eb24c85f3e3c012a7c47dfcc4ae3099446bf1858190647d8",
    "contact-demo": "5ac5d5f9b30876964456a50892b54c7f9cda41844f926ee1d57ab30f3378d988",
    "circle.tex": "ff2f795f1e9ca1e0ddf1fc9197cd2fff9e05a9e3dc487c9c220462987c909066",
    "conic-800.csv": "170d5918a866d9520d7b0b2b588f83da4349bc7921b964b7f7d329371d502594",
    "tangent.tex": "3c9836b1abf1c8089431117eb7f456678146d1833847ede072412e853f1d8871",
}

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"


def _digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, text, fmt",
    [
        ("paraboloid.tex", PARABOLOID, "tex"),
        ("paraboloid.svg", PARABOLOID, "svg"),
        ("mobius.tex", MOBIUS, "tex"),
    ],
)
def test_surface_figure_digest(name, text, fmt, tmp_path, capsys):
    desc = tmp_path / "scene.surf"
    desc.write_text(text)
    assert _digest(["surface", str(desc), "--format", fmt], capsys) == GOLDEN[name]


def test_contact_demo_digest(capsys):
    assert _digest(["contact-demo"], capsys) == GOLDEN["contact-demo"]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("circle.tex", ["--fn", "x^2+y^2=1", "--xrange=-2,2", "--yrange=-2,2"]),
        (
            "conic-800.csv",
            [
                "--fn", CONIC, "--xrange=-2,2", "--yrange=-2,2.5",
                "--grid", "800", "--format", "csv",
            ],
        ),
    ],
)
def test_implicit_digest(name, argv, capsys):
    assert _digest(["implicit", *argv], capsys) == GOLDEN[name]


def test_tangent_figure_file_digest(tmp_path, capsys):
    out = tmp_path / "fig.tex"
    argv = [
        "tangent", "--fn", "sin(x)", "--sample-range", "0,3", "--num", "30",
        "--at", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["tangent.tex"]
