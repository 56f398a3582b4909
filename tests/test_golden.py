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
}


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
