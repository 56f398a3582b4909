"""Golden SHA-256 digests of fixed figures and reports.

The emitted bytes are the contract: a refactor of the pipeline must
leave these digests unchanged.  A deliberate change of output updates
the digest here and says why in CHANGES.md.
"""

import hashlib
import logging

import pytest

from splinefig import surface
from splinefig.cli import main
from splinefig.expr import compile_fn, steps
from splinefig.implicit import parse_equation

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

# z is undefined for v < 0.5: a quarter of the parameter rectangle
PARTIAL = """\
x = u
y = v
z = sqrt(v - 0.5) + u^2
u = -1, 1
v = 0, 2
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
    "partial.tex": "b60659f9c39aedf4d21fc6f10a6c506265d344dc87b94186f70b14f9d68f7b33",
    "sqrt-partial.tex": "b1cf84ccbc8e1080bf9749eaca8f6f391264134f4c89f523e3bd97239f9dd610",
    "saddles.csv": "add235898b5313d12bc4a0b7c2d1bf2e3ccae9c602812f68f1b48612e82762b4",
}

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"


# every refine_contact answer of a scene, sorted, as (len(a), len(b),
# center_a, center_b, repr(x), repr(y), refined).  The emitted bytes can
# hide a changed answer (an unrefined seed point more than 0.05 from
# the curve is dropped), so these pin the answers themselves.
CONTACTS = {
    "paraboloid": [
        (101, 101, 79, 0, "-1.7320507900935724", "-0.4226182721127472", True),
        (101, 101, 100, 66, "3.6300411502572374e-09", "0.8452366026965237", True),
        (101, 101, 100, 83, "-1.732050799078897", "0.42261826010471815", True),
        (101, 101, 100, 99, "-1.7320508184326728", "-0.4226182324700264", True),
        (101, 446, 12, 222, "-3.469527492076153e-09", "3.6744865789920245", True),
        (101, 446, 20, 173, "-0.3478756936218137", "3.56431953751897", False),
        (101, 446, 20, 271, "0.34183136278660653", "3.568080714848662", False),
        (101, 446, 30, 293, "0.5198745798129568", "3.427526318719906", False),
        (101, 446, 33, 145, "-0.5784226652282477", "3.366980077974024", False),
        (101, 446, 36, 139, "-0.6311589119450081", "3.3061166294766746", False),
        (101, 446, 40, 131, "-0.702829609633479", "3.2141047765180053", False),
        (101, 446, 44, 444, "1.9774194996315027", "0.1290857289366284", False),
        (101, 446, 89, 1, "-1.974143203740156", "0.13782789118152622", False),
        (446, 101, 0, 89, "-1.9791777037353073", "0.1197470508268546", False),
        (446, 101, 445, 43, "1.9896745259131698", "0.0846313176764279", False),
    ],
    "mobius": [
        (101, 101, 0, 99, "-2.7712812921080854", "-0.6761892187852627", True),
        (101, 101, 0, 99, "-4.156921938158963", "-1.0142838281773532", True),
        (101, 101, 100, 0, "-2.771281292108085", "-0.6761892187852627", True),
        (101, 101, 100, 0, "-4.156921938158962", "-1.0142838281773532", True),
        (101, 202, 14, 42, "-0.8029205349403454", "-1.660623306298885", True),
        (101, 202, 14, 150, "-0.5357808973330724", "-1.6775409000889527", True),
        (101, 207, 79, 4, "-2.353475207196761", "1.4631926926940524", False),
        (101, 207, 80, 26, "-2.492128238839505", "1.3789845944113126", False),
        (101, 207, 80, 163, "-3.453271539297429", "0.8973320514635358", False),
        (101, 207, 81, 189, "-3.651701050661555", "0.818237286223509", False),
        (101, 210, 36, 26, "4.071768739560038", "0.016904995431857472", False),
        (101, 210, 42, 195, "3.795401071673314", "-0.6932274135238466", True),
        (202, 101, 6, 13, "-0.8908241608799407", "-1.660695537947115", True),
        (202, 101, 201, 14, "-0.4971187261796739", "-1.6832084841048114", False),
        (207, 101, 5, 79, "-2.3568219905860044", "1.4612341037367993", False),
        (207, 101, 206, 81, "-3.712913752353611", "0.7921454690752172", False),
        (210, 101, 0, 36, "4.094648881928059", "0.06422542840990236", False),
        (210, 101, 209, 41, "3.7788987831454395", "-0.7470310408824559", False),
    ],
}
CONTACT_DEMO = ("-1.6498070870698505", "1.2076526816696387", True)


def _contact_answers(monkeypatch, argv) -> list[tuple]:
    answers = []
    solve = surface.refine_contact

    def record(a, b, center_a, center_b, *args, **kwargs):
        rc = solve(a, b, center_a, center_b, *args, **kwargs)
        answers.append(
            (
                len(a.points), len(b.points), center_a, center_b,
                repr(rc.point.x), repr(rc.point.y), rc.refined,
            )
        )
        return rc

    # the scene looks refine_contact up in the module on every call
    monkeypatch.setattr(surface, "refine_contact", record)
    assert main(argv) == 0
    return sorted(answers)


@pytest.mark.parametrize(
    "name, text", [("paraboloid", PARABOLOID), ("mobius", MOBIUS)]
)
def test_contact_answers(name, text, tmp_path, capsys, monkeypatch):
    desc = tmp_path / "scene.surf"
    desc.write_text(text)
    argv = ["surface", str(desc), "--format", "tex"]
    assert _contact_answers(monkeypatch, argv) == CONTACTS[name]
    capsys.readouterr()


def test_contact_demo_answer():
    r = surface.contact_demo()
    assert (repr(r.refined.x), repr(r.refined.y), r.refined_ok) == CONTACT_DEMO


def _digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "name, text, fmt",
    [
        ("paraboloid.tex", PARABOLOID, "tex"),
        ("paraboloid.svg", PARABOLOID, "svg"),
        ("mobius.tex", MOBIUS, "tex"),
        ("partial.tex", PARTIAL, "tex"),
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


def test_partial_domain_trace_digest(capsys, caplog):
    argv = ["implicit", "--fn", "sqrt(x)+y^2=1", "--xrange=-2,2", "--yrange=-2,2"]
    with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
        assert _digest(argv, capsys) == GOLDEN["sqrt-partial.tex"]
    assert [r.getMessage() for r in caplog.records] == [
        "skipped 20000 cells with undefined corners"
    ]


SADDLES = "sin(3*x)*cos(3*y)=0"


def test_saddle_trace_digest(capsys):
    # the trace resolves saddle cells (corner signs + - + - or - + - +)
    # by the sign at the cell centre; make sure this one has some
    f = compile_fn(parse_equation(SADDLES), ("x", "y"))
    xs = ys = steps(-2.0, 2.0, 100)
    pos = [[f(x, y) > 0.0 for y in ys] for x in xs]
    saddles = sum(
        pos[i][j] == pos[i + 1][j + 1] != pos[i + 1][j] == pos[i][j + 1]
        for i in range(100)
        for j in range(100)
    )
    assert saddles >= 1
    argv = [
        "implicit", "--fn", SADDLES, "--xrange=-2,2", "--yrange=-2,2",
        "--grid", "100", "--format", "csv",
    ]
    assert _digest(argv, capsys) == GOLDEN["saddles.csv"]


def test_tangent_figure_file_digest(tmp_path, capsys):
    out = tmp_path / "fig.tex"
    argv = [
        "tangent", "--fn", "sin(x)", "--sample-range", "0,3", "--num", "30",
        "--at", "1", "--out", str(out),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["tangent.tex"]
