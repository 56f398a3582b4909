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
from splinefig.render import emit_latex, scene_from_items

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
    "paraboloid.tex": "b0727eb9974ce9a579fefc1af2e20c23e2434e780a42028b73be4ff01e0ebd54",
    "paraboloid.svg": "0ce41603730127149b8f6527bc064d6d8385289e1b9b24dd231d4d32ded0e28a",
    "mobius.tex": "44f47feb8f57d337eb24c85f3e3c012a7c47dfcc4ae3099446bf1858190647d8",
    "contact-demo": "5ac5d5f9b30876964456a50892b54c7f9cda41844f926ee1d57ab30f3378d988",
    "circle.tex": "ff2f795f1e9ca1e0ddf1fc9197cd2fff9e05a9e3dc487c9c220462987c909066",
    "conic-800.csv": "268e9e7a5e08ac4048bc1e83276503e873eeeaccec94ccd4e72eef316b92af30",
    "tangent.tex": "3c9836b1abf1c8089431117eb7f456678146d1833847ede072412e853f1d8871",
    "partial.tex": "b60659f9c39aedf4d21fc6f10a6c506265d344dc87b94186f70b14f9d68f7b33",
    "sqrt-partial.tex": "b1cf84ccbc8e1080bf9749eaca8f6f391264134f4c89f523e3bd97239f9dd610",
    "saddles.csv": "9d0519905a82720c112c2eaa01dc3c09b710edab7c21fe83a63d98db9e98cb76",
    "empty.tex": "7388e0518ec1cf44701dd9061975e543505005410647ab4f7e1553380e9c45f1",
    "paraboloid-omit.tex": "3c32f06bef314a229bf283e780ff76d9a12a779ef3ce81dbf2bb9d1b1fd1a749",
    "paraboloid-omit.svg": "14690e83828ad200551dfd99bd13255d571515f787f2ac1e7ceb442a8fbf7ea7",
    "spline-discs.tex": "275e4fa7eeadf3d1c2cdf9d4fcd4371306ef091892c65f84e7cd59d0c7def768",
    "spline-discs.svg": "45794470637497367d9e265184f1e85dc2da2a1247725cf85ec1c2d745d19616",
}

# the README paraboloid with hidden intervals and the axes left out
PARABOLOID_OMIT = PARABOLOID.replace("hidden = dashed", "hidden = omit").replace(
    "axes = on", "axes = off"
)

TORUS = """\
x = (2+cos(u))*cos(v)
y = (2+cos(u))*sin(v)
z = sin(u)
u = 0, 2*pi
v = 0, 2*pi
axes = off
"""

# views over the benchmark's box, theta in [40, 80] and phi in [15, 35]
# degrees: its corners, the Moebius view at 40/20, and the torus, whose
# outline crosses itself, at 45/40.  (surface, theta, phi): sha256 of
# the LaTeX
VIEW_BOX = {
    ("paraboloid", "40", "15"): "61b369275bb21d143685305a579c2be57712cf7d7c6eca63684f3e9c10e4f17f",
    ("paraboloid", "40", "35"): "4ecbf46b818198853ef0d4f998a0ed06fa4681cbfbbd9ff236c85eb1f2103b2b",
    ("paraboloid", "80", "15"): "49f8e34c3b248c92376445a97266bd1d1084fda043c3f25b15966712a1cc754c",
    ("paraboloid", "80", "35"): "6496168067c17313ce7bf2319e8c5978639c9111eb623c2f0f1e3258b84a4768",
    ("mobius", "40", "15"): "622d94500c9d313bd546de19feba7e6bcb823cd964c65b7edbbb1f881f7618b5",
    ("mobius", "40", "35"): "2eb00d6cde75f0663a9153fe79c10aa1416b3abeac8354f9a26a9c9144cc45d5",
    ("mobius", "80", "15"): "997272b04d7fe277b441b6e1afdc7c9675ef1b9f360e4a1e19a5784120a75112",
    ("mobius", "80", "35"): "8cf265e973e569205426e3afe1c58e7c946344cbb2bd355186f56e09902a5966",
    ("mobius", "40", "20"): "41f1f6f6c2392728ec96746f24dcf7beeb17bb2a2713d1932d262c63cf9f058a",
    ("torus", "45", "40"): "4645ae57e8998e237a816009d542bd900dc88903d3e46688ee221ec91bd40abf",
}

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"


# every refine_contact answer of a scene, sorted, as (len(a), len(b),
# center_a, center_b, repr(x), repr(y), refined).  The emitted bytes can
# hide a changed answer (an unrefined seed point more than 0.05 from
# the curve is dropped), so these pin the answers themselves.
CONTACTS = {
    "paraboloid": [
        (101, 101, 79, 0, "-1.7320508075688772", "-0.4226182617406996", True),
        (101, 101, 100, 66, "7.771561172376096e-16", "0.845236590284148", True),
        (101, 101, 100, 83, "-1.732050799078897", "0.42261826010471815", True),
        (101, 101, 100, 99, "-1.7320508184326728", "-0.4226182324700264", True),
        (101, 446, 12, 222, "-3.4687523038361675e-09", "3.674486578992023", True),
        (101, 446, 20, 173, "-0.3478756936161309", "3.564319537522568", False),
        (101, 446, 20, 271, "0.341831362802782", "3.568080714838774", False),
        (101, 446, 30, 293, "0.5198745798144848", "3.4275263187184652", False),
        (101, 446, 33, 145, "-0.578422665240269", "3.366980077961271", False),
        (101, 446, 36, 139, "-0.6311589119433341", "3.3061166294786135", False),
        (101, 446, 40, 131, "-0.7028296096316146", "3.2141047765204145", False),
        (101, 446, 44, 444, "1.9774194996323184", "0.12908572893370485", False),
        (101, 446, 89, 1, "-1.9741432037398352", "0.13782789118267558", False),
        (446, 101, 0, 89, "-1.979177703734074", "0.11974705083129467", False),
        (446, 101, 445, 43, "1.9896745259130735", "0.08463131767677423", False),
    ],
    "mobius": [
        (101, 101, 0, 99, "-2.7712812921080854", "-0.6761892187852627", True),
        (101, 101, 0, 99, "-4.156921938158963", "-1.0142838281773532", True),
        (101, 101, 100, 0, "-2.771281292108085", "-0.6761892187852627", True),
        (101, 101, 100, 0, "-4.156921938158962", "-1.0142838281773532", True),
        (101, 202, 14, 42, "-0.8029205349162662", "-1.6606233062993438", True),
        (101, 202, 14, 150, "-0.5357808973551998", "-1.6775409000861714", True),
        (101, 207, 79, 4, "-2.3534752072085015", "1.4631926926871746", False),
        (101, 207, 80, 26, "-2.4921282388348547", "1.3789845944139192", False),
        (101, 207, 80, 163, "-3.4532715392829565", "0.897332051469993", False),
        (101, 207, 81, 189, "-3.6517010506667615", "0.8182372862212666", False),
        (101, 210, 36, 26, "4.07176873955706", "0.016904995425558345", False),
        (101, 210, 42, 195, "3.795401071672444", "-0.6932274135265986", True),
        (202, 101, 6, 13, "-0.890824024607273", "-1.66069553733845", True),
        (202, 101, 201, 14, "-0.4971187261762189", "-1.6832084841054415", False),
        (207, 101, 5, 79, "-2.3568219905936134", "1.4612341037323509", False),
        (207, 101, 206, 81, "-3.7129137523726907", "0.7921454690671668", False),
        (210, 101, 0, 36, "4.094648881934404", "0.0642254284227397", False),
        (210, 101, 209, 41, "3.778898783148047", "-0.7470310408740032", False),
    ],
}
CONTACT_DEMO = ("-1.649807081058208", "1.2076526815913105", True)


@pytest.fixture(autouse=True)
def _every_crossing_has_a_root(caplog):
    # no golden figure has a sign change of F without a root in it
    with caplog.at_level(logging.WARNING, logger="splinefig.implicit"):
        yield
    assert not [r for r in caplog.get_records("call") if "no root" in r.getMessage()]


def _contact_answers(monkeypatch, argv) -> list[tuple]:
    answers = []
    solve = surface.refine_contact

    def record(a, b, center_a, center_b, *args, **kwargs):
        rc = solve(a, b, center_a, center_b, *args, **kwargs)
        answers.append(
            (
                len(a.points), len(b.points), center_a, center_b,
                *map(repr, rc.point), rc.refined,
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
    assert (*map(repr, r.refined), r.refined_ok) == CONTACT_DEMO


def _digest(argv, capsys) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


SURFACE_FIGURES = [
    ("paraboloid.tex", PARABOLOID, "tex"),
    ("paraboloid.svg", PARABOLOID, "svg"),
    ("mobius.tex", MOBIUS, "tex"),
    ("partial.tex", PARTIAL, "tex"),
    ("paraboloid-omit.tex", PARABOLOID_OMIT, "tex"),
    ("paraboloid-omit.svg", PARABOLOID_OMIT, "svg"),
]


@pytest.mark.parametrize("name, text, fmt", SURFACE_FIGURES)
def test_surface_figure_digest(name, text, fmt, tmp_path, capsys):
    desc = tmp_path / "scene.surf"
    desc.write_text(text)
    assert _digest(["surface", str(desc), "--format", fmt], capsys) == GOLDEN[name]


@pytest.mark.parametrize("name, text, fmt", SURFACE_FIGURES)
def test_surface_figure_digest_from_the_python_loop(
    name, text, fmt, tmp_path, capsys, monkeypatch
):
    # refine_contact's search run in Python, as where no C compiler is
    monkeypatch.setattr(surface, "_kernel", False)
    test_surface_figure_digest(name, text, fmt, tmp_path, capsys)


@pytest.mark.parametrize("view", VIEW_BOX)
def test_view_box_digest(view, tmp_path, capsys):
    name, theta, phi = view
    desc = tmp_path / "scene.surf"
    desc.write_text({"paraboloid": PARABOLOID, "mobius": MOBIUS, "torus": TORUS}[name])
    argv = ["surface", str(desc), "--theta", theta, "--phi", phi, "--format", "tex"]
    assert _digest(argv, capsys) == VIEW_BOX[view]


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


def test_empty_scene_digest():
    tex = emit_latex(scene_from_items([]))
    assert "\\linethickness" not in tex
    assert hashlib.sha256(tex.encode("utf-8")).hexdigest() == GOLDEN["empty.tex"]


@pytest.mark.parametrize("fmt", ["tex", "svg"])
def test_spline_figure_with_data_discs_digest(fmt, tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0\n1,2\n2,1\n3,3\n4,0\n")
    argv = ["spline", "--points", str(pts), "--format", fmt]
    assert _digest(argv, capsys) == GOLDEN[f"spline-discs.{fmt}"]
