"""The benchmark's three workloads: inputs, argv and output checks.

Every input comes from the workload seed.  The program sees only argv
and the files written here; it never sees the seed.  Op k of a workload
is a pure function of (seed, k), so the same seed replays the same ops
and a re-run of op 0 must give the same bytes.

- surface-scenes: `splinefig surface` on the README paraboloid (six
  v-wires) and the Moebius band, alternating, at seeded views.  The only
  workload that runs `surface.py`; most of its time is contact
  refinement.
- implicit-trace: `splinefig implicit --grid 800` on seeded ellipses,
  CSV out, and every fourth op the README tilted conic with
  `--integrate-endpoints`.  Grid evaluation, marching squares and
  chaining; never touches `surface`.
- curve-figures: millisecond ops (`integrate`, `area`, `tangent --out`,
  `spline` figures in LaTeX and SVG) that run `spline`, `calculus`,
  `geom` and `render` but never `implicit` or `surface`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from splinefig.expr import evaluate, parse
from splinefig.surface import (
    ParametricSurface,
    Projection,
    SceneConfig,
    build_surface_scene,
)

# a check gets (stdout, bytes of the output file or b"") and returns a
# failure message or None, plus the deviation from an analytic
# reference when the op has one
Check = Callable[[str, bytes], "tuple[str | None, float | None]"]


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    out: Path | None
    check: Check


def _rng(workload: str, seed: int, key: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{key}")


def _num(x: float) -> str:
    """A float the expression parser reads back exactly as written."""
    return f"{x:.6f}"


def check_latex(text: str) -> str | None:
    if not text.startswith("{\\unitlength=1cm%"):
        return "LaTeX does not start with {\\unitlength=1cm%"
    lines = text.splitlines()
    bad = [k for k, line in enumerate(lines[:-1]) if not line.endswith("%")]
    if bad:
        return f"LaTeX line {bad[0] + 1} is not %-terminated"
    return None


def check_svg(text: str) -> str | None:
    if not text.startswith("<?xml"):
        return "SVG does not start with <?xml"
    if not text.rstrip().endswith("</svg>"):
        return "SVG does not end in </svg>"
    return None


def _figure_check(fmt: str) -> Check:
    def check(stdout: str, data: bytes):
        text = data.decode("utf-8")
        return (check_svg(text) if fmt == "svg" else check_latex(text)), None

    return check


def _number_check(ref: float, tol: float) -> Check:
    """The single printed number lies within tol of ref."""

    def check(stdout: str, data: bytes):
        try:
            value = float(stdout.strip())
        except ValueError:
            return f"expected one number, got {stdout!r}", None
        err = abs(value - ref)
        if not err <= tol:
            return f"{value} is {err:.3g} from {ref} (tolerance {tol:g})", err
        return None, err

    return check


# --------------------------------------------------------------------------
# surface-scenes

PARABOLOID = {
    "x": "u*cos(v)",
    "y": "u*sin(v)",
    "z": "4 - u^2",
    "u": "0, 2",
    "v": "0, 2*pi",
    "wires_v": "0, pi/3, 2*pi/3, pi, 4*pi/3, 5*pi/3",
}
MOBIUS = {
    "x": "2*cos(v)*(2+u*cos(v/2))",
    "y": "2*sin(v)*(2+u*cos(v/2))",
    "z": "2*u*sin(v/2)",
    "u": "-0.4, 0.4",
    "v": "0, 2*pi",
}
# README defaults, written out so the files say what the ops draw
SCENE_DEFAULTS = {"grid": "200", "samples": "100", "hidden": "dashed", "axes": "on"}
# curve counts build_surface_scene reports for each surface
STRUCTURE = (
    {"silhouettes": 1, "boundaries": 1, "wires": 6},
    {"boundaries": 2},
)

# views fill the box theta in [40, 80], phi in [15, 35] (degrees) along
# the R2 low-discrepancy sequence, shifted by the seed: every prefix of
# the ops spreads evenly over the box, so a run's mix of cheap and dear
# views (scene cost depends strongly on the view) stays the same from
# seed to seed.  Both surfaces of a pair share a view.
THETA_RANGE = (40.0, 80.0)
PHI_RANGE = (15.0, 35.0)
_PLASTIC = 1.324717957244746  # real root of x^3 = x + 1
R2_STEP = (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)


class SurfaceScenes:
    name = "surface-scenes"
    cycle = 2  # a run stops after whole cycles, so its mix stays balanced
    pooled = True  # ops run on the scene pool's threads

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.surfaces = (PARABOLOID, MOBIUS)
        self.files = (workdir / "paraboloid.surf", workdir / "mobius.surf")
        for desc, path in zip(self.surfaces, self.files):
            lines = {**desc, **SCENE_DEFAULTS}.items()
            path.write_text("".join(f"{key} = {value}\n" for key, value in lines))
        self.out = workdir / "scene.tex"

    def view(self, k: int) -> tuple[float, float]:
        """(theta, phi) in degrees of op k, rounded as passed on argv."""
        rng = _rng(self.name, self.seed, "shift")
        pair = k // 2
        x = (rng.random() + pair * R2_STEP[0]) % 1.0
        y = (rng.random() + pair * R2_STEP[1]) % 1.0
        theta = THETA_RANGE[0] + (THETA_RANGE[1] - THETA_RANGE[0]) * x
        phi = PHI_RANGE[0] + (PHI_RANGE[1] - PHI_RANGE[0]) * y
        return float(_num(theta)), float(_num(phi))

    def op(self, k: int) -> Op:
        theta, phi = self.view(k)
        argv = (
            "surface", str(self.files[k % 2]),
            "--theta", _num(theta), "--phi", _num(phi),
            "--out", str(self.out),
        )
        return Op(argv, self.out, _figure_check("tex"))

    def structure_check(self) -> list[str]:
        """Curve counts of each distinct surface at its first op's view.

        The paraboloid has one silhouette, one rim and six wires; the
        Moebius band has two rims.  Runs outside the timed loop.
        """
        problems = []
        for k, (desc, want) in enumerate(zip(self.surfaces, STRUCTURE)):
            surf = ParametricSurface.from_strings(
                desc["x"], desc["y"], desc["z"], _pair(desc["u"]), _pair(desc["v"])
            )
            wires_v = tuple(_eval(p) for p in desc.get("wires_v", "").split(",") if p)
            theta, phi = self.view(k)
            proj = Projection(math.radians(theta), math.radians(phi))
            cfg = SceneConfig(
                wires_v=wires_v,
                grid=int(SCENE_DEFAULTS["grid"]),
                samples=int(SCENE_DEFAULTS["samples"]),
            )
            _, report = build_surface_scene(surf, proj, cfg)
            for field, count in want.items():
                got = len(getattr(report, field))
                if got != count:
                    problems.append(
                        f"{self.files[k].name} at ({theta}, {phi}): "
                        f"{got} {field}, expected {count}"
                    )
        return problems


def _eval(text: str) -> float:
    return evaluate(parse(text), {})


def _pair(text: str) -> tuple[float, float]:
    lo, hi = text.split(",")
    return _eval(lo), _eval(hi)


# --------------------------------------------------------------------------
# implicit-trace

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"
# the integral acceptance gate 3 checks for the README conic
CONIC_REF, CONIC_TOL = 1.6987, 5e-3
ELLIPSE_TOL = 1e-6
IMPLICIT_GRID = "800"


def _residual_check(a: float, b: float, c: float) -> Check:
    """Every traced vertex lies on a*x^2 + b*x*y + c*y^2 = 1."""

    def check(stdout: str, data: bytes):
        worst = 0.0
        vertices = 0
        for line in data.decode("utf-8").splitlines():
            if line.startswith("#"):
                continue
            x, y = (float(part) for part in line.split(","))
            worst = max(worst, abs(a * x * x + b * x * y + c * y * y - 1.0))
            vertices += 1
        if vertices < 100:
            return f"only {vertices} traced vertices", None
        if not worst <= ELLIPSE_TOL:
            return f"vertex residual {worst:.3g} over {ELLIPSE_TOL:g}", worst
        return None, worst

    return check


def _gate_check(check: Check) -> Check:
    """The check without its deviation: CONIC_REF is a rounded gate
    value, not an analytic reference, so it stays out of max_err."""

    def gate(stdout: str, data: bytes):
        return check(stdout, data)[0], None

    return gate


class ImplicitTrace:
    name = "implicit-trace"
    cycle = 4
    pooled = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = workdir / "trace.csv"

    def ellipse(self, k: int) -> tuple[float, float, float]:
        """Coefficients (a, b, c) of op k, as written on argv.

        Eigenvalues in [0.35, 2.5] keep the semi-axes under 1.7, so the
        whole ellipse lies inside the [-2, 2]^2 window.
        """
        rng = _rng(self.name, self.seed, str(k))
        l1, l2 = rng.uniform(0.35, 2.5), rng.uniform(0.35, 2.5)
        alpha = rng.uniform(0.0, math.pi)
        cs, sn = math.cos(alpha), math.sin(alpha)
        a = l1 * cs * cs + l2 * sn * sn
        c = l1 * sn * sn + l2 * cs * cs
        b = 2.0 * (l1 - l2) * sn * cs
        return float(_num(a)), float(_num(b)), float(_num(c))

    def op(self, k: int) -> Op:
        if k % self.cycle == self.cycle - 1:
            argv = (
                "implicit", "--fn", CONIC,
                "--xrange=-2,2", "--yrange=-2,2.5",
                "--grid", IMPLICIT_GRID, "--integrate-endpoints",
            )
            return Op(argv, None, _gate_check(_number_check(CONIC_REF, CONIC_TOL)))
        a, b, c = self.ellipse(k)
        sign = "-" if b < 0 else "+"
        fn = f"{_num(a)}*x^2{sign}{_num(abs(b))}*x*y+{_num(c)}*y^2=1"
        argv = (
            "implicit", "--fn", fn, "--xrange=-2,2", "--yrange=-2,2",
            "--grid", IMPLICIT_GRID, "--format", "csv", "--out", str(self.out),
        )
        return Op(argv, self.out, _residual_check(a, b, c))

    def structure_check(self) -> list[str]:
        return []


# --------------------------------------------------------------------------
# curve-figures

INTEGRAND = "x^2*sin(x)"
INTEGRAL_REF = math.pi ** 2 - 4.0  # integral of x^2 sin x over [0, pi]
INTEGRAL_TOL = 1e-4
AREA_RTOL = 1e-5
SLOPE_TOL = 1e-3
POINT_FILES = 16  # of each kind, open and closed
POINT_SIZES = (50, 200)  # fewest and most points in a file
# one block of ops; the seed shuffles each block
CURVE_KINDS = (
    "integrate",
    "area",
    "tangent",
    "spline-open-tex",
    "spline-open-svg",
    "spline-closed-tex",
    "spline-closed-svg",
)


def _stratified_size(rng: random.Random, j: int) -> int:
    """Point count of file j: a seeded draw from the j-th of POINT_FILES
    equal bands of [50, 200].  Spline cost grows with the point count,
    so one file per band gives every seed the same mix of sizes and
    keeps the seed out of the run's throughput."""
    lo, hi = POINT_SIZES
    width = (hi - lo + 1) / POINT_FILES
    return lo + int((j + rng.random()) * width)


def _closed_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points round a wavy ellipse r = 1 + e sin(m t)."""
    ax, ay = rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0)
    e, m = rng.uniform(0.0, 0.3), rng.randint(2, 6)
    pts = []
    for j in range(n):
        t = 2.0 * math.pi * j / n
        r = 1.0 + e * math.sin(m * t)
        pts.append((ax * r * math.cos(t), ay * r * math.sin(t)))
    return pts


def _open_points(rng: random.Random, n: int) -> list[tuple[float, float]]:
    """n points along a damped wave y = A exp(-d x) sin(w x)."""
    length = rng.uniform(4.0, 10.0)
    amp, decay, w = rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3), rng.uniform(1.0, 4.0)
    return [
        (x, amp * math.exp(-decay * x) * math.sin(w * x))
        for x in (length * j / (n - 1) for j in range(n))
    ]


def _tangent_check(x0: float, tol: float) -> Check:
    """`point (x,y) slope s` of sin at x0: the slope is cos x0."""

    def check(stdout: str, data: bytes):
        fig = check_latex(data.decode("utf-8"))
        if fig:
            return fig, None
        words = stdout.split()
        if len(words) != 4 or words[0] != "point" or words[2] != "slope":
            return f"unexpected tangent output {stdout!r}", None
        x = float(words[1].strip("()").split(",")[0])
        if abs(x - x0) > 1e-6:
            return f"tangent point x {x} is not {x0}", None
        err = abs(float(words[3]) - math.cos(x0))
        if not err <= tol:
            return f"slope is {err:.3g} from cos({x0})", err
        return None, err

    return check


class CurveFigures:
    name = "curve-figures"
    cycle = len(CURVE_KINDS)
    pooled = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.points: dict[bool, list[Path]] = {False: [], True: []}
        for closed in (False, True):
            for j in range(POINT_FILES):
                rng = _rng(self.name, seed, f"points:{closed}:{j}")
                n = _stratified_size(rng, j)
                pts = (_closed_points if closed else _open_points)(rng, n)
                path = workdir / f"{'closed' if closed else 'open'}-{j}.csv"
                path.write_text("".join(f"{x!r},{y!r}\n" for x, y in pts))
                self.points[closed].append(path)

    def kind(self, k: int) -> str:
        block, pos = divmod(k, len(CURVE_KINDS))
        order = list(CURVE_KINDS)
        _rng(self.name, self.seed, f"block:{block}").shuffle(order)
        return order[pos]

    def op(self, k: int) -> Op:
        kind = self.kind(k)
        rng = _rng(self.name, self.seed, str(k))
        if kind == "integrate":
            num = rng.randint(50, 400)
            argv = (
                "integrate", "--fn", INTEGRAND, "--sample-range=0,pi",
                "--num", str(num), "--interval", "0,pi",
            )
            return Op(argv, None, _number_check(INTEGRAL_REF, INTEGRAL_TOL))
        if kind == "area":
            a, b = float(_num(rng.uniform(1.0, 4.0))), float(_num(rng.uniform(0.5, 3.0)))
            num = rng.randint(50, 400)
            argv = (
                "area", "--fx", f"{_num(a)}*cos(t)", "--fy", f"{_num(b)}*sin(t)",
                "--range", "0,2*pi", "--num", str(num),
            )
            ref = math.pi * a * b
            return Op(argv, None, _number_check(ref, AREA_RTOL * ref))
        if kind == "tangent":
            x0 = float(_num(rng.uniform(0.3, 2.7)))
            num = rng.randint(60, 200)
            out = self.workdir / "tangent.tex"
            argv = (
                "tangent", "--fn", "sin(x)", "--sample-range", "0,3",
                "--num", str(num), "--at", _num(x0), "--out", str(out),
            )
            return Op(argv, out, _tangent_check(x0, SLOPE_TOL))
        _, shape, fmt = kind.split("-")
        closed = shape == "closed"
        path = self.points[closed][rng.randrange(POINT_FILES)]
        method = rng.choice(("oshima", "catmull-rom"))
        out = self.workdir / f"spline.{fmt}"
        argv = (
            "spline", "--points", str(path), f"--{shape}", "--method", method,
            "--format", fmt, "--out", str(out),
        )
        return Op(argv, out, _figure_check(fmt))

    def structure_check(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SurfaceScenes, ImplicitTrace, CurveFigures)}
