"""Acceptance gates: numeric targets, tolerances and runtime budgets.

Each test checks one gate and prints a single PASS/FAIL line (visible
with pytest -s; under plain pytest the -v status line carries the same
information).
"""

import math
import re
from fractions import Fraction
from time import perf_counter

import numpy as np

from splinefig.calculus import IntegrationRequest, closed_area, integrate, segment_integral
from splinefig.expr import compile_fn, diff, parse
from scalar_reference import (
    Point2,
    control_points_oshima,
    control_rows,
    oshima_coefficient,
    point_at,
    vertices,
)
from splinefig.geom import Polyline
from splinefig.implicit import TraceConfig, parse_equation, trace_implicit
from splinefig.render import DrawItem, Scene, emit_latex, fmt5
from splinefig.spline import SplineMethod, build_spline
from splinefig.surface import (
    Projection,
    SceneConfig,
    build_surface_scene,
    contact_demo,
    intersect_projected,
    paraboloid_surface,
)
from test_calculus import exact_integral

OSH = SplineMethod.OSHIMA
CR = SplineMethod.CATMULL_ROM

CONIC = "8*x^2-4*sqrt(2)*x*y+y^2-3*x-6*sqrt(2)*y+2=0"


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")


def _samples(f, lo: float, hi: float, num: int) -> list[Point2]:
    return [
        Point2(lo + (hi - lo) * k / num, f(lo + (hi - lo) * k / num))
        for k in range(num + 1)
    ]


def test_criterion_1_ellipse_area():
    t0 = perf_counter()
    pts = [
        Point2(3 * math.cos(2 * math.pi * k / 50), 2 * math.sin(2 * math.pi * k / 50))
        for k in range(51)
    ]
    area = abs(closed_area(pts, OSH))
    dt = perf_counter() - t0
    ratio = area / (6 * math.pi)
    ok = abs(ratio - 1.0) <= 1e-3 and dt < 0.1
    _report(1, "ellipse area", ok, f"ratio={ratio:.8f} dt={dt:.3f}s")
    assert abs(ratio - 1.0) <= 1e-3
    assert dt < 0.1


def test_criterion_2_integral_of_sampled_graph():
    t0 = perf_counter()
    pts = _samples(lambda x: x * x * math.sin(x), -math.pi, math.pi, 50)
    val = integrate(IntegrationRequest(tuple(pts), (0.0, math.pi), OSH))
    dt = perf_counter() - t0
    exact = math.pi**2 - 4.0
    ok = abs(val - 5.869063) <= 5e-3 and abs(val - exact) <= 1e-3 and dt < 0.1
    _report(2, "graph integral", ok, f"value={val:.6f} exact={exact:.6f} dt={dt:.3f}s")
    assert abs(val - 5.869063) <= 5e-3
    assert abs(val - exact) <= 1e-3
    assert dt < 0.1


def test_criterion_3_traced_conic_integral():
    t0 = perf_counter()
    comps = trace_implicit(
        parse_equation(CONIC), TraceConfig((-2.0, 2.0), (-2.0, 2.5), grid=200)
    )
    branch = next(c for c in comps if not c.is_loop())
    lo, hi = sorted(branch.points[[-1, 0], 0].tolist())
    val = integrate(IntegrationRequest(branch.points, (lo, hi), OSH))
    dt = perf_counter() - t0
    ok = abs(val - 1.6987) <= 5e-3 and dt < 1.0
    _report(3, "conic branch integral", ok, f"value={val:.6f} dt={dt:.3f}s")
    assert abs(val - 1.6987) <= 5e-3
    assert dt < 1.0


def test_criterion_4_contact_refinement():
    t0 = perf_counter()
    res = contact_demo()
    dt = perf_counter() - t0
    exact = Point2(-1.656701299244927, 1.210755779027779)
    err = Point2(*res.refined).dist(exact)
    ok = err < 0.01 and res.cluster_spread > err and res.refined_ok and dt < 5.0
    _report(
        4,
        "contact refinement",
        ok,
        f"err={err:.6f} spread={res.cluster_spread:.6f} dt={dt:.3f}s",
    )
    assert res.refined_ok
    assert err < 0.01
    assert res.cluster_spread > err
    assert dt < 5.0


def test_criterion_5_circle_fidelity():
    pts = [
        Point2(2 * math.cos(2 * math.pi * k / 12), 2 * math.sin(2 * math.pi * k / 12))
        for k in range(12)
    ]

    def worst(method: SplineMethod) -> float:
        poly = build_spline(pts, method=method, closed=True).sample(1000)
        xy = poly.points
        return float(np.max(np.abs(np.hypot(xy[:, 0], xy[:, 1]) - 2.0)))

    osh, cr = worst(OSH), worst(CR)

    r = 2.0
    quad = [Point2(r, 0), Point2(0, r), Point2(-r, 0), Point2(0, -r)]
    q, _ = control_points_oshima(quad[-1], quad[0], quad[1], quad[2])
    offset = (q - quad[0]).norm()
    target = (4.0 / 3.0) * math.tan(math.pi / 8.0) * r

    ok = osh < cr and abs(offset - target) <= 1e-9
    _report(
        5,
        "circle fidelity",
        ok,
        f"osh={osh:.2e} cr={cr:.2e} offset-err={abs(offset - target):.1e}",
    )
    assert osh < cr
    assert abs(offset - target) <= 1e-9


def test_criterion_6_property_battery():
    t0 = perf_counter()
    rng = np.random.default_rng(20260814)

    # spline interpolation and G1 joints on random data
    for _ in range(25):
        n = int(rng.integers(4, 10))
        data = [Point2(float(x), float(y)) for x, y in rng.uniform(-3, 3, (n, 2))]
        for method in (OSH, CR):
            for closed in (True, False):
                sp = build_spline(data, method=method, closed=closed)
                m = len(data)
                segs = control_rows(sp)
                for k, seg in enumerate(segs):
                    assert point_at(seg, 0.0).dist(data[k % m]) < 1e-12
                    assert point_at(seg, 1.0).dist(data[(k + 1) % m]) < 1e-12
                for prev, nxt in zip(segs, segs[1:]):
                    vin = prev[3] - prev[2]
                    vout = nxt[1] - nxt[0]
                    cross = vin.x * vout.y - vin.y * vout.x
                    assert abs(cross) <= 1e-9 * (vin.norm() * vout.norm() + 1.0)
                    assert vin.dot(vout) > 0.0

    # collinear equal spacing degenerates to the constant coefficient
    line = [Point2(float(k), 2.0 * k + 1.0) for k in range(4)]
    c = oshima_coefficient(*line)
    assert abs(c - 1.0 / 6.0) < 1e-15

    # integrate is additive and (with the constant rule) linear
    xs = [-math.pi + 2 * math.pi * k / 50 for k in range(51)]
    f = [Point2(x, x * x * math.sin(x)) for x in xs]
    g = [Point2(x, math.cos(2 * x)) for x in xs]
    h = [Point2(x, 2.0 * x * x * math.sin(x) - 0.5 * math.cos(2 * x)) for x in xs]
    for method in (OSH, CR):
        whole = integrate(IntegrationRequest(tuple(f), (0.0, 2.0), method))
        split = integrate(
            IntegrationRequest(tuple(f), (0.0, 0.9), method)
        ) + integrate(IntegrationRequest(tuple(f), (0.9, 2.0), method))
        assert abs(whole - split) < 1e-10
    lin_lhs = integrate(IntegrationRequest(tuple(h), (0.0, 3.0), CR))
    lin_rhs = 2.0 * integrate(
        IntegrationRequest(tuple(f), (0.0, 3.0), CR)
    ) - 0.5 * integrate(IntegrationRequest(tuple(g), (0.0, 3.0), CR))
    assert abs(lin_lhs - lin_rhs) < 1e-9

    # closed-form segment integral vs the exact integral in fractions,
    # within 2e-16 (sum |coords|)^2
    for _ in range(50):
        coords = rng.uniform(-2, 2, 8).tolist()
        x1, y1, x2, y2, x3, y3, x4, y4 = coords
        seg = [Point2(x1, y1), Point2(x2, y2), Point2(x3, y3), Point2(x4, y4)]
        err = abs(Fraction(segment_integral(seg)) - exact_integral(seg))
        assert err <= Fraction(2e-16) * Fraction(sum(map(abs, coords))) ** 2

    # symbolic derivative vs central differences
    hstep = 1e-5
    for text in ("x^2*sin(x)", "exp(x)/(1+x^2)", "log(1+x^2)*cos(2*x)", "sqrt(1+x^2)"):
        node = parse(text)
        fn = compile_fn(node, ("x",))
        dfn = compile_fn(diff(node, "x"), ("x",))
        for x in (0.3, 1.1, 2.7):
            fd = (fn(x + hstep) - fn(x - hstep)) / (2 * hstep)
            assert abs(dfn(x) - fd) <= 1e-6 * (1.0 + abs(dfn(x)))

    # traced zero sets stay on the zero set
    for eq, bound in (("x^2+y^2=1", 1e-8), (CONIC, 1e-7)):
        node = parse_equation(eq)
        fxy = compile_fn(node, ("x", "y"))
        comps = trace_implicit(node, TraceConfig((-2, 2), (-2, 2.5), grid=200))
        assert comps
        worst = max(abs(fxy(x, y)) for c in comps for x, y in c.points.tolist())
        assert worst < bound

    # crossing detection agrees with the quadratic-scan oracle
    ts = np.linspace(0, 2 * math.pi, 400)
    pa = Polyline(tuple(Point2(x, math.sin(3 * x)) for x in ts))
    pb = Polyline(tuple(Point2(x, 0.8 * math.cos(2 * x)) for x in ts))
    res = intersect_projected(pa, pb)

    def seg_cross(p1, p2, q1, q2):
        rx, ry = p2.x - p1.x, p2.y - p1.y
        sx, sy = q2.x - q1.x, q2.y - q1.y
        den = rx * sy - ry * sx
        if den == 0:
            return None
        dx, dy = q1.x - p1.x, q1.y - p1.y
        tt = (dx * sy - dy * sx) / den
        uu = (dx * ry - dy * rx) / den
        if 0 <= tt <= 1 and 0 <= uu <= 1:
            return Point2(p1.x + tt * rx, p1.y + tt * ry)
        return None

    va, vb = vertices(pa), vertices(pb)
    brute: list[Point2] = []
    for i in range(len(va) - 1):
        for j in range(len(vb) - 1):
            hit = seg_cross(va[i], va[i + 1], vb[j], vb[j + 1])
            if hit is not None and all(hit.dist(k) > 1e-9 for k in brute):
                brute.append(hit)
    assert len(res.crossings) == len(brute)
    for c in res.crossings:
        assert min(Point2(*c.point).dist(k) for k in brute) < 1e-9

    # emitters are deterministic and write exactly five decimals
    quad = [Point2(3, 0), Point2(0, 2), Point2(-3, 0), Point2(0, -2)]
    scene = Scene(
        (DrawItem(build_spline(quad, closed=True).sample(10)),),
        (6.6, 4.6, -3.3, -2.3),
    )
    tex = emit_latex(scene)
    assert tex == emit_latex(scene)
    body = "\n".join(tex.splitlines()[3:])  # past the compact size header
    for mx, my in re.findall(r"\((-?\d+\.\d+),(-?\d+\.\d+)\)", body):
        assert len(mx.split(".")[1]) == 5
        assert len(my.split(".")[1]) == 5
    assert fmt5(0.000005) == "0.00001"
    assert fmt5(-0.000005) == "-0.00001"

    dt = perf_counter() - t0
    ok = dt < 30.0
    _report(6, "property battery", ok, f"dt={dt:.1f}s")
    assert dt < 30.0


def test_criterion_7_scene_structure():
    surf = paraboloid_surface()
    cfg = SceneConfig(
        wires_v=tuple(k * math.pi / 3 for k in range(6)), grid=200, samples=100
    )
    scene, report = build_surface_scene(surf, Projection(), cfg)
    tex = emit_latex(scene)

    n_sil = len(report.silhouettes)
    n_bnd = len(report.boundaries)
    n_wir = len(report.wires)
    per_wire = [len(w.intervals()) for w in report.wires]
    any_hidden = any(h for w in report.wires for _, h in w.intervals())

    from splinefig.surface import ParametricSurface

    band = ParametricSurface.from_strings(
        "2*cos(v)*(2+u*cos(v/2))",
        "2*sin(v)*(2+u*cos(v/2))",
        "2*u*sin(v/2)",
        (-0.4, 0.4),
        (0.0, 2 * math.pi),
    )
    band_scene, band_report = build_surface_scene(band, Projection(), SceneConfig())
    band_tex = emit_latex(band_scene)

    ok = (
        n_sil == 1
        and n_bnd == 1
        and n_wir == 6
        and all(n >= 2 for n in per_wire)
        and any_hidden
        and tex.startswith("{\\unitlength=1cm%")
        and len(band_report.boundaries) == 2
        and band_tex.startswith("{\\unitlength=1cm%")
    )
    _report(
        7,
        "hidden-line scenes",
        ok,
        f"sil={n_sil} rim={n_bnd} wires={n_wir} intervals={per_wire} "
        f"hidden={any_hidden} band-rims={len(band_report.boundaries)}",
    )
    assert n_sil == 1
    assert n_bnd == 1
    assert n_wir == 6
    assert all(n >= 2 for n in per_wire)
    assert any_hidden
    assert len(band_report.boundaries) == 2
    assert tex.startswith("{\\unitlength=1cm%")
    assert band_tex.startswith("{\\unitlength=1cm%")
