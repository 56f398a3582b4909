"""Command line front end.

Numeric options go through the expression parser, so --interval 0,pi
or --at pi/4 work anywhere a number is expected.  Figures are written
as LaTeX picture environments by default (--format svg or csv for the
alternatives), to --out or stdout.  Exit status: 0 on success, 1 when
the computation fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Sequence

from . import __version__
from .calculus import (
    CalculusError,
    IntegrationRequest,
    closed_area,
    integrate,
    tangent_line,
)
from .expr import DomainError, ExprError, compile_fn, evaluate, free_vars, parse
from .geom import Point2, Polyline, load_points
from .implicit import TraceConfig, TraceError, parse_equation, trace_implicit
from .render import (
    DrawItem,
    RenderError,
    Scene,
    Style,
    emit_latex,
    emit_svg,
    scene_from_items,
)
from .spline import DegenerateGeometryError, SplineMethod, build_spline
from .surface import (
    ParametricSurface,
    Projection,
    SceneConfig,
    SurfaceError,
    contact_demo,
    paraboloid_surface,
    render_surface_scene,
)

_ERRORS = (
    ExprError,
    DomainError,
    CalculusError,
    TraceError,
    SurfaceError,
    DegenerateGeometryError,
    RenderError,
    OSError,
)


def _num(text: str) -> float:
    """A numeric argument; pi, e and arithmetic are fine."""
    try:
        node = parse(text)
        if free_vars(node):
            raise ExprError(f"{text!r} is not a constant")
        return evaluate(node, {})
    except ExprError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _num_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'a,b', got {text!r}")
    return _num(parts[0]), _num(parts[1])


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(scene: Scene, fmt: str, out: str | None) -> None:
    text = emit_svg(scene) if fmt == "svg" else emit_latex(scene)
    _write_out(text, out)


def _polyline_csv(polys: Sequence[Polyline]) -> str:
    lines = []
    for k, poly in enumerate(polys):
        lines.append(f"# component {k}")
        lines.extend(f"{p.x!r},{p.y!r}" for p in poly.points)
    return "\n".join(lines) + "\n"


def _show_config(pairs: list[tuple[str, object]]) -> int:
    for key, value in pairs:
        print(f"{key} = {value}")
    return 0


def _sample_fn(expr_text: str, lo: float, hi: float, num: int) -> list[Point2]:
    node = parse(expr_text)
    extra = free_vars(node) - {"x"}
    if extra:
        raise ExprError(f"unexpected variables {sorted(extra)} in --fn")
    f = compile_fn(node, ("x",))
    return [
        Point2(lo + (hi - lo) * (k / num), f(lo + (hi - lo) * (k / num)))
        for k in range(num + 1)
    ]


def _sample_param(
    fx_text: str, fy_text: str, lo: float, hi: float, num: int
) -> list[Point2]:
    nx, ny = parse(fx_text), parse(fy_text)
    extra = (free_vars(nx) | free_vars(ny)) - {"t"}
    if extra:
        raise ExprError(f"unexpected variables {sorted(extra)} in --fx/--fy")
    fx = compile_fn(nx, ("t",))
    fy = compile_fn(ny, ("t",))
    out = []
    for k in range(num + 1):
        t = lo + (hi - lo) * (k / num)
        out.append(Point2(fx(t), fy(t)))
    return out


def _data_points(args) -> list[Point2]:
    if args.points:
        return load_points(args.points)
    if args.fn:
        if args.sample_range is None:
            raise ExprError("--fn needs --sample-range")
        lo, hi = args.sample_range
        return _sample_fn(args.fn, lo, hi, args.num)
    raise ExprError("need --points or --fn")


def _method(args) -> SplineMethod:
    return SplineMethod(args.method)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spline(args) -> int:
    pts = load_points(args.points)
    closed = None
    if args.closed:
        closed = True
    elif args.open:
        closed = False
    if args.show_config:
        return _show_config(
            [
                ("points", args.points),
                ("method", args.method),
                ("closed", "auto" if closed is None else closed),
                ("samples", args.samples),
                ("format", args.format),
            ]
        )
    curve = build_spline(pts, method=_method(args), closed=closed)
    poly = curve.sample(args.samples)
    if args.format == "csv":
        _write_out(_polyline_csv([poly]), args.out)
        return 0
    items = [DrawItem(poly)]
    if len(pts) >= 2:
        items.append(DrawItem(Polyline(tuple(pts)), style=Style.DOTTED_DISC))
    _emit(scene_from_items(items), args.format, args.out)
    return 0


def _cmd_integrate(args) -> int:
    if args.show_config:
        return _show_config(
            [
                ("points", args.points),
                ("fn", args.fn),
                ("sample_range", args.sample_range),
                ("num", args.num),
                ("interval", args.interval),
                ("method", args.method),
            ]
        )
    pts = _data_points(args)
    interval = args.interval
    if interval is None:
        xs = [p.x for p in pts]
        interval = (min(xs), max(xs))
    req = IntegrationRequest(tuple(pts), interval, _method(args))
    print(f"{integrate(req):.6f}")
    return 0


def _cmd_area(args) -> int:
    if args.show_config:
        return _show_config(
            [
                ("points", args.points),
                ("fx", args.fx),
                ("fy", args.fy),
                ("range", args.range),
                ("num", args.num),
                ("method", args.method),
            ]
        )
    if args.points:
        pts = load_points(args.points)
    elif args.fx and args.fy:
        if args.range is None:
            raise ExprError("--fx/--fy need --range")
        lo, hi = args.range
        pts = _sample_param(args.fx, args.fy, lo, hi, args.num)
    else:
        raise ExprError("need --points or --fx and --fy")
    print(f"{abs(closed_area(pts, _method(args))):.6f}")
    return 0


def _cmd_tangent(args) -> int:
    if args.show_config:
        return _show_config(
            [
                ("points", args.points),
                ("fn", args.fn),
                ("at", args.at),
                ("method", args.method),
            ]
        )
    pts = _data_points(args)
    line = tangent_line(tuple(pts), args.at, _method(args))
    if line.vertical:
        print(f"point ({line.point.x:.6f},{line.point.y:.6f}) tangent vertical")
    else:
        print(
            f"point ({line.point.x:.6f},{line.point.y:.6f}) "
            f"slope {line.slope:.6f}"
        )
    if args.out:
        curve = build_spline(pts, method=_method(args), closed=False).sample(10)
        xs = [p.x for p in pts]
        half = 0.25 * (max(xs) - min(xs))
        a = line.point.x - half
        b = line.point.x + half
        if line.vertical:
            tang = Polyline(
                (
                    Point2(line.point.x, line.point.y - half),
                    Point2(line.point.x, line.point.y + half),
                )
            )
        else:
            tang = Polyline(
                (Point2(a, line.y_at(a)), Point2(b, line.y_at(b)))
            )
        items = [
            DrawItem(curve),
            DrawItem(tang, style=Style.DASHED),
            DrawItem(Polyline(tuple(pts)), style=Style.DOTTED_DISC),
        ]
        _emit(scene_from_items(items), args.format, args.out)
    return 0


def _cmd_implicit(args) -> int:
    if args.show_config:
        return _show_config(
            [
                ("fn", args.fn),
                ("xrange", args.xrange),
                ("yrange", args.yrange),
                ("grid", args.grid),
                ("method", args.method),
                ("format", args.format),
            ]
        )
    node = parse_equation(args.fn)
    cfg = TraceConfig(args.xrange, args.yrange, grid=args.grid)
    comps = trace_implicit(node, cfg)
    if args.integrate_endpoints:
        open_comps = [c for c in comps if not c.is_loop()]
        if not open_comps:
            raise TraceError("no open component to integrate")
        branch = open_comps[0]
        lo, hi = branch.pt_end.x, branch.pt_start.x
        if lo > hi:
            lo, hi = hi, lo
        req = IntegrationRequest(branch.points, (lo, hi), _method(args))
        print(f"{integrate(req):.6f}")
        return 0
    if not comps:
        raise TraceError("zero set is empty in this window")
    if args.format == "csv":
        _write_out(_polyline_csv(comps), args.out)
        return 0
    _emit(
        scene_from_items([DrawItem(c) for c in comps]),
        args.format,
        args.out,
    )
    return 0


def _read_surface_file(path: str) -> dict[str, str]:
    desc: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SurfaceError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            desc[key.strip()] = value.strip()
    return desc


def _cmd_surface(args) -> int:
    desc = _read_surface_file(args.file)
    missing = {"x", "y", "z", "u", "v"} - desc.keys()
    if missing:
        raise SurfaceError(f"surface file lacks {sorted(missing)}")

    def pair(key: str) -> tuple[float, float]:
        parts = desc[key].split(",")
        if len(parts) != 2:
            raise SurfaceError(f"{key} must be 'lo, hi'")
        return _const(parts[0]), _const(parts[1])

    def _const(text: str) -> float:
        node = parse(text)
        if free_vars(node):
            raise SurfaceError(f"{text!r} is not a constant")
        return evaluate(node, {})

    surf = ParametricSurface.from_strings(
        desc["x"], desc["y"], desc["z"], pair("u"), pair("v")
    )
    theta = args.theta if args.theta is not None else _const(desc.get("theta", "60"))
    phi = args.phi if args.phi is not None else _const(desc.get("phi", "25"))
    proj = Projection(math.radians(theta), math.radians(phi))
    wires_u = tuple(
        _const(p) for p in desc.get("wires_u", "").split(",") if p.strip()
    )
    wires_v = tuple(
        _const(p) for p in desc.get("wires_v", "").split(",") if p.strip()
    )
    cfg = SceneConfig(
        wires_u=wires_u,
        wires_v=wires_v,
        grid=int(desc.get("grid", "200")),
        samples=int(desc.get("samples", "100")),
        hidden_style=desc.get("hidden", "dashed"),
        axes=desc.get("axes", "on") != "off",
    )
    if args.show_config:
        return _show_config(
            [
                ("x", desc["x"]),
                ("y", desc["y"]),
                ("z", desc["z"]),
                ("u", pair("u")),
                ("v", pair("v")),
                ("theta", theta),
                ("phi", phi),
                ("wires_u", wires_u),
                ("wires_v", wires_v),
                ("grid", cfg.grid),
                ("samples", cfg.samples),
                ("hidden", cfg.hidden_style),
                ("axes", cfg.axes),
                ("format", args.format),
            ]
        )
    scene = render_surface_scene(surf, proj, cfg)
    _emit(scene, args.format, args.out)
    return 0


def _cmd_contact_demo(args) -> int:
    if args.show_config:
        return _show_config(
            [
                ("theta", args.theta),
                ("phi", args.phi),
                ("grid", args.grid),
                ("samples", args.samples),
                ("window", args.window),
                ("tol", args.tol),
            ]
        )
    result = contact_demo(
        math.radians(args.theta),
        math.radians(args.phi),
        grid=args.grid,
        samples=args.samples,
        window=args.window,
        tol=args.tol,
    )
    dist = result.refined.dist(result.analytic)
    print(f"crossings: {result.crossings}")
    print(
        f"cluster: {len(result.cluster)} candidate midpoints, "
        f"spread {result.cluster_spread:.6f}"
    )
    tag = "refined" if result.refined_ok else "unrefined (closest approach)"
    print(
        f"contact: ({result.refined.x:.6f},{result.refined.y:.6f}) [{tag}]"
    )
    print(
        f"analytic: ({result.analytic.x:.6f},{result.analytic.y:.6f})"
    )
    print(f"distance: {dist:.6f}")
    if args.out:
        proj = Projection(math.radians(args.theta), math.radians(args.phi))
        scene = render_surface_scene(
            paraboloid_surface(),
            proj,
            SceneConfig(grid=args.grid, samples=args.samples),
        )
        m = 0.08
        p = result.refined
        cross = [
            DrawItem(Polyline((Point2(p.x - m, p.y - m), Point2(p.x + m, p.y + m)))),
            DrawItem(Polyline((Point2(p.x - m, p.y + m), Point2(p.x + m, p.y - m)))),
        ]
        scene = scene_from_items(list(scene.items) + cross)
        _emit(scene, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_figure(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument(
        "--format", choices=("tex", "svg", "csv"), default="tex",
        help="figure format",
    )


def _add_method(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method", choices=("oshima", "catmull-rom"), default="oshima",
        help="control point rule",
    )


def _add_show_config(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--show-config", action="store_true",
        help="print the resolved settings and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="splinefig",
        description="spline figures, spline calculus and hidden-line drawings",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spline", help="interpolate sampled points")
    p.add_argument("--points", required=True, help="csv file of x,y rows")
    p.add_argument("--samples", type=int, default=10, help="samples per segment")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", action="store_true")
    group.add_argument("--open", action="store_true")
    _add_method(p)
    _add_common_figure(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_spline)

    p = sub.add_parser("integrate", help="integral under an interpolated curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fn", help="sample y = f(x) instead of reading a file")
    p.add_argument("--sample-range", type=_num_pair, metavar="A,B")
    p.add_argument("--num", type=int, default=50, help="subdivision count")
    p.add_argument("--interval", type=_num_pair, metavar="A,B")
    _add_method(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("area", help="area enclosed by a closed curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fx", help="x(t) for parametric sampling")
    p.add_argument("--fy", help="y(t) for parametric sampling")
    p.add_argument("--range", type=_num_pair, metavar="A,B")
    p.add_argument("--num", type=int, default=50)
    _add_method(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("tangent", help="tangent line of the interpolated curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fn", help="sample y = f(x) instead of reading a file")
    p.add_argument("--sample-range", type=_num_pair, metavar="A,B")
    p.add_argument("--num", type=int, default=50)
    p.add_argument("--at", type=_num, required=True, metavar="X")
    _add_method(p)
    _add_common_figure(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("implicit", help="trace F(x,y) = G(x,y) in a window")
    p.add_argument("--fn", required=True, help="equation, e.g. 'x^2+y^2=1'")
    p.add_argument("--xrange", type=_num_pair, required=True, metavar="A,B")
    p.add_argument("--yrange", type=_num_pair, required=True, metavar="A,B")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument(
        "--integrate-endpoints", action="store_true",
        help="integrate the open branch between its endpoint abscissae",
    )
    _add_method(p)
    _add_common_figure(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_implicit)

    p = sub.add_parser("surface", help="hidden-line drawing of a surface")
    p.add_argument("file", help="key = value surface description file")
    p.add_argument("--theta", type=_num, help="azimuth in degrees")
    p.add_argument("--phi", type=_num, help="elevation in degrees")
    _add_common_figure(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser(
        "contact-demo",
        help="refine the paraboloid silhouette / y-axis contact",
    )
    p.add_argument("--theta", type=_num, default=60.0, help="azimuth in degrees")
    p.add_argument("--phi", type=_num, default=25.0, help="elevation in degrees")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--tol", type=_num, default=1e-7)
    _add_common_figure(p)
    _add_show_config(p)
    p.set_defaults(func=_cmd_contact_demo)

    return ap


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
