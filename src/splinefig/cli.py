"""Command line front end.

Numeric options go through the expression parser, so --interval 0,pi
or --at pi/4 work anywhere a number is expected; counts and the
elevation are checked as they are parsed, on argv and in `.surf` files
alike.  Figures are written as LaTeX picture environments by default,
to --out or stdout; --format svg is the alternative, and `spline` and
`implicit` also write csv.  --show-config prints every parsed option,
then the values the command resolved (spline: `closed`; surface: the
`.surf` keys), and exits.  Exit status: 0 on success, 1 when the
computation fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .calculus import (
    CalculusError,
    IntegrationRequest,
    closed_area,
    integrate,
    tangent_line,
)
from .expr import Const, ExprError, Neg, compile_fn, evaluate, free_vars, parse, steps
from .geom import PointFileError, Polyline, drop_repeats, load_points
from .implicit import MAX_GRID, TraceConfig, TraceError, parse_equation, trace_implicit
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

# the largest --num, `.surf` and `contact-demo` samples, and vertex count
# of a `spline` figure: at ten times these, the sampled points of
# `integrate` and a spline figure (324 MB at 10^6 vertices) outgrow 1 GB
# of memory, and a surface scene whose curves run within the contact
# tolerance of each other takes hours (time grows with samples^2: the
# README paraboloid scaled by 0.01 takes 141 s at 10^4 samples)
MAX_NUM = 10**6
MAX_SAMPLES = 10**4
MAX_VERTICES = 10**6
# every `.surf` key; the first five are required
SURF_KEYS = (
    "x", "y", "z", "u", "v",
    "theta", "phi", "wires_u", "wires_v", "grid", "samples", "hidden", "axes",
)

# `surface` is imported by the two commands that draw surfaces, so the
# others never load it; its SurfaceError is reported once it is loaded
_ERRORS = (
    ExprError,  # DomainError included
    CalculusError,
    TraceError,
    DegenerateGeometryError,
    RenderError,
    PointFileError,
    OSError,
)


def _reported() -> tuple[type[Exception], ...]:
    """The errors main reports as `error: ...` instead of raising."""
    surface = sys.modules.get(f"{__package__}.surface")
    return _ERRORS if surface is None else (*_ERRORS, surface.SurfaceError)


# ---------------------------------------------------------------------------
# value converters: text in, value out, ExprError on bad text


def _const(text: str) -> float:
    """A constant; pi, e and arithmetic are fine.  A literal that parses
    to a finite number, or its negation, is its own value (-0 is -0.0),
    with no program compiled."""
    node = parse(text)
    literal = node.arg if isinstance(node, Neg) else node
    if isinstance(literal, Const) and math.isfinite(literal.value):
        return literal.value if literal is node else -literal.value
    if free_vars(node):
        raise ExprError(f"{text!r} is not a constant")
    return evaluate(node, {})


def _const_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ExprError(f"expected 'a,b', got {text!r}")
    return _const(parts[0]), _const(parts[1])


def _const_list(text: str) -> tuple[float, ...]:
    return tuple(_const(p) for p in text.split(",") if p.strip())


def _elevation(text: str) -> float:
    """An elevation in degrees, strictly between -90 and 90.

    Tested in radians, as Projection tests it, so the two never disagree.
    """
    phi = _const(text)
    if not -math.pi / 2 < math.radians(phi) < math.pi / 2:
        raise ExprError(f"elevation must lie in (-90, 90) degrees, got {text!r}")
    return phi


def _positive(text: str) -> float:
    x = _const(text)
    if not x > 0.0:
        raise ExprError(f"expected a positive number, got {text!r}")
    return x


def _count(minimum: int, maximum: float = math.inf) -> Callable[[str], int]:
    """A converter for an integer from `minimum` to `maximum`."""
    bound = f">= {minimum}" if maximum == math.inf else f"in [{minimum}, {maximum}]"

    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = None
        if n is None or not minimum <= n <= maximum:
            raise ExprError(f"expected an integer {bound}, got {text!r}")
        return n

    return count


def _arg(convert: Callable[[str], object]) -> Callable[[str], object]:
    """The argparse type for a converter: bad text is a usage error."""

    def arg_type(text: str) -> object:
        try:
            return convert(text)
        except ExprError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return arg_type


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
        lines.extend(f"{x!r},{y!r}" for x, y in poly.points.tolist())
    return "\n".join(lines) + "\n"


def _show_config(args, **resolved: object) -> int:
    """Print every parsed option in parser order, then the resolved values.

    A resolved value replaces the parsed option of the same name.
    """
    skip = {"command", "func", "show_config", *resolved}
    shown = {k: v for k, v in vars(args).items() if k not in skip}
    for key, value in {**shown, **resolved}.items():
        print(f"{key} = {value}")
    return 0


def _sample(
    flag: str, var: str, exprs: Sequence[str], rng: tuple[float, float], num: int
) -> np.ndarray:
    """Points at num + 1 even steps of `var` over rng, as (n, 2) rows.

    One expression f gives the graph (var, f); two give (f, g).
    """
    nodes = [parse(text) for text in exprs]
    extra = set().union(*map(free_vars, nodes)) - {var}
    if extra:
        raise ExprError(f"unexpected variables {sorted(extra)} in {flag}")
    fns = [compile_fn(node, (var,)) for node in nodes]
    fx, fy = fns if len(fns) == 2 else (lambda v: v, fns[0])
    return np.array([(fx(v), fy(v)) for v in steps(*rng, num)], dtype=float)


def _data_points(args) -> np.ndarray:
    """Points from --points, else sampled from --fn on x or --fx/--fy on t."""
    if args.points:
        return load_points(args.points)
    if "fn" in vars(args):
        if not args.fn:
            raise ExprError("need --points or --fn")
        if args.sample_range is None:
            raise ExprError("--fn needs --sample-range")
        return _sample("--fn", "x", (args.fn,), args.sample_range, args.num)
    if not (args.fx and args.fy):
        raise ExprError("need --points or --fx and --fy")
    if args.range is None:
        raise ExprError("--fx/--fy need --range")
    return _sample("--fx/--fy", "t", (args.fx, args.fy), args.range, args.num)


def _method(args) -> SplineMethod:
    return SplineMethod(args.method)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spline(args) -> int:
    closed = True if args.closed else (False if args.open else None)
    if args.show_config:
        return _show_config(args, closed="auto" if closed is None else closed)
    pts = load_points(args.points)
    curve = build_spline(pts, method=_method(args), closed=closed)
    vertices = args.samples * len(curve.ctrl) + 1
    if vertices > MAX_VERTICES:
        raise ExprError(
            f"--samples {args.samples} over {len(curve.ctrl)} segments samples "
            f"{vertices} vertices, more than {MAX_VERTICES}"
        )
    poly = curve.sample(args.samples)
    if args.format == "csv":
        _write_out(_polyline_csv([poly]), args.out)
        return 0
    # data markers: a repeated row is drawn once
    markers = DrawItem(Polyline(drop_repeats(pts)), style=Style.DOTTED_DISC)
    _emit(scene_from_items([DrawItem(poly), markers]), args.format, args.out)
    return 0


def _cmd_integrate(args) -> int:
    if args.show_config:
        return _show_config(args)
    pts = _data_points(args)
    xs = pts[:, 0].tolist()
    interval = args.interval or (min(xs, default=0.0), max(xs, default=0.0))
    req = IntegrationRequest(pts, interval, _method(args))
    print(f"{integrate(req):.6f}")
    return 0


def _cmd_area(args) -> int:
    if args.show_config:
        return _show_config(args)
    pts = _data_points(args)
    print(f"{abs(closed_area(pts, _method(args))):.6f}")
    return 0


def _cmd_tangent(args) -> int:
    if args.show_config:
        return _show_config(args)
    pts = _data_points(args)
    line = tangent_line(pts, args.at, _method(args))
    x0, y0 = line.point
    what = "tangent vertical" if line.vertical else f"slope {line.slope:.6f}"
    # the figure first, so that a refused one prints no answer
    if args.out:
        curve = line.curve.sample(10)
        xs, ys = pts.T.tolist()
        # half the data's width, or its height when every row has one x
        half = 0.25 * ((max(xs) - min(xs)) or (max(ys) - min(ys)))
        if line.vertical:
            ends = ((x0, y0 - half), (x0, y0 + half))
        else:
            a, b = x0 - half, x0 + half
            ends = ((a, line.y_at(a)), (b, line.y_at(b)))
        items = [
            DrawItem(curve),
            DrawItem(Polyline(ends), style=Style.DASHED),
            DrawItem(Polyline(drop_repeats(pts)), style=Style.DOTTED_DISC),
        ]
        _emit(scene_from_items(items), args.format, args.out)
    print(f"point ({x0:.6f},{y0:.6f}) {what}")
    return 0


def _cmd_implicit(args) -> int:
    if args.show_config:
        return _show_config(args)
    node = parse_equation(args.fn)
    cfg = TraceConfig(args.xrange, args.yrange, grid=args.grid)
    comps = trace_implicit(node, cfg)
    if args.integrate_endpoints:
        open_comps = [c for c in comps if not c.is_loop()]
        if not open_comps:
            raise TraceError("no open component to integrate")
        branch = open_comps[0]
        interval = sorted(branch.points[[-1, 0], 0].tolist())
        req = IntegrationRequest(branch.points, tuple(interval), _method(args))
        print(f"{integrate(req):.6f}")
        return 0
    if not comps:
        raise TraceError("zero set is empty in this window")
    if args.format == "csv":
        _write_out(_polyline_csv(comps), args.out)
        return 0
    _emit(scene_from_items([DrawItem(c) for c in comps]), args.format, args.out)
    return 0


def _read_surface_file(path: str) -> dict[str, str]:
    from .surface import SurfaceError

    desc: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.partition("#")[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SurfaceError(f"{path}:{lineno}: expected key = value")
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in SURF_KEYS:
                raise SurfaceError(f"{path}:{lineno}: unknown key {key!r}")
            if key in desc:
                raise SurfaceError(f"{path}:{lineno}: repeated key {key!r}")
            desc[key] = value
    return desc


def _setting(
    desc: dict[str, str], key: str, convert: Callable[[str], object], default: str = ""
) -> object:
    """A `.surf` value through its converter; a bad one names its key."""
    from .surface import SurfaceError

    try:
        return convert(desc.get(key, default))
    except ExprError as exc:
        raise SurfaceError(f"{key}: {exc}") from exc


def _cmd_surface(args) -> int:
    from . import surface

    desc = _read_surface_file(args.file)
    missing = set(SURF_KEYS[:5]) - desc.keys()
    if missing:
        raise surface.SurfaceError(f"surface file lacks {sorted(missing)}")
    if desc.get("axes", "on") not in ("on", "off"):
        raise surface.SurfaceError(f"axes: expected on or off, got {desc['axes']!r}")
    u, v = _setting(desc, "u", _const_pair), _setting(desc, "v", _const_pair)
    surf = surface.ParametricSurface.from_strings(
        desc["x"], desc["y"], desc["z"], u, v
    )
    theta = args.theta
    if theta is None:
        theta = _setting(desc, "theta", _const, "60")
    phi = args.phi
    if phi is None:
        phi = _setting(desc, "phi", _elevation, "25")
    proj = surface.Projection(math.radians(theta), math.radians(phi))
    cfg = surface.SceneConfig(
        wires_u=_setting(desc, "wires_u", _const_list),
        wires_v=_setting(desc, "wires_v", _const_list),
        grid=_setting(desc, "grid", _count(8, MAX_GRID), "200"),
        samples=_setting(desc, "samples", _count(1, MAX_SAMPLES), "100"),
        hidden_style=desc.get("hidden", "dashed"),
        axes=desc.get("axes", "on") == "on",
    )
    if args.show_config:
        return _show_config(
            args, x=desc["x"], y=desc["y"], z=desc["z"], u=u, v=v,
            theta=theta, phi=phi, wires_u=cfg.wires_u, wires_v=cfg.wires_v,
            grid=cfg.grid, samples=cfg.samples, hidden=cfg.hidden_style,
            axes=cfg.axes,
        )
    scene, _ = surface.build_surface_scene(surf, proj, cfg)
    _emit(scene, args.format, args.out)
    return 0


def _cmd_contact_demo(args) -> int:
    from . import surface

    if args.show_config:
        return _show_config(args)
    result = surface.contact_demo(
        math.radians(args.theta),
        math.radians(args.phi),
        grid=args.grid,
        samples=args.samples,
        window=args.window,
        tol=args.tol,
    )
    (rx, ry), (ax, ay) = result.refined, result.analytic
    tag = "refined" if result.refined_ok else "unrefined (closest approach)"
    print(
        f"crossings: {result.crossings}\n"
        f"cluster: {len(result.cluster)} candidate midpoints, "
        f"spread {result.cluster_spread:.6f}\n"
        f"contact: ({rx:.6f},{ry:.6f}) [{tag}]"
    )
    if result.analytic_drawn:
        distance = math.hypot(rx - ax, ry - ay)
        print(f"analytic: ({ax:.6f},{ay:.6f})\ndistance: {distance:.6f}")
    else:
        print("analytic: none on the drawn axis (|y| <= 4)")
    if args.out:
        proj = surface.Projection(math.radians(args.theta), math.radians(args.phi))
        scene, _ = surface.build_surface_scene(
            surface.paraboloid_surface(),
            proj,
            surface.SceneConfig(grid=args.grid, samples=args.samples),
        )
        m = 0.08
        cross = [
            DrawItem(Polyline(((rx - m, ry - m), (rx + m, ry + m)))),
            DrawItem(Polyline(((rx - m, ry + m), (rx + m, ry - m)))),
        ]
        scene = scene_from_items(list(scene.items) + cross)
        _emit(scene, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common_figure(
    p: argparse.ArgumentParser, formats: tuple[str, ...] = ("tex", "svg")
) -> None:
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument(
        "--format", choices=formats, default="tex", help="figure format"
    )


def _add_method(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--method", choices=("oshima", "catmull-rom"), default="oshima",
        help="control point rule",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones:
    parsing leaves it as it was, and every default is immutable."""
    num, pair = _arg(_const), _arg(_const_pair)
    count_num, grid = _arg(_count(1, MAX_NUM)), _arg(_count(8, MAX_GRID))
    ap = argparse.ArgumentParser(
        prog="splinefig",
        description="spline figures, spline calculus and hidden-line drawings",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spline", help="interpolate sampled points")
    p.add_argument("--points", required=True, help="csv file of x,y rows")
    p.add_argument(
        "--samples", type=_arg(_count(1)), default=10,
        help=f"samples per segment, at most {MAX_VERTICES} vertices in all",
    )
    group = p.add_mutually_exclusive_group()
    group.add_argument("--closed", action="store_true")
    group.add_argument("--open", action="store_true")
    _add_method(p)
    _add_common_figure(p, ("tex", "svg", "csv"))
    p.set_defaults(func=_cmd_spline)

    p = sub.add_parser("integrate", help="integral under an interpolated curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fn", help="sample y = f(x) instead of reading a file")
    p.add_argument("--sample-range", type=pair, metavar="A,B")
    p.add_argument("--num", type=count_num, default=50, help="subdivision count")
    p.add_argument("--interval", type=pair, metavar="A,B")
    _add_method(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("area", help="area enclosed by a closed curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fx", help="x(t) for parametric sampling")
    p.add_argument("--fy", help="y(t) for parametric sampling")
    p.add_argument("--range", type=pair, metavar="A,B")
    p.add_argument("--num", type=count_num, default=50)
    _add_method(p)
    p.set_defaults(func=_cmd_area)

    p = sub.add_parser("tangent", help="tangent line of the interpolated curve")
    p.add_argument("--points", help="csv file of x,y rows")
    p.add_argument("--fn", help="sample y = f(x) instead of reading a file")
    p.add_argument("--sample-range", type=pair, metavar="A,B")
    p.add_argument("--num", type=count_num, default=50)
    p.add_argument("--at", type=num, required=True, metavar="X")
    _add_method(p)
    _add_common_figure(p)
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("implicit", help="trace F(x,y) = G(x,y) in a window")
    p.add_argument("--fn", required=True, help="equation, e.g. 'x^2+y^2=1'")
    p.add_argument("--xrange", type=pair, required=True, metavar="A,B")
    p.add_argument("--yrange", type=pair, required=True, metavar="A,B")
    p.add_argument("--grid", type=grid, default=200)
    p.add_argument(
        "--integrate-endpoints", action="store_true",
        help="integrate the open branch between its endpoint abscissae",
    )
    _add_method(p)
    _add_common_figure(p, ("tex", "svg", "csv"))
    p.set_defaults(func=_cmd_implicit)

    p = sub.add_parser("surface", help="hidden-line drawing of a surface")
    p.add_argument("file", help="key = value surface description file")
    p.add_argument("--theta", type=num, help="azimuth in degrees")
    p.add_argument("--phi", type=_arg(_elevation), help="elevation in degrees")
    _add_common_figure(p)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser(
        "contact-demo",
        help="refine the paraboloid silhouette / y-axis contact",
    )
    p.add_argument("--theta", type=num, default=60.0, help="azimuth in degrees")
    p.add_argument(
        "--phi", type=_arg(_elevation), default=25.0, help="elevation in degrees"
    )
    p.add_argument("--grid", type=grid, default=200)
    p.add_argument(
        "--samples", type=_arg(_count(1, MAX_SAMPLES)), default=100,
        help=f"samples per drawn curve, at most {MAX_SAMPLES}",
    )
    p.add_argument("--window", type=_arg(_count(0)), default=6)
    p.add_argument("--tol", type=_arg(_positive), default=1e-7)
    _add_common_figure(p)
    p.set_defaults(func=_cmd_contact_demo)

    for p in sub.choices.values():
        p.add_argument(
            "--show-config", action="store_true",
            help="print every option and the resolved settings, and exit",
        )
    return ap


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _reported() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
