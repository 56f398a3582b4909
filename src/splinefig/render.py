"""Figure emission: LaTeX picture environment and SVG.

Scenes are plain data: polylines with a stroke style (and optionally a
text label), inside an explicit bounding box measured in centimetres.
The LaTeX
backend targets the picture environment with \\unitlength set to 1cm
and draws with \\polyline (pict2e); dashes and dots are generated here
by arc-length resampling rather than left to the TeX driver, so the
output is identical everywhere.  Both emitters are deterministic down
to the byte: coordinates are written with exactly five decimals,
rounding halves away from zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from enum import Enum
from typing import Iterable, Sequence

from .geom import Point2, Polyline

CM_TO_PX = 37.795  # SVG user units per centimetre (96 dpi)
DASH_STEP = 0.1  # cm of pen-down (and pen-up) per dash
DOT_STEP = 0.1  # cm between dot centres
DOT_DIAMETER = 0.04064  # cm, the classic 0.016in plotter dot
DISC_DIAMETER = 0.12  # cm, for vertex markers
SCENE_PAD = 0.05  # margin round a fitted scene, as a share of its larger side

_ALIGN_TO_MAKEBOX = {"n": "b", "s": "t", "e": "l", "w": "r", "c": ""}


class RenderError(ValueError):
    pass


class Style(Enum):
    SOLID = "solid"
    DASHED = "dashed"
    DOTTED = "dotted"
    DOTTED_DISC = "dotted-disc"


@dataclass(frozen=True)
class Label:
    text: str
    anchor: Point2
    align: str = "c"  # compass position of the text relative to the anchor

    def __post_init__(self):
        if self.align not in ("c", "n", "s", "e", "w", "ne", "nw", "se", "sw"):
            raise RenderError(f"bad label alignment {self.align!r}")


@dataclass(frozen=True)
class DrawItem:
    polyline: Polyline
    style: Style = Style.SOLID
    thickness: float = 0.008  # inches, as \linethickness wants
    label: Label | None = None


@dataclass(frozen=True)
class Scene:
    """Draw items inside bbox = (width, height, x-offset, y-offset) cm.

    Vertices may poke out of the box by at most 5% of its size (dashes
    and labels render fine slightly past the nominal frame).
    """

    items: tuple[DrawItem, ...]
    bbox: tuple[float, float, float, float] = (1.0, 1.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        w, h, x0, y0 = self.bbox
        if not (w > 0 and h > 0):
            raise RenderError("bounding box must have positive size")
        sx, sy = 0.05 * w, 0.05 * h
        for item in self.items:
            for p in item.polyline.points:
                if not (
                    x0 - sx <= p.x <= x0 + w + sx
                    and y0 - sy <= p.y <= y0 + h + sy
                ):
                    raise RenderError(
                        f"vertex ({p.x}, {p.y}) outside bounding box {self.bbox}"
                    )


def scene_from_items(items: Sequence[DrawItem]) -> Scene:
    """Scene with a bounding box fitted around everything plus a margin."""
    xs: list[float] = []
    ys: list[float] = []
    for item in items:
        for p in item.polyline.points:
            xs.append(p.x)
            ys.append(p.y)
        if item.label is not None:
            xs.append(item.label.anchor.x)
            ys.append(item.label.anchor.y)
    if not xs:
        return Scene((), (1.0, 1.0, 0.0, 0.0))
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    margin = SCENE_PAD * max(x1 - x0, y1 - y0, 1.0)
    return Scene(
        tuple(items),
        ((x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin, x0 - margin, y0 - margin),
    )


_FIVE = Decimal("0.00001")


def fmt5(x: float) -> str:
    """Fixed five decimals, halves rounded away from zero."""
    if not math.isfinite(x):
        raise RenderError(f"cannot format {x!r}")
    try:
        q = Decimal(repr(x)).quantize(_FIVE, rounding=ROUND_HALF_UP)
    except InvalidOperation:  # more digits than the decimal context holds
        raise RenderError(f"cannot format {x!r} with five decimals") from None
    if q.is_zero():
        q = abs(q)  # roundoff must not leak "-0.00000" into the output
    return str(q)


def _fmt_short(x: float) -> str:
    """Compact form for the picture-size arguments: 6.30000 -> 6.3."""
    s = fmt5(x)
    s = s.rstrip("0").rstrip(".")
    return s if s not in ("", "-") else "0"


def _pair(p: Point2) -> str:
    return f"({fmt5(p.x)},{fmt5(p.y)})"


def _arc_length_points(pts: Sequence[Point2], step: float) -> list[Point2]:
    """Points every `step` of arc length, including both endpoints."""
    out = [pts[0]]
    carry = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = a.dist(b)
        if seg == 0.0:
            continue
        s = step - carry
        while s <= seg:
            t = s / seg
            out.append(Point2(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t))
            s += step
        carry = (carry + seg) % step
    if out[-1].dist(pts[-1]) > 1e-12:
        out.append(pts[-1])
    return out


def _dash_runs(pts: Sequence[Point2]) -> list[tuple[Point2, Point2]]:
    """Alternating pen-down runs of DASH_STEP along the polyline."""
    resampled = _arc_length_points(pts, DASH_STEP)
    runs = []
    for k in range(0, len(resampled) - 1, 2):
        runs.append((resampled[k], resampled[k + 1]))
    return runs


def _wrap_pairs(prefix: str, pairs: Sequence[str], per_line: int = 5) -> list[str]:
    lines = []
    for k in range(0, len(pairs), per_line):
        chunk = "".join(pairs[k : k + per_line])
        lines.append((prefix if k == 0 else "") + chunk + "%")
    return lines


def emit_latex(scene: Scene) -> str:
    """The figure as a self-contained LaTeX picture environment.

    Requires \\usepackage{pict2e} for \\polyline.  Every output line is
    %-terminated so the figure can be \\input mid-paragraph without
    stray spaces.
    """
    w, h, x0, y0 = scene.bbox
    out: list[str] = [
        "{\\unitlength=1cm%",
        "\\begin{picture}%",
        f"({_fmt_short(w)},{_fmt_short(h)})({_fmt_short(x0)},{_fmt_short(y0)})%",
    ]
    thickness = None
    for item in scene.items:
        if item.thickness != thickness:
            thickness = item.thickness
            out.append(f"\\linethickness{{{thickness:g}in}}%")
        pts = item.polyline.points
        if item.style is Style.SOLID:
            out.extend(_wrap_pairs("\\polyline", [_pair(p) for p in pts]))
        elif item.style is Style.DASHED:
            runs = _dash_runs(pts)
            chunks = [f"\\polyline{_pair(a)}{_pair(b)}" for a, b in runs]
            out.extend(_wrap_pairs("", chunks, 2))
        elif item.style is Style.DOTTED:
            dots = _arc_length_points(pts, DOT_STEP)
            chunks = [
                f"\\put{_pair(p)}{{\\circle*{{{DOT_DIAMETER:g}}}}}" for p in dots
            ]
            out.extend(_wrap_pairs("", chunks, 2))
        elif item.style is Style.DOTTED_DISC:
            chunks = [
                f"\\put{_pair(p)}{{\\circle*{{{DISC_DIAMETER:g}}}}}" for p in pts
            ]
            out.extend(_wrap_pairs("", chunks, 2))
        if item.label is not None:
            lab = item.label
            box = "".join(_ALIGN_TO_MAKEBOX[c] for c in lab.align)
            opt = f"[{box}]" if box else ""
            out.append(
                f"\\put{_pair(lab.anchor)}{{\\makebox(0,0){opt}{{{lab.text}}}}}%"
            )
    out.append("\\end{picture}}")
    return "\n".join(out) + "\n"


def _svg_xy(p: Point2, bbox: tuple[float, float, float, float]) -> tuple[float, float]:
    w, h, x0, y0 = bbox
    return (p.x - x0) * CM_TO_PX, (y0 + h - p.y) * CM_TO_PX


def _svg_path(pts: Iterable[tuple[float, float]]) -> str:
    words = []
    for k, (x, y) in enumerate(pts):
        cmd = "M" if k == 0 else "L"
        words.append(f"{cmd}{x:.3f} {y:.3f}")
    return " ".join(words)


def emit_svg(scene: Scene) -> str:
    """The figure as standalone SVG (1cm = 37.795 user units, y down)."""
    w, h, x0, y0 = scene.bbox
    width = w * CM_TO_PX
    height = h * CM_TO_PX
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.3f}" '
        f'height="{height:.3f}" viewBox="0 0 {width:.3f} {height:.3f}">',
    ]
    dash = f"{DASH_STEP * CM_TO_PX:.4f}"
    dot_gap = f"{DOT_STEP * CM_TO_PX:.4f}"
    for item in scene.items:
        stroke_px = item.thickness * 96.0
        pts = [_svg_xy(p, scene.bbox) for p in item.polyline.points]
        common = f'fill="none" stroke="black" stroke-width="{stroke_px:.3f}"'
        if item.style is Style.SOLID:
            out.append(f'<path {common} d="{_svg_path(pts)}"/>')
        elif item.style is Style.DASHED:
            out.append(
                f'<path {common} stroke-dasharray="{dash} {dash}" '
                f'd="{_svg_path(pts)}"/>'
            )
        elif item.style is Style.DOTTED:
            width_px = DOT_DIAMETER * CM_TO_PX
            out.append(
                f'<path fill="none" stroke="black" stroke-width="{width_px:.3f}" '
                f'stroke-linecap="round" stroke-dasharray="0.01 {dot_gap}" '
                f'd="{_svg_path(pts)}"/>'
            )
        elif item.style is Style.DOTTED_DISC:
            r = 0.5 * DISC_DIAMETER * CM_TO_PX
            for x, y in pts:
                out.append(
                    f'<circle cx="{x:.3f}" cy="{y:.3f}" r="{r:.3f}" fill="black"/>'
                )
        if item.label is not None:
            lab = item.label
            x, y = _svg_xy(lab.anchor, scene.bbox)
            anchor = {"e": "start", "w": "end"}.get(lab.align[-1], "middle")
            dy = {"n": "-3", "s": "12"}.get(lab.align[0], "4")
            out.append(
                f'<text x="{x:.3f}" y="{y:.3f}" font-size="12" '
                f'text-anchor="{anchor}" dy="{dy}">{lab.text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
