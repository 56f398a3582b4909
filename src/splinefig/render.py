"""Figure emission: LaTeX picture environment and SVG.

Scenes are plain data: polylines with a stroke style (solid, dashed,
or a disc at every vertex) and optionally a text label centred on its
anchor, inside an explicit bounding box measured in centimetres.  Every
line is LINE_THICKNESS wide.  The LaTeX backend targets the picture
environment with \\unitlength set to 1cm and draws with \\polyline
(pict2e); dashes are generated here by arc-length resampling rather than
left to the TeX driver, so the output is identical everywhere.  Both
emitters are deterministic down to the byte: coordinates are written
with exactly five decimals, rounding halves away from zero, and a scene
whose box fmt5 cannot write is refused before either emitter runs.
Polylines are read as their (n, 2) vertex arrays: the fitted box comes
from column minima and maxima, the box check is one mask, the LaTeX
emitter writes each polyline, dash run and disc row as one column
(fmt5_column, which gives fmt5's strings without calling it where no
tie is near), and the SVG emitter maps each polyline to user units a
column at a time.  Dashes are resampled on (x, y) float pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation
from enum import Enum
from itertools import pairwise
from typing import Sequence

import numpy as np

from .geom import Polyline, xy_array

CM_TO_PX = 37.795  # SVG user units per centimetre (96 dpi)
DASH_STEP = 0.1  # cm of pen-down (and pen-up) per dash
MAX_DASHES = 50_000  # per dashed LaTeX line, so at most 10 000 cm of it
DISC_DIAMETER = 0.12  # cm, for vertex markers
SCENE_PAD = 0.05  # margin round a fitted scene, as a share of its larger side
LINE_THICKNESS = 0.008  # inches, as \linethickness wants


class RenderError(ValueError):
    pass


class Style(Enum):
    SOLID = "solid"
    DASHED = "dashed"
    DOTTED_DISC = "dotted-disc"


@dataclass(frozen=True)
class Label:
    """Text centred on its anchor."""

    text: str
    anchor: tuple[float, float]


@dataclass(frozen=True)
class DrawItem:
    polyline: Polyline
    style: Style = Style.SOLID
    label: Label | None = None


@dataclass(frozen=True)
class Scene:
    """Draw items inside bbox = (width, height, x-offset, y-offset) cm.

    Vertices may poke out of the box by at most 5% of its size (dashes
    and labels render fine slightly past the nominal frame).  The size
    and the corners widened by that slack must be numbers fmt5 can
    write, so that both emitters can write every vertex.
    """

    items: tuple[DrawItem, ...]
    bbox: tuple[float, float, float, float] = (1.0, 1.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        w, h, x0, y0 = self.bbox
        if not (w > 0 and h > 0):
            raise RenderError("bounding box must have positive size")
        sx, sy = 0.05 * w, 0.05 * h
        for c in (w, h, x0 - sx, x0 + w + sx, y0 - sy, y0 + h + sy):
            fmt5(c)
        if not self.items:
            return
        xy = np.concatenate([item.polyline.points for item in self.items])
        x, y = xy[:, 0], xy[:, 1]
        inside = (x0 - sx <= x) & (x <= x0 + w + sx)
        inside &= (y0 - sy <= y) & (y <= y0 + h + sy)
        if not inside.all():
            px, py = xy[np.argmin(inside)].tolist()  # the first one outside
            raise RenderError(
                f"vertex ({px}, {py}) outside bounding box {self.bbox}"
            )


def scene_from_items(items: Sequence[DrawItem]) -> Scene:
    """Scene with a bounding box fitted around everything plus a margin.

    The box spans every vertex and label anchor, from the column minima
    and maxima; where a column holds a value that is not finite, from
    Python's min and max over the values in item order, whose answer
    then depends on that order.
    """
    parts = []
    for item in items:
        parts.append(item.polyline.points)
        if item.label is not None:
            parts.append(xy_array([item.label.anchor]))
    if not parts:
        return Scene((), (1.0, 1.0, 0.0, 0.0))
    xy = np.concatenate(parts)
    if np.isfinite(xy).all():
        (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    else:
        xs, ys = xy.T.tolist()
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    margin = SCENE_PAD * max(x1 - x0, y1 - y0, 1.0)
    return Scene(
        tuple(items),
        ((x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin, x0 - margin, y0 - margin),
    )


_FIVE = Decimal("0.00001")


def fmt5(x: float) -> str:
    """Fixed five decimals, halves rounded away from zero.

    The digits rounded are those of repr(x), the shortest string that
    reads back as x: the rule is Decimal(repr(x)) rounded half up.  No
    boundary (k + 1/2) * 1e-5 lies strictly between x and repr(x), as it
    would be a string as short or shorter, and nearer x, that reads back
    as x.  So where repr(x) is positional, |x| < 1e9 (half an ulp below
    6e-8) and repr(x) is no boundary itself (six decimals, the last a
    5), rounding x's exact value as "%.5f" does gives the same string.
    """
    if not math.isfinite(x):
        raise RenderError(f"cannot format {x!r}")
    text = repr(x)
    tie = text[-1] == "5" and text[-7:-6] == "."
    if -1e9 < x < 1e9 and "e" not in text and not tie:
        text = f"{x:.5f}"
        return "0.00000" if text == "-0.00000" else text
    try:
        q = Decimal(text).quantize(_FIVE, rounding=ROUND_HALF_UP)
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


def fmt5_column(values: Sequence[float]) -> list[str]:
    """fmt5 of each value, formatting the column in one pass.

    Let X = x * 1e5 exactly, y = X rounded, and d the computed distance
    |y mod 1 - 1/2| from y to the nearest half-integer.  y is within
    |X| * 2^-53 of X, and the mod and the subtraction round by under
    2^-53 in all, so X lies more than d - 2^-53 - |X| * 2^-53 from every
    half-integer.  repr(x) is within half an ulp of x, so repr(x) * 1e5
    is within |X| * 2^-53 of X.  So where d > |y| * 2^-51 + 2^-52, more
    than the 2 * |X| * 2^-53 + 2^-53 it must exceed (|y| is within a
    relative 2^-53 of |X|, and the bound's own rounding is smaller than
    its slack), no boundary (k + 1/2) * 1e-5 lies between x and repr(x)
    or on either, and "%.5f" of x is fmt5's string.  Such values under
    5e-6 in size round to zero and are written from 0.0, which keeps
    "-0.00000" out.  Every other value (near a tie, not finite, or past
    about 1e10, where the bound reaches 1/2) is written by fmt5 itself.
    """
    col = np.array(values, dtype=float)
    with np.errstate(all="ignore"):
        scaled = col * 1e5
        fast = np.abs(np.mod(scaled, 1.0) - 0.5) > np.abs(scaled) * 2.0**-51 + 2.0**-52
    col[np.abs(col) < 5e-6] = 0.0
    text = ("%.5f " * len(col) % tuple(col.tolist())).split()
    for k in np.flatnonzero(~fast).tolist():
        x = values[k]
        # fmt5 reads repr(x), which for a numpy scalar names its type
        text[k] = fmt5(x.item() if isinstance(x, np.generic) else x)
    return text


def _pairs(points: Sequence[tuple[float, float]] | np.ndarray) -> list[str]:
    """The "(x,y)" text of each point ((x, y) pairs or (n, 2) rows),
    written by fmt5_column."""
    text = fmt5_column(xy_array(points).ravel())
    return [f"({x},{y})" for x, y in zip(text[::2], text[1::2])]


def _arc_length_points(xy: np.ndarray, step: float) -> list[tuple[float, float]]:
    """Points every `step` of arc length along the rows, including both
    endpoints, as (x, y) float pairs."""
    pts = xy.tolist()
    out = [tuple(pts[0])]
    carry = 0.0
    for (ax, ay), (bx, by) in pairwise(pts):
        seg = math.hypot(ax - bx, ay - by)
        if seg == 0.0:
            continue
        s = step - carry
        while s <= seg:
            t = s / seg
            out.append((ax + (bx - ax) * t, ay + (by - ay) * t))
            s += step
        carry = (carry + seg) % step
    (ex, ey), (lx, ly) = out[-1], pts[-1]
    if math.hypot(ex - lx, ey - ly) > 1e-12:
        out.append((lx, ly))
    return out


def _check_dash_count(xy: np.ndarray) -> None:
    """Refuse a dashed line too long for MAX_DASHES runs, before any
    point of it is cut."""
    steps = np.diff(xy, axis=0)
    length = float(np.hypot(steps[:, 0], steps[:, 1]).sum())
    if length > 2 * DASH_STEP * MAX_DASHES:
        raise RenderError(
            f"dashed line {length:g} cm long needs more than {MAX_DASHES} dashes"
        )


def _dash_runs(xy: np.ndarray) -> np.ndarray:
    """Alternating pen-down runs of DASH_STEP along the rows: run k goes
    from row 2k to row 2k + 1 of the result."""
    resampled = _arc_length_points(xy, DASH_STEP)
    return np.array(resampled[: len(resampled) // 2 * 2]).reshape(-1, 2)


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
    if scene.items:
        out.append(f"\\linethickness{{{LINE_THICKNESS:g}in}}%")
    for item in scene.items:
        xy = item.polyline.points
        if item.style is Style.SOLID:
            out.extend(_wrap_pairs("\\polyline", _pairs(xy)))
        elif item.style is Style.DASHED:
            _check_dash_count(xy)
            ends = _pairs(_dash_runs(xy))
            chunks = [f"\\polyline{a}{b}" for a, b in zip(ends[::2], ends[1::2])]
            out.extend(_wrap_pairs("", chunks, 2))
        elif item.style is Style.DOTTED_DISC:
            chunks = [
                f"\\put{p}{{\\circle*{{{DISC_DIAMETER:g}}}}}" for p in _pairs(xy)
            ]
            out.extend(_wrap_pairs("", chunks, 2))
        if item.label is not None:
            lab = item.label
            (anchor,) = _pairs([lab.anchor])
            out.append(f"\\put{anchor}{{\\makebox(0,0){{{lab.text}}}}}%")
    out.append("\\end{picture}}")
    return "\n".join(out) + "\n"


def _svg_coords(xy: np.ndarray, bbox: tuple[float, float, float, float]) -> tuple:
    """The rows in user units, flat (x0, y0, x1, y1, ...): x - x0 and
    y0 + h - y scaled by CM_TO_PX, a column at a time; float64 columns
    round each operation as floats do."""
    w, h, x0, y0 = bbox
    user = np.empty_like(xy)
    user[:, 0] = (xy[:, 0] - x0) * CM_TO_PX
    user[:, 1] = (y0 + h - xy[:, 1]) * CM_TO_PX
    return tuple(user.ravel().tolist())


def _svg_path(coords: tuple) -> str:
    return ("M%.3f %.3f" + " L%.3f %.3f" * (len(coords) // 2 - 1)) % coords


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
    common = f'fill="none" stroke="black" stroke-width="{LINE_THICKNESS * 96.0:.3f}"'
    r = 0.5 * DISC_DIAMETER * CM_TO_PX
    disc = f'<circle cx="%.3f" cy="%.3f" r="{r:.3f}" fill="black"/>'
    for item in scene.items:
        coords = _svg_coords(item.polyline.points, scene.bbox)
        if item.style is Style.SOLID:
            out.append(f'<path {common} d="{_svg_path(coords)}"/>')
        elif item.style is Style.DASHED:
            out.append(
                f'<path {common} stroke-dasharray="{dash} {dash}" '
                f'd="{_svg_path(coords)}"/>'
            )
        elif item.style is Style.DOTTED_DISC:
            out.extend(disc % coords[k : k + 2] for k in range(0, len(coords), 2))
        if item.label is not None:
            lab = item.label
            x, y = _svg_coords(xy_array([lab.anchor]), scene.bbox)
            out.append(
                f'<text x="{x:.3f}" y="{y:.3f}" font-size="12" '
                f'text-anchor="middle" dy="4">{lab.text}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"
