"""Span tracing for the benchmark's traced run.

The program has no tracing of its own, so the traced run records spans
from outside: it rebinds each public function of a layer, in every
module namespace where callers look it up, to a wrapper that opens a
span around the call.  `Tracer.installed()` puts the wrappers in and
takes them out again, restoring the original objects.

Spans live in memory (one `Span` per call) and are summarised by
`layer_metrics` into the per-layer figures listed in BENCHMARK.json.
Counts and times there are per traced op; `.s` figures are summed span
durations, so spans that overlap in the scene's worker threads can add
up to more than the op's wall time (`surface.scene.busy_over_wall`
shows by how much).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time


class Span:
    """One call into a layer: name, interval, parent id, op id, thread."""

    __slots__ = ("id", "name", "start", "end", "parent", "op", "thread", "counts")

    def __init__(self, id, name, start, parent, op, thread):
        self.id = id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.counts = None

    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


def _count_refine(args, result):
    return {"refined": int(result.refined)}


def _count_covers(args, result):
    roots, candidates = result
    return {"candidates": candidates, "roots": len(roots)}


def _count_intersect(args, result):
    return {"crossings": len(result.crossings), "contacts": len(result.contacts)}


def _count_classify(args, result):
    return {"intervals": len(result.hidden), "hidden": sum(result.hidden)}


def _count_trace(args, result):
    return {
        "cells": args[1].grid ** 2,
        "vertices": sum(len(p.points) for p in result),
    }


def _count_build(args, result):
    return {"segments": len(result.segments)}


def _count_sample(args, result):
    return {"vertices": len(result.points)}


def _count_emit(args, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, counter).  An attribute "Class.method"
# is rebound on the class.  Functions are rebound where they are looked
# up, never in their defining module when that module calls them
# recursively (expr.diff calls itself through the module global).
TARGETS = (
    ("splinefig.cli", "build_parser", "cli.parser", None),
    ("splinefig.cli", "compile_fn", "expr.compile", None),
    ("splinefig.implicit", "compile_fn", "expr.compile", None),
    ("splinefig.surface", "compile_fn", "expr.compile", None),
    ("splinefig.surface", "diff", "expr.diff", None),
    ("splinefig.cli", "build_spline", "spline.build", _count_build),
    ("splinefig.calculus", "build_spline", "spline.build", _count_build),
    ("splinefig.surface", "build_spline", "spline.build", _count_build),
    ("splinefig.geom", "SplineCurve.sample", "geom.sample", _count_sample),
    ("splinefig.cli", "integrate", "calculus.integrate", None),
    ("splinefig.cli", "closed_area", "calculus.area", None),
    ("splinefig.cli", "tangent_line", "calculus.tangent", None),
    ("splinefig.cli", "trace_implicit", "implicit.trace", _count_trace),
    ("splinefig.surface", "trace_zero_set", "implicit.trace", _count_trace),
    ("splinefig.cli", "scene_from_items", "render.scene", None),
    ("splinefig.surface", "scene_from_items", "render.scene", None),
    ("splinefig.cli", "emit_latex", "render.emit_latex", _count_emit),
    ("splinefig.cli", "emit_svg", "render.emit_svg", _count_emit),
    ("splinefig.surface", "build_surface_scene", "surface.scene", None),
    ("splinefig.surface", "silhouette", "surface.silhouette", None),
    ("splinefig.surface", "boundary_curves", "surface.curves", None),
    ("splinefig.surface", "wires", "surface.curves", None),
    ("splinefig.surface", "project_curve", "surface.curves", None),
    ("splinefig.surface", "intersect_projected", "surface.intersect", _count_intersect),
    ("splinefig.surface", "refine_contact", "surface.refine", _count_refine),
    ("splinefig.surface", "classify_visibility", "surface.classify", _count_classify),
    ("splinefig.surface", "OcclusionTester.__init__", "surface.occlusion.init", None),
    ("splinefig.surface", "OcclusionTester.covers", "surface.occlusion.covers", _count_covers),
)


def _owner(module: str, attr: str):
    """(object holding the name, the name) for a TARGETS entry."""
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    return obj, name


class Tracer:
    """Collects spans from wrapped layer functions, in any thread.

    Parents are tracked per thread.  A thread with no open span (a
    worker of the scene's thread pool) takes the innermost open span of
    the thread that installed the tracer as its parent, which is the
    open `surface.scene` span while the pool runs.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._home = threading.get_ident()

    def open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            home = self._stacks.get(self._home)
            parent = home[-1].id if home and tid != self._home else -1
        with self._lock:
            span = Span(len(self.spans), name, 0.0, parent, self.op, tid)
            self.spans.append(span)
        stack.append(span)
        span.start = span.end = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sp = self.open(name)
        try:
            yield sp
        finally:
            self.close(sp)

    def _wrap(self, fn, name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sp = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sp)
            if counter is not None:
                sp.counts = counter(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target to a traced wrapper; restore on exit."""
        self._home = threading.get_ident()
        saved = []
        try:
            for module, attr, name, counter in TARGETS:
                owner, key = _owner(module, attr)
                original = owner.__dict__[key]
                saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name, counter))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the union of its children's intervals."""
    return span.duration() - union_length((c.start, c.end) for c in children)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], op_spans: list[Span]) -> dict[str, float]:
    """Per-op layer figures from the spans of the given ops, named and
    ordered as in BENCHMARK.json (trace.overhead_frac aside, which needs
    the untraced run).

    op_spans are the benchmark's own spans around each `main()` call;
    every other span of those ops descends from one of them.
    """
    ops = {sp.op for sp in op_spans}
    mine = [sp for sp in spans if sp.op in ops]
    n = max(len(op_spans), 1)
    children: dict[int, list[Span]] = {}
    for sp in mine:
        children.setdefault(sp.parent, []).append(sp)

    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    counts: dict[str, float] = {}
    for sp in mine:
        calls[sp.name] = calls.get(sp.name, 0) + 1
        secs[sp.name] = secs.get(sp.name, 0.0) + sp.duration()
        for key, value in (sp.counts or {}).items():
            k = f"{sp.name}.{key}"
            counts[k] = counts.get(k, 0) + value

    def per_op(table, key):
        return table.get(key, 0) / n

    busy = wall = 0.0
    for sp in mine:
        if sp.name != "surface.scene":
            continue
        wall += sp.duration()
        busy += sum(
            c.duration() for c in children.get(sp.id, ()) if c.thread != sp.thread
        )

    op_wall = sum(sp.duration() for sp in op_spans)
    op_self = sum(self_time(sp, children.get(sp.id, ())) for sp in op_spans)
    refine_calls = calls.get("surface.refine", 0)
    out = {
        "surface.refine.calls": per_op(calls, "surface.refine"),
        "surface.refine.s": per_op(secs, "surface.refine"),
        "surface.refine.refined": per_op(counts, "surface.refine.refined"),
        "surface.refine.unrefined_frac": _ratio(
            refine_calls - counts.get("surface.refine.refined", 0), refine_calls
        ),
        "surface.occlusion.init_s": per_op(secs, "surface.occlusion.init"),
        "surface.occlusion.covers_calls": per_op(calls, "surface.occlusion.covers"),
        "surface.occlusion.covers_s": per_op(secs, "surface.occlusion.covers"),
        "surface.occlusion.candidates": per_op(
            counts, "surface.occlusion.covers.candidates"
        ),
        "surface.occlusion.yield": _ratio(
            counts.get("surface.occlusion.covers.roots", 0),
            counts.get("surface.occlusion.covers.candidates", 0),
        ),
        "surface.intersect.calls": per_op(calls, "surface.intersect"),
        "surface.intersect.s": per_op(secs, "surface.intersect"),
        "surface.intersect.crossings": per_op(counts, "surface.intersect.crossings"),
        "surface.intersect.contacts": per_op(counts, "surface.intersect.contacts"),
        "surface.classify.calls": per_op(calls, "surface.classify"),
        "surface.classify.s": per_op(secs, "surface.classify"),
        "surface.classify.intervals": per_op(counts, "surface.classify.intervals"),
        "surface.classify.hidden": per_op(counts, "surface.classify.hidden"),
        "surface.silhouette.s": per_op(secs, "surface.silhouette"),
        "surface.curves.s": per_op(secs, "surface.curves"),
        "surface.scene.s": per_op(secs, "surface.scene"),
        "surface.scene.busy_over_wall": _ratio(busy, wall),
        "implicit.trace.calls": per_op(calls, "implicit.trace"),
        "implicit.trace.s": per_op(secs, "implicit.trace"),
        "implicit.trace.cells": per_op(counts, "implicit.trace.cells"),
        "implicit.trace.vertices": per_op(counts, "implicit.trace.vertices"),
        "implicit.trace.us_per_cell": 1e6
        * _ratio(secs.get("implicit.trace", 0.0), counts.get("implicit.trace.cells", 0)),
        "expr.compile.calls": per_op(calls, "expr.compile"),
        "expr.compile.s": per_op(secs, "expr.compile"),
        "expr.diff.s": per_op(secs, "expr.diff"),
        "spline.build.calls": per_op(calls, "spline.build"),
        "spline.build.s": per_op(secs, "spline.build"),
        "spline.build.segments": per_op(counts, "spline.build.segments"),
        "geom.sample.s": per_op(secs, "geom.sample"),
        "geom.sample.vertices": per_op(counts, "geom.sample.vertices"),
        "calculus.integrate.s": per_op(secs, "calculus.integrate"),
        "calculus.area.s": per_op(secs, "calculus.area"),
        "calculus.tangent.s": per_op(secs, "calculus.tangent"),
        "render.scene_s": per_op(secs, "render.scene"),
        "render.emit_latex_s": per_op(secs, "render.emit_latex"),
        "render.emit_svg_s": per_op(secs, "render.emit_svg"),
        "render.bytes": (
            counts.get("render.emit_latex.bytes", 0)
            + counts.get("render.emit_svg.bytes", 0)
        )
        / n,
        "cli.parser.s": per_op(secs, "cli.parser"),
        "cli.self_s": op_self / n,
        "trace.coverage": _ratio(op_wall - op_self, op_wall),
    }
    return out
