"""Tests of the benchmark itself: inputs, checks and the tracer.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from splinefig.cli import main  # noqa: E402


def _inputs(name: str, seed: int, workdir: Path, ops: int = 14) -> dict:
    """Every byte a workload hands the program: argv and input files."""
    workdir.mkdir()
    wl = workloads.WORKLOADS[name](seed, workdir)
    argvs = [
        tuple(a.replace(str(workdir), "<dir>") for a in wl.op(k).argv)
        for k in range(ops)
    ]
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return {"argv": argvs, "files": files}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, tmp_path):
    a = _inputs(name, 7, tmp_path / "a")
    b = _inputs(name, 7, tmp_path / "b")
    assert a == b


@pytest.fixture
def dirs(tmp_path):
    for sub in ("a", "b", "c", "d"):
        (tmp_path / sub).mkdir()
    return tmp_path


def test_other_seed_other_views_and_sizes(dirs):
    s1 = workloads.SurfaceScenes(1, dirs / "a")
    s2 = workloads.SurfaceScenes(2, dirs / "b")
    views1 = [s1.view(k) for k in range(16)]
    views2 = [s2.view(k) for k in range(16)]
    assert all(v1 != v2 for v1, v2 in zip(views1, views2))
    for theta, phi in views1 + views2:
        assert 40.0 <= theta <= 80.0 and 15.0 <= phi <= 35.0

    c1 = workloads.CurveFigures(1, dirs / "c")
    c2 = workloads.CurveFigures(2, dirs / "d")
    sizes1 = [len(p.read_text().splitlines()) for p in c1.points[True] + c1.points[False]]
    sizes2 = [len(p.read_text().splitlines()) for p in c2.points[True] + c2.points[False]]
    assert sizes1 != sizes2
    assert all(50 <= n <= 200 for n in sizes1 + sizes2)
    # file j of each kind lies in the j-th of 16 equal bands of sizes
    width = 151 / 16
    for j, n in enumerate(sizes1):
        j %= 16
        assert 50 + j * width - 1 < n < 50 + (j + 1) * width

    i1 = workloads.ImplicitTrace(1, dirs / "a")
    i2 = workloads.ImplicitTrace(2, dirs / "b")
    assert i1.ellipse(0) != i2.ellipse(0)


@pytest.mark.parametrize("seed", range(5))
def test_first_pairs_spread_over_the_view_box(seed, dirs):
    wl = workloads.SurfaceScenes(seed, dirs / "a")
    views = [wl.view(2 * j) for j in range(6)]
    assert wl.view(1) == wl.view(0)
    assert {int((t - 40.0) // 10.0) for t, _ in views} == {0, 1, 2, 3}
    assert {int((p - 15.0) // 10.0) for _, p in views} == {0, 1}


def test_curve_blocks_hold_every_kind_once(dirs):
    wl = workloads.CurveFigures(4, dirs / "a")
    n = len(workloads.CURVE_KINDS)
    for block in range(3):
        kinds = [wl.kind(block * n + j) for j in range(n)]
        assert sorted(kinds) == sorted(workloads.CURVE_KINDS)


def test_ellipses_fit_the_window(dirs):
    wl = workloads.ImplicitTrace(9, dirs / "a")
    for k in range(50):
        a, b, c = wl.ellipse(k)
        assert b * b < 4 * a * c
        # largest semi-axis from the smaller eigenvalue
        lam = 0.5 * (a + c - math.hypot(a - c, b))
        assert 1.0 / math.sqrt(lam) < 2.0


def test_checks_reject_wrong_output():
    good = "{\\unitlength=1cm%\n\\begin{picture}%\n\\end{picture}}\n"
    assert workloads.check_latex(good) is None
    assert workloads.check_latex(good.replace("picture}%", "picture}", 1))
    assert workloads.check_latex("\\begin{picture}%\n")
    assert workloads.check_svg('<?xml version="1.0"?>\n<svg></svg>\n') is None
    assert workloads.check_svg('<?xml version="1.0"?>\n<svg>')
    check = workloads._number_check(2.0, 1e-3)
    assert check("2.0005\n", b"") == (None, pytest.approx(5e-4))
    assert check("2.01\n", b"")[0]
    assert check("error\n", b"")[0]


def test_tail_needs_ten_samples_beyond():
    # nothing above p50 has ten samples beyond it below 40 samples
    assert run.tail([1.0] * 39) is None
    assert run.tail([float(k) for k in range(40)]) == (75.0, 29.0)
    pct, value = run.tail([float(k) for k in range(1000)])
    assert pct == 99.0 and value == 989.0


@pytest.mark.parametrize("pooled", [False, True])
def test_calibration_times_every_kernel_run(pooled):
    cal = run.Calibration(pooled)
    cal.measure()
    assert len(cal.times) == run.CAL_REPEAT and cal.speed() > 0.0
    assert run._kernel(run.CAL_ITEMS) > run.CAL_ITEMS


def test_union_and_self_time():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    parent = spans.Span(0, "p", 0.0, -1, 0, 1)
    parent.end = 10.0
    kids = []
    for k, (lo, hi) in enumerate([(1.0, 4.0), (2.0, 5.0), (7.0, 8.0)]):
        sp = spans.Span(k + 1, "c", lo, 0, 0, 2)
        sp.end = hi
        kids.append(sp)
    assert spans.self_time(parent, kids) == 10.0 - 5.0


def _originals():
    out = {}
    for module, attr, _, _ in spans.TARGETS:
        owner, key = spans._owner(module, attr)
        out[(module, attr)] = owner.__dict__[key]
    return out


def test_traced_run_restores_every_wrapped_function(dirs):
    before = _originals()
    tracer = spans.Tracer()
    wl = workloads.CurveFigures(1, dirs / "a")
    with tracer.installed():
        assert _originals() != before
        run.call(main, wl.op(0))
    assert _originals() == before
    assert all(
        _originals()[key] is fn for key, fn in before.items()
    )


def test_restored_even_when_the_op_raises():
    before = _originals()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert _originals() == before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_match(name, dirs):
    wl = workloads.WORKLOADS[name](2, dirs / "a")
    tracer = spans.Tracer()
    ops = {"surface-scenes": 1, "implicit-trace": 1, "curve-figures": 14}[name]
    for k in range(ops):
        op = wl.op(k)
        plain = run.call(main, op)
        with tracer.installed():
            traced = run.call(main, op)
        assert plain[1] == 0 and traced[1] == 0
        assert run.digest(*plain[2:4]) == run.digest(*traced[2:4])
        assert run.judge(op, *traced[1:])[0] is None
    assert tracer.spans


def test_default_paraboloid_view_reproduces_the_baseline_counts(tmp_path):
    """README paraboloid at 60/25: 15 refine_contact calls, 10 unrefined."""
    wl = workloads.SurfaceScenes(0, tmp_path)
    op = workloads.Op(
        ("surface", str(wl.files[0]), "--out", str(wl.out)), wl.out, wl.op(0).check
    )
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer.installed(), tracer.span("cli.main") as top:
        result = run.call(main, op)
    assert run.judge(op, *result[1:])[0] is None
    layers = spans.layer_metrics(tracer.spans, [top])
    assert layers["surface.refine.calls"] == 15
    assert layers["surface.refine.refined"] == 5
    assert layers["trace.coverage"] >= 0.9
    assert 0.0 < layers["surface.occlusion.yield"] <= 1.0

    # worker spans hang under the open scene span, not at the top level
    scene = [sp for sp in tracer.spans if sp.name == "surface.scene"]
    assert len(scene) == 1
    refine = [sp for sp in tracer.spans if sp.name == "surface.refine"]
    assert {sp.parent for sp in refine} == {scene[0].id}
    assert any(sp.thread != threading.get_ident() for sp in refine)
    assert layers["surface.scene.busy_over_wall"] > 0.0


def test_layer_metrics_name_every_benchmark_metric():
    import json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [*spans.layer_metrics([], []), "trace.overhead_frac"]
