"""splinefig benchmark: one workload, one seed, one timed run.

    python3 bench/run.py --workload surface-scenes --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
its `src/` directory.  One process is one closed-loop client: it calls
`splinefig.cli.main(argv)` in process, sends each op after the previous
one returned, and runs nothing of its own while an op runs (the
program's scene pool starts threads; the benchmark's only pool is
surface-scenes' calibration kernel, between ops).  Each op is timed
from the `main()` call to its return, with its output written, and
then checked; an op fails on an exception, a nonzero exit or a failed
check.

Op 0 runs once untimed before the loop, as warm-up, and the timed op 0
must give the same bytes.  Between ops, a fixed calibration kernel of
the benchmark's own runs once per CAL_EVERY_S of op time (see
Calibration): the gated throughput, ops_per_ref_s, is ops per second
of op time, rescaled to a machine on which one kernel run takes
CAL_REF_S.

--trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones
from a traced run (each op runs once untraced and once traced, and the
two outputs must match).  The last line of stdout is the JSON result
with the metrics BENCHMARK.json gates; the lines before it also list
ops_per_s, op_s.p50, op_s.tail, fail_frac and max_err.  Those stay out
of the gate: fail_frac is 0 and max_err undefined on surface-scenes,
the tail needs 40 ops, and raw wall-clock times drift with the speed
of the shared host, which runs the same code up to twice as slowly for
minutes at a time, more than a 25 % bound allows.  The full record
(machine facts, output digests, the percentile used for the tail, the
per-layer spans) goes to .bench_out/ in the checkout.  Exit status is 0
when every check passed, 1 when one failed, 2 when the checkout has no
program to run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# fresh imports timed before the loop and again after it; the median of
# all of them is setup_s (two batches half a minute apart ride out a
# short slow spell of the machine better than one)
SETUP_IMPORTS = 4
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
# calibration: items per kernel run, kernel runs a pooled kernel starts
# at once, kernel runs per stop, op time between two stops, and the
# kernel time that defines the reference machine
CAL_ITEMS = 4000
CAL_CHUNKS = 8
CAL_REPEAT = 3
CAL_EVERY_S = 0.5
CAL_REF_S = 0.01
FIRST_DIGESTS = 16

# a fresh interpreter imports the CLI and reports ready
_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import splinefig.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def measure_setup(imports: int) -> list[float]:
    """Seconds for a fresh interpreter to import splinefig.cli, once per
    import asked for.

    One unmeasured import first, so the bytecode cache is warm.
    """
    times = []
    for k in range(imports + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, str(SRC)],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line != "ready\n":
            raise RuntimeError("fresh interpreter could not import splinefig.cli")
        if k:
            times.append(elapsed)
    return times


class Calibration:
    """Machine speed, measured between ops by a kernel that calls no
    splinefig code.

    The kernel does in miniature what splinefig's ops do most: it makes
    small point objects, indexes them by tuple keys and formats a LaTeX
    line for each.  Its median time over a run follows the host's slow
    and fast spells about as the ops do (correlation 0.75 to 0.8 over
    ten-second windows on implicit-trace and curve-figures), so dividing
    it out removes most of the drift between runs, while a change in
    the program's own work still shows in full.

    A pooled kernel runs CAL_CHUNKS kernels at once on a default-sized
    thread pool, the way surface scenes classify their curves: each runs
    longer than the interpreter's switch interval, so the pool threads
    pass the interpreter lock among themselves as the scene pool's do,
    and the speed of surface ops follows that of a pooled kernel, not
    that of a lone thread.
    """

    def __init__(self, pooled: bool):
        self.pooled = pooled
        self.times: list[float] = []

    def measure(self) -> None:
        for _ in range(CAL_REPEAT):
            t0 = time.perf_counter()
            if self.pooled:
                with ThreadPoolExecutor() as pool:
                    list(pool.map(_kernel, [CAL_ITEMS] * CAL_CHUNKS))
            else:
                _kernel(CAL_ITEMS)
            self.times.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """How many times faster than the reference machine this one ran."""
        kernels = CAL_CHUNKS if self.pooled else 1
        return kernels * CAL_REF_S / statistics.median(self.times)


class _Pt:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _kernel(n: int) -> int:
    index = {}
    lines = []
    for i in range(n):
        p = _Pt(i * 0.5, i * 0.25)
        index[(i & 511, i >> 9)] = p
        lines.append(f"\\put({p.x:.4f},{p.y:.4f}){{%}}")
    return len("\n".join(lines)) + len(index)


def call(main, op) -> tuple[float, int | None, str, bytes, str]:
    """Run one op: (seconds, exit code or None on exception, stdout,
    output file bytes, stderr)."""
    if op.out is not None and op.out.exists():
        op.out.unlink()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(op.argv))
        except Exception as exc:  # a crash is a failed op, not a dead run
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - t0
    data = op.out.read_bytes() if op.out is not None and op.out.exists() else b""
    return elapsed, code, out.getvalue(), data, err.getvalue()


def judge(op, code, stdout: str, data: bytes, stderr: str):
    """(failure message or None, deviation from the reference or None)."""
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}", None
    try:
        return op.check(stdout, data)
    except (ValueError, UnicodeDecodeError) as exc:
        return f"unreadable output: {exc}", None


def digest(stdout: str, data: bytes) -> str:
    return hashlib.sha256(stdout.encode("utf-8") + b"\0" + data).hexdigest()


def tail(times: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when nothing above p50 qualifies."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = max(1, math.ceil(pct / 100.0 * n))
            return pct, ordered[rank - 1]
    return None


class Run:
    """Counters of one timed run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.max_err: float | None = None
        self.digests: list[str] = []

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def record(self, k: int, op, result, expect: str | None = None) -> str:
        """Check one op's result and return the digest of its output.

        With expect given, the output must also have that digest.
        """
        _, code, stdout, data, stderr = result
        problem, err = judge(op, code, stdout, data, stderr)
        if err is not None:
            self.max_err = err if self.max_err is None else max(self.max_err, err)
        sha = digest(stdout, data)
        if not problem and expect is not None and sha != expect:
            problem = "output bytes differ from the first run of this op"
        self.check(f"op {k} {' '.join(op.argv)}", problem)
        return sha


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
        "platform": platform.platform(),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    import spans as tracing
    import workloads
    from splinefig.cli import main

    facts = machine_facts()
    setup_times = [] if trace else measure_setup(SETUP_IMPORTS)
    workdir = OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        state = Run()
        state.check("structure", "; ".join(wl.structure_check()))

        tracer = tracing.Tracer()
        plain_times: list[float] = []
        traced_times: list[float] = []
        op_spans = []

        def traced_main(argv):
            with tracer.installed(), tracer.span("cli.main") as sp:
                op_spans.append(sp)
                return main(argv)

        # warm-up; the timed op 0 must repeat these bytes
        warm = state.record(0, wl.op(0), call(main, wl.op(0)))
        calibration = Calibration(wl.pooled)
        since_cal = math.inf

        started = time.perf_counter()
        deadline = started + seconds
        k = 0
        while k % wl.cycle or time.perf_counter() < deadline:
            if since_cal >= CAL_EVERY_S:
                calibration.measure()
                since_cal = 0.0
            op = wl.op(k)
            result = call(main, op)
            plain_times.append(result[0])
            since_cal += result[0]
            first = state.record(k, op, result, expect=warm if k == 0 else None)
            if trace:
                tracer.op = k
                traced = call(traced_main, op)
                traced_times.append(traced[0])
                state.record(k, op, traced, expect=first)
            if k < FIRST_DIGESTS:
                state.digests.append(first)
            k += 1
        wall = time.perf_counter() - started

        if not trace:
            setup_times += measure_setup(SETUP_IMPORTS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = not state.failures
    failed_ops = len(state.failures)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": facts,
        "ops": k,
        "attempted": state.attempted,
        "failed": failed_ops,
        "failures": state.failures[:20],
        "fail_frac": failed_ops / state.attempted,
        "max_err": state.max_err,
        "output_sha256": state.digests,
        "op_s": plain_times,
    }
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, op_spans)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_times) / statistics.median(plain_times) - 1.0
        )
        record["spans_file"] = write_spans(workload, seed, tracer.spans)
    else:
        metrics = {
            "ops_per_ref_s": k / sum(plain_times) / calibration.speed(),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        record["ops_per_s"] = k / wall
        record["calibration_s"] = calibration.times
        record["op_s.p50"] = statistics.median(plain_times)
        t = tail(plain_times)
        record["op_s.tail"] = None if t is None else {"percentile": t[0], "value": t[1]}
    record["metrics"] = metrics
    return record, correct


def write_spans(workload: str, seed: int, spans) -> str:
    path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for sp in spans:
            fh.write(json.dumps(sp.as_dict()) + "\n")
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    if not (SRC / "splinefig" / "cli.py").is_file():
        print(f"error: no splinefig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")

    record, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")

    units = units_by_name()
    print(f"workload {args.workload} seed {args.seed}: {record['ops']} ops")
    print("machine " + json.dumps(record["machine"]))
    print(f"fail_frac = {record['fail_frac']} frac")
    print(f"max_err = {record['max_err']}")
    if not args.trace:
        print(f"ops_per_s = {record['ops_per_s']} 1/s")
        print(f"calibration_s.p50 = {statistics.median(record['calibration_s'])} s")
        print(f"op_s.p50 = {record['op_s.p50']} s")
        t = record["op_s.tail"]
        print("op_s.tail = " + ("none" if t is None else f"{t['value']} s (p{t['percentile']:g})"))
    for key, value in record["metrics"].items():
        print(f"{key} = {value} {units.get(key, '')}")
    for problem in record["failures"]:
        print(f"FAIL {problem}")
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in record["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


def units_by_name() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
