"""Benchmark for gumbelmark: three closed-loop workloads, one client each.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--workload`` is ``pipeline``, ``large_vocab``, ``boundary`` or ``all``.
The run imports the package from ``src/`` of the checkout it lives in,
derives every input from ``--seed``, runs whole periods of the workload's
operation sequence until ``--seconds`` would be exceeded (at least one
period), checks every output, and prints a report of named metrics followed
by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
an untraced child run of half the time is followed by a traced half in this
process, and the metrics are the per-layer ones plus the tracing overhead on
each end-to-end metric. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads so no BLAS or OpenMP pool outnumbers the cores.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline", "large_vocab", "boundary")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170
REF_SPACING_S = 0.2
IMPORT_PROBE = "import time; t = time.perf_counter(); import gumbelmark; print(time.perf_counter() - t)"


# ---------------------------------------------------------------------------
# set-up: fresh-interpreter import of the package
# ---------------------------------------------------------------------------

def scipy_import_s(importtime: str) -> float:
    """Cumulative seconds of the outermost scipy imports in ``-X importtime`` output."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2]
        depth = len(name) - len(name.lstrip())
        rows.append((depth, name.strip(), int(parts[1])))
    total_us = 0
    stack: list[tuple[int, str]] = []
    # the output lists children before their parent; reversed, parents come first
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not (stack and stack[-1][1].startswith("scipy")):
            total_us += cumulative
        stack.append((depth, name))
    return total_us / 1e6


def measure_setup(importtime: bool) -> tuple[list[float], list[float]]:
    """Import times of ``gumbelmark`` in fresh interpreters, and with
    ``importtime`` the scipy share of each."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", IMPORT_PROBE]
    times, scipy_s = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
        if importtime:
            scipy_s.append(scipy_import_s(out.stderr))
    return times, scipy_s


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, or None."""
    v = sorted(values)
    for q, label in ((0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")):
        rank = math.ceil(q * len(v))
        if len(v) - rank >= 10:
            return label, v[rank - 1]
    return None


def share(part: int, base: int) -> float:
    return part / base if base else 0.0


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------

def relative(values, stamps, refs) -> list[float]:
    """Each timing over the mean of the reference samples that bracket it."""
    ref_times = [t for t, _ in refs]
    out = []
    for value, stamp in zip(values, stamps):
        i = bisect.bisect_right(ref_times, stamp)
        near = [d for _, d in refs[max(i - 1, 0) : i + 1]]
        out.append(value / statistics.fmean(near))
    return out


def run_phase(workload, recorder, seconds: float, tracer=None):
    """Closed loop: whole periods until one more would overrun ``seconds``.

    Returns the number of periods and the samples (clock, seconds) of the
    workload's reference kernel, timed at most ``REF_SPACING_S`` apart between
    operations. The machine this benchmark was built on runs the same code up
    to 1.6x slower for seconds or minutes at a time, and not by one factor for
    hashing, small numpy calls and large arrays; gated timings are therefore
    divided by the kernel, which mimics the workload's dominant work.
    """
    refs = []

    def sample_reference():
        t0 = time.perf_counter()
        workload.reference()
        t1 = time.perf_counter()
        refs.append((t1, t1 - t0))

    sample_reference()
    start = time.perf_counter()
    p = 0
    while True:
        period_start = time.perf_counter()
        for kind, op in workload.period(p):
            if time.perf_counter() - refs[-1][0] >= REF_SPACING_S:
                sample_reference()
            idx = recorder.attempted
            recorder.attempted += 1
            span = tracer.span(f"bench.{kind}") if tracer else contextlib.nullcontext()
            try:
                with span:
                    reasons = op(recorder, idx)
            except Exception as exc:  # an operation that raises is a failed operation
                traceback.print_exc()
                reasons = [f"{type(exc).__name__}: {exc}"]
            recorder.fail(idx, reasons)
        p += 1
        now = time.perf_counter()
        if now - start + (now - period_start) > seconds:
            sample_reference()
            return p, refs


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def emit(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:<40} {text:>14} {unit:<6} {note}".rstrip())


def run_child(args) -> dict:
    """The untraced half of a traced run, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds / 2), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"untraced: {line}")
    if out.returncode or not lines:
        raise RuntimeError(f"untraced run exited with {out.returncode}")
    return json.loads(lines[-1])


OP_METRICS = ("op1_ref_p50", "op2_ref_p50")


def properties(counts) -> dict[str, tuple[int, int, str]]:
    """Workload properties later optimisations depend on: (part, base, base unit)."""
    c = counts
    return {
        "pipeline.repeat_calibration_share": (c["pipeline.repeat_calibrations"], c["pipeline.verdicts"], "verdicts"),
        "pipeline.null_reject_share": (c["pipeline.null_rejections"], c["pipeline.null_controls"], "null controls"),
        "pipeline.wm_miss_share": (c["pipeline.wm_misses"], c["pipeline.wm_docs"], "watermarked documents"),
        "watermark.masked_share": (c["watermark.masked_positions"], c["watermark.generated_positions"],
                                   "generated positions"),
    }


def report(workload, rec, end_to_end, setup, periods, refs) -> None:
    """Every named metric with its unit, sample count and tail, then outcomes."""
    failed = len(rec.failed_ops)
    emit("periods", periods, "count")
    emit("reference_s_p50", statistics.median(d for _, d in refs), "s", f"n={len(refs)}")
    emit("setup_s", end_to_end["setup_s"][0], "s", f"median of {len(setup)} fresh imports")
    emit("peak_rss_mb", end_to_end["peak_rss_mb"][0], "MB")
    emit("failed_share", share(failed, rec.attempted), "share", f"{failed} of {rec.attempted} operations")
    for reason, k in sorted(rec.reasons.items()):
        emit("failure", k, "count", reason)
    for name, key, unit in workload.named:
        values = rec.samples[key]
        rate = unit == "1/s"
        value = statistics.median([1.0 / x for x in values] if rate else values)
        t = tail(values)
        note = f"n={len(values)}" + (f", {t[0]} {t[1]:.6g} s" + ("/token" if rate else "") if t else "")
        emit(name, value, unit, note)
    for metric, key in zip(OP_METRICS, workload.ops):
        emit(metric, end_to_end[metric][0], "ref", f"= median {key} over its bracketing reference")
    for name, (part, base, what) in properties(rec.counts).items():
        if base:
            emit(name, share(part, base), "share", f"{part} of {base} {what}")
    for name, k in sorted(rec.counts.items()):
        if name.startswith(("pipeline.wm_misses.", "large_vocab.")):
            emit(name, k, "count")
    for name, values in sorted(rec.outcomes.items()):
        emit(name, statistics.median(values), "share", f"median of {len(values)} cells")


def layer_metrics(tracer, rec, scipy_s, end_to_end, untraced) -> dict[str, tuple[float, str]]:
    from tracing import TARGETS

    metrics = {}
    summary = tracer.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    for layer, fn in TARGETS:
        s = summary.get(f"{layer}.{fn}", zero)
        if layer == "cli":
            metrics[f"cli.{fn.removeprefix('cmd_')}_s"] = (s["total_s"], "s")
        else:
            metrics[f"{layer}.{fn}.self_s"] = (s["self_s"], "s")
            metrics[f"{layer}.{fn}.calls"] = (s["calls"], "count")
    counts = tracer.counts
    metrics["prf.hashes"] = (counts.get("prf.vector_hashes", 0) + summary.get("prf.prf_uniform", zero)["calls"],
                             "count")
    for name in ("calibrate.mc_reps", "pivotal.alt_sample.draws", "experiments.thresholds_evaluated"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["setup.scipy_import_s"] = (statistics.median(scipy_s), "s")
    for name, (part, base, _) in properties(rec.counts).items():
        metrics[name] = (share(part, base), "share")
    for metric, (value, _) in end_to_end.items():
        metrics[f"trace.overhead.{metric}"] = (value / untraced["metrics"][metric]["value"] - 1.0, "share")
    return metrics


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer
    from workloads import WORKLOADS, Recorder

    untraced = run_child(args) if args.trace else None
    print("env " + json.dumps(environment(args), sort_keys=True))
    setup, scipy_s = measure_setup(importtime=bool(args.trace))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.warm_up(Recorder())
        rec = Recorder()
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install(workloads)
        try:
            periods, refs = run_phase(workload, rec, args.seconds / 2 if args.trace else args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        workload.verify(rec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [k for k in workload.ops if not rec.samples[k]]
    if missing:
        print(f"no successful samples for {missing}; failures {dict(rec.reasons)}", file=sys.stderr)
        return 1
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for metric, key in zip(OP_METRICS, workload.ops):
        end_to_end[metric] = (statistics.median(relative(rec.samples[key], rec.stamps[key], refs)), "ref")
    report(workload, rec, end_to_end, setup, periods, refs)

    attempted, failed = rec.attempted, len(rec.failed_ops)
    if args.trace:
        metrics = layer_metrics(tracer, rec, scipy_s, end_to_end, untraced)
        for name, (value, unit) in metrics.items():
            emit(name, value, unit)
        attempted += untraced["attempted"]
        failed += untraced["failed"]
    else:
        metrics = end_to_end
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def main(argv=None) -> int:
    # a terminated run still removes its work directory and stops its children
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")
    if not (SRC / "gumbelmark" / "__init__.py").is_file():
        print(f"error: no gumbelmark sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_workload(args)
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, cwd=ROOT).returncode)
    return worst


if __name__ == "__main__":
    sys.exit(main())
