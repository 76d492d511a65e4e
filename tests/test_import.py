import importlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import gumbelmark


def fresh_python(probe: str, timeout: float = 60) -> str:
    """What ``probe`` prints in a new interpreter that imports this package."""
    src = str(Path(gumbelmark.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         timeout=timeout, check=True)
    return out.stdout.strip()


def test_import_leaves_scipy_unloaded():
    # scipy is imported only by the calls that integrate numerically, so the
    # package and the CLI module load without it
    probe = "import sys, gumbelmark, gumbelmark.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_python(probe) == "[]"


def test_parser_is_built_on_the_first_main_call():
    # importing the CLI builds no parser; the first main call builds the top
    # parser and its five subcommands, and later calls reuse them
    probe = """
import argparse
built, init = [], argparse.ArgumentParser.__init__
def counting(parser, *args, **kwargs):
    built.append(parser)
    init(parser, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
from gumbelmark import cli
counts = [len(built)]
for _ in range(2):
    assert cli.main(["calibrate", "--n", "0", "--out", "unused.json"]) == 2
    counts.append(len(built))
print(counts)
"""
    assert fresh_python(probe) == "[0, 6, 6]"


def test_calibrated_detect_leaves_scipy_unloaded(tmp_path):
    # exact calibration, the CLT threshold of every sum rule and opt's
    # quadrature need numpy and the standard library only
    probe = f"""
import sys
from gumbelmark import cli
seq, out = {str(tmp_path / "seq.json")!r}, {str(tmp_path / "verdict.json")!r}
key = ["--key", "00112233445566778899aabbccddeeff"]
assert cli.main(["generate", *key, "--n", "200", "--seed", "1", "--out", seq]) == 0
for detector in (["trgof", "--s", "2"], ["trgof", "--s", "1"], ["hc"],
                 ["sum", "--score", "ars"], ["sum", "--score", "log"], ["sum", "--score", "ind"],
                 ["sum", "--score", "opt"]):
    assert cli.main(["detect", "--in", seq, *key, "--vocab-size", "20", "--calibrate",
                     "--detector", *detector, "--out", out]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert fresh_python(probe, timeout=120) == "[]"


def test_quadrature_suites_leave_scipy_unloaded(tmp_path):
    # the rate curve and opt's expectation gap are the package's other integrals
    probe = f"""
import sys
from gumbelmark import cli
out = {str(tmp_path)!r}
assert cli.main(["experiment", "efficiency", "--delta-min", "0.1", "--delta-max", "0.9", "--step", "0.2",
                 "--eps", "0.5", "--out-dir", out]) == 0
assert cli.main(["experiment", "gapcheck", "--trials", "100", "--out-dir", out]) == 0
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
"""
    assert fresh_python(probe, timeout=120) == "[]"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_trial_loop_keeps_freed_heap_pages():
    # in a scipy-free process, a goodness-of-fit statistic at n = 1e4 frees
    # ~80 KB temporaries at the heap top; unless a mixture study has raised
    # glibc's trim threshold, every call gives them back to the OS and faults
    # them in again (60-70 minor faults per call without it)
    probe = """
import resource, sys
import numpy as np
from gumbelmark.detectors import trgof_stat
from gumbelmark.experiments import BoundarySpec, MixtureConfig, min_error_cell
from gumbelmark.pivotal import PivotSeries
min_error_cell(MixtureConfig(n=200, p=0.5, q=0.4, vocab_size=20, trials=2), [BoundarySpec(name="t", kind="trgof")])
rng = np.random.default_rng(0)
series = [PivotSeries.from_y(rng.random(10_000)) for _ in range(60)]
for s in series[:10]:  # the heap grows to its working size
    trgof_stat(s, 2.0, 1e-4)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for s in series[10:]:
    trgof_stat(s, 2.0, 1e-4)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, "scipy" in sys.modules)
"""
    faults, scipy_loaded = fresh_python(probe).split()
    assert scipy_loaded == "False"
    assert int(faults) < 50  # fewer than one per call


def test_benchmark_names_resolve(monkeypatch):
    # perfbench/ imports package names and traces functions by module
    # attribute; a deletion that breaks either fails here, not only in a
    # benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import tracing
    import workloads  # noqa: F401  (its imports are the check)

    missing = [f"{layer}.{attr}" for layer, attr in tracing.TARGETS
               if not callable(getattr(importlib.import_module(f"gumbelmark.{layer}"), attr, None))]
    assert missing == []


def test_benchmark_workloads_run(monkeypatch, tmp_path):
    # the first operations of each benchmark workload, against the current
    # package: a change that breaks a call the benchmark makes (say
    # fit(...).threshold or the --reps/--outer flags) fails here, not only in
    # a benchmark run
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import WORKLOADS, Recorder

    first_ops = {"pipeline": 4, "large_vocab": 3, "boundary": 3}
    assert sorted(WORKLOADS) == sorted(first_ops)
    for name, count in first_ops.items():
        workload, rec = WORKLOADS[name](1, str(tmp_path)), Recorder()
        if name == "pipeline":
            workload.warm_up(rec)
            assert rec.counts["pipeline.verdicts"] == 1  # the warm-up document went through
        ops = workload.period(0)
        for idx in range(count):
            kind, op = next(ops)
            assert op(rec, idx) == [], (name, kind, idx)
