"""Command-line interface: generate, edit, detect, calibrate, experiment.

All randomness flows from --seed through named substreams; no ambient
entropy. Every run writes a manifest JSON recording the command, full
configuration, seed, tool and library versions, output paths, and wall-clock
time: ``<out>.manifest.json`` beside a single output, ``<out-dir>/manifest.json``
for an experiment suite.

Every file is UTF-8 and written by one helper per format: CSV with a header
row, '.' decimals and '\\n' line endings (``_write_csv``); JSON with indent 2,
sorted keys and a trailing newline (``_write_json``); token sequences as one
JSON line (``_write_seq``).

The parser is built on the first ``main`` call and shared by every later one
(``parse_args`` never changes it): a caller that loops over ``main`` skips the
~1.5 ms rebuild, and importing this module builds none.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal invariant
breach.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from ._validation import check_alpha, check_fraction, check_vocab_size
from .calibrate import null_sf
from .detectors import ARS, C_PLUS_RULES, LOG, BoundarySpec, ScoreKind, ind, opt
from .edits import apply_adversarial_edit, apply_random_edit, tolerance_limit
from .efficiency import rate_curve
from .experiments import MixtureConfig, boundary_grid, entropy_gap_check, histogram_study
from .pivotal import pivot_series
from .prf import Key
from .streams import child_seed, substream
from .tokensource import ToySource, make_m2
from .watermark import GenConfig, TokenSeq, generate, generate_null

KEY_ENV_VAR = "GUMBELMARK_KEY"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


@contextlib.contextmanager
def _flags(context: str = ""):
    """Run library code on flag values, whose ranges the library owns: a
    ValueError it raises is a usage error, its message after ``context``."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(f"{context}{exc}") from exc


def _write_csv(path: str, header: list[str], rows) -> None:
    """A header row, then ``rows`` as they are produced (a generator streams),
    into ``path + ".tmp"``, renamed to ``path`` once every row is written."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the rows raised: no partial CSV is left
            os.remove(tmp)


def _write_json(path: str, obj) -> None:
    """A NaN or infinity is not JSON: a ValueError naming ``path``, and no file."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _write_seq(path: str, seq: TokenSeq) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(seq.to_json())
        fh.write("\n")


def _write_manifest(path: str, command: str, config: dict, seed, outputs: list[str], started: float,
                    timings: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "library_versions": {"python": platform.python_version(), "numpy": np.__version__},  # all the package loads
        "outputs": outputs,
        "wall_clock_s": round(time.time() - started, 6),
    }
    if timings is not None:
        manifest["timings_s"] = {stage: round(sec, 6) for stage, sec in timings.items()}
    _write_json(path, manifest)


def _resolve_key(args) -> Key:
    hexkey = getattr(args, "key", None) or os.environ.get(KEY_ENV_VAR)
    if not hexkey:
        raise UsageError(f"no key: pass --key or set {KEY_ENV_VAR}")
    with _flags():
        return Key.from_hex(hexkey)


def _load_seq(path: str) -> TokenSeq:
    try:
        with open(path) as fh:
            return TokenSeq.from_json(fh.read())
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError; deep nesting recurses
        raise ValueError(f"bad token sequence file {path}: {exc}") from exc


def _make_source(args, seed: int) -> ToySource:
    lo = args.delta_min if args.delta_min is not None else args.delta
    hi = args.delta_max if args.delta_max is not None else args.delta
    return ToySource(vocab_size=args.vocab_size, delta_range=(lo, hi), seed=seed)


def _detector_spec(args) -> BoundarySpec:
    """The spec of the detector the flags name. A flag value out of its range
    (--alpha, a non-finite --critical-value, or --s, --c-plus or --delta0
    where the detector reads it) raises ValueError; callers run it under
    ``_flags``. The spec checks only the flags its kind reads."""
    check_alpha(args.alpha)
    if args.critical_value is not None and not math.isfinite(args.critical_value):
        raise ValueError(f"critical value must be finite, got {args.critical_value!r}")
    score_kind = None
    if args.detector == "sum":
        score_kind = ScoreKind(args.score, args.delta0 if args.score in ("ind", "opt") else None)
    return BoundarySpec(name=args.detector, kind=args.detector, s=args.s, c_plus_rule=args.c_plus,
                        score_kind=score_kind)


def _s_list(text: str) -> list[float]:
    try:
        return [float(s) for s in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad s-list value {text!r}: need comma-separated numbers") from exc


def _seed_arg(text: str) -> int:
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return int(text)


def _c_plus_arg(text: str):
    if text in C_PLUS_RULES:
        return text
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad c-plus value {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    started = time.time()
    with _flags(f"--n {args.n} and --m {args.m}: "):
        cfg = GenConfig(n=args.n, m=args.m, masking=args.masking, seed=child_seed(args.seed, 1))
    with _flags():
        source = _make_source(args, seed=child_seed(args.seed, 0))
    prompt = substream(args.seed, 2).integers(0, args.vocab_size, size=args.m).tolist()
    if args.null:
        seq = generate_null(source, prompt, cfg)
    else:
        key = _resolve_key(args)
        seq = generate(source, key, prompt, cfg)
    _write_seq(args.out, seq)
    config = {k: getattr(args, k) for k in ("n", "m", "vocab_size", "delta", "delta_min", "delta_max", "masking", "null")}
    _write_manifest(args.out + ".manifest.json", "generate", config, args.seed, [args.out], started)
    return EXIT_OK


def cmd_edit(args) -> int:
    started = time.time()
    with _flags():
        check_vocab_size(args.vocab_size)
        check_fraction(args.fraction, "--fraction")
    seq = _load_seq(args.infile)
    if args.edit == "adv":
        out = apply_adversarial_edit(seq, args.fraction, _resolve_key(args), args.vocab_size, args.seed)
    else:
        out = apply_random_edit(seq, args.edit, args.fraction, args.vocab_size, args.seed)
    _write_seq(args.out, out)
    config = {"edit": args.edit, "fraction": args.fraction, "vocab_size": args.vocab_size, "in": args.infile}
    _write_manifest(args.out + ".manifest.json", "edit", config, args.seed, [args.out], started)
    return EXIT_OK


def cmd_detect(args) -> int:
    started = time.time()
    if args.critical_value is None and not args.calibrate:
        raise UsageError("need --critical-value or --calibrate")
    if args.vocab_size is not None:
        with _flags():
            check_vocab_size(args.vocab_size)
    t0 = time.perf_counter()
    seq = _load_seq(args.infile)
    key = _resolve_key(args)
    t1 = time.perf_counter()
    if not seq.tokens:
        raise ValueError(f"token sequence file {args.infile} is empty: no tokens to score")
    vocab = args.vocab_size if args.vocab_size is not None else max(seq.tokens) + 1
    piv = pivot_series(seq, key, vocab)
    with _flags():
        detector = replace(_detector_spec(args).detector(piv.n), critical_value=args.critical_value)
    t2 = time.perf_counter()
    if args.calibrate:
        detector = detector.fit(piv.n, alpha=args.alpha)
    t3 = time.perf_counter()
    statistic = detector.statistic(piv)
    verdict = {
        "statistic": statistic,
        "p_value": null_sf(detector, piv.n, statistic),
        "n_scored": piv.n,
        "critical_value": detector.threshold,
        "reject": bool(statistic >= detector.threshold),
        "detector": detector.to_config(),
    }
    t4 = time.perf_counter()
    _write_json(args.out, verdict)
    config = {"detector": detector.to_config(), "alpha": args.alpha, "in": args.infile}
    timings = {"load": t1 - t0, "pivots": t2 - t1, "calibrate": t3 - t2, "score": t4 - t3}
    _write_manifest(args.out + ".manifest.json", "detect", config, args.seed, [args.out], started, timings)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    started = time.time()
    with _flags(f"cannot calibrate at --n {args.n}: "):  # critical_value owns the least n
        detector = _detector_spec(args).detector(args.n).fit(args.n, args.alpha)
    config = {"detector": detector.to_config(), "n": args.n, "alpha": args.alpha}
    _write_json(args.out, dict(config, critical_value=detector.critical_value))
    _write_manifest(args.out + ".manifest.json", "calibrate", config, args.seed, [args.out], started)
    return EXIT_OK


def _suite_hist(args) -> list[str]:
    with _flags(f"--n {args.n}, --trials {args.trials}, --vocab-size {args.vocab_size}, --p {args.p}, --q {args.q}: "):
        cfg = MixtureConfig(n=args.n, p=args.p, q=args.q, vocab_size=args.vocab_size, ntp_mode=args.mode,
                            trials=args.trials, seed=args.seed)
    detectors = []
    for s in args.s_list:
        with _flags(f"--s-list entry {s} and --c-plus {args.c_plus}: "):
            spec = BoundarySpec(name=f"trgof_s{s:g}", kind="trgof", s=s, c_plus_rule=args.c_plus)
            detectors.append(spec.detector(cfg.n))
    with _flags(f"--alpha {args.alpha}: "):
        check_alpha(args.alpha)
    study = histogram_study(cfg, detectors, alpha=args.alpha)
    path = os.path.join(args.out_dir, "hist_samples.csv")
    _write_csv(path, ["s", "hypothesis", "log_n_stat"],
               ([s, hyp, repr(float(v))] for (s, hyp), arr in study.samples.items() for v in arr))
    ppath = os.path.join(args.out_dir, "hist_power.json")
    _write_json(ppath, {str(s): p for s, p in study.power.items()})
    return [path, ppath]


def _write_boundary(args, specs: list[BoundarySpec], name: str) -> list[str]:
    """Min error sums of ``specs`` over the (p, q) grid of the flags; q starts at the floor of
    the grid's (1, 1) corner, a mixture in range whenever --n, --trials and --vocab-size are."""
    if args.grid < 2:
        raise UsageError(f"--grid must be at least 2, got {args.grid}")
    with _flags(f"--n {args.n}, --trials {args.trials} and --vocab-size {args.vocab_size}: "):
        q_min = MixtureConfig(n=args.n, p=1.0, q=1.0, vocab_size=args.vocab_size, ntp_mode=args.mode,
                              trials=args.trials).q_floor
    rows = boundary_grid(np.linspace(0.01, 1.0, args.grid), np.linspace(max(q_min, 0.01), 1.0, args.grid), specs,
                         n=args.n, vocab_size=args.vocab_size, ntp_mode=args.mode, trials=args.trials, seed=args.seed)
    path = os.path.join(args.out_dir, name)
    _write_csv(path, ["p", "q", "name", "min_error_sum"],
               ([r["p"], r["q"], r["name"], repr(float(r["min_error_sum"]))] for r in rows))
    return [path]


def _suite_boundary(args) -> list[str]:
    with _flags(f"--s {args.s} and --c-plus {args.c_plus}: "):
        spec = BoundarySpec(name=f"trgof_s{args.s:g}", kind="trgof", s=args.s, c_plus_rule=args.c_plus)
    return _write_boundary(args, [spec], "boundary.csv")


def _suite_sumboundary(args) -> list[str]:
    specs = []
    for token in args.scores.split(","):
        name, _, param = token.partition(":")
        with _flags(f"bad --scores entry {token!r}: "):
            kind = ScoreKind(name, float(param) if param else None)
        specs.append(BoundarySpec(name=kind.label(), kind="sum", score_kind=kind))
    return _write_boundary(args, specs, "sumboundary.csv")


def _suite_efficiency(args) -> list[str]:
    if not (args.step > 0.0 and 0.0 < args.delta_min <= args.delta_max < 1.0):
        raise UsageError(f"need 0 < --delta-min <= --delta-max < 1 and --step > 0, "
                         f"got {args.delta_min}, {args.delta_max} and {args.step}")
    deltas = np.arange(args.delta_min, args.delta_max + 1e-12, args.step)
    with _flags(f"--eps {args.eps}: "):  # on a δ grid in range, optimal_rate can refuse only ε
        rows = rate_curve(deltas, args.eps)
    if not np.all(np.diff(rows[:, 2]) >= -1e-9):
        raise AssertionError("efficiency rate curve is not monotone")
    path = os.path.join(args.out_dir, "efficiency.csv")
    _write_csv(path, ["delta", "epsilon", "rate"], ([repr(float(x)) for x in row] for row in rows))
    return [path]


def _suite_gapcheck(args) -> list[str]:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    kinds = [ARS, LOG, ind(0.5), opt(0.1)]
    dists = {"half_half": np.array([0.5, 0.5]), "m2_0.4_5": make_m2(0.4, 5)}
    path = os.path.join(args.out_dir, "gapcheck.csv")
    _write_csv(path, ["dist", "score", "gap_mc", "se", "lower", "upper", "passed"], (
        [label, row.score, repr(row.gap_mc), repr(row.se), repr(row.lower), repr(row.upper), row.passed]
        for label, probs in dists.items()
        for row in entropy_gap_check(probs, kinds, trials=args.trials, seed=args.seed)
    ))
    return [path]


def _suite_tolerance(args) -> list[str]:
    """Edit tolerance of TrGoF, calibrated at each decided sequence's scored
    length; a sequence with no scored position is not rejected."""
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    with _flags(f"--n0 {args.n0} and --m {args.m}: "):
        gen = GenConfig(n=args.n0, m=args.m, masking=True)
    if args.n_test <= args.m:
        raise UsageError(f"--n-test must exceed --m to leave a scored position, got {args.n_test} and --m {args.m}")
    with _flags(f"--vocab-size {args.vocab_size} and --delta {args.delta}: "):
        source = ToySource(args.vocab_size, (args.delta, args.delta), seed=0)
    with _flags(f"--s {args.s} and --c-plus {args.c_plus}: "):
        spec = BoundarySpec(name=f"trgof_s{args.s:g}", kind="trgof", s=args.s, c_plus_rule=args.c_plus)
    with _flags(f"--alpha {args.alpha}: "):
        check_alpha(args.alpha)
    key = _resolve_key(args)

    def decide(ts: TokenSeq) -> bool:
        if len(ts.tokens) <= ts.m:
            return False
        piv = pivot_series(ts, key, args.vocab_size)
        return spec.detector(piv.n).fit(piv.n, alpha=args.alpha).predict(piv)

    def rows():
        for i in range(args.trials):
            prompt = substream(args.seed, 2, i).integers(0, args.vocab_size, size=args.m).tolist()
            seq = generate(replace(source, seed=child_seed(args.seed, 1, i)), key, prompt,
                           replace(gen, seed=child_seed(args.seed, 3, i)))
            for kind in ("sub", "ins", "del"):
                res = tolerance_limit(seq, kind, decide, args.n_test, child_seed(args.seed, 4, i),
                                      args.vocab_size)
                yield [i, kind, repr(res.fraction), res.rejected_unedited]

    path = os.path.join(args.out_dir, "tolerance.csv")
    _write_csv(path, ["sequence", "edit", "tolerance_fraction", "rejected_unedited"], rows())
    return [path]


_SUITES = {
    "hist": _suite_hist,
    "boundary": _suite_boundary,
    "sumboundary": _suite_sumboundary,
    "efficiency": _suite_efficiency,
    "gapcheck": _suite_gapcheck,
    "tolerance": _suite_tolerance,
}


def cmd_experiment(args) -> int:
    started = time.time()
    config = {k: v for k, v in vars(args).items() if k not in ("func", "suite", "key") and v is not None}
    args.out_dir = os.path.realpath(args.out_dir)  # ".." and symlinks resolved as the kernel does
    made, head = [], args.out_dir
    while not os.path.exists(head):  # the out dir and each ancestor makedirs makes, deepest first
        made.append(head)
        head = os.path.dirname(head)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
        outputs = _SUITES[args.suite](args)  # the suite checks the flags it reads
    except BaseException:
        for path in made:  # a failed suite leaves no directory it made and wrote nothing into
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)
        raise
    _write_manifest(os.path.join(args.out_dir, "manifest.json"), f"experiment {args.suite}", config,
                    args.seed, outputs, started)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--detector", choices=("trgof", "hc", "sum"), default="trgof")
    p.add_argument("--s", type=float, default=2.0, help="goodness-of-fit shape parameter in [-1, 2]")
    p.add_argument("--c-plus", type=_c_plus_arg, default="1/n", dest="c_plus",
                   help=f"stability parameter: {', '.join(C_PLUS_RULES)}, or a float")
    p.add_argument("--score", choices=("ars", "log", "ind", "opt"), default="ars")
    p.add_argument("--delta0", type=float, default=0.1)
    p.add_argument("--critical-value", type=float, default=None, dest="critical_value")
    p.add_argument("--alpha", type=float, default=0.01)
    ignored = "accepted but unused: TrGoF/HC calibration is exact, sum rules use the CLT threshold"
    p.add_argument("--reps", type=int, default=10_000, help=ignored)
    p.add_argument("--outer", type=int, default=10, help=ignored)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gumbelmark",
                                 description="Gumbel-max watermarking with truncated goodness-of-fit detection")
    ap.add_argument("--version", action="version", version=f"gumbelmark {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a (un)watermarked token sequence")
    g.add_argument("--key", default=None, help=f"hex key (or env {KEY_ENV_VAR})")
    g.add_argument("--vocab-size", type=int, default=20, dest="vocab_size")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, default=5)
    g.add_argument("--delta", type=float, default=0.3)
    g.add_argument("--delta-min", type=float, default=None, dest="delta_min")
    g.add_argument("--delta-max", type=float, default=None, dest="delta_max")
    g.add_argument("--null", action="store_true", help="unwatermarked control sequence")
    g.add_argument("--masking", action=argparse.BooleanOptionalAction, default=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    e = sub.add_parser("edit", help="apply simulated human edits")
    e.add_argument("--in", dest="infile", required=True)
    e.add_argument("--edit", choices=("sub", "ins", "del", "adv"), required=True)
    e.add_argument("--fraction", type=float, required=True)
    e.add_argument("--vocab-size", type=int, required=True, dest="vocab_size")
    e.add_argument("--key", default=None)
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_edit)

    d = sub.add_parser("detect", help="score a sequence and decide")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--key", default=None)
    d.add_argument("--vocab-size", type=int, default=None, dest="vocab_size")
    d.add_argument("--calibrate", action="store_true",
                   help="calibrate the critical value first: exact null law for trgof/hc, CLT for sum")
    d.add_argument("--out", required=True)
    _add_detector_args(d)
    d.set_defaults(func=cmd_detect)

    c = sub.add_parser("calibrate", help="compute a critical value")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--out", required=True)
    _add_detector_args(c)
    c.set_defaults(func=cmd_calibrate)

    x = sub.add_parser("experiment", help="run an experiment suite")
    x.add_argument("suite", choices=sorted(_SUITES))
    x.add_argument("--n", type=int, default=1000)
    x.add_argument("--p", type=float, default=0.2)
    x.add_argument("--q", type=float, default=0.5)
    x.add_argument("--grid", type=int, default=20, help="points per (p, q) axis")
    x.add_argument("--trials", type=int, default=200)
    x.add_argument("--vocab-size", type=int, default=1000, dest="vocab_size")
    x.add_argument("--mode", choices=("m1", "m2"), default="m2")
    x.add_argument("--s", type=float, default=2.0)
    x.add_argument("--s-list", type=_s_list, default="2,1.5,1,0.5,0", dest="s_list")
    x.add_argument("--scores", default="ars,log,ind:0.5,opt:0.1",
                   help="sum rules for the sumboundary suite, e.g. ars,log,ind:0.5,opt:0.1")
    x.add_argument("--c-plus", type=_c_plus_arg, default="1/n", dest="c_plus")
    x.add_argument("--alpha", type=float, default=0.05)
    x.add_argument("--eps", type=float, default=1.0)
    x.add_argument("--delta-min", type=float, default=0.01, dest="delta_min")
    x.add_argument("--delta-max", type=float, default=0.9, dest="delta_max")
    x.add_argument("--step", type=float, default=0.005)
    x.add_argument("--key", default=None)
    x.add_argument("--m", type=int, default=5)
    x.add_argument("--n0", type=int, default=200, help="tolerance suite: initial length")
    x.add_argument("--n-test", type=int, default=105, dest="n_test")
    x.add_argument("--delta", type=float, default=0.3)
    x.add_argument("--out-dir", required=True, dest="out_dir")
    x.set_defaults(func=cmd_experiment)

    for p in (g, e, d, c, x):
        p.add_argument("--seed", type=_seed_arg, default=0)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
