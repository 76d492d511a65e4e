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
import csv
import functools
import json
import math
import os
import platform
import sys
import time

import numpy as np

from . import __version__
from ._validation import check_fraction
from .calibrate import null_sf
from .detectors import (
    ARS,
    LOG,
    Detector,
    HigherCriticism,
    ScoreKind,
    SumScore,
    TrGoF,
    ind,
    opt,
)
from .edits import apply_adversarial_edit, apply_random_edit, tolerance_limit
from .efficiency import rate_curve
from .experiments import (
    _C_PLUS_RULES,
    BoundarySpec,
    MixtureConfig,
    _q_floor,
    boundary_grid,
    entropy_gap_check,
    histogram_study,
    resolve_c_plus,
)
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


def _library_versions() -> dict:
    """The versions of Python and numpy, the only libraries the package loads."""
    return {"python": platform.python_version(), "numpy": np.__version__}


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
        "library_versions": _library_versions(),
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
    try:
        return Key.from_hex(hexkey)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _load_seq(path: str) -> TokenSeq:
    try:
        with open(path) as fh:
            return TokenSeq.from_json(fh.read())
    except FileNotFoundError as exc:
        raise UsageError(f"no such file: {path}") from exc
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"bad token sequence file {path}: {exc}") from exc


def _make_source(args, seed: int) -> ToySource:
    lo = args.delta_min if args.delta_min is not None else args.delta
    hi = args.delta_max if args.delta_max is not None else args.delta
    return ToySource(vocab_size=args.vocab_size, delta_range=(lo, hi), seed=seed)


def _build_detector(args, n: int) -> Detector:
    """The detector the flags name, for a series of length n. A flag value
    out of its range (--s, --c-plus, --delta0, --alpha, a non-finite
    --critical-value) is a usage error."""
    try:
        if not 0.0 < args.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {args.alpha!r}")
        if args.critical_value is not None and not math.isfinite(args.critical_value):
            raise ValueError(f"critical value must be finite, got {args.critical_value!r}")
        if args.detector == "sum":
            kind = ScoreKind(args.score, args.delta0 if args.score in ("ind", "opt") else None)
            return SumScore(kind=kind, critical_value=args.critical_value)
        c_plus = resolve_c_plus(args.c_plus, n)
        if args.detector == "trgof":
            return TrGoF(s=args.s, c_plus=c_plus, critical_value=args.critical_value)
        return HigherCriticism(c_plus=c_plus, critical_value=args.critical_value)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


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
    if text in _C_PLUS_RULES:
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
    for flag, value in (("--n", args.n), ("--m", args.m)):
        if value < 1:
            raise UsageError(f"{flag} must be at least 1, got {value}")
    try:
        source = _make_source(args, seed=child_seed(args.seed, 0))
    except ValueError as exc:  # --delta, --delta-min, --delta-max or --vocab-size out of range
        raise UsageError(str(exc)) from exc
    cfg = GenConfig(n=args.n, m=args.m, masking=args.masking, seed=child_seed(args.seed, 1))
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
    if args.vocab_size < 2:
        raise UsageError(f"--vocab-size must be at least 2, got {args.vocab_size}")
    try:
        check_fraction(args.fraction, "--fraction")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
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
    if args.vocab_size is not None and args.vocab_size < 2:
        raise UsageError(f"--vocab-size must be at least 2, got {args.vocab_size}")
    t0 = time.perf_counter()
    seq = _load_seq(args.infile)
    key = _resolve_key(args)
    t1 = time.perf_counter()
    if not seq.tokens:
        raise ValueError(f"token sequence file {args.infile} is empty: no tokens to score")
    vocab = args.vocab_size if args.vocab_size is not None else max(seq.tokens) + 1
    piv = pivot_series(seq, key, vocab)
    detector = _build_detector(args, piv.n)
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
    try:  # critical_value owns the least n
        detector = _build_detector(args, args.n).fit(args.n, args.alpha)
    except (UsageError, ValueError) as exc:
        raise UsageError(f"cannot calibrate at --n {args.n}: {exc}") from exc
    config = {"detector": detector.to_config(), "n": args.n, "alpha": args.alpha}
    _write_json(args.out, dict(config, critical_value=detector.critical_value))
    _write_manifest(args.out + ".manifest.json", "calibrate", config, args.seed, [args.out], started)
    return EXIT_OK


def _suite_hist(args) -> list[str]:
    cfg = MixtureConfig(n=args.n, p=args.p, q=args.q, vocab_size=args.vocab_size,
                        ntp_mode=args.mode, trials=args.trials, seed=args.seed)
    study = histogram_study(cfg, args.s_list, resolve_c_plus(args.c_plus, args.n), alpha=args.alpha)
    path = os.path.join(args.out_dir, "hist_samples.csv")
    _write_csv(path, ["s", "hypothesis", "log_n_stat"],
               ([s, hyp, repr(float(v))] for (s, hyp), arr in study.samples.items() for v in arr))
    ppath = os.path.join(args.out_dir, "hist_power.json")
    _write_json(ppath, {str(s): p for s, p in study.power.items()})
    return [path, ppath]


def _write_boundary(args, specs: list[BoundarySpec], name: str) -> list[str]:
    """Min error sums of ``specs`` over the (p, q) grid of the flags; q starts
    where the top probability 1 - n**-q would drop under 1/V."""
    q_min = _q_floor(args.n, args.vocab_size)
    rows = boundary_grid(np.linspace(0.01, 1.0, args.grid), np.linspace(max(q_min, 0.01), 1.0, args.grid), specs,
                         n=args.n, vocab_size=args.vocab_size, ntp_mode=args.mode, trials=args.trials, seed=args.seed)
    path = os.path.join(args.out_dir, name)
    _write_csv(path, ["p", "q", "name", "min_error_sum"],
               ([r["p"], r["q"], r["name"], repr(float(r["min_error_sum"]))] for r in rows))
    return [path]


def _suite_boundary(args) -> list[str]:
    spec = BoundarySpec(name=f"trgof_s{args.s:g}", kind="trgof", s=args.s, c_plus_rule=args.c_plus)
    return _write_boundary(args, [spec], "boundary.csv")


def _suite_sumboundary(args) -> list[str]:
    specs = []
    for token in args.scores.split(","):
        name, _, param = token.partition(":")
        try:
            kind = ScoreKind(name, float(param) if param else None)
        except ValueError as exc:
            raise UsageError(f"bad --scores entry {token!r}: {exc}") from exc
        specs.append(BoundarySpec(name=kind.label(), kind="sum", score_kind=kind))
    return _write_boundary(args, specs, "sumboundary.csv")


def _suite_efficiency(args) -> list[str]:
    deltas = np.arange(args.delta_min, args.delta_max + 1e-12, args.step)
    rows = rate_curve(deltas, args.eps)
    if not np.all(np.diff(rows[:, 2]) >= -1e-9):
        raise AssertionError("efficiency rate curve is not monotone")
    path = os.path.join(args.out_dir, "efficiency.csv")
    _write_csv(path, ["delta", "epsilon", "rate"], ([repr(float(x)) for x in row] for row in rows))
    return [path]


def _suite_gapcheck(args) -> list[str]:
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
    key = _resolve_key(args)

    def decide(ts: TokenSeq) -> bool:
        if len(ts.tokens) <= ts.m:
            return False
        piv = pivot_series(ts, key, args.vocab_size)
        detector = TrGoF(s=args.s, c_plus=resolve_c_plus(args.c_plus, piv.n)).fit(piv.n, alpha=args.alpha)
        return detector.predict(piv)

    def rows():
        for i in range(args.trials):
            source = ToySource(args.vocab_size, (args.delta, args.delta), child_seed(args.seed, 1, i))
            prompt = substream(args.seed, 2, i).integers(0, args.vocab_size, size=args.m).tolist()
            seq = generate(source, key, prompt, GenConfig(n=args.n0, m=args.m, masking=True,
                                                          seed=child_seed(args.seed, 3, i)))
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
    # --n >= 2: the mixture's q floor log_n(V/(V-1)) divides by log n
    for flag, value, least in (("--n", args.n, 2), ("--trials", args.trials, 1), ("--grid", args.grid, 2),
                               ("--m", args.m, 1), ("--vocab-size", args.vocab_size, 2)):
        if value < least:
            raise UsageError(f"{flag} must be at least {least}, got {value}")
    if not (args.step > 0.0 and 0.0 < args.alpha < 1.0 and 0.0 < args.eps <= 1.0):
        raise UsageError(f"need --step > 0, 0 < --alpha < 1 and 0 < --eps <= 1, got {args.step}, {args.alpha}, {args.eps}")
    if not (0.0 < args.delta_min <= args.delta_max < 1.0 and all(-1.0 <= s <= 2.0 for s in (args.s, *args.s_list))):
        raise UsageError(f"need 0 < --delta-min <= --delta-max < 1 and --s and every --s-list entry in [-1, 2], "
                         f"got {args.delta_min}, {args.delta_max}, {args.s}, {args.s_list}")
    if args.suite == "tolerance" and args.n_test <= args.m:
        raise UsageError(f"--n-test must exceed --m to leave a scored position, got {args.n_test} and --m {args.m}")
    made = not os.path.exists(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    try:
        outputs = _SUITES[args.suite](args)
    except BaseException:
        # a failed suite leaves no directory it made and wrote nothing into
        if made and not os.listdir(args.out_dir):
            os.rmdir(args.out_dir)
        raise
    config = {k: v for k, v in vars(args).items() if k not in ("func", "suite", "key") and v is not None}
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
                   help=f"stability parameter: {', '.join(_C_PLUS_RULES)}, or a float")
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
