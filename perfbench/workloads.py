"""The three benchmark workloads.

Each workload is a closed loop with one client: it yields a fixed, seeded
sequence of operations for a period ``p`` and the runner executes them one
after another. An operation records its timings and counts into a
``Recorder`` and returns the reasons it failed (an empty list when its
outputs check out). Inputs depend only on the workload seed and the period
index, so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import time
from collections import Counter, defaultdict

import numpy as np

from gumbelmark import (
    ARS,
    LOG,
    GenConfig,
    Key,
    SumScore,
    TokenSeq,
    ToySource,
    generate,
    gumbel_decode,
    ind,
    opt,
    pivot_series,
    prf_vector,
    rate_curve,
    toy_next_dist,
)
from gumbelmark import cli
from gumbelmark.experiments import SUM_CRIT_GRIDS, BoundarySpec, MixtureConfig, min_error_cell

M = 5  # context window of every generated document


def derive_seed(*path: int) -> int:
    """A 32-bit seed addressed by ``path`` (workload seed first)."""
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


class Recorder:
    """Samples, counts and failures of one run phase."""

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.stamps: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.outcomes: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.reasons: Counter = Counter()

    def sample(self, key: str, value: float) -> None:
        """A timing sample, stamped with the clock when it was taken."""
        self.samples[key].append(value)
        self.stamps[key].append(time.perf_counter())

    def fail(self, op: int, reasons) -> None:
        if reasons:
            self.failed_ops.add(op)
            self.reasons.update(reasons)


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# pipeline: generate -> edit -> detect --calibrate through the CLI
# ---------------------------------------------------------------------------

class Pipeline:
    """The verifier's path, one document at a time through ``cli.main``.

    A period is the four documents of ``DOCUMENTS``: watermarked n=200 and
    n=400, an unwatermarked control, and a second watermarked n=200 whose
    detector and scored length repeat the first document's. The four edit
    kinds appear once each; the detectors shift by one per period and the
    control's n alternates. ``detect`` runs at the CLI defaults (alpha 0.01,
    10000 x 10 Monte Carlo reps, seed 0, c+ = 1/n), so a calibration is a
    repeat whenever (detector, scored n) recurs.
    """

    name = "pipeline"
    vocab = 20
    detectors = (("trgof", "2"), ("trgof", "1"), ("hc", None))
    # (n, unwatermarked control, edit, detector index)
    documents = ((200, False, "sub", 0), (400, False, "ins", 1), (200, True, "del", 2), (200, False, "adv", 0))
    ops = ("doc_s", "verdict_s")
    named = (("doc_s_p50", "doc_s", "s"), ("verdict_s_p50", "verdict_s", "s"),
             ("generate_s_p50", "generate_s", "s"), ("edit_s_p50", "edit_s", "s"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.key = np.random.default_rng([seed, 0]).bytes(16).hex()
        self.calibrated: set = set()

    def period(self, p: int):
        for i, (n, null, edit, d) in enumerate(self.documents):
            doc = (400 if null and p % 2 else n, null, edit, self.detectors[(d + p) % 3],
                   derive_seed(self.seed, 1, p, i))
            yield "document", lambda rec, idx, doc=doc: self._document(rec, *doc)

    def reference(self) -> None:
        """Machine-speed kernel shaped like Monte Carlo reps at n = 200."""
        u = np.arange(1, 201) / 200
        for r in range(1000):
            p = np.sort(np.random.default_rng(np.random.SeedSequence(0, spawn_key=(r,))).random(200))
            np.max((u - p) ** 2 / (p * (1.0 - p)))

    def warm_up(self, rec: Recorder) -> None:
        # a short calibration: the warm-up runs every code path, not the full cost
        self._document(rec, 100, False, "sub", self.detectors[0], derive_seed(self.seed, 2),
                       ["--reps", "1000", "--outer", "1"])

    def _document(self, rec, n, null, edit, detector, seed, calibration_args=()) -> list[str]:
        gen, edited, verdict = (os.path.join(self.dir, f) for f in ("doc.json", "edited.json", "verdict.json"))
        for path in (gen, edited, verdict):
            if os.path.exists(path):
                os.remove(path)
        key = ["--key", self.key]
        t0 = time.perf_counter()
        rc = cli.main(["generate", *key, "--vocab-size", str(self.vocab), "--n", str(n), "--m", str(M),
                       "--delta-min", "0.1", "--delta-max", "0.5", "--seed", str(seed), "--out", gen]
                      + (["--null"] if null else []))
        if rc:
            return [f"generate exit {rc}"]
        t1 = time.perf_counter()
        rc = cli.main(["edit", "--in", gen, "--edit", edit, "--fraction", "0.1", "--seed", str(seed),
                       "--vocab-size", str(self.vocab), "--out", edited] + (key if edit == "adv" else []))
        if rc:
            return [f"edit exit {rc}"]
        t2 = time.perf_counter()
        kind, s = detector
        rc = cli.main(["detect", "--in", edited, *key, "--vocab-size", str(self.vocab), "--calibrate",
                       "--detector", kind, *calibration_args] + (["--s", s] if s else []) + ["--out", verdict])
        if rc:
            return [f"detect exit {rc}"]
        t3 = time.perf_counter()

        try:
            with open(gen) as fh:
                doc = TokenSeq.from_json(fh.read())
            with open(edited) as fh:
                TokenSeq.from_json(fh.read())
            with open(verdict) as fh:
                v = json.load(fh)
            stat, crit, reject, n_scored = v["statistic"], v["critical_value"], v["reject"], v["n_scored"]
            config = {k: val for k, val in v["detector"].items() if k != "critical_value"}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}"]
        if not _finite(stat, crit):
            return ["non-finite statistic or threshold"]

        rec.sample("doc_s", t3 - t0)
        rec.sample("verdict_s", t3 - t2)
        rec.sample("generate_s", t1 - t0)
        rec.sample("edit_s", t2 - t1)
        # (detector, n, alpha, reps, outer, seed); all but the overrides are CLI defaults
        calibration = (json.dumps(config, sort_keys=True), n_scored, *calibration_args)
        rec.counts["pipeline.verdicts"] += 1
        rec.counts["pipeline.repeat_calibrations"] += calibration in self.calibrated
        self.calibrated.add(calibration)
        if null:
            rec.counts["pipeline.null_controls"] += 1
            rec.counts["pipeline.null_rejections"] += bool(reject)
        else:
            generated = [c for c in doc.provenance if c != "P"]
            rec.counts["watermark.generated_positions"] += len(generated)
            rec.counts["watermark.masked_positions"] += generated.count("S")
            # a miss is a Type II outcome of a finite-n test, not a failed operation
            rec.counts["pipeline.wm_docs"] += 1
            rec.counts[f"pipeline.wm_docs.{edit}"] += 1
            rec.counts["pipeline.wm_misses"] += not reject
            rec.counts[f"pipeline.wm_misses.{edit}"] += not reject
        return []

    def verify(self, rec: Recorder) -> None:
        pass


# ---------------------------------------------------------------------------
# large_vocab: embedding and sum-rule scoring at V = 32000
# ---------------------------------------------------------------------------

class LargeVocab:
    """Watermarked generation and CLT-calibrated ARS scoring at V = 32000.

    A period embeds one document of ``n_embed`` tokens, then scores it and
    ``n_corpus`` fresh unwatermarked sequences of ``corpus_len`` uniform
    tokens. Embedding hashes V ids per token (``prf_vector``); scoring hashes
    one per token (``prf_uniform``).
    """

    name = "large_vocab"
    vocab = 32_000
    n_embed = 32
    n_corpus = 16
    corpus_len = 400
    ops = ("embed_s_per_token", "score_s_per_token")
    named = (("embed_tokens_per_s", "embed_s_per_token", "1/s"),
             ("score_tokens_per_s", "score_s_per_token", "1/s"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.key = Key(rng.bytes(16))
        self.source = ToySource(self.vocab, (0.1, 0.5), int(rng.integers(2**63)))
        self.docs: list[tuple[int, TokenSeq]] = []

    def period(self, p: int):
        rng = np.random.default_rng([self.seed, 1, p])
        prompt = rng.integers(0, self.vocab, size=M).tolist()
        cfg = GenConfig(n=self.n_embed, m=M, seed=derive_seed(self.seed, 2, p))
        made: list[TokenSeq] = []
        yield "embed", lambda rec, idx: self._embed(rec, idx, prompt, cfg, made)
        if made:
            yield "score", lambda rec, idx: self._score(rec, made[0], True)
        for _ in range(self.n_corpus):
            tokens = rng.integers(0, self.vocab, size=self.corpus_len).tolist()
            seq = TokenSeq(tokens, ["P"] * M + ["S"] * (self.corpus_len - M), M)
            yield "score", lambda rec, idx, seq=seq: self._score(rec, seq, False)

    def reference(self) -> None:
        """Machine-speed kernel shaped like the PRF: one SHA-256 per id."""
        pack = struct.Struct("<I").pack
        base = hashlib.sha256(b"perfbench")
        for w in range(16_000):
            h = base.copy()
            h.update(pack(w))
            int.from_bytes(h.digest()[:8], "big")

    def warm_up(self, rec: Recorder) -> None:
        seq = generate(self.source, self.key, [1, 2, 3, 4, 5], GenConfig(n=2, m=M, seed=0))
        self._score(rec, seq, True)

    def _embed(self, rec, idx, prompt, cfg, made) -> list[str]:
        t0 = time.perf_counter()
        seq = generate(self.source, self.key, prompt, cfg)
        elapsed = time.perf_counter() - t0
        made.append(seq)
        self.docs.append((idx, seq))
        embedded = seq.provenance.count("W")
        rec.counts["watermark.generated_positions"] += cfg.n
        rec.counts["watermark.masked_positions"] += seq.provenance.count("S")
        if embedded:
            rec.sample("embed_s_per_token", elapsed / embedded)
        return []

    def _score(self, rec, seq, watermarked) -> list[str]:
        t0 = time.perf_counter()
        piv = pivot_series(seq, self.key, self.vocab)
        detector = SumScore(ARS).fit(piv.n, alpha=0.01)
        stat = detector.statistic(piv)
        reject = stat >= detector.threshold
        elapsed = time.perf_counter() - t0
        if not _finite(stat, detector.threshold):
            return ["non-finite statistic or threshold"]
        rec.sample("score_s_per_token", elapsed / piv.n)
        label = "wm" if watermarked else "corpus"
        rec.counts[f"large_vocab.{label}_scored"] += 1
        rec.counts[f"large_vocab.{label}_rejected"] += bool(reject)
        return []

    def verify(self, rec: Recorder) -> None:
        """Bit-exact embedding check at one watermarked position per document."""
        for idx, seq in self.docs:
            marked = [t for t, c in enumerate(seq.provenance) if c == "W"]
            if not marked:
                continue
            t = marked[derive_seed(self.seed, 3, idx) % len(marked)]
            probs = toy_next_dist(self.source, seq.tokens[:t])
            xi = prf_vector(self.key, seq.tokens[t - M : t], self.vocab)
            rec.counts["large_vocab.embed_positions_checked"] += 1
            if gumbel_decode(probs, xi) != seq.tokens[t]:
                rec.fail(idx, ["embedded token differs from gumbel_decode"])


# ---------------------------------------------------------------------------
# boundary: experiment cells and the efficiency curve
# ---------------------------------------------------------------------------

SPECS = [BoundarySpec(name="trgof", kind="trgof", s=2.0, c_plus_rule="1/n")] + [
    BoundarySpec(name=k.name, kind="sum", score_kind=k, crit_grid=SUM_CRIT_GRIDS[k.name])
    for k in (ARS, LOG, ind(0.5), opt(0.1))
]
DELTAS = np.arange(0.01, 0.9 + 1e-12, 0.005)  # the efficiency suite's default grid


class Boundary:
    """The researcher's path: ``min_error_cell`` on the criterion-07 m2 cell
    and an m1 cell with the same specs, then ``rate_curve`` at eps 1 and 0.1."""

    name = "boundary"
    m2 = dict(n=10_000, p=0.25, q=0.4, vocab_size=1000, ntp_mode="m2", trials=100)
    m1 = dict(n=1000, p=0.5, q=0.4, vocab_size=1000, ntp_mode="m1", trials=6)
    epsilons = (1.0, 0.1)
    ops = ("cell_m2_s", "cell_m1_s")
    named = (("cell_m2_s", "cell_m2_s", "s"), ("cell_m1_s", "cell_m1_s", "s"), ("rate_curve_s", "rate_curve_s", "s"))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self._ref = np.random.default_rng(0).random(10_000)
        self._ref_expo = 1.0 / np.linspace(0.001, 0.6, 1000)

    def reference(self) -> None:
        """Machine-speed kernel shaped like the cells: sorts of n = 1e4 and
        powers over V = 1000 probabilities."""
        for _ in range(80):
            np.sort(self._ref)
            (self._ref[:32, None] ** self._ref_expo).sum(axis=-1)

    def period(self, p: int):
        for k, (mode, cell) in enumerate((("m2", self.m2), ("m1", self.m1))):
            cfg = MixtureConfig(**cell, seed=derive_seed(self.seed, 4, p, k))
            yield f"cell_{mode}", lambda rec, idx, cfg=cfg, mode=mode: self._cell(rec, cfg, mode)
        for eps in self.epsilons:
            yield "rate_curve", lambda rec, idx, eps=eps: self._rates(rec, DELTAS, eps)

    def warm_up(self, rec: Recorder) -> None:
        min_error_cell(MixtureConfig(**dict(self.m2, trials=2), seed=0), SPECS)
        min_error_cell(MixtureConfig(**dict(self.m1, trials=1), seed=0), SPECS)
        self._rates(rec, DELTAS[:3], 1.0)

    def _cell(self, rec, cfg, mode) -> list[str]:
        t0 = time.perf_counter()
        errs = min_error_cell(cfg, SPECS)
        elapsed = time.perf_counter() - t0
        rec.sample(f"cell_{mode}_s", elapsed)
        for name, err in errs.items():
            rec.outcomes[f"boundary.{mode}.err_{name}"].append(err)
        if not all(_finite(e) and 0.0 <= e <= 1.0 for e in errs.values()):
            return ["error sum outside [0, 1]"]
        if mode == "m2" and not errs["trgof"] < 0.3:
            return ["trgof min error sum >= 0.3 at the criterion-07 cell"]
        return []

    def _rates(self, rec, deltas, eps) -> list[str]:
        t0 = time.perf_counter()
        rows = rate_curve(deltas, eps)
        rec.sample("rate_curve_s", time.perf_counter() - t0)
        if not np.all(np.isfinite(rows)):
            return ["non-finite rate"]
        if not np.all(np.diff(rows[:, 2]) >= -1e-9):
            return ["non-monotone rate_curve"]
        return []

    def verify(self, rec: Recorder) -> None:
        pass


WORKLOADS = {w.name: w for w in (Pipeline, LargeVocab, Boundary)}
