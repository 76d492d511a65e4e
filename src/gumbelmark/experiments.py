"""Synthetic studies: mixture sampling, statistic histograms, detection
boundary grids, and expectation-gap validation.

The mixture protocol draws n i.i.d. uniform pivots, then replaces the first
ceil(n * eps_n) entries with draws from the watermarked pivot law (eps_n =
n**-p, singularity delta_n = n**-q). Replaced entries occupy a fixed prefix:
every detector considered depends only on the multiset of values, so prefix
placement is equivalent to random placement. Each trial owns a substream, so
grids parallelize deterministically.

One loop, ``_trial_statistics``, scores the trials of every study. Because a
mixture equals its null past the first k entries, it scores each trial's pair
once per sum rule: the score vector of the clipped null gives the null sum,
and the same vector with its first k entries rescored gives the mixture sum,
bit for bit ``SumScore.statistic`` of each series. The goodness-of-fit
statistics rank the whole series and share no work between the two.
What a cell fixes is built once, not per trial: its detectors
(``BoundarySpec.detector``), the m2 law's sampling table (``_m2_table``) and
the statistics' t/n grid (``detectors._t_over_n``). An m1 law is built only for
a signal draw that reaches its tail: a draw below the shared top probability
takes token 0 whatever the tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._validation import check_series_length, check_vocab_size
from .calibrate import tradeoff_curve
from .detectors import Detector, ScoreKind, SumScore, TrGoF, _score_terms, score
from .pivotal import PivotSeries, _grouped, _grouped_log_pdf, _grouped_pdf, _null_expectation, alt_cdf, alt_sample
from .pivotal import _clip, _sampling_table, _table_sample
from .streams import child_seed, substream
from .tokensource import M1_A_RANGE, M1_B_RANGE, entropy_of, least_favorable_atoms, m1_rows, make_m2

NTP_MODES = ("m1", "m2")

# Probabilities per block of m1 laws in sample_mixture: each (rows, V) float
# temporary holds at most 128 KiB (one row if V is larger) however large
# k * V grows. Once _keep_freed_heap has run, blocks of 1 << 14 to 1 << 17
# values take the same time within noise on an m1 cell with k = 1000 at
# V = 1000.
M1_BLOCK_VALUES = 1 << 14

# Critical-value grids (a, b, K) that min_error_cell no longer reads: it
# sweeps the pooled sample exactly. They and BoundarySpec.crit_grid remain only
# because perfbench/ imports them, so its experiments.thresholds_evaluated
# counter overstates the thresholds evaluated (at most 2 N + 1 per spec).
TRGOF_CRIT_GRID = (0.0, 30.0, 1000)
SUM_CRIT_GRIDS = {
    "ars": (8.0, 60.0, 1000),
    "log": (-20.0, 0.0, 1000),
    "ind": (-10.0, 10.0, 1000),
    "opt": (-10.0, 10.0, 1000),
}


@dataclass(frozen=True)
class MixtureConfig:
    n: int
    p: float
    q: float
    vocab_size: int
    ntp_mode: str = "m2"
    trials: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"need trials >= 1, got {self.trials}")
        if not 0.0 <= self.p <= 1.0 or not 0.0 <= self.q <= 1.0:
            raise ValueError("exponents p, q must lie in [0, 1]")
        if self.ntp_mode not in NTP_MODES:
            raise ValueError(f"ntp mode must be one of {NTP_MODES}")
        check_vocab_size(self.vocab_size)  # n >= 2 and V >= 2 before the floor divides by their logs
        if self.q < self.q_floor - 1e-12:
            raise ValueError(
                f"q = {self.q} below log_n(V/(V-1)) = {self.q_floor:.6f}: "
                "top probability would drop under 1/V"
            )

    @property
    def q_floor(self) -> float:
        """log_n(V/(V-1)): below this q the top probability 1 - n**-q drops under 1/V."""
        return math.log(self.vocab_size / (self.vocab_size - 1)) / math.log(self.n)

    @property
    def eps(self) -> float:
        return self.n ** (-self.p)

    @property
    def delta(self) -> float:
        return self.n ** (-self.q)

    @property
    def n_signal(self) -> int:
        return math.ceil(self.n * self.eps)


@functools.lru_cache(maxsize=16)
def _m2_table(delta: float, vocab_size: int) -> tuple[np.ndarray, ...]:
    """``alt_sample``'s table of ``make_m2(delta, vocab_size)``, read-only."""
    table = _sampling_table(make_m2(delta, vocab_size))
    for a in table:
        a.flags.writeable = False
    return table


def sample_mixture(cfg: MixtureConfig, rng: np.random.Generator) -> tuple[PivotSeries, PivotSeries]:
    """One mixture draw and its null companion (same tail entries).

    Returns (mixture series, null series): the mixture replaces the first
    k = ceil(n * eps) entries of the null draw with watermarked-pivot samples.
    The stream holds the n null uniforms, the k signal uniforms and, in m1, a
    (k, 2) block of uniforms for the Zipf-tail shapes (a, b): the n + 3k values,
    in order, that k ``make_m1`` calls would take. Every m1 law has 1 - delta
    at token 0, so a signal uniform below it draws token 0 whatever the tail,
    from the two-token block (1 - delta, delta), bit for bit the draw from its
    full row. Only the other draws build their laws, M1_BLOCK_VALUES // V at a
    time, so memory does not grow with k * V.
    """
    y0 = rng.random(cfg.n)
    y1 = y0.copy()
    k = cfg.n_signal
    if cfg.ntp_mode == "m2":
        y1[:k] = _table_sample(_m2_table(cfg.delta, cfg.vocab_size), rng.random(k))
    else:
        u = rng.random(k)
        lo, hi = np.transpose((M1_A_RANGE, M1_B_RANGE))
        shapes = lo + (hi - lo) * rng.random((k, 2))  # (a, b) rows by rng.uniform's arithmetic
        top = 1.0 - cfg.delta  # entry 0 of every m1 law, as m1_rows writes it
        head, tail = np.flatnonzero(u < top), np.flatnonzero(u >= top)
        if head.size:
            y1[head] = alt_sample(np.broadcast_to([top, cfg.delta], (head.size, 2)), u[head])
        step = max(1, M1_BLOCK_VALUES // cfg.vocab_size)
        for i in range(0, tail.size, step):
            block = tail[i:i + step]
            y1[block] = alt_sample(m1_rows(cfg.delta, cfg.vocab_size, shapes[block]), u[block])
    return PivotSeries.from_y(y1), PivotSeries.from_y(y0)


_C_PLUS_RULES = {"0": lambda n: 0.0, "1/n": lambda n: 1.0 / n, "1/n2": lambda n: 1.0 / n**2}


def resolve_c_plus(rule, n: int) -> float:
    """Map a stability-parameter rule (a name in ``_C_PLUS_RULES`` or a number) to a value."""
    if isinstance(rule, (int, float)):
        return float(rule)
    if rule not in _C_PLUS_RULES:
        raise ValueError(f"unknown c_plus rule {rule!r}")
    return _C_PLUS_RULES[rule](check_series_length(n))


# ---------------------------------------------------------------------------
# the mixture trials, and the studies that reduce them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundarySpec:
    """One named detector of a boundary study, which ``detector`` builds at each series length."""

    name: str
    kind: str  # 'trgof' | 'sum'
    s: float = 2.0
    c_plus_rule: str | float = "1/n"
    score_kind: ScoreKind | None = None
    crit_grid: tuple[float, float, int] = TRGOF_CRIT_GRID  # not read; see SUM_CRIT_GRIDS

    def __post_init__(self):
        self.detector(1)  # a value it refuses fails here: each c_plus rule is in [0, 1] at every n if at n = 1

    def detector(self, n: int) -> Detector:
        """The detector of this spec for series of length n."""
        if self.kind == "trgof":
            return TrGoF(s=self.s, c_plus=resolve_c_plus(self.c_plus_rule, n))
        if self.kind == "sum":
            return SumScore(kind=self.score_kind)
        raise ValueError("kind must be 'trgof' or 'sum'")


@functools.cache
def _keep_freed_heap() -> None:
    """Allocate and free one 16 MiB block, once per process, whose pages are
    never touched. Under glibc, freeing an mmapped block raises the dynamic
    M_MMAP_THRESHOLD to its size and M_TRIM_THRESHOLD to twice that
    (mallopt(3)). Without it, the trials' ~80 KB temporaries at n = 1e4 are
    freed at the heap top, trimmed back to the OS and faulted in again on every
    statistic, which runs ~2x slower. A block of 32 MiB or more does nothing:
    it is above DEFAULT_MMAP_THRESHOLD_MAX."""
    np.empty(1 << 21)


def _trial_statistics(cfg: MixtureConfig, detectors: dict) -> dict[object, tuple[np.ndarray, np.ndarray]]:
    """Key -> (null statistics, mixture statistics) of each detector in ``detectors``
    over the trials of ``cfg``; each scores trial t's pair from ``substream(cfg.seed, t)``."""
    _keep_freed_heap()
    stats = {key: (np.empty(cfg.trials), np.empty(cfg.trials)) for key in detectors}
    k = cfg.n_signal
    for t in range(cfg.trials):
        mix, null = sample_mixture(cfg, substream(cfg.seed, t))
        y0, y1_head = _clip(null.y), _clip(mix.y[:k])
        for key, det in detectors.items():
            s0, s1 = stats[key]
            if isinstance(det, SumScore):  # its statistic of both series, rescoring only the k entries they differ in
                h = _score_terms(y0, det.kind)
                s0[t] = h.sum()
                h[:k] = _score_terms(y1_head, det.kind)
                s1[t] = h.sum()
            else:
                s0[t], s1[t] = det.statistic(null), det.statistic(mix)
    return stats


@dataclass(frozen=True)
class HistogramStudy:
    samples: dict  # (s, 'H0'|'H1') -> log(n S) array
    power: dict  # s -> power at alpha


def histogram_study(cfg: MixtureConfig, detectors, alpha: float = 0.05) -> HistogramStudy:
    """Samples of log(n * S_n_plus(s)) of each ``TrGoF`` under both hypotheses,
    keyed by its s, plus the power at level alpha: the share of mixture
    statistics at or above ``det.fit(n, alpha).threshold``, solved before any
    trial runs so that an alpha it refuses fails fast. Equal detectors count once."""
    detectors = dict.fromkeys(detectors)
    fitted = {det.s: det.fit(cfg.n, alpha) for det in detectors}
    if len(fitted) < len(detectors):
        raise ValueError("the study is keyed by s: detectors at the same s must be equal")
    stats = _trial_statistics(cfg, fitted)
    samples, power = {}, {}
    for s, det in fitted.items():
        s0, s1 = stats[s]
        with np.errstate(divide="ignore"):
            samples[(s, "H0")], samples[(s, "H1")] = np.log(cfg.n * s0), np.log(cfg.n * s1)
        power[s] = float((s1 >= det.threshold).mean())
    return HistogramStudy(samples, power)


def min_error_cell(cfg: MixtureConfig, specs: list[BoundarySpec]) -> dict[str, float]:
    """Smallest Type I + Type II error of each spec, all specs evaluated on
    the same trial samples.

    The minimum runs over the exact threshold sweep of the pooled null and
    mixture statistics (``tradeoff_curve``): the empirical errors change only
    at sample values, so no threshold can do better than the best of these
    at most 2 N + 1 candidates.
    """
    stats = _trial_statistics(cfg, {sp.name: sp.detector(cfg.n) for sp in specs})
    return {name: float(tradeoff_curve(s0, s1).sum(axis=1).min()) for name, (s0, s1) in stats.items()}


def boundary_grid(p_values, q_values, specs: list[BoundarySpec], *, n: int, vocab_size: int,
                  ntp_mode: str = "m2", trials: int = 200, seed: int = 0) -> list[dict]:
    """Min error sums over the (p, q) grid; rows of {p, q, name, min_error_sum}.
    Cell (i, j) draws its trials under ``child_seed(seed, i, j)``."""
    rows = []
    for pi, p in enumerate(p_values):
        for qi, q in enumerate(q_values):
            cfg = MixtureConfig(n=n, p=p, q=q, vocab_size=vocab_size, ntp_mode=ntp_mode, trials=trials,
                                seed=child_seed(seed, pi, qi))
            for name, err in min_error_cell(cfg, specs).items():
                rows.append({"p": p, "q": q, "name": name, "min_error_sum": err})
    return rows


# ---------------------------------------------------------------------------
# expectation-gap validation
# ---------------------------------------------------------------------------

PI2_OVER_6_MINUS_1 = math.pi**2 / 6.0 - 1.0


def analytic_gap_bounds(probs, kind: ScoreKind) -> tuple[float, float]:
    """Lower/upper bounds (equal when exact) for E1[h] - E0[h] given the NTP vector."""
    probs = np.asarray(probs, dtype=float)
    if kind.name == "ars":
        ent = entropy_of(probs)
        return PI2_OVER_6_MINUS_1 * ent, ent
    if kind.name == "log":
        g = 1.0 - float((probs**2).sum())
        return g, g
    if kind.name == "ind":
        g = kind.param - alt_cdf(probs, kind.param)
        return g, g
    # opt: no displayed closed form; integrate h (f1 - 1) under the null
    vals0, counts0 = least_favorable_atoms(kind.param)
    vals1, counts1 = _grouped(probs)
    g = _null_expectation(
        lambda y: _grouped_log_pdf(vals0, counts0, y) * (_grouped_pdf(vals1, counts1, y) - 1.0))
    return g, g


@dataclass(frozen=True)
class GapCheckRow:
    score: str
    gap_mc: float
    se: float
    lower: float
    upper: float
    passed: bool


def entropy_gap_check(probs, kinds, trials: int, seed: int = 0) -> list[GapCheckRow]:
    """Monte Carlo E1[h] - E0[h] against the analytic expressions.

    PASS means the MC gap lies within [lower - 4 se, upper + 4 se].
    """
    rng = substream(seed, 0)
    y1 = alt_sample(probs, rng.random(trials))
    y0 = _clip(rng.random(trials))
    rows = []
    for kind in kinds:
        h1 = score(y1, kind)
        h0 = score(y0, kind)
        gap = float(h1.mean() - h0.mean())
        se = float(math.sqrt(h1.var() / trials + h0.var() / trials))
        lo, hi = analytic_gap_bounds(probs, kind)
        rows.append(
            GapCheckRow(
                score=kind.label(), gap_mc=gap, se=se, lower=lo, upper=hi,
                passed=(lo - 4 * se) <= gap <= (hi + 4 * se),
            )
        )
    return rows
