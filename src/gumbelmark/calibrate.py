"""Critical-value computation and error trade-off curves.

Monte Carlo calibration draws null pivot series (i.i.d. uniforms), evaluates
the detector statistic, and takes the empirical (1 - alpha) quantile; the
procedure repeats ``outer`` times with fresh replications and averages the
round quantiles. Replications are evaluated in blocks: the rows of a
(rows, n) buffer are filled from their own substreams and the statistic is
taken over the whole block in one call. Each (outer, rep) pair still owns a
counter-based substream and each row is reduced on its own, so the critical
value is bit-identical to evaluating the replications one at a time.

Sum rules instead use the CLT threshold

    gamma = n * E0[h] + z(1 - alpha) * sqrt(n * Var0[h]).
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .detectors import Detector, ScoreKind, null_moments
from .streams import substream

# Uniforms per statistic call in mc_critical; larger blocks run no faster and
# hold more memory.
MC_BLOCK_VALUES = 4096


@dataclass(frozen=True)
class CalibrationResult:
    detector: dict
    n: int
    alpha: float
    critical_value: float
    reps: int
    outer: int
    seed: int

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CalibrationResult":
        return cls(**json.loads(text))

    def cache_key(self) -> str:
        """Stable disk-cache key over (detector, n, alpha, reps, outer, seed)."""
        ident = {k: v for k, v in self.__dict__.items() if k != "critical_value"}
        blob = json.dumps(ident, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def norm_quantile(p: float) -> float:
    """Standard normal quantile, accurate to well below 1e-9.

    A short rational approximation seeds two Newton corrections against the
    exact CDF (via erfc), so no special-function dependency is needed.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        # reflect into the lower tail, where erfc keeps full relative precision
        return -norm_quantile(1.0 - p)
    # Hastings-style seed, |error| < 5e-4
    t = math.sqrt(-2.0 * math.log(p))
    x = -(t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t))
    for _ in range(3):
        cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
        pdf = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        x -= (cdf - p) / pdf
    return x


def empirical_quantile(values: np.ndarray, level: float) -> float:
    """Type-1 (order statistic) quantile: sorted value at index ceil(level * N)."""
    v = np.sort(np.asarray(values, dtype=float))
    idx = max(math.ceil(level * v.size), 1) - 1
    return float(v[idx])


def mc_critical(
    detector: Detector,
    n: int,
    alpha: float,
    reps: int = 10_000,
    outer: int = 10,
    seed: int = 0,
) -> CalibrationResult:
    """Monte Carlo critical value: mean over outer rounds of the per-round
    empirical (1 - alpha) quantile of the null statistic.

    Replication r of round o draws its n uniforms from ``substream(seed, o, r)``.
    The statistic is evaluated on blocks of max(1, MC_BLOCK_VALUES // n)
    replications at a time, so ``detector.statistic`` must accept pivots of
    shape (rows, n).
    """
    n = int(n)
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if reps < 100:
        raise ValueError("need reps >= 100")
    if alpha * reps < 10:
        warnings.warn(
            f"alpha * reps = {alpha * reps:.1f} < 10: tail quantile estimate is unstable",
            stacklevel=2,
        )
    quantiles = np.empty(outer)
    stats = np.empty(reps)
    rows = max(1, MC_BLOCK_VALUES // n)
    block = np.empty((min(rows, reps), n))
    for o in range(outer):
        for start in range(0, reps, rows):
            chunk = block[: min(rows, reps - start)]
            for r, row in enumerate(chunk, start):
                substream(seed, o, r).random(out=row)
            stats[start : start + len(chunk)] = detector.statistic(chunk)
        quantiles[o] = empirical_quantile(stats, 1.0 - alpha)
    return CalibrationResult(
        detector=detector.to_config(),
        n=n,
        alpha=float(alpha),
        critical_value=float(quantiles.mean()),
        reps=int(reps),
        outer=int(outer),
        seed=int(seed),
    )


def clt_critical(kind: ScoreKind, n: int, alpha: float) -> float:
    """CLT threshold for a sum rule at Type I level alpha."""
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    mean, var = null_moments(kind)
    return n * mean + norm_quantile(1.0 - alpha) * math.sqrt(n * var)


def tradeoff_curve(stats_h0, stats_h1) -> np.ndarray:
    """Empirical (Type I, Type II) pairs swept over thresholds of the pooled sample.

    Rejecting means statistic >= threshold. As the threshold rises the Type I
    rate alpha is nonincreasing and the Type II rate beta nondecreasing; the
    curve is a step function with at most N0 + N1 + 1 distinct points.
    """
    s0 = np.asarray(stats_h0, dtype=float)
    s1 = np.asarray(stats_h1, dtype=float)
    if s0.size == 0 or s1.size == 0:
        raise ValueError("need samples under both hypotheses")
    thresholds = np.append(np.unique(np.concatenate([s0, s1])), np.inf)
    below0 = np.searchsorted(np.sort(s0), thresholds, side="left")
    below1 = np.searchsorted(np.sort(s1), thresholds, side="left")
    return np.column_stack([(s0.size - below0) / s0.size, below1 / s1.size])
