"""Shared test helpers: KS distance and its analytic critical value, Higher
Criticism by its own formula, the earlier exact critical-value solver as an
oracle, and a counter of exact-law passes."""

import math

import numpy as np

from gumbelmark import HigherCriticism, calibrate, null_sf
from gumbelmark.calibrate import CRITICAL_RTOL


def ks_distance(samples, cdf=None) -> float:
    """Two-sided KS distance of a sample against a CDF (uniform by default)."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    f = cdf(x) if cdf is not None else x
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return float(max(upper, lower))


def ks_critical(n: int, level: float) -> float:
    """Asymptotic two-sided critical value: sqrt(-log(level / 2) / 2) / sqrt(n)."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(n)


def hc_reference(p, c_plus: float) -> float:
    """HC_n^+ of one p-value series by its own formula: the max over the
    admissible t (p_(t+1) >= c_plus, with p_(n+1) = 1) of
    sqrt(n) (t/n - p_(t)) / sqrt(p_(t) (1 - p_(t)))."""
    ps = np.sort(np.asarray(p, dtype=float))
    n = ps.size
    admissible = np.append(ps[1:] >= c_plus, True)
    terms = math.sqrt(n) * (np.arange(1, n + 1) / n - ps) / np.sqrt(ps * (1.0 - ps))
    return float(terms[admissible].max())


def illinois_critical(detector, n: int, alpha: float) -> float:
    """Reference critical value by the earlier solver: double from the null
    scale (1/n for TrGoF, 1 for HC) until null_sf < alpha, then narrow by the
    Illinois variant of regula falsi on log(null_sf / alpha) until the
    bracket is narrower than CRITICAL_RTOL of its upper end; returns that
    upper end."""
    log_alpha = math.log(alpha)

    def excess(c: float) -> float:
        return math.log(max(null_sf(detector, n, c), 1e-300)) - log_alpha

    lo, g_lo, hi = 0.0, -log_alpha, 1.0 if isinstance(detector, HigherCriticism) else 1.0 / n
    for _ in range(64):
        g_hi = excess(hi)
        if g_hi < 0.0:
            break
        lo, g_lo, hi = hi, g_hi, 2.0 * hi
    else:
        raise ValueError("no bracket")
    side = 0
    for _ in range(200):
        if hi - lo <= CRITICAL_RTOL * hi:
            break
        c = (lo * g_hi - hi * g_lo) / (g_hi - g_lo)
        if not lo < c < hi:
            c = 0.5 * (lo + hi)
        g = excess(c)
        if g >= 0.0:
            lo, g_lo = c, g
            if side == 1:
                g_hi *= 0.5
            side = 1
        else:
            hi, g_hi = c, g
            if side == -1:
                g_lo *= 0.5
            side = -1
    return hi


def count_law_passes(monkeypatch) -> list[int]:
    """Count the evaluations of the exact null law (calls of
    ``calibrate._crossing_law``) from now on, in the one entry of the
    returned list."""
    passes = [0]
    crossing_law = calibrate._crossing_law

    def counted(b, c_plus):
        passes[0] += 1
        return crossing_law(b, c_plus)

    monkeypatch.setattr(calibrate, "_crossing_law", counted)
    return passes
