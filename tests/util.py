"""Shared test helpers: KS distance and its analytic critical value, the
order-statistic quantile, the least-favorable distribution as a vector,
Higher Criticism by its own formula, K_s^+ by the detectors' kernel and in
50-digit decimal arithmetic, the earlier exact critical-value solver as an
oracle, the exact law's boundary by bisection on log p, and a counter of
exact-law passes."""

import decimal
import math

import numpy as np

from gumbelmark import HigherCriticism, calibrate, null_sf
from gumbelmark.calibrate import CRITICAL_RTOL
from gumbelmark.detectors import _k_s_plus_terms
from gumbelmark.tokensource import least_favorable_atoms


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


def empirical_quantile(values, level: float) -> float:
    """Type-1 (order statistic) quantile: the sorted value at rank ceil(level * N)."""
    v = np.sort(np.asarray(values, dtype=float))
    return float(v[max(math.ceil(level * v.size), 1) - 1])


def least_favorable(delta: float) -> np.ndarray:
    """The least-favorable distribution with singularity delta as one entry
    per atom, largest first: ``least_favorable_atoms`` expanded."""
    vals, counts = least_favorable_atoms(delta)
    return np.repeat(vals[::-1], counts[::-1].astype(int))


def hc_reference(p, c_plus: float) -> float:
    """HC_n^+ of one p-value series by its own formula: the max over the
    admissible t (p_(t+1) >= c_plus, with p_(n+1) = 1) of
    sqrt(n) (t/n - p_(t)) / sqrt(p_(t) (1 - p_(t)))."""
    ps = np.sort(np.asarray(p, dtype=float))
    n = ps.size
    admissible = np.append(ps[1:] >= c_plus, True)
    terms = math.sqrt(n) * (np.arange(1, n + 1) / n - ps) / np.sqrt(ps * (1.0 - ps))
    return float(terms[admissible].max())


def k_s_plus(u, v, s: float):
    """K_s^+(u, v) by the detectors' kernel: a float for scalars, an array otherwise."""
    k = _k_s_plus_terms(np.asarray(u, dtype=float), np.asarray(v, dtype=float), s)
    return float(k) if k.ndim == 0 else k


def k_s_decimal(u: float, v: float, s: float) -> float:
    """K_s(u, v) for 0 < v < u <= 1 from the float inputs taken exactly, in
    50-digit decimal arithmetic with x**y = exp(y ln x): (1 - u**s v**(1-s)
    - (1-u)**s (1-v)**(1-s)) / (s (1 - s)), and at s = 0 and s = 1 the two
    Bernoulli KL divergences. At u = 1 the (1-u) term is 0 (s > 0 only)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        u_, v_, s_ = decimal.Decimal(u), decimal.Decimal(v), decimal.Decimal(s)

        def power(x, y):
            return (y * x.ln()).exp() if x > 0 else decimal.Decimal(0)

        if s == 1.0:
            k = u_ * (u_ / v_).ln() + ((1 - u_) * ((1 - u_) / (1 - v_)).ln() if u_ < 1 else 0)
        elif s == 0.0:
            k = v_ * (v_ / u_).ln() + (1 - v_) * ((1 - v_) / (1 - u_)).ln()
        else:
            k = (1 - power(u_, s_) * power(v_, 1 - s_) - power(1 - u_, s_) * power(1 - v_, 1 - s_)) / (s_ * (1 - s_))
        return float(k)


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


def log_bisection_boundary(s, n, c):
    """Reference boundary: b_t, the largest p in [1e-300, t/n) with
    K_s^+(t/n, p) >= c, or 0 where K_s^+(t/n, 1e-300) < c. Each row halves
    [lo, hi] on the log scale, at the geometric mean lo sqrt(hi / lo), until
    no float lies strictly between, so a root of any size is fixed to a few
    ulps relative to itself and lo keeps K_s^+ >= c."""
    u = np.arange(1, n + 1) / n
    lo, hi = np.full(n, 1e-300), u.copy()
    some = _k_s_plus_terms(u, lo, s) >= c
    for _ in range(2000):
        mid = lo * np.sqrt(hi / lo)
        inside = (mid > lo) & (mid < hi)
        if not inside.any():
            break
        hit = _k_s_plus_terms(u, np.where(inside, mid, lo), s) >= c
        lo, hi = np.where(inside & hit, mid, lo), np.where(inside & ~hit, mid, hi)
    return np.where(some, lo, 0.0)


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
