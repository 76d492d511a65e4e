"""Critical values, p-values and error trade-off curves.

This module is the one place that knows the null law of each detector.
``critical_value(detector, n, alpha)`` calibrates every detector and
``null_sf`` gives every p-value; ``Detector.fit`` and the CLI go through them.

The goodness-of-fit statistics are calibrated exactly. Under the null
{S_n^+(s) >= c} is the event that the uniform order statistics cross a
boundary fixed by (n, s, c); HC_n^+ = sqrt(2 n S_n^+(2)) takes the s = 2
law. ``null_sf`` is the one map from a detector to its boundary, and
``_crossing_law`` the one engine that gives the probability of such an
event: a sum of the nonnegative first-crossing masses of a Poisson counting
recursion, conditioned on the count of p-values below c+, so the tail is
accurate relative to its own size. ``critical_value`` solves null_sf =
alpha by Brent's method on log c in 7-9 passes of the recursion (14-20 ms at
n = 395 and c+ = 1/n on a 2-core Xeon, numpy and the stdlib only), memoised
per process on (detector, n, alpha): a separate CLI process pays them again.

Sum rules instead use the CLT threshold

    gamma = n * E0[h] + z(1 - alpha) * sqrt(n * Var0[h]).

Monte Carlo calibration (``mc_critical``), the test oracle for the exact
law, averages over ``outer`` rounds the empirical (1 - alpha) quantile of
the statistic on i.i.d. uniform null series. Each (outer, rep) pair owns a
counter-based substream, so the result does not depend on the order of the
replications.
"""

from __future__ import annotations

import functools
import math
import warnings
from statistics import NormalDist

import numpy as np

from ._validation import check_alpha, check_series_length
from .detectors import (
    Detector,
    HigherCriticism,
    SumScore,
    TrGoF,
    _k_s_plus_and_slope,
    _k_s_plus_terms,
    _t_over_n,
    null_moments,
)
from .streams import substream

# Exact null law: the most Newton rounds for the boundary, the rounding of
# K_s^+ (4 ulps, whose square root is the relative step at which the rounds
# stop), the least p they search, the mass below which a count leaves the
# band of the Poisson recursion, the Binomial weight of J = #{p < c+} below
# which a term is dropped, and the relative width at which the root-finder
# for the critical value stops.
BOUNDARY_STEPS = 60
NEWTON_RTOL = 2.0**-50
BOUNDARY_FLOOR = 1e-300
BAND_FLOOR = 1e-290
BINOMIAL_TAIL = 1e-20
CRITICAL_RTOL = 1e-10
CRITICAL_MEMO_SIZE = 4096  # the most critical values the memo holds


def mc_critical(
    detector: Detector,
    n: int,
    alpha: float,
    reps: int = 10_000,
    outer: int = 10,
    seed: int = 0,
) -> float:
    """Monte Carlo critical value: mean over outer rounds of the per-round
    order-statistic (1 - alpha) quantile of the null statistic.

    Replication r of round o draws its n uniforms from ``substream(seed, o, r)``
    and takes one ``detector.statistic`` call.
    """
    n, alpha = check_series_length(n), check_alpha(alpha)
    if reps < 100:
        raise ValueError("need reps >= 100")
    if alpha * reps < 10:
        warnings.warn(
            f"alpha * reps = {alpha * reps:.1f} < 10: tail quantile estimate is unstable",
            stacklevel=2,
        )
    quantiles = np.empty(outer)
    stats = np.empty(reps)
    rank = max(math.ceil((1.0 - alpha) * reps), 1) - 1
    for o in range(outer):
        for r in range(reps):
            stats[r] = detector.statistic(substream(seed, o, r).random(n))
        quantiles[o] = np.sort(stats)[rank]
    return float(quantiles.mean())


# ---------------------------------------------------------------------------
# exact null law of S_n^+(s) and HC_n^+
# ---------------------------------------------------------------------------

def _boundary(s: float, n: int, c: float) -> np.ndarray:
    """b_t(c) for t = 1 .. n: the largest p at which K_s^+(t/n, p) >= c, or 0
    when no p >= BOUNDARY_FLOOR does.

    K_s^+(t/n, p) is an f-divergence, convex and decreasing in p on (0, t/n)
    and 0 beyond, so the t-th term stays below c exactly when p_(t) > b_t. At
    s = 2, b_t is the smaller root of (t/n - p)**2 = 2c p (1 - p) in
    cancellation-free form. Other s start at or right of the root: with
    u = t/n, K_s^+ <= max(K_2^+, K_-1^+) and K_-1^+ = (u - p)**2 / (2 u (1 - u)),
    so the larger of the s = 2 root and u - sqrt(2c u (1 - u)) will do. With
    gap = u - p it misses the root by at most ~max(2 - s, s + 1) gap**2 /
    (6 u (1 - u)) (the third-order term of K_s^+ - K_2^+ or of K_s^+ - K_-1^+),
    and rounding of K_s^+, ~NEWTON_RTOL, moves the root by ~NEWTON_RTOL u
    (1 - u) / gap. At s >= 1/2 the start q then moves twice to
    ``_small_p_root``, within ~q / u relative of a root far below u (s >= 1),
    which the first start can miss by 1e10. A row keeps its start where the
    miss bound is below the rounding (every row with u < 1 at c below ~1e-11).
    Elsewhere it takes Newton's step on log K_s^+ against log p: log K_s^+ is
    concave in log p, so no step passes the root, and a step in log p cannot
    underflow to 0 at a tiny root. A row stops where K_s^+ >= c. Once every
    step is below sqrt(NEWTON_RTOL) of p, each point is within ~NEWTON_RTOL
    of its root (Newton's error squares), and one round takes each row still
    below c to the first of p and p - 1, 3, 7, ..., 63 ulps (floored at
    BOUNDARY_FLOOR) where K_s^+ >= c; a row with none steps on from the last.
    Every tolerance is relative to the root.
    """
    u = _t_over_n(n)
    d = 2.0 * c
    b = 2.0 * u * u / (2.0 * u + d + np.sqrt(d * (4.0 * u * (1.0 - u) + d)))
    if s == 2.0:
        return b
    w = u[:-1]
    b[:-1] = np.maximum(b[:-1], w - np.sqrt(d * w * (1.0 - w)))
    b[-1] = 1.0 / (1.0 + c * s) if s > 0.0 else 0.0  # u = 1, where K_s^+ is 0 for s <= 0
    if s >= 0.5:
        for _ in range(2):
            b = np.fmin(b, _small_p_root(u, b, s, c))
    b = np.where(_k_s_plus_terms(u, np.full(n, BOUNDARY_FLOOR), s) >= c, np.minimum(b, np.nextafter(u, 0.0)), 0.0)
    rows = np.flatnonzero((b > 0.0) & (max(2.0 - s, s + 1.0) * (u - b) ** 3 > 6.0 * NEWTON_RTOL * (u * (1.0 - u)) ** 2))
    u, p = u[rows], b[rows]
    ulps = np.exp2(np.arange(7)) - 1.0  # the walk below a point near the root: 0, 1, 3, 7, ..., 63 ulps
    for _ in range(BOUNDARY_STEPS):
        k, slope = _k_s_plus_and_slope(u, p, s)
        step = np.minimum(np.log(c / k) * k / slope, 0.0)  # 0 once K_s^+ >= c
        p = np.maximum(p * np.exp(step), BOUNDARY_FLOOR)
        if np.any(step < -math.sqrt(NEWTON_RTOL)):
            continue
        done = k >= c
        b[rows[done]] = p[done]
        rows, u, p = rows[~done], u[~done], p[~done]
        walk = np.maximum(p[:, None] - np.multiply.outer(np.spacing(p), ulps), BOUNDARY_FLOOR)
        hit = _k_s_plus_and_slope(u[:, None], walk, s, with_slope=False)[0] >= c
        found = hit.any(axis=1)
        b[rows[found]] = walk[found, hit[found].argmax(axis=1)]
        rows, u, p = rows[~found], u[~found], walk[~found, -1]
        if not rows.size:
            break
    else:
        b[rows] = p
    return b


def _small_p_root(u: np.ndarray, q: np.ndarray, s: float, c: float) -> np.ndarray:
    """For s >= 1/2 and q at or right of the root of K_s^+(u, p) = c, a point
    p <= q that is still at or right of it. K_s^+ = (u f(a) + (1 - u) f(b)) /
    (s (s - 1)) with f(x) = expm1((s - 1) x), a = log(u/p), b = log((1-u)/(1-p))
    (``_k_s_plus_and_slope``), and its (1 - u) part rises with p, so for p <= q
    it is at most that part at q: p solves u f(a) / (s (s - 1)) = c less that
    part, and at u = 1, where the part is 0, p is the root itself."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # c out of the u part's reach: 0 or NaN
        b = np.log1p((q - u) / (1.0 - q))
        rest = (1.0 - u) * (b if s == 1.0 else np.expm1((s - 1.0) * b) / (s * (s - 1.0)))
        y = c - np.where(u < 1.0, rest, 0.0)
        a = y / u if s == 1.0 else np.log1p(y * s * (s - 1.0) / u) / (s - 1.0)
        return u * np.exp(-a)


def _crossing_law(b: np.ndarray, c_plus: float) -> float:
    """P0(p_(t) <= b_t for some admissible t) for n = b.size i.i.d. U(0, 1)
    p-values, where J = #{p < c+} ~ Bin(n, c+) admits t >= max(J, 1). Given J
    the points below c+ are i.i.d. U(0, c+) and the n - J points above are
    i.i.d. U(c+, 1), independent of each other, so the event is that

    * the largest point below c+ is at most b_J (the t = J term), with
      probability (min(b_J, c+) / c+)**J, 0 at J = 0;
    * or else some point above c+, counted from the top, has p_(n-k) <=
      b_(n-k) for a k < n - J, boundaries free of J (``_upper_crossing``).

    Every term is nonnegative, so the sum is accurate relative to its own
    size. A J of Binomial weight below BINOMIAL_TAIL counts its second part as
    1, or as 0 when no b_t exceeds c+ and the points above c+ cannot cross:
    the sum exceeds the law's tail by at most the weight so dropped.

    b must be nondecreasing except that b_n may drop (TrGoF's t = n term is 0
    for s <= 0). Its running maximum gives the same event whenever the
    constraints include t = n - 1, i.e. for every J < n; J = n keeps the raw b_n.
    """
    n = b.size
    logfact = _log_factorials(n)
    if c_plus <= 0.0:
        j, log_w = np.zeros(1, dtype=int), np.zeros(1)
    elif c_plus >= 1.0:
        j, log_w = np.full(1, n), np.zeros(1)
    else:
        j = np.arange(n + 1)
        log_w = logfact[n] - logfact[j] - logfact[n - j] + j * math.log(c_plus) + (n - j) * math.log1p(-c_plus)
    b_run = np.maximum.accumulate(b)
    below, first, some = np.zeros(j.size), np.ones(j.size), j >= 1
    if some.any():
        b_j = np.append(b_run[:-1], b[-1])[j[some] - 1]
        with np.errstate(divide="ignore"):
            log_cdf = j[some] * np.log(np.minimum(b_j, c_plus) / c_plus)
        below[some], first[some] = np.exp(log_cdf), -np.expm1(log_cdf)
    upper = np.full(n + 1, float(b_run[-1] > c_plus))
    m = n - j[log_w > math.log(BINOMIAL_TAIL)]
    upper[m] = _upper_crossing(b_run, c_plus, m, logfact)
    return float(np.sum(np.exp(log_w) * (below + first * upper[n - j])))


@functools.lru_cache(maxsize=8)
def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0..n, read-only: built once per series length."""
    logfact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    logfact.flags.writeable = False
    return logfact


def _upper_crossing(b_run: np.ndarray, c_plus: float, m: np.ndarray, logfact: np.ndarray) -> np.ndarray:
    """P(p_(n-k) <= b_(n-k) for some k < m) for m i.i.d. U(c+, 1) points, at
    each entry of the array m.

    With x = (1 - p) / (1 - c+) the points are U(0, 1) and the event reads
    x_(k+1) >= a_k = (1 - b_(n-k)) / (1 - c+) for some k < m, with a_k
    nondecreasing. Embed the points in a Poisson process N of rate
    lam = n (1 - c+), the expected count above c+: the event first happens at
    k when N(a_i) >= i + 1 for i < k and N(a_k) = k, and given N(1) = m > k the
    other m - k points fall in (a_k, 1]. One forward pass carries the law of
    N(a_k) on the event's complement so far, convolving with the
    Poisson(lam (a_k - a_(k-1))) increment, and takes out drop_k, its mass at
    count k. Then

        P(cross | m) = sum over k < m of drop_k Pois(m - k; lam (1 - a_k)) / Pois(m; lam),

    whose terms are nonnegative and taken from one exp over a (m.size, max m)
    table of logs. The increment law is cut at int(mu + 9 sqrt(mu)) + 13,
    beyond which its tail mass is below 1e-19 for every mean mu up to 40
    (7.5e-20 at most; + 12 would leave 2.1e-19). Mass only moves up, so a jump
    so dropped reaches a later drop_k only through that many steps without
    an arrival. The kernels of steps 1 .. max m - 1 come from one exp over a
    table as wide as the widest, each row running from the top count down, so
    that a step is one correlation of the band with its row (step 0, with
    mean up to ~40, is its own band); each step convolves only the counts up
    to the last one with mass above BAND_FLOOR.
    """
    m_max = int(m.max())
    if m_max == 0:
        return np.zeros(m.size)
    lam = b_run.size * (1.0 - c_plus)
    r = np.maximum((b_run[::-1][:m_max] - c_plus) / (1.0 - c_plus), 0.0)  # 1 - a_k, exact for tiny b
    mu = lam * -np.diff(r, prepend=1.0)
    width = np.minimum(np.arange(m_max, 0, -1), (mu + 9.0 * np.sqrt(mu)).astype(int) + 13)
    # math.log, not np.log, so that each kernel is bit-identical to exp of its own row
    log_mu = [math.log(x) if x > 0.0 else 0.0 for x in mu.tolist()]
    w = int(width[1:].max(initial=0)) + 1
    counts = np.arange(w - 1, -1, -1)  # each kernel row runs from count w - 1 down to 0
    kernels = np.multiply.outer(log_mu[1:], counts)
    kernels -= mu[1:, None]
    kernels -= logfact[counts]
    np.exp(kernels, out=kernels)
    band = np.ones(1)  # law of N(a_(k-1)) on no crossing so far, over the counts k, k + 1, ...
    drop = np.zeros(m_max)  # P(N(a_k) = k with no crossing before k)
    for k, (step, wk) in enumerate(zip(mu.tolist(), width.tolist())):
        if step > 0.0 and band.size:
            if k:
                band = np.correlate(band, kernels[k - 1, w - 1 - wk:], "full")[: m_max + 1 - k]
            else:  # the first step, from the count 0, is its own kernel
                band = np.exp(np.arange(wk + 1) * log_mu[0] - step - logfact[: wk + 1])
            if band[-1] <= BAND_FLOOR:
                band = band[: band.size - (band[::-1] > BAND_FLOOR).argmax()]
        drop[k] = band[0] if band.size else 0.0
        band = band[1:]
    k = np.arange(m_max)
    rest = m[:, None] - k  # the points above a_k
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.log(drop) + lam * (1.0 - r) - k * math.log(lam) + rest * np.log(r) + logfact[m, None] - logfact[rest]
    terms[rest <= 0] = -np.inf
    return np.exp(terms).sum(axis=1)


def null_sf(detector: Detector, n: int, c: float) -> float:
    """P0(statistic >= c) for a length-n null series, the p-value of an
    observed statistic c: the CLT normal tail for a SumScore, else the exact
    law (``_crossing_law``), an upper bound within the Binomial mass it drops.
    {S_n^+(s) >= c} is {p_(t) <= b_t(c) for some admissible t} (``_boundary``),
    and HC_n^+ > 0 with {HC >= c} = {n S_n^+(2) >= c**2 / 2} for c > 0.
    """
    n, c = check_series_length(n), float(c)
    if isinstance(detector, SumScore):
        mean, var = null_moments(detector.kind)
        return 0.5 * math.erfc((c - n * mean) / math.sqrt(2.0 * n * var))
    if isinstance(detector, HigherCriticism):
        s, c = 2.0, c * abs(c) / (2.0 * n)  # keeps the sign of c, so c <= 0 still reads 1
    elif isinstance(detector, TrGoF):
        s = detector.s
    else:
        raise TypeError(f"no exact null law for {type(detector).__name__}")
    if c <= 0.0:
        return 1.0
    return min(_crossing_law(_boundary(s, n, c), detector.c_plus), 1.0)


def critical_value(detector: Detector, n: int, alpha: float) -> float:
    """The critical value of ``detector`` for length-n null series at Type I
    level alpha: the c with null_sf(detector, n, c) = alpha.

    A SumScore takes the CLT threshold in closed form, with z(1 - alpha) =
    -z(alpha) from the standard library's normal inverse CDF, so that 1 - alpha
    is never rounded and any alpha in (0, 1) solves (n >= 1).

    TrGoF takes the exact law, at every n >= 1. The root is bracketed by factors of
    8 from 1/n, the statistic's null scale, then narrowed by Brent's method
    on g(log c) = log(null_sf / alpha) (inverse quadratic steps, bisection
    safeguard, no step below CRITICAL_RTOL / 2) until the bracket is
    narrower than CRITICAL_RTOL of its upper end; the end with null_sf <
    alpha is returned. An alpha below null_sf at 8**21 = 2**63 times 1/n,
    the least alpha the law solves (~2e-20 at n = 30 and c+ = 1/n), has no
    bracket: ValueError. If null_sf < alpha even at 8**-21 / n, that point
    is returned. HigherCriticism takes TrGoF(2, c+)'s value c2 as
    sqrt(2 n c2), rounded up until null_sf maps it back to at least c2, so
    the two share one solve. Memoised per process.
    """
    n, alpha = check_series_length(n), check_alpha(alpha)
    if isinstance(detector, HigherCriticism):
        crit = _critical_value(TrGoF(2.0, detector.c_plus), n, alpha)
        c = math.sqrt(2.0 * n * crit)
        while c * c / (2.0 * n) < crit:  # null_sf's map back to the s = 2 scale must reach crit
            c = math.nextafter(c, math.inf)
        return c
    return _critical_value(detector, n, alpha)


@functools.lru_cache(maxsize=CRITICAL_MEMO_SIZE)
def _critical_value(detector: Detector, n: int, alpha: float) -> float:
    """``critical_value`` past its guards; a solve that raises is not memoised."""
    if isinstance(detector, SumScore):
        mean, var = null_moments(detector.kind)
        return n * mean - NormalDist().inv_cdf(alpha) * math.sqrt(n * var)
    log_alpha = math.log(alpha)

    def excess(x: float) -> float:
        return math.log(max(null_sf(detector, n, math.exp(x)), 1e-300)) - log_alpha

    x_cur = -math.log(n)
    g_cur = excess(x_cur)
    down = g_cur < 0.0
    for _ in range(21):
        x_pre, g_pre = x_cur, g_cur
        x_cur += -math.log(8.0) if down else math.log(8.0)
        g_cur = excess(x_cur)
        if (g_cur < 0.0) != down:
            break
    if g_cur >= 0.0 and not down:
        raise ValueError(f"alpha = {alpha!r} lies below the accuracy of the exact null law at n = {n}: "
                         f"the least alpha is {alpha * math.exp(g_cur):.3g}")
    # Brent-Dekker in x = log c: x_cur is the best point, x_blk the other end
    # of the bracket (the first pass takes x_pre), x_pre the point before x_cur
    x_blk, g_blk = x_cur, g_cur
    delta = 0.5 * CRITICAL_RTOL
    while True:
        if (g_pre < 0.0) != (g_cur < 0.0):
            x_blk, g_blk, s_pre, s_cur = x_pre, g_pre, x_cur - x_pre, x_cur - x_pre
        if abs(g_blk) < abs(g_cur):
            x_pre, g_pre, x_cur, g_cur, x_blk, g_blk = x_cur, g_cur, x_blk, g_blk, x_cur, g_cur
        if abs(math.exp(x_blk) - math.exp(x_cur)) <= CRITICAL_RTOL * math.exp(max(x_blk, x_cur)):
            break
        s_bis = 0.5 * (x_blk - x_cur)
        interpolate = abs(s_pre) > delta and abs(g_cur) < abs(g_pre)
        if interpolate:
            if x_pre == x_blk:  # secant
                s_try = -g_cur * (x_cur - x_pre) / (g_cur - g_pre)
            else:  # inverse quadratic
                d_pre, d_blk = (g_pre - g_cur) / (x_pre - x_cur), (g_blk - g_cur) / (x_blk - x_cur)
                s_try = -g_cur * (g_blk * d_blk - g_pre * d_pre) / (d_blk * d_pre * (g_blk - g_pre))
            interpolate = 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta)
        s_pre, s_cur = (s_cur, s_try) if interpolate else (s_bis, s_bis)
        x_pre, g_pre = x_cur, g_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        g_cur = excess(x_cur)
    return math.exp(x_cur if g_cur < 0.0 else x_blk)


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
