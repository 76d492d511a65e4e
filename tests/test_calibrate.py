import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import ndtri

from gumbelmark import (
    ARS,
    LOG,
    HigherCriticism,
    SumScore,
    TrGoF,
    critical_value,
    ind,
    mc_critical,
    null_sf,
    opt,
    tradeoff_curve,
)
from gumbelmark import calibrate
from gumbelmark.calibrate import (
    BINOMIAL_TAIL,
    CRITICAL_RTOL,
    MC_BLOCK_VALUES,
    _boundary,
    _crossing_law,
    _upper_crossing,
    empirical_quantile,
)
from gumbelmark.detectors import S_BRANCH_TOL, Detector, _k_s_plus_terms
from gumbelmark.streams import substream

from util import count_law_passes, illinois_critical


def per_rep_critical(detector, n, alpha, reps, outer, seed):
    """Reference calibration: one statistic call per replication, one
    substream per (outer, rep), mean of the per-round quantiles."""
    quantiles = np.empty(outer)
    stats = np.empty(reps)
    for o in range(outer):
        for r in range(reps):
            stats[r] = detector.statistic(substream(seed, o, r).random(n))
        quantiles[o] = empirical_quantile(stats, 1.0 - alpha)
    return float(quantiles.mean())


def bisection_boundary(s, n, c, steps=60):
    """Reference boundary: the largest p in (0, t/n) with K_s^+(t/n, p) >= c
    by bisection, each interval shrinking to 2**-steps of its width."""
    u = np.arange(1, n + 1) / n
    lo, hi = np.zeros(n), u.copy()
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        hit = _k_s_plus_terms(u, mid, s) >= c
        lo = np.where(hit, mid, lo)
        hi = np.where(hit, hi, mid)
    return lo


def per_step_upper_no_crossing(b_run, c_plus, m_max, logfact):
    """Reference Poisson recursion: one exp per step for its increment kernel,
    and the whole count vector convolved at every step."""
    out = np.ones(m_max + 1)
    if m_max == 0:
        return out
    lam = b_run.size * (1.0 - c_plus)
    a = np.minimum((1.0 - b_run[::-1][:m_max]) / (1.0 - c_plus), 1.0)
    f = np.zeros(m_max + 1)
    f[0] = 1.0
    last = np.empty(m_max)
    a_prev = 0.0
    for k in range(m_max):
        mu = lam * (a[k] - a_prev)
        if mu > 0.0:
            width = min(m_max - k, int(mu + 9.0 * math.sqrt(mu)) + 20)
            i = np.arange(width + 1)
            kernel = np.exp(i * math.log(mu) - mu - logfact[: width + 1])
            f[k:] = np.convolve(f[k:], kernel)[: m_max + 1 - k]
            a_prev = a[k]
        last[k] = f[k + 1]
    m = np.arange(1, m_max + 1)
    with np.errstate(divide="ignore"):
        out[1:] = np.exp(np.log(last) + lam * a - m * math.log(lam) + logfact[1 : m_max + 1])
    return out


class TestCltCritical:
    def test_ars_400(self):
        # 400 + z(0.99) * 20 with z(0.99) = 2.3263478740408408
        assert critical_value(SumScore(ARS), 400, 0.01) == pytest.approx(446.5269574808168, abs=1e-6)

    def test_alpha_half_is_null_mean(self):
        assert critical_value(SumScore(ARS), 250, 0.5) == pytest.approx(250.0, abs=1e-12)

    def test_against_scipy(self):
        # ars at n = 1 has mean and variance 1, so the threshold minus 1 is z(1 - alpha)
        alphas = np.concatenate([
            [1e-9, 1e-6, 1e-4, 0.001, 0.01],
            np.linspace(0.05, 0.95, 19),
            [0.99, 0.999, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9],
        ])
        for a in alphas:
            assert abs((critical_value(SumScore(ARS), 1, float(a)) - 1.0) - float(ndtri(1.0 - a))) <= 1e-9

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                critical_value(SumScore(ARS), 10, bad)
        with pytest.raises(ValueError):
            critical_value(SumScore(ARS), 0, 0.01)


class TestMcCritical:
    def test_reproducible(self):
        det = TrGoF(s=2.0, c_plus=0.01)
        a = mc_critical(det, 50, 0.05, reps=400, outer=3, seed=7)
        b = mc_critical(det, 50, 0.05, reps=400, outer=3, seed=7)
        assert a == b

    def test_monotone_in_alpha(self):
        det = HigherCriticism(c_plus=0.01)
        strict = mc_critical(det, 80, 0.01, reps=1000, outer=2, seed=3)
        loose = mc_critical(det, 80, 0.05, reps=1000, outer=2, seed=3)
        assert strict >= loose

    def test_coverage_quick(self):
        # reduced-size version of the acceptance check
        n, alpha = 100, 0.05
        det = TrGoF(s=2.0, c_plus=1.0 / n)
        crit = mc_critical(det, n, alpha, reps=2000, outer=3, seed=21)
        rng = np.random.default_rng(99)
        hits = np.mean([
            det.statistic(rng.random(n)) >= crit for _ in range(3000)
        ])
        assert abs(hits - alpha) <= 3 * math.sqrt(alpha * (1 - alpha) / 3000) + 0.005

    def test_alpha_domain(self):
        det = TrGoF(s=2.0, c_plus=0.0)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                mc_critical(det, 50, bad, reps=200, outer=1, seed=0)

    def test_unstable_tail_warns(self):
        det = TrGoF(s=2.0, c_plus=0.0)
        with pytest.warns(UserWarning):
            mc_critical(det, 10, 0.01, reps=200, outer=1, seed=0)

    @pytest.mark.parametrize("n", [57, 195, MC_BLOCK_VALUES + 3])
    def test_blocked_matches_per_rep_loop(self, n):
        # reps = 200 is not a multiple of the block rows at n = 57 (71) or
        # n = 195 (21); above MC_BLOCK_VALUES each block is a single row
        dets = [TrGoF(s=s, c_plus=c) for s in (2.0, 1.0, 0.0, -1.0) for c in (0.0, 1.0 / n, 0.3)]
        dets += [HigherCriticism(c_plus=c) for c in (0.0, 1.0 / n, 0.3)]
        for det in dets:
            got = mc_critical(det, n, 0.05, reps=200, outer=2, seed=17)
            want = per_rep_critical(det, n, 0.05, reps=200, outer=2, seed=17)
            assert got == want, (det, n)

    def test_statistic_called_once_per_block(self):
        shapes = []

        class Recording(TrGoF):
            def statistic(self, series):
                shapes.append(np.shape(series))
                return super().statistic(series)

        n, reps = 195, 250
        mc_critical(Recording(s=2.0, c_plus=0.0), n, 0.05, reps=reps, outer=2, seed=1)
        rows = MC_BLOCK_VALUES // n
        one_round = [(rows, n)] * (reps // rows) + [(reps % rows, n)]
        assert shapes == one_round * 2

    def test_fit_sets_fitted_value(self):
        for det in (TrGoF(s=2.0, c_plus=0.02), HigherCriticism(c_plus=0.02), SumScore(ARS)):
            want = critical_value(det, 40, 0.1)
            fitted = det.fit(40, alpha=0.1)
            assert fitted == det and fitted is not det and det.critical_value is None
            assert fitted.critical_value == fitted.threshold == want
            assert fitted.to_config()["critical_value"] == want


def gof_detectors(c_plus_values):
    dets = [TrGoF(s=s, c_plus=c) for c in c_plus_values for s in (2.0, 1.0, 0.5, 0.0, -1.0)]
    return dets + [HigherCriticism(c_plus=c) for c in c_plus_values]


def assert_tail_matches_sample(det, n, stats, levels):
    """null_sf within 4 binomial SEs of the sample's tail at its quantiles."""
    for level in levels:
        c = float(np.quantile(stats, level))
        want = null_sf(det, n, c)
        got = float(np.mean(stats >= c))
        se = math.sqrt(want * (1.0 - want) / stats.size)
        assert abs(got - want) <= 4.0 * se + 1e-12, (det, n, level, got, want)


class TestExactNull:
    @pytest.mark.parametrize("n", [20, 57, 195, 1000])
    def test_matches_monte_carlo_tail(self, n):
        # 20 000 null series shared by the detectors (all 18 up to n = 195;
        # Tr-GoF s = 2, s = 1 and HC at c+ = 1/n at n = 1000), drawn and
        # scored in blocks of at most 1e6 values (8 MB)
        if n < 1000:
            dets = gof_detectors((0.0, 1.0 / n, 0.3))
        else:
            dets = [TrGoF(s=2.0, c_plus=1.0 / n), TrGoF(s=1.0, c_plus=1.0 / n), HigherCriticism(c_plus=1.0 / n)]
        rng, reps, rows = substream(31, n), 20_000, max(1, 1_000_000 // n)
        stats = np.empty((len(dets), reps))
        for start in range(0, reps, rows):
            pivots = rng.random((min(rows, reps - start), n))
            for i, det in enumerate(dets):
                stats[i, start : start + len(pivots)] = det.statistic(pivots)
        for det, sample in zip(dets, stats):
            assert_tail_matches_sample(det, n, sample, (0.5, 0.9, 0.99))

    @pytest.mark.parametrize("n", [3, 5])
    def test_most_points_below_c_plus(self, n):
        # with c+ >= 0.6 the count J below c+ is often n, where only t = n is
        # admissible and s <= 0 truncates it to 0: checks the t = J factor and
        # the raw b_n that J = n keeps
        pivots = substream(32, n).random((50_000, n))
        for det in gof_detectors((0.6, 0.95)):
            assert_tail_matches_sample(det, n, det.statistic(pivots), (0.3, 0.6, 0.9, 0.99))

    def test_type_one_with_exact_thresholds(self):
        # criterion 04's fresh null draws, thresholds from the exact law
        n, alpha, trials = 400, 0.01, 5000
        for s in (1.0, 2.0):
            det = TrGoF(s=s, c_plus=1.0 / n)
            crit = critical_value(det, n, alpha)
            y = np.stack([substream(777, int(s), t).random(n) for t in range(trials)])
            rate = float(np.mean(det.statistic(y) >= crit))
            assert 0.006 <= rate <= 0.014, (s, rate)

    @pytest.mark.parametrize("n", [57, 195, 400])
    def test_hc_is_trgof_two_on_the_root_scale(self, n, monkeypatch):
        # HC and TrGoF s = 2 reach the same decision on 150 series per cell,
        # null and watermarked alike, with p-values within 1e-12 relative;
        # an HC solve after the TrGoF s = 2 solve of its law runs no pass
        passes = count_law_passes(monkeypatch)
        for c_plus in (0.0, 1.0 / n, 0.3):
            hc, two = HigherCriticism(c_plus=c_plus), TrGoF(s=2.0, c_plus=c_plus)
            rng = substream(41, n)
            y = rng.random((150, n)) ** (1.0 / (1.0 + 1.5 * rng.random((150, 1))))
            s_hc, s_two = hc.statistic(y), two.statistic(y)
            for alpha in (0.05, 0.01, 0.001):
                crit_two = critical_value(two, n, alpha)
                solved = passes[0]
                crit_hc = critical_value(hc, n, alpha)
                assert passes[0] == solved, (c_plus, alpha)
                assert np.array_equal(s_hc >= crit_hc, s_two >= crit_two), (c_plus, alpha)
            p_hc = np.array([null_sf(hc, n, c) for c in s_hc])
            p_two = np.array([null_sf(two, n, c) for c in s_two])
            assert np.all(np.abs(p_hc - p_two) <= 1e-12 * p_two), (c_plus, np.max(np.abs(p_hc / p_two - 1.0)))

    def test_critical_value_solves_tail(self):
        for det in gof_detectors((0.0, 1.0 / 60, 0.3)):
            for alpha in (0.01, 0.2):
                crit = critical_value(det, 60, alpha)
                assert null_sf(det, 60, crit) == pytest.approx(alpha, rel=1e-6)

    def test_guards(self):
        det = TrGoF(s=2.0, c_plus=0.0)
        critical_value(det, 50, 0.01)  # the guards hold with a warm memo too
        with pytest.raises(ValueError):
            critical_value(det, 2, 0.01)
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                critical_value(det, 50, bad)
        with pytest.raises(ValueError):
            critical_value(det, 50, 1e-300)  # far below the law's accuracy
        with pytest.raises(TypeError):
            critical_value(Detector(), 50, 0.01)  # no null law for a bare detector

    def test_atom_at_zero(self):
        # at n = 3 and c+ = 0.95 most series leave only t = n admissible, which
        # s = 0 truncates to 0, so null_sf < 0.2 for every c > 0: the smallest
        # probe, 8**-21 / n, is returned, without a warning
        det = TrGoF(s=0.0, c_plus=0.95)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            crit = critical_value(det, 3, 0.2)
        assert crit == pytest.approx(8.0**-21 / 3, rel=1e-12) and null_sf(det, 3, crit) < 0.2

    def test_tail_follows_one_over_c(self):
        # far out only the J = 1 term of the t = J crossing is left, so
        # c null_sf(c) -> (1 - c+)**(n - 1) / (2n) at s = 2, down to tails of
        # 1e-18, where 1 - P(no crossing) is rounding noise
        for n, cs in ((30, (1e6, 1e9, 6.7e11, 1e15)), (200, (1e9, 1e15))):
            det = TrGoF(s=2.0, c_plus=1 / n)
            limit = (1.0 - 1 / n) ** (n - 1) / (2.0 * n)
            for c in cs:
                assert c * null_sf(det, n, c) == pytest.approx(limit, rel=1e-5), (n, c)

    @pytest.mark.parametrize("n", [100, 400])
    @pytest.mark.parametrize("s", [1.0, 0.5])
    def test_rounding_error_bound(self, s, n):
        # 10-1000x past the alpha = 1e-9 critical value the tail is negligible:
        # a sum of nonnegative masses has no rounding of either sign there, so it
        # is nonincreasing in c and at most the Binomial weight of the J it
        # drops, far below the ~1e-12 noise of a 1 - P(no crossing) tail
        det = TrGoF(s=s, c_plus=1.0 / n)
        far = critical_value(det, n, 1e-9) * np.geomspace(10.0, 1000.0, 12)
        tail = np.array([_crossing_law(_boundary(s, n, c), det.c_plus) for c in far])
        assert np.all(tail >= 0.0) and np.all(np.diff(tail) <= 0.0)
        assert tail.max() <= (n + 1) * BINOMIAL_TAIL < 2.0**-52 * (n + n * math.log(n))
        assert np.array_equal(tail, [null_sf(det, n, c) for c in far])

    def test_alpha_below_accuracy_is_refused(self):
        # alpha = 1e-14 at n = 30 solves; the least alpha is null_sf at the top
        # of the bracket, 8**21 / n, below which there is no bracket
        det = TrGoF(s=2.0, c_plus=1 / 30)
        crit = critical_value(det, 30, 1e-14)
        assert null_sf(det, 30, crit) == pytest.approx(1e-14, rel=1e-6)
        least = null_sf(det, 30, 8.0**21 / 30)
        assert 1e-21 < least < 1e-19
        with pytest.raises(ValueError, match="accuracy") as exc:
            critical_value(det, 30, 1e-30)
        assert f"the least alpha is {least:.3g}" in str(exc.value)
        assert math.isfinite(critical_value(SumScore(ARS), 30, 1e-15))  # sum rules take any alpha

    @pytest.mark.parametrize("s", [1.5, 1.0, 0.5, 0.0, -1.0])
    def test_tail_at_tiny_c(self, s):
        # here the s = 2 start of the boundary is its root to rounding, and
        # Newton from it would divide by a zero slope. The tail falls with c up
        # to the law's rounding, to 1 (s > 0) or, with t = n truncated, to
        # 1 - P(p_(t) > t/n for t < n) = 1 - (n-1)**(n-1) / n**n
        n = 57
        det = TrGoF(s=s, c_plus=0.0)
        err = 2.0 * 2.0**-52 * (n + n * math.log(n) + math.lgamma(n + 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sf = np.array([null_sf(det, n, c) for c in np.geomspace(1e-320, 1e-12)])
        assert np.all(sf[1:] <= sf[:-1] * (1.0 + err)), s
        limit = 1.0 if s > 0.0 else 1.0 - (n - 1) ** (n - 1) / n**n
        assert sf[0] == pytest.approx(limit, rel=err, abs=n * 2.0**-52), s

    def test_sum_rule_tail_is_the_clt_tail(self):
        assert null_sf(SumScore(ARS), 400, critical_value(SumScore(ARS), 400, 0.01)) == pytest.approx(0.01, rel=1e-9)

    @pytest.mark.parametrize("n", [20, 195, 1000])
    @pytest.mark.parametrize("s", [1.5, 1.0, 1.0 + 1e-9, 1.0 - 1e-9, 0.5, 0.0, -1.0])
    def test_boundary_matches_bisection(self, s, n):
        u = np.arange(1, n + 1) / n
        # 1 + 1e-9 lies just outside S_BRANCH_TOL, so K_s^+ runs the general
        # formula: its numerator cancels to ~1e-16 over s (1 - s) ~ -1e-9 and
        # K is known only to ~1e-7, which fixes a root only to that over |dK/dp|
        general = abs(s - 1.0) >= S_BRANCH_TOL and abs(s) >= S_BRANCH_TOL
        noisy = general and abs(s * (1.0 - s)) < 1e-6
        some_zero = reached_edge = False
        for c in (0.2 / n, 3.0 / n, 0.5):
            got, want = _boundary(s, n, c), bisection_boundary(s, n, c)
            pos = got > 0.0
            assert np.all(_k_s_plus_terms(u[pos], got[pos], s) >= c), (s, n, c)
            tol = 1e-12 * u
            if noisy:
                p = np.where(pos, got, 0.5 * u)
                slope = np.abs((((1.0 - u) / (1.0 - p)) ** s - (u / p) ** s) / s)
                tol = tol + 1e-15 / abs(s * (1.0 - s)) / slope
            assert np.all(np.abs(got - want) <= tol), (s, n, c, np.max(np.abs(got - want) / u))
            some_zero |= bool(np.any(got == 0.0))
            reached_edge |= bool(got[-1] > 0.0)
        # for s >= 1, K_s^+ grows without bound as p -> 0, so every t has a
        # root; for s <= 0 it truncates to 0 at t = n
        assert some_zero or s >= 1.0 or abs(s - 1.0) < S_BRANCH_TOL
        assert reached_edge or s <= 0.0

    @pytest.mark.parametrize("n", [20, 195, 1000])
    def test_recursion_matches_per_step_kernels(self, n):
        # the first-crossing masses and the per-step no-crossing recursion
        # partition the law of the points above c+ at every m, to the
        # rounding of the log-space terms
        logfact = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
        err = 2.0 * 2.0**-52 * (n + n * math.log(n) + logfact[n])
        for c_plus in (0.0, 1.0 / n, 0.3):
            for c in (1.0 / n, 4.0 / n, 16.0 / n):
                b_run = np.maximum.accumulate(_boundary(2.0, n, c))
                got = _upper_crossing(b_run, c_plus, np.arange(n + 1), logfact)
                want = per_step_upper_no_crossing(b_run, c_plus, n, logfact)
                assert np.max(np.abs(got + want - 1.0)) <= err, (n, c_plus, c)

    # critical_value.hex() at alpha = 0.01. The goodness-of-fit rows come
    # from the factor-8 bracket and Brent's method, columns s = 2, 1, 0.5, -1
    # and HC, from the tail as a sum of first-crossing masses; each moved by
    # <= 5.4e-11 relative from the values solved on 1 - P(no crossing). The
    # HC column is sqrt(2 n) times the root of the s = 2 column, rounded up;
    # it moved by <= 5.0e-11 relative from HC's own solve. The "sum" rows are
    # the CLT thresholds of ars, log, ind(0.5) and opt(0.1); opt(0.1)'s moved
    # by <= 5.8e-14 relative when its null moments went from scipy's quad to
    # tanh-sinh quadrature.
    GOLDEN = {
        (57, "0"): ("0x1.ca1cbdd5b86c3p-1", "0x1.bfccd7f981d10p-4", "0x1.489b74f6c028bp-3",
                    "0x1.0f3772271f5d7p-2", "0x1.432fc6ff13c6cp+3"),
        (57, "1/n"): ("0x1.8b87a315039ddp-2", "0x1.b8a1a340d354ap-4", "0x1.489b6fac47053p-3",
                      "0x1.0f3772271f601p-2", "0x1.a8b0a468bdd64p+2"),
        (57, "0.3"): ("0x1.5d939d24dc2e2p-4", "0x1.95299bd8aaaa0p-4", "0x1.486b9300fc813p-3",
                      "0x1.0f376f505c0fep-2", "0x1.8f420b3015775p+1"),
        (195, "0"): ("0x1.0bef1bb7562e0p-2", "0x1.118d7aa99b628p-5", "0x1.87dd836ec8f32p-5",
                     "0x1.57e7b252d5e65p-4", "0x1.4341777907f44p+3"),
        (195, "1/n"): ("0x1.ccca2a56f6fd1p-4", "0x1.0e39000c3c16fp-5", "0x1.87dd7fdf5cd3ep-5",
                       "0x1.57e7b252d5e42p-4", "0x1.a7eb773391e16p+2"),
        (195, "0.3"): ("0x1.a7aebb20456b7p-6", "0x1.f017b3dbb8083p-6", "0x1.87734f210b88cp-5",
                       "0x1.57e7b1148883cp-4", "0x1.967e17a2a5091p+1"),
        (400, "0"): ("0x1.0542667a25959p-3", "0x1.105ad3d50c53bp-6", "0x1.80349d46c3f72p-6",
                     "0x1.554088981b44ep-5", "0x1.434538d41485ap+3"),
        (400, "1/n"): ("0x1.c0efa42ec20cdp-5", "0x1.0d78735d115c4p-6", "0x1.80349a63a6dabp-6",
                       "0x1.554088981b433p-5", "0x1.a7c3226f3b0b0p+2"),
        (400, "0.3"): ("0x1.a8fcb25d92934p-7", "0x1.ee7e0af3dc785p-7", "0x1.7fa6267486d31p-6",
                       "0x1.554087008ea73p-5", "0x1.9c4de6d4fb444p+1"),
        (57, "sum"): ("0x1.2a4110f7a5168p+6", "-0x1.3b7dde10b5d30p+5", "0x1.2a4110f7a5168p+5",
                      "0x1.363d4d957a1efp+1"),
        (195, "sum"): ("0x1.c6f8ab112da49p+7", "-0x1.450754eed25b7p+7", "0x1.c6f8ab112da49p+6",
                       "0x1.e79643b28b858p+0"),
        (395, "sum"): ("0x1.b93c395063dd5p+8", "-0x1.5cc3c6af9c22bp+8", "0x1.b93c395063dd5p+7",
                       "-0x1.574ba4f187930p-1"),
    }

    @pytest.mark.parametrize("n, rule", sorted(GOLDEN))
    def test_golden_critical_values(self, n, rule):
        if rule == "sum":
            dets = [SumScore(kind) for kind in (ARS, LOG, ind(0.5), opt(0.1))]
            assert [det.fit(n, 0.01).critical_value.hex() for det in dets] == list(self.GOLDEN[n, rule])
            return
        c_plus = {"0": 0.0, "1/n": 1.0 / n, "0.3": 0.3}[rule]
        dets = [TrGoF(s=s, c_plus=c_plus) for s in (2.0, 1.0, 0.5, -1.0)] + [HigherCriticism(c_plus=c_plus)]
        for det, hexed in zip(dets, self.GOLDEN[n, rule]):
            got, want = critical_value(det, n, 0.01), float.fromhex(hexed)
            if isinstance(det, HigherCriticism) or det.s == 2.0:
                assert got.hex() == hexed, (det, n, rule)
            else:
                assert abs(got - want) <= 1e-12 * want, (det, n, rule, got / want - 1.0)

    # null_sf(...).hex() at the alpha = 0.01 critical value and at 4x it, in
    # that order for each of the columns of GOLDEN (TrGoF s = 2, 1, 0.5, -1
    # and HC). Against 1 - P(no crossing) the values at the critical value
    # moved by <= 5.3e-10 relative and those at 4x by <= 0.75% (its rounding,
    # ~4e-13 at n = 400); HC at (400, 0.3, 4x), 0 before, reads the dropped
    # Binomial mass, 2.3e-20. The HC entries moved by <= 4.7e-10 relative
    # when HC began to take its critical value from the s = 2 solve
    SF_GOLDEN = {
        (57, "0"): ("0x1.47ae147ae146cp-7", "0x1.42cd0af1cadd0p-9", "0x1.47ae147945ae4p-7", "0x1.e907229250cf5p-34",
                    "0x1.47ae147ae01d3p-7", "0x1.2d995faf6f9e8p-29", "0x1.47ae147ace414p-7", "0x1.b40ddfe359838p-16",
                    "0x1.47ae147ae146cp-7", "0x1.41a2682021414p-11"),
        (57, "1/n"): ("0x1.47ae147a9e806p-7", "0x1.1e3890e4b067ep-9", "0x1.47ae147ae1426p-7", "0x1.337cb7f7b2d70p-33",
                      "0x1.47ae147ae01a2p-7", "0x1.2d99c97f8e3d3p-29", "0x1.47ae147ace3eap-7", "0x1.b40ddfe3596a1p-16",
                      "0x1.47ae147a9e806p-7", "0x1.1694b7700080fp-11"),
        (57, "0.3"): ("0x1.47ae147ae0ba0p-7", "0x1.bf18474c7d1a6p-26", "0x1.47ae147ae094ap-7", "0x1.199109d2e0abap-31",
                      "0x1.47ae147adfd19p-7", "0x1.315ce2f53c9d0p-29", "0x1.47ae147ace323p-7", "0x1.b40dfceda3994p-16",
                      "0x1.47ae147ae0ba0p-7", "0x1.fe34358a40745p-37"),
        (400, "0"): ("0x1.47ae147adf9d6p-7", "0x1.42ab88f53128ap-9", "0x1.47ae14792b44fp-7", "0x1.3c58a3dac6600p-35",
                     "0x1.47ae147adfe31p-7", "0x1.87f2f4d3abac5p-28", "0x1.47ae147adf813p-7", "0x1.5f734e5188b67p-15",
                     "0x1.47ae147adf9d6p-7", "0x1.4179fcaf33196p-11"),
        (400, "1/n"): ("0x1.47ae147a9c162p-7", "0x1.1d57be22b8ab4p-9", "0x1.47ae147930a00p-7", "0x1.7a7097c7f8c98p-35",
                       "0x1.47ae147ae013dp-7", "0x1.87f32d6ca4e07p-28", "0x1.47ae147adf5e8p-7", "0x1.5f734e51889f0p-15",
                       "0x1.47ae147a9c162p-7", "0x1.15b251c0761d1p-11"),
        (400, "0.3"): ("0x1.47ae147adec19p-7", "0x1.56a07cfe8e4dcp-29", "0x1.47ae147ae13cdp-7", "0x1.c47bfda25410bp-33",
                       "0x1.47ae147adf3bfp-7", "0x1.9302e1ea045ccp-28", "0x1.47ae147adf135p-7", "0x1.5f73576a4c1aap-15",
                       "0x1.47ae147adec17p-7", "0x1.b22f59e47d178p-66"),
    }

    @pytest.mark.parametrize("n, rule", sorted(SF_GOLDEN))
    def test_golden_p_values(self, n, rule):
        c_plus = {"0": 0.0, "1/n": 1.0 / n, "0.3": 0.3}[rule]
        dets = [TrGoF(s=s, c_plus=c_plus) for s in (2.0, 1.0, 0.5, -1.0)] + [HigherCriticism(c_plus=c_plus)]
        got = []
        for det in dets:
            crit = critical_value(det, n, 0.01)
            got += [null_sf(det, n, crit).hex(), null_sf(det, n, 4.0 * crit).hex()]
        assert got == list(self.SF_GOLDEN[n, rule])

    @pytest.mark.parametrize("n", [57, 195, 400])
    def test_solver_matches_illinois_oracle(self, n):
        # every critical value rejects at most alpha and lies within
        # 5 CRITICAL_RTOL of the doubling + Illinois solver's
        for c_plus in (0.0, 1.0 / n, 0.3):
            dets = [TrGoF(s=s, c_plus=c_plus) for s in (2.0, 1.5, 1.0, 0.5, 0.0, -1.0)]
            for det in dets + [HigherCriticism(c_plus=c_plus)]:
                for alpha in (0.05, 0.01, 0.001):
                    got, want = critical_value(det, n, alpha), illinois_critical(det, n, alpha)
                    assert null_sf(det, n, got) <= alpha, (det, n, alpha)
                    assert abs(got - want) <= 5.0 * CRITICAL_RTOL * want, (det, n, alpha, got / want - 1.0)

    def test_law_passes_at_pipeline_lengths(self, monkeypatch):
        # evaluations of the exact law over TrGoF s = 2, s = 1 and HC at
        # c+ = 1/n, alpha = 0.01 and the scored lengths of the pipeline
        # documents; HC takes the s = 2 solve, so 12 laws are solved where
        # doubling + Illinois took 228 passes over 18
        passes = count_law_passes(monkeypatch)
        for n in (175, 195, 215, 355, 395, 435):
            for det in (TrGoF(s=2.0, c_plus=1 / n), TrGoF(s=1.0, c_plus=1 / n), HigherCriticism(c_plus=1 / n)):
                critical_value(det, n, 0.01)
        assert passes[0] <= 160

    def test_fast_at_n_395(self):
        # each timed call solves afresh: the memo is emptied before it
        for det in (TrGoF(s=1.0, c_plus=1 / 395), TrGoF(s=2.0, c_plus=1 / 395), HigherCriticism(c_plus=1 / 395)):
            best = math.inf
            for _ in range(3):
                calibrate._critical_value.cache_clear()
                t0 = time.perf_counter()
                critical_value(det, 395, 0.01)
                best = min(best, time.perf_counter() - t0)
            assert best < 0.5, (det, best)


class TestMemo:
    """``critical_value`` memoises each solve per process on (law, n, alpha)."""

    def test_repeat_is_identical_and_solves_nothing(self, monkeypatch):
        passes = count_law_passes(monkeypatch)
        for det in (TrGoF(s=1.0, c_plus=1 / 195), HigherCriticism(c_plus=1 / 195), SumScore(opt(0.1))):
            first = critical_value(det, 195, 0.01)
            solved = passes[0]
            # a fresh detector of the same law, with numpy n and alpha, hits the memo
            twin = dataclasses.replace(det)
            again = critical_value(twin, np.int64(195), np.float64(0.01))
            assert type(again) is float and again.hex() == first.hex()
            assert twin.fit(195, 0.01).critical_value.hex() == first.hex()
            assert passes[0] == solved
        info = calibrate._critical_value.cache_info()
        assert (info.hits, info.misses) == (6, 3)

    def test_detector_is_its_own_key(self, monkeypatch):
        # a frozen detector whose equality and hash ignore critical_value
        det = TrGoF(s=1.0, c_plus=1 / 195)
        with pytest.raises(dataclasses.FrozenInstanceError):
            det.s = 2.0
        fitted = det.fit(195, 0.01)
        assert det.critical_value is None and fitted.critical_value is not None
        assert fitted == det and hash(fitted) == hash(det)
        assert TrGoF(s=1.0, c_plus=1 / 195, critical_value=3.0) == det != TrGoF(s=2.0, c_plus=1 / 195)
        # equal detectors built apart (int s, a set critical value) share one memo entry
        passes = count_law_passes(monkeypatch)
        for twin in (TrGoF(s=1, c_plus=1 / 195), TrGoF(s=1.0, c_plus=1 / 195, critical_value=0.5), fitted):
            assert critical_value(twin, 195, 0.01) == fitted.critical_value
        assert passes[0] == 0
        assert calibrate._critical_value.cache_info().currsize == 1

    def test_keys_never_collide(self):
        # one case per key field: alpha, n, c+, s and the sum-rule kinds; a
        # shared key would hand a later case an earlier case's value, which
        # misses its own tail
        n = 100
        cases = [(TrGoF(s=2.0, c_plus=1 / n), n, 0.01), (TrGoF(s=2.0, c_plus=1 / n), n, 0.05),
                 (TrGoF(s=2.0, c_plus=1 / n), n + 1, 0.01), (TrGoF(s=2.0, c_plus=0.0), n, 0.01),
                 (TrGoF(s=1.0, c_plus=1 / n), n, 0.01)]
        cases += [(SumScore(kind), n, 0.01) for kind in (ARS, LOG, ind(0.5), ind(0.3), opt(0.1), opt(0.3))]
        got = [critical_value(det, n_i, alpha) for det, n_i, alpha in cases]
        assert [critical_value(det, n_i, alpha) for det, n_i, alpha in cases] == got
        for (det, n_i, alpha), crit in zip(cases, got):
            assert null_sf(det, n_i, crit) == pytest.approx(alpha, rel=1e-6), (det, n_i, alpha)
        assert calibrate._critical_value.cache_info().currsize == len(cases)
        # HC at equal (c+, n, alpha) is TrGoF s = 2 on the square-root scale,
        # by design one entry, and misses its own tail no more than it does
        hc = critical_value(HigherCriticism(c_plus=1 / n), n, 0.01)
        assert calibrate._critical_value.cache_info().currsize == len(cases)
        root = math.sqrt(2 * n * got[0])  # rounded up to the least float null_sf maps back to >= got[0]
        assert hc >= root and hc * hc / (2 * n) >= got[0]
        below = math.nextafter(hc, 0.0)
        assert hc == root or below * below / (2 * n) < got[0]
        assert null_sf(HigherCriticism(c_plus=1 / n), n, hc) == pytest.approx(0.01, rel=1e-6)

    def test_failed_solve_is_not_memoised(self):
        det = TrGoF(s=2.0, c_plus=0.0)
        for _ in range(2):
            with pytest.raises(ValueError, match="accuracy"):
                calibrate._critical_value(det, 50, 1e-300)  # below the least alpha: no bracket
        assert calibrate._critical_value.cache_info().currsize == 0


class TestTradeoffCurve:
    def test_indistinguishable(self):
        x = np.linspace(0.0, 1.0, 50)
        pairs = tradeoff_curve(x, x)
        assert np.allclose(pairs.sum(axis=1), 1.0)

    def test_separated(self):
        pairs = tradeoff_curve(np.zeros(10), np.ones(10))
        assert any(a == 0.0 and b == 0.0 for a, b in pairs)

    def test_monotone_and_count(self):
        rng = np.random.default_rng(6)
        s0, s1 = rng.normal(0, 1, 40), rng.normal(1, 1, 30)
        pairs = tradeoff_curve(s0, s1)
        assert len(pairs) <= 40 + 30 + 1
        alphas, betas = pairs[:, 0], pairs[:, 1]
        assert np.all(np.diff(alphas) <= 1e-12)
        assert np.all(np.diff(betas) >= -1e-12)
