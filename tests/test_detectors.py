import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gumbelmark import (
    ARS,
    LOG,
    HigherCriticism,
    PivotSeries,
    ScoreKind,
    SumScore,
    TrGoF,
    ind,
    null_moments,
    opt,
    score,
    trgof_stat,
)
from gumbelmark.detectors import _k_s_plus_terms, _score_terms, _t_over_n

from util import hc_reference, k_s_decimal, k_s_plus

S_GRID = (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0)


class TestKs:
    """K_s^+ at u >= v, where it equals the untruncated Bernoulli divergence K_s."""

    def test_zero_on_diagonal(self):
        for s in S_GRID:
            for v in (0.1, 0.5, 0.9):
                assert k_s_plus(v, v, s) == 0.0
                assert k_s_plus(v + 1e-9, v, s) == pytest.approx(0.0, abs=1e-12)

    def test_chi_square_closed_form(self):
        # s = 2: (u - v)^2 / (2 v (1 - v))
        assert k_s_plus(0.5, 0.25, 2.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
        u, v = 0.73, 0.21
        assert k_s_plus(u, v, 2.0) == pytest.approx((u - v) ** 2 / (2 * v * (1 - v)), abs=1e-12)

    def test_chi_square_form_has_no_cancellation(self):
        # at s = 2 the kernel is (u - v)**2 / (2 v (1 - v)) to 4 ulp, against
        # exact rational arithmetic on the float inputs, however small u - v
        for v in (1e-3, 0.3, 0.7, 0.999):
            for gap in (1e-4, 1e-8, 1e-12):
                u = v + gap
                got = float(_k_s_plus_terms(np.array([u]), np.array([v]), 2.0)[0])
                fu, fv = Fraction(u), Fraction(v)
                want = (fu - fv) ** 2 / (2 * fv * (1 - fv))
                assert abs(Fraction(got) - want) <= 4 * 2.0**-52 * want, (v, gap, got / float(want) - 1.0)

    def test_bernoulli_kl(self):
        # s = 1 is KL(Bern(u) || Bern(v)), s = 0 is KL(Bern(v) || Bern(u))
        want = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert k_s_plus(0.5, 0.25, 1.0) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.143841, abs=1e-6)
        reverse = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert k_s_plus(0.5, 0.25, 0.0) == pytest.approx(reverse, abs=1e-12)

    def test_nonnegative_grid(self):
        us = np.linspace(0.0, 1.0, 21)
        vs = np.linspace(0.05, 0.95, 19)
        for s in S_GRID:
            grid = k_s_plus(us[:, None], vs[None, :], s)
            assert grid.shape == (21, 19)
            assert grid.min() >= -1e-12
            # nonincreasing in v, which the exact null boundary's bisection needs
            assert np.diff(grid, axis=1).max() <= 1e-12

    def test_continuity_in_s(self):
        points = ((0.6, 0.3), (0.8, 0.2), (0.5, 0.05), (0.999, 0.4))
        for s0 in (0.0, 1.0):
            # at u = 1 the s <= 0 term truncates, so only s = 1 is continuous there
            for u, v in points + (((1.0, 0.3),) if s0 == 1.0 else ()):
                for eps in (-1e-6, 1e-6):
                    assert abs(k_s_plus(u, v, s0 + eps) - k_s_plus(u, v, s0)) <= 1e-4, (s0, u, v)

    @pytest.mark.parametrize("s", [2.0, 1.5, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 1e-9, 1.0 - 1e-9, 1.0, 0.5,
                                   1e-6, 1e-9, -1e-9, 0.0, -1.0])
    def test_matches_decimal_reference(self, s):
        # one formula on each side of s = 1/2 with exact s = 0 and s = 1
        # limits: no cancellation near either, and log1p of (u - v) / v keeps
        # log(u / v) from rounding as v nears u, so the kernel is within 1e-9
        # relative of K_s in 50-digit arithmetic, for v from 1e-250 u to (1 - 1e-5) u
        r = np.append(np.geomspace(1e-250, 1.0 - 1e-3, 25), 1.0 - np.geomspace(1e-4, 1e-5, 3))
        for u in (1e-3, 0.05, 0.3, 0.5, 0.8, 0.999) + ((1.0,) if s > 0.0 else ()):
            v = u * r
            got = _k_s_plus_terms(np.full(v.size, u), v, s)
            want = np.array([k_s_decimal(u, x, s) for x in v.tolist()])
            assert np.all(np.abs(got - want) <= 1e-9 * want), (s, u, np.max(np.abs(got / want - 1.0)))

    @pytest.mark.parametrize("u", [1e-3, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0])
    def test_log_k_is_concave_in_log_v(self, u):
        # the exact law's boundary runs Newton on log K_s^+ against log p from
        # the right of the root, and no step passes the root only if this
        # holds. The kernel's relative error near v = u grows like
        # 2**-52 u / (u - v), ~1e-11 at the top of this grid, so rounding
        # moves a second difference of log K by far less than the bound
        x = np.linspace(math.log(1e-300), math.log(u) + math.log1p(-1e-4), 4001)
        for s in np.linspace(-1.0, 2.0, 31):
            if u == 1.0 and s <= 0.0:
                continue  # K_s^+ truncates to 0 at u = 1
            f = np.log(_k_s_plus_terms(np.full(x.size, u), np.exp(x), s))
            second = f[2:] - 2.0 * f[1:-1] + f[:-2]
            assert second.max() <= 2e-7, (s, u, second.max())


class TestKsPlus:
    def test_truncated_below(self):
        for s in S_GRID:
            assert k_s_plus(0.2, 0.5, s) == 0.0
            assert k_s_plus(0.5, 0.5, s) == 0.0
            assert k_s_plus(0.0, 0.5, s) == 0.0

    def test_passthrough(self):
        # scalars give a float, arrays an array of the broadcast shape
        got = k_s_plus(0.5, 0.25, 2.0)
        assert isinstance(got, float) and got == pytest.approx(1.0 / 6.0, abs=1e-12)
        arr = k_s_plus(np.array([0.2, 0.5, 1.0]), 0.25, 2.0)
        assert arr.shape == (3,)
        assert arr[0] == 0.0 and arr[1] == got and arr[2] == k_s_plus(1.0, 0.25, 2.0)

    def test_u_one_closed_forms(self):
        v = 0.3
        assert k_s_plus(1.0, v, 2.0) == pytest.approx((1 - v) / (2 * v), abs=1e-12)
        assert k_s_plus(1.0, v, 1.0) == pytest.approx(-math.log(v), abs=1e-12)
        assert k_s_plus(1.0, v, 0.5) == pytest.approx((1 - math.sqrt(v)) / 0.25, abs=1e-12)
        # every s > 0 keeps it, however near 0 (once truncated within 1e-9 of 0)
        s = 5e-10
        assert k_s_plus(1.0, v, s) == pytest.approx((1 - v ** (1 - s)) / (s * (1 - s)), rel=1e-12)
        # no finite closed form at u = 1 for s <= 0: truncated to zero
        assert k_s_plus(1.0, v, 0.0) == 0.0
        assert k_s_plus(1.0, v, -1.0) == 0.0


class TestTrGoFStat:
    def test_single_point(self):
        assert trgof_stat(np.array([0.2]), 2.0, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_t_over_n_grid_is_memoised_read_only(self):
        trgof_stat(np.random.default_rng(3).random(50), 2.0, 0.0)
        u = _t_over_n(50)
        assert _t_over_n(50) is u and u.tolist() == (np.arange(1, 51) / 50).tolist()
        with pytest.raises(ValueError, match="read-only"):
            u[0] = 0.0

    def test_all_interior_terms_truncated(self):
        # p_(t) >= t/n at every interior t; for s <= 0 the u = 1 boundary
        # term truncates too and the statistic is exactly 0
        p = np.array([0.5, 0.9, 0.95])
        assert trgof_stat(p, 0.0, 0.0) == 0.0
        assert trgof_stat(p, -1.0, 0.0) == 0.0
        # for s > 0 only the finite u = 1 closed-form term survives; keeping
        # it is what makes the HC identity exact at t = n
        assert trgof_stat(p, 2.0, 0.0) == pytest.approx(k_s_plus(1.0, 0.95, 2.0), abs=1e-15)

    def test_hc_identity_random(self):
        rng = np.random.default_rng(8)
        for n in (1, 10, 400):
            for _ in range(300):
                p = rng.random(n)
                lhs = n * trgof_stat(p, 2.0, 1.0 / n)
                rhs = 0.5 * max(hc_reference(p, 1.0 / n), 0.0) ** 2
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, lhs)

    def test_monotone_in_c_plus(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            p = rng.random(200)
            stats = [trgof_stat(p, 1.5, c) for c in (0.0, 1e-4, 1e-3, 1e-2, 0.1)]
            assert all(a >= b - 1e-15 for a, b in zip(stats, stats[1:]))

    def test_empty_series(self):
        with pytest.raises(ValueError):
            trgof_stat(np.array([]), 2.0, 0.0)


class TestHCPlus:
    """HigherCriticism.statistic, sqrt(2 n S_n^+(2)), against the HC formula."""

    def test_single_point(self):
        assert HigherCriticism(c_plus=0.0).statistic(np.array([0.8])) == pytest.approx(2.0, abs=1e-12)
        assert hc_reference(np.array([0.2]), 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_null_range(self):
        # null HC_n^+ rarely leaves a modest range (loglog growth); the
        # bounds are frozen from an 8000-trial oracle run (98.7% in [0, 6],
        # 99.8% in [0, 10] at c_plus = 1/n)
        rng = np.random.default_rng(10)
        n = 10_000
        det = HigherCriticism(c_plus=1.0 / n)
        vals = np.concatenate([det.statistic(rng.random((100, n))) for _ in range(20)])
        assert np.mean((vals >= 0.0) & (vals <= 6.0)) >= 0.97
        assert np.mean((vals >= 0.0) & (vals <= 10.0)) >= 0.99
        y = np.random.default_rng(11).random((5, n))
        for row, got in zip(y, det.statistic(y)):
            assert got == pytest.approx(hc_reference(1.0 - row, 1.0 / n), rel=1e-14, abs=0.0)

    def test_boundary_term_dominates(self):
        # all interior deviations negative; the always-admissible t = n term
        # sqrt(n) (1 - p_(n)) / sqrt(p_(n)(1 - p_(n))) carries the max
        p = np.array([0.6, 0.8, 0.99])
        want = math.sqrt(3) * (1.0 - 0.99) / math.sqrt(0.99 * 0.01)
        assert hc_reference(p, 0.0) == pytest.approx(want, abs=1e-12)
        assert HigherCriticism(c_plus=0.0).statistic(1.0 - p) == pytest.approx(want, abs=1e-12)


# frozen from the closed-form formula log(y**(d/(1-d)) + y**(1/d - 1))
OPT_04_AT_HALF = -0.016623492253922244


class TestScores:
    def test_ars_log_points(self):
        y = 1.0 - 1.0 / math.e
        assert score(y, ARS) == pytest.approx(1.0, abs=1e-12)
        assert score(0.5, LOG) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_indicator(self):
        kind = ind(0.5)
        assert score(0.7, kind) == 1.0
        assert score(0.3, kind) == 0.0
        assert score(0.5, kind) == 1.0

    def test_opt_point(self):
        assert score(0.5, opt(0.4)) == pytest.approx(OPT_04_AT_HALF, abs=1e-12)

    def test_opt_matches_two_term_formula(self):
        # for d0 < 0.5 the least-favorable log-density has exactly two terms
        ys = np.linspace(0.01, 0.99, 99)
        for d0 in (0.1, 0.25, 0.4):
            direct = np.log(ys ** (d0 / (1 - d0)) + ys ** (1 / d0 - 1))
            assert np.max(np.abs(score(ys, opt(d0)) - direct)) <= 1e-12

    # the opt scores of 1e5 pivots, edges 1e-300 and 1 - 1e-16 included, at
    # the pivots OPT_PICK, recorded before the least-exponent group stopped
    # taking a power; delta0 = 0.5 and 0.9 have one atom. numpy's SIMD kernels
    # for log and power differ in the last bits (opt scores by <= 4.6e-13
    # between its AVX-512 and AVX2 kernels), so a pin holds to 1e-12 max(1, |h|)
    OPT_PICK = np.r_[1, 0:100_000:10_000]
    OPT_PINS = {
        0.1: (
            0.6931471805599448, -76.75283643313483, 0.3882685037145915, -0.07573092207790377,
            -0.15218359203143048, -0.10426175403143265, 0.05790770721699999, -0.3031619517927514,
            -0.14631342319213778, -0.2295049886691421, -0.22746606209606596),
        0.3: (
            0.6931471805599452, -296.0466548135202, 0.5845543462165834, -0.06562691446031083,
            -0.5159852723817974, -0.24884728914345794, 0.3544255815146629, -1.1638214109726548,
            -0.48612644270985994, -0.8658643791441331, -0.8573178356416223),
        0.5: (
            0.6931471805599452, -690.0823807176538, 0.6123702733132449, -0.006355814920806613,
            -0.6765515631838058, -0.24731545776544173, 0.42440161345811006, -2.035310385838643,
            -0.6237478454819615, -1.3723978130544618, -1.3540474908329148),
        0.9: (
            2.302585092994045, -6214.67716599093, 1.5755929277737422, -3.992941866332722, -10.024703600699716,
            -6.161578651934438, -0.11612501092247163, -22.253533004593255, -9.549470141383118,
            -16.28731984953562, -16.122166949541697),
        0.99: (
            4.605170185988081, -68382.17209173717, -3.391743631435249, -64.64562636660635, -130.99500544464328,
            -88.50063100822523, -22.000640957093594, -265.5121288874722, -125.76743739216069,
            -199.88378418183825, -198.06710228190508),
        0.999: (
            6.907755278982026, -690077.8446150364, -73.78837506047157, -691.895737206289, -1361.4212897210252,
            -932.6144204080795, -261.56906625575124, -2718.821353553208, -1308.6703757368828,
            -2056.5716933418107, -2038.239721442485),
    }

    @pytest.mark.parametrize("delta0", sorted(OPT_PINS))
    def test_opt_scores_pinned(self, delta0):
        y = np.random.default_rng(2026).random(100_000)
        y[0], y[1] = 1e-300, 1.0 - 1e-16
        got = _score_terms(y, opt(delta0))
        assert np.array_equal(_score_terms(y.reshape(250, 400), opt(delta0)).ravel(), got)
        want = np.array(self.OPT_PINS[delta0])
        assert np.all(np.abs(got[self.OPT_PICK] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_domain(self):
        with pytest.raises(ValueError):
            score(0.0, ARS)
        with pytest.raises(ValueError):
            score(1.0, LOG)
        for kind in (ARS, LOG, ind(0.5), opt(0.1)):
            for bad in (-0.5, 0.0, 1.0, 1.5):
                with pytest.raises(ValueError, match="strictly in"):
                    score(np.array([0.25, bad, 0.75]), kind)
            with pytest.raises(ValueError, match="empty"):
                score(np.array([]), kind)

    def test_score_kind_validation(self):
        with pytest.raises(ValueError):
            ScoreKind("nope")
        with pytest.raises(ValueError):
            ScoreKind("ind")
        with pytest.raises(ValueError):
            ScoreKind("ars", 0.5)


class TestNullMoments:
    def test_closed_forms(self):
        assert null_moments(ARS) == (1.0, 1.0)
        assert null_moments(LOG) == (-1.0, 1.0)
        mean, var = null_moments(ind(0.5))
        assert (mean, var) == (0.5, 0.25)

    def test_opt_vs_mc(self):
        kind = opt(0.1)
        mean, var = null_moments(kind)
        rng = np.random.default_rng(12)
        draws = score(rng.random(1_000_000).clip(1e-12, 1 - 1e-12), kind)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - mean) <= 4 * se
        assert abs(draws.var() - var) <= 0.01

    def test_opt_matches_mpmath(self):
        # 30-digit mpmath integrals of h and (h - mean)**2 over [0, 1] at the
        # float atoms of least_favorable_atoms(delta0), computed once and pinned
        for delta0, want in ((0.1, (-0.028785070301563537, 0.05355363799590825)),
                             (0.3, (-0.15637703326005103, 0.37580336351330745))):
            assert null_moments(opt(delta0)) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_opt_near_one_atom(self):
        # at delta0 = 0.99 the law is one atom of count ~100 up to rounding,
        # h = log 100 + 99 log Y, and -log Y is standard exponential; y**99
        # underflows below y ~ 1e-3.2, so h must be taken in split form there
        mean, var = null_moments(opt(0.99))
        assert mean == pytest.approx(math.log(100.0) - 99.0, rel=1e-12)
        assert var == pytest.approx(99.0**2, rel=1e-12)


class TestSumTest:
    def test_infinite_threshold(self):
        assert SumScore(ARS, critical_value=math.inf).predict(np.array([0.5, 0.6])) is False

    @pytest.mark.parametrize("kind", [ARS, LOG, ind(0.5), opt(0.1)], ids=lambda k: k.label())
    def test_statistic_clips_then_scores(self, kind):
        # pivots at or past the boundary are clipped to [1 - (1 - 1e-16), 1 - 1e-16], never rejected
        y = np.array([[0.0, 0.3, 1.0, 0.7], [-1.0, 1e-300, 2.0, 0.5]])
        clipped = np.clip(y, 1.0 - (1.0 - 1e-16), 1.0 - 1e-16)
        want = [float(score(row, kind).sum()) for row in clipped]
        assert SumScore(kind).statistic(y).tolist() == want
        assert SumScore(kind).statistic(PivotSeries.from_y(y[0])) == want[0]
        with pytest.raises(ValueError, match="empty"):
            SumScore(kind).statistic(np.array([]))

    def test_boundary(self):
        n = 100
        y = np.full(n, 1.0 - 1.0 / math.e)
        total = float(score(y, ARS).sum())
        assert abs(total - n) <= 1e-9 * n
        assert SumScore(ARS, critical_value=total).predict(y) is True  # >= at the boundary

    def test_clt_null_rate(self):
        # vectorized 1e4-trial null check at alpha = 0.01, n = 400
        n, trials, alpha = 400, 10_000, 0.01
        thr = SumScore(ARS).fit(n, alpha).threshold
        rng = np.random.default_rng(13)
        sums = -np.log1p(-rng.random((trials, n))).sum(axis=1)
        rate = (sums >= thr).mean()
        assert abs(rate - alpha) <= 0.004


class TestDetectorObjects:
    def test_get_set_params(self):
        # parameters are read back, never set after construction
        det = TrGoF(s=1.5, c_plus=0.001)
        assert dataclasses.asdict(det) == {"s": 1.5, "c_plus": 0.001, "critical_value": None}
        assert repr(det) == "TrGoF(s=1.5, c_plus=0.001, critical_value=None)"
        assert not hasattr(det, "set_params")

    def test_predict_requires_critical_value(self):
        det = TrGoF(s=2.0, c_plus=0.0)
        with pytest.raises(ValueError):
            det.predict(np.array([0.5, 0.6]))

    def test_predict_uses_threshold(self):
        y = np.array([0.99, 0.98, 0.97, 0.99])
        assert TrGoF(s=2.0, c_plus=0.0, critical_value=1e9).predict(y) is False
        assert TrGoF(s=2.0, c_plus=0.0, critical_value=0.0).predict(y) is True

    def test_object_takes_pivots(self):
        # statistic(y) must equal the p-value functions applied to 1 - y
        rng = np.random.default_rng(14)
        y = rng.random(200)
        assert TrGoF(s=2.0, c_plus=0.0).statistic(y) == trgof_stat(1.0 - y, 2.0, 0.0)
        assert HigherCriticism(c_plus=0.0).statistic(y) == math.sqrt(2 * 200 * trgof_stat(1.0 - y, 2.0, 0.0))
        assert HigherCriticism(c_plus=0.0).statistic(y) == pytest.approx(hc_reference(1.0 - y, 0.0), rel=1e-15)
        piv = PivotSeries.from_y(y)
        assert SumScore(ARS).statistic(piv) == SumScore(ARS).statistic(y)


def hexes(values):
    return [float(v).hex() for v in values]


class TestBlockEvaluation:
    """A (rows, n) block gives, bit for bit, the row-by-row 1-D statistics."""

    @staticmethod
    def pivots(rows=6, n=60):
        y = np.random.default_rng(15).random((rows, n))
        # 1 - 1e-17 rounds to 1.0; both ends hit the p-value and pivot clips
        y[1, :3] = 0.0
        y[2, -4:] = 1.0 - 1e-17
        y[3, :2] = (0.0, 1.0 - 1e-17)
        return y

    def test_trgof_and_hc_functions(self):
        p = 1.0 - self.pivots()
        n = p.shape[1]
        for c in (0.0, 1.0 / n, 0.3, 1.0):
            for s in S_GRID:
                got = trgof_stat(p, s, c)
                assert got.shape == (p.shape[0],)
                assert hexes(got) == hexes(trgof_stat(row, s, c) for row in p), (s, c)
            got = HigherCriticism(c_plus=c).statistic(1.0 - p)
            assert got.shape == (p.shape[0],)
            assert hexes(got) == hexes(HigherCriticism(c_plus=c).statistic(1.0 - row) for row in p), c

    def test_detector_objects(self):
        n = 60
        dets = [TrGoF(s=s, c_plus=c) for s in S_GRID for c in (0.0, 1.0 / n)]
        dets += [HigherCriticism(c_plus=c) for c in (0.0, 1.0 / n)]
        dets += [SumScore(k) for k in (ARS, LOG, ind(0.5), opt(0.1))]
        for y in (self.pivots(n=n), self.pivots(n=n)[:1]):
            for det in dets:
                got = det.statistic(y)
                assert got.shape == (y.shape[0],)
                assert hexes(got) == hexes(det.statistic(row) for row in y), det
