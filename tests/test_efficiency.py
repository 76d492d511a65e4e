import math
import tracemalloc

import numpy as np
import pytest

from gumbelmark import optimal_rate, rate_curve
from gumbelmark.pivotal import alt_pdf
from gumbelmark.tokensource import least_favorable_atoms

from util import least_favorable


class TestQueryValidation:
    def test_ranges(self):
        for delta, epsilon in ((0.0, 0.5), (1.0, 0.5), (math.nan, 0.5), (0.5, 0.0), (0.5, 1.5)):
            with pytest.raises(ValueError):
                optimal_rate(delta, epsilon)
        assert optimal_rate(0.5, 1.0) > 0.0


class TestOptimalRate:
    def test_vanishes_as_epsilon_to_zero(self):
        assert optimal_rate(0.4, 1e-6) < 1e-6

    def test_vanishes_as_delta_to_zero(self):
        assert optimal_rate(1e-5, 1.0) < 1e-3

    def test_nonnegative(self):
        for d in (0.1, 0.5, 0.9):
            for e in (0.3, 1.0):
                assert optimal_rate(d, e) >= 0.0

    def test_matches_mc_quick(self):
        # reduced-size version of the acceptance spot checks
        rng = np.random.default_rng(1)
        y = rng.random(1_000_000)
        for d, e in ((0.4, 1.0), (0.3, 0.5)):
            f = alt_pdf(least_favorable(d), y)
            vals = -np.log((1 - e) + e * f)
            se = vals.std() / math.sqrt(y.size)
            assert abs(optimal_rate(d, e) - vals.mean()) <= 4 * se

    @pytest.mark.parametrize("epsilon", [0.5, 1.0])
    def test_delta_near_one_builds_no_atom_vector(self, epsilon):
        # floor(1/(1 - delta)) ~ 1e10 atoms; the two distinct ones suffice
        tracemalloc.start()
        try:
            rate = optimal_rate(1.0 - 1e-10, epsilon)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(rate) and rate > 0.0
        assert peak < 1e6

    def test_smaller_epsilon_smaller_rate(self):
        for d in (0.2, 0.5, 0.8):
            assert optimal_rate(d, 0.5) < optimal_rate(d, 1.0)


class TestRatePins:
    # float.hex of the rate, recorded before the least-exponent group of the
    # split-form log density stopped taking a power. numpy's SIMD kernels for
    # log and power differ in the last bits (the rates by <= 2.1e-15 relative
    # between its AVX-512 and AVX2 kernels), so a pin holds to 1e-13 relative
    RATE_HEX = {
        (0.1, 0.5): "0x1.f59613e8cbea8p-8",
        (0.3, 1.0): "0x1.40429a1d9452dp-3",
        (0.75, 0.1): "0x1.8a53c5da97d72p-8",
        (0.999, 0.5): "0x1.55daded13ba01p-1",
    }

    @pytest.mark.parametrize("delta, epsilon", sorted(RATE_HEX))
    def test_rate_pinned(self, delta, epsilon):
        want = float.fromhex(self.RATE_HEX[delta, epsilon])
        assert optimal_rate(delta, epsilon) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestQuadratureAccuracy:
    # 30-digit mpmath integrals of -log((1 - eps) + eps f) over [0, 1], at the
    # float atoms of least_favorable_atoms(delta), computed once and pinned
    MPMATH_RATES = {
        (1e-5, 1.0): 1.7754375735263038e-6,  # scipy's quad gave 1.00001e-5 here
        (0.999, 0.5): 0.66768547348129921,  # f has a boundary layer of width ~1e-3 at y = 1
        (0.5, 1.0): 1.0 - math.log(2.0),
    }

    @pytest.mark.parametrize("delta, epsilon", sorted(MPMATH_RATES))
    def test_matches_mpmath(self, delta, epsilon):
        assert abs(optimal_rate(delta, epsilon) - self.MPMATH_RATES[delta, epsilon]) <= 1e-16

    @pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
    def test_matches_scipy_quad_on_suite_grid(self, epsilon):
        # the efficiency suite's default grid, against scipy's adaptive
        # quadrature of the same integral; at eps = 1 the oracle splits off
        # the leading power exactly, so that scipy sees a bounded integrand
        from scipy.integrate import quad

        worst = 0.0
        for delta in np.arange(0.01, 0.9 + 1e-12, 0.005):
            vals, counts = least_favorable_atoms(delta)
            expo = 1.0 / vals - 1.0
            if epsilon < 1.0:
                want = quad(lambda y: -math.log((1 - epsilon) + epsilon * (counts * y**expo).sum()), 0.0, 1.0,
                            epsabs=1e-10, limit=500)[0]
            else:
                e_min = float(expo.min())
                want = e_min + quad(lambda y: -math.log((counts * y ** (expo - e_min)).sum()), 0.0, 1.0,
                                    epsabs=1e-10, limit=500)[0]
            worst = max(worst, abs(optimal_rate(delta, epsilon) - want))
        assert worst <= 1e-9


class TestRateCurve:
    def test_monotone_coarse(self):
        rows = rate_curve(np.arange(0.05, 0.91, 0.05), epsilon=1.0)
        assert np.all(np.diff(rows[:, 2]) > 0)

    def test_continuity_and_kink_at_half(self):
        h = 1e-4
        left = optimal_rate(0.5 - h, 1.0)
        mid = optimal_rate(0.5, 1.0)
        right = optimal_rate(0.5 + h, 1.0)
        gap = abs(right - left)
        assert gap <= 1e-2
        slope_jump = abs((right - mid) / h - (mid - left) / h)
        assert slope_jump >= 10 * gap

    def test_csv_rows(self):
        rows = rate_curve([0.2, 0.4], epsilon=0.5)
        assert rows.shape == (2, 3)
        assert np.all(rows[:, 1] == 0.5)
