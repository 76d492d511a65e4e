import math

import numpy as np
import pytest

from gumbelmark import (
    ARS,
    LOG,
    BoundarySpec,
    ExperimentGrid,
    MixtureConfig,
    boundary_grid,
    entropy_gap_check,
    histogram_study,
    ind,
    make_m2,
    opt,
    sample_mixture,
)
from gumbelmark.experiments import (
    PI2_OVER_6_MINUS_1,
    SUM_CRIT_GRIDS,
    analytic_gap_bounds,
    grid_points,
    hc_histogram_study,
    min_error_cell,
    resolve_c_plus,
)
from gumbelmark.streams import substream


class TestMixtureConfig:
    def test_exponent_bounds(self):
        with pytest.raises(ValueError):
            MixtureConfig(n=100, p=1.2, q=0.5, vocab_size=10)
        with pytest.raises(ValueError):
            MixtureConfig(n=100, p=0.2, q=-0.1, vocab_size=10)

    def test_q_floor(self):
        # q must keep the top probability at least 1/V
        with pytest.raises(ValueError):
            MixtureConfig(n=100, p=0.2, q=0.01, vocab_size=2)
        MixtureConfig(n=100, p=0.2, q=0.2, vocab_size=2)  # ok

    def test_derived_quantities(self):
        cfg = MixtureConfig(n=100, p=1.0, q=0.5, vocab_size=10)
        assert cfg.n_signal == 1  # ceil(100 * 0.01)
        cfg = MixtureConfig(n=100, p=0.0, q=0.5, vocab_size=10)
        assert cfg.n_signal == 100


class TestSampleMixture:
    def test_prefix_replacement(self):
        cfg = MixtureConfig(n=500, p=0.5, q=0.4, vocab_size=8, seed=1)
        mix, null = sample_mixture(cfg, substream(1, 0))
        k = cfg.n_signal
        assert np.array_equal(mix.y[k:], null.y[k:])
        assert np.all(mix.y[:k] != null.y[:k])

    def test_all_replaced_when_p_zero(self):
        cfg = MixtureConfig(n=200, p=0.0, q=0.4, vocab_size=8, seed=2)
        mix, null = sample_mixture(cfg, substream(2, 0))
        assert np.all(mix.y != null.y)

    def test_mixture_mean_larger(self):
        cfg = MixtureConfig(n=300, p=0.2, q=0.3, vocab_size=8, seed=3)
        diffs = []
        for t in range(300):
            mix, null = sample_mixture(cfg, substream(3, t))
            diffs.append(mix.y.mean() - null.y.mean())
        diffs = np.array(diffs)
        tstat = diffs.mean() / (diffs.std(ddof=1) / math.sqrt(diffs.size))
        assert tstat > 3.0

    def test_m1_mode_runs(self):
        cfg = MixtureConfig(n=100, p=0.2, q=0.4, vocab_size=12, ntp_mode="m1", seed=4)
        mix, null = sample_mixture(cfg, substream(4, 0))
        assert np.all((mix.y > 0) & (mix.y < 1))

    @pytest.mark.parametrize("mode, per_signal", [("m2", 1), ("m1", 3)])
    def test_stream_layout(self, mode, per_signal):
        # y0, then one uniform per signal entry; m1 adds make_m1's two shape draws
        cfg = MixtureConfig(n=300, p=0.3, q=0.4, vocab_size=12, ntp_mode=mode, seed=5)
        k = cfg.n_signal
        for t in range(3):
            rng = substream(5, t)
            _, null = sample_mixture(cfg, rng)
            assert np.array_equal(null.y, substream(5, t).random(cfg.n))
            fresh = substream(5, t)
            fresh.random(cfg.n + per_signal * k)
            assert rng.random() == fresh.random()


class TestHistogramStudy:
    def test_runs_and_reports_power(self):
        cfg = MixtureConfig(n=400, p=0.1, q=0.2, vocab_size=50, trials=60, seed=5)
        study = histogram_study(cfg, [2.0, 1.0], c_plus=1.0 / 400, alpha=0.05)
        assert set(study.power) == {2.0, 1.0}
        for s in (2.0, 1.0):
            assert study.samples[(s, "H0")].size == 60
        # strong-signal cell: power should be essentially 1
        assert study.power[2.0] > 0.9

    def test_null_samples_invariant_to_pq(self):
        a = MixtureConfig(n=300, p=0.2, q=0.4, vocab_size=10, trials=25, seed=6)
        b = MixtureConfig(n=300, p=0.6, q=0.8, vocab_size=10, trials=25, seed=6)
        sa = histogram_study(a, [2.0], c_plus=0.0)
        sb = histogram_study(b, [2.0], c_plus=0.0)
        assert np.array_equal(sa.samples[(2.0, "H0")], sb.samples[(2.0, "H0")])

    def test_hc_variant(self):
        cfg = MixtureConfig(n=400, p=0.1, q=0.2, vocab_size=50, trials=60, seed=7)
        out = hc_histogram_study(cfg, c_plus=1.0 / 400, alpha=0.05)
        assert out["power"] > 0.9


class TestBoundaryGrid:
    def test_resolve_c_plus(self):
        assert resolve_c_plus("0", 100) == 0.0
        assert resolve_c_plus("1/n", 100) == 0.01
        assert resolve_c_plus("1/n2", 100) == 1e-4
        assert resolve_c_plus(0.003, 100) == 0.003
        with pytest.raises(ValueError):
            resolve_c_plus("huh", 100)

    def test_grid_points(self):
        g = grid_points(0.0, 30.0, 1000)
        assert g.size == 1000 and g[0] == 0.0 and g[-1] == 30.0
        assert g[1] == pytest.approx(30.0 / 999)

    def test_cell_easy_vs_hard(self):
        specs = [BoundarySpec(name="trgof", kind="trgof", s=2.0, c_plus_rule="1/n")]
        easy = MixtureConfig(n=1000, p=0.1, q=0.2, vocab_size=100, trials=60, seed=8)
        hard = MixtureConfig(n=1000, p=0.6, q=0.8, vocab_size=100, trials=60, seed=8)
        e = min_error_cell(easy, specs)["trgof"]
        h = min_error_cell(hard, specs)["trgof"]
        assert e < 0.2
        assert h > 0.7

    def test_sum_rules_separate_easy_cell(self):
        # every rule separates this cell; searching the registered critical
        # grids instead of the exact sweep cannot show it for ars (the grid
        # starts above all null sums) or log (it stops at the null mean)
        specs = [
            BoundarySpec(name=k.name, kind="sum", score_kind=k, crit_grid=SUM_CRIT_GRIDS[k.name])
            for k in (ARS, LOG, ind(0.5), opt(0.1))
        ]
        easy = MixtureConfig(n=1000, p=0.1, q=0.2, vocab_size=100, trials=60, seed=8)
        errs = min_error_cell(easy, specs)
        for name, err in errs.items():
            assert err < 0.2, f"{name}: {err}"

    def test_rows_structure(self):
        grid = ExperimentGrid(p_values=(0.1, 0.5), q_values=(0.3, 0.6), n=300, trials=20, seed=9)
        specs = [
            BoundarySpec(name="trgof", kind="trgof", s=2.0),
            BoundarySpec(name="ars", kind="sum", score_kind=ARS),
        ]
        rows = boundary_grid(grid, specs, vocab_size=20)
        assert len(rows) == 2 * 2 * 2
        assert {r["name"] for r in rows} == {"trgof", "ars"}
        assert all(0.0 <= r["min_error_sum"] <= 2.0 for r in rows)


class TestEntropyGapCheck:
    def test_log_gap_closed_form(self):
        # 1 - sum P^2 at P = (0.6, 0.4): 1 - 0.52 = 0.48
        lo, hi = analytic_gap_bounds(np.array([0.6, 0.4]), LOG)
        assert lo == hi == pytest.approx(0.48, abs=1e-12)
        rows = entropy_gap_check(np.array([0.6, 0.4]), [LOG], trials=200_000, seed=10)
        assert rows[0].passed
        assert rows[0].gap_mc == pytest.approx(0.48, abs=0.01)

    def test_ind_gap_closed_form(self):
        # delta - F(delta) at P = (0.5, 0.5): 0.5 - 0.25
        lo, hi = analytic_gap_bounds(np.array([0.5, 0.5]), ind(0.5))
        assert lo == hi == pytest.approx(0.25, abs=1e-12)
        rows = entropy_gap_check(np.array([0.5, 0.5]), [ind(0.5)], trials=200_000, seed=11)
        assert rows[0].passed

    def test_ars_gap_bounds(self):
        # gap within [(pi^2/6 - 1) Ent, Ent] with Ent = log 2
        rows = entropy_gap_check(np.array([0.5, 0.5]), [ARS], trials=200_000, seed=12)
        row = rows[0]
        assert row.lower == pytest.approx(PI2_OVER_6_MINUS_1 * math.log(2), abs=1e-12)
        assert row.upper == pytest.approx(math.log(2), abs=1e-12)
        assert row.passed
        assert row.lower - 4 * row.se <= row.gap_mc <= row.upper + 4 * row.se

    def test_opt_gap_via_quadrature(self):
        rows = entropy_gap_check(make_m2(0.3, 5), [opt(0.3)], trials=200_000, seed=13)
        assert rows[0].passed


class TestHistogramPowerRegime:
    def test_detectable_cell_power(self):
        # q + 2p = 0.9 < 1 at n = |W| = 1000: power well above 0.5 at alpha 0.05
        cfg = MixtureConfig(n=1000, p=0.2, q=0.5, vocab_size=1000, trials=200, seed=20)
        study = histogram_study(cfg, [2.0], c_plus=1.0 / 1000**2, alpha=0.05)
        assert study.power[2.0] > 0.5
