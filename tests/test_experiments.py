import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from gumbelmark import (
    ARS,
    LOG,
    BoundarySpec,
    MixtureConfig,
    SumScore,
    TrGoF,
    alt_pdf,
    boundary_grid,
    critical_value,
    entropy_gap_check,
    histogram_study,
    ind,
    make_m1,
    make_m2,
    opt,
    sample_mixture,
    score,
)
from gumbelmark import experiments
from gumbelmark.calibrate import tradeoff_curve
from gumbelmark.experiments import (
    M1_BLOCK_VALUES,
    NTP_MODES,
    PI2_OVER_6_MINUS_1,
    SUM_CRIT_GRIDS,
    analytic_gap_bounds,
    min_error_cell,
    resolve_c_plus,
)
from gumbelmark.detectors import trgof_stat
from gumbelmark.pivotal import _grouped
from gumbelmark.streams import substream
from gumbelmark.tokensource import M1_A_RANGE, M1_B_RANGE


def loop_make_m1(delta, vocab_size, rng):
    """The per-entry m1 law: two rng.uniform shape draws, then one vector."""
    a = rng.uniform(*M1_A_RANGE)
    b = rng.uniform(*M1_B_RANGE)
    tail = (np.arange(1, vocab_size) + b) ** (-a)
    tail *= delta / tail.sum()
    return np.concatenate(([1.0 - delta], tail))


def loop_alt_sample(probs, u):
    """One draw with a scalar u over np.unique groups of probs."""
    vals, counts = _grouped(probs)
    weights = counts * vals
    edges = np.concatenate(([0.0], np.cumsum(weights)))
    g = min(np.searchsorted(edges[1:], u, side="right"), vals.size - 1)
    v = (u - edges[g]) / weights[g]
    return float(np.clip(v ** vals[g], np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))


def loop_sample_mixture(cfg, rng):
    """The m1 mixture drawn one signal entry at a time: the oracle for the batch."""
    y0 = rng.random(cfg.n)
    y1 = y0.copy()
    u = rng.random(cfg.n_signal)
    for i in range(cfg.n_signal):
        y1[i] = loop_alt_sample(loop_make_m1(cfg.delta, cfg.vocab_size, rng), u[i])
    return y1, y0


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

    def test_degenerate_length_and_trials(self):
        # n < 2 has no q floor (log n = 0) and no trials leaves no statistics
        for n in (1, 0):
            with pytest.raises(ValueError, match="need n >= 2"):
                MixtureConfig(n=n, p=0.5, q=0.5, vocab_size=10)
        with pytest.raises(ValueError, match="need trials >= 1"):
            MixtureConfig(n=100, p=0.5, q=0.5, vocab_size=10, trials=0)

    def test_derived_quantities(self):
        cfg = MixtureConfig(n=100, p=1.0, q=0.5, vocab_size=10)
        assert cfg.n_signal == 1  # ceil(100 * 0.01)
        cfg = MixtureConfig(n=100, p=0.0, q=0.5, vocab_size=10)
        assert cfg.n_signal == 100


class TestSampleMixture:
    def test_prefix_replacement(self):
        # min_error_cell rescores only the first k entries of the mixture, so it
        # relies on the mixture equalling its null everywhere past them
        for mode in NTP_MODES:
            for p, k in ((0.5, 23), (1.0, 1), (0.0, 500)):
                cfg = MixtureConfig(n=500, p=p, q=0.4, vocab_size=8, ntp_mode=mode, seed=1)
                mix, null = sample_mixture(cfg, substream(1, 0))
                assert cfg.n_signal == k
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

    @pytest.mark.parametrize("n, p, q, vocab", [
        pytest.param(1000, 0.5, 0.4, 1000, id="benchmark_cell"),
        pytest.param(200, 0.3, 0.4, 2, id="V2"),
        # top 1/3 under the first tail entry: sorted order differs from construction order
        pytest.param(300, 0.3, math.log(1.5) / math.log(300), 3, id="V3_q_min"),
        pytest.param(300, 0.0, 0.4, 20, id="p0_all_replaced"),
        # 70 laws at 4 per block: 18 blocks, the last one partial
        pytest.param(200, 0.2, 0.4, 4000, id="many_blocks"),
    ])
    def test_m1_matches_per_entry_loop(self, n, p, q, vocab):
        cfg = MixtureConfig(n=n, p=p, q=q, vocab_size=vocab, ntp_mode="m1", seed=6)
        if vocab == 4000:
            assert cfg.n_signal * vocab > 10 * M1_BLOCK_VALUES
            assert cfg.n_signal % (M1_BLOCK_VALUES // vocab) != 0
        law = loop_make_m1(cfg.delta, vocab, substream(6, 0))
        assert np.array_equal(make_m1(cfg.delta, vocab, substream(6, 0)), law)
        if vocab == 3:
            assert law[0] < law[1]
        for t in range(4):
            mix, null = sample_mixture(cfg, substream(6, t))
            y1, y0 = loop_sample_mixture(cfg, substream(6, t))
            assert np.array_equal(null.y, y0)
            assert np.array_equal(mix.y, y1), t

    def test_m1_trial_memory_is_bounded(self):
        # 934 laws over V = 1000: the whole (k, V) table would take 7.5 MB per
        # temporary; blocks keep the trial's peak under a bound of 8 MB
        cfg = MixtureConfig(n=1000, p=0.01, q=0.4, vocab_size=1000, ntp_mode="m1", seed=7)
        assert cfg.n_signal == 934
        tracemalloc.start()
        try:
            sample_mixture(cfg, substream(7, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

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

    # sha256 of the mixture draws of each trial, recorded before the m2 law's
    # sampling table was memoised per cell; the V = 2 law at delta = 0.5 is one
    # group of ties
    M2_DRAW_SHA256 = [
        pytest.param(dict(n=10_000, p=0.25, q=0.4, vocab_size=1000, trials=3, seed=7),
                     "30d70ccd214a5c8d8cee2ca5d92eaa6eb8e441cb5dc5b7fc486ff65266500b20", id="criterion07"),
        pytest.param(dict(n=1000, p=0.5, q=0.4, vocab_size=1000, trials=5, seed=12),
                     "da90cfd42b7f21d6f111117db0f9b355938ce0b9503573420c9de993a4060b46", id="V1000"),
        pytest.param(dict(n=500, p=0.3, q=0.7, vocab_size=20, trials=5, seed=11),
                     "32b9f587d0b50a601be8d0b3cb4c35d0cc8a78d3b83011121ca0b6d8bc9114a8", id="V20"),
        pytest.param(dict(n=200, p=0.0, q=0.5, vocab_size=2, trials=5, seed=3),
                     "4ea82c2fca244c9325036680525ae60ea87c2441dbba9b591589aced7b482c04", id="V2"),
        pytest.param(dict(n=4, p=0.0, q=0.5, vocab_size=2, trials=50, seed=5),
                     "ba2d73784f3885b36972943dc99105fe01bc5ea06231b9e370de50c73a1a0320", id="V2_ties"),
    ]

    @pytest.mark.parametrize("cell, want", M2_DRAW_SHA256)
    def test_m2_draws_pinned(self, cell, want):
        cfg = MixtureConfig(**cell)
        h = hashlib.sha256()
        for t in range(cfg.trials):
            h.update(sample_mixture(cfg, substream(cfg.seed, t))[0].y.tobytes())
        assert h.hexdigest() == want

    def test_m2_table_is_read_only_and_distinct(self):
        cfg = MixtureConfig(n=1000, p=0.5, q=0.4, vocab_size=1000, seed=1)
        sample_mixture(cfg, substream(1, 0))
        table = experiments._m2_table(cfg.delta, cfg.vocab_size)
        assert experiments._m2_table(cfg.delta, cfg.vocab_size) is table
        assert table[0].tolist() == sorted(set(make_m2(cfg.delta, cfg.vocab_size).tolist()))
        for a in table:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5


def loop_histogram_study(cfg, s_values, c_plus, alpha):
    """The histogram study's own per-trial loop, with power at the exact
    critical value of each s: the oracle for the shared trial loop."""
    stats = {(s, hyp): np.empty(cfg.trials) for s in s_values for hyp in ("H0", "H1")}
    for t in range(cfg.trials):
        mix, null = sample_mixture(cfg, substream(cfg.seed, t))
        for s in s_values:
            stats[(s, "H0")][t] = trgof_stat(null, s, c_plus)
            stats[(s, "H1")][t] = trgof_stat(mix, s, c_plus)
    with np.errstate(divide="ignore"):
        samples = {key: np.log(cfg.n * arr) for key, arr in stats.items()}
    power = {s: float((stats[(s, "H1")] >= critical_value(TrGoF(s, c_plus), cfg.n, alpha)).mean())
             for s in s_values}
    return samples, power


class TestHistogramStudy:
    @pytest.mark.parametrize("mode", NTP_MODES)
    @pytest.mark.parametrize("c_plus", ["0", "1/n"])
    def test_matches_per_trial_loop(self, mode, c_plus):
        cfg = MixtureConfig(n=300, p=0.3, q=0.4, vocab_size=50, ntp_mode=mode, trials=30, seed=14)
        cp = resolve_c_plus(c_plus, cfg.n)
        study = histogram_study(cfg, [2.0, 1.0, 0.0], cp, alpha=0.1)
        samples, power = loop_histogram_study(cfg, [2.0, 1.0, 0.0], cp, alpha=0.1)
        assert list(study.samples) == list(samples)
        for key, arr in samples.items():
            assert np.array_equal(study.samples[key], arr), key
        assert study.power == power

    def test_repeated_s_is_studied_once(self):
        cfg = MixtureConfig(n=200, p=0.3, q=0.4, vocab_size=20, trials=10, seed=15)
        once = histogram_study(cfg, [2.0, 1.0], 0.0)
        twice = histogram_study(cfg, [2, 2.0, 1.0, 2.0], 0.0)
        assert list(twice.samples) == list(once.samples) and twice.power == once.power

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


class TestBoundaryGrid:
    def test_resolve_c_plus(self):
        assert resolve_c_plus("0", 100) == 0.0
        assert resolve_c_plus("1/n", 100) == 0.01
        assert resolve_c_plus("1/n2", 100) == 1e-4
        assert resolve_c_plus(0.003, 100) == 0.003
        with pytest.raises(ValueError):
            resolve_c_plus("huh", 100)

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

    # float.hex of each min error sum before the batched m1 draws and the
    # group-major densities; any change to a mixture draw or a score that moves
    # a trial across a threshold changes one of them
    GOLDEN = {
        "m1": {"trgof": "0x1.4ccccccccccccp-1", "ars": "0x1.999999999999ap-1", "log": "0x1.b333333333334p-1",
               "ind": "0x1.ccccccccccccdp-1", "opt": "0x1.8000000000000p-1"},
        "m2": {"trgof": "0x0.0p+0", "ars": "0x1.999999999999ap-3", "log": "0x1.4cccccccccccdp-1",
               "ind": "0x1.8000000000000p-1", "opt": "0x1.199999999999ap-1"},
    }

    @pytest.mark.parametrize("mode, n, p", [("m1", 1000, 0.5), ("m2", 10_000, 0.25)])
    def test_golden_error_sums(self, mode, n, p):
        # the m1 and criterion-07 m2 cells of the boundary benchmark, 20 trials
        specs = [BoundarySpec(name="trgof", kind="trgof", s=2.0, c_plus_rule="1/n")] + [
            BoundarySpec(name=k.name, kind="sum", score_kind=k) for k in (ARS, LOG, ind(0.5), opt(0.1))
        ]
        cfg = MixtureConfig(n=n, p=p, q=0.4, vocab_size=1000, ntp_mode=mode, trials=20, seed=7)
        errs = min_error_cell(cfg, specs)
        assert {name: err.hex() for name, err in errs.items()} == self.GOLDEN[mode]

    @pytest.mark.parametrize("mode", NTP_MODES)
    @pytest.mark.parametrize("p", [0.5, 1.0, 0.0], ids=["k=32", "k=1", "k=n"])
    def test_pair_statistics_are_sum_score_statistics(self, monkeypatch, mode, p):
        # the cell scores a trial's shared entries once and rescores only the
        # first k for the mixture; its statistics must equal SumScore's bit for bit
        kinds = (ARS, LOG, ind(0.5), opt(0.1))
        specs = [BoundarySpec(name="trgof", kind="trgof", s=2.0)] + [
            BoundarySpec(name=k.label(), kind="sum", score_kind=k) for k in kinds
        ]
        cfg = MixtureConfig(n=1000, p=p, q=0.4, vocab_size=50, ntp_mode=mode, trials=4, seed=12)
        seen = []
        monkeypatch.setattr(experiments, "tradeoff_curve",
                            lambda s0, s1: seen.append((s0, s1)) or tradeoff_curve(s0, s1))
        min_error_cell(cfg, specs)
        pairs = [sample_mixture(cfg, substream(cfg.seed, t)) for t in range(cfg.trials)]
        for kind, (s0, s1) in zip(kinds, seen[1:]):
            assert s0.tolist() == [SumScore(kind).statistic(null) for _, null in pairs]
            assert s1.tolist() == [SumScore(kind).statistic(mix) for mix, _ in pairs]

    def test_rows_structure(self):
        specs = [
            BoundarySpec(name="trgof", kind="trgof", s=2.0),
            BoundarySpec(name="ars", kind="sum", score_kind=ARS),
        ]
        rows = boundary_grid((0.1, 0.5), (0.3, 0.6), specs, n=300, vocab_size=20, trials=20, seed=9)
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

    def test_opt_gap_matches_scipy_quad(self):
        from scipy.integrate import quad

        for probs in (np.array([0.5, 0.5]), make_m2(0.4, 5), make_m2(0.3, 5)):
            for kind in (opt(0.1), opt(0.3)):
                want = quad(lambda y: score(y, kind) * (alt_pdf(probs, y) - 1.0), 0.0, 1.0, epsabs=1e-12,
                            limit=300)[0]
                lo, hi = analytic_gap_bounds(probs, kind)
                assert lo == hi and abs(lo - want) <= 1e-10, (probs, kind)


class TestHistogramPowerRegime:
    def test_detectable_cell_power(self):
        # q + 2p = 0.9 < 1 at n = |W| = 1000: power well above 0.5 at alpha 0.05
        cfg = MixtureConfig(n=1000, p=0.2, q=0.5, vocab_size=1000, trials=200, seed=20)
        study = histogram_study(cfg, [2.0], c_plus=1.0 / 1000**2, alpha=0.05)
        assert study.power[2.0] > 0.5
