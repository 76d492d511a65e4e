import itertools
import math
import tracemalloc

import numpy as np
import pytest

from gumbelmark import (
    ARS,
    LOG,
    BoundarySpec,
    HigherCriticism,
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
    BLOCK_VALUES,
    NTP_MODES,
    PI2_OVER_6_MINUS_1,
    SUM_CRIT_GRIDS,
    analytic_gap_bounds,
    min_error_cell,
)
from gumbelmark.detectors import resolve_c_plus, trgof_stat
from gumbelmark.streams import child_seed, substream
from gumbelmark.tokensource import M1_A_RANGE, M1_B_RANGE


def loop_make_m1(delta, vocab_size, rng):
    """The per-entry m1 law: two rng.uniform shape draws, then one vector."""
    a = rng.uniform(*M1_A_RANGE)
    b = rng.uniform(*M1_B_RANGE)
    tail = (np.arange(1, vocab_size) + b) ** (-a)
    tail *= delta / tail.sum()
    return np.concatenate(([1.0 - delta], tail))


def loop_alt_sample(probs, u):
    """One draw with a scalar u, walking the tokens of probs in order: the first
    whose running sum exceeds u, or, when the rounded total does not, the first
    that reaches the total."""
    edges = list(itertools.accumulate(probs.tolist()))
    w = next((i for i, e in enumerate(edges) if e > u), edges.index(edges[-1]))
    v = (u - (edges[w - 1] if w else 0.0)) / probs[w]
    return float(np.clip(v ** probs[w], np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0)))


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

    @pytest.mark.parametrize("n, p, q, vocab, reach", [
        pytest.param(1000, 0.5, 0.4, 1000, None, id="benchmark_cell"),
        pytest.param(200, 0.3, 0.4, 2, None, id="V2"),
        # top 1/3 under the first tail entry: the top token is not the likeliest
        pytest.param(300, 0.3, math.log(1.5) / math.log(300), 3, None, id="V3_q_min"),
        pytest.param(300, 0.0, 0.4, 20, None, id="p0_all_replaced"),
        # delta = 0.001: every signal draw takes the top token, and no law is built
        pytest.param(1000, 0.5, 1.0, 50, lambda tail, k, step: tail == 0, id="all_top"),
        # delta = 0.94: most draws reach the tail; trial 3 draws all 55 there
        pytest.param(300, 0.3, 0.01, 20, lambda tail, k, step: tail > k / 2, id="most_tail"),
        # 49 to 55 tail laws at 4 per block: 13 or 14 blocks, the last one partial
        pytest.param(200, 0.2, 0.05, 4000, lambda tail, k, step: tail > step and tail % step, id="many_blocks"),
    ])
    def test_m1_matches_per_entry_loop(self, n, p, q, vocab, reach):
        cfg = MixtureConfig(n=n, p=p, q=q, vocab_size=vocab, ntp_mode="m1", seed=6)
        law = loop_make_m1(cfg.delta, vocab, substream(6, 0))
        assert np.array_equal(make_m1(cfg.delta, vocab, substream(6, 0)), law)
        if vocab == 3:
            assert law[0] < law[1]
        for t in range(4):
            if reach is not None:  # the signal uniforms follow the n null ones
                rng = substream(6, t)
                rng.random(n)
                tail = int((rng.random(cfg.n_signal) >= 1.0 - cfg.delta).sum())
                assert reach(tail, cfg.n_signal, max(1, BLOCK_VALUES // vocab)), (t, tail)
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
        # y0, then one uniform per signal entry; m1 adds make_m1's two shape
        # draws. A block call takes the same values from each row's generator
        cfg = MixtureConfig(n=300, p=0.3, q=0.4, vocab_size=12, ntp_mode=mode, seed=5)
        k = cfg.n_signal
        ones = [substream(5, t) for t in range(3)]
        rows = [substream(5, t) for t in range(3)]
        block_null = sample_mixture(cfg, rows)[1].y
        for t, (one, row) in enumerate(zip(ones, rows)):
            _, null = sample_mixture(cfg, one)
            for got, rng in ((null.y, one), (block_null[t], row)):
                assert np.array_equal(got, substream(5, t).random(cfg.n))
                fresh = substream(5, t)
                fresh.random(cfg.n + per_signal * k)
                assert rng.random() == fresh.random()

    @pytest.mark.parametrize("mode, q, vocab, trials", [
        ("m2", 0.4, 50, 5),
        ("m1", 0.4, 50, 5),
        # delta = 0.77: most signal draws reach the tail, and the tail laws of
        # all rows fill 4 per block, so blocks straddle rows
        ("m1", 0.05, 4000, 7),
        ("m2", 0.4, 50, 1),
    ], ids=["m2", "m1", "m1_tail_blocks", "m2_one_row"])
    def test_block_rows_are_one_generator_calls(self, mode, q, vocab, trials):
        # row i of a block call equals the call on its i-th generator alone, bit for bit
        cfg = MixtureConfig(n=200, p=0.2, q=q, vocab_size=vocab, ntp_mode=mode, seed=16)
        mix, null = sample_mixture(cfg, [substream(16, t) for t in range(trials)])
        assert mix.y.shape == null.y.shape == (trials, cfg.n) and mix.n == null.n == cfg.n
        for t in range(trials):
            one_mix, one_null = sample_mixture(cfg, substream(16, t))
            assert np.array_equal(mix.y[t], one_mix.y) and np.array_equal(mix.p[t], one_mix.p), t
            assert np.array_equal(null.y[t], one_null.y) and np.array_equal(null.p[t], one_null.p), t

    # ten evenly spaced draws (every (size // 10)-th) of the signal entries of
    # a cell's trials, the first k of each, so that every pin is a draw of
    # the sampler and none a null uniform; recorded when the sampler began to
    # walk each law in token order, and re-pinned from the same sampler when
    # the pins moved from all n entries of each trial to its first k (the V2
    # cells, where k = n, kept their values). The V = 2 law at delta = 0.5 has
    # two tied tokens. The draws take numpy's SIMD power, whose kernels differ
    # in the last bit, so a pin holds to 2 ulp
    M2_DRAWS = [
        pytest.param(dict(n=10_000, p=0.25, q=0.4, vocab_size=1000, trials=3, seed=7),
                     [0.8376920338408568, 0.16437927796945276, 0.6941538160666055, 0.3527390151515233,
                      0.22709276105667747, 0.4297062824389222, 0.8600667436262908, 0.5315525599381364,
                      0.4374115074633643, 0.004514471786602891], id="criterion07"),
        pytest.param(dict(n=1000, p=0.5, q=0.4, vocab_size=1000, trials=5, seed=12),
                     [0.9663220358568271, 0.18143920844089811, 0.6825513251837031, 0.34324094038046904,
                      0.9314009826264059, 0.6556683428369334, 0.9090368200124074, 0.005555919562143768,
                      0.26338757536340857, 0.7618595003575294], id="V1000"),
        pytest.param(dict(n=500, p=0.3, q=0.7, vocab_size=20, trials=5, seed=11),
                     [0.9813778894566775, 0.19497950427751654, 0.3651867593852045, 0.5452817504111714,
                      0.08051728430364619, 0.8038050981600618, 0.7138211853746774, 0.13499920613801017,
                      0.6711081089302885, 0.7286668852772404], id="V20"),
        pytest.param(dict(n=200, p=0.0, q=0.5, vocab_size=2, trials=5, seed=3),
                     [0.20439708615790603, 0.48273806747312004, 0.37642412493896915, 0.19070285450882812,
                      0.1925763104499158, 0.9968737226921238, 0.35512481461964496, 0.2161364275052661,
                      0.20131307290396153, 0.7465681497825923], id="V2"),
        pytest.param(dict(n=4, p=0.0, q=0.5, vocab_size=2, trials=50, seed=5),
                     [0.49656498763314527, 0.328733161043964, 0.5095879736421441, 0.6105354438712849,
                      0.5289492582307853, 0.4856195775475223, 0.9806875723869038, 0.2304217567330003,
                      0.9559988184676176, 0.6413607605069236], id="V2_ties"),
    ]

    @pytest.mark.parametrize("cell, want", M2_DRAWS)
    def test_m2_draws_pinned(self, cell, want):
        cfg = MixtureConfig(**cell)
        k = cfg.n_signal
        draws = np.concatenate([sample_mixture(cfg, substream(cfg.seed, t))[0].y[:k] for t in range(cfg.trials)])
        want = np.array(want)
        assert np.all(np.abs(draws[:: draws.size // 10][:10] - want) <= 2.0 * np.spacing(want))

    def test_m2_table_is_read_only_law_and_running_sum(self):
        cfg = MixtureConfig(n=1000, p=0.5, q=0.4, vocab_size=1000, seed=1)
        sample_mixture(cfg, substream(1, 0))
        table = experiments._m2_table(cfg.delta, cfg.vocab_size)
        assert experiments._m2_table(cfg.delta, cfg.vocab_size) is table
        law = make_m2(cfg.delta, cfg.vocab_size)
        assert np.array_equal(table[0], law) and np.array_equal(table[1], np.cumsum(law))
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


def loop_trial_statistics(cfg, detectors):
    """Each detector's own statistic of each trial's pair, drawn one trial at a
    time: the oracle for the blocks of trials that the studies score."""
    stats = {key: (np.empty(cfg.trials), np.empty(cfg.trials)) for key in detectors}
    for t in range(cfg.trials):
        mix, null = sample_mixture(cfg, substream(cfg.seed, t))
        for key, det in detectors.items():
            stats[key][0][t], stats[key][1][t] = det.statistic(null), det.statistic(mix)
    return stats


def record_block_rows(monkeypatch):
    """The number of trials of each ``sample_mixture`` call the studies make, in call order."""
    rows, sampler = [], experiments.sample_mixture
    monkeypatch.setattr(experiments, "sample_mixture", lambda cfg, rngs: rows.append(len(rngs)) or sampler(cfg, rngs))
    return rows


# n = 300: blocks of BLOCK_VALUES // 300 = 54 trials, so 120 trials make
# three blocks, the last one partial
BLOCK_CELL = dict(n=300, p=0.3, q=0.4, vocab_size=50, trials=120)
BLOCK_ROWS = [54, 54, 12]
# every detector kind a cell scores: TrGoF over its s range at two c+, HC and each sum rule
EVERY_DETECTOR = {
    **{(s, c): TrGoF(s, c) for s in (2.0, 1.5, 1.0, 0.5, 0.0, -0.5, -1.0) for c in (0.0, 0.003)},
    **{("hc", c): HigherCriticism(c_plus=c) for c in (0.0, 0.003)},
    **{k.label(): SumScore(k) for k in (ARS, LOG, ind(0.5), opt(0.1))},
}


class TestTrialBlocks:
    def test_rows_per_block(self, monkeypatch):
        # max(1, BLOCK_VALUES // n) trials per sampler call, the last block partial
        rows = record_block_rows(monkeypatch)
        for n, trials, want in ((300, 120, BLOCK_ROWS), (1000, 40, [16, 16, 8]), (16_384, 2, [1, 1]),
                                (20_000, 3, [1, 1, 1]), (10_000, 1, [1])):
            rows.clear()
            experiments._trial_statistics(MixtureConfig(n=n, p=0.5, q=0.4, vocab_size=20, trials=trials),
                                          {"ars": SumScore(ARS)})
            assert rows == want and want == [min(max(1, BLOCK_VALUES // n), trials - i)
                                             for i in range(0, trials, max(1, BLOCK_VALUES // n))]

    @pytest.mark.parametrize("mode", NTP_MODES)
    def test_statistics_match_per_trial_loop(self, monkeypatch, mode):
        cfg = MixtureConfig(**BLOCK_CELL, ntp_mode=mode, seed=17)
        rows = record_block_rows(monkeypatch)
        stats = experiments._trial_statistics(cfg, EVERY_DETECTOR)
        assert rows == BLOCK_ROWS
        monkeypatch.undo()
        want = loop_trial_statistics(cfg, EVERY_DETECTOR)
        assert list(stats) == list(want)
        for key, (s0, s1) in want.items():
            assert np.array_equal(stats[key][0], s0) and np.array_equal(stats[key][1], s1), key

    @pytest.mark.parametrize("mode", NTP_MODES)
    def test_min_error_cell_matches_per_trial_loop(self, monkeypatch, mode):
        specs = [BoundarySpec(name=f"trgof_{s:g}", kind="trgof", s=s, c_plus_rule=c)
                 for s in (2.0, 1.0, 0.0, -1.0) for c in ("0", "1/n")]
        specs += [BoundarySpec(name="hc", kind="hc")]
        specs += [BoundarySpec(name=k.label(), kind="sum", score_kind=k) for k in (ARS, LOG, ind(0.5), opt(0.1))]
        cfg = MixtureConfig(**BLOCK_CELL, ntp_mode=mode, seed=18)
        rows = record_block_rows(monkeypatch)
        errs = min_error_cell(cfg, specs)
        assert rows == BLOCK_ROWS
        monkeypatch.undo()
        stats = loop_trial_statistics(cfg, {sp.name: sp.detector(cfg.n) for sp in specs})
        assert errs == {name: float(tradeoff_curve(s0, s1).sum(axis=1).min()) for name, (s0, s1) in stats.items()}

    def test_memory_is_bounded_at_long_series(self):
        # bound set before the first run: the per-trial loop this replaced
        # peaked at 1.07 MB on this cell (tracemalloc, second call, numpy 2.4);
        # at n = 1e4 a block is one trial, so the peak stays under 1.2 MB
        bound = 1.2e6
        specs = [BoundarySpec(name=f"trgof_{s:g}", kind="trgof", s=s) for s in (2.0, 1.0)]
        specs += [BoundarySpec(name="hc", kind="hc")]
        specs += [BoundarySpec(name=k.label(), kind="sum", score_kind=k) for k in (ARS, LOG, ind(0.5), opt(0.1))]
        for mode in NTP_MODES:
            cfg = MixtureConfig(n=10_000, p=0.25, q=0.4, vocab_size=1000, ntp_mode=mode, trials=3, seed=7)
            assert max(1, BLOCK_VALUES // cfg.n) == 1
            detectors = {sp.name: sp.detector(cfg.n) for sp in specs}
            experiments._trial_statistics(cfg, detectors)  # the caches a cell builds once
            tracemalloc.start()
            try:
                experiments._trial_statistics(cfg, detectors)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (mode, peak)


class TestHistogramStudy:
    @pytest.mark.parametrize("mode", NTP_MODES)
    @pytest.mark.parametrize("c_plus", ["0", "1/n"])
    def test_matches_per_trial_loop(self, mode, c_plus):
        # three blocks of trials, the last one partial
        cfg = MixtureConfig(**BLOCK_CELL, ntp_mode=mode, seed=14)
        cp = resolve_c_plus(c_plus, cfg.n)
        study = histogram_study(cfg, [TrGoF(s, cp) for s in (2.0, 1.0, 0.0)], alpha=0.1)
        samples, power = loop_histogram_study(cfg, [2.0, 1.0, 0.0], cp, alpha=0.1)
        assert list(study.samples) == list(samples)
        for key, arr in samples.items():
            assert np.array_equal(study.samples[key], arr), key
        assert study.power == power

    def test_repeated_s_is_studied_once(self):
        cfg = MixtureConfig(n=200, p=0.3, q=0.4, vocab_size=20, trials=10, seed=15)
        once = histogram_study(cfg, [TrGoF(s, 0.0) for s in (2.0, 1.0)])
        twice = histogram_study(cfg, [TrGoF(s, 0.0) for s in (2, 2.0, 1.0, 2.0)])
        assert list(twice.samples) == list(once.samples) and twice.power == once.power

    def test_detectors_at_one_s_must_be_equal(self):
        cfg = MixtureConfig(n=200, p=0.3, q=0.4, vocab_size=20, trials=2, seed=15)
        with pytest.raises(ValueError, match="keyed by s"):
            histogram_study(cfg, [TrGoF(2.0, 0.0), TrGoF(2.0, 0.01)])

    def test_runs_and_reports_power(self):
        cfg = MixtureConfig(n=400, p=0.1, q=0.2, vocab_size=50, trials=60, seed=5)
        study = histogram_study(cfg, [TrGoF(s, 1.0 / 400) for s in (2.0, 1.0)], alpha=0.05)
        assert set(study.power) == {2.0, 1.0}
        for s in (2.0, 1.0):
            assert study.samples[(s, "H0")].size == 60
        # strong-signal cell: power should be essentially 1
        assert study.power[2.0] > 0.9

    def test_null_samples_invariant_to_pq(self):
        a = MixtureConfig(n=300, p=0.2, q=0.4, vocab_size=10, trials=25, seed=6)
        b = MixtureConfig(n=300, p=0.6, q=0.8, vocab_size=10, trials=25, seed=6)
        sa = histogram_study(a, [TrGoF(2.0, 0.0)])
        sb = histogram_study(b, [TrGoF(2.0, 0.0)])
        assert np.array_equal(sa.samples[(2.0, "H0")], sb.samples[(2.0, "H0")])


class TestBoundaryGrid:
    def test_resolve_c_plus(self):
        assert resolve_c_plus("0", 100) == 0.0
        assert resolve_c_plus("1/n", 100) == 0.01
        assert resolve_c_plus("1/n2", 100) == 1e-4
        assert resolve_c_plus(0.003, 100) == 0.003
        with pytest.raises(ValueError):
            resolve_c_plus("huh", 100)

    @pytest.mark.parametrize("fields, rule", [
        (dict(kind="trgof", s=3.0), r"s must lie in \[-1, 2\]"),
        (dict(kind="trgof", c_plus_rule=1.5), r"c_plus must lie in \[0, 1\]"),
        (dict(kind="trgof", c_plus_rule="1/m"), "unknown c_plus rule"),
        (dict(kind="sum"), "kind must be a ScoreKind"),
        (dict(kind="lrt"), "kind must be 'trgof', 'hc' or 'sum'"),
        (dict(kind="hc", c_plus_rule=1.5), r"c_plus must lie in \[0, 1\]"),
        (dict(kind="hc", c_plus_rule=-0.1), r"c_plus must lie in \[0, 1\]"),
        (dict(kind="hc", c_plus_rule=math.nan), r"c_plus must lie in \[0, 1\]"),
        (dict(kind="hc", c_plus_rule="1/m"), "unknown c_plus rule"),
    ], ids=["s", "c_plus_value", "c_plus_rule", "sum_without_score", "kind", "hc_c_plus_above", "hc_c_plus_below",
            "hc_c_plus_nan", "hc_c_plus_rule"])
    def test_spec_refuses_what_its_detector_refuses(self, fields, rule):
        # checked when the spec is built, not inside a cell's first trial
        with pytest.raises(ValueError, match=rule):
            BoundarySpec(name="t", **fields)

    def test_spec_builds_the_detector_at_each_length(self):
        assert BoundarySpec(name="t", kind="trgof", s=1.5).detector(400) == TrGoF(s=1.5, c_plus=1.0 / 400)
        assert BoundarySpec(name="t", kind="sum", score_kind=opt(0.1)).detector(400) == SumScore(opt(0.1))
        for rule in ("0", "1/n", "1/n2", 0.3):
            spec = BoundarySpec(name="hc", kind="hc", c_plus_rule=rule)
            for n in (1, 2, 300, 4000):
                det = spec.detector(n)
                assert type(det) is HigherCriticism and det == HigherCriticism(c_plus=resolve_c_plus(rule, n))

    def test_spec_reads_only_the_fields_of_its_kind(self):
        # an hc spec takes no s, and a sum spec no c+ rule
        assert BoundarySpec(name="t", kind="hc", s=3.0).detector(100) == HigherCriticism(c_plus=0.01)
        assert BoundarySpec(name="t", kind="sum", c_plus_rule=2.0, score_kind=LOG).detector(100) == SumScore(LOG)

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

    # float.hex of each min error sum since the sampler walks each law in token
    # order; any change to a mixture draw or a score that moves a trial across
    # a threshold changes one of them
    GOLDEN = {
        "m1": {"trgof": "0x1.6666666666666p-1", "ars": "0x1.999999999999ap-1", "log": "0x1.b333333333334p-1",
               "ind": "0x1.ccccccccccccdp-1", "opt": "0x1.8000000000000p-1"},
        "m2": {"trgof": "0x0.0p+0", "ars": "0x1.999999999999ap-3", "log": "0x1.4ccccccccccccp-1",
               "ind": "0x1.6666666666666p-1", "opt": "0x1.199999999999ap-1"},
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

    def test_cells_draw_spawned_streams(self, monkeypatch):
        # cell (i, j) seeds its trials with child_seed(seed, i, j); the earlier
        # seed + 1_000_003 i + 7919 j made --seed 7919 rerun --seed 0 one q over
        seeds = []
        monkeypatch.setattr(experiments, "min_error_cell", lambda cfg, specs: seeds.append(cfg.seed) or {})
        cells = {}
        for seed in (0, 7919, 1_000_003):
            seeds.clear()
            boundary_grid((0.1, 0.5), (0.3, 0.6, 0.9), [], n=300, vocab_size=20, trials=2, seed=seed)
            assert seeds == [child_seed(seed, i, j) for i in range(2) for j in range(3)]
            cells[seed] = set(seeds)
        assert len(set().union(*cells.values())) == 3 * 6


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
        study = histogram_study(cfg, [TrGoF(2.0, 1.0 / 1000**2)], alpha=0.05)
        assert study.power[2.0] > 0.5
