"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance is pinned
here; the suite covers the full synthetic pipeline at the stated scales.
"""

import math
import time

import numpy as np

from gumbelmark import (
    ARS,
    LOG,
    BoundarySpec,
    EditPlan,
    GenConfig,
    HigherCriticism,
    Key,
    MixtureConfig,
    ToySource,
    alt_cdf,
    apply_random_edit,
    generate,
    gumbel_decode,
    ind,
    make_m2,
    mc_critical,
    null_moments,
    opt,
    optimal_rate,
    pivot_series,
    rate_curve,
    score,
    tolerance_limit,
    trgof_stat,
    TrGoF,
)
from gumbelmark.experiments import (
    SUM_CRIT_GRIDS,
    entropy_gap_check,
    min_error_cell,
    sample_mixture,
)
from gumbelmark.pivotal import alt_pdf
from gumbelmark.streams import child_seed, substream

from util import empirical_quantile, hc_reference, ks_distance, least_favorable


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_hc_identity():
    """n S_n^+(2) equals max(HC_n^+, 0)^2 / 2 to 1e-9 relative error."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 10, 400):
        for _ in range(1000):
            p = rng.random(n)
            lhs = n * trgof_stat(p, 2.0, 1.0 / n)
            rhs = 0.5 * max(hc_reference(p, 1.0 / n), 0.0) ** 2
            worst = max(worst, abs(lhs - rhs) / max(1.0, lhs))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(1, ok, f"max relative error {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_02_decoder_unbiasedness():
    """TV(empirical, P) < 0.005 over 1e6 true-random draws, P = M2(0.4, 5)."""
    t0 = time.monotonic()
    p = make_m2(0.4, 5)
    rng = np.random.default_rng(102)
    xi = rng.random((1_000_000, 5)).clip(1e-12, 1.0 - 1e-12)
    tokens = gumbel_decode(p, xi)
    freq = np.bincount(tokens, minlength=5) / tokens.size
    tv = 0.5 * float(np.abs(freq - p).sum())
    elapsed = time.monotonic() - t0
    ok = tv < 0.005 and elapsed < 10.0
    report(2, ok, f"TV distance {tv:.5f}, {elapsed:.1f}s")
    assert tv < 0.005
    assert elapsed < 10.0


def test_criterion_03_watermarked_pivot_law():
    """KS distance of 1e5 watermarked pivots from F_P <= 0.01."""
    t0 = time.monotonic()
    delta, vocab, m, n = 0.4, 5, 5, 400
    probs = make_m2(delta, vocab)
    pivots = []
    total = 0
    seq_idx = 0
    while total < 100_000 and seq_idx < 600:
        key = Key(b"pivot-law-%04d" % seq_idx)
        src = ToySource(vocab, (delta, delta), seed=child_seed(103, seq_idx, 0))
        prompt = substream(103, seq_idx, 1).integers(0, vocab, size=m).tolist()
        seq = generate(src, key, prompt, GenConfig(n=n, m=m, masking=True,
                                                   seed=child_seed(103, seq_idx, 2)))
        piv = pivot_series(seq, key, vocab)
        flags = np.array(seq.provenance[m:])
        w = piv.y[flags == "W"]
        pivots.append(w)
        total += w.size
        seq_idx += 1
    y = np.concatenate(pivots)[:100_000]
    assert y.size == 100_000
    dist = ks_distance(y, cdf=lambda r: alt_cdf(probs, r))
    elapsed = time.monotonic() - t0
    ok = dist <= 0.01 and elapsed < 10.0
    report(3, ok, f"KS distance {dist:.5f} over {y.size} watermarked pivots, {elapsed:.1f}s")
    assert dist <= 0.01
    assert elapsed < 10.0


def test_criterion_04_type_i_control():
    """GoF detector, s in {1, 2}, c+ = 1/n, mc_critical at alpha = 0.01, n = 400:
    fresh null rejection rate in [0.006, 0.014] over 5e3 trials."""
    t0 = time.monotonic()
    n, alpha, trials = 400, 0.01, 5000
    rates = {}
    for s in (1.0, 2.0):
        det = TrGoF(s=s, c_plus=1.0 / n)
        crit = mc_critical(det, n, alpha, reps=10_000, outer=10, seed=2024)
        hits = 0
        for t in range(trials):
            y = substream(777, int(s), t).random(n)
            hits += det.statistic(y) >= crit
        rates[s] = hits / trials
    elapsed = time.monotonic() - t0
    ok = all(0.006 <= r <= 0.014 for r in rates.values()) and elapsed < 120.0
    report(4, ok, f"type I rates {rates}, {elapsed:.1f}s")
    for s, r in rates.items():
        assert 0.006 <= r <= 0.014, f"s={s}: {r}"
    assert elapsed < 120.0


def test_criterion_05_histogram_powers():
    """HC with c+ = 1/n at n = 1e4, N = 1e3: power >= 0.90 at (0.2, 0.5)
    and <= 0.20 at (0.5, 0.5), alpha = 0.01 from the empirical null quantile."""
    t0 = time.monotonic()
    n, trials, vocab, alpha = 10_000, 1000, 1000, 0.01
    powers = {}
    for i, (p, q) in enumerate([(0.2, 0.5), (0.5, 0.5)]):
        cfg = MixtureConfig(n=n, p=p, q=q, vocab_size=vocab, ntp_mode="m2",
                            trials=trials, seed=500 + i)
        hc = HigherCriticism(c_plus=1.0 / n)
        h0, h1 = np.empty(trials), np.empty(trials)
        for t in range(trials):
            mix, null = sample_mixture(cfg, substream(cfg.seed, t))
            h0[t], h1[t] = hc.statistic(null), hc.statistic(mix)
        powers[(p, q)] = float((h1 > empirical_quantile(h0, 1.0 - alpha)).mean())
    elapsed = time.monotonic() - t0
    ok = powers[(0.2, 0.5)] >= 0.90 and powers[(0.5, 0.5)] <= 0.20 and elapsed < 600.0
    report(5, ok, f"power(0.2,0.5)={powers[(0.2, 0.5)]:.3f}, "
                  f"power(0.5,0.5)={powers[(0.5, 0.5)]:.3f}, {elapsed:.0f}s")
    assert powers[(0.2, 0.5)] >= 0.90
    assert powers[(0.5, 0.5)] <= 0.20
    assert elapsed < 600.0


def _trgof_cell(p, q, n, trials, vocab, seed):
    cfg = MixtureConfig(n=n, p=p, q=q, vocab_size=vocab, ntp_mode="m2",
                        trials=trials, seed=seed)
    spec = BoundarySpec(name="trgof", kind="trgof", s=2.0, c_plus_rule="1/n")
    return min_error_cell(cfg, [spec])["trgof"]


def test_criterion_06_phase_transition():
    """GoF detector s = 2 along q = 0.4 at n = 1e4 (flat tail, |W| = 5, N = 300):
    min error sum < 0.2 at p = 0.15, > 0.8 at p = 0.45, and the 0.5 crossing
    falls inside p in [0.2, 0.4] (theory: p = (1 - q)/2 = 0.3)."""
    t0 = time.monotonic()
    n, trials, vocab, q = 10_000, 300, 5, 0.4
    p_grid = [0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45]
    errs = [_trgof_cell(p, q, n, trials, vocab, seed=600 + i) for i, p in enumerate(p_grid)]
    crossing = None
    for (p0, e0), (p1, e1) in zip(zip(p_grid, errs), zip(p_grid[1:], errs[1:])):
        if e0 < 0.5 <= e1:
            crossing = p0 + (0.5 - e0) / (e1 - e0) * (p1 - p0)
            break
    elapsed = time.monotonic() - t0
    ok = (errs[0] < 0.2 and errs[-1] > 0.8 and crossing is not None
          and 0.2 <= crossing <= 0.4 and elapsed < 1200.0)
    report(6, ok, f"errors along p {dict(zip(p_grid, [round(e, 3) for e in errs]))}, "
                  f"0.5-crossing at p={crossing}, {elapsed:.0f}s")
    assert errs[0] < 0.2, f"p=0.15: {errs[0]}"
    assert errs[-1] > 0.8, f"p=0.45: {errs[-1]}"
    assert crossing is not None and 0.2 <= crossing <= 0.4
    assert elapsed < 1200.0


def test_criterion_07_sum_rule_suboptimality():
    """At (p, q) = (0.25, 0.4), V = 1000, m2, N = 300 trials per n: GoF (s=2)
    min error sum < 0.3 at n = 1e3, 1e4 and 1e5, while every sum rule (ars,
    log, ind 0.5, opt 0.1) has a larger min error sum at n = 1e5 than at
    n = 1e3, and log and ind exceed 0.7 at n = 1e4.

    Sum-rule suboptimality is asymptotic: the Gaussian limit of each sum has
    noncentrality of order n^(1/2 - p - q) log(V n^q), which falls with n on
    this cell. At n = 1e4 that limit puts log and ind near 0.8 but ars near
    0.20 and opt near 0.63, so a fixed 0.7 bound holds there for log and ind
    only; the rise in n is what the theory states for all four.
    """
    t0 = time.monotonic()
    specs = [
        BoundarySpec(name="trgof", kind="trgof", s=2.0, c_plus_rule="1/n"),
        BoundarySpec(name="ars", kind="sum", score_kind=ARS, crit_grid=SUM_CRIT_GRIDS["ars"]),
        BoundarySpec(name="log", kind="sum", score_kind=LOG, crit_grid=SUM_CRIT_GRIDS["log"]),
        BoundarySpec(name="ind", kind="sum", score_kind=ind(0.5), crit_grid=SUM_CRIT_GRIDS["ind"]),
        BoundarySpec(name="opt", kind="sum", score_kind=opt(0.1), crit_grid=SUM_CRIT_GRIDS["opt"]),
    ]
    sums = ("ars", "log", "ind", "opt")
    errs = {}
    for n, seed in ((1_000, 699), (10_000, 700), (100_000, 701)):
        cfg = MixtureConfig(n=n, p=0.25, q=0.4, vocab_size=1000, ntp_mode="m2",
                            trials=300, seed=seed)
        errs[n] = min_error_cell(cfg, specs)
    elapsed = time.monotonic() - t0
    lo, mid, hi = errs[1_000], errs[10_000], errs[100_000]
    ok = (all(e["trgof"] < 0.3 for e in errs.values())
          and all(mid[h] > 0.7 for h in ("log", "ind"))
          and all(hi[h] > lo[h] for h in sums)
          and elapsed < 1200.0)
    report(7, ok, "min error sums " + "; ".join(
        f"n={n}: {dict((k, round(v, 3)) for k, v in e.items())}" for n, e in errs.items()
    ) + f", {elapsed:.0f}s")
    for n, e in errs.items():
        assert e["trgof"] < 0.3, f"trgof at n={n}: {e['trgof']}"
    for h in ("log", "ind"):
        assert mid[h] > 0.7, f"{h} at n=1e4: {mid[h]}"
    for h in sums:
        assert hi[h] > lo[h], f"{h}: n=1e3 {lo[h]} -> n=1e5 {hi[h]}"
    assert elapsed < 1200.0


def test_criterion_08_null_score_moments():
    """Closed-form null moments exact to 1e-10; quadrature opt mean within
    3 SE of a 1e7-sample Monte Carlo oracle."""
    assert null_moments(ARS) == (1.0, 1.0)
    assert null_moments(LOG) == (-1.0, 1.0)
    for d in (0.3, 0.5, 0.7):
        mean, var = null_moments(ind(d))
        assert abs(mean - (1.0 - d)) <= 1e-10
        assert abs(var - d * (1.0 - d)) <= 1e-10
    details = []
    ok = True
    rng = np.random.default_rng(108)
    y = rng.random(10_000_000).clip(1e-12, 1 - 1e-12)
    for d0 in (0.1, 0.4):
        kind = opt(d0)
        mean, _ = null_moments(kind)
        draws = score(y, kind)
        se = draws.std() / math.sqrt(draws.size)
        dev = abs(draws.mean() - mean) / se
        details.append(f"opt({d0}): |mc-quad| = {dev:.2f} se")
        ok = ok and dev <= 3.0
        assert dev <= 3.0
    report(8, ok, "; ".join(details))


def test_criterion_09_expectation_gaps():
    """h_ars gap within [(pi^2/6 - 1) log 2, log 2] at P = (0.5, 0.5); h_log
    and h_ind gaps match closed forms within 4 MC standard errors at 1e6."""
    half = np.array([0.5, 0.5])
    rows_ars = entropy_gap_check(half, [ARS], trials=1_000_000, seed=109)
    ars_row = rows_ars[0]
    in_bounds = ars_row.lower <= ars_row.gap_mc <= ars_row.upper
    rows_li = entropy_gap_check(np.array([0.6, 0.4]), [LOG], trials=1_000_000, seed=110)
    log_row = rows_li[0]
    log_ok = abs(log_row.gap_mc - 0.48) <= 4 * log_row.se
    rows_ind = entropy_gap_check(half, [ind(0.5)], trials=1_000_000, seed=111)
    ind_row = rows_ind[0]
    ind_ok = abs(ind_row.gap_mc - 0.25) <= 4 * ind_row.se
    ok = in_bounds and log_ok and ind_ok
    report(9, ok, f"ars gap {ars_row.gap_mc:.4f} in [{ars_row.lower:.4f}, {ars_row.upper:.4f}]; "
                  f"log gap {log_row.gap_mc:.4f} (want 0.48); ind gap {ind_row.gap_mc:.4f} (want 0.25)")
    assert in_bounds
    assert log_ok
    assert ind_ok


def test_criterion_10_efficiency_curve():
    """Optimal rate monotone on delta in [0.01, 0.9] for eps in {0.5, 1};
    continuous with detectable slope kinks at 1/2 and 2/3; quadrature matches
    a 1e7-sample MC oracle within 3 SE at 5 spot checks."""
    t0 = time.monotonic()
    deltas = np.arange(0.01, 0.9001, 0.005)
    monotone = True
    for eps in (0.5, 1.0):
        rates = rate_curve(deltas, eps)[:, 2]
        monotone = monotone and bool(np.all(np.diff(rates) >= -1e-12))
    kinks_ok = True
    h = 1e-4
    for d0 in (0.5, 2.0 / 3.0):
        left = optimal_rate(d0 - h, 1.0)
        mid = optimal_rate(d0, 1.0)
        right = optimal_rate(d0 + h, 1.0)
        gap = abs(right - left)
        jump = abs((right - mid) / h - (mid - left) / h)
        kinks_ok = kinks_ok and gap <= 1e-2 and jump >= 10 * gap
    rng = np.random.default_rng(112)
    y = rng.random(10_000_000)
    mc_ok = True
    devs = []
    for d, e in ((0.4, 1.0), (0.3, 0.5), (0.6, 1.0), (0.55, 0.5), (0.8, 1.0)):
        vals = -np.log((1 - e) + e * alt_pdf(least_favorable(d), y))
        se = vals.std() / math.sqrt(y.size)
        dev = float(abs(optimal_rate(d, e) - vals.mean()) / se)
        devs.append(round(dev, 2))
        mc_ok = mc_ok and dev <= 3.0
    elapsed = time.monotonic() - t0
    ok = monotone and kinks_ok and mc_ok and elapsed < 60.0
    report(10, ok, f"monotone={monotone}, kinks={kinks_ok}, mc devs (se units) {devs}, {elapsed:.0f}s")
    assert monotone
    assert kinks_ok
    assert mc_ok
    assert elapsed < 60.0


def test_criterion_11_edit_locality():
    """One substitution changes at most m + 1 = 6 pivots (100 sequences)."""
    key = Key(b"locality")
    vocab, m = 20, 5
    worst = 0
    for i in range(100):
        src = ToySource(vocab, (0.35, 0.35), seed=child_seed(113, i, 0))
        prompt = substream(113, i, 1).integers(0, vocab, size=m).tolist()
        seq = generate(src, key, prompt, GenConfig(n=60, m=m, masking=True,
                                                   seed=child_seed(113, i, 2)))
        before = pivot_series(seq, key, vocab).y
        edited = apply_random_edit(seq, "sub", 1e-9, vocab, seed=1000 + i)
        after = pivot_series(edited, key, vocab).y
        changed = int((before != after).sum())
        worst = max(worst, changed)
    ok = worst <= m + 1
    report(11, ok, f"max pivots changed by one substitution: {worst} (bound {m + 1})")
    assert worst <= m + 1


class _BudgetDetector:
    def __init__(self, original, budget):
        self.original = list(original)
        self.budget = budget

    def __call__(self, seq) -> bool:
        diffs = sum(a != b for a, b in zip(seq.tokens, self.original))
        return diffs <= self.budget


def test_criterion_12_tolerance_bisection():
    """Algorithm-2 bisection equals the linear-scan oracle for monotone
    detectors: 50 random cases at n0 = 50."""
    vocab, m, n0, n_test = 1000, 5, 50, 55
    mismatches = 0
    rng = np.random.default_rng(114)
    for case in range(50):
        src = ToySource(vocab, (0.3, 0.3), seed=child_seed(115, case, 0))
        prompt = substream(115, case, 1).integers(0, vocab, size=m).tolist()
        key = Key(b"tol-%03d" % case)
        seq = generate(src, key, prompt, GenConfig(n=n0, m=m, masking=True,
                                                   seed=child_seed(115, case, 2)))
        detector = _BudgetDetector(seq.tokens, budget=int(rng.integers(0, 41)))
        edit_seed = child_seed(115, case, 3)
        got = tolerance_limit(seq, "sub", detector, n_test=n_test, seed=edit_seed,
                              vocab_size=vocab)
        plan = EditPlan(seq, "sub", vocab, seed=edit_seed)
        best = 0
        for k in range(1, plan.n_editable + 1):
            if detector(plan.apply(k).head(n_test)):
                best = k
            else:
                break
        if abs(got.fraction - best / plan.n_editable) > 1e-12:
            mismatches += 1
    ok = mismatches == 0
    report(12, ok, f"{mismatches} mismatches out of 50 cases")
    assert mismatches == 0
