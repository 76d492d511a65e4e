import numpy as np
import pytest

from gumbelmark import (
    EditPlan,
    GenConfig,
    Key,
    ToySource,
    apply_adversarial_edit,
    apply_random_edit,
    generate,
    pivot_series,
    tolerance_limit,
)

VOCAB = 20
KEY = Key(b"edit-tests")


def make_seq(seed=0, n=80):
    src = ToySource(VOCAB, (0.35, 0.35), seed=seed)
    prompt = list(np.random.default_rng(seed).integers(0, VOCAB, size=5))
    return generate(src, KEY, prompt, GenConfig(n=n, m=5, masking=True, seed=seed))


class TestRandomEdits:
    def test_fraction_zero_noop(self):
        seq = make_seq()
        for kind in ("sub", "ins", "del"):
            out = apply_random_edit(seq, kind, 0.0, VOCAB, seed=1)
            assert out.tokens == seq.tokens
            assert out.provenance == seq.provenance

    def test_full_substitution(self):
        seq = make_seq()
        out = apply_random_edit(seq, "sub", 1.0, VOCAB, seed=2)
        gen = [c for c in out.provenance if c != "P"]
        assert gen == ["E"] * len(gen)
        assert out.provenance[:5] == ["P"] * 5

    def test_insertion_grows(self):
        seq = make_seq()
        out = apply_random_edit(seq, "ins", 0.25, VOCAB, seed=3)
        assert len(out) == len(seq) + int(np.ceil(0.25 * 80))
        assert out.tokens[:5] == seq.tokens[:5]

    def test_deletion_shrinks(self):
        seq = make_seq()
        out = apply_random_edit(seq, "del", 0.25, VOCAB, seed=4)
        assert len(out) == len(seq) - int(np.ceil(0.25 * 80))

    def test_deletion_leaves_enough(self):
        seq = make_seq(n=6)
        with pytest.raises(ValueError):
            apply_random_edit(seq, "del", 1.0, VOCAB, seed=5)

    def test_deterministic(self):
        seq = make_seq()
        args = ("sub", 0.3, VOCAB, 6)
        assert apply_random_edit(seq, *args).tokens == apply_random_edit(seq, *args).tokens

    def test_locality_single_substitution(self):
        # one substituted token can break at most m + 1 pivot windows
        for seed in range(20):
            seq = make_seq(seed=seed)
            before = pivot_series(seq, KEY, VOCAB).y
            out = apply_random_edit(seq, "sub", 1e-9, VOCAB, seed=seed)
            assert sum(c == "E" for c in out.provenance) == 1
            after = pivot_series(out, KEY, VOCAB).y
            assert (before != after).sum() <= seq.m + 1

    @pytest.mark.parametrize("fraction", [-0.1, 1.5])
    def test_fraction_outside_unit_interval_raises(self, fraction):
        with pytest.raises(ValueError, match="fraction"):
            apply_random_edit(make_seq(), "sub", fraction, VOCAB, seed=1)


class TestEditPlan:
    def test_rejects_adversarial_kind(self):
        # adversarial edits need the key; only apply_adversarial_edit makes them
        with pytest.raises(ValueError, match="apply_adversarial_edit"):
            EditPlan(make_seq(), "adv", VOCAB, seed=1)
        with pytest.raises(ValueError, match="apply_adversarial_edit"):
            apply_random_edit(make_seq(), "adv", 0.1, VOCAB, seed=1)

    @pytest.mark.parametrize("vocab_size", [0, 1])
    def test_rejects_vocab_below_two(self, vocab_size):
        with pytest.raises(ValueError, match="vocab size"):
            EditPlan(make_seq(), "sub", vocab_size, seed=1)


class TestAdversarialEdits:
    def test_fraction_zero_identity(self):
        seq = make_seq()
        out = apply_adversarial_edit(seq, 0.0, KEY, VOCAB, seed=1)
        assert out.tokens == seq.tokens

    def test_targets_largest_pivots(self):
        drops = []
        for seed in range(30):
            seq = make_seq(seed=seed, n=120)
            before = pivot_series(seq, KEY, VOCAB).y.mean()
            out = apply_adversarial_edit(seq, 0.1, KEY, VOCAB, seed=seed)
            after = pivot_series(out, KEY, VOCAB).y.mean()
            drops.append(before - after)
        assert np.mean(drops) > 0.0

    def test_edit_count(self):
        seq = make_seq(n=100)
        out = apply_adversarial_edit(seq, 0.05, KEY, VOCAB, seed=2)
        assert sum(c == "E" for c in out.provenance) == int(np.ceil(0.05 * 100))


class _DiffCountDetector:
    """Monotone stub: rejects while the edited text differs from the original
    in at most `budget` positions (substitution edits only)."""

    def __init__(self, original, budget):
        self.original = list(original)
        self.budget = budget

    def __call__(self, seq) -> bool:
        diffs = sum(a != b for a, b in zip(seq.tokens, self.original))
        return diffs <= self.budget


class TestToleranceLimit:
    def test_never_rejecting_detector(self):
        seq = make_seq(n=50)
        res = tolerance_limit(seq, "sub", lambda s: False, n_test=55, seed=1, vocab_size=VOCAB)
        assert res.fraction == 0.0
        assert res.rejected_unedited is False

    def test_always_rejecting_detector(self):
        seq = make_seq(n=50)
        res = tolerance_limit(seq, "sub", lambda s: True, n_test=55, seed=2, vocab_size=VOCAB)
        assert res.fraction == pytest.approx(49 / 50)
        assert res.rejected_unedited is True

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(7)
        for case in range(10):
            seq = make_seq(seed=case, n=50)
            detector = _DiffCountDetector(seq.tokens, budget=int(rng.integers(0, 41)))
            got = tolerance_limit(seq, "sub", detector, n_test=55, seed=100 + case,
                                  vocab_size=1000)
            plan = EditPlan(seq, "sub", 1000, seed=100 + case)
            best = 0
            for k in range(1, plan.n_editable + 1):
                if detector(plan.apply(k).head(55)):
                    best = k
                else:
                    break
            assert got.fraction == pytest.approx(best / plan.n_editable)


class TestAdversarialVsRandom:
    def test_adversarial_hurts_detector_more(self):
        # equal edit budgets: targeted removal of large pivots should depress
        # the goodness-of-fit statistic at least as much as random edits
        from gumbelmark import trgof_stat

        n, fraction, trials = 200, 0.1, 120
        adv_stats, rnd_stats = [], []
        for seed in range(trials):
            seq = make_seq(seed=seed, n=n)
            adv = apply_adversarial_edit(seq, fraction, KEY, VOCAB, seed=seed)
            rnd = apply_random_edit(seq, "sub", fraction, VOCAB, seed=seed)
            cp = 1.0 / (n)
            adv_stats.append(trgof_stat(pivot_series(adv, KEY, VOCAB), 2.0, cp))
            rnd_stats.append(trgof_stat(pivot_series(rnd, KEY, VOCAB), 2.0, cp))
        assert np.mean(adv_stats) < np.mean(rnd_stats)
