from dataclasses import replace

import numpy as np
import pytest

from gumbelmark import (
    GenConfig,
    Key,
    TokenSeq,
    ToySource,
    generate,
    generate_null,
    gumbel_decode,
    make_m2,
    prf_vector,
    toy_next_dist,
)
from gumbelmark import watermark

from util import ks_critical, ks_distance


class TestGumbelDecode:
    def test_degenerate(self):
        for xi in ([0.2, 0.9, 0.5], [0.99, 0.01, 0.5]):
            assert gumbel_decode([1.0, 0.0, 0.0], xi) == 0

    def test_hand_example(self):
        # log(0.9)/0.5 = -0.2107 beats log(0.2)/0.5 = -3.2189
        assert gumbel_decode([0.5, 0.5], [0.9, 0.2]) == 0
        assert gumbel_decode([0.5, 0.5], [0.2, 0.9]) == 1

    def test_zero_prob_excluded(self):
        # token 1 has huge uniform but zero probability
        assert gumbel_decode([0.5, 0.0, 0.5], [0.1, 0.999999, 0.2]) == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gumbel_decode([0.5, 0.5], [0.1, 0.2, 0.3])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = make_m2(0.35, 6)
        xi = rng.random((64, 6)).clip(1e-9, 1 - 1e-9)
        batch = gumbel_decode(p, xi)
        singles = [gumbel_decode(p, row) for row in xi]
        assert np.array_equal(batch, singles)

    def test_unbiasedness_quick(self):
        # full 1e6-draw check lives in the acceptance suite
        p = make_m2(0.4, 5)
        rng = np.random.default_rng(1)
        xi = rng.random((100_000, 5)).clip(1e-12, 1 - 1e-12)
        toks = gumbel_decode(p, xi)
        freq = np.bincount(toks, minlength=5) / toks.size
        assert 0.5 * np.abs(freq - p).sum() < 0.01


class TestGenerate:
    key = Key(b"gen")
    prompt = [0, 1, 2, 3, 4]

    def test_masking_off_all_watermarked(self):
        src = ToySource(16, (0.3, 0.3), seed=2)
        seq = generate(src, self.key, self.prompt, GenConfig(n=50, m=5, masking=False, seed=0))
        assert seq.provenance[5:] == ["W"] * 50

    def test_deterministic(self):
        src = ToySource(16, (0.2, 0.5), seed=3)
        cfg = GenConfig(n=80, m=5, masking=True, seed=9)
        a = generate(src, self.key, self.prompt, cfg)
        b = generate(src, self.key, self.prompt, cfg)
        assert a.tokens == b.tokens and a.provenance == b.provenance

    def test_window_collision_forces_sampling(self):
        # vocab 2, 50 tokens: some 5-window must repeat, so masking kicks in
        src = ToySource(2, (0.4, 0.4), seed=4)
        seq = generate(src, self.key, [0, 1, 0, 1, 1], GenConfig(n=50, m=5, masking=True, seed=1))
        assert "S" in seq.provenance[5:]

    @pytest.mark.parametrize("seed", range(3))
    def test_first_generated_token_is_watermarked(self, seed):
        # the windows a prompt marks seen are the contexts of its own tokens
        # past the m-th: a prompt of exactly m tokens marks none, so the first
        # generated token is watermarked; a prompt that already used the first
        # token's context leaves it sampled
        src = ToySource(1000, (0.3, 0.3), seed=seed)
        cfg = GenConfig(n=5, m=5, masking=True, seed=seed)
        assert generate(src, self.key, self.prompt, cfg).provenance[5] == "W"
        assert generate(src, self.key, [0, 1, 0, 1], replace(cfg, m=2)).provenance[4] == "S"

    @pytest.mark.parametrize("vocab", [2, 5, 20])
    def test_watermarked_token_is_decoded_prf_vector(self, vocab):
        # generate hashes and decodes unchecked; each W token must be what the
        # public prf_vector and gumbel_decode give for its window and NTP vector
        src = ToySource(vocab, (0.1, 0.5), seed=8)
        prompt = [t % vocab for t in self.prompt]
        seq = generate(src, self.key, prompt, GenConfig(n=120, m=5, masking=True, seed=4))
        flagged = [t for t, c in enumerate(seq.provenance) if c == "W"]
        assert flagged
        for t in flagged:
            xi = prf_vector(self.key, seq.tokens[t - 5 : t], vocab)
            assert seq.tokens[t] == gumbel_decode(toy_next_dist(src, seq.tokens[:t]), xi)

    def test_prompt_too_short(self):
        src = ToySource(16, (0.3, 0.3), seed=5)
        with pytest.raises(ValueError):
            generate(src, self.key, [1, 2], GenConfig(n=10, m=5))

    def test_first_m_never_watermarked(self):
        with pytest.raises(ValueError):
            TokenSeq([1, 2, 3], ["W", "S", "S"], m=2)


class TestGenerateNull:
    def test_no_watermarked_positions(self):
        src = ToySource(16, (0.3, 0.3), seed=6)
        seq = generate_null(src, [0, 1, 2, 3, 4], GenConfig(n=60, m=5, seed=2))
        assert "W" not in seq.provenance
        assert seq.provenance[5:] == ["S"] * 60

    def test_deterministic(self):
        src = ToySource(16, (0.2, 0.5), seed=7)
        cfg = GenConfig(n=40, m=5, seed=3)
        assert generate_null(src, [0] * 5, cfg).tokens == generate_null(src, [0] * 5, cfg).tokens

    @pytest.mark.parametrize("prompt", [[99, 1, 2, 3, 4], [-1, 1, 2, 3, 4], [1, 2]],
                             ids=["id_above_vocab", "negative_id", "too_short"])
    def test_bad_prompt_rejected_like_generate(self, prompt):
        src = ToySource(20, (0.3, 0.3), seed=8)
        cfg = GenConfig(n=10, m=5, seed=1)
        with pytest.raises(ValueError) as null_err:
            generate_null(src, prompt, cfg)
        with pytest.raises(ValueError) as wm_err:
            generate(src, Key(b"k"), prompt, cfg)
        assert str(null_err.value) == str(wm_err.value)

    def test_generate_refuses_a_missing_key(self):
        # the shared loop samples every position when it has no key; only
        # generate_null may ask for that
        src = ToySource(20, (0.3, 0.3), seed=8)
        with pytest.raises(ValueError, match="generate_null"):
            generate(src, None, [0, 1, 2, 3, 4], GenConfig(n=10, m=5, seed=1))

    def test_null_pivots_uniform(self):
        # scored under an unrelated key, aggregated over many short runs
        from gumbelmark import pivot_series

        y_all = []
        for seed in range(60):
            src = ToySource(20, (0.3, 0.3), seed=seed)
            seq = generate_null(src, [0, 1, 2, 3, 4], GenConfig(n=300, m=5, seed=seed))
            y_all.append(pivot_series(seq, Key(b"verifier-%d" % seed), 20).y)
        y = np.concatenate(y_all)
        assert ks_distance(y) < ks_critical(y.size, 0.001)


def reference_generate(source, key, prompt, cfg):
    """The generation loop position by position: the law, its CDF and the
    window's uniforms are made afresh through the public functions."""
    tokens, prov = list(prompt), ["P"] * len(prompt)
    fallback = np.random.default_rng(cfg.seed)
    seen = {tuple(prompt[i : i + cfg.m]) for i in range(len(prompt) - cfg.m)} if cfg.masking else set()
    for _ in range(cfg.n):
        window = tuple(tokens[-cfg.m :])
        probs = toy_next_dist(source, tokens)
        if key is None or window in seen:
            u = fallback.random()
            tokens.append(min(int(np.searchsorted(np.cumsum(probs), u, side="right")), probs.size - 1))
            prov.append("S")
        else:
            tokens.append(gumbel_decode(probs, prf_vector(key, window, source.vocab_size)))
            prov.append("W")
        if cfg.masking:
            seen.add(window)
    return tokens, prov


def run_generation(source, key, prompt, cfg):
    seq = generate_null(source, prompt, cfg) if key is None else generate(source, key, prompt, cfg)
    return seq.tokens, seq.provenance


def count_law_calls(monkeypatch):
    """Record the last token of each ``toy_next_dist`` call generation makes."""
    calls = []

    def counted(source, history):
        calls.append(history[-1])
        return toy_next_dist(source, history)

    monkeypatch.setattr(watermark, "toy_next_dist", counted)
    return calls


class TestGenerationMatchesReference:
    """Generation memoises each law per last token, hashes from one keyed state
    and decodes unmasked; every token and flag equals the plain loop's."""

    @pytest.mark.parametrize("keyed", [True, False], ids=["key", "no_key"])
    @pytest.mark.parametrize("masking", [True, False], ids=["masking", "no_masking"])
    @pytest.mark.parametrize("vocab", [2, 20, 1000])
    def test_bit_identical(self, vocab, masking, keyed):
        src = ToySource(vocab, (0.1, 0.5), seed=vocab)
        key = Key(b"eq-%d" % vocab) if keyed else None
        prompt = [t % vocab for t in (3, 1, 4, 1, 5)]
        for seed in range(3):
            cfg = GenConfig(n=60 if vocab == 1000 else 200, m=5, masking=masking, seed=seed)
            got = run_generation(src, key, prompt, cfg)
            assert got == reference_generate(src, key, prompt, cfg)
            if keyed and vocab == 2 and masking:
                assert {"W", "S"} <= set(got[1])

    @pytest.mark.parametrize("keyed", [True, False], ids=["key", "no_key"])
    def test_each_law_is_made_once(self, keyed, monkeypatch):
        calls = count_law_calls(monkeypatch)
        src, cfg = ToySource(20, (0.1, 0.5), seed=2), GenConfig(n=200, m=5, seed=5)
        run_generation(src, Key(b"once") if keyed else None, [0, 1, 2, 3, 4], cfg)
        assert len(calls) == len(set(calls)) <= 20

    @pytest.mark.parametrize("keyed", [True, False], ids=["key", "no_key"])
    def test_full_memo_makes_the_rest_afresh(self, keyed, monkeypatch):
        # room for 3 of the 20 laws: the others are made at every position
        monkeypatch.setattr(watermark, "LAW_MEMO_FLOATS", 2 * 20 * 3 + 1)
        calls = count_law_calls(monkeypatch)
        src, key = ToySource(20, (0.1, 0.5), seed=2), Key(b"full") if keyed else None
        for masking in (True, False):
            cfg = GenConfig(n=200, m=5, masking=masking, seed=6)
            calls.clear()
            assert run_generation(src, key, [0, 1, 2, 3, 4], cfg) == reference_generate(src, key, [0, 1, 2, 3, 4], cfg)
            assert len(set(calls)) > 3 and len(calls) > len(set(calls))

    def test_zero_probability_entries_are_never_drawn(self):
        # delta = 5e-324 spreads over V - 1 = 2 tokens and rounds to 0 there;
        # unmasked, those entries score -inf just as gumbel_decode's mask gives
        src = ToySource(3, (5e-324, 5e-324), seed=1)
        assert np.count_nonzero(toy_next_dist(src, [0]) == 0.0) == 2
        for masking in (True, False):
            cfg = GenConfig(n=50, m=5, masking=masking, seed=2)
            got = run_generation(src, Key(b"zero"), [0, 1, 2, 0, 1], cfg)
            assert got == reference_generate(src, Key(b"zero"), [0, 1, 2, 0, 1], cfg)

    @pytest.mark.parametrize("delta", [1e-12, 1 - 1e-12])
    @pytest.mark.parametrize("vocab", [2, 32000])
    def test_toy_laws_are_positive_at_the_delta_ends(self, vocab, delta):
        src = ToySource(vocab, (delta, delta), seed=3)
        for last in range(min(vocab, 50)):
            assert toy_next_dist(src, [last]).min() > 0.0


class TestTokenSeqJson:
    def test_roundtrip(self):
        seq = TokenSeq([1, 2, 3, 4, 5, 9], ["P"] * 5 + ["W"], m=5)
        back = TokenSeq.from_json(seq.to_json())
        assert back.tokens == seq.tokens
        assert back.provenance == seq.provenance
        assert back.m == seq.m

    def test_head(self):
        seq = TokenSeq([1, 2, 3, 4], ["P", "P", "S", "S"], m=2)
        assert seq.head(3).tokens == [1, 2, 3]
