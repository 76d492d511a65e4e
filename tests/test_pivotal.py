import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from gumbelmark import (
    GenConfig,
    Key,
    PivotSeries,
    ToySource,
    alt_cdf,
    alt_pdf,
    alt_sample,
    generate,
    least_favorable,
    make_m1,
    make_m2,
    opt,
    pivot_series,
    score,
)
from gumbelmark.pivotal import (_grouped, _grouped_log_pdf, _grouped_pdf, _null_expectation, _sampling_table,
                                _table_sample)
from gumbelmark.tokensource import least_favorable_atoms
from gumbelmark.prf import DIGEST_BLOCK, prf_uniform
from gumbelmark.edits import apply_adversarial_edit
from gumbelmark.watermark import TokenSeq

from util import ks_critical, ks_distance


def random_dists(seed, count, max_v=30):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        delta = rng.uniform(0.05, 0.8)
        v = int(rng.integers(2, max_v))
        yield make_m2(delta, v) if rng.random() < 0.5 else make_m1(delta, v, rng)


class TestAltCdf:
    def test_endpoints(self):
        for p in random_dists(0, 10):
            assert alt_cdf(p, 0.0) == 0.0
            assert alt_cdf(p, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_half_half(self):
        # r ** (1/0.5) = r^2, so F(0.5) = 2 * 0.5 * 0.25 = 0.25
        assert alt_cdf([0.5, 0.5], 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_dominated_by_uniform(self):
        # watermarked pivots are stochastically larger: F(r) <= r
        grid = np.linspace(0.0, 1.0, 101)
        for p in random_dists(1, 25):
            assert np.all(alt_cdf(p, grid) <= grid + 1e-12)

    def test_strictly_below_when_nondegenerate(self):
        assert alt_cdf([0.5, 0.5], 0.5) < 0.5
        assert alt_cdf([1.0, 0.0], 0.5) == pytest.approx(0.5, abs=1e-15)


class TestAltPdf:
    def test_degenerate_gives_null_density(self):
        for r in (0.1, 0.5, 0.9):
            assert alt_pdf([1.0, 0.0], r) == pytest.approx(1.0, abs=1e-15)

    def test_half_half(self):
        assert alt_pdf([0.5, 0.5], 0.5) == pytest.approx(1.0, abs=1e-15)
        assert alt_pdf([0.5, 0.5], 0.25) == pytest.approx(0.5, abs=1e-15)

    def test_integrates_to_one(self):
        for p in random_dists(2, 10):
            total, _ = quad(lambda r: alt_pdf(p, r), 0.0, 1.0, epsabs=1e-10, limit=200)
            assert total == pytest.approx(1.0, abs=1e-8)


def last_axis_cdf(probs, r):
    """alt_cdf as an (..., G) table reduced over its last axis: the oracle."""
    vals, counts = _grouped(probs)
    r_arr = np.asarray(r, dtype=float)
    return (counts * vals * r_arr[..., None] ** (1.0 / vals)).sum(axis=-1)


def last_axis_pdf(probs, r):
    vals, counts = _grouped(probs)
    r_arr = np.asarray(r, dtype=float)
    return (counts * r_arr[..., None] ** (1.0 / vals - 1.0)).sum(axis=-1)


DELTA0S = (0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9)


class TestGroupMajorDensities:
    R = [0.3, np.linspace(0.0, 1.0, 257), np.random.default_rng(41).random((7, 33))]

    @pytest.mark.parametrize("probs", [least_favorable(d) for d in DELTA0S] + [make_m2(0.4, 5)])
    def test_equal_for_few_groups(self, probs):
        # fewer than 8 groups: the leading-axis sum adds in the same order
        assert _grouped(probs)[0].size < 8
        for r in self.R:
            assert np.array_equal(alt_cdf(probs, r), last_axis_cdf(probs, r))
            assert np.array_equal(alt_pdf(probs, r), last_axis_pdf(probs, r))

    def test_within_4_ulp_for_many_groups(self):
        probs = make_m1(0.063, 200, np.random.default_rng(11))
        for r in self.R:
            for new, old in ((alt_cdf(probs, r), last_axis_cdf(probs, r)),
                             (alt_pdf(probs, r), last_axis_pdf(probs, r))):
                assert np.all(np.abs(new - old) <= 4 * np.spacing(np.abs(old)))

    @pytest.mark.parametrize("delta0", DELTA0S + (0.99, 0.999))
    def test_opt_score_unchanged(self, delta0):
        # the split form is log(pdf) to rounding where the density is normal,
        # and finite where the density underflows (delta0 = 0.99, 0.999)
        y = np.random.default_rng(42).random(2000)
        got, pdf = score(y, opt(delta0)), last_axis_pdf(least_favorable(delta0), y)
        normal = pdf > 1e-300
        assert np.all(np.isfinite(got)) and normal.sum() >= 500
        assert np.allclose(got[normal], np.log(pdf[normal]), rtol=1e-13, atol=1e-13)
        one = score(0.3, opt(delta0))
        assert type(one) is float and one == score(np.array([0.3]), opt(delta0))[0]


class TestNullExpectation:
    @pytest.mark.parametrize("fn, want", [
        (lambda y: y**5, 1.0 / 6.0),
        (np.log, -1.0),
        (lambda y: np.log(y) ** 2, 2.0),
        (lambda y: y**-0.5, 2.0),
        (lambda y: np.log1p(-y / 2), math.log(2.0) - 1.0),
    ], ids=["power", "log", "log_squared", "inverse_sqrt", "log1p"])
    def test_closed_forms(self, fn, want):
        assert _null_expectation(fn) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_refuses_what_it_cannot_resolve(self):
        # a period of ~6e-6 needs more nodes than the finest step has
        with pytest.raises(ValueError, match="did not converge"):
            _null_expectation(lambda y: np.cos(1e6 * y))

    @pytest.mark.parametrize("delta0", DELTA0S + (0.99, 0.999))
    def test_split_log_pdf(self, delta0):
        # log of the density where it is normal, and finite where it underflows
        vals, counts = least_favorable_atoms(delta0)
        y = np.concatenate(([1e-300, 1e-10, 1e-3], np.random.default_rng(43).random(500), [1.0]))
        got, pdf = _grouped_log_pdf(vals, counts, y), _grouped_pdf(vals, counts, y)
        normal = pdf > 1e-300
        assert np.all(np.isfinite(got))
        assert np.allclose(got[normal], np.log(pdf[normal]), rtol=1e-13, atol=1e-13)


# Laws for the exact-sampler checks. Each alt_cdf temporary of shape
# (N, groups) stays under ~40 MB at the sample sizes used.
EXACT_LAWS = [
    pytest.param(make_m1(0.063, 200, np.random.default_rng(11)), id="m1_0.063_200"),
    pytest.param(least_favorable(0.7), id="least_favorable_0.7"),
    pytest.param(make_m2(0.025, 1000), id="m2_0.025_1000"),
]
# The last law's total weight sits below 1 - 2**-53, inside the sum tolerance.
EDGE_LAWS = EXACT_LAWS + [pytest.param(np.array([0.5, 0.5 - 1e-13]), id="total_below_one")]


class TestAltSample:
    def test_square_law_point(self):
        # F(r) = r^2 for (0.5, 0.5), so u = 0.25 inverts to r = 0.5
        assert alt_sample([0.5, 0.5], 0.25) == pytest.approx(0.5, abs=1e-11)

    def test_sample_distribution_ks(self):
        p = make_m2(0.3, 6)
        rng = np.random.default_rng(5)
        n = 100_000
        draws = alt_sample(p, rng.random(n))
        assert ks_distance(draws, cdf=lambda x: alt_cdf(p, x)) <= 0.01

    @pytest.mark.parametrize("p", EXACT_LAWS)
    def test_exact_law_ks(self, p):
        n = 20_000
        draws = alt_sample(p, np.random.default_rng(21).random(n))
        assert ks_distance(draws, cdf=lambda x: alt_cdf(p, x)) < ks_critical(n, 0.05)

    @pytest.mark.parametrize("p", EXACT_LAWS)
    def test_mean_closed_form(self, p):
        # E[V**P_w] = 1 / (1 + P_w), so E[Y] = sum_w P_w / (1 + P_w)
        n = 200_000
        draws = alt_sample(p, np.random.default_rng(22).random(n))
        expected = float(np.sum(p / (1.0 + p)))
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - expected) <= 4.0 * se

    @pytest.mark.parametrize("p", EDGE_LAWS)
    def test_draws_open_interval_at_edges(self, p):
        vals, counts = np.unique(p[p > 0.0], return_counts=True)
        edges = np.cumsum(counts * vals)
        u = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),
                            [2.0**-53, 1.0 - 2.0**-53]))
        u = u[(u > 0.0) & (u < 1.0)]
        r = alt_sample(p, u)
        assert np.all((r > 0.0) & (r < 1.0))

    def test_block_matches_one_law_calls(self):
        # rows with ties (m2, least favorable padded with zeros), a zero entry,
        # and a Zipf tail: one block call equals per-row scalar-u calls bit for bit
        rng = np.random.default_rng(31)
        rows = [make_m2(d, 6) for d in (0.1, 0.5, 5 / 6)]
        rows += [np.append(least_favorable(d), [0.0] * (6 - least_favorable(d).size)) for d in (0.3, 0.75)]
        rows += [make_m1(0.2, 6, rng), np.array([0.5, 0.0, 0.25, 0.25, 0.0, 0.0])]
        block = np.repeat(np.array(rows), 40, axis=0)
        u = rng.random(len(block))
        u[:5] = [2.0**-53, 0.9, 0.5, 1.0 - 2.0**-53, 0.25]
        got = alt_sample(block, u)
        assert np.array_equal(got, [alt_sample(row, x) for row, x in zip(block, u)])

    def test_block_shape_checks(self):
        with pytest.raises(ValueError):
            alt_sample(np.array([[0.5, 0.5], [0.3, 0.7]]), [0.5])
        with pytest.raises(ValueError):
            alt_sample(np.array([[0.5, 0.5], [0.3, 0.6]]), [0.5, 0.5])

    def test_rejects_boundary_u(self):
        with pytest.raises(ValueError):
            alt_sample([0.5, 0.5], 0.0)
        with pytest.raises(ValueError):
            alt_sample([0.5, 0.5], 1.0)

    @pytest.mark.parametrize("probs, u, message", [
        ([-0.5, 1.5], 0.0, "u must lie strictly in"),  # u is checked before the law
        ([0.5, 0.5], [0.3, 1.0], "u must lie strictly in"),
        ([1.0], 0.5, "1-d vector over a vocabulary of size >= 2"),
        (0.5, 0.5, "1-d vector over a vocabulary of size >= 2"),
        (np.full((2, 2, 2), 0.5), 0.5, "1-d vector over a vocabulary of size >= 2"),
        ([-0.5, 1.5], 0.5, "negative entries"),
        ([0.5, 0.4], 0.5, "sums to"),
        (np.array([[0.5, 0.5], [0.3, 0.6]]), [0.5, 0.5], "NTP row has negative entries or a total off 1"),
        (np.array([[0.5, 0.5], [0.3, 0.7]]), [0.5], r"a block of 2 laws needs u of shape \(2,\)"),
    ])
    def test_error_messages(self, probs, u, message):
        with pytest.raises(ValueError, match=message):
            alt_sample(probs, u)

    def test_one_law_table_holds_distinct_probabilities(self):
        # the tied tail of an m2 law and the zero entries are one group each
        # in the block table, and no entry of the one-law table
        probs = np.append(make_m2(0.3, 1000), [0.0] * 3)
        vals, weights, edges = _sampling_table(probs)
        assert vals.tolist() == [0.3 / 999, 0.7] and weights.tolist() == [999 * (0.3 / 999), 0.7]
        assert edges.tolist() == np.cumsum(weights).tolist()
        u = np.random.default_rng(8).random(20_000)
        assert np.array_equal(alt_sample(probs, u), _table_sample((vals, weights, edges), u))


class TestPivotSeries:
    def make_seq(self, seed=0, n=120, masking=True):
        src = ToySource(12, (0.4, 0.4), seed=seed)
        key = Key(b"pivots")
        prompt = [1, 2, 3, 4, 5]
        return key, src, generate(src, key, prompt, GenConfig(n=n, m=5, masking=masking, seed=seed))

    def test_complement_identity(self):
        key, _, seq = self.make_seq()
        piv = pivot_series(seq, key, 12)
        assert np.all(piv.p == 1.0 - piv.y)
        assert piv.n == len(seq) - seq.m

    def test_watermarked_pivots_large(self):
        # right key: mean pivot well above 1/2 over watermarked positions
        key, _, seq = self.make_seq(n=400)
        piv = pivot_series(seq, key, 12)
        flags = np.array(seq.provenance[seq.m :])
        assert piv.y[flags == "W"].mean() > 0.55

    def test_wrong_key_uniform(self):
        y_all = []
        for seed in range(40):
            _, src, seq = self.make_seq(seed=seed, n=250)
            y_all.append(pivot_series(seq, Key(b"some-other-key"), 12).y)
        y = np.concatenate(y_all)
        assert ks_distance(y) < ks_critical(y.size, 0.001)

    @pytest.mark.parametrize("vocab", [2, 20, 32000])
    @pytest.mark.parametrize("m", [1, 5])
    def test_matches_per_position_loop(self, vocab, m):
        # the long sequence scores two full digest blocks and 3 more positions
        for length in (150, 2 * DIGEST_BLOCK + m + 3):
            rng = np.random.default_rng(vocab + m)
            tokens = rng.integers(0, vocab, size=length).tolist()
            tokens[60:60 + m + 1] = tokens[10:10 + m + 1]  # a repeated (window, token) tuple
            tokens[40:40 + m + 1] = [vocab - 1] * (m + 1)
            tokens[-1] = vocab - 1
            key = Key(rng.bytes(64))
            seq = TokenSeq(tokens, ["P"] * m + ["S"] * (length - m), m)
            # the per-position form the bulk path replaced, kept as the oracle
            oracle = [prf_uniform(key, tokens[t - m : t], tokens[t]) for t in range(m, len(tokens))]
            y = pivot_series(seq, key, vocab).y
            assert y.tolist() == oracle
            assert y[60] == y[10]  # position t scores tokens[t - m .. t], at index t - m

    def test_vocab_overflow(self):
        key, _, seq = self.make_seq()
        with pytest.raises(ValueError):
            pivot_series(seq, key, 4)
        for bad in (2**32, -1):
            seq = TokenSeq([1, 2, 3, bad], ["P", "S", "S", "S"], 1)
            with pytest.raises(ValueError):
                pivot_series(seq, key, 2**33)
        # the message names the first bad id, here one past the vocabulary
        # and ahead of one outside the 4-byte range
        seq = TokenSeq([1, 2, 7, 3, 2**32], ["P", "S", "S", "S", "S"], 1)
        with pytest.raises(ValueError, match=r"contains id 7 >= vocab size 5"):
            pivot_series(seq, key, 5)
        # tokens replaced after construction skip TokenSeq's int(): the range
        # check reads them as held, so numpy ids score as the same Python ints
        # and a bad one is still named, never handed to struct.pack
        _, _, seq = self.make_seq()
        want = pivot_series(seq, key, 12).y
        ids = list(seq.tokens)
        for cast in (np.int64, np.uint32, np.int32, np.uint64):
            seq.tokens = [cast(t) for t in ids]
            assert pivot_series(seq, key, 12).y.tobytes() == want.tobytes(), cast
        for bad, vocab, message in (
            (np.int64(-1), 12, r"contains id -1 outside the 4-byte range"),
            (np.int64(2**32), 2**33, r"contains id 4294967296 outside the 4-byte range"),
            (np.uint64(2**40), 2**33, r"contains id 1099511627776 outside the 4-byte range"),
            (2**32, 2**33, r"contains id 4294967296 outside the 4-byte range"),
            (np.int64(12), 12, r"contains id 12 >= vocab size 12"),
            (np.uint32(13), 12, r"contains id 13 >= vocab size 12"),
        ):
            # the bad id sits ahead of a second one, which must not be named
            seq.tokens = [np.int64(t) for t in ids[:30]] + [bad] + [np.int64(-2)] + ids[32:]
            with pytest.raises(ValueError, match=message):
                pivot_series(seq, key, vocab)
        # an in-range id that is not an integer cannot be packed: it is named
        # as a ValueError, never a struct.error, here and through an adversarial edit
        for bad in (1.0, np.float64(6.0), 2.5):
            seq.tokens = ids[:30] + [bad] + [7.5] + ids[32:]
            with pytest.raises(ValueError, match=rf"contains id {re.escape(repr(bad))}, which is not an integer"):
                pivot_series(seq, key, 12)
            with pytest.raises(ValueError, match="not an integer"):
                apply_adversarial_edit(seq, 0.1, key, 12, 0)

    def test_from_y(self):
        piv = PivotSeries.from_y([0.25, 0.75])
        assert np.allclose(piv.p, [0.75, 0.25])
