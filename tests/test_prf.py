import hashlib

import numpy as np
import pytest

from gumbelmark import Key, prf_uniform, prf_vector
from gumbelmark.prf import DIGEST_BLOCK, _digest_to_unit, _heads_to_unit

from util import ks_critical, ks_distance

# frozen from an independent SHA-256 construction of the same preimage layout
GOLDEN_K_12345_7 = 0.8888511923925577
GOLDEN_ONE_TOKEN_OFF = 0.7934714554134215  # window [1, 2, 3, 9, 5]
GOLDEN_ID_8 = 0.20130180255827917
# sha256 of prf_vector(Key(b"k"), [1, 2, 3, 4, 5], 32000).tobytes(), recorded
# from the per-id loop (one _digest_to_unit per id) that the bulk path replaced
GOLDEN_V32000_SHA256 = "ab34dca504e032e8da7c804dc8d14cd5be4e0b31e90d5c3db2545e0e9f7e5989"


def test_golden_value():
    assert prf_uniform(Key(b"k"), [1, 2, 3, 4, 5], 7) == GOLDEN_K_12345_7


def test_determinism():
    key = Key(b"\x00\x01\xff")
    w = [9, 8, 7, 6, 5]
    assert prf_uniform(key, w, 3) == prf_uniform(key, w, 3)
    v1 = prf_vector(key, w, 11)
    v2 = prf_vector(key, w, 11)
    assert np.array_equal(v1, v2)


def test_window_sensitivity():
    assert prf_uniform(Key(b"k"), [1, 2, 3, 9, 5], 7) == GOLDEN_ONE_TOKEN_OFF
    assert GOLDEN_ONE_TOKEN_OFF != GOLDEN_K_12345_7


def test_vector_matches_scalar():
    key = Key(b"k")
    vec = prf_vector(key, [1, 2, 3, 4, 5], 9)
    assert vec[7] == GOLDEN_K_12345_7
    assert vec[8] == GOLDEN_ID_8
    for w in range(9):
        assert vec[w] == prf_uniform(key, [1, 2, 3, 4, 5], w)


def test_large_vocab_vector_golden():
    vec = prf_vector(Key(b"k"), [1, 2, 3, 4, 5], 32000)
    assert hashlib.sha256(vec.tobytes()).hexdigest() == GOLDEN_V32000_SHA256
    assert vec[7] == GOLDEN_K_12345_7


def test_large_vocab_vector_matches_scalar():
    key, window = Key(b"large-vocab"), [31999, 0, 17, 31999, 5]
    vec = prf_vector(key, window, 32000)
    ids = np.random.default_rng(3).choice(32000, size=48, replace=False).tolist() + [0, 31999]
    for w in ids:
        assert vec[w] == prf_uniform(key, window, w)
    # vocabularies that end just before, at and just after a digest block edge
    for vocab in (DIGEST_BLOCK - 1, DIGEST_BLOCK, DIGEST_BLOCK + 1):
        vec = prf_vector(key, [0, 1, 0, 1, 0], vocab)
        assert vec.shape == (vocab,)
        for w in {0, DIGEST_BLOCK - 1, DIGEST_BLOCK, vocab - 1} & set(range(vocab)):
            assert vec[w] == prf_uniform(key, [0, 1, 0, 1, 0], w)


def test_bulk_conversion_is_the_scalar_rule():
    # the digest-to-uniform rule, per digest (prf_uniform) and in bulk (prf_vector, pivots)
    heads = np.random.default_rng(11).bytes(8 * 10_000)
    # the extremes of x53, and x53 = 2**52 - 1, 2**52, 2**52 + 1, where x53 + 0.5
    # starts to round, and x53 = 2**53 - 2, the cap of the all-ones head
    edges = [0, 2**64 - 1, (2**52 - 1) << 11, 2**63, (2**52 + 1) << 11, (2**53 - 2) << 11]
    heads += b"".join(x.to_bytes(8, "big") for x in edges)
    bulk = _heads_to_unit(heads)
    scalar = [_digest_to_unit(heads[i : i + 8]) for i in range(0, len(heads), 8)]
    assert bulk.dtype == np.float64 and bulk.shape == (len(scalar),)
    assert bulk.tolist() == scalar
    assert 0.0 < bulk.min() and bulk.max() < 1.0
    # x53 = 2**53 - 1 would give (2**53 - 0.5) / 2**53, which rounds to 1.0
    assert scalar[-5] == scalar[-1] == 1.0 - 2.0**-52


def test_minimal_vocab_vector():
    vec = prf_vector(Key(b"tiny"), [0, 1, 0], 2)
    assert vec.shape == (2,)
    assert np.all((vec > 0.0) & (vec < 1.0))


def test_strict_open_range():
    key = Key(b"range-check")
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.integers(0, 50, size=5).tolist()
        u = prf_uniform(key, w, int(rng.integers(0, 50)))
        assert 0.0 < u < 1.0


def test_key_validation():
    with pytest.raises(ValueError):
        Key(b"")
    with pytest.raises(ValueError):
        Key(b"x" * 65)
    assert Key.from_hex("00ff").data == b"\x00\xff"
    with pytest.raises(ValueError):
        Key.from_hex("zz")


def test_input_errors():
    key = Key(b"k")
    with pytest.raises(ValueError):
        prf_uniform(key, [1, 2], -1)
    with pytest.raises(ValueError):
        prf_uniform(key, [1, 2], 2**32)
    with pytest.raises(ValueError):
        prf_vector(key, [0, 1], 1)  # vocab too small
    with pytest.raises(ValueError):
        prf_vector(key, [5, 0], 5)  # window id outside vocab
    with pytest.raises(ValueError):
        prf_vector(key, [-1, 0], 5)  # window id outside the 4-byte range
    with pytest.raises(ValueError):
        prf_uniform(key, [2**32, 0], 1)


def test_uniformity_ks():
    # 1e5 outputs over random windows should be indistinguishable from U(0,1)
    key = Key(b"uniformity")
    rng = np.random.default_rng(42)
    n = 100_000
    windows = rng.integers(0, 2**31, size=(n, 5))
    ids = rng.integers(0, 2**31, size=n)
    samples = np.fromiter(
        (prf_uniform(key, windows[i], int(ids[i])) for i in range(n)),
        dtype=float,
        count=n,
    )
    assert ks_distance(samples) < ks_critical(n, 0.001)
