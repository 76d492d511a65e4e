"""Keyed pseudorandomness for watermark embedding and verification.

Maps (key, m-token window, candidate token id) to a uniform float in (0, 1)
through SHA-256. The bit layout is fixed so that results are reproducible
bit-for-bit across runs, platforms, and languages:

* preimage = key bytes || window ids as 4-byte little-endian || id as 4-byte
  little-endian,
* the first 8 digest bytes are read big-endian and the top 53 bits kept,
  with x53 = 2**53 - 1 lowered to 2**53 - 2,
* the float is (x53 + 0.5) / 2**53, which is strictly inside (0, 1).

The half-step offset rules out exact 0, and the cap exact 1: 2**53 - 0.5
would round to 2**53. So downstream logs and p-values never hit the
boundary.

This module owns that layout: every preimage is hashed here, through one
kernel, ``_prefixed_uniforms``. It copies a shared prefix's hash state once
per preimage tail, joins DIGEST_BLOCK digests at a time and converts each
block's 8-byte heads straight from their strided big-endian view
(``_heads_to_unit``). ``_window_uniforms`` maps each window to its V
uniforms: ``prf_vector`` calls it for one window, watermarked generation for
every window it embeds at. ``_sequence_uniforms`` hashes each position's
window and token: ``pivot_series`` calls it for a sequence, ``prf_uniform``
for one triple.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from ._validation import check_token_ids, check_vocab_size

MAX_KEY_LEN = 64
_DENOM = float(1 << 53)
_X53_MAX = (1 << 53) - 2  # the largest x53 whose float stays below 1
# Digests ``_prefixed_uniforms`` joins at once: one join per block is cheaper
# than growing the heads per digest, and a block holds only 32 KiB.
DIGEST_BLOCK = 1024


@dataclass(frozen=True)
class Key:
    """An opaque watermarking key of 1 to 64 bytes."""

    data: bytes

    def __post_init__(self):
        if not isinstance(self.data, (bytes, bytearray)):
            raise ValueError("key must be a byte string")
        if not 1 <= len(self.data) <= MAX_KEY_LEN:
            raise ValueError(f"key length must be in [1, {MAX_KEY_LEN}], got {len(self.data)}")
        object.__setattr__(self, "data", bytes(self.data))

    @classmethod
    def from_hex(cls, s: str) -> "Key":
        try:
            raw = bytes.fromhex(s)
        except ValueError as exc:
            raise ValueError(f"invalid hex key: {s!r}") from exc
        return cls(raw)


def _as_key(key) -> Key:
    if isinstance(key, Key):
        return key
    return Key(key)


def _digest_to_unit(digest: bytes) -> float:
    x53 = min(int.from_bytes(digest[:8], "big") >> 11, _X53_MAX)
    return (x53 + 0.5) / _DENOM


def _heads_to_unit(heads: np.ndarray) -> np.ndarray:
    """``_digest_to_unit`` over big-endian uint64 digest heads, bit-identical:
    x53 < 2**53 converts exactly, and + 0.5 and / 2**53 are the same IEEE ops."""
    return (np.minimum(heads >> 11, _X53_MAX).astype(np.float64) + 0.5) / _DENOM


def _prefixed_uniforms(prefix: "hashlib._Hash", chunks: list[bytes]) -> np.ndarray:
    """One uniform per preimage prefix || chunk, for each chunk in order."""
    copy, blocks = prefix.copy, []
    for start in range(0, len(chunks), DIGEST_BLOCK):
        digests = []
        append = digests.append
        for chunk in chunks[start : start + DIGEST_BLOCK]:
            h = copy()
            h.update(chunk)
            append(h.digest())
        # each 32-byte digest is four big-endian words; the first is its head
        blocks.append(_heads_to_unit(np.frombuffer(b"".join(digests), ">u8")[::4]))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _window_uniforms(key, vocab_size: int, m: int):
    """window -> ``prf_vector(key, window, vocab_size)`` for m-id windows, unchecked. The id table
    (~1.5 MB at V = 32000, so not cached) and the key's SHA-256 state are built once per call;
    each window hashes from a copy of that state updated with its packed ids."""
    ids = list(map(struct.Struct("<I").pack, range(vocab_size)))  # each id's 4-byte encoding
    keyed, pack = hashlib.sha256(_as_key(key).data), struct.Struct(f"<{m}I").pack

    def uniforms(window) -> np.ndarray:
        h = keyed.copy()
        h.update(pack(*window))
        return _prefixed_uniforms(h, ids)

    return uniforms


def prf_uniform(key, window, token_id: int) -> float:
    """Pseudorandom uniform in (0, 1) for one (key, window, token id) triple.

    Deterministic: identical inputs always give the identical float.
    """
    ids = [int(t) for t in window] + [int(token_id)]
    check_token_ids(ids, name="window and token")
    return float(_sequence_uniforms(key, ids, len(ids) - 1)[0])


def prf_vector(key, window, vocab_size: int) -> np.ndarray:
    """Vector of pseudorandom uniforms, one per token id in [0, vocab_size).

    Element ``w`` equals ``prf_uniform(key, window, w)``.
    """
    vocab_size = check_vocab_size(vocab_size)
    ids = [int(t) for t in window]
    check_token_ids(ids, vocab_size, name="window")
    return _window_uniforms(key, vocab_size, len(ids))(ids)


def _sequence_uniforms(key, tokens, m: int) -> np.ndarray:
    """``prf_uniform(key, tokens[t - m : t], tokens[t])`` for t = m .. len - 1,
    each hashed as key || tokens[t - m .. t]."""
    packed, width = struct.pack(f"<{len(tokens)}I", *tokens), 4 * (m + 1)
    tails = [packed[i : i + width] for i in range(0, len(packed) - width + 1, 4)]
    return _prefixed_uniforms(hashlib.sha256(_as_key(key).data), tails)
