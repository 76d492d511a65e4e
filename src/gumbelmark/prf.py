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

Bulk paths hash through one kernel, ``_prefixed_uniforms``: it copies a
shared prefix's hash state once per preimage tail, joins DIGEST_BLOCK digests
at a time and converts each block's 8-byte heads straight from their strided
big-endian view (``_heads_to_unit``). ``prf_vector`` passes one window's
prefix (``_window_prefix``) and every id's encoding (``_id_chunks``).
Watermarked generation passes a copy of the key's state updated with the
window's packed ids, the same preimage bytes. ``pivot_series`` passes the key
and each position's window-and-token bytes. The floats equal ``prf_uniform``'s.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

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

    def hex(self) -> str:
        return self.data.hex()


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


def _id_chunks(vocab_size: int) -> list[bytes]:
    """The 4-byte little-endian encodings of ids 0 .. vocab_size - 1."""
    return list(map(struct.Struct("<I").pack, range(vocab_size)))


def _window_prefix(key: Key, window) -> "hashlib._Hash":
    h = hashlib.sha256()
    h.update(key.data)
    ids = tuple(int(t) for t in window)
    for t in ids:
        if t < 0 or t >= 2**32:
            raise ValueError(f"window token id {t} outside the 4-byte range")
    h.update(struct.pack(f"<{len(ids)}I", *ids))
    return h


def prf_uniform(key, window, token_id: int) -> float:
    """Pseudorandom uniform in (0, 1) for one (key, window, token id) triple.

    Deterministic: identical inputs always give the identical float.
    """
    token_id = int(token_id)
    if token_id < 0 or token_id >= 2**32:
        raise ValueError(f"token id {token_id} outside the 4-byte range")
    h = _window_prefix(_as_key(key), window)
    h.update(struct.pack("<I", token_id))
    return _digest_to_unit(h.digest())


def prf_vector(key, window, vocab_size: int) -> np.ndarray:
    """Vector of pseudorandom uniforms, one per token id in [0, vocab_size).

    Element ``w`` equals ``prf_uniform(key, window, w)``.
    """
    vocab_size = int(vocab_size)
    if vocab_size < 2:
        raise ValueError(f"vocab size must be >= 2, got {vocab_size}")
    ids = tuple(int(t) for t in window)
    if ids and max(ids) >= vocab_size:
        raise ValueError("window contains token ids outside the vocabulary")
    base = _window_prefix(_as_key(key), ids)
    return _prefixed_uniforms(base, _id_chunks(vocab_size))


def _sequence_uniforms(key, tokens, m: int) -> np.ndarray:
    """``prf_uniform(key, tokens[t - m : t], tokens[t])`` for t = m .. len - 1,
    each hashed as key || tokens[t - m .. t]."""
    packed, width = struct.pack(f"<{len(tokens)}I", *tokens), 4 * (m + 1)
    tails = [packed[i : i + width] for i in range(0, len(packed) - width + 1, 4)]
    return _prefixed_uniforms(hashlib.sha256(_as_key(key).data), tails)
