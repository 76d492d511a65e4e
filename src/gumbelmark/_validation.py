"""Input checks shared across modules: one function per rule, one message."""

from __future__ import annotations

import operator

import numpy as np

PROB_SUM_TOL = 1e-12


def check_ntp_dist(probs) -> np.ndarray:
    """A next-token law as a float array: a 1-d vector over V >= 2 that passes ``check_ntp_rows`` as a block of one."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("NTP distribution must be a 1-d vector over a vocabulary of size >= 2")
    check_ntp_rows(p[None])
    return p


def check_ntp_rows(probs) -> np.ndarray:
    """A (k, V) block of next-token laws as a float array, V >= 2, under the one rule of every law:
    entries >= 0 and a total within PROB_SUM_TOL of 1. A bad block names its first off total as one law does."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError("NTP block must be a (k, V) array with V >= 2")
    if np.any(p < 0.0):
        raise ValueError("NTP distribution has negative entries")
    totals = p.sum(axis=1)
    off = np.flatnonzero(~(np.abs(totals - 1.0) <= PROB_SUM_TOL))  # a NaN total is off too
    if off.size:
        raise ValueError(f"NTP distribution sums to {float(totals[off[0]])!r}, not 1 within {PROB_SUM_TOL}")
    return p


def check_unit_open(x, name: str = "value"):
    """``x`` as a float array, nonempty, with every entry strictly inside (0, 1)."""
    arr = np.asarray(x, dtype=float)
    if arr.size == 0:
        raise ValueError(f"{name} is empty")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie strictly in (0, 1)")
    return arr


def check_fraction(x: float, name: str = "fraction") -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def check_delta(delta, name: str = "delta") -> float:
    """A singularity delta as a float in (0, 1) with 1 - delta < 1: a smaller
    delta rounds the top token's probability 1 - delta to 1, a point mass."""
    delta = float(delta)
    if not (0.0 < delta < 1.0 and 1.0 - delta < 1.0):
        raise ValueError(f"{name} must lie in (0, 1) with 1 - {name} < 1, got {delta!r}")
    return delta


def check_vocab_size(vocab_size) -> int:
    """A vocabulary size as an int, at least 2."""
    vocab_size = int(vocab_size)
    if vocab_size < 2:
        raise ValueError(f"vocab size must be >= 2, got {vocab_size}")
    return vocab_size


def check_series_length(n) -> int:
    """A series length as an int, at least 1."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return n


def check_alpha(alpha) -> float:
    """A Type I level as a float in (0, 1)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return float(alpha)


def check_token_ids(tokens, vocab_size: int = 2**32, name: str = "tokens") -> None:
    """Check token ids lie in [0, vocab_size) (by default, the 4-byte range): ``min``
    and ``max`` over the ids as they are, then, on a miss, name the first bad id."""
    if tokens and (min(tokens) < 0 or max(tokens) >= min(vocab_size, 2**32)):
        for t in map(int, tokens):
            if t < 0 or t >= 2**32:
                raise ValueError(f"{name} contains id {t} outside the 4-byte range")
            if t >= vocab_size:
                raise ValueError(f"{name} contains id {t} >= vocab size {vocab_size}")


def check_scored_sequence(tokens, m: int, vocab_size: int) -> None:
    """A token sequence the verifier can score: ids in [0, vocab_size) and a position past the first m."""
    check_token_ids(tokens, vocab_size, name="sequence")
    if len(tokens) <= m:
        raise ValueError(f"sequence of length {len(tokens)} has no scored positions for m={m}")


def name_non_integer_id(tokens, name: str = "tokens") -> None:
    """Raise a ValueError naming the first id of ``tokens`` that is not an integer."""
    for t in tokens:
        try:
            operator.index(t)
        except TypeError:
            raise ValueError(f"{name} contains id {t!r}, which is not an integer") from None
