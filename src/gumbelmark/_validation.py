"""Small input-validation helpers shared across modules."""

from __future__ import annotations

import operator

import numpy as np

PROB_SUM_TOL = 1e-12


def check_ntp_dist(probs) -> np.ndarray:
    """Validate a next-token probability vector and return it as a float array.

    Requires every entry >= 0, a total within 1e-12 of 1, and support over at
    least two indices (vocabulary size >= 2).
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise ValueError("NTP distribution must be a 1-d vector over a vocabulary of size >= 2")
    if np.any(p < 0.0):
        raise ValueError("NTP distribution has negative entries")
    total = float(p.sum())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"NTP distribution sums to {total!r}, not 1 within {PROB_SUM_TOL}")
    return p


def check_ntp_rows(probs) -> np.ndarray:
    """``check_ntp_dist`` applied to each row of a (k, V) block."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError("NTP block must be a (k, V) array with V >= 2")
    if np.any(p < 0.0) or np.any(np.abs(p.sum(axis=1) - 1.0) > PROB_SUM_TOL):
        raise ValueError(f"an NTP row has negative entries or a total off 1 by more than {PROB_SUM_TOL}")
    return p


def check_unit_open(x, name: str = "value"):
    """Check that all entries of ``x`` lie strictly inside (0, 1)."""
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


def check_token_ids(tokens, vocab_size: int, name: str = "tokens") -> None:
    """Check token ids lie in [0, vocab_size) and the 4-byte range: ``min`` and
    ``max`` over the ids as they are, then, on a miss, name the first bad id."""
    if tokens and (min(tokens) < 0 or max(tokens) >= min(vocab_size, 2**32)):
        for t in map(int, tokens):
            if t < 0 or t >= 2**32:
                raise ValueError(f"{name} contains id {t} outside the 4-byte range")
            if t >= vocab_size:
                raise ValueError(f"{name} contains id {t} >= vocab size {vocab_size}")


def name_non_integer_id(tokens, name: str = "tokens") -> None:
    """Raise a ValueError naming the first id of ``tokens`` that is not an integer."""
    for t in tokens:
        try:
            operator.index(t)
        except TypeError:
            raise ValueError(f"{name} contains id {t!r}, which is not an integer") from None
