"""Synthetic next-token-prediction (NTP) distributions.

Constructors for the two synthetic NTP families used in the simulation
studies (a Zipf-tailed one and a flat-tailed one), the atoms of the
least-favorable distribution with a given singularity, and a seeded toy
autoregressive source for end-to-end generation runs.

Throughout, the "singularity" of a distribution is 1 minus its largest
probability; distributions with singularity delta have top entry 1 - delta.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from ._validation import check_ntp_dist
from .prf import _digest_to_unit

M1_A_RANGE = (0.95, 1.5)
M1_B_RANGE = (0.01, 0.1)


def _check_delta(delta: float) -> float:
    delta = float(delta)
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    return delta


def make_m2(delta: float, vocab_size: int) -> np.ndarray:
    """Flat-tail NTP vector: (1 - delta, delta/(V-1), ..., delta/(V-1))."""
    delta = _check_delta(delta)
    vocab_size = int(vocab_size)
    if vocab_size < 2:
        raise ValueError(f"vocab size must be >= 2, got {vocab_size}")
    probs = np.full(vocab_size, delta / (vocab_size - 1))
    probs[0] = 1.0 - delta
    return probs


def make_m1(delta: float, vocab_size: int, rng: np.random.Generator) -> np.ndarray:
    """Zipf-tail NTP vector: top entry 1 - delta, tail proportional to (j + b)**-a.

    The tail shape parameters are drawn fresh from the caller's stream:
    a ~ U(0.95, 1.5) and b ~ U(0.01, 0.1).
    """
    shape = [rng.uniform(*M1_A_RANGE), rng.uniform(*M1_B_RANGE)]
    return m1_rows(delta, vocab_size, np.array([shape]))[0]


def m1_rows(delta: float, vocab_size: int, shapes: np.ndarray) -> np.ndarray:
    """One ``make_m1`` vector per row (a, b) of a (k, 2) array of tail shapes."""
    delta = _check_delta(delta)
    vocab_size = int(vocab_size)
    if vocab_size < 2:
        raise ValueError(f"vocab size must be >= 2, got {vocab_size}")
    tail = (np.arange(1, vocab_size) + shapes[:, 1:]) ** (-shapes[:, :1])
    tail *= delta / tail.sum(axis=1, keepdims=True)
    return np.concatenate((np.full((len(tail), 1), 1.0 - delta), tail), axis=1)


def least_favorable_atoms(delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The least-favorable law, of minimal support with largest probability
    1 - delta, as its distinct atoms in ascending order and their counts as
    floats: k = floor(1/(1 - delta)) atoms of 1 - delta, unbounded as delta ->
    1, and a remainder atom, below 1 - delta since k never rounds low, unless
    the remainder is zero."""
    top = 1.0 - _check_delta(delta)
    k = math.floor(1.0 / top)
    rem = 1.0 - k * top
    if rem > 1e-15:
        return np.array([rem, top]), np.array([1.0, float(k)])
    return np.array([top]), np.array([float(k)])


def entropy_of(probs) -> float:
    """Shannon entropy in nats, with 0 * log(1/0) taken as 0."""
    p = check_ntp_dist(probs)
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


@dataclass(frozen=True)
class ToySource:
    """A stand-in autoregressive model with controllable singularity.

    Each step's NTP distribution is a deterministic function of (seed, last
    token): a hash picks the singularity within [delta_min, delta_max] and the
    index of the top-probability token; the rest of the mass is flat.
    """

    vocab_size: int
    delta_range: tuple[float, float]
    seed: int

    def __post_init__(self):
        lo, hi = self.delta_range
        if not (0.0 < lo <= hi < 1.0):
            raise ValueError(f"delta range must satisfy 0 < lo <= hi < 1, got {self.delta_range!r}")
        if int(self.vocab_size) < 2:
            raise ValueError("vocab size must be >= 2")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")


def toy_next_dist(source: ToySource, history) -> np.ndarray:
    """NTP distribution the toy source emits after ``history``.

    Depends only on (source.seed, last token), so generation is reproducible
    and windows repeat whenever the last token repeats.
    """
    last = int(history[-1]) if len(history) else 0
    digest = hashlib.sha256(struct.pack("<Q", int(source.seed)) + struct.pack("<I", last)).digest()
    lo, hi = source.delta_range
    delta = lo + _digest_to_unit(digest) * (hi - lo)
    top = int.from_bytes(digest[8:12], "big") % source.vocab_size
    probs = np.full(source.vocab_size, delta / (source.vocab_size - 1))
    probs[top] = 1.0 - delta
    return probs
