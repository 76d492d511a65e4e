"""Pivotal statistics and their null/alternative laws.

For the Gumbel-max watermark the pivot at position t is the pseudorandom
uniform attached to the observed token, Y_t = U_{t, w_t}. Under no watermark
Y is U(0, 1); under the watermark with NTP vector P its CDF is

    F_P(r) = sum_w P_w * r**(1 / P_w)

with density f_P(r) = sum_w r**(1 / P_w - 1). Zero-probability tokens
contribute nothing (the P_w -> 0 limit of P_w * r**(1/P_w) is 0 for r < 1).

F_P is exactly the law of Y = V**P_W with W ~ P and V ~ U(0, 1) independent,
since P(V**P_w <= r) = r**(1/P_w). ``alt_sample`` draws Y that way from one
uniform per draw, from one law or from a (k, V) block of laws, one draw per
row: u picks the token W on the law's running sum in its own token order, and
its residual within W's interval is V. ``alt_cdf`` and ``alt_pdf`` sum over
distinct probabilities as one group-major table (``_group_sum``), groups on
the leading axis. ``_clip`` is the one clip of pivots and p-values, for the
statistics and for ``alt_sample``'s draws alike.

A ``PivotSeries`` stores the pivots y alone and derives p = 1 - y on each
read, so its p-values cannot disagree with its pivots.

Null expectations E[g(Y)], Y ~ U(0, 1), are integrals over [0, 1], which
``_null_expectation`` computes by tanh-sinh quadrature.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._validation import check_ntp_dist, check_ntp_rows, check_scored_sequence, check_unit_open, name_non_integer_id
from .prf import _sequence_uniforms

_CLIP = 2.0**-53  # p-values and pivots are clipped to [_CLIP, 1 - _CLIP]; 1 - y >= _CLIP for a float y < 1


def _clip(x) -> np.ndarray:
    """p-values or pivots as floats in [_CLIP, 1 - _CLIP]: the one clip of the package."""
    return np.clip(np.asarray(x, dtype=float), _CLIP, 1.0 - _CLIP)


@dataclass(frozen=True)
class PivotSeries:
    """Per-position pivots y, of shape (n,) or (rows, n), and their p-values p = 1 - y."""

    y: np.ndarray

    @classmethod
    def from_y(cls, y) -> "PivotSeries":
        return cls(y=np.asarray(y, dtype=float))

    @property
    def p(self) -> np.ndarray:
        return 1.0 - self.y

    @property
    def n(self) -> int:
        return int(self.y.shape[-1])


def pivot_series(seq, key, vocab_size: int) -> PivotSeries:
    """Recompute the pivots of a token sequence under ``key``.

    Positions with index < m have no full window and are excluded, so the
    series covers indices m .. len-1 in order. Each costs one keyed SHA-256
    of its window-and-token bytes; the ids are range-checked by ``min`` and
    ``max`` as the sequence holds them, and walked only to name a bad one,
    out of range or, when packing them fails, not an integer.
    """
    tokens, m = seq.tokens, int(seq.m)
    check_scored_sequence(tokens, m, vocab_size)
    try:
        y = _sequence_uniforms(key, tokens, m)
    except struct.error:
        name_non_integer_id(tokens, name="sequence")
        raise
    return PivotSeries.from_y(y)


def _grouped(probs) -> tuple[np.ndarray, np.ndarray]:
    """Unique positive probabilities with multiplicities (cuts repeated work
    for flat-tailed vectors, where the tail shares one value)."""
    p = check_ntp_dist(probs)
    p = p[p > 0.0]
    vals, counts = np.unique(p, return_counts=True)
    return vals, counts.astype(float)


def alt_cdf(probs, r):
    """Watermarked-pivot CDF sum_w P_w * r**(1/P_w); accepts scalar or array r.

    The terms form a group-major (G,) + r.shape table, one slab per distinct
    probability, summed over its leading axis.
    """
    vals, counts = _grouped(probs)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0) or np.any(r_arr > 1.0):
        raise ValueError("r must lie in [0, 1]")
    return _group_sum(counts * vals, 1.0 / vals, r_arr)


def alt_pdf(probs, r):
    """Watermarked-pivot density sum_w r**(1/P_w - 1); accepts scalar or array r,
    over the same group-major table as ``alt_cdf``."""
    return _grouped_pdf(*_grouped(probs), r)


def _grouped_pdf(vals: np.ndarray, counts: np.ndarray, r):
    """``alt_pdf`` of the law whose distinct probabilities ``vals`` occur ``counts`` times."""
    return _group_sum(counts, 1.0 / vals - 1.0, r)


def _group_sum(weights: np.ndarray, expo: np.ndarray, r):
    """sum over groups g of weights_g * r**expo_g, a group-major table summed over its leading axis."""
    r_arr = np.asarray(r, dtype=float)
    col = (-1,) + (1,) * r_arr.ndim
    out = (weights.reshape(col) * r_arr ** expo.reshape(col)).sum(axis=0)
    return out if r_arr.ndim else float(out)


def _grouped_log_pdf(vals: np.ndarray, counts: np.ndarray, y: np.ndarray) -> np.ndarray:
    """log ``_grouped_pdf`` at an array y of any shape, in the split form
    e_min log y + log sum counts y**(e - e_min) with e = 1/vals - 1, summed in
    group order: the least-exponent group adds counts * y**0 = counts with no
    power, so no y**e underflows into log 0."""
    expo = (1.0 - vals) / vals  # 1/vals - 1 without its cancellation as vals -> 1
    i_min = int(expo.argmin())
    e_min = expo[i_min]
    terms = (c if i == i_min else c * np.power(y, e - e_min) for i, (c, e) in enumerate(zip(counts, expo)))
    return e_min * np.log(y) + np.log(sum(terms))


# Relative agreement (absolute below 1) of two successive levels that ends
# ``_null_expectation``; the finer level is then accurate to rounding.
QUAD_TOLERANCE = 1e-13
# Nodes lie at |t| <= T, where y(-T) = 1e-300: nodes below 1e-300 are dropped.
_TANH_SINH_T = math.asinh(math.log(1e300) / math.pi)
_TANH_SINH_H = (2.0**-3, 2.0**-12)  # first and finest step


def _null_expectation(fn) -> float:
    """E[fn(Y)] for Y ~ U(0, 1), the integral of fn over [0, 1], by the
    tanh-sinh rule (Takahasi and Mori, 1974).

    The nodes y = 1/(1 + e^{-pi sinh t}) at t = k h carry the weights
    h pi cosh t y (1 - y), which decay double-exponentially in t, so
    integrable log and power singularities at 0 cost few nodes. ``fn`` maps
    a 1-D array of nodes to the integrand there; it must be finite at y = 1,
    since the nodes nearest 1 round to 1.0. h halves from 2**-3; each level
    evaluates only its new nodes (odd k), in one call, and the halving stops
    when two successive levels agree to QUAD_TOLERANCE.
    """
    h, finest = _TANH_SINH_H
    estimate = None
    while True:
        k = np.arange(-math.floor(_TANH_SINH_T / h), math.floor(_TANH_SINH_T / h) + 1)
        t = (k if estimate is None else k[k % 2 == 1]) * h
        u = math.pi * np.sinh(t)
        y = 1.0 / (1.0 + np.exp(-u))
        part = h * float(np.dot(math.pi * np.cosh(t) * y / (1.0 + np.exp(u)), fn(y)))
        if estimate is None:
            estimate = part
        else:
            previous, estimate = estimate, 0.5 * estimate + part
            if abs(estimate - previous) <= QUAD_TOLERANCE * max(1.0, abs(estimate)):
                return estimate
        if h <= finest:
            raise ValueError(f"tanh-sinh quadrature did not converge at step {h!r}")
        h *= 0.5


def alt_sample(probs, u):
    """Exact sample(s) from the watermarked pivot law, one uniform u per draw.

    ``probs`` is one NTP vector, with u of any shape, or a (k, V) block of
    them with u of shape (k,), one draw per row.

    Y = V**P_W with W ~ P and V ~ U(0, 1). The edges are the running sum of P
    over tokens in the law's own order; W is the token whose interval
    [edges[W - 1], edges[W]) holds u, and the residual v = (u - edges[W - 1]) / P_W
    is U(0, 1) given W, so it serves as V. This is exact in any token order;
    the running sum adds at most ~V * 2**-53 of rounding to each edge. The map
    from u to Y is not monotone. A u at or above the rounded total lands on
    the last token that raises it, the last with mass, not on a zero-mass
    entry at the end.

    One law is searched by ``searchsorted``, a block row by counting its edges
    at or below u. Block draws take the final power per draw on Python floats,
    as a scalar u does: numpy's array power can differ in the last bit.
    """
    u_arr = check_unit_open(u, "u")
    table = _sampling_table(probs)
    if table[0].ndim == 2 and u_arr.shape != table[0].shape[:1]:
        raise ValueError(f"a block of {len(table[0])} laws needs u of shape ({len(table[0])},)")
    return _table_sample(table, u_arr)


def _sampling_table(probs) -> tuple[np.ndarray, np.ndarray]:
    """``alt_sample``'s validated table: the law (or block of laws) and its running sum over tokens."""
    p = check_ntp_rows(probs) if np.ndim(probs) == 2 else check_ntp_dist(probs)
    return p, np.cumsum(p, axis=-1)


def _table_sample(table, u: np.ndarray):
    """``alt_sample``'s draws from a ``_sampling_table`` at u, unchecked."""
    block = table[0].ndim == 2
    probs, edges = (a if block else a[None] for a in table)
    # u is searched below the rounded total, so a u the total falls short of takes
    # the first token to reach it, the last with mass, never a zero-mass one after it
    below = np.nextafter(edges[:, -1], 0.0)
    if block:
        row, w = np.arange(len(probs)), (edges <= np.minimum(u, below)[:, None]).sum(axis=1)
    else:
        row, w = 0, np.searchsorted(edges[0], np.minimum(u, below[0]), side="right")
    expo = probs[row, w]
    v = (u - np.where(w > 0, edges[row, w - 1], 0.0)) / expo
    y = np.array([x**e for x, e in zip(v.tolist(), expo.tolist())]) if block else v**expo
    r = _clip(y)
    return r if u.ndim else float(r)
