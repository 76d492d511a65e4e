"""Pivotal statistics and their null/alternative laws.

For the Gumbel-max watermark the pivot at position t is the pseudorandom
uniform attached to the observed token, Y_t = U_{t, w_t}. Under no watermark
Y is U(0, 1); under the watermark with NTP vector P its CDF is

    F_P(r) = sum_w P_w * r**(1 / P_w)

with density f_P(r) = sum_w r**(1 / P_w - 1). Zero-probability tokens
contribute nothing (the P_w -> 0 limit of P_w * r**(1/P_w) is 0 for r < 1).

F_P is exactly the law of Y = V**P_W with W ~ P and V ~ U(0, 1) independent,
since P(V**P_w <= r) = r**(1/P_w). ``alt_sample`` draws Y that way from one
uniform per draw, from one law, searched over its distinct probabilities, or
from a (k, V) block of laws, one draw per row. ``alt_cdf`` and ``alt_pdf`` sum
over distinct probabilities as a group-major table, groups on the leading axis.

Null expectations E[g(Y)], Y ~ U(0, 1), are integrals over [0, 1], which
``_null_expectation`` computes by tanh-sinh quadrature.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from ._validation import check_ntp_dist, check_ntp_rows, check_token_ids, name_non_integer_id
from .prf import _sequence_uniforms


@dataclass(frozen=True)
class PivotSeries:
    """Per-position pivots y and p-values p = 1 - y."""

    y: np.ndarray
    p: np.ndarray

    @classmethod
    def from_y(cls, y) -> "PivotSeries":
        y = np.asarray(y, dtype=float)
        return cls(y=y, p=1.0 - y)

    @property
    def n(self) -> int:
        return int(self.y.size)


def pivot_series(seq, key, vocab_size: int) -> PivotSeries:
    """Recompute the pivots of a token sequence under ``key``.

    Positions with index < m have no full window and are excluded, so the
    series covers indices m .. len-1 in order. Each costs one keyed SHA-256
    of its window-and-token bytes; the ids are range-checked by ``min`` and
    ``max`` as the sequence holds them, and walked only to name a bad one,
    out of range or, when packing them fails, not an integer.
    """
    tokens, m = seq.tokens, int(seq.m)
    check_token_ids(tokens, vocab_size, name="sequence")
    if len(tokens) <= m:
        raise ValueError(f"sequence of length {len(tokens)} has no scored positions for m={m}")
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
    col = (-1,) + (1,) * r_arr.ndim
    out = ((counts * vals).reshape(col) * r_arr ** (1.0 / vals).reshape(col)).sum(axis=0)
    return out if r_arr.ndim else float(out)


def alt_pdf(probs, r):
    """Watermarked-pivot density sum_w r**(1/P_w - 1); accepts scalar or array r,
    over the same group-major table as ``alt_cdf``."""
    return _grouped_pdf(*_grouped(probs), r)


def _grouped_pdf(vals: np.ndarray, counts: np.ndarray, r):
    """``alt_pdf`` of the law whose distinct probabilities ``vals`` occur ``counts`` times."""
    r_arr = np.asarray(r, dtype=float)
    col = (-1,) + (1,) * r_arr.ndim
    out = (counts.reshape(col) * r_arr ** (1.0 / vals - 1.0).reshape(col)).sum(axis=0)
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

    Y = V**P_W with W ~ P and V ~ U(0, 1). Tokens sharing a probability form
    a group g of weight count_g * P_g; g is the inverse CDF of u over the
    cumulative group weights, and the residual v = (u - lower_g) / weight_g,
    where lower_g is the weight of the groups before g, is U(0, 1) given g,
    so it serves as V. The map from u to Y is not monotone; only a
    single-group P gives the inverse CDF of F_P.

    One law is searched over its distinct probabilities. Each row of a block
    is sorted and carries its group weight at the group's last entry and 0
    elsewhere, so the running sum over entries takes the same values as the
    sum over groups and a draw lands on a group's last entry. Block draws
    take the final power per draw on Python floats, as a scalar u does:
    numpy's array power can differ from it in the last bit.
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("u must lie strictly in (0, 1)")
    table = _sampling_table(probs)
    if table[0].ndim == 2 and u_arr.shape != table[0].shape[:1]:
        raise ValueError(f"a block of {len(table[0])} laws needs u of shape ({len(table[0])},)")
    return _table_sample(table, u_arr)


def _sampling_table(probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``alt_sample``'s validated table: group probabilities, group weights and their running sum."""
    if np.ndim(probs) != 2:
        vals, counts = _grouped(probs)
        weights = counts * vals
    else:
        vals = np.sort(check_ntp_rows(probs), axis=1)
        last = np.ones(vals.shape, dtype=bool)
        last[:, :-1] = vals[:, 1:] != vals[:, :-1]
        weights = np.where(last, vals, 0.0)
        if not last.all():  # a group of ties weighs count_g * P_g
            ends = np.flatnonzero(last)
            weights.ravel()[ends] *= np.ediff1d(ends, to_begin=ends[0] + 1)
    return vals, weights, np.cumsum(weights, axis=-1)


def _table_sample(table, u: np.ndarray):
    """``alt_sample``'s draws from a ``_sampling_table`` at u, unchecked."""
    block = table[0].ndim == 2
    vals, weights, edges = (a if block else a[None] for a in table)
    if block:
        row, g = np.arange(len(vals)), (edges <= u[:, None]).sum(axis=1)
    else:
        row, g = 0, np.searchsorted(edges[0], u, side="right")
    # edges[g - 1] <= u by construction, so v >= 0; clamped because rounding
    # can leave the total weight just below u.
    g = np.minimum(g, vals.shape[1] - 1)
    v, expo = (u - np.where(g > 0, edges[row, g - 1], 0.0)) / weights[row, g], vals[row, g]
    y = np.array([x**e for x, e in zip(v.tolist(), expo.tolist())]) if block else v**expo
    r = np.clip(y, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    return r if u.ndim else float(r)
