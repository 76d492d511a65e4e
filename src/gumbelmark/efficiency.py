"""Optimal detection-efficiency rate by numerical quadrature.

The rate is the KL divergence from the uniform null to the mixture
(1 - eps) * null + eps * (watermarked pivot law of the least-favorable
distribution with singularity delta):

    R(delta, eps) = integral_0^1 -log((1 - eps) + eps * f_delta(y)) dy.

For eps < 1 the integrand is bounded (the mixture density is at least
1 - eps). At eps = 1 it has an integrable log singularity at y = 0, which is
split off exactly: f = y**e_min * g(y) with g smooth and positive, and
integral of -e_min * log(y) equals e_min.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .pivotal import _grouped
from .tokensource import least_favorable


@dataclass(frozen=True)
class EfficiencyQuery:
    delta: float
    epsilon: float
    quad_tolerance: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.quad_tolerance <= 0.0:
            raise ValueError("quadrature tolerance must be positive")


def optimal_rate(query: EfficiencyQuery) -> float:
    """KL rate of the least-favorable mixture at (delta, epsilon)."""
    from scipy.integrate import quad  # deferred so that importing the package skips scipy

    vals, counts = _grouped(least_favorable(query.delta))
    expo = 1.0 / vals - 1.0
    tol = query.quad_tolerance

    def density(y: float) -> float:
        return float((counts * y**expo).sum())

    if query.epsilon < 1.0:
        integrand = lambda y: -math.log((1.0 - query.epsilon) + query.epsilon * density(y))
        return quad(integrand, 0.0, 1.0, epsabs=tol, limit=500)[0]
    # eps = 1: pull out the leading power so the remainder is smooth
    e_min = float(expo.min())
    rest = lambda y: -math.log((counts * y ** (expo - e_min)).sum())
    return e_min + quad(rest, 0.0, 1.0, epsabs=tol, limit=500)[0]


def rate_curve(deltas, epsilon: float, quad_tolerance: float = 1e-9) -> np.ndarray:
    """Rows of (delta, epsilon, rate) over a grid of singularities."""
    rows = [
        (float(d), float(epsilon), optimal_rate(EfficiencyQuery(d, epsilon, quad_tolerance)))
        for d in deltas
    ]
    return np.asarray(rows)


def write_rate_csv(rows: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delta", "epsilon", "rate"])
        for d, e, r in rows:
            w.writerow([repr(float(d)), repr(float(e)), repr(float(r))])
