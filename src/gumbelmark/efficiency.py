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

import math

import numpy as np

from .tokensource import least_favorable_atoms

# Absolute error that scipy's quad aims for on every rate integral.
QUAD_TOLERANCE = 1e-9


def optimal_rate(delta: float, epsilon: float) -> float:
    """KL rate of the least-favorable mixture at delta in (0, 1) and epsilon in (0, 1]."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    from scipy.integrate import quad  # deferred so that importing the package skips scipy

    vals, counts = least_favorable_atoms(delta)
    expo = 1.0 / vals - 1.0

    if epsilon < 1.0:
        integrand = lambda y: -math.log((1.0 - epsilon) + epsilon * (counts * y**expo).sum())
        return quad(integrand, 0.0, 1.0, epsabs=QUAD_TOLERANCE, limit=500)[0]
    # eps = 1: pull out the leading power so the remainder is smooth
    e_min = float(expo.min())
    rest = lambda y: -math.log((counts * y ** (expo - e_min)).sum())
    return e_min + quad(rest, 0.0, 1.0, epsabs=QUAD_TOLERANCE, limit=500)[0]


def rate_curve(deltas, epsilon: float) -> np.ndarray:
    """Rows of (delta, epsilon, rate) over a grid of singularities."""
    return np.asarray([(float(d), float(epsilon), optimal_rate(d, epsilon)) for d in deltas])
