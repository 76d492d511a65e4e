"""Optimal detection-efficiency rate by numerical quadrature.

The rate is the KL divergence from the uniform null to the mixture
(1 - eps) * null + eps * (watermarked pivot law of the least-favorable
distribution with singularity delta):

    R(delta, eps) = integral_0^1 -log((1 - eps) + eps * f_delta(y)) dy.

The integrand is -logaddexp(log(1 - eps), log(eps) + log f_delta(y)), with
log f_delta in split form, so at eps = 1 it is -log f_delta exactly and its
integrable log singularity at y = 0 stays finite at every node. The tanh-sinh
rule of ``pivotal._null_expectation`` integrates it to QUAD_TOLERANCE.
"""

from __future__ import annotations

import math

import numpy as np

from .pivotal import _grouped_log_pdf, _null_expectation
from .tokensource import least_favorable_atoms


def optimal_rate(delta: float, epsilon: float) -> float:
    """KL rate of the least-favorable mixture at delta in (0, 1) and epsilon in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    vals, counts = least_favorable_atoms(delta)
    log_null = math.log1p(-epsilon) if epsilon < 1.0 else -math.inf
    log_eps = math.log(epsilon)
    return _null_expectation(lambda y: -np.logaddexp(log_null, log_eps + _grouped_log_pdf(vals, counts, y)))


def rate_curve(deltas, epsilon: float) -> np.ndarray:
    """Rows of (delta, epsilon, rate) over a grid of singularities."""
    return np.asarray([(float(d), float(epsilon), optimal_rate(d, epsilon)) for d in deltas])
