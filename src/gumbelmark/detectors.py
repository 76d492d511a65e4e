"""Test statistics for watermark detection.

Two families are provided.

* The truncated goodness-of-fit family: a phi_s-divergence between the
  empirical p-value CDF and uniform,

      S_n_plus(s) = max over admissible t of K_s_plus(t/n, p_(t)),

  with p-values sorted ascending, the convention p_(n+1) = 1, and the
  admissible set {t : p_(t+1) >= c_plus}. K_s_plus is the Bernoulli
  phi_s-divergence truncated to positive deviations (0 unless v < u). One
  kernel evaluates it, for the statistic, for the exact null boundary in
  ``calibrate`` and for the public ``k_s_plus``. Higher Criticism is the
  s = 2 member on the square-root scale: HC_n_plus = sqrt(2 n S_n_plus(2)).

* Sum rules: T_h = sum of a score h(Y_t), rejecting above a threshold.
  Scores: ars(y) = -log(1-y), log(y), the indicator 1{y >= delta}, and the
  least-favorable log-density log f_P*(y) for a singularity guess Delta0.

Detector objects are frozen dataclasses: the fields are the null law's
parameters plus ``critical_value``, which equality and hashing ignore. ``fit``
returns a copy with ``critical_value`` from the null law
(``calibrate.critical_value``, the one module that knows the null laws),
``statistic`` returns the statistic, and ``predict`` the reject decision.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ._validation import check_unit_open
from .pivotal import PivotSeries, _grouped_log_pdf, _null_expectation
from .tokensource import least_favorable_atoms

S_BRANCH_TOL = 1e-9  # |s| or |s-1| below this selects the KL limit branch of K_s_plus
_CLIP = 2.0**-53  # p-values and pivots are clipped to [_CLIP, 1 - _CLIP]; 1 - y >= _CLIP for a float y < 1


# ---------------------------------------------------------------------------
# the truncated Bernoulli divergence K_s^+
# ---------------------------------------------------------------------------

def k_s_plus(u, v, s: float):
    """K_s^+(u, v): the phi_s-divergence between Bernoulli(u) and Bernoulli(v),

        (1 - u**s v**(1-s) - (1-u)**s (1-v)**(1-s)) / (s (1 - s)),

    when v < u, else 0; at s = 2 it is (u - v)**2 / (2 v (1 - v)), taken as
    written, which does not cancel as v nears u and holds at u = 1.

    ``u`` in [0, 1] and ``v`` in (0, 1) are scalars or arrays that broadcast
    together; the result is a float for scalars and an array otherwise.
    Within S_BRANCH_TOL of s = 0 and s = 1 the limits, the two Bernoulli KL
    divergences, replace the generic form, which cancels there. At u = 1
    the finite closed form is used when one exists (every s > 0); for
    s <= 0 none exists and the term truncates to 0, which keeps the s <= 0
    statistics finite.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not np.all((v > 0.0) & (v < 1.0)):
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    if not np.all((u >= 0.0) & (u <= 1.0)):
        raise ValueError(f"u must lie in [0, 1], got {u!r}")
    return _float_if_scalar(_k_s_plus_terms(u, v, s))


def _k_s_plus_terms(u: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """K_s^+(u, v) over arrays that broadcast together, u in [0, 1] and v in (0, 1), unchecked."""
    if s == 2.0:
        return np.maximum(u - v, 0.0) ** 2 / (2.0 * v * (1.0 - v))
    u, v = np.broadcast_arrays(u, v)
    out = np.zeros_like(v)
    pos = u > v
    inner = pos & (u < 1.0)
    near1 = abs(s - 1.0) < S_BRANCH_TOL
    near0 = abs(s) < S_BRANCH_TOL
    if inner.any():
        ui, vi = u[inner], v[inner]
        if near1:
            vals = ui * np.log(ui / vi) + (1.0 - ui) * np.log((1.0 - ui) / (1.0 - vi))
        elif near0:
            vals = vi * np.log(vi / ui) + (1.0 - vi) * np.log((1.0 - vi) / (1.0 - ui))
        else:
            vals = (1.0 - ui**s * vi ** (1.0 - s) - (1.0 - ui) ** s * (1.0 - vi) ** (1.0 - s)) / (
                s * (1.0 - s)
            )
        out[inner] = vals
    edge = pos & (u >= 1.0)
    if edge.any():
        ve = v[edge]
        if near1:
            out[edge] = -np.log(ve)
        elif s > S_BRANCH_TOL:
            out[edge] = (1.0 - ve ** (1.0 - s)) / (s * (1.0 - s))
        # s <= 0: no finite closed form at u = 1; truncated to 0
    return out


def _k_s_plus_log_slope(u: np.ndarray, p: np.ndarray, s: float) -> np.ndarray:
    """p dK_s^+(u, p)/dp = (p (1-u)^s (1-p)^-s - u^s p^(1-s)) / s for 0 < p < u <= 1,
    which the s -> 1 branch of K_s^+ shares and whose s -> 0 limit is p log(p (1-u) / (u (1-p)))."""
    if abs(s) < S_BRANCH_TOL:
        return p * np.log(p * (1.0 - u) / (u * (1.0 - p)))
    return (p * ((1.0 - u) / (1.0 - p)) ** s - u * (u / p) ** (s - 1.0)) / s


# ---------------------------------------------------------------------------
# statistics over a pivot series
# ---------------------------------------------------------------------------

def _as_pvalues(series) -> np.ndarray:
    p = _clip(series.p if isinstance(series, PivotSeries) else series)
    if p.size == 0:
        raise ValueError("empty pivot series")
    return p


def _check_c_plus(c_plus: float) -> None:
    if not 0.0 <= c_plus <= 1.0:
        raise ValueError(f"c_plus must lie in [0, 1], got {c_plus!r}")


def _clip(x) -> np.ndarray:
    """p-values or pivots as floats in [_CLIP, 1 - _CLIP]: the one clip of every statistic."""
    return np.clip(np.asarray(x, dtype=float), _CLIP, 1.0 - _CLIP)


@functools.lru_cache(maxsize=8)
def _t_over_n(n: int) -> np.ndarray:
    """The grid t/n, t = 1..n, read-only: built once per series length."""
    u = np.arange(1, n + 1) / n
    u.flags.writeable = False
    return u


def _float_if_scalar(stat: np.ndarray):
    """A float for a 0-d result (one series), the array otherwise (a block)."""
    return float(stat) if stat.ndim == 0 else stat


def trgof_stat(series, s: float, c_plus: float):
    """S_n_plus(s): max of K_s_plus(t/n, p_(t)) over {t : p_(t+1) >= c_plus}.

    ``series`` holds p-values of shape (n,) or (rows, n); the statistic is
    taken along the last axis, a float for one series and an array of
    ``rows`` values for a block. Returns 0 when every term truncates to 0.
    """
    _check_c_plus(c_plus)
    ps = np.sort(_as_pvalues(series), axis=-1)
    admissible = np.empty(ps.shape, dtype=bool)  # p_(t+1) >= c_plus, and p_(n+1) = 1 admits t = n
    np.greater_equal(ps[..., 1:], c_plus, out=admissible[..., :-1])
    admissible[..., -1] = True
    vals = _k_s_plus_terms(_t_over_n(ps.shape[-1]), ps, s)
    return _float_if_scalar(vals.max(axis=-1, where=admissible, initial=0.0))


# ---------------------------------------------------------------------------
# sum-based scores
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScoreKind:
    """One of the sum-rule score functions: ars, log, ind(delta0), opt(delta0)."""

    name: str
    param: float | None = None

    def __post_init__(self):
        if self.name not in ("ars", "log", "ind", "opt"):
            raise ValueError(f"unknown score {self.name!r}")
        if self.name in ("ind", "opt"):
            if self.param is None or not 0.0 < self.param < 1.0:
                raise ValueError(f"score {self.name!r} needs a parameter in (0, 1)")
        elif self.param is not None:
            raise ValueError(f"score {self.name!r} takes no parameter")

    def label(self) -> str:
        return self.name if self.param is None else f"{self.name}({self.param:g})"


ARS = ScoreKind("ars")
LOG = ScoreKind("log")


def ind(delta0: float) -> ScoreKind:
    return ScoreKind("ind", float(delta0))


def opt(delta0: float) -> ScoreKind:
    return ScoreKind("opt", float(delta0))


def score(y, kind: ScoreKind):
    """Evaluate a score function on pivot value(s) in (0, 1)."""
    out = _score_terms(check_unit_open(y, "y"), kind)
    return out if np.ndim(y) else float(out)


def _score_terms(y: np.ndarray, kind: ScoreKind) -> np.ndarray:
    """The score of each entry of a float array y in (0, 1), unchecked."""
    if kind.name == "ars":
        return -np.log1p(-y)
    if kind.name == "log":
        return np.log(y)
    if kind.name == "ind":
        return (y >= kind.param).astype(float)
    # opt: log-density of the least-favorable watermarked pivot law, in split form
    return _grouped_log_pdf(*least_favorable_atoms(kind.param), y)


def null_moments(kind: ScoreKind) -> tuple[float, float]:
    """Mean and variance of the score under the U(0, 1) null.

    ars and log are standard exponential in disguise, ind is Bernoulli; the
    opt moments have no simple closed form and come from tanh-sinh quadrature
    of the split-form log density (``pivotal._null_expectation``, relative
    tolerance 1e-13), which stays finite at the log singularity at 0.
    """
    if kind.name == "ars":
        return 1.0, 1.0
    if kind.name == "log":
        return -1.0, 1.0
    if kind.name == "ind":
        d = kind.param
        return 1.0 - d, d * (1.0 - d)
    vals, counts = least_favorable_atoms(kind.param)
    mean = _null_expectation(lambda y: _grouped_log_pdf(vals, counts, y))
    return mean, _null_expectation(lambda y: (_grouped_log_pdf(vals, counts, y) - mean) ** 2)


# ---------------------------------------------------------------------------
# detector objects
# ---------------------------------------------------------------------------

class Detector:
    """Base detector: statistic/predict over pivots, fit from the null law.

    Detector objects uniformly take pivots (a PivotSeries or a raw array of
    pivot values y); the module-level functions instead follow each test's
    native convention (p-values for the goodness-of-fit family, pivots for
    the sum rules).
    """

    def statistic(self, series):
        """The test statistic of pivots of shape (n,) or (rows, n): a float
        for one series, an array of ``rows`` values for a block."""
        raise NotImplementedError

    @property
    def threshold(self) -> float:
        if self.critical_value is None:
            raise ValueError("no critical value: call fit() or pass critical_value")
        return float(self.critical_value)

    def predict(self, series) -> bool:
        """True when the watermark hypothesis is accepted (H0 rejected)."""
        return bool(self.statistic(series) >= self.threshold)

    def fit(self, n: int, alpha: float = 0.01):
        """A copy calibrated for length-n null series at level alpha (``calibrate.critical_value``)."""
        from .calibrate import critical_value

        return replace(self, critical_value=critical_value(self, n, alpha))


def _as_pivot_series(series) -> PivotSeries:
    """Pivots y as a PivotSeries, whose p-values 1 - y the goodness-of-fit statistics take."""
    return series if isinstance(series, PivotSeries) else PivotSeries.from_y(series)


@dataclass(frozen=True)
class TrGoF(Detector):
    """Truncated goodness-of-fit detector S_n_plus(s)."""

    s: float = 2.0
    c_plus: float = 0.0
    critical_value: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not -1.0 <= self.s <= 2.0:
            raise ValueError(f"s must lie in [-1, 2], got {self.s!r}")
        _check_c_plus(self.c_plus)
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "c_plus", float(self.c_plus))

    def statistic(self, series):
        return trgof_stat(_as_pivot_series(series), self.s, self.c_plus)

    def to_config(self) -> dict:
        return {"kind": "trgof", **asdict(self)}


@dataclass(frozen=True)
class HigherCriticism(Detector):
    """HC_n_plus = sqrt(2 n S_n_plus(2)), the s = 2 member on the square-root scale."""

    c_plus: float = 0.0
    critical_value: float | None = field(default=None, compare=False)

    def __post_init__(self):
        _check_c_plus(self.c_plus)
        object.__setattr__(self, "c_plus", float(self.c_plus))

    def statistic(self, series):
        p = _as_pivot_series(series).p
        return _float_if_scalar(np.sqrt(2.0 * p.shape[-1] * trgof_stat(p, 2.0, self.c_plus)))

    def to_config(self) -> dict:
        return {"kind": "hc", **asdict(self)}


@dataclass(frozen=True)
class SumScore(Detector):
    """Sum rule T_h for one of the score kinds."""

    kind: ScoreKind = ARS
    critical_value: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, ScoreKind):
            raise ValueError("kind must be a ScoreKind")

    def statistic(self, series):
        y = _clip(series.y if isinstance(series, PivotSeries) else series)
        if y.size == 0:
            raise ValueError("empty pivot series")
        return _float_if_scalar(_score_terms(y, self.kind).sum(axis=-1))

    def to_config(self) -> dict:
        return {
            "kind": "sum",
            "score": self.kind.name,
            "delta0": self.kind.param,
            "critical_value": self.critical_value,
        }
