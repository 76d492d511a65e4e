"""Test statistics for watermark detection.

Two families are provided.

* The truncated goodness-of-fit family: a phi_s-divergence between the
  empirical p-value CDF and uniform,

      S_n_plus(s) = max over admissible t of K_s_plus(t/n, p_(t)),

  with p-values sorted ascending, the convention p_(n+1) = 1, and the
  admissible set {t : p_(t+1) >= c_plus}. K_s_plus is the Bernoulli
  phi_s-divergence truncated to positive deviations (0 unless v < u). One
  kernel evaluates it, for the statistic and for the exact null boundary in
  ``calibrate``. Higher Criticism is the s = 2 member on the square-root
  scale: HC_n_plus = sqrt(2 n S_n_plus(2)).

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

from ._validation import check_delta, check_fraction, check_unit_open
from .pivotal import PivotSeries, _clip, _grouped_log_pdf, _null_expectation
from .tokensource import least_favorable_atoms


# ---------------------------------------------------------------------------
# the truncated Bernoulli divergence K_s^+
# ---------------------------------------------------------------------------

def _k_s_plus_terms(u: np.ndarray, v: np.ndarray, s: float) -> np.ndarray:
    """K_s^+(u, v) over arrays that broadcast together, u in [0, 1] and v in (0, 1), unchecked.
    At s = 2 it is the chi-square form, which does not cancel as v nears u. At
    u = 1 and s <= 0, where K_s is infinite, the term truncates to 0."""
    if s == 2.0:
        return np.maximum(u - v, 0.0) ** 2 / (2.0 * v * (1.0 - v))
    return _k_s_plus_and_slope(u, v, s, with_slope=False)[0]


def _k_s_plus_and_slope(u: np.ndarray, v: np.ndarray, s: float, with_slope: bool = True):
    """K_s^+(u, v) and v dK_s^+/dv, the latter read only where v < u (None
    without ``with_slope``, which the statistic does not read).

    With a = log(u/v) and b = log((1-u)/(1-v)), each taken as log1p of a
    difference so that no ratio near 1 rounds as v nears u, K_s =
    -(v expm1(s a) + (1-v) expm1(s b)) / (s (1-s)) and v dK_s/dv =
    v (expm1(s b) - expm1(s a)) / s for s < 1/2; for s >= 1/2 the symmetry
    K_s(u, v) = K_(1-s)(v, u) gives K_s = -(u expm1((s-1) a) + (1-u)
    expm1((s-1) b)) / (s (1-s)) and v dK_s/dv = (v e^(s b) - u e^((s-1) a)) / s.
    Neither cancels as s nears 0 or 1, where the limits are taken exactly; at
    u = 1 the (1-u) term is 0.
    """
    u, v = np.broadcast_arrays(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):  # u = 0 or 1 makes a or b infinite: masked below
        a = np.log1p((u - v) / v)
        b = np.log1p((v - u) / (1.0 - v))
        if s == 0.0:
            k = -(v * a + (1.0 - v) * b)
            slope = v * (b - a) if with_slope else None
        elif s < 0.5:
            ea, eb = np.expm1(s * a), np.expm1(s * b)
            k = -(v * ea + (1.0 - v) * eb) / (s * (1.0 - s))
            slope = v * (eb - ea) / s if with_slope else None
        else:
            fa = np.expm1((s - 1.0) * a)
            rest = np.where(u < 1.0, (1.0 - u) * (b if s == 1.0 else np.expm1((s - 1.0) * b)), 0.0)
            k = u * a + rest if s == 1.0 else -(u * fa + rest) / (s * (1.0 - s))
            slope = (v * np.exp(s * b) - u * (fa + 1.0)) / s if with_slope else None
    return np.where((u > v) & (u < 1.0) if s <= 0.0 else u > v, k, 0.0), slope


# ---------------------------------------------------------------------------
# statistics over a pivot series
# ---------------------------------------------------------------------------

def _clipped(series, field: str = "p") -> np.ndarray:
    """The clipped p-values (field "y": pivots) of a PivotSeries or of an array of them."""
    x = _clip(getattr(series, field) if isinstance(series, PivotSeries) else series)
    if x.size == 0:
        raise ValueError("empty pivot series")
    return x


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
    check_fraction(c_plus, "c_plus")
    ps = np.sort(_clipped(series), axis=-1)
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
            if self.param is None:
                raise ValueError(f"score {self.name!r} needs a parameter in (0, 1)")
            check_delta(self.param, "delta0")
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
        object.__setattr__(self, "s", float(self.s))
        object.__setattr__(self, "c_plus", check_fraction(self.c_plus, "c_plus"))

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
        object.__setattr__(self, "c_plus", check_fraction(self.c_plus, "c_plus"))

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
        return _float_if_scalar(_score_terms(_clipped(series, "y"), self.kind).sum(axis=-1))

    def to_config(self) -> dict:
        return {
            "kind": "sum",
            "score": self.kind.name,
            "delta0": self.kind.param,
            "critical_value": self.critical_value,
        }
