"""Gumbel-max text watermarking with robust truncated goodness-of-fit detection.

The package covers the full pipeline on synthetic token sources: keyed
pseudorandom generation, watermark embedding with repeated-context masking,
human-edit simulation, detection through truncated goodness-of-fit / Higher Criticism /
sum-rule statistics, exact and CLT calibration, and the phase-transition and
efficiency experiment harness.
"""

__version__ = "0.1.0"

from .prf import Key, prf_uniform, prf_vector
from .tokensource import (
    ToySource,
    entropy_of,
    make_m1,
    make_m2,
    toy_next_dist,
)
from .pivotal import PivotSeries, alt_cdf, alt_pdf, alt_sample, pivot_series
from .watermark import GenConfig, TokenSeq, generate, generate_null, gumbel_decode
from .detectors import (
    ARS,
    LOG,
    BoundarySpec,
    HigherCriticism,
    ScoreKind,
    SumScore,
    TrGoF,
    ind,
    null_moments,
    opt,
    score,
    trgof_stat,
)
from .calibrate import critical_value, mc_critical, null_sf, tradeoff_curve
from .edits import (
    EditPlan,
    ToleranceResult,
    apply_adversarial_edit,
    apply_random_edit,
    tolerance_limit,
)
from .experiments import (
    MixtureConfig,
    boundary_grid,
    entropy_gap_check,
    histogram_study,
    sample_mixture,
)
from .efficiency import optimal_rate, rate_curve

__all__ = [name for name in dir() if not name.startswith("_")]
