"""Spatio-temporal point-process analysis and simulation of fixation data.

The pipeline: ingest fixation events, estimate kernel intensity surfaces
with edge correction, compare groups (shift functions, permutation test on
the log density ratio), fit gamma duration/length distributions, simulate
the reference fixation-process model, summarize runs with functional
statistics, and wrap them in global rank envelopes.
"""

from .compare import (
    FisherResult,
    RatioTestResult,
    ShiftCurve,
    fisher_combine,
    log_density_ratio,
    permutation_test,
    ratio_statistic,
    shift_function,
)
from .core import (
    DEFAULT_TRIAL_LENGTH_MS,
    MIN_FIXATION_MS,
    NON_NOVICE,
    NOVICE,
    REFERENCE_WINDOW,
    DataError,
    Dataset,
    FixationSequence,
    NumericError,
    Saccades,
    StepCurve,
    Window,
)
from .density import (
    BandwidthCV,
    IntensityGrid,
    QuadratTestResult,
    chisq_sf,
    edge_correction,
    estimate_intensity,
    quadrat_chisq,
    residual_intensities,
    select_bandwidth_cv,
)
from .envelopes import (
    CurveMatrix,
    RankEnvelope,
    default_grid,
    envelope_report,
    rank_envelope,
)
from .fitdist import (
    GammaFit,
    QQBand,
    acf,
    fit_gamma_mle,
    gamma_qq,
    law_sample,
    sample_truncated_gamma,
)
from .ingest import (
    IngestReport,
    derive_saccades,
    filter_fixations,
    ingest_pipeline,
    parse_fixations,
    write_fixations,
)
from .simulate import (
    FixationModel,
    SimRun,
    build_model,
    next_location,
    sample_initial,
    simulate_curves,
    simulate_many,
    simulate_runs,
)
from .summaries import (
    RunCurves,
    TransitionCurves,
    ball_union_coverage,
    convex_hull,
    convex_hull_coverage,
    curve_rows,
    polygon_area,
    resample_curve,
    scanpath_length,
    transition_curves,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
