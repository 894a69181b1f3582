"""Distances between random points with i.i.d. standard normal coordinates.

The distance R between two such points in k dimensions has the closed
form CDF P(k/2, R^2/4); this package evaluates that law exactly
(density, CDF, survival, quantile, sampling), computes its moments,
validates everything against brute-force simulation, and applies the law
to real datasets (significance of observed distances, goodness of fit,
effective dimension, relative contrast).
"""

__version__ = "0.1.0"

from .diagnostics import (
    ContrastRow,
    DatasetMatrix,
    FitReport,
    distance_pvalue,
    effective_dimension,
    fit_report,
    pairwise_distances,
    relative_contrast_curve,
    sample_fit_report,
    standardize,
)
from .distribution import DistanceDistribution, pdf_1d
from .moments import (
    MomentSet,
    central_moment,
    kurtosis,
    moment_set,
    raw_moment,
    skewness,
)
from .montecarlo import (
    EmpiricalSample,
    KsResult,
    SampleMoments,
    SampleSource,
    ecdf,
    ks_one_sample,
    ks_two_sample,
    sample_moments,
    simulate_pairs,
)
from .specfun import (
    ConvergenceError,
    gamma_shift_ratio,
    log_gamma,
    reg_gamma_p,
    reg_gamma_q,
)

__all__ = [
    "__version__",
    "ContrastRow",
    "ConvergenceError",
    "DatasetMatrix",
    "DistanceDistribution",
    "EmpiricalSample",
    "FitReport",
    "KsResult",
    "MomentSet",
    "SampleMoments",
    "SampleSource",
    "central_moment",
    "distance_pvalue",
    "ecdf",
    "effective_dimension",
    "fit_report",
    "gamma_shift_ratio",
    "ks_one_sample",
    "ks_two_sample",
    "kurtosis",
    "log_gamma",
    "moment_set",
    "pairwise_distances",
    "pdf_1d",
    "raw_moment",
    "reg_gamma_p",
    "reg_gamma_q",
    "relative_contrast_curve",
    "sample_fit_report",
    "sample_moments",
    "simulate_pairs",
    "skewness",
    "standardize",
]
