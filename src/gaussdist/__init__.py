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
    FitReport,
    effective_dimension,
    fit_report,
    pairwise_distances,
    relative_contrast_curve,
    sample_fit_report,
    standardize,
)
from .distribution import DistanceDistribution
from .moments import MomentSet, moment_set, raw_moment
from .montecarlo import EmpiricalSample, KsResult, ks_one_sample, simulate_pairs
from .specfun import ConvergenceError, reg_gamma_p, reg_gamma_q

__all__ = [
    "__version__",
    "ContrastRow",
    "ConvergenceError",
    "DistanceDistribution",
    "EmpiricalSample",
    "FitReport",
    "KsResult",
    "MomentSet",
    "effective_dimension",
    "fit_report",
    "ks_one_sample",
    "moment_set",
    "pairwise_distances",
    "raw_moment",
    "reg_gamma_p",
    "reg_gamma_q",
    "relative_contrast_curve",
    "sample_fit_report",
    "simulate_pairs",
    "standardize",
]
