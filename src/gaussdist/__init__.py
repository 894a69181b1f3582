"""Distances between random points with i.i.d. standard normal coordinates.

The distance R between two such points in k dimensions has the closed
form CDF P(k/2, R^2/4); this package evaluates that law exactly
(density, CDF, survival, quantile, sampling), computes its moments,
validates everything against brute-force simulation, and applies the law
to real datasets (significance of observed distances, goodness of fit,
effective dimension, relative contrast).
"""

__version__ = "0.1.0"

from . import diagnostics, distribution, moments, montecarlo, specfun
from .diagnostics import *
from .distribution import *
from .moments import *
from .montecarlo import *
from .specfun import *

__all__ = [
    "__version__",
    *diagnostics.__all__,
    *distribution.__all__,
    *moments.__all__,
    *montecarlo.__all__,
    *specfun.__all__,
]
