"""Independent oracles shared by the test modules.

Everything here deliberately avoids the code paths under test: moments
come from adaptive quadrature of the density, the normal CDF comes from
math.erf, and reference special-function values come from scipy, from
50-digit mpmath, or from high-precision constants frozen below.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad

# High-precision reference constants (>= 25 significant digits at source).
Q_2P5_2P0 = 0.5494159513527802326058311  # regularized upper gamma at a=2.5, x=2
RATIO_50P5_50 = 7.053412514876913325505798  # Gamma(50.5)/Gamma(50)
TWO_SQRT_LN2 = 1.6651092223153956  # median of the k=2 law
INV_SQRT_PI = 0.5641895835477563
TWO_OVER_SQRT_PI = 1.1283791670955126
LN_SQRT_PI = 0.5723649429247001
LN_120 = 4.787491742782046


def quad_moment(pdf, n, center, upper):
    """Adaptive quadrature of (r - center)^n against a density."""
    val, _ = quad(
        lambda r: (r - center) ** n * pdf(r),
        0.0,
        upper,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    return val


def normal_cdf(z):
    """Standard normal CDF via math.erf (no dependence on the package)."""
    z = np.asarray(z, dtype=float)
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def golden_section_max(f, lo, hi, tol=1e-9):
    """Locate the maximizer of a unimodal function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def ks_statistic_against(sorted_values, cdf_values):
    """Exact one-sample KS statistic given CDF values at the sorted points."""
    n = len(sorted_values)
    i = np.arange(1, n + 1)
    return float(
        max(np.max(i / n - cdf_values), np.max(cdf_values - (i - 1) / n))
    )


def closed_form_mu3(k):
    """Direct gamma-function expression for the third central moment."""
    g = math.gamma
    return (
        16.0 * g((k + 1) / 2.0) ** 3
        + 4.0 * (1.0 - 2.0 * k) * g(k / 2.0) ** 2 * g((k + 1) / 2.0)
    ) / g(k / 2.0) ** 3


def closed_form_mu4(k):
    """Direct gamma-function expression for the fourth central moment."""
    g = math.gamma
    return 4.0 * k * (k + 2.0) + (
        math.pi * 4.0 ** (3.0 - k) * (k - 2.0) * g(k) ** 2
        - 48.0 * g((k + 1) / 2.0) ** 4
    ) / g(k / 2.0) ** 4


def reference_gamma_pq(a, x, digits=50):
    """P(a, x) and Q(a, x) as mpmath numbers with `digits` significant digits.

    The lower tail (x < a) is the direct sum of the power series, because
    mpmath.gammainc is unreliable there at large a (5e-4 off at a = 1e4,
    x = 0.89 a; NoConvergence at a = 1e5).  The upper tail uses
    mpmath.gammainc, which is accurate for it.
    """
    with mpmath.workdps(digits):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        if x < a:
            term = total = mpmath.mpf(1)
            n = 0
            while term > total * mpmath.mpf(10) ** -(digits - 5):
                n += 1
                term *= x / (a + n)
                total += term
            p = total * mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
            return +p, 1 - p
        q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        return 1 - q, +q


def reference_pdf(k, r, digits=60):
    """The closed-form density 2^(1-k) e^(-r^2/4) r^(k-1) / Gamma(k/2), in mpmath."""
    with mpmath.workdps(digits):
        k, r = mpmath.mpf(k), mpmath.mpf(r)
        return +mpmath.exp(
            (1 - k) * mpmath.log(2) - r * r / 4 + (k - 1) * mpmath.log(r)
            - mpmath.loggamma(k / 2)
        )
