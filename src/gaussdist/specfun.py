"""Special-function kernel: the regularized incomplete gamma functions.

Everything here is self-contained (numpy only).  The incomplete gamma
functions accept a scalar or array x >= 0, x = +inf included, and split
their domain in three:

- Temme's uniform asymptotic expansion (DLMF §8.12) for a >= 20 and
  |x - a| < 0.3 a.  That is the bulk, where both iterative methods need
  about sqrt(60 a) steps; the expansion costs the same for every a.
- A power series for the lower function elsewhere when x < a + 1.
- A modified Lentz continued fraction for the upper function elsewhere
  when x >= a + 1.

Outside the Temme window both iterations converge in under ~100 steps.
Each regime gives one tail and its side, ``(tail, upper)``: Q where
upper, else P.  Each path forms P and Q from that pair in one place, the
other tail as 1 - tail, so P + Q == 1 holds to machine precision by
construction.

A scalar x, or an array of at most ``_POINTWISE_MAX`` (16) points, is
evaluated one Python float at a time (``_reg_gamma_point``), where
numpy's per-call cost dominates (measured at ``_POINTWISE_MAX``); longer
arrays run in vectorized lanes.  Both paths pick the regime by one rule
(``_in_temme_window``, then x < a + 1), and each regime has one body
that takes a float or an array (``_temme_tail``, ``_lower_series``,
``_upper_continued_fraction``), so the two give the same bits.

The Temme coefficients d[k][n] (``_TEMME_COEF``) are the Taylor
coefficients in eta of c_k(eta), DLMF §8.12.  They were generated in
exact rational arithmetic: eta^2/2 = lambda - 1 - ln(lambda) is inverted
to a power series for lambda - 1 in eta, whose reciprocal gives
c_0 = 1/(lambda - 1) - 1/eta; the recurrence
c_k = c_{k-1}'(eta)/eta + (-1)^k g_k/(lambda - 1) gives the rest, with
the Stirling coefficient g_k fixed by cancelling the 1/eta term.
``tests/test_specfun.py`` regenerates the table and checks every entry.
Every polynomial, whose coefficients may be array rows, goes through one
Horner's rule (``_horner``), so no sum here depends on BLAS.

The gamma density x^a e^-x / Gamma(a), which scales the series, the
continued fraction and the law's pdf, is formed here too
(``_log_gamma_density``).  The per-shape constants, its peak and the
folded Temme coefficients, are memoized (``functools.lru_cache``, capped at 128).
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["ConvergenceError", "reg_gamma_p", "reg_gamma_q"]


class ConvergenceError(RuntimeError):
    """An iterative evaluation failed to reach tolerance within its budget."""


# Convergence control of the series and the continued fraction.
_REL_TOLERANCE = 1e-12
_MAX_ITERATIONS = 300

# Inputs of at most this many points are evaluated one Python float at a
# time (``_reg_gamma_point``), larger arrays by the vectorized lanes; both
# give the same bits.  On law draws at 16 points the lanes take 1.6-8x as
# long as the points; the two cost the same somewhere between about 20 and
# 128 points, depending on a.
_POINTWISE_MAX = 16

# Temme's uniform expansion is used for a >= _TEMME_MIN_A and
# |x - a| < _TEMME_WINDOW * a.  There |eta| < 0.34, so truncating at 20
# powers of eta leaves an absolute error below 1e-22, and at 10 powers
# of 1/a one of 2e-17 at a = 20, falling as a^-10.
_TEMME_MIN_A = 20.0
_TEMME_WINDOW = 0.3
_TEMME_COEF = np.array((
    (  # d[0][n]
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12, 1.1004392031956135e-13,
    ),
    (  # d[1][n]
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11, 6.067215101604758e-14,
        7.1624989648114856e-12, -2.933186643771437e-12,
    ),
    (  # d[2][n]
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
        9.428356159014678e-13, 1.2872252400089318e-10, -5.5645956134363323e-11,
        1.197593554636698e-11, -4.1689782251838634e-15,
    ),
    (  # d[3][n]
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
        -9.460496661855133e-10, 2.1541049775774907e-10, -1.388823336813903e-14,
        -2.1894761681963938e-11, 9.790998951171684e-12,
    ),
    (  # d[4][n]
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08, 3.4463580499464896e-09,
        -2.3024517174528067e-13, -3.9409233028046403e-10, 1.86023389685045e-10,
        -4.356323005056618e-11, 1.278600101629623e-15,
    ),
    (  # d[5][n]
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
        4.8240967037894184e-08, -1.7989466721743514e-14, -6.306194500013523e-09,
        3.162417628774568e-09, -7.840924253697429e-10, 5.192679165254041e-15,
        9.358944242306784e-11, -4.513426216163278e-11,
    ),
    (  # d[6][n]
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07, 2.338630673826657e-13,
        -8.828600746330484e-08, 4.7435958880408125e-08, -1.2545415020710383e-08,
        8.649648858010293e-14, 1.6846058979264062e-09, -8.575492823577594e-10,
        2.1598224929232125e-10, -7.613230520476153e-16,
    ),
    (  # d[7][n]
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
        4.93875893393627e-10, -1.0595367014026043e-06, 6.166714376110408e-07,
        -1.7562973359060463e-07, -1.297447328701544e-12, 2.695423606288966e-08,
        -1.4578352908731272e-08, 3.887645959386175e-09, -3.881002251019412e-17,
        -5.327994173877286e-10, 2.7437977643314844e-10,
    ),
    (  # d[8][n]
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05, 4.557909867922708e-09, -1.0595271125805195e-05,
        6.783342904865167e-06, -2.1075476666258803e-06, -1.7213731432817144e-11,
        3.773587741611098e-07, -2.1867506700122867e-07, 6.220228804018927e-08,
        6.597703826733e-16, -9.590386497425686e-09, 5.213214492280807e-09,
        -1.3991589583935709e-09, 5.382058999060575e-16,
    ),
    (  # d[9][n]
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704, 1.819700838046515e-07,
        -8.479507117068503e-05, 6.105192082501531e-05, -2.1073920183404862e-05,
        -8.858589014125599e-10, 4.5284535953805374e-06, -2.8427815022504407e-06,
        8.708234177864641e-07, 3.6886101871706966e-12, -1.534469519070206e-07,
        8.862466778790695e-08, -2.5184812301826817e-08, -1.0225912098215092e-14,
        3.896947075815478e-09, -2.1267304792235634e-09,
    ),
))

# 1/(2j + 3): u^3 times this series in u^2 is atanh(u) - u, to 1e-17
# relative for |u| < 0.18, i.e. |sigma| < 0.3.
_ATANH_COEF = tuple(1.0 / (2 * j + 3) for j in range(11))

# Stirling series of log Gamma*(a) = log Gamma(a) - (a - 1/2) log a + a
# - log(2 pi)/2 (DLMF 5.11.1): B_2n / (2n (2n - 1)), the coefficient of
# a^-(2n-1).  For a >= _STIRLING_MIN_A seven terms leave an error below
# 3e-17.
_STIRLING_MIN_A = 10.0
_STIRLING_COEF = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# exp underflows to 0 below about -745.  The terms added to
# a (log(x/a) - sigma), the peak (at most 353) and the log(2/r) of a
# density in r (at most 745), cannot lift this floor past that.  Where
# log(2x/a) < _LOG_DENSITY_FLOOR/a - 1, a (log(x/a) - sigma) lies below
# the floor, so clamping log(2x/a) there changes no result and keeps
# the product with a finite at any accepted a.
_LOG_DENSITY_FLOOR = -2000.0


@functools.lru_cache(maxsize=128)
def _log_density_peak(a: float) -> float:
    """log(x^a e^-x / Gamma(a)) at x = a.

    log(a/2 pi)/2 - log Gamma*(a) = a log(a) - a - log Gamma(a), the
    latter form below _STIRLING_MIN_A.
    """
    if a < _STIRLING_MIN_A:
        return a * math.log(a) - a - math.lgamma(a)
    return 0.5 * math.log(a) - _LN_SQRT_2PI - _horner(_STIRLING_COEF, 1.0 / (a * a)) / a


def _log_gamma_density(a: float, x, log_x):
    """log(x^a e^-x / Gamma(a)) for x > 0, given log_x = log(x).

    x and log_x are both floats or both arrays.  The Stirling-scaled form of DiDonato &
    Morris (1986), -a (sigma - log1p(sigma)) + log(a / 2 pi)/2
    - log Gamma*(a) with sigma = (x - a)/a, cancels the a log(x) and x
    terms exactly, so the error is that of sigma itself, about sqrt(a)
    ulps near the peak, instead of a log(x) ulps.  Below x = a/2 sigma
    has lost the low bits of x/a, so log1p stops at sigma = -1/2 and
    log(2x/a) < 0 from log_x adds the rest; that also keeps the density
    of an x that underflows when the caller has its logarithm.  A float
    stays on Python floats but for np.log1p, which rounds as the array
    loop does (math.log1p does not).
    """
    sigma = (x - a) / a
    floor = _LOG_DENSITY_FLOOR / a - 1.0
    if isinstance(x, float):
        below_half = max(float(log_x) - math.log(0.5 * a), floor)
        log_ratio = float(np.log1p(max(sigma, -0.5))) + min(below_half, 0.0)
    else:
        below_half = np.maximum(log_x - math.log(0.5 * a), floor)
        log_ratio = np.log1p(np.maximum(sigma, -0.5)) + np.minimum(below_half, 0.0)
    return (log_ratio - sigma) * a + _log_density_peak(a)


def _lower_series(a: float, x):
    """P(a, x) by the power series; requires 0 < x < a + 1 elementwise.

    x is a float or an array, evaluated elementwise; each array lane
    stops at its own convergence point, so it gives the bits of a float.
    """
    scalar = isinstance(x, float)
    # The 0.1 factor on the termination tests keeps the final error an
    # order of magnitude inside _REL_TOLERANCE (the stopping increment
    # only bounds the remaining tail up to the contraction ratio).
    stop = 0.1 * _REL_TOLERANCE
    term, total = (1.0, 1.0) if scalar else (np.ones_like(x), np.ones_like(x))
    rate = a
    for _ in range(_MAX_ITERATIONS):
        rate += 1.0
        term *= x / rate
        total += term
        live = term > stop * total
        if scalar:
            if not live:
                break
        elif live.any():
            # A converged lane adds nothing more, so it ends where a float breaks.
            term *= live
        else:
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma series did not converge for a={a} "
            f"within {_MAX_ITERATIONS} iterations"
        )
    density = np.exp(_log_gamma_density(a, x, np.log(x)))
    return total * (float(density) if scalar else density) / a


def _upper_continued_fraction(a: float, x):
    """Q(a, x) by the modified Lentz continued fraction; requires x >= a + 1.

    x is a float or an array, evaluated elementwise as in
    ``_lower_series``.  Gamma(a, x) e^x x^-a =
    1/(b_0 + a_1/(b_1 + a_2/(b_2 + ...))) with b_i = x + 1 - a + 2i and
    a_i = -i (i - a) (Thompson & Barnett 1986).
    Lentz carries the ratios of successive numerators and denominators,
    which stay O(1), so nothing overflows even where x is near the float
    limit.  For x >= a + 1, b_i >= 2 (i + 1), and by induction on i both
    Lentz denominators stay at least b_i / 2, so neither comes near 0.
    """
    scalar = isinstance(x, float)
    stop = 0.1 * _REL_TOLERANCE
    b = x + (1.0 - a)
    d = 1.0 / b
    # The leading term of the fraction is 0, so C starts at infinity.
    c = math.inf if scalar else np.full_like(x, np.inf)
    h = d if scalar else d.copy()
    done = False  # as an array index, selects no lane
    for i in range(1, _MAX_ITERATIONS + 1):
        an = -i * (i - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        if not scalar:
            # A converged lane keeps its h, so it ends where a float breaks.
            delta[done] = 1.0
        h *= delta
        done = abs(delta - 1.0) <= stop
        if done if scalar else done.all():
            break
    else:
        raise ConvergenceError(
            f"incomplete gamma continued fraction did not converge for a={a} "
            f"within {_MAX_ITERATIONS} iterations"
        )
    density = np.exp(_log_gamma_density(a, x, np.log(x)))
    return h * (float(density) if scalar else density)


def _horner(coef, t):
    """sum_n coef[n] t^n, for a float t or elementwise over an array t; coef[n] may be a row."""
    if isinstance(t, float):
        out = coef[-1]
        for c in coef[-2::-1]:
            out = out * t + c
        return out
    out = np.full_like(t, coef[-1])
    for c in coef[-2::-1]:
        out *= t
        out += c
    return out


def _sigma_minus_log1p(sigma):
    """sigma - log1p(sigma) for |sigma| < 0.3, to a few ulps.

    Subtracting log1p(sigma) from sigma loses 1/|sigma| ulps to
    cancellation.  With u = sigma/(2 + sigma), log1p(sigma) = 2 atanh(u)
    gives sigma u - 2 u^3 sum_j u^2j/(2j + 3) instead, whose second term
    is under 5% of the first.
    """
    u = sigma / (2.0 + sigma)
    u2 = u * u
    return sigma * u - 2.0 * (u * u2) * _horner(_ATANH_COEF, u2)


def _in_temme_window(a: float, x):
    """Whether Temme's expansion evaluates P and Q at x, a float or an array."""
    return (a >= _TEMME_MIN_A) & (abs(x - a) < _TEMME_WINDOW * a)


@functools.lru_cache(maxsize=128)
def _temme_coef(a: float) -> tuple[float, ...]:
    """b_n = sum_k d[k][n] a^-k, which folds Temme's double sum into one polynomial."""
    return tuple(_horner(_TEMME_COEF, 1.0 / a).tolist())


def _temme_tail(a: float, x):
    """Q(a, x) where x >= a and P(a, x) where x < a, and whether x >= a.

    x is a float or an array, evaluated elementwise.  Temme's expansion
    Q = erfc(eta sqrt(a/2))/2 + R and P = erfc(-eta sqrt(a/2))/2 - R, with
    R = exp(-a eta^2/2) / sqrt(2 pi a) * sum_k c_k(eta) a^-k,
    eta^2/2 = sigma - log1p(sigma), sigma = (x - a)/a and eta of the
    sign of sigma.  math and numpy round sqrt and copysign alike, and
    both paths take np.exp, so a float gives the bits of its array lane.
    Arrays are updated in place to bound peak memory.
    """
    scalar = isinstance(x, float)
    sqrt, copysign = (math.sqrt, math.copysign) if scalar else (np.sqrt, np.copysign)
    sigma = (x - a) / a
    upper = sigma >= 0.0
    half_eta_sq = _sigma_minus_log1p(sigma)
    eta = copysign(sqrt(2.0 * half_eta_sq), sigma)
    # +R in the Q tail (x >= a), -R in the P tail.
    signed_r = copysign(np.exp(-a * half_eta_sq), sigma)
    signed_r *= _horner(_temme_coef(a), eta)
    signed_r /= math.sqrt(2.0 * math.pi * a)
    if scalar:
        return math.erfc(abs(eta) * math.sqrt(0.5 * a)) * 0.5 + signed_r, upper
    # numpy has no erfc; math.erfc per element keeps the runtime numpy-only.
    y = np.abs(eta, out=eta)
    y *= math.sqrt(0.5 * a)
    tail = np.fromiter(map(math.erfc, y.tolist()), float, y.size)
    tail *= 0.5
    tail += signed_r
    return tail, upper


def _reg_gamma_point(a: float, x: float) -> tuple[float, float]:
    """P and Q at one float x >= 0.

    x goes to the regime function its array lane would, as a float, and
    its ``(tail, upper)`` pair is completed by the same step, so the
    results are the same bits.
    """
    if not x >= 0.0:
        raise ValueError("incomplete gamma requires x >= 0")
    if x == 0.0 or x == math.inf:
        tail, upper = 0.0, x == math.inf
    elif _in_temme_window(a, x):
        tail, upper = _temme_tail(a, x)
    elif x < a + 1.0:
        tail, upper = _lower_series(a, x), False
    else:
        tail, upper = _upper_continued_fraction(a, x), True
    return (1.0 - tail, tail) if upper else (tail, 1.0 - tail)


def _reg_gamma_both(a: float, x):
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError("incomplete gamma requires finite a > 0")
    if isinstance(x, float) or np.ndim(x) == 0:
        return _reg_gamma_point(a, float(x))
    arr = np.asarray(x, dtype=float)
    if arr.size <= _POINTWISE_MAX:
        p, q = np.array([_reg_gamma_point(a, v) for v in arr.ravel().tolist()]).reshape(-1, 2).T
        return p.reshape(arr.shape), q.reshape(arr.shape)
    # NaN compares False, so one comparison refuses NaN and x < 0.
    if not np.all(arr >= 0.0):
        raise ValueError("incomplete gamma requires x >= 0")
    # Q where upper, else P.  x = 0 is a lower lane and x = inf an upper
    # one, and both keep tail 0: P(a, 0) = 0 and Q(a, inf) = 0.
    tail = np.zeros_like(arr)
    upper = arr >= a + 1.0
    bulk = _in_temme_window(a, arr)
    if np.any(bulk):
        tail[bulk], upper[bulk] = _temme_tail(a, arr[bulk])
    series = ~bulk & ~upper & (arr > 0.0)
    if np.any(series):
        tail[series] = _lower_series(a, arr[series])
    fraction = ~bulk & upper & (arr < np.inf)
    if np.any(fraction):
        tail[fraction] = _upper_continued_fraction(a, arr[fraction])
    return np.where(upper, 1.0 - tail, tail), np.where(upper, tail, 1.0 - tail)


def reg_gamma_p(a, x):
    """Regularized lower incomplete gamma P(a, x), in [0, 1].

    Computed directly from the power series when x < a + 1 (no
    cancellation against 1), by complement of the continued fraction
    otherwise; near the bulk at a >= 20 (|x - a| < 0.3 a) both tails
    come from Temme's expansion.
    """
    return _reg_gamma_both(a, x)[0]


def reg_gamma_q(a, x):
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x)/Gamma(a).

    Monotone non-increasing in x; evaluated by continued fraction in the
    tail (x >= a + 1) so small survival probabilities keep full relative
    precision.
    """
    return _reg_gamma_both(a, x)[1]
