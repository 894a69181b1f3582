import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from gaussdist import specfun
from gaussdist.specfun import (
    _TEMME_COEF,
    ConvergenceError,
    gamma_shift_ratio,
    log_gamma,
    reg_gamma_p,
    reg_gamma_q,
)

from _oracles import (
    LN_120,
    LN_SQRT_PI,
    Q_2P5_2P0,
    RATIO_50P5_50,
    reference_gamma_pq,
)


class TestLogGamma:
    def test_at_one(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(LN_SQRT_PI, rel=1e-14)

    def test_factorial_value(self):
        # Gamma(6) = 5! by the recursion Gamma(n+1) = n Gamma(n)
        assert log_gamma(6.0) == pytest.approx(LN_120, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            log_gamma(bad)

    def test_accuracy_against_reference(self):
        xs = np.concatenate(
            [np.linspace(0.5, 5.0, 300), np.geomspace(5.0, 1e6, 300)]
        )
        ref = gammaln(xs)
        got = np.array([log_gamma(x) for x in xs])
        err = np.abs(got - ref) / np.maximum(1.0, np.abs(ref))
        assert np.max(err) <= 1e-13


class TestRegularizedGamma:
    def test_q_at_zero(self):
        assert reg_gamma_q(1.0, 0.0) == 1.0

    def test_q_exponential_case(self):
        # For a = 1 the upper function is exactly exp(-x).
        assert reg_gamma_q(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_q_high_precision_value(self):
        assert reg_gamma_q(2.5, 2.0) == pytest.approx(Q_2P5_2P0, rel=1e-12)

    def test_p_at_zero(self):
        assert reg_gamma_p(3.0, 0.0) == 0.0

    def test_p_exponential_case(self):
        assert reg_gamma_p(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 50.0, 200.0])
    def test_complementarity(self, a):
        xs = np.linspace(0.0, 4.0 * a, 200)
        p = reg_gamma_p(a, xs)
        q = reg_gamma_q(a, xs)
        assert np.all(np.abs(p + q - 1.0) <= 1e-14)
        assert np.all((0.0 <= p) & (p <= 1.0))

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 10.0, 50.0])
    def test_q_monotone_in_x(self, a):
        xs = np.linspace(0.0, 6.0 * a, 500)
        q = reg_gamma_q(a, xs)
        assert np.all(np.diff(q) <= 0.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 3.5, 20.0, 75.0])
    def test_recurrence(self, a):
        # P(a+1, x) = P(a, x) - x^a e^-x / Gamma(a+1)
        for x in (0.1, 0.5 * a, a, 2.0 * a):
            lhs = reg_gamma_p(a + 1.0, x)
            rhs = reg_gamma_p(a, x) - math.exp(
                a * math.log(x) - x - log_gamma(a + 1.0)
            )
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_against_scipy_grid(self):
        for a in (0.5, 1.0, 2.5, 10.0, 50.0, 200.0):
            xs = np.linspace(0.0, 4.0 * a, 300)
            ref = gammainc(a, xs)
            got = reg_gamma_p(a, xs)
            mask = ref > 1e-290
            assert np.max(np.abs(got[mask] - ref[mask]) / ref[mask]) <= 1e-10

    def test_far_tail_keeps_relative_precision(self):
        # Q(50, 400) is ~1e-109 and must come out at full relative accuracy,
        # not as 1 - P rounding noise.
        q = reg_gamma_q(50.0, 400.0)
        assert q == pytest.approx(1.1366407840501794e-109, rel=1e-10)

    @pytest.mark.parametrize("a,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.1)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            reg_gamma_p(a, x)
        with pytest.raises(ValueError):
            reg_gamma_q(a, x)

    def test_convergence_error_signals_pathological_input(self, monkeypatch):
        # x = 0.65 a lies outside the Temme window, so the series runs and
        # needs about 70 iterations.
        monkeypatch.setattr(specfun, "_MAX_ITERATIONS", 50)
        with pytest.raises(ConvergenceError):
            reg_gamma_p(1e6, 6.5e5)


def temme_table_exact(rows, cols):
    """d[k][n] of DLMF 8.12, in exact rationals.

    With mu = lambda - 1 as a power series in eta (mu mu' = eta (1 + mu),
    from eta^2/2 = lambda - 1 - ln lambda), c_0 = 1/mu - 1/eta, and
    c_k = c_{k-1}'/eta + (-1)^k g_k/mu, where g_k cancels the 1/eta term:
    d[k][n] = (n + 2) d[k-1][n+2] - d[k-1][1] d[0][n].
    """
    size = cols + 2 * (rows - 1)
    mu = [Fraction(0), Fraction(1)]
    for n in range(2, size + 2):
        cross = sum(mu[i] * mu[n + 1 - i] for i in range(2, n))
        mu.append((Fraction(2, n + 1) * mu[n - 1] - cross) / 2)
    # eta/mu as a power series; its coefficient of eta^(n+1) is d[0][n].
    inv = [Fraction(1)]
    for i in range(1, size + 1):
        inv.append(-sum(mu[j + 1] * inv[i - j] for j in range(1, i + 1)))
    table = [inv[1:size + 1]]
    for k in range(1, rows):
        prev = table[-1]
        table.append([(n + 2) * prev[n + 2] - prev[1] * table[0][n]
                      for n in range(size - 2 * k)])
    return [row[:cols] for row in table]


class TestTemmeExpansion:

    def test_table_matches_exact_rationals(self):
        exact = temme_table_exact(*_TEMME_COEF.shape)
        assert exact[0][:5] == [Fraction(-1, 3), Fraction(1, 12), Fraction(-2, 135),
                                Fraction(1, 864), Fraction(1, 2835)]
        assert exact[1][0] == Fraction(-1, 540)
        assert _TEMME_COEF.tolist() == [[float(d) for d in row] for row in exact]

    @pytest.mark.parametrize("a", [20.0, 100.0, 1e3, 1e4, 1e5, 5e5])
    def test_window_against_50_digit_reference(self, a, monkeypatch):
        # Inside the window a >= 20, |x - a| < 0.3 a the expansion runs, and
        # it needs no iterations, so a 50-iteration budget suffices at any a.
        monkeypatch.setattr(specfun, "_MAX_ITERATIONS", 50)
        ratios = np.concatenate([np.linspace(0.701, 1.299, 25), [1.0, 1.0 + 1e-9]])
        for x in a * ratios:
            p_ref, q_ref = reference_gamma_pq(a, x)
            p = reg_gamma_p(a, x)
            q = reg_gamma_q(a, x)
            assert p == pytest.approx(float(p_ref), rel=5e-13, abs=1e-300)
            assert q == pytest.approx(float(q_ref), rel=5e-13, abs=1e-300)

    @pytest.mark.parametrize("a", [20.0, 100.0, 1e3, 1e4])
    def test_outside_window_against_50_digit_reference(self, a):
        # The series and continued fraction scale by x^a e^-x / Gamma(a),
        # which the Stirling-scaled form keeps to about a |sigma| ulps.
        for x in a * np.array([1e-3, 0.01, 0.1, 0.3, 0.5, 0.65, 0.69, 1.31, 1.4, 1.5, 3.0]):
            p_ref, q_ref = reference_gamma_pq(a, x)
            assert reg_gamma_p(a, x) == pytest.approx(float(p_ref), rel=1e-12, abs=1e-300)
            assert reg_gamma_q(a, x) == pytest.approx(float(q_ref), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("a", [20.0, 100.0])
    def test_continuous_across_window_edges(self, a):
        for edge in (0.7 * a, 1.3 * a):
            inside = np.nextafter(edge, a)
            outside = edge if abs(edge - a) >= 0.3 * a else np.nextafter(edge, 2 * edge - a)
            assert abs(inside - a) < 0.3 * a <= abs(outside - a)
            for f in (reg_gamma_p, reg_gamma_q):
                assert f(a, inside) == pytest.approx(f(a, outside), rel=1e-13)

    def test_continuous_across_minimum_a(self):
        below = np.nextafter(20.0, 0.0)
        for x in 20.0 * np.array([0.75, 0.9, 1.0, 1.1, 1.25]):
            for f in (reg_gamma_p, reg_gamma_q):
                assert f(20.0, x) == pytest.approx(f(below, x), rel=1e-13)

    def test_array_matches_scalar(self):
        xs = 1e5 * np.linspace(0.72, 1.28, 15)
        assert np.array_equal(reg_gamma_q(1e5, xs), [reg_gamma_q(1e5, x) for x in xs])


class TestGammaRatio:
    def test_identity_ratio(self):
        assert gamma_shift_ratio(5.0, 0.0) == 1.0

    def test_half_step_small(self):
        assert gamma_shift_ratio(1.0, 0.5) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-13
        )

    def test_high_precision_value(self):
        assert gamma_shift_ratio(50.0, 0.5) == pytest.approx(RATIO_50P5_50, rel=1e-12)

    def test_integer_offset_is_exact(self):
        for x in (0.5, 1.0, 17.0, 5e5):
            assert gamma_shift_ratio(x, 1.0) == x
        assert gamma_shift_ratio(1.5, 2.0) == 1.5 * 2.5

    def test_asymptotic_half_step_path(self):
        # x > 64 switches to the series; compare with log-gamma route
        # computed by scipy, which keeps ~1e-11 here.
        for x in (64.5, 100.0, 1000.0):
            ref = math.exp(gammaln(x + 0.5) - gammaln(x))
            assert gamma_shift_ratio(x, 0.5) == pytest.approx(ref, rel=1e-11)

    def test_shift_ratio_keeps_an_exact_half_integer_offset(self):
        # (x + 1.5) - x rounds below 1.5 here; the shift form keeps the
        # exact offset and matches the recurrence on the half-step series.
        x = 1023.38
        assert (x + 1.5) - x != 1.5
        assert gamma_shift_ratio(x, 1.5) == gamma_shift_ratio(x, 0.5) * (x + 0.5)
        assert gamma_shift_ratio(x, 1.5) == pytest.approx(
            math.exp(gammaln(x + 1.5) - gammaln(x)), rel=1e-11
        )

    def test_mixed_offset_matches_scipy(self):
        # Gamma(7.5)/Gamma(2): a half step below x = 64, then five exact steps.
        assert gamma_shift_ratio(2.0, 5.5) == pytest.approx(
            math.exp(gammaln(7.5) - gammaln(2.0)), rel=1e-14
        )

    @pytest.mark.parametrize("x,shift", [(0.0, 1.0), (1.0, -0.5), (-1.0, 2.0), (math.nan, 1.0)])
    def test_domain_errors(self, x, shift):
        with pytest.raises(ValueError):
            gamma_shift_ratio(x, shift)


class TestGammaIdentities:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_telescoping_product(self, k):
        # prod_{m=1}^{k-2} Gamma((m+1)/2)/Gamma(m/2+1) telescopes to
        # 1/Gamma(k/2); verified in log space.
        log_prod = sum(
            log_gamma((m + 1) / 2.0) - log_gamma(m / 2.0 + 1.0)
            for m in range(1, k - 1)
        )
        value = math.exp(log_prod + log_gamma(k / 2.0))
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_sine_power_integral(self, m):
        # int_0^(pi/2) sin^m = sqrt(pi) Gamma((m+1)/2) / (2 Gamma(m/2+1))
        numeric, _ = quad(lambda t: math.sin(t) ** m, 0.0, math.pi / 2.0)
        closed = (
            math.sqrt(math.pi)
            * math.exp(log_gamma((m + 1) / 2.0) - log_gamma(m / 2.0 + 1.0))
            / 2.0
        )
        assert numeric == pytest.approx(closed, abs=1e-9)
