import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln

from gaussdist import specfun
from gaussdist.distribution import DistanceDistribution
from gaussdist.moments import raw_moment
from gaussdist.specfun import (
    _TEMME_COEF,
    ConvergenceError,
    reg_gamma_p,
    reg_gamma_q,
)

from _oracles import (
    Q_2P5_2P0,
    RATIO_50P5_50,
    reference_gamma_pq,
)


def both_paths(x):
    """x alone, and x after zeros (no iteration) in an array too long for
    the per-point path."""
    return [x, np.append(np.zeros(2 * specfun._POINTWISE_MAX), x)]


class TestRegularizedGamma:
    def test_q_at_zero(self):
        assert reg_gamma_q(1.0, 0.0) == 1.0

    def test_q_exponential_case(self):
        # For a = 1 the upper function is exactly exp(-x).
        assert reg_gamma_q(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-13, abs=0)

    def test_q_high_precision_value(self):
        assert reg_gamma_q(2.5, 2.0) == pytest.approx(Q_2P5_2P0, rel=1e-12, abs=0)

    def test_p_at_zero(self):
        assert reg_gamma_p(3.0, 0.0) == 0.0

    def test_p_exponential_case(self):
        assert reg_gamma_p(1.0, math.log(2.0)) == pytest.approx(0.5, rel=1e-13, abs=0)

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
                a * math.log(x) - x - math.lgamma(a + 1.0)
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
        assert q == pytest.approx(1.1366407840501794e-109, rel=1e-10, abs=0)

    @pytest.mark.parametrize("a", [0.5, 2.5, 50.0, 1e300])
    def test_limits_at_infinity(self, a):
        assert (reg_gamma_p(a, math.inf), reg_gamma_q(a, math.inf)) == (1.0, 0.0)
        p = reg_gamma_p(a, np.array([0.0, math.inf, a]))
        q = reg_gamma_q(a, np.array([0.0, math.inf, a]))
        assert p[:2].tolist() == [0.0, 1.0] and q[:2].tolist() == [1.0, 0.0]
        assert (p[2], q[2]) == (reg_gamma_p(a, a), reg_gamma_q(a, a))

    @pytest.mark.parametrize(
        "a,x", [(0.0, 1.0), (-2.0, 1.0), (1.0, -0.1), (1.0, math.nan), (1.0, -math.inf)]
    )
    def test_domain_errors(self, a, x):
        # The same message from the per-point path and the array lanes.
        for f in (reg_gamma_p, reg_gamma_q):
            messages = set()
            for arg in both_paths(x):
                with pytest.raises(ValueError) as info:
                    f(a, arg)
                messages.add(str(info.value))
            assert len(messages) == 1

    def test_convergence_error_signals_pathological_input(self, monkeypatch):
        # x = 0.65 a lies outside the Temme window, so the series runs and
        # needs about 70 iterations; the continued fraction at Q(1.5, 3)
        # needs 22.
        cases = ((50, 1e6, 6.5e5, "series"), (10, 1.5, 3.0, "continued fraction"))
        for budget, a, x, method in cases:
            monkeypatch.setattr(specfun, "_MAX_ITERATIONS", budget)
            messages = set()
            for arg in both_paths(x):
                with pytest.raises(ConvergenceError) as info:
                    reg_gamma_p(a, arg)
                messages.add(str(info.value))
            assert messages == {
                f"incomplete gamma {method} did not converge for a={a} "
                f"within {budget} iterations"
            }


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
                assert f(a, inside) == pytest.approx(f(a, outside), rel=1e-13, abs=0)

    def test_continuous_across_minimum_a(self):
        below = np.nextafter(20.0, 0.0)
        for x in 20.0 * np.array([0.75, 0.9, 1.0, 1.1, 1.25]):
            for f in (reg_gamma_p, reg_gamma_q):
                assert f(20.0, x) == pytest.approx(f(below, x), rel=1e-13, abs=0)

    def test_coefficients_fold_by_horners_rule(self):
        # b_n = sum_k d[k][n] a^-k folded by Horner's rule in 1/a, one
        # float at a time, so no BLAS kernel moves its bits; and it stays
        # within 2 ulps of the sum of |terms| of the exact-rational fold.
        exact = temme_table_exact(*_TEMME_COEF.shape)
        rows = _TEMME_COEF.tolist()
        rng = np.random.default_rng(30)
        for a in (10.0 ** rng.uniform(math.log10(20.0), 12.0, 150)).tolist():
            t = 1.0 / a
            horner = rows[-1]
            for row in rows[-2::-1]:
                horner = [b * t + d for b, d in zip(horner, row)]
            folded = specfun._temme_coef(a)
            assert list(folded) == horner, a
            inv = 1 / Fraction(a)
            for n, b in enumerate(folded):
                terms = [row[n] * inv**k for k, row in enumerate(exact)]
                assert abs(Fraction(b) - sum(terms)) <= 2 * sum(map(abs, terms)) / 2**53, (a, n)

    def test_array_matches_scalar(self):
        xs = 1e5 * np.linspace(0.72, 1.28, 2 * specfun._POINTWISE_MAX + 1)
        assert np.array_equal(reg_gamma_q(1e5, xs), [reg_gamma_q(1e5, x) for x in xs])


class TestPointwisePath:
    """Single points and short arrays run on Python floats, longer arrays
    in vectorized lanes; both must give the same bits."""

    @staticmethod
    def grid(a, rng):
        xs = [0.0, math.inf, 1e-300, a]
        for edge in (0.7 * a, 1.3 * a, a + 1.0):
            xs += [edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf)]
        xs += (a * rng.uniform(0.0, 4.5, 40)).tolist()
        xs += (10.0 ** rng.uniform(-300.0, math.log10(4.5 * a), 20)).tolist()
        return np.array(xs)

    def test_points_match_array_lanes(self):
        rng = np.random.default_rng(10)
        shapes = [0.5, np.nextafter(20.0, 0.0), 20.0, 1e7]
        shapes += np.exp(rng.uniform(math.log(0.5), math.log(1e7), 32)).tolist()
        for a in shapes:
            xs = self.grid(a, rng)
            assert xs.size > 2 * specfun._POINTWISE_MAX
            p, q = reg_gamma_p(a, xs), reg_gamma_q(a, xs)
            for x, pi, qi in zip(xs.tolist(), p.tolist(), q.tolist()):
                assert (reg_gamma_p(a, x), reg_gamma_q(a, x)) == (pi, qi), (a, x)
            law = DistanceDistribution(2.0 * a)
            rs = 2.0 * np.sqrt(xs[xs < math.inf])
            assert law.pdf(rs).tolist() == [law.pdf(r) for r in rs.tolist()]

    @pytest.mark.parametrize("a", [5.0, 15.0, 500.0])
    def test_threshold_and_one_more_give_equal_rows(self, a, monkeypatch):
        xs = a * np.linspace(0.01, 3.0, specfun._POINTWISE_MAX + 1)
        calls = []
        pointwise = specfun._reg_gamma_point
        monkeypatch.setattr(specfun, "_reg_gamma_point",
                            lambda *args: calls.append(1) or pointwise(*args))
        short = specfun._reg_gamma_both(a, xs[:-1])
        assert len(calls) == specfun._POINTWISE_MAX
        long = specfun._reg_gamma_both(a, xs)
        assert len(calls) == specfun._POINTWISE_MAX
        for s_row, l_row in zip(short, long):
            assert s_row.tolist() == l_row[:-1].tolist()

    @pytest.mark.parametrize("regime,a,x", [
        ("_temme_tail", 500.0, 480.0),
        ("_lower_series", 30.0, 5.0),
        ("_upper_continued_fraction", 30.0, 80.0),
    ])
    def test_each_regime_has_one_body(self, regime, a, x, monkeypatch):
        reached = []
        for name in ("_temme_tail", "_lower_series", "_upper_continued_fraction"):
            body = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda *args, name=name, body=body:
                                reached.append(name) or body(*args))
        for points in (x, np.full(2 * specfun._POINTWISE_MAX + 1, x)):
            reached.clear()
            reg_gamma_p(a, points)
            assert reached == [regime]

    @pytest.mark.parametrize("body,a,x,upper", [
        ("_temme_tail", 500.0, 480.0, False),
        ("_temme_tail", 500.0, 520.0, True),
        ("_lower_series", 30.0, 5.0, False),
        ("_upper_continued_fraction", 30.0, 80.0, True),
    ])
    def test_each_body_returns_its_tail_and_side(self, body, a, x, upper):
        # Every body returns (tail, upper): Q where upper, else P.
        p_ref, q_ref = reference_gamma_pq(a, x)
        tail, side = getattr(specfun, body)(a, x)
        assert side is upper
        assert tail == pytest.approx(float(q_ref if upper else p_ref), rel=1e-12)
        tails, sides = getattr(specfun, body)(a, np.full(3, x))
        assert np.all(sides == upper)
        assert tails.tolist() == [tail] * 3

    def test_log_density_float_matches_its_lane(self):
        # x < a/2, where log_x carries the rest of log(2x/a); an x deep
        # enough for the _LOG_DENSITY_FLOOR clamp; and x = 0 after
        # underflow, with the finite log a pdf caller passes.
        rng = np.random.default_rng(16)
        for a in (0.5, 3.0, 20.0, 1e3, 1e7, 1e300):
            xs = [a * f for f in (1e-9, 0.1, 0.49, 0.5, 1.0, 1.3, 4.0)]
            xs += [float(np.nextafter(0.5 * a, 0.0)), 5e-324, 1.0]
            xs += (a * 10.0 ** rng.uniform(-12.0, 1.0, 200)).tolist()
            cases = [(x, float(np.log(x))) for x in xs]
            cases += [(0.0, log_x) for log_x in (-800.0, -5000.0, -1e5)]
            for x, log_x in cases:
                point = specfun._log_gamma_density(a, x, log_x)
                lane = specfun._log_gamma_density(a, np.array([x]), np.array([log_x]))
                assert type(point) is float
                assert point.hex() == float(lane[0]).hex(), (a, x, log_x)

    def test_short_arrays_keep_their_shape(self):
        for xs in (np.empty(0), np.empty((0, 3)), np.array([[1.0, 2.0], [3.0, 40.0]])):
            p, q = reg_gamma_p(30.0, xs), reg_gamma_q(30.0, xs)
            assert p.shape == q.shape == xs.shape and p.dtype == q.dtype == float

    def test_scalars_come_back_as_python_floats(self):
        for x in (0.0, 2.0, 25.0, 80.0, math.inf, np.float64(2.0), np.array(2.0), 3):
            assert type(reg_gamma_p(30.0, x)) is float
            assert type(reg_gamma_q(30.0, x)) is float


class TestShapeCache:
    """The constants that depend on a alone are memoized per shape."""

    SHAPES = (0.5, 9.99, 10.0, 20.0, 1e3, 1e7)
    CACHED = (specfun._log_density_peak, specfun._temme_coef)

    @staticmethod
    def evaluate(shapes):
        """The bits of P and Q on both paths, pdf, cdf and quantile, per shape."""
        out = {}
        for a in shapes:
            law = DistanceDistribution(2.0 * a)
            xs = a * np.array([0.05, 0.5, 0.9, 1.0, 1.2, 2.0, 4.0])
            lanes = np.repeat(xs, 3)
            rs = 2.0 * np.sqrt(xs)
            values = [
                *reg_gamma_p(a, xs), *reg_gamma_q(a, xs),
                *reg_gamma_p(a, lanes), *reg_gamma_q(a, lanes),
                *law.pdf(rs), *law.cdf(rs), law.quantile(0.3), law.quantile(0.999),
            ]
            out[a] = [float(v).hex() for v in values]
        return out

    def test_cold_and_warm_caches_give_the_same_bits(self):
        for cached in self.CACHED:
            cached.cache_clear()
        first = self.evaluate(self.SHAPES)
        assert self.evaluate(self.SHAPES) == first
        for cached in self.CACHED:
            cached.cache_clear()
        assert self.evaluate(self.SHAPES[::-1]) == first

    def test_caches_hold_at_most_128_shapes(self):
        for a in np.linspace(20.0, 1020.0, 1000).tolist():
            reg_gamma_p(a, [0.5 * a, a])  # the series, then Temme
        for cached in self.CACHED:
            info = cached.cache_info()
            assert info.maxsize == 128 and info.currsize == 128

    def test_temme_coefficients_are_immutable(self):
        assert type(specfun._temme_coef(30.0)) is tuple


def gamma_shift_ratio(x, shift):
    """Gamma(x + shift)/Gamma(x) for x >= 1/2 and a whole or half-integer
    shift, read off the raw moment 2^n Gamma(x + n/2)/Gamma(x) at k = 2x."""
    n = round(2 * shift)
    return raw_moment(2.0 * x, n) / 2.0**n


class TestGammaRatio:
    def test_half_step_small(self):
        assert gamma_shift_ratio(1.0, 0.5) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-13, abs=0
        )

    def test_high_precision_value(self):
        assert gamma_shift_ratio(50.0, 0.5) == pytest.approx(RATIO_50P5_50, rel=1e-12, abs=0)

    def test_integer_offset_is_exact(self):
        for x in (0.5, 1.0, 17.0, 5e5):
            assert gamma_shift_ratio(x, 1.0) == x
        assert gamma_shift_ratio(1.5, 2.0) == 1.5 * 2.5

    def test_half_step_against_mpmath(self):
        # sqrt(x - 1/4 + delta(x)/4) at every x >= 1/2: one rule on both
        # sides of the variance series' x = 32, with nothing to cancel.
        xs = [0.5, 1.0, 31.999, 32.0, 32.5, 64.0, 64.5, 1e6]
        xs += np.geomspace(0.5, 1e6, 200).tolist()
        xs += (0.5 * 10.0 ** np.random.default_rng(3).uniform(0.0, 6.3, 200)).tolist()
        got = [gamma_shift_ratio(x, 0.5) for x in xs]
        with mpmath.workdps(40):
            ref = [
                float(mpmath.exp(mpmath.loggamma(mpmath.mpf(x) + 0.5) - mpmath.loggamma(x)))
                for x in xs
            ]
        assert got == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_shift_ratio_keeps_an_exact_half_integer_offset(self):
        # (x + 1.5) - x rounds below 1.5 here; the shift form keeps the
        # exact offset and matches the recurrence on the half-step series.
        x = 1023.38
        assert (x + 1.5) - x != 1.5
        assert gamma_shift_ratio(x, 1.5) == gamma_shift_ratio(x, 0.5) * (x + 0.5)
        assert gamma_shift_ratio(x, 1.5) == pytest.approx(
            math.exp(gammaln(x + 1.5) - gammaln(x)), rel=1e-11, abs=0
        )

    def test_mixed_offset_matches_scipy(self):
        # Gamma(7.5)/Gamma(2): a half step, then five exact steps.
        assert gamma_shift_ratio(2.0, 5.5) == pytest.approx(
            math.exp(gammaln(7.5) - gammaln(2.0)), rel=1e-14, abs=0
        )


class TestGammaIdentities:
    @pytest.mark.parametrize("k", range(2, 31))
    def test_telescoping_product(self, k):
        # prod_{m=1}^{k-2} Gamma((m+1)/2)/Gamma(m/2+1) telescopes to
        # 1/Gamma(k/2); verified in log space.
        log_prod = sum(
            math.lgamma((m + 1) / 2.0) - math.lgamma(m / 2.0 + 1.0)
            for m in range(1, k - 1)
        )
        value = math.exp(log_prod + math.lgamma(k / 2.0))
        assert value == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m", range(1, 11))
    def test_sine_power_integral(self, m):
        # int_0^(pi/2) sin^m = sqrt(pi) Gamma((m+1)/2) / (2 Gamma(m/2+1))
        numeric, _ = quad(lambda t: math.sin(t) ** m, 0.0, math.pi / 2.0)
        closed = (
            math.sqrt(math.pi)
            * math.exp(math.lgamma((m + 1) / 2.0) - math.lgamma(m / 2.0 + 1.0))
            / 2.0
        )
        assert numeric == pytest.approx(closed, abs=1e-9)
