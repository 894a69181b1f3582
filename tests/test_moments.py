import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from gaussdist.distribution import DistanceDistribution
from gaussdist.moments import moment_set, raw_moment
from gaussdist.montecarlo import simulate_pairs

from _oracles import (
    TWO_OVER_SQRT_PI,
    closed_form_mu3,
    closed_form_mu4,
    quad_moment,
)

QUAD_K_SET = (1, 2, 3, 5, 10, 50)


def quad_upper(k):
    return DistanceDistribution(k).quantile(1.0 - 1e-13) * 1.5


class TestRawMoments:
    def test_first_moment_one_dimension(self):
        assert raw_moment(1, 1) == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-13, abs=0)

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.7, 10.0, 1e3, 1e6])
    def test_second_moment_is_twice_k(self, k):
        assert raw_moment(k, 2) == pytest.approx(2.0 * k, rel=1e-12, abs=0)

    def test_third_moment_four_dimensions(self):
        # 8 Gamma(7/2) / Gamma(2) = 8 * (15/8) sqrt(pi) = 15 sqrt(pi)
        assert raw_moment(4, 3) == pytest.approx(15.0 * math.sqrt(math.pi), rel=1e-13, abs=0)

    def test_rejects_zeroth_moment(self):
        with pytest.raises(ValueError):
            raw_moment(3, 0)

    @pytest.mark.parametrize("k", [0.5, 0.0, -1.0, math.nan])
    def test_rejects_bad_dimension(self, k):
        with pytest.raises(ValueError):
            raw_moment(k, 1)

    def test_strictly_increasing_mean(self):
        means = [raw_moment(k, 1) for k in range(1, 201)]
        assert all(a < b for a, b in zip(means, means[1:]))

    def test_mean_approaches_sqrt_2k(self):
        gaps = [abs(raw_moment(k, 1) / math.sqrt(2.0 * k) - 1.0)
                for k in (10, 100, 1e4, 1e6)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-6


class TestCentralMoments:
    def test_variance_one_dimension(self):
        assert moment_set(1).central[0] == pytest.approx(2.0 - 4.0 / math.pi, rel=1e-12, abs=0)

    def test_variance_two_dimensions(self):
        assert moment_set(2).central[0] == pytest.approx(4.0 - math.pi, rel=1e-12, abs=0)

    @pytest.mark.parametrize("k", QUAD_K_SET)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quadrature_equivalence_central(self, k, n):
        law = DistanceDistribution(k)
        numeric = quad_moment(law.pdf, n, raw_moment(k, 1), quad_upper(k))
        assert moment_set(k).central[n - 2] == pytest.approx(numeric, rel=1e-8, abs=0)

    def test_quadrature_equivalence_every_k_to_fifty(self):
        for k in range(1, 51):
            law = DistanceDistribution(k)
            upper = quad_upper(k)
            mean = raw_moment(k, 1)
            for n, closed in zip((2, 3, 4), moment_set(k).central):
                numeric = quad_moment(law.pdf, n, mean, upper)
                assert closed == pytest.approx(numeric, rel=1e-8, abs=0)

    @pytest.mark.parametrize("k", QUAD_K_SET)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quadrature_equivalence_raw(self, k, n):
        law = DistanceDistribution(k)
        numeric = quad_moment(law.pdf, n, 0.0, quad_upper(k))
        assert raw_moment(k, n) == pytest.approx(numeric, rel=1e-8, abs=0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 15, 30])
    def test_direct_gamma_expressions(self, k):
        # The chi identities on the variance deficit must agree with the
        # direct gamma-function expressions for mu3 and mu4.
        _, mu3, mu4 = moment_set(k).central
        assert mu3 == pytest.approx(closed_form_mu3(k), rel=1e-10, abs=0)
        assert mu4 == pytest.approx(closed_form_mu4(k), rel=1e-10, abs=0)

    @pytest.mark.parametrize("k", [1, 2, 5.5, 20, 64, 100, 1000])
    def test_binomial_consistency(self, k):
        m = [raw_moment(k, n) for n in range(1, 5)]
        mu2 = m[1] - m[0] ** 2
        mu3 = m[2] - 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3
        mu4 = m[3] - 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1] - 3.0 * m[0] ** 4
        # The binomial expansion over raw moments, formed here in doubles,
        # carries their rounding (up to ~1e-13 relative on the log-gamma
        # path) times its largest terms; the library never forms it, and
        # TestLargeKShapeMoments holds it to mpmath instead.
        err3 = 1e-13 * (m[2] + 3.0 * m[0] * m[1] + 2.0 * m[0] ** 3)
        err4 = 1e-13 * (m[3] + 4.0 * m[0] * m[2] + 6.0 * m[0] ** 2 * m[1] + 3.0 * m[0] ** 4)
        central = moment_set(k).central
        assert central[0] == pytest.approx(mu2, rel=1e-9, abs=0)
        assert central[1] == pytest.approx(mu3, rel=1e-9, abs=err3)
        assert central[2] == pytest.approx(mu4, rel=1e-9, abs=err4)

    def test_variance_path_switch_is_seamless(self):
        # k = 64 is where the series alone would start; the variance must
        # be continuous there to rounding.  The neighbours are adjacent
        # doubles: across [63.999999, 64.000001] the variance itself
        # changes by 1.2e-10 relative.
        below = moment_set(math.nextafter(64.0, 0.0)).central[0]
        above = moment_set(math.nextafter(64.0, math.inf)).central[0]
        assert above == pytest.approx(below, rel=1e-13, abs=0.0)

    def test_variance_limit(self):
        assert abs(moment_set(1e4).central[0] - 1.0) < 1e-3
        ks = [2.0**i for i in range(1, 21)]
        mu2s = [moment_set(k).central[0] for k in ks]
        assert all(a < b for a, b in zip(mu2s, mu2s[1:]))
        assert all(v < 1.0 for v in mu2s)

    def test_variance_survives_extreme_dimensions(self):
        for k in (1e5, 1e6):
            v = moment_set(k).central[0]
            assert math.isfinite(v) and 0.0 < v < 1.0


class TestShapeStatistics:
    def test_skewness_is_ratio(self):
        ms = moment_set(1)
        assert ms.skewness == pytest.approx(ms.central[1] / ms.central[0] ** 1.5, rel=1e-14, abs=0)

    def test_skewness_positive_and_decreasing(self):
        values = [moment_set(k).skewness for k in range(1, 101)]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_skewness_small_at_high_dimension(self):
        assert abs(moment_set(100).skewness) < 0.1

    def test_kurtosis_is_dimensionless_ratio(self):
        ms = moment_set(3)
        assert ms.kurtosis == pytest.approx(ms.central[2] / ms.central[0] ** 2, rel=1e-14, abs=0)

    def test_kurtosis_tends_to_three(self):
        assert abs(moment_set(400).kurtosis - 3.0) < 0.05

    @pytest.mark.parametrize("k", [1, 2, 5, 25, 100, 400])
    def test_kurtosis_positive(self, k):
        assert moment_set(k).kurtosis > 0.0

    def test_fourth_moment_expression_is_not_the_kurtosis(self):
        # The direct gamma expression below reproduces mu4 (checked against
        # quadrature); dividing by mu2^2 is what makes it a kurtosis.  At
        # k = 3 the two differ by ~0.55, so conflating them is detectable.
        k = 3
        law = DistanceDistribution(k)
        mu4_numeric = quad_moment(law.pdf, 4, raw_moment(k, 1), quad_upper(k))
        assert closed_form_mu4(k) == pytest.approx(mu4_numeric, rel=1e-8, abs=0)
        kurtosis = moment_set(k).kurtosis
        assert kurtosis != pytest.approx(closed_form_mu4(k), rel=1e-2, abs=0)
        assert kurtosis == pytest.approx(
            mu4_numeric / quad_moment(law.pdf, 2, raw_moment(k, 1), quad_upper(k)) ** 2,
            rel=1e-8, abs=0,
        )


class TestMomentSet:
    def test_two_dimensions(self):
        ms = moment_set(2)
        assert ms.raw[1] == 4.0
        assert ms.central[0] == pytest.approx(4.0 - math.pi, rel=1e-12, abs=0)

    def test_second_raw_moment_identity(self):
        assert moment_set(10).raw[1] == pytest.approx(20.0, rel=1e-14, abs=0)

    def test_first_raw_moment_one_dimension(self):
        assert moment_set(1).raw[0] == pytest.approx(TWO_OVER_SQRT_PI, rel=1e-13, abs=0)

    @staticmethod
    def last_finite(n, lo, hi):
        """The largest double k in [lo, hi) at which raw_moment(k, n) is finite."""
        while math.nextafter(lo, hi) < hi:
            mid = lo + (hi - lo) / 2.0
            if math.isinf(raw_moment(mid, n)):
                hi = mid
            else:
                lo = mid
        return lo

    def test_raw_moments_are_raw_moment_to_the_bit(self):
        # m2..m4 come from the chi identities; they must carry the bits
        # of raw_moment's products, inf where those overflow.
        rng = np.random.default_rng(23)
        ks = [float(k) for k in range(1, 201)]
        ks += (10.0 ** rng.uniform(0.0, math.log10(1.7e308), 2000)).tolist()
        for n, edge in ((4, 6.7e153), (3, 1.59e205)):
            last = self.last_finite(n, edge * 0.99, edge * 1.01)
            assert math.isinf(raw_moment(math.nextafter(last, math.inf), n))
            ks += [last * (1.0 + j * 2.0**-52) for j in range(-100, 101)]
            ks += (edge * rng.uniform(0.99, 1.01, 200)).tolist()
        for k in ks:
            expected = tuple(raw_moment(k, n).hex() for n in range(1, 5))
            assert tuple(m.hex() for m in moment_set(k).raw) == expected, k

    @pytest.mark.parametrize("k", [1, 2, 3.5, 12, 64, 1000])
    def test_internal_consistency(self, k):
        ms = moment_set(k)
        assert ms.central[0] == pytest.approx(ms.raw[1] - ms.raw[0] ** 2, rel=1e-10, abs=0)
        assert ms.skewness == ms.central[1] / ms.central[0] ** 1.5
        assert ms.kurtosis == ms.central[2] / ms.central[0] ** 2
        assert ms.central[0] > 0.0 and ms.central[2] > 0.0 and ms.kurtosis > 0.0


class TestMonteCarloEquivalence:
    @pytest.mark.parametrize("k", [1, 4, 32])
    def test_sample_moments_match_closed_forms(self, k):
        n = 10**6
        values = simulate_pairs(k, n, 17).values
        ms = moment_set(k)
        se_mean = math.sqrt(ms.central[0] / n)
        var_of_r2 = ms.raw[3] - ms.raw[1] ** 2
        se_m2 = math.sqrt(var_of_r2 / n)
        assert np.mean(values) == pytest.approx(ms.raw[0], abs=4.0 * se_mean)
        assert np.mean(values**2) == pytest.approx(ms.raw[1], abs=4.0 * se_m2)
        assert stats.skew(values) == pytest.approx(ms.skewness, abs=4.0 * math.sqrt(6.0 / n))
        assert stats.kurtosis(values, fisher=False) == pytest.approx(
            ms.kurtosis, abs=4.0 * math.sqrt(24.0 / n)
        )


class TestLargeKShapeMoments:
    @pytest.mark.parametrize(
        "k",
        # A binomial expansion over raw moments errs most near 59.575
        # (1.2e-9); k = 64 is where the series alone would start.  At
        # 2046.76, (k + 3)/2 - k/2 rounds below 1.5, so a ratio formed
        # from the two arguments would leave the exact half-integer path.
        [1, 2.5, 7, 30, 59.575051907747905, 63.999999, 64, 65, 1e3, 2046.76,
         1e6, 1e8, 1e12],
    )
    def test_against_mpmath(self, k):
        # The binomial expansion over raw moments of size ~k^2 cancels
        # ~k^1.5 ulps; the chi identities on the variance deficit do not.
        with mpmath.workdps(80):
            half = mpmath.mpf(k) / 2
            m1, m2, m3, m4 = (
                2**n * mpmath.exp(mpmath.loggamma(half + mpmath.mpf(n) / 2)
                                  - mpmath.loggamma(half))
                for n in range(1, 5)
            )
            mu2 = m2 - m1**2
            mu3 = m3 - 3 * m1 * m2 + 2 * m1**3
            mu4 = m4 - 4 * m1 * m3 + 6 * m1**2 * m2 - 3 * m1**4
            odd = [float(m1), float(m3)]
            expected = [float(v) for v in (mu2, mu3, mu4, mu3 / mu2**1.5, mu4 / mu2**2)]
        # The half-step ratio behind m1 and m3 is formed from the variance
        # deficit, so it is good to an ulp or two at every k.
        assert [raw_moment(k, 1), raw_moment(k, 3)] == pytest.approx(odd, rel=1e-15, abs=0.0)
        ms = moment_set(k)
        got = [*ms.central, ms.skewness, ms.kurtosis]
        # abs=0: approx's default 1e-12 absolute floor would let a skewness
        # of 7e-7 (k = 1e12) be off by 1e-6 relative.
        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
