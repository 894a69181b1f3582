import math

import numpy as np
import pytest
from scipy import stats

from gaussdist import montecarlo
from gaussdist.diagnostics import sample_fit_report
from gaussdist.distribution import DistanceDistribution
from gaussdist.montecarlo import EmpiricalSample, ks_one_sample, simulate_pairs
from gaussdist.moments import moment_set, raw_moment

from _oracles import TWO_OVER_SQRT_PI, TWO_SQRT_LN2, two_samples_agree


class TestEmpiricalSample:
    def test_sorts_input(self):
        s = EmpiricalSample([3.0, 1.0, 2.0])
        assert np.array_equal(s.values, [1.0, 2.0, 3.0])
        assert s.n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalSample([])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            EmpiricalSample([0.5, -0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            EmpiricalSample([0.5, math.inf])

    @pytest.mark.parametrize("bad", [-1.0, -math.inf, math.inf, math.nan])
    def test_rejects_a_value_outside_zero_to_infinity(self, bad):
        with pytest.raises(ValueError, match="finite and non-negative"):
            EmpiricalSample([0.5, bad, 2.0])

    def test_accepts_negative_zero(self):
        assert EmpiricalSample([0.5, -0.0]).n == 2

    def test_values_frozen(self):
        s = EmpiricalSample([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestSimulatePairs:
    def test_deterministic(self):
        a = simulate_pairs(3, 2000, 11)
        b = simulate_pairs(3, 2000, 11)
        assert np.array_equal(a.values, b.values)

    def test_thread_count_does_not_change_output(self):
        n = 3_000_000  # several blocks at k=2
        a = simulate_pairs(2, n, 5, threads=1)
        b = simulate_pairs(2, n, 5, threads=4)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer$"):
            simulate_pairs(3, 10, seed)

    def test_blocks_draw_from_their_own_substreams(self):
        # Block i covers values [i * block, (i + 1) * block) and draws them
        # from substream i; the last block is short.  The sample is sorted.
        sample = montecarlo._blocked_draw(10, 7, 4, lambda rng, size: rng.random(size))
        expected = [montecarlo._substream(7, i).random(size) for i, size in enumerate((4, 4, 2))]
        assert np.array_equal(sample.values, np.sort(np.concatenate(expected)))

    def test_one_dimensional_mean(self):
        n = 10**6
        sample = simulate_pairs(1, n, 0)
        se = math.sqrt(moment_set(1).central[0] / n)
        assert np.mean(sample.values) == pytest.approx(
            TWO_OVER_SQRT_PI, abs=4.0 * se
        )

    def test_squared_distance_mean(self):
        # E[R^2] = 2k, with spread Var(R^2) = m4 - m2^2.
        n, k = 10**6, 3
        sample = simulate_pairs(k, n, 1)
        se = math.sqrt((raw_moment(k, 4) - raw_moment(k, 2) ** 2) / n)
        assert np.mean(sample.values**2) == pytest.approx(6.0, abs=4.0 * se)

    @pytest.mark.parametrize("k", [2.5, 0, -1, math.nan])
    def test_rejects_non_integer_dimension(self, k):
        with pytest.raises(ValueError):
            simulate_pairs(k, 10, 0)

    def test_accepts_integral_float(self):
        assert np.array_equal(simulate_pairs(2.0, 10, 0).values, simulate_pairs(2, 10, 0).values)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            simulate_pairs(2, 0, 0)
        with pytest.raises(ValueError):
            simulate_pairs(2, 10, -3)

    def test_refuses_a_block_above_one_gibibyte(self):
        # 256 rows x 524289 columns x 8 bytes is just over 2^30; refused
        # before anything is allocated.
        with pytest.raises(ValueError, match="above the limit of 1073741824 bytes$"):
            simulate_pairs(2**30 // 2048 + 1, 1000, 0)

    def test_size_just_above_the_limit_shows_the_excess(self):
        # 2^27 doubles are exactly 1 GiB; one more is 8 bytes above it,
        # which a size rounded to GiB would print as the limit itself.
        montecarlo._check_array_size(2**27, 1)
        with pytest.raises(
            ValueError,
            match=r"^a 134217729 x 1 array of doubles needs 1073741832 bytes, "
            r"above the limit of 1073741824 bytes$",
        ):
            montecarlo._check_array_size(2**27 + 1, 1)

    def test_array_limit_counts_the_rows_drawn(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_MAX_ARRAY_BYTES", 8 * 10 * 3)
        assert simulate_pairs(3, 10, 0).n == 10
        with pytest.raises(ValueError, match="11 x 3 array"):
            simulate_pairs(3, 11, 0)


class TestKsOneSample:
    def test_true_law_passes(self):
        sample, law = simulate_pairs(5, 10**5, 2), DistanceDistribution(5)
        statistic = ks_one_sample(sample, law)
        assert type(statistic) is float
        assert 0.0 <= statistic < 1.63 / math.sqrt(10**5)
        # The fit report holds the one verdict, formed from this statistic.
        report = sample_fit_report(sample, law, False)
        assert report.ks_statistic == statistic
        assert report.ks_critical_01 == pytest.approx(1.63 / math.sqrt(10**5))
        assert report.ks_passed == (statistic < report.ks_critical_01)

    def test_gross_mismatch_fails(self):
        sample = DistanceDistribution(2).sample(10**4, 0)
        statistic = ks_one_sample(sample, DistanceDistribution(20))
        assert statistic >= 1.63 / math.sqrt(10**4)
        assert statistic > 0.5

    @pytest.mark.parametrize("n, stated", [
        (2, "0"), (3, "0.00041"), (10, "0.0054"), (100, "0.0087"),
        (1000, "0.0095"), (100_000, "0.0098"),
    ])
    def test_size_of_the_test_is_the_readme_table(self, n, stated):
        # README: the chance that a true null fails (D >= critical), by the
        # exact law of D, at most 0.01 at every n.
        sample = EmpiricalSample(np.arange(1.0, n + 1.0))
        critical = sample_fit_report(sample, DistanceDistribution(3), False).ks_critical_01
        size = stats.kstwo.sf(critical, n)
        assert f"{size:.2g}" == stated
        assert size <= 0.01

    def test_single_point_at_median(self):
        sample = EmpiricalSample([TWO_SQRT_LN2])
        statistic = ks_one_sample(sample, DistanceDistribution(2))
        assert statistic == pytest.approx(0.5, abs=1e-12)

    @staticmethod
    def all_values_statistic(sample, law):
        n = sample.n
        cdf = np.atleast_1d(law.cdf(sample.values))
        steps = np.arange(1, n + 1) / n
        return float(max(np.max(steps - cdf), np.max(cdf - (steps - 1.0 / n))))

    @pytest.mark.parametrize(
        "sweep,factor,ties",
        [(0, 1.0, False), (1, 1.05, False), (2, 1.0 + 1e-12, False), (3, 1.0, True)],
        ids=["null", "off_5_percent", "off_1e-12", "ties"],
    )
    def test_bracketed_statistic_is_the_all_values_statistic(self, sweep, factor, ties):
        # k log-uniform in [1, 1e305], n in [4096, 6e4]; the sample is drawn
        # at k * factor, or rounded to 0.1 (k <= 1e3) so that runs of ties appear.
        rng = np.random.default_rng(sweep)
        for seed in range(6):
            k = float(10 ** rng.uniform(0.0, 3.0 if ties else 305.0))
            n = int(10 ** rng.uniform(math.log10(4096), math.log10(6e4)))
            law = DistanceDistribution(k)
            values = DistanceDistribution(k * factor).sample(n, seed).values
            if ties:
                values = np.round(values, 1)
            sample = EmpiricalSample(values)
            expected = self.all_values_statistic(sample, law)
            assert ks_one_sample(sample, law) == expected, (k, n)

    def test_pairwise_sample_matches_all_values_statistic(self):
        from gaussdist.diagnostics import pairwise_distances, standardize

        data = np.random.default_rng(4).standard_normal((150, 8))
        sample = pairwise_distances(standardize(data))
        assert sample.n > 4096
        law = DistanceDistribution(8)
        assert ks_one_sample(sample, law) == self.all_values_statistic(sample, law)

    @pytest.mark.parametrize(
        "runs,top,maximum",
        [
            # F - below peaks at 10, the first interior index of block (9, 18).
            ({(9, 10): 17.0, (10, 19): 19.5, (27, 36): 36.0}, None, 9.5),
            # steps - F peaks at 17, the last interior index of block (9, 18).
            ({(9, 18): 8.5, (18, 19): 18.0, (28, 37): 28.0}, None, 9.5),
            # steps - F peaks at n - 2, the last interior index of the last block.
            ({(4090, 4095): 4090.5}, 1e3, 4.5),
        ],
        ids=["first_in_block", "last_in_block", "last_before_top"],
    )
    def test_maximum_at_the_edge_of_a_block(self, runs, top, maximum):
        # Exact quantiles (i + 0.5)/n of the k = 2 law, F(r) = 1 - exp(-r^2/4),
        # deviate by 0.5/n everywhere.  At n = 4096 the stride is 9 (knots 0,
        # 9, ..., 4086, 4095).  Runs of tied values (cdf values in units of
        # 1/n) put the maximum where one side's block bound is exact and the
        # other's is below 9/n, the deviation at knot 27 or 36; a bound even
        # 1/n tighter would drop the block.
        n = 4096
        p = (np.arange(n) + 0.5) / n
        for (start, stop), at in runs.items():
            p[start:stop] = at / n
        values = 2.0 * np.sqrt(-np.log1p(-p))
        if top is not None:
            values[-1] = top
        sample, law = EmpiricalSample(values), DistanceDistribution(2)
        statistic = ks_one_sample(sample, law)
        assert statistic == self.all_values_statistic(sample, law)
        assert statistic == pytest.approx(maximum / n, rel=1e-9)

    @pytest.mark.parametrize("n", [4095, 4096])
    def test_both_sides_of_the_bracketing_threshold(self, n):
        law = DistanceDistribution(7)
        sample = law.sample(n, 3)
        assert ks_one_sample(sample, law) == self.all_values_statistic(sample, law)

    class CountingLaw:
        def __init__(self, law):
            self.k = law.k
            self.cdf_sizes = []
            self._law = law

        def cdf(self, r):
            self.cdf_sizes.append(int(np.size(r)))
            return self._law.cdf(r)

    def test_large_sample_evaluates_a_small_share(self):
        n = 10**5
        law = self.CountingLaw(DistanceDistribution(12))
        sample = DistanceDistribution(12).sample(n, 5)
        ks_one_sample(sample, law)
        assert sum(law.cdf_sizes) < 0.15 * n

    def test_small_sample_takes_one_call_over_all_values(self):
        n = 4095
        law = self.CountingLaw(DistanceDistribution(12))
        ks_one_sample(DistanceDistribution(12).sample(n, 5), law)
        assert law.cdf_sizes == [n]

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_pass_rate_across_seeds(self, k):
        # At alpha = 0.01, at most one failure among five seeds is tolerated.
        n = 10**5
        law = DistanceDistribution(k)
        passes = sum(
            ks_one_sample(simulate_pairs(k, n, seed), law) < 1.63 / math.sqrt(n)
            for seed in range(5)
        )
        assert passes >= 4


class TestKsTwoSample:
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 50])
    def test_samplers_agree_across_seeds(self, k):
        n = 10**5
        law = DistanceDistribution(k)
        passes = sum(
            two_samples_agree(
                simulate_pairs(k, n, seed).values, law.sample(n, seed + 1000).values
            )
            for seed in range(5)
        )
        assert passes >= 4


class TestSampleMoments:
    def test_matches_closed_forms_at_scale(self):
        n, k = 10**7, 4
        values = simulate_pairs(k, n, 11).values
        ms = moment_set(k)
        assert stats.skew(values) == pytest.approx(ms.skewness, abs=3.0 * math.sqrt(6.0 / n))
        assert stats.kurtosis(values, fisher=False) == pytest.approx(
            ms.kurtosis, abs=3.0 * math.sqrt(24.0 / n)
        )
        assert np.var(values) == pytest.approx(ms.central[0], rel=0.01, abs=0)
