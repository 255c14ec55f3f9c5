"""Tests for scores, rank/PIT machinery, histograms and the DM test."""

import csv
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2, norm

from oracles import (crps_empirical_naive, energy_score_by_pdist,
                     multivariate_rank_by_dominance, pre_ranks_by_dominance)

from enspost import verify


class TestCrpsEmpirical:
    def test_point_forecast_reduces_to_absolute_error(self):
        assert verify.crps_empirical([0.0], 1.0) == pytest.approx(1.0)

    def test_two_member_hand_value(self):
        # (|0-1| + |2-1|)/2 - (|0-2| + |2-0|)/(2*4) = 1 - 0.5
        assert verify.crps_empirical([0.0, 2.0], 1.0) == pytest.approx(0.5)

    def test_converges_to_gaussian_closed_form(self):
        q = norm.ppf((2 * np.arange(1, 100_001) - 1) / 200_000)
        assert verify.crps_empirical(q, 0.0) == pytest.approx(0.2337, abs=1e-3)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=200), st.floats(-60, 60))
    @settings(max_examples=100)
    def test_fast_identity_equals_naive(self, sample, y):
        fast = verify.crps_empirical(sample, y)
        naive = crps_empirical_naive(sample, y)
        assert fast == pytest.approx(naive, abs=1e-10)

    def test_member_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 2, 50)
        a = verify.crps_empirical(x, 0.7)
        b = verify.crps_empirical(rng.permutation(x), 0.7)
        assert a == pytest.approx(b, abs=1e-12)

    def test_empty_sample_error(self):
        with pytest.raises(ValueError):
            verify.crps_empirical([], 0.0)


class TestAbsError:
    def test_odd_sample_median(self):
        assert verify.abs_error([1.0, 2.0, 3.0], 2.0) == 0.0

    def test_even_sample_lower_middle(self):
        assert verify.abs_error([1.0, 3.0], 1.0) == 0.0


class TestEnergyScore:
    def test_single_member_euclidean_distance(self):
        es = verify.energy_score([[0.0, 0.0]], [3.0, 4.0])
        assert es == 5.0

    def test_one_dimension_equals_crps(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(0, 2, 20)
            y = rng.normal(0, 2)
            es = verify.energy_score(x[:, None], [y])
            crps = verify.crps_empirical(x, y)
            assert abs(es - crps) < 1e-12

    def test_two_member_hand_value(self):
        es = verify.energy_score([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0])
        assert es == pytest.approx(0.5)

    def test_dimension_mismatch_error(self):
        with pytest.raises(ValueError, match="dimension"):
            verify.energy_score([[0.0, 1.0]], [1.0, 2.0, 3.0])


class TestEnergyScoreAgainstPdist:
    """`verify.energy_score` sums centred Gram blocks of `verify.PAIR_BLOCK`
    rows; `oracles.energy_score_by_pdist` sums SciPy's pairwise distances of
    the raw members.  Values rounded to 0.1 make ties common, some samples
    repeat a quarter of their rows or a single row, and N crosses the block
    boundary more than once."""

    @given(st.integers(1, 1200), st.integers(1, 7), st.sampled_from([0.05, 0.3, 2.0, 30.0]),
           st.sampled_from(["drawn", "repeated", "identical"]), st.integers(0, 2**32 - 1))
    @example(verify.PAIR_BLOCK, 2, 0.3, "drawn", 0).via("one full block")
    @example(2 * verify.PAIR_BLOCK + 1, 3, 0.3, "repeated", 0).via("two blocks and one row")
    @example(1200, 1, 0.05, "drawn", 1).via("nearly every pair tied")
    @example(700, 7, 2.0, "identical", 2).via("every member the same")
    @example(1, 4, 0.3, "identical", 12865966).via("one member: the exact point-score path")
    @settings(max_examples=60, deadline=None)
    def test_equal_to_pdist(self, n, d, spread, rows, seed):
        rng = np.random.default_rng(seed)
        x = np.round(rng.normal(rng.normal(0.0, 10.0), spread, (n, d)), 1)
        if rows == "repeated":
            x = x[rng.integers(0, max(1, n // 4), n)]
        elif rows == "identical":
            x = np.repeat(x[:1], n, axis=0)
        y = np.round(rng.normal(0.0, spread, d), 1)
        es, oracle = verify.energy_score(x, y), energy_score_by_pdist(x, y)
        if rows == "identical" and n > 1:
            # no spread, and the same term-1 expression as the oracle; one
            # member takes the point score's 1-d norm, which may differ in
            # the last bit from the oracle's row norm
            assert es == oracle
        else:
            assert abs(es - oracle) <= 1e-14 * abs(oracle)


class TestVerificationRank:
    def test_observation_below_all(self):
        rank = verify.verification_rank([1.0, 2.0, 3.0], 0.0, np.random.default_rng(0))
        assert rank == 1

    def test_observation_above_all(self):
        rank = verify.verification_rank([1.0, 2.0, 3.0], 10.0, np.random.default_rng(0))
        assert rank == 4

    def test_total_tie_uniform(self):
        counts = np.zeros(4)
        for seed in range(8000):
            r = verify.verification_rank(
                [5.0, 5.0, 5.0], 5.0, np.random.default_rng(seed)
            )
            counts[r - 1] += 1
        freqs = counts / 8000
        assert np.all(np.abs(freqs - 0.25) < 0.03)

    def test_exchangeable_uniform(self):
        rng = np.random.default_rng(0)
        m = 9
        counts = np.zeros(m + 1)
        for _ in range(20_000):
            pooled = rng.standard_normal(m + 1)
            r = verify.verification_rank(pooled[:m], pooled[m], rng)
            counts[r - 1] += 1
        stat = ((counts - 2000.0) ** 2 / 2000.0).sum()
        assert stat < chi2.ppf(0.999, m)


class TestPitAndNormalizedRank:
    def test_gaussian_median_pit(self):
        """`verify` takes the PIT of a Gaussian forecast N(mu, sigma²) as
        emos.ndtr((y − mu)/sigma)."""
        from enspost.emos import ndtr

        assert ndtr((2.0 - 2.0) / 3.0) == 0.5

    def test_all_members_above_gives_zero(self):
        nr = verify.normalized_rank([1.0, 2.0, 3.0], 0.0, np.random.default_rng(0))
        assert nr == 0.0

    def test_calibrated_pit_uniformity_rate(self):
        """Calibrated pairs (F, y ~ F) pass a 17-bin chi-square test at the
        1% level in >= 95% of seeded replications."""
        passes = 0
        crit = chi2.ppf(0.99, 16)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            mu = rng.normal(0, 3, 400)
            sd = rng.uniform(0.5, 2.0, 400)
            y = rng.normal(mu, sd)
            pits = norm.cdf(y, mu, sd)
            counts = verify.histogram(pits, 17) * 400
            stat = ((counts - 400 / 17) ** 2 / (400 / 17)).sum()
            passes += stat < crit
        assert passes >= 95


class TestMultivariateRank:
    def test_one_dimension_matches_verification_rank(self):
        rng = np.random.default_rng(0)
        m = 7
        counts_mv = np.zeros(m + 1)
        counts_uv = np.zeros(m + 1)
        for _ in range(20_000):
            pooled = rng.standard_normal(m + 1)
            r_mv = verify.multivariate_rank(pooled[:m, None], pooled[m:], rng)
            r_uv = verify.verification_rank(pooled[:m], pooled[m], rng)
            counts_mv[r_mv - 1] += 1
            counts_uv[r_uv - 1] += 1
        assert np.all(np.abs(counts_mv - counts_uv) / 20_000 < 0.02)

    def test_dominated_observation_rank_one(self):
        ens = np.array([[2.0, 2.0], [3.0, 3.0], [4.0, 5.0]])
        rank = verify.multivariate_rank(ens, [1.0, 1.0], np.random.default_rng(0))
        assert rank == 1

    def test_exchangeable_uniform_chi_square(self):
        rng = np.random.default_rng(3)
        n, d = 9, 3
        counts = np.zeros(n + 1)
        trials = 10_000
        cov = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.5], [0.2, 0.5, 1.0]])
        chol = np.linalg.cholesky(cov)
        for _ in range(trials):
            pooled = rng.standard_normal((n + 1, d)) @ chol.T
            r = verify.multivariate_rank(pooled[:n], pooled[n], rng)
            counts[r - 1] += 1
        expected = trials / (n + 1)
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, n)


class TestPackedPreRanks:
    """`verify.pre_ranks` keeps each dominated set in packed bits; the dense
    dominance matrix of `oracles.pre_ranks_by_dominance` is the reference.
    Values rounded to 0.1 make ties common, and N crosses the 64-bit word
    boundaries."""

    @given(st.integers(1, 300), st.integers(1, 70), st.sampled_from([0.05, 0.3, 2.0]),
           st.integers(0, 2**32 - 1))
    @example(64, 3, 0.3, 0).via("one full word")
    @example(65, 3, 0.3, 0).via("one bit past a word")
    @example(129, 70, 0.05, 1).via("three words, nearly every value tied")
    @settings(max_examples=60, deadline=None)
    def test_equal_to_the_dominance_matrix(self, n, d, spread, seed):
        rng = np.random.default_rng(seed)
        pooled = np.round(rng.normal(0.0, spread, (n, d)), 1)
        assert np.array_equal(verify.pre_ranks(pooled), pre_ranks_by_dominance(pooled))
        draws, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
        rank = verify.multivariate_rank(pooled[1:], pooled[0], draws)
        assert rank == multivariate_rank_by_dominance(pooled[1:], pooled[0], oracle)
        assert draws.bit_generator.state == oracle.bit_generator.state

    def test_no_coordinates(self):
        with pytest.raises(ValueError, match="at least one coordinate"):
            verify.pre_ranks(np.empty((3, 0)))


class TestHistogram:
    def test_51_ranks_even_bins(self):
        ranks = np.arange(1, 52)
        counts = verify.histogram(ranks, 17, rank_max=51)
        assert np.allclose(counts, 3 / 51)

    def test_uniform_pit_grid_flat(self):
        pits = (np.arange(1700) + 0.5) / 1700
        counts = verify.histogram(pits, 17)
        assert np.allclose(counts, 1 / 17)

    def test_all_mass_at_rank_one(self):
        counts = verify.histogram(np.ones(40, dtype=int), 17, rank_max=51)
        assert counts[0] == 1.0
        assert np.all(counts[1:] == 0.0)

    def test_remainder_absorbed_from_last_bin_backward(self):
        # 52 ranks in 17 bins: the last bin takes 4 consecutive ranks
        ranks = np.arange(1, 53)
        counts = verify.histogram(ranks, 17, rank_max=52)
        assert counts[-1] == pytest.approx(4 / 52)
        assert np.allclose(counts[:-1], 3 / 52)

    def test_counts_normalize(self):
        rng = np.random.default_rng(0)
        counts = verify.histogram(rng.uniform(0, 1, 1000), 17)
        assert counts.sum() == pytest.approx(1.0, abs=1e-12)

    def test_needs_a_bin(self):
        with pytest.raises(ValueError, match="at least one bin"):
            verify.histogram([0.5], 0)


class TestDmTest:
    def test_identical_series(self):
        x = np.arange(20.0)
        res = verify.dm_test(x, x)
        assert res.statistic == 0.0
        assert res.pvalue == 1.0
        assert not res.degenerate_variance

    def test_constant_difference_degenerate(self):
        a = np.zeros(20)
        res = verify.dm_test(a + 1.0, a)
        assert res.degenerate_variance
        assert res.pvalue == pytest.approx(0.0)
        assert res.statistic > 0

    def test_size_under_null(self):
        """i.i.d. N(0,1) differentials: rejection rate at the 5% level is
        5% ± 1% over 10^4 trials."""
        rng = np.random.default_rng(12345)
        n, trials = 200, 10_000
        d = rng.standard_normal((trials, n))
        dbar = d.mean(axis=1)
        var = d.var(axis=1)
        stats = dbar / np.sqrt(var / n)
        rate = np.mean(2 * (1 - norm.cdf(np.abs(stats))) < 0.05)
        # the vectorized statistic above mirrors dm_test with lag 0
        check = verify.dm_test(d[0], np.zeros(n))
        assert check.statistic == pytest.approx(stats[0], rel=1e-12)
        assert abs(rate - 0.05) <= 0.01

    def test_hac_lag_reduces_size_distortion_for_ma1(self):
        rng = np.random.default_rng(7)
        n, trials = 400, 800
        eps = rng.standard_normal((trials, n + 1))
        d = eps[:, 1:] + 0.8 * eps[:, :-1]  # MA(1) differentials, mean 0
        rej0 = rej1 = 0
        for t in range(trials):
            rej0 += verify.dm_test(d[t], np.zeros(n), lag=0).pvalue < 0.05
            rej1 += verify.dm_test(d[t], np.zeros(n), lag=1).pvalue < 0.05
        assert rej1 < rej0

    def test_requires_alignment(self):
        with pytest.raises(ValueError):
            verify.dm_test([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_scores_is_reported_before_the_lag(self):
        with pytest.raises(ValueError, match=r"^need at least 5 aligned scores, got n = 3$"):
            verify.dm_test(np.ones(3), np.zeros(3), lag=10)
        with pytest.raises(ValueError, match=r"^lag must satisfy 0 <= lag < n = 6$"):
            verify.dm_test(np.ones(6), np.zeros(6), lag=6)

    def test_pvalue_keeps_precision_at_large_statistics(self):
        """2·Φ(−|t|), not 2·(1 − Φ(|t|)), which cancels to 0 from |t| ≈ 8.3."""
        rng = np.random.default_rng(3)
        d = 1.0 + 0.1 * rng.standard_normal(20)
        res = verify.dm_test(d, np.zeros(20))
        assert res.statistic > 20
        assert res.pvalue > 0.0
        assert res.pvalue == pytest.approx(2.0 * norm.sf(res.statistic), rel=1e-12)

    @pytest.mark.parametrize("target", [0.3, 1.96, 4.0, 8.5, 12.0])
    def test_pvalue_is_the_two_sided_normal_tail(self, target):
        """p = erfc(|t|/√2) = 2·Φ(−|t|), against scipy.stats.norm.sf, within
        a relative 1e-14 + 2t²ε: each side rounds t/√2 by up to ε relative,
        which moves the tail by a relative t²ε (up to 1.5e-14 measured on
        [8, 9]).  At t = 12, t/√2 is beyond 8, where Cephes takes its
        far-tail approximation of erfc."""
        d = np.tile([1.0, -1.0], 10)  # mean 0 and variance 1 around the shift
        res = verify.dm_test(target / math.sqrt(20) + d, np.zeros(20))
        assert res.statistic == pytest.approx(target, rel=1e-12)
        oracle = 2.0 * norm.sf(res.statistic)
        tol = 1e-14 + 2.0 * res.statistic ** 2 * np.finfo(float).eps
        assert abs(res.pvalue - oracle) <= tol * oracle


class TestScoreSeries:
    def test_duplicate_entry_rejected(self):
        s = verify.ScoreSeries()
        s.add("2010-06-01", "A", "global", "crps", 1.0)
        with pytest.raises(ValueError, match="duplicate"):
            s.add("2010-06-01", "A", "global", "crps", 2.0)

    def test_nonfinite_rejected(self):
        s = verify.ScoreSeries()
        with pytest.raises(ValueError, match="non-finite"):
            s.add("2010-06-01", "A", "global", "crps", float("nan"))

    def test_daily_mean_and_mean(self):
        s = verify.ScoreSeries()
        s.add("d1", "A", "m", "crps", 1.0)
        s.add("d1", "B", "m", "crps", 3.0)
        s.add("d2", "A", "m", "crps", 5.0)
        dates, series = s.daily_mean("m", "crps")
        assert dates == ["d1", "d2"]
        assert list(series) == [2.0, 5.0]
        assert s.mean("m", "crps") == pytest.approx(3.0)

    def test_csv_roundtrip(self, tmp_path):
        s = verify.ScoreSeries()
        s.add("d1", "A", "m", "crps", 1.25)
        s.add("d2", "A", "m", "ae", 0.5)
        path = tmp_path / "scores.csv"
        s.to_csv(path)
        with open(path, newline="") as fh:
            back = [(r["date"], r["site"], r["method"], r["score"], float(r["value"]))
                    for r in csv.DictReader(fh)]
        assert back == list(s.rows())

    def test_methods_with_a_score(self):
        s = verify.ScoreSeries()
        s.add("d1", "A", "local", "crps", 1.0)
        s.add("d1", "A", "global", "crps", 1.0)
        s.add("d1", "ALL", "raw_ecc", "es", 2.0)
        assert s.methods("crps") == ["global", "local"]
        assert s.methods("es") == ["raw_ecc"]
        assert s.methods("ae") == []
