"""Tests for rank-order reordering and independence shuffling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ecc_ranks_per_site, reorder_per_site, shuffle_ranks_per_site

from enspost import ecc


class TestRankPermutation:
    def test_basic_ranks(self):
        pi = ecc.rank_permutation([3.0, 1.0, 2.0], np.random.default_rng(0))
        assert pi.tolist() == [3, 1, 2]

    def test_sorted_input_identity(self):
        pi = ecc.rank_permutation([1.0, 2.0, 5.0, 9.0], np.random.default_rng(0))
        assert pi.tolist() == [1, 2, 3, 4]

    def test_all_ties_uniform(self):
        counts = np.zeros((3, 3))
        for seed in range(3000):
            pi = ecc.rank_permutation([2.0, 2.0, 2.0], np.random.default_rng(seed))
            for k, r in enumerate(pi):
                counts[k, r - 1] += 1
        freqs = counts / 3000
        assert np.all(np.abs(freqs - 1 / 3) < 0.04)


class TestEccQ:
    def test_definition_applied(self):
        out = ecc.ecc_q([3.0, 1.0, 2.0], [10.0, 20.0, 30.0], np.random.default_rng(0))
        assert list(out) == [30.0, 10.0, 20.0]

    def test_raw_ensemble_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            raw = rng.normal(0, 5, 9)
            out = ecc.ecc_q(raw, np.sort(raw), np.random.default_rng(0))
            assert np.array_equal(out, raw)

    def test_singleton(self):
        assert ecc.ecc_q([7.0], [42.0], np.random.default_rng(0))[0] == 42.0

    def test_length_mismatch_error(self):
        with pytest.raises(ValueError, match="size"):
            ecc.ecc_q([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_unsorted_sample_error(self):
        with pytest.raises(ValueError, match="sorted"):
            ecc.ecc_q([1.0, 2.0], [3.0, 1.0])

    def test_output_ranks_equal_raw_ranks(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            raw = rng.normal(0, 1, 8)
            sample = np.sort(rng.normal(5, 3, 8))
            out = ecc.ecc_q(raw, sample, np.random.default_rng(0))
            assert np.array_equal(np.argsort(np.argsort(out)), np.argsort(np.argsort(raw)))

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
    @settings(max_examples=200)
    def test_multiset_preserved(self, values):
        raw = np.array(values)
        sample = np.sort(np.array(values)) * 0.5 + 1.0
        out = ecc.ecc_q(raw, sample, np.random.default_rng(0))
        assert sorted(out) == pytest.approx(sorted(sample))

    def test_idempotent_with_same_permutation(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(0, 1, 12)
        sample = np.sort(rng.normal(0, 2, 12))
        pi = ecc.rank_permutation(raw, np.random.default_rng(0))
        once = ecc.reorder(pi, sample)
        twice = ecc.reorder(pi, np.sort(once))
        assert np.array_equal(once, twice)


def grouped_sample(n, m, S, seed=0):
    """An (S, N) sample of n sorted subsamples of m per row."""
    rng = np.random.default_rng(seed)
    return np.sort(rng.normal(0, 1, (S, n, m)), axis=2).reshape(S, n * m)


class TestEccMemos:
    def test_single_subsample_equals_ecc_q(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(0, 1, (1, 6))
        sample = grouped_sample(1, 6, 1, seed=1)
        merged = ecc.ecc_memos(raw, sample, np.random.default_rng(9))
        direct = ecc.ecc_q(raw[0], sample[0], np.random.default_rng(9))
        assert np.array_equal(merged[0], direct)

    def test_identical_subsamples_reordered_identically(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(0, 1, (1, 5))
        row = np.sort(rng.normal(0, 1, 5))
        sample = np.tile(row, (1, 3))
        merged = ecc.ecc_memos(raw, sample, np.random.default_rng(0))[0]
        blocks = merged.reshape(3, 5)
        assert np.array_equal(blocks[0], blocks[1])
        assert np.array_equal(blocks[1], blocks[2])

    def test_multiset_preserved_per_site(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(0, 1, (3, 7))
        sample = grouped_sample(4, 7, 3, seed=2)
        merged = ecc.ecc_memos(raw, sample, np.random.default_rng(1))
        for j in range(3):
            assert sorted(merged[j]) == pytest.approx(sorted(sample[j]))

    def test_subsample_rank_structure(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(0, 1, (1, 6))
        sample = grouped_sample(3, 6, 1, seed=3)
        merged = ecc.ecc_memos(raw, sample, np.random.default_rng(2))[0]
        raw_ranks = np.argsort(np.argsort(raw[0]))
        for block in merged.reshape(3, 6):
            assert np.array_equal(np.argsort(np.argsort(block)), raw_ranks)

    def test_missing_grouping_metadata_error(self):
        with pytest.raises(ValueError, match="no grouping"):
            ecc.ecc_memos([[1.0, 2.0]], np.zeros((1, 3)), np.random.default_rng(0))

    def test_missing_site_error(self):
        sample = grouped_sample(2, 4, 2)
        with pytest.raises(ValueError, match="do not match"):
            ecc.ecc_memos(np.zeros((1, 4)), sample, np.random.default_rng(0))

    def test_unsorted_subsample_error(self):
        sample = grouped_sample(2, 4, 2)
        sample[1, 4:] = sample[1, 4:][::-1]
        with pytest.raises(ValueError, match="sample row 1: subsamples must be sorted"):
            ecc.ecc_memos(np.zeros((2, 4)), sample, np.random.default_rng(0))


class TestIndependenceShuffle:
    def test_single_value_unchanged(self):
        out = ecc.independence_shuffle([[3.0]], np.random.default_rng(0))
        assert list(out[0]) == [3.0]

    def test_multiset_preserved(self):
        rng = np.random.default_rng(8)
        sample = np.array([rng.normal(0, 1, 40), rng.normal(5, 2, 40)])
        out = ecc.independence_shuffle(sample, np.random.default_rng(1))
        for s in range(2):
            assert sorted(out[s]) == pytest.approx(sorted(sample[s]))

    def test_first_position_uniform(self):
        hits = 0
        trials = 10_000
        for seed in range(trials):
            out = ecc.independence_shuffle([[1.0, 2.0]], np.random.default_rng(seed))
            hits += out[0, 0] == 1.0
        assert abs(hits / trials - 0.5) < 0.02


class TestBatchedAgainstPerSite:
    """One (S, m) rank array per day against the per-site loop it replaced
    (`oracles`): the same ranks, the same reordered values and the same
    generator state afterwards.  Members rounded to 0.5 make ties common."""

    @given(st.integers(1, 60), st.integers(1, 30), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_ecc_ranks_and_reorder(self, S, m, n, seed):
        data = np.random.default_rng(seed)
        raw = np.round(data.normal(0.0, 1.0, (S, m)) * 2) / 2
        pooled = np.sort(np.round(data.normal(0.0, 2.0, (S, n, m)) * 2) / 2,
                         axis=2).reshape(S, n * m)
        batched, per_site = np.random.default_rng(seed), np.random.default_rng(seed)
        ranks = ecc.ecc_ranks(raw, pooled, batched)
        assert np.array_equal(ranks, ecc_ranks_per_site(raw, per_site))
        assert batched.bit_generator.state == per_site.bit_generator.state
        assert np.array_equal(ecc.reorder(ranks, pooled), reorder_per_site(ranks, pooled))

    @given(st.integers(1, 60), st.integers(1, 30), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_shuffle_ranks(self, S, m, n, seed):
        batched, per_site = np.random.default_rng(seed), np.random.default_rng(seed)
        ranks = ecc.shuffle_ranks(S, m * n, batched)
        assert np.array_equal(ranks, shuffle_ranks_per_site(S, m * n, per_site))
        assert batched.bit_generator.state == per_site.bit_generator.state
        pooled = np.round(np.random.default_rng(seed).normal(0.0, 2.0, (S, m * n)) * 2) / 2
        assert np.array_equal(ecc.reorder(ranks, pooled), reorder_per_site(ranks, pooled))
