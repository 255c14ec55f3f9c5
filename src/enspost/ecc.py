"""Empirical copula reordering of postprocessed samples.

Reordering a per-site quantile sample by the raw ensemble's rank order
transfers the raw ensemble's spatial dependence structure onto the
postprocessed margins.  The per-subsample variant applies the same
raw-derived permutation independently to each of the n posterior
subsamples, merging them into one N = m·n member ensemble.  Independence
shuffling destroys dependence on purpose and serves as a baseline.

A day's sample is one (S, N) array of pooled values (`PredictiveSample.pooled`)
and its reordering one (S, L) array of ranks, row s a permutation of 1..L for
site s.  One rule applies either way: each row's ranks reorder every
consecutive block of L values of that site's row (`reorder`).  ECC ranks the
raw members, L = m (`rank_permutation`); the independence shuffle draws
L = N (`shuffle_ranks`).  The CLI stores neither ranks nor reordered values,
only the seed of each day: `verify` draws the ranks again from it.

The module needs numpy only, so `verify` loads no scipy through it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PredictiveSample:
    """Per-site samples of size N = m·n, grouped into n subsamples of m
    values that are nondecreasing in j: one mixture component's quantiles
    (see `emos.quantile_sample`), or a sorted raw ensemble with n = 1.
    """

    sites: list
    values: np.ndarray  # (n, m, S)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def pooled(self) -> np.ndarray:
        """The (S, N) values, row s the N = m·n values of sites[s] in
        subsample-major order."""
        return self.values.transpose(2, 0, 1).reshape(len(self.sites), -1)


def rank_permutation(raw, rng: np.random.Generator = None) -> np.ndarray:
    """Order-statistic ranks 1..m of the raw members along the last axis, ties
    resolved at random: an (S, m) array of members gives (S, m) ranks, drawing
    the tie-breaks of row s after those of rows 0..s−1."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim not in (1, 2) or raw.shape[-1] < 1:
        raise ValueError("raw must be a nonempty member list or an (S, m) array of them")
    if rng is None:
        rng = np.random.default_rng()
    order = np.lexsort((rng.random(raw.shape), raw), axis=-1)
    return order.argsort(axis=-1) + 1


def shuffle_ranks(S: int, L: int, rng: np.random.Generator) -> np.ndarray:
    """(S, L) uniform random permutations of 1..L: row s, for the s-th site in
    sorted order, is the s-th of S `rng.permutation(L)` draws, plus one."""
    ranks = np.tile(np.arange(1, L + 1), (S, 1))
    for row in ranks:
        rng.shuffle(row)
    return ranks


def reorder(ranks, pooled) -> np.ndarray:
    """Reorder each consecutive block of L values of each row of `pooled`
    (S, N) by that row's ranks (S, L): member k of a block takes that block's
    value at rank ranks[s, k].  One-dimensional rows work alike."""
    ranks, pooled = np.asarray(ranks), np.asarray(pooled, dtype=float)
    size = ranks.shape[-1]
    if pooled.shape[-1] % size:
        raise ValueError(f"sample size {pooled.shape[-1]} is not a multiple of "
                         f"ensemble size {size}")
    blocks = pooled.reshape(*pooled.shape[:-1], -1, size)
    return np.take_along_axis(blocks, ranks[..., None, :] - 1, axis=-1).reshape(pooled.shape)


def ecc_q(raw, post_sample, rng: np.random.Generator = None) -> np.ndarray:
    """Reorder an ascending quantile sample by the raw ensemble's ranks.

    The output multiset equals the input sample and its rank order equals
    the raw ensemble's (up to tie randomization).  The raw ensemble itself
    is a fixed point: ecc_q(raw, sorted(raw)) == raw.
    """
    raw = np.asarray(raw, dtype=float)
    post_sample = np.asarray(post_sample, dtype=float)
    if len(raw) != len(post_sample):
        raise ValueError(
            f"raw ensemble size {len(raw)} does not match sample size {len(post_sample)}"
        )
    if np.any(np.diff(post_sample) < 0):
        raise ValueError("post_sample must be sorted ascending")
    return reorder(rank_permutation(raw, rng), post_sample)


def ecc_ranks(raw_by_site: dict, sample: PredictiveSample,
              rng: np.random.Generator = None) -> np.ndarray:
    """The (S, m) ranks of a grouped sample's raw members, row s for
    sample.sites[s], drawn in that order from the one stream.

    The n subsamples must arrive sorted (as the quantile construction
    produces them) with one value per raw member.
    """
    if not isinstance(sample, PredictiveSample):
        raise ValueError("subsample grouping metadata missing: expected a PredictiveSample")
    missing = [s for s in sample.sites if s not in raw_by_site]
    if missing:
        raise ValueError(f"raw ensemble missing for sites {missing}")
    raw = np.array([raw_by_site[site] for site in sample.sites], dtype=float)
    if raw.shape != (len(sample.sites), sample.m):
        raise ValueError(f"raw ensembles of shape {raw.shape} do not match the sample's "
                         f"{len(sample.sites)} sites × {sample.m} members")
    unsorted = np.any(np.diff(sample.values, axis=1) < 0, axis=(0, 1))
    if unsorted.any():
        raise ValueError(f"site {sample.sites[unsorted.argmax()]}: "
                         "subsamples must be sorted ascending")
    return rank_permutation(raw, rng)


def ecc_memos(raw_by_site: dict, sample: PredictiveSample,
              rng: np.random.Generator = None) -> dict:
    """Per-subsample reordering of a grouped posterior predictive sample:
    each site's `ecc_ranks` row reorders each of its n subsamples.
    Returns the merged N = m·n values per site, subsample-major."""
    ranks = ecc_ranks(raw_by_site, sample, rng)
    return dict(zip(sample.sites, reorder(ranks, sample.pooled())))


def independence_shuffle(sample_by_site: dict, rng: np.random.Generator) -> dict:
    """Independent uniform random permutation of the values at each site,
    drawn in sorted site order."""
    return {site: reorder(shuffle_ranks(1, len(values), rng)[0], values)
            for site, values in sorted(sample_by_site.items())}
