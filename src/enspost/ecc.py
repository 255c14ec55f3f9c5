"""Empirical copula reordering of postprocessed samples.

Reordering a per-site quantile sample by the raw ensemble's rank order
transfers the raw ensemble's spatial dependence structure onto the
postprocessed margins.  The per-subsample variant applies the same
raw-derived permutation independently to each of the n posterior
subsamples, merging them into one N = m·n member ensemble.  Independence
shuffling destroys dependence on purpose and serves as a baseline.

A day's sample is one (S, N) array, row s the N = n·m values of site s in
subsample-major order: n consecutive blocks of m ascending values, one block
per mixture component (`emos.quantile_sample`), or the sorted raw members with
n = 1.  Its reordering is one (S, L) array of ranks, row s a permutation of
1..L for site s.  One rule applies either way: each row's ranks reorder every
consecutive block of L values of that site's row (`reorder`).  ECC ranks the
raw members, L = m (`rank_permutation`); the independence shuffle draws
L = N (`shuffle_ranks`).  The CLI stores neither ranks nor reordered values,
only the seed of each day: `verify` draws the ranks again from it.

The module needs numpy only, so `verify` loads no scipy through it.
"""

from __future__ import annotations

import numpy as np


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


def ecc_ranks(raw, sample, rng: np.random.Generator = None) -> np.ndarray:
    """The (S, m) ranks of the raw members `raw` (S, m), drawn row by row from
    the one stream, that reorder the (S, N) `sample`.

    Each row of the sample must hold n = N/m consecutive blocks of m values,
    each sorted ascending (as the quantile construction produces them).
    """
    raw, sample = np.asarray(raw, dtype=float), np.asarray(sample, dtype=float)
    if raw.ndim != 2 or sample.ndim != 2 or len(raw) != len(sample):
        raise ValueError(f"raw ensembles of shape {raw.shape} do not match a sample of "
                         f"shape {sample.shape}: one row of members per site")
    m = raw.shape[1]
    if m < 1 or sample.shape[1] % m:
        raise ValueError(f"a sample of {sample.shape[1]} values per site has no grouping "
                         f"into subsamples of m = {m}")
    blocks = sample.reshape(len(sample), -1, m)
    unsorted = np.any(np.diff(blocks, axis=2) < 0, axis=(1, 2))
    if unsorted.any():
        raise ValueError(f"sample row {unsorted.argmax()}: subsamples must be sorted ascending")
    return rank_permutation(raw, rng)


def ecc_memos(raw, sample, rng: np.random.Generator = None) -> np.ndarray:
    """Per-subsample reordering of an (S, N) posterior predictive sample:
    each site's `ecc_ranks` row reorders each of its n subsamples."""
    return reorder(ecc_ranks(raw, sample, rng), sample)


def independence_shuffle(sample, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform random permutation of each row of an (S, N)
    sample, drawn row by row."""
    sample = np.asarray(sample, dtype=float)
    return reorder(shuffle_ranks(*sample.shape, rng), sample)
