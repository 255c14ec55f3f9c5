"""Empirical copula reordering of postprocessed samples.

Reordering a per-site quantile sample by the raw ensemble's rank order
transfers the raw ensemble's spatial dependence structure onto the
postprocessed margins.  The per-subsample variant applies the same
raw-derived permutation independently to each of the n posterior
subsamples, merging them into one N = m·n member ensemble.  Independence
shuffling destroys dependence on purpose and serves as a baseline.

Both reorderings are a RankPermutation per site, and one rule applies
either: ranks of length L reorder each consecutive block of L values of
the site's pooled sample (see `apply_permutation`).  ECC draws L = m ranks
from the raw members; the independence shuffle draws one permutation of
L = N.  The CLI stores the ECC ranks and, for the shuffle, the seed and L
it redraws it from, never the reordered values.

The module needs numpy only, so the CLI's `ecc --method raw` loads no scipy.
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

    def at_site(self, site: str) -> np.ndarray:
        """The (n, m) sample grouped by subsample for one site."""
        return self.values[:, :, self.sites.index(site)]

    def pooled(self, site: str) -> np.ndarray:
        """All N = m·n values at a site, subsample-major order."""
        return self.at_site(site).reshape(-1)


@dataclass(frozen=True)
class RankPermutation:
    """A permutation of 1..L: pi[k] is the rank of member k within its
    block (for ECC, the raw members' ranks with ties broken at random)."""

    pi: tuple

    def __post_init__(self):
        if not self.pi or sorted(self.pi) != list(range(1, len(self.pi) + 1)):
            raise ValueError("pi must be a permutation of 1..L")

    def __len__(self):
        return len(self.pi)


def rank_permutation(raw, rng: np.random.Generator = None) -> RankPermutation:
    """Order-statistic ranks of the raw members, ties resolved at random."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or len(raw) < 1:
        raise ValueError("raw must be a nonempty 1-d member list")
    if rng is None:
        rng = np.random.default_rng()
    tiebreak = rng.random(len(raw))
    order = np.lexsort((tiebreak, raw))
    pi = np.empty(len(raw), dtype=int)
    pi[order] = np.arange(1, len(raw) + 1)
    return RankPermutation(pi=tuple(int(r) for r in pi))


def apply_permutation(pi: RankPermutation, sample) -> np.ndarray:
    """Reorder each consecutive block of len(pi) values: member k of a block
    takes that block's value at rank pi[k]."""
    sample = np.asarray(sample, dtype=float)
    if len(sample) % len(pi):
        raise ValueError(
            f"sample size {len(sample)} is not a multiple of ensemble size {len(pi)}"
        )
    return sample.reshape(-1, len(pi))[:, np.asarray(pi.pi) - 1].reshape(-1)


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
    return apply_permutation(rank_permutation(raw, rng), post_sample)


def ecc_ranks(raw_by_site: dict, sample: PredictiveSample,
              rng: np.random.Generator = None) -> dict:
    """One rank permutation per site of a grouped sample, from its raw members.

    The n subsamples must arrive sorted (as the quantile construction
    produces them) with one value per raw member.  Ranks are drawn in
    sample.sites order from the one stream.
    """
    if not isinstance(sample, PredictiveSample):
        raise ValueError("subsample grouping metadata missing: expected a PredictiveSample")
    missing = [s for s in sample.sites if s not in raw_by_site]
    if missing:
        raise ValueError(f"raw ensemble missing for sites {missing}")
    ranks = {}
    for site in sample.sites:
        raw = np.asarray(raw_by_site[site], dtype=float)
        grouped = sample.at_site(site)  # (n, m)
        if grouped.shape[1] != len(raw):
            raise ValueError(
                f"site {site}: subsample size {grouped.shape[1]} does not match "
                f"raw ensemble size {len(raw)}"
            )
        if np.any(np.diff(grouped, axis=1) < 0):
            raise ValueError(f"site {site}: subsamples must be sorted ascending")
        ranks[site] = rank_permutation(raw, rng)
    return ranks


def shuffle_ranks(sizes: dict, rng: np.random.Generator) -> dict:
    """A uniform random permutation of 1..sizes[site] per site, drawn in
    sorted site order."""
    return {site: RankPermutation(pi=tuple((rng.permutation(sizes[site]) + 1).tolist()))
            for site in sorted(sizes)}


def ecc_memos(raw_by_site: dict, sample: PredictiveSample,
              rng: np.random.Generator = None) -> dict:
    """Per-subsample reordering of a grouped posterior predictive sample:
    each site's `ecc_ranks` permutation reorders each of its n subsamples.
    Returns the merged N = m·n values per site, subsample-major."""
    return {site: apply_permutation(pi, sample.pooled(site))
            for site, pi in ecc_ranks(raw_by_site, sample, rng).items()}


def independence_shuffle(sample_by_site: dict, rng: np.random.Generator) -> dict:
    """Independent uniform random permutation of the values at each site."""
    values = {site: np.asarray(v, dtype=float) for site, v in sample_by_site.items()}
    ranks = shuffle_ranks({site: len(v) for site, v in values.items()}, rng)
    return {site: apply_permutation(pi, values[site]) for site, pi in ranks.items()}
