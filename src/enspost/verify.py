"""Proper scores, calibration histograms, and forecast-comparison testing.

All scores are negatively oriented (smaller is better).  Sample-based
scores treat the forecast as the empirical measure of its members; the
probability score for a sample reduces to the absolute error for a single
member, and the multivariate energy score reduces to the univariate score
in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .files import write_rows


def crps_empirical(sample, y: float) -> float:
    """Probability score of an empirical forecast: (1/N)Σ|x_i−y| −
    (1/(2N²))ΣΣ|x_i−x_j|, via the O(N log N) sorted identity."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("empty forecast sample")
    term1 = float(np.mean(np.abs(x - y)))
    # sum_{ij} |x_i - x_j| = 2 sum_i (2i - n - 1) x_(i) for ascending x, so the
    # spread term (1/(2n^2)) sum_{ij} |x_i - x_j| reduces to:
    coeff = 2.0 * np.arange(1, n + 1) - n - 1.0
    term2 = float(coeff @ x) / (n * n)
    return term1 - term2


def sample_median(sample) -> float:
    """Lower-middle median: element (N−1)//2 of the sorted sample."""
    x = np.sort(np.asarray(sample, dtype=float))
    if len(x) == 0:
        raise ValueError("empty sample")
    return float(x[(len(x) - 1) // 2])


def abs_error(sample, y: float) -> float:
    """Absolute error of the sample median."""
    return abs(sample_median(sample) - float(y))


PAIR_BLOCK = 512  # rows of the N × N distance matrix held at once


def energy_score(sample, y) -> float:
    """Energy score of a d-variate sample forecast: (1/N)Σ‖x_i−y‖ −
    (1/(2N²))ΣΣ‖x_i−x_j‖.

    The double sum runs in blocks of `PAIR_BLOCK` rows, each against itself
    and every later row: pairs within a block count in both orders, pairs
    past it once, doubled.  With the members centred, a block's squared
    distances are |x_i|² + |x_j|² − 2 x_i·x_j from one matrix product; a
    pair whose value cancels below 1e-4·(|x_i|² + |x_j|²), the diagonal
    always among them, is recomputed as the squared norm of x_i − x_j, so
    identical members are exactly 0 apart.
    """
    x = np.atleast_2d(np.asarray(sample, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[1] != len(yv):
        raise ValueError(f"dimension mismatch: members have {x.shape[1]}, y has {len(yv)}")
    n = len(x)
    if n == 1:
        # a point forecast scores exactly its Euclidean distance
        return float(np.linalg.norm(x[0] - yv))
    term1 = float(np.mean(np.linalg.norm(x - yv[None, :], axis=1)))
    c = x - x.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    total = 0.0
    for lo in range(0, n, PAIR_BLOCK):
        block, rest = c[lo:lo + PAIR_BLOCK], c[lo:]
        scale = sq[lo:lo + PAIR_BLOCK, None] + sq[lo:]
        d2 = (-2.0 * block) @ rest.T
        d2 += scale
        scale *= 1e-4
        close = np.flatnonzero(d2 <= scale)
        i, j = np.divmod(close, n - lo)
        d2.flat[close] = np.square(block[i] - rest[j]).sum(axis=1)
        dist = np.sqrt(d2, out=d2)
        total += float(dist[:, :PAIR_BLOCK].sum()) + 2.0 * float(dist[:, PAIR_BLOCK:].sum())
    return term1 - 0.5 * total / (n * n)


def verification_rank(ensemble, y: float, rng: np.random.Generator) -> int:
    """Rank of the observation pooled with the members, in 1..m+1, ties
    resolved at random."""
    x = np.asarray(ensemble, dtype=float)
    below = int(np.sum(x < y))
    ties = int(np.sum(x == y))
    return 1 + below + int(rng.integers(0, ties + 1))


def normalized_rank(sample, y: float, rng: np.random.Generator) -> float:
    """(rank − 1)/N for a sample forecast: the PIT analog in [0, 1]."""
    n = len(np.asarray(sample))
    return (verification_rank(sample, y, rng) - 1) / n


_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def pre_ranks(pooled) -> np.ndarray:
    """Pre-rank of each row of an (N, d) array, d ≥ 1: the number of rows
    (itself included) that it weakly dominates in every coordinate.

    Each row's dominated set is kept as N bits packed in uint64 words.  Per
    coordinate, the set {j : x_jk ≤ x_ik} is a prefix of the ascending
    order, so a cumulative OR of one-bit rows down that order holds every
    such set, and the prefix of row i ends at the last sorted position whose
    value is x_ik (ties included).  The sets are ANDed across coordinates and
    counted: O(d·N²/64) word operations instead of an N × N matrix per
    coordinate.
    """
    pooled = np.asarray(pooled, dtype=float)
    n, d = pooled.shape
    if d < 1:
        raise ValueError("pre-ranks need at least one coordinate")
    rows = np.arange(n)
    last = np.empty(n, dtype=np.intp)  # sorted position that ends each row's tie group
    dominated = None
    for col in pooled.T:
        order = col.argsort(kind="stable")
        values = col[order]
        prefix = np.zeros((n, (n + 63) // 64), dtype=np.uint64)
        prefix[rows, order >> 6] = _BITS[order & 63]
        np.bitwise_or.accumulate(prefix, axis=0, out=prefix)
        # sorted queries keep the binary searches in cache
        last[order] = values.searchsorted(values, side="right") - 1
        below = prefix[last]
        dominated = below if dominated is None else np.bitwise_and(dominated, below, out=dominated)
    return np.bitwise_count(dominated).sum(axis=1, dtype=np.int64)


def multivariate_rank(ensemble, y, rng: np.random.Generator) -> int:
    """Rank of the observation among pooled vectors by pre-rank.

    The pre-rank of a pooled vector is the number of pooled vectors weakly
    dominated by it in every coordinate (see `pre_ranks`); the observation's
    rank among the pre-ranks is returned with ties resolved at random.
    """
    x = np.atleast_2d(np.asarray(ensemble, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[1] != len(yv):
        raise ValueError(f"dimension mismatch: members have {x.shape[1]}, y has {len(yv)}")
    prerank = pre_ranks(np.vstack([yv[None, :], x]))
    return verification_rank(prerank[1:], prerank[0], rng)


def histogram(values, bins: int = 17, rank_max: int | None = None) -> np.ndarray:
    """Normalized counts over `bins` ≥ 1 bins.

    With `rank_max` given, values are integer ranks 1..rank_max and
    consecutive ranks are aggregated; when the bin count does not divide
    rank_max, the trailing bins absorb one extra rank each, filling from
    the last bin backward.  Without `rank_max`, values live in [0, 1] and
    the bins are equal width.
    """
    if bins < 1:
        raise ValueError("need at least one bin")
    values = np.asarray(values)
    if len(values) == 0:
        raise ValueError("no values to bin")
    if rank_max is not None:
        base, extra = divmod(rank_max, bins)
        if base == 0:
            raise ValueError(f"{bins} bins need rank_max >= bins")
        sizes = np.full(bins, base, dtype=int)
        if extra:
            sizes[-extra:] += 1
        edges = np.concatenate([[0], np.cumsum(sizes)])  # ranks in (edges[k], edges[k+1]]
        idx = np.searchsorted(edges, values, side="left") - 1
        if np.any((values < 1) | (values > rank_max)):
            raise ValueError("rank outside 1..rank_max")
    else:
        vals = values.astype(float)
        if np.any((vals < 0) | (vals > 1)):
            raise ValueError("unit-interval values required without rank_max")
        idx = np.minimum((vals * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins).astype(float)
    return counts / counts.sum()


@dataclass
class DmResult:
    statistic: float
    pvalue: float
    mean_difference: float
    degenerate_variance: bool = False


def dm_test(scores_a, scores_b, lag: int = 0) -> DmResult:
    """Equal-predictive-performance test on two aligned score series.

    The statistic is mean(d)/sqrt(Var_HAC(d)/n) on the differential
    d = a − b, with a rectangular-kernel long-run variance truncated at
    `lag`, referred to the standard normal.  Zero-variance differentials
    with zero mean give (0, 1); with nonzero mean, p≈0 is reported with
    the degenerate-variance flag set.
    """
    a = np.asarray(scores_a, dtype=float)
    b = np.asarray(scores_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("score series must be 1-d and equally long")
    n = len(a)
    if n < 5:
        raise ValueError(f"need at least 5 aligned scores, got n = {n}")
    if lag < 0 or lag >= n:
        raise ValueError(f"lag must satisfy 0 <= lag < n = {n}")
    d = a - b
    dbar = float(np.mean(d))
    dc = d - dbar
    variance = float(dc @ dc) / n
    for ell in range(1, lag + 1):
        variance += 2.0 * float(dc[:-ell] @ dc[ell:]) / n
    if variance <= 0:
        if dbar == 0.0:
            return DmResult(0.0, 1.0, 0.0, degenerate_variance=False)
        stat = math.copysign(float("inf"), dbar)
        return DmResult(stat, 0.0, dbar, degenerate_variance=True)
    stat = dbar / math.sqrt(variance / n)
    pvalue = math.erfc(abs(stat) / math.sqrt(2.0))  # 2·Φ(−|stat|)
    return DmResult(stat, pvalue, dbar)


@dataclass
class ScoreSeries:
    """Per-(date, site, method, score) records with aggregation helpers."""

    _entries: dict = field(default_factory=dict)

    def add(self, date, site: str, method: str, score: str, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError(f"non-finite score for {date} {site} {method} {score}")
        key = (date, site, method, score)
        if key in self._entries:
            raise ValueError(f"duplicate score entry {key}")
        self._entries[key] = float(value)

    def __len__(self):
        return len(self._entries)

    def mean(self, method: str, score: str) -> float:
        vals = [v for (d, s, m, sc), v in self._entries.items()
                if m == method and sc == score]
        if not vals:
            raise KeyError(f"no entries for ({method}, {score})")
        return float(np.mean(vals))

    def methods(self, score: str) -> list:
        """Sorted methods with at least one entry of `score`."""
        return sorted({m for (d, s, m, sc) in self._entries if sc == score})

    def daily_mean(self, method: str, score: str):
        """Dates and mean-over-sites score series for one method."""
        grouped: dict = {}
        for (d, s, m, sc), v in self._entries.items():
            if m == method and sc == score:
                grouped.setdefault(d, []).append(v)
        if not grouped:
            raise KeyError(f"no entries for ({method}, {score})")
        dates = sorted(grouped)
        return dates, np.array([np.mean(grouped[d]) for d in dates])

    def rows(self):
        for (d, s, m, sc), v in sorted(self._entries.items(), key=lambda kv: (
                str(kv[0][0]), kv[0][1], kv[0][2], kv[0][3])):
            yield d, s, m, sc, v

    def to_csv(self, path) -> None:
        write_rows(path, ["date", "site", "method", "score", "value"],
                   ([str(d), s, m, sc, repr(v)] for d, s, m, sc, v in self.rows()))
