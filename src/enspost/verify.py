"""Proper scores, calibration histograms, and forecast-comparison testing.

All scores are negatively oriented (smaller is better).  Sample-based
scores treat the forecast as the empirical measure of its members; the
probability score for a sample reduces to the absolute error for a single
member, and the multivariate energy score reduces to the univariate score
in one dimension.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .normal import ndtr


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


def abs_error(predictive, y: float) -> float:
    """Absolute error of the predictive median: the sample median of an
    array-like, or the mean `mu` of a Gaussian forecast."""
    med = float(predictive.mu) if hasattr(predictive, "mu") else sample_median(predictive)
    return abs(med - float(y))


def energy_score(sample, y) -> float:
    """Energy score of a d-variate sample forecast: (1/N)Σ‖x_i−y‖ −
    (1/(2N²))ΣΣ‖x_i−x_j‖."""
    x = np.atleast_2d(np.asarray(sample, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[1] != len(yv):
        raise ValueError(f"dimension mismatch: members have {x.shape[1]}, y has {len(yv)}")
    n = len(x)
    if n == 1:
        # a point forecast scores exactly its Euclidean distance
        return float(np.linalg.norm(x[0] - yv))
    # loaded here: scipy.spatial pulls in scipy.sparse and scipy.linalg,
    # which no other score needs
    from scipy.spatial.distance import pdist

    term1 = float(np.mean(np.linalg.norm(x - yv[None, :], axis=1)))
    term2 = 2.0 * float(pdist(x).sum()) / (n * n)
    return term1 - 0.5 * term2


def verification_rank(ensemble, y: float, rng: np.random.Generator) -> int:
    """Rank of the observation pooled with the members, in 1..m+1, ties
    resolved at random."""
    x = np.asarray(ensemble, dtype=float)
    below = int(np.sum(x < y))
    ties = int(np.sum(x == y))
    return 1 + below + int(rng.integers(0, ties + 1))


def pit(cdf: Callable, y):
    """Probability integral transform F(y), elementwise over an array y."""
    return cdf(y)


def normalized_rank(sample, y: float, rng: np.random.Generator) -> float:
    """(rank − 1)/N for a sample forecast: the PIT analog in [0, 1]."""
    n = len(np.asarray(sample))
    return (verification_rank(sample, y, rng) - 1) / n


def multivariate_rank(ensemble, y, rng: np.random.Generator) -> int:
    """Rank of the observation among pooled vectors by pre-rank.

    The pre-rank of a pooled vector is the number of pooled vectors weakly
    dominated by it in every coordinate; the observation's rank among the
    pre-ranks is returned with ties resolved at random.
    """
    x = np.atleast_2d(np.asarray(ensemble, dtype=float))
    yv = np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape[1] != len(yv):
        raise ValueError(f"dimension mismatch: members have {x.shape[1]}, y has {len(yv)}")
    pooled = np.vstack([yv[None, :], x])
    n = len(pooled)
    dominated = np.ones((n, n), dtype=bool)
    for k in range(pooled.shape[1]):
        col = pooled[:, k]
        dominated &= col[:, None] <= col[None, :]
    prerank = dominated.sum(axis=0)  # counts vectors weakly below each vector
    rho_obs = prerank[0]
    below = int(np.sum(prerank[1:] < rho_obs))
    ties = int(np.sum(prerank[1:] == rho_obs))
    return 1 + below + int(rng.integers(0, ties + 1))


@dataclass(frozen=True)
class HistogramSpec:
    bins: int = 17

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("need at least one bin")


def histogram(values, spec: HistogramSpec = HistogramSpec(),
              rank_max: Optional[int] = None) -> np.ndarray:
    """Normalized counts over `spec.bins` bins.

    With `rank_max` given, values are integer ranks 1..rank_max and
    consecutive ranks are aggregated; when the bin count does not divide
    rank_max, the trailing bins absorb one extra rank each, filling from
    the last bin backward.  Without `rank_max`, values live in [0, 1] and
    the bins are equal width.
    """
    values = np.asarray(values)
    if len(values) == 0:
        raise ValueError("no values to bin")
    if rank_max is not None:
        base, extra = divmod(rank_max, spec.bins)
        if base == 0:
            raise ValueError(f"{spec.bins} bins need rank_max >= bins")
        sizes = np.full(spec.bins, base, dtype=int)
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
        idx = np.minimum((vals * spec.bins).astype(int), spec.bins - 1)
    counts = np.bincount(idx, minlength=spec.bins).astype(float)
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
        raise ValueError("need at least 5 aligned scores")
    if lag < 0 or lag >= n:
        raise ValueError("lag must satisfy 0 <= lag < n")
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
    pvalue = 2.0 * float(ndtr(-abs(stat)))
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
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "site", "method", "score", "value"])
            for d, s, m, sc, v in self.rows():
                writer.writerow([str(d), s, m, sc, repr(v)])

    @classmethod
    def from_csv(cls, path) -> "ScoreSeries":
        out = cls()
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                out.add(row["date"], row["site"], row["method"], row["score"],
                        float(row["value"]))
        return out
