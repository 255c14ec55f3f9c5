"""Gaussian regression postprocessing with CRPS-minimum parameter fits.

The predictive law at a site is N(a + b·f̄, σ²), with (a, b, σ) chosen to
minimize the mean continuous ranked probability score over a training set.
Global fits pool all stations in the window; local fits use one station's
window only, and `fit_local` fits every station of a day in one pass.

The fit is damped Newton on (a, b, σ).  CRPS(N(μ, σ²), y) = σ·g((y − μ)/σ)
with g(z) = z(2Φ(z) − 1) + 2φ(z) − 1/√π convex, so it is the perspective of
a convex function and jointly convex in (a, b, σ) for σ > 0: the mean
score has one optimum on σ ≥ SIGMA_FLOOR.  With z = (y − μ)/σ the gradient
of one case is −(2Φ(z) − 1)·(1, f̄) for (a, b) and 2φ(z) − 1/√π for σ, and
its Hessian is (2φ(z)/σ)·vvᵀ with v = (1, f̄, z).  Steps start from the
ordinary-least-squares fit, are damped by an Armijo backtracking search
and projected onto σ ≥ SIGMA_FLOOR; once σ sits on the floor with its
gradient pointing below it, σ stays fixed and the step runs over (a, b).
Windows with constant f̄ fix b = 0.  Every window of a batch is padded to a
common length and iterates under its own convergence mask, so each one
follows the path it would follow alone.

`quantile_sample` turns the components of any equally weighted Gaussian
mixture predictive (one for EMOS, n for MEMOS) into the (S, N) m-quantile
sample, grouped by component, that ECC reorders and verification scores.

`ndtr` (Φ) and `ndtri` (Φ⁻¹) take `math.erfc` and `statistics.NormalDist`
from the standard library, so fitting and scoring load no scipy; `ndtri`
imports `statistics` when it is called, so no fit loads it.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np

from .data import CaseTable, TrainingSet, rolling_window
from .files import ModelError

SIGMA_FLOOR = 1e-4
MAX_NEWTON_ITER = 50
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# converged once no Newton step component exceeds _STEP_TOL·max(|x_i|, 1);
# eigenvalues below _EIG_FLOOR·λ_max count as that value, which keeps a
# rank-deficient Hessian's step finite
_STEP_TOL = 1e-9
_EIG_FLOOR = 1e-12
_ARMIJO = 1e-4
_MAX_HALVINGS = 60
_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


def ndtr(x):
    """Standard normal CDF Φ(x) = erfc(−x/√2)/2, elementwise (0-d: np.float64)."""
    return 0.5 * np.asarray(_erfc(np.asarray(x, dtype=np.float64) / -_SQRT2), dtype=np.float64)


def ndtri(p):
    """Standard normal quantile Φ⁻¹(p) on 0 < p < 1, elementwise (0-d: np.float64)."""
    # `statistics` loads `decimal` and `fractions`; only verify builds quantiles
    from statistics import NormalDist

    inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)
    return np.asarray(inv_cdf(np.asarray(p, dtype=np.float64)), dtype=np.float64)[()]


@dataclass(frozen=True)
class EmosParams:
    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.sigma < SIGMA_FLOOR:
            object.__setattr__(self, "sigma", SIGMA_FLOOR)


class FitError(ModelError):
    """Optimizer failed to converge."""


class StationError(ValueError):
    """One station's failure inside `fit_local`: its window's ValueError or
    its FitError, which is the `__cause__`, and the station it belongs to."""

    def __init__(self, station: str, cause: Exception):
        super().__init__(str(cause))
        self.station = station


def crps_gaussian(mu, sigma, y):
    """Closed-form CRPS of a N(mu, sigma²) forecast against observation y.

    σ[z(2Φ(z)−1) + 2φ(z) − 1/√π] with z=(y−μ)/σ; accepts scalars or
    broadcastable arrays; always nonnegative.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    out = _crps_terms(np.asarray(mu, dtype=float), sigma, np.asarray(y, dtype=float))[0]
    return out if out.ndim else float(out)


def _crps_terms(mu, sigma, y):
    """CRPS of N(mu, sigma²) at y, with z = (y − mu)/sigma, φ(z) and Φ(z)."""
    z = (y - mu) / sigma
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    cdf = ndtr(z)
    return sigma * (z * (2.0 * cdf - 1.0) + 2.0 * pdf - _INV_SQRT_PI), z, pdf, cdf


def _mean_crps(x, fbar, y, w):
    """Weighted mean score of each window at x = (a, b, σ), with z, φ(z), Φ(z)."""
    score, *terms = _crps_terms(x[:, :1] + x[:, 1:2] * fbar, x[:, 2:], y)
    return np.sum(w * score, axis=1), *terms


def _direction(hess, grad, free):
    """Newton step over each window's free parameters, exactly 0 on the
    fixed ones.  Eigenvalues below _EIG_FLOOR·λ_max are raised to it."""
    pair = free[:, :, None] & free[:, None, :]
    lam, vec = np.linalg.eigh(np.where(pair, hess, np.eye(3)))
    lam = np.maximum(lam, _EIG_FLOOR * lam[:, -1:])
    step = -np.einsum("sij,sj,skj,sk->si", vec, 1.0 / lam, vec, grad)
    return np.where(free, step, 0.0)


def _newton(fbar, y, w):
    """Minimum-CRPS (a, b, σ) of S padded windows at once.

    fbar, y and w are (S, L); w holds 1/n on a window's n cases and 0 on its
    padding.  Returns the (S, 3) iterates and an (S,) mask of the windows
    that converged within MAX_NEWTON_ITER steps.
    """
    n_windows = len(w)
    mean_f = np.sum(w * fbar, axis=1)
    mean_y = np.sum(w * y, axis=1)
    var_f = np.sum(w * (fbar - mean_f[:, None]) ** 2, axis=1)
    degenerate = var_f < 1e-12
    cov = np.sum(w * (fbar - mean_f[:, None]) * (y - mean_y[:, None]), axis=1)
    b0 = np.where(degenerate, 0.0, cov / np.where(degenerate, 1.0, var_f))
    a0 = mean_y - b0 * mean_f
    # least-squares residuals have mean 0, so this is their spread
    s0 = np.sqrt(np.sum(w * (y - a0[:, None] - b0[:, None] * fbar) ** 2, axis=1))
    x = np.stack([a0, b0, np.maximum(s0, 10 * SIGMA_FLOOR)], axis=1)

    score, z, pdf, cdf = _mean_crps(x, fbar, y, w)
    done = np.zeros(n_windows, dtype=bool)
    for _ in range(MAX_NEWTON_ITER):
        slope = 2.0 * cdf - 1.0
        grad = np.stack([-np.sum(w * slope, axis=1),
                         -np.sum(w * slope * fbar, axis=1),
                         np.sum(w * (2.0 * pdf - _INV_SQRT_PI), axis=1)], axis=1)
        v = np.stack([np.ones_like(fbar), fbar, z], axis=2)
        hess = np.einsum("sl,sli,slj->sij", w * 2.0 * pdf / x[:, 2:], v, v)

        # b stays 0 for constant f̄; σ on the floor stays there while its
        # gradient points below it
        free = np.ones((n_windows, 3), dtype=bool)
        free[:, 1] = ~degenerate
        free[:, 2] = (x[:, 2] > SIGMA_FLOOR) | (grad[:, 2] <= 0.0)
        grad = np.where(free, grad, 0.0)
        step = _direction(hess, grad, free)

        # a step this small is the last one: take it in full and stop
        last = ~done & np.all(np.abs(step) <= _STEP_TOL * np.maximum(np.abs(x), 1.0), axis=1)
        x[last] = np.maximum(x[last] + step[last], [-np.inf, -np.inf, SIGMA_FLOOR])
        done |= last
        if done.all():
            break

        # σ shrinks at most tenfold per step: far out in z the score is
        # nearly linear in σ and its curvature says little about the optimum
        shrink = 0.9 * x[:, 2] / np.maximum(-step[:, 2], 1e-300)
        t = np.where(done, 0.0, np.minimum(1.0, shrink))
        searching = ~done
        # projected Armijo backtracking, one step length per window, with a
        # slack of the score's rounding error: each case's residual is
        # rounded at the scale of |y| + |a| + |b·f̄| + σ
        slack = 8.0 * np.finfo(float).eps * np.sum(
            w * (np.abs(y) + np.abs(x[:, :1]) + np.abs(x[:, 1:2] * fbar) + x[:, 2:]), axis=1)
        for _ in range(_MAX_HALVINGS):
            trial = x + t[:, None] * step
            trial[:, 2] = np.maximum(trial[:, 2], SIGMA_FLOOR)
            trial_score, trial_z, trial_pdf, trial_cdf = _mean_crps(trial, fbar, y, w)
            accept = searching & (
                trial_score <= score + _ARMIJO * np.sum(grad * (trial - x), axis=1) + slack)
            x[accept], score[accept] = trial[accept], trial_score[accept]
            z[accept], pdf[accept] = trial_z[accept], trial_pdf[accept]
            cdf[accept] = trial_cdf[accept]
            searching &= ~accept
            if not searching.any():
                break
            t = np.where(searching, 0.5 * t, 0.0)
    return x, done


def _stack(windows):
    """Pad S training windows to (S, L) arrays of f̄, y and case weights."""
    sizes = [len(win.fbar) for win in windows]
    fbar = np.zeros((len(windows), max(sizes)))
    y = np.zeros_like(fbar)
    w = np.zeros_like(fbar)
    for s, (win, size) in enumerate(zip(windows, sizes)):
        fbar[s, :size] = win.fbar
        y[s, :size] = win.y
        w[s, :size] = 1.0 / size
    return fbar, y, w


def _fit_windows(windows) -> list:
    """EmosParams of each window, or the FitError of one that did not
    converge."""
    x, done = _newton(*_stack(windows))
    return [EmosParams(*map(float, row)) if ok else FitError(
        f"minimum-CRPS Newton solver stopped at its iteration cap ({MAX_NEWTON_ITER}) "
        "before converging") for row, ok in zip(x, done)]


def _check_size(training: TrainingSet) -> TrainingSet:
    if len(training.fbar) < 2:
        raise ValueError("need at least 2 training cases")
    return training


def fit(training: TrainingSet) -> EmosParams:
    """Minimum-CRPS estimate of (a, b, σ) on a training set: the
    one-window case of the batched Newton solver."""
    (params,) = _fit_windows([_check_size(training)])
    if isinstance(params, FitError):
        raise params
    return params


def fit_global(table: CaseTable, valid_date: dt.date, length: int = 25,
               min_cases: int = 10) -> EmosParams:
    """Fit pooled over all stations in the rolling window before valid_date."""
    window = rolling_window(table, valid_date, length=length, mode="global",
                            min_cases=min_cases)
    return fit(window)


def fit_local(table: CaseTable, valid_date: dt.date, stations, length: int = 25,
              min_cases: int = 10) -> dict:
    """{station: EmosParams}, each fitted on that station's most recent
    `length` observed dates, all in one batched solve.  A station whose
    window or fit fails raises StationError naming the first such station
    in the given order."""
    stations = list(stations)
    windows = []
    for station in stations:
        try:
            windows.append(_check_size(rolling_window(
                table, valid_date, length=length, mode="local", station=station,
                min_cases=min_cases)))
        except ValueError as exc:
            raise StationError(station, exc) from exc
    fits = dict(zip(stations, _fit_windows(windows) if windows else []))
    for station, params in fits.items():
        if isinstance(params, FitError):
            raise StationError(station, params) from params
    return fits


def quantile_sample(mu, sigma, m: int) -> np.ndarray:
    """(S, N) m-quantile sample of an equally weighted Gaussian mixture.

    mu is (n, S) and sigma broadcasts to it; row s holds N = n·m values,
    [s, i·m + j] = mu[i, s] + sigma[i, s]·z_j with z_j the standard normal
    quantile at level (2j + 1)/(2m), j = 0..m−1: one ascending block of m per
    component.
    """
    z = ndtri((2 * np.arange(1, m + 1) - 1) / (2 * m))
    mu = np.asarray(mu, dtype=float)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), mu.shape)
    return (mu.T[:, :, None] + sigma.T[:, :, None] * z).reshape(mu.shape[1], -1)
