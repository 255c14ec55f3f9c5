"""Gaussian regression postprocessing with CRPS-minimum parameter fits.

The predictive law at a site is N(a + b·f̄, σ²), with (a, b, σ) chosen to
minimize the mean continuous ranked probability score over a training set.
Global fits pool all stations in the window; local fits use one station's
window only.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.special import ndtr

from .data import CaseTable, TrainingSet, rolling_window

SIGMA_FLOOR = 1e-4
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EmosParams:
    a: float
    b: float
    sigma: float

    def __post_init__(self):
        if self.sigma < SIGMA_FLOOR:
            object.__setattr__(self, "sigma", SIGMA_FLOOR)


class FitError(RuntimeError):
    """Optimizer failed to converge; carries the best iterate found."""

    def __init__(self, message: str, best: EmosParams):
        super().__init__(message)
        self.best = best


def crps_gaussian(mu, sigma, y):
    """Closed-form CRPS of a N(mu, sigma²) forecast against observation y.

    σ[z(2Φ(z)−1) + 2φ(z) − 1/√π] with z=(y−μ)/σ; accepts scalars or
    broadcastable arrays; always nonnegative.
    """
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma <= 0):
        raise ValueError("sigma must be > 0")
    z = (np.asarray(y, dtype=float) - np.asarray(mu, dtype=float)) / sigma
    pdf = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    out = sigma * (z * (2.0 * ndtr(z) - 1.0) + 2.0 * pdf - _INV_SQRT_PI)
    return out if out.ndim else float(out)


def fit(training: TrainingSet) -> EmosParams:
    """Minimum-CRPS estimate of (a, b, σ) on a training set.

    Nelder-Mead over (a, b, log σ) from an ordinary-least-squares start;
    windows with constant f̄ fix b = 0 and optimize (a, log σ) only.
    """
    fbar = np.asarray(training.fbar, dtype=float)
    y = np.asarray(training.y, dtype=float)
    if len(fbar) < 2:
        raise ValueError("need at least 2 training cases")

    var_f = float(np.var(fbar))
    degenerate = var_f < 1e-12

    if degenerate:
        a0, b0 = float(np.mean(y)), 0.0
        resid = y - a0
    else:
        b0 = float(np.cov(fbar, y, bias=True)[0, 1] / var_f)
        a0 = float(np.mean(y) - b0 * np.mean(fbar))
        resid = y - a0 - b0 * fbar
    s0 = max(float(np.std(resid)), 10 * SIGMA_FLOOR)

    if degenerate:
        def objective(x):
            a, logs = x
            return float(np.mean(crps_gaussian(a, max(math.exp(logs), SIGMA_FLOOR), y)))
        x0 = np.array([a0, math.log(s0)])
    else:
        def objective(x):
            a, b, logs = x
            return float(
                np.mean(crps_gaussian(a + b * fbar, max(math.exp(logs), SIGMA_FLOOR), y))
            )
        x0 = np.array([a0, b0, math.log(s0)])

    start_obj = objective(x0)
    res = minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 5000, "maxfev": 10000},
    )
    if degenerate:
        a, logs = res.x
        b = 0.0
    else:
        a, b, logs = res.x
    params = EmosParams(float(a), float(b), max(math.exp(logs), SIGMA_FLOOR))
    if not res.success and res.fun > start_obj + 1e-12:
        raise FitError(f"CRPS optimizer did not converge: {res.message}", params)
    return params


def fit_global(table: CaseTable, valid_date: dt.date, length: int = 25,
               min_cases: int = 10) -> EmosParams:
    """Fit pooled over all stations in the rolling window before valid_date."""
    window = rolling_window(table, valid_date, length=length, mode="global",
                            min_cases=min_cases)
    return fit(window)


def fit_local(table: CaseTable, valid_date: dt.date, station: str, length: int = 25,
              min_cases: int = 10) -> EmosParams:
    """Fit on one station's most recent `length` observed dates."""
    window = rolling_window(table, valid_date, length=length, mode="local",
                            station=station, min_cases=min_cases)
    return fit(window)


@dataclass(frozen=True)
class GaussianForecast:
    mu: float
    sigma: float

    def cdf(self, x):
        return ndtr((x - self.mu) / self.sigma)


def predict(params: EmosParams, fbar: float) -> GaussianForecast:
    """Predictive distribution N(a + b·f̄, σ²)."""
    return GaussianForecast(mu=params.a + params.b * float(fbar), sigma=params.sigma)
