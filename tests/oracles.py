"""Independent reference computations shared by the test modules.

These deliberately take different computational routes from the library
code they check: quadrature instead of closed forms, dense covariance-side
linear algebra instead of sparse precision-side identities.
"""

import math

import numpy as np
from scipy.special import ndtr

from enspost import memos, spde


def crps_by_quadrature(mu, sigma, y, points_per_side=40_000):
    """Trapezoidal integration of ∫(F(x) − 1{x≥y})² dx for a Gaussian F,
    split at the integrand's jump at x = y."""
    lo = min(mu - 12.0 * sigma, y - 2.0 * sigma)
    hi = max(mu + 12.0 * sigma, y + 2.0 * sigma)
    left = np.linspace(lo, y, points_per_side)
    right = np.linspace(y, hi, points_per_side)
    f_left = ndtr((left - mu) / sigma) ** 2
    f_right = (ndtr((right - mu) / sigma) - 1.0) ** 2
    return np.trapezoid(f_left, left) + np.trapezoid(f_right, right)


def crps_empirical_naive(sample, y: float) -> float:
    """Quadratic-cost double sum (1/N)Σ|x_i−y| − (1/(2N²))ΣΣ|x_i−x_j|; the
    independent cross-check of `verify.crps_empirical`."""
    x = np.asarray(sample, dtype=float)
    n = len(x)
    if n == 0:
        raise ValueError("empty forecast sample")
    return float(np.mean(np.abs(x - y)) - np.abs(x[:, None] - x[None, :]).sum() / (2 * n * n))


def dense_log_marginal(theta, training, msh, ops, priors, alpha=1):
    """Covariance-side oracle: log N(y; 0, X Σ_prior Xᵀ + σ²I) with dense
    linear algebra."""
    layout = memos.build_design(training, msh)
    X = layout.X.toarray()
    K = msh.n_vertices
    q_a = spde.precision(ops, theta.kappa_a, theta.tau_a, alpha).Q.toarray()
    q_b = spde.precision(ops, theta.kappa_b, theta.tau_b, alpha).Q.toarray()
    Sig = np.zeros((layout.dim, layout.dim))
    Sig[0, 0] = Sig[1, 1] = priors.v_fix
    Sig[2 : 2 + K, 2 : 2 + K] = np.linalg.inv(q_a)
    Sig[2 + K :, 2 + K :] = np.linalg.inv(q_b)
    y = np.asarray(training.y)
    cov = X @ Sig @ X.T + theta.sigma**2 * np.eye(len(y))
    sign, logdet = np.linalg.slogdet(cov)
    return -0.5 * (len(y) * math.log(2 * math.pi) + logdet + y @ np.linalg.solve(cov, y))
