"""Bayesian spatially adaptive postprocessing with latent Gaussian fields.

The intercept and slope surfaces are a(s) = μ_a + Σ_k w_ak ψ_k(s) and
b(s) = μ_b + Σ_k w_bk ψ_k(s): diffuse fixed effects plus zero-mean random
fields with sparse precisions Q(κ_a, τ_a) and Q(κ_b, τ_b) on the mesh.
Observations are y | u ~ N(Xu, σ²I), so the latent vector integrates out
exactly and inference reduces to a 5-dimensional random-walk Metropolis
chain over (log κ_a, log τ_a, log κ_b, log τ_b, log σ), with exact
Gaussian conditional draws of the latent vector for each kept state.

Posterior draws feed an equally weighted Gaussian mixture predictive with
components N(a_i(s) + b_i(s) f̄(s), σ_i²).  `emos.quantile_sample` turns any
such components (one for EMOS, n for MEMOS) into the working sample
x_ij(s) = μ_i(s) + σ_i z_j with the standard normal quantiles z_j at levels
(2j−1)/(2m), grouped by component i so that downstream reordering can
operate per subsample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from . import ecc, emos
from .data import ModelError, PosteriorDraws, TrainingSet
from .mesh import Mesh, projector
from .normal import ndtr
from .spde import (
    BandPattern,
    NonFiniteError,
    SpdeOperators,
    assemble_fem,
    precision_weights,
    spde_logdet_factory,
)


@dataclass(frozen=True)
class Hyperparameters:
    kappa_a: float
    tau_a: float
    kappa_b: float
    tau_b: float
    sigma: float

    def __post_init__(self):
        for name in ("kappa_a", "tau_a", "kappa_b", "tau_b", "sigma"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    @classmethod
    def from_log_vector(cls, x) -> "Hyperparameters":
        k_a, t_a, k_b, t_b, s = np.exp(np.asarray(x, dtype=float))
        return cls(k_a, t_a, k_b, t_b, s)


@dataclass(frozen=True)
class Priors:
    """Independent priors on the hyperparameters.

    Normal on the log length scales and log field scales; Gamma
    (shape, rate) on the observation precision 1/σ².  The fixed effects
    μ_a, μ_b get a diffuse N(0, v_fix) prior inside the latent block.
    """

    logkappa_mean: float = -0.082
    logkappa_var: float = 1.5
    logtau_mean: float = -0.878
    logtau_var: float = 1.5
    precision_shape: float = 1.0
    precision_rate: float = 0.00005
    v_fix: float = 1e6

    def __post_init__(self):
        if self.logkappa_var <= 0 or self.logtau_var <= 0:
            raise ValueError("prior variances must be > 0")
        if self.precision_shape <= 0 or self.precision_rate <= 0 or self.v_fix <= 0:
            raise ValueError("precision prior and v_fix must be > 0")


def log_prior(theta: Hyperparameters, priors: Priors = Priors()) -> float:
    """Log prior density of θ in the (log κ, log τ, log σ) working coordinates.

    Normal terms are specified directly on the log parameters; the Gamma
    term on ρ = 1/σ² picks up the Jacobian |dρ/d log σ| = 2ρ.
    """
    out = 0.0
    for logk in (math.log(theta.kappa_a), math.log(theta.kappa_b)):
        out += _normal_logpdf(logk, priors.logkappa_mean, priors.logkappa_var)
    for logt in (math.log(theta.tau_a), math.log(theta.tau_b)):
        out += _normal_logpdf(logt, priors.logtau_mean, priors.logtau_var)
    rho = theta.sigma**-2
    out += _gamma_logpdf(rho, priors.precision_shape, priors.precision_rate)
    out += math.log(2.0 * rho)
    return out


def _normal_logpdf(x, mean, var):
    return -0.5 * math.log(2.0 * math.pi * var) - 0.5 * (x - mean) ** 2 / var


def _gamma_logpdf(x, shape, rate):
    return (
        shape * math.log(rate)
        - math.lgamma(shape)
        + (shape - 1.0) * math.log(x)
        - rate * x
    )


@dataclass
class LatentLayout:
    """Column layout [μ_a, μ_b, w_a (K), w_b (K)] and the matching design.

    Design rows are [1, f̄, ψ(s), f̄·ψ(s)] per training case.
    """

    K: int
    X: sp.csr_matrix

    @property
    def dim(self) -> int:
        return 2 + 2 * self.K


def build_design(training: TrainingSet, mesh: Mesh) -> LatentLayout:
    """Assemble the sparse design matrix of a training set on a mesh."""
    coords = np.array(
        [[training.locations[s].x, training.locations[s].y] for s in training.stations]
    )
    psi = projector(mesh, coords)
    n = len(training.stations)
    fbar = np.asarray(training.fbar, dtype=float)
    ones = sp.csr_matrix(np.ones((n, 1)))
    fcol = sp.csr_matrix(fbar.reshape(-1, 1))
    X = sp.hstack([ones, fcol, psi, sp.diags(fbar) @ psi], format="csr")
    return LatentLayout(K=mesh.n_vertices, X=X)


class _WindowModel:
    """Precomputed quantities for repeated marginal-likelihood evaluation
    on one training window.

    For either smoothness setting the posterior precision
    Q_post = blockdiag(fixed, Q_a, Q_b) + XᵀX/σ² is a weighted sum of fixed
    sparse terms: the fixed-effect diagonal, the SPDE terms of each field
    block (C, G, and GC⁻¹G for alpha=2) and XᵀX.  Its pattern is analysed
    once, so each of the Metropolis chain's thousands of evaluations only
    scatters one weight per term and refactors the band (LAPACK
    dpbtrf/dtbtrs).
    """

    def __init__(self, training: TrainingSet, mesh: Mesh, ops: SpdeOperators,
                 priors: Priors, alpha: int = 1):
        self.priors = priors
        self.alpha = alpha
        self.layout = build_design(training, mesh)
        X = self.layout.X
        self.y = np.asarray(training.y, dtype=float)
        self.n = len(self.y)
        self.XtX = sp.csc_matrix(X.T @ X)
        self.Xty = X.T @ self.y
        self.yty = float(self.y @ self.y)
        self.spde_logdet = spde_logdet_factory(ops)
        K = self.layout.K
        p = self.layout.dim
        fixed = sp.coo_matrix(([1.0, 1.0], ([0, 1], [0, 1])), shape=(p, p))
        zero2, zero_k = sp.csr_matrix((2, 2)), sp.csr_matrix((K, K))
        terms = ops.terms(alpha)
        self._pattern = BandPattern(
            [fixed]
            + [sp.block_diag([zero2, T, zero_k]) for T in terms]
            + [sp.block_diag([zero2, zero_k, T]) for T in terms]
            + [self.XtX],
            dense=(0, 1),
        )

    def posterior_factor(self, theta: Hyperparameters):
        """Cholesky of Q_post = Q_prior + (1/σ²)XᵀX plus posterior mean."""
        noise_prec = theta.sigma**-2
        chol = self._pattern.factor(
            (1.0 / self.priors.v_fix,
             *precision_weights(theta.kappa_a, theta.tau_a, self.alpha),
             *precision_weights(theta.kappa_b, theta.tau_b, self.alpha),
             noise_prec)
        )
        mu = chol.solve(noise_prec * self.Xty)
        return chol, mu

    def log_marginal(self, theta: Hyperparameters) -> float:
        chol, mu = self.posterior_factor(theta)
        return self._log_marginal_from(theta, chol, mu)

    def _log_marginal_from(self, theta: Hyperparameters, chol, mu) -> float:
        noise_prec = theta.sigma**-2
        logdet_prior = (
            -2.0 * math.log(self.priors.v_fix)
            + self.spde_logdet(theta.kappa_a, theta.tau_a, self.alpha)
            + self.spde_logdet(theta.kappa_b, theta.tau_b, self.alpha)
        )
        quad = self.yty * noise_prec - float(mu @ (noise_prec * self.Xty))
        return (
            -0.5 * self.n * math.log(2.0 * math.pi / noise_prec)
            + 0.5 * logdet_prior
            - 0.5 * chol.logdet
            - 0.5 * quad
        )


def log_marginal(
    theta: Hyperparameters,
    training: TrainingSet,
    mesh: Mesh,
    ops: Optional[SpdeOperators] = None,
    priors: Priors = Priors(),
    alpha: int = 1,
) -> float:
    """Log of ∫ N(y | Xu, σ²I) N(u | 0, Σ_prior(θ)) du for one window.

    Computed through the sparse Cholesky factor of the posterior precision
    Q_post = Q_prior + XᵀX/σ².
    """
    if ops is None:
        ops = assemble_fem(mesh)
    return _WindowModel(training, mesh, ops, priors, alpha).log_marginal(theta)


@dataclass
class McmcConfig:
    burn_in: int = 1000
    thin: int = 5
    initial_step: float = 0.25
    alpha: int = 1


# Burn-in adapts the proposal step every ADAPT_INTERVAL steps toward
# TARGET_ACCEPTANCE; a kept chain accepting below MIN_ACCEPTANCE fails.
ADAPT_INTERVAL = 50
TARGET_ACCEPTANCE = 0.30
MIN_ACCEPTANCE = 0.05


class McmcError(ModelError):
    pass


# A proposal the target cannot evaluate in floating point: a hyperparameter
# or weight that overflows or underflows (FloatingPointError under the
# target's errstate, OverflowError from Python floats), a non-finite
# assembly, or a precision that is not positive definite.
_INVALID_PROPOSAL = (ArithmeticError, NonFiniteError, np.linalg.LinAlgError)


def sample_posterior(
    training: TrainingSet,
    sites: list,
    n: int = 100,
    seed: int = 0,
    *,
    mesh: Mesh,
    priors: Priors = Priors(),
    config: McmcConfig = McmcConfig(),
    init: Optional[np.ndarray] = None,
) -> PosteriorDraws:
    """Posterior sample of (a(s), b(s), σ) at the prediction sites.

    Random-walk Metropolis over the five log hyperparameters targets
    log_prior + log_marginal, with the proposal scale adapted toward
    20-40% acceptance during burn-in only.  Each kept state contributes one
    exact draw of the latent vector from its Gaussian conditional,
    evaluated at the sites through the basis projector.  A proposal whose
    posterior cannot be factored counts as a rejection (target −∞) and in
    `invalid_proposals`; an invalid initial state raises.  Deterministic
    for fixed (inputs, seed).
    """
    sites = list(sites)
    site_coords = np.array([[loc.x, loc.y] for loc in sites])
    psi_sites = projector(mesh, site_coords)

    ops = assemble_fem(mesh)
    model = _WindowModel(training, mesh, ops, priors, alpha=config.alpha)
    rng = np.random.default_rng(np.random.SeedSequence([0xB0A5, int(seed)]))

    if init is None:
        x = _initial_state(training, priors)
    else:
        x = np.asarray(init, dtype=float).copy()

    def target(xv):
        with np.errstate(over="raise", under="raise"):
            theta = Hyperparameters.from_log_vector(xv)
            chol, mu = model.posterior_factor(theta)
            lp = log_prior(theta, priors) + model._log_marginal_from(theta, chol, mu)
        return lp, (chol, mu, theta)

    lp, state = target(x)
    step = config.initial_step
    K = mesh.n_vertices
    p = 2 + 2 * K

    kept_a = np.empty((n, len(sites)))
    kept_b = np.empty((n, len(sites)))
    kept_sigma = np.empty(n)
    kept_theta = np.empty((n, 5))

    total_steps = config.burn_in + n * config.thin
    accepted = 0
    accepted_post = 0
    invalid = 0
    window_accepts = 0
    kept = 0
    half_burn = config.burn_in // 2
    for it in range(total_steps):
        prop = x + step * rng.standard_normal(5)
        try:
            lp_prop, state_prop = target(prop)
        except _INVALID_PROPOSAL:
            lp_prop, state_prop = -math.inf, None
            invalid += 1
        if math.log(rng.uniform()) < lp_prop - lp:
            x, lp, state = prop, lp_prop, state_prop
            accepted += 1
            window_accepts += 1
            if it >= config.burn_in:
                accepted_post += 1
        in_burn = it < config.burn_in
        if in_burn and (it + 1) % ADAPT_INTERVAL == 0:
            rate = window_accepts / ADAPT_INTERVAL
            # stronger corrections early in burn-in so a badly scaled start
            # recovers within a few windows
            gain = 2.0 if it < half_burn else 0.7
            step *= math.exp(gain * np.clip(rate - TARGET_ACCEPTANCE, -0.7, 0.7))
            window_accepts = 0
        if not in_burn and (it - config.burn_in + 1) % config.thin == 0:
            chol, mu, theta = state
            z = rng.standard_normal(p)
            u = mu + chol.solve_Lt(z)
            kept_a[kept] = u[0] + psi_sites @ u[2 : 2 + K]
            kept_b[kept] = u[1] + psi_sites @ u[2 + K :]
            kept_sigma[kept] = theta.sigma
            kept_theta[kept] = x
            kept += 1

    post_steps = n * config.thin
    acceptance_post = accepted_post / post_steps if post_steps else float("nan")
    if post_steps >= 50 and acceptance_post < MIN_ACCEPTANCE:
        raise McmcError(
            "Metropolis acceptance stayed below "
            f"{MIN_ACCEPTANCE:.0%} after adaptation; review priors and "
            "proposal scale"
        )

    return PosteriorDraws(
        sites=[loc.id for loc in sites],
        a=kept_a,
        b=kept_b,
        sigma=kept_sigma,
        theta=kept_theta,
        seed=int(seed),
        acceptance=accepted / total_steps,
        final_step=step,
        invalid_proposals=invalid,
        acceptance_post=acceptance_post,
    )


def _initial_state(training: TrainingSet, priors: Priors) -> np.ndarray:
    """Chain start: prior means for the field parameters, pooled OLS
    residual spread for σ."""
    fbar = np.asarray(training.fbar, dtype=float)
    y = np.asarray(training.y, dtype=float)
    var_f = float(np.var(fbar))
    if var_f > 1e-12:
        b0 = float(np.cov(fbar, y, bias=True)[0, 1] / var_f)
    else:
        b0 = 0.0
    resid = y - (np.mean(y) - b0 * np.mean(fbar)) - b0 * fbar
    s0 = max(float(np.std(resid)), 1e-3)
    return np.array(
        [priors.logkappa_mean, priors.logtau_mean,
         priors.logkappa_mean, priors.logtau_mean, math.log(s0)]
    )


def predictive_sample(draws: PosteriorDraws, fbar, m: int = 50) -> ecc.PredictiveSample:
    """Quantile-structured sample from the posterior predictive mixture."""
    return emos.quantile_sample(draws.sites, _mixture_means(draws, fbar),
                                draws.sigma[:, None], m)


def mixture_cdf(draws: PosteriorDraws, fbar, x) -> np.ndarray:
    """Posterior predictive CDF (1/n)Σ Φ((x−a_i−b_i f̄)/σ_i) per site.

    Returns an array over sites for scalar x, or (len(x), S) for vector x.
    """
    mean = _mixture_means(draws, fbar)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    z = (xs[:, None, None] - mean[None, :, :]) / draws.sigma[None, :, None]
    out = ndtr(z).mean(axis=1)
    return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _mixture_means(draws: PosteriorDraws, fbar) -> np.ndarray:
    """Component means a_i(s) + b_i(s)·f̄(s), shape (n, S)."""
    if isinstance(fbar, dict):
        missing = [s for s in draws.sites if s not in fbar]
        if missing:
            raise ValueError(f"fbar missing for sites {missing}")
        fvec = np.array([float(fbar[s]) for s in draws.sites])
    else:
        fvec = np.asarray(fbar, dtype=float)
        if fvec.shape != (len(draws.sites),):
            raise ValueError("fbar must map every site in the draws")
    return draws.a + draws.b * fvec[None, :]
