"""Bayesian spatially adaptive postprocessing with latent Gaussian fields.

The intercept and slope surfaces are a(s) = μ_a + Σ_k w_ak ψ_k(s) and
b(s) = μ_b + Σ_k w_bk ψ_k(s): diffuse fixed effects plus zero-mean random
fields with sparse precisions Q(κ_a, τ_a) and Q(κ_b, τ_b) on the mesh.
Observations are y | u ~ N(Xu, σ²I), so the latent vector integrates out
exactly and inference reduces to a random-walk Metropolis chain over
θ = (log κ_a, log τ_a, log κ_b, log τ_b, log σ).  `metropolis` is that
chain and knows nothing of the model: its target may raise for a θ it
cannot evaluate (a rejection), and its `keep` callback, here an exact
Gaussian conditional draw of the latent vector at each kept θ, may draw
from the chain's generator.

Posterior draws feed an equally weighted Gaussian mixture predictive with
components N(a_i(s) + b_i(s) f̄(s), σ_i²).  `emos.quantile_sample` turns any
such components (one for EMOS, n for MEMOS) into the working sample
x_ij(s) = μ_i(s) + σ_i z_j with the standard normal quantiles z_j at levels
(2j−1)/(2m): one (S, N) array whose rows hold a block of m per component i,
so that downstream reordering can operate per subsample.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .data import PosteriorDraws, TrainingSet
from .files import ModelError
from .mesh import Mesh, projector
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
    psi = projector(mesh, training.xy)
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
    once (`spde.BandPattern`), so each of the Metropolis chain's thousands of
    evaluations adds one weighted copy of each term straight into a flat
    band/border/corner buffer and refactors the band (LAPACK dpbtrf/dtbtrs).
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
        with np.errstate(over="ignore"):
            self.yty = float(self.y @ self.y)
        if not math.isfinite(self.yty):
            raise McmcError(f"the squares of the training window's {self.n} observations "
                            "sum past the largest float")
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
        """Log of ∫ N(y | Xu, σ²I) N(u | 0, Σ_prior(θ)) du for the window."""
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


@dataclass(frozen=True)
class ChainRun:
    """The health of one `metropolis` run, as the draws sidecar records it."""

    acceptance: float
    acceptance_post: float   # over the kept (post-burn-in) steps
    final_step: float
    invalid_proposals: int


def metropolis(target, x, rng, keep, n: int, config: McmcConfig) -> ChainRun:
    """Random-walk Metropolis on `target` from the state x.

    `target(x)` returns (log density, payload) and may raise one of
    `_INVALID_PROPOSAL` for a state it cannot evaluate: such a proposal
    counts as a rejection and in `invalid_proposals`, such a start raises
    McmcError.  Each step draws `rng.standard_normal(len(x))`, then
    `rng.uniform()`.  Burn-in scales the step every ADAPT_INTERVAL steps
    toward TARGET_ACCEPTANCE; after it, every thin-th step calls
    `keep(x, payload)`, which may draw from the same rng, n times in all.
    Needs n >= 1, burn_in >= 0 and thin >= 1.
    """
    burn_in, thin = config.burn_in, config.thin
    if n < 1 or burn_in < 0 or thin < 1:
        raise ValueError(f"need n >= 1, burn_in >= 0 and thin >= 1, got n = {n}, "
                         f"burn_in = {burn_in} and thin = {thin}")
    try:
        lp, payload = target(x)
    except _INVALID_PROPOSAL as exc:
        state = ", ".join(f"{v:.6g}" for v in x)
        raise McmcError(f"the chain's initial state [{state}] cannot be evaluated "
                        f"({type(exc).__name__}: {exc})") from exc
    step = config.initial_step
    accepted, invalid = [], 0
    for it in range(burn_in + n * thin):
        prop = x + step * rng.standard_normal(len(x))
        try:
            lp_prop, payload_prop = target(prop)
        except _INVALID_PROPOSAL:
            lp_prop, payload_prop = -math.inf, None
            invalid += 1
        accepted.append(bool(math.log(rng.uniform()) < lp_prop - lp))
        if accepted[-1]:
            x, lp, payload = prop, lp_prop, payload_prop
        if it < burn_in:
            if (it + 1) % ADAPT_INTERVAL == 0:
                rate = sum(accepted[-ADAPT_INTERVAL:]) / ADAPT_INTERVAL
                # stronger corrections early let a badly scaled start recover
                gain = 2.0 if it < burn_in // 2 else 0.7
                step *= math.exp(gain * np.clip(rate - TARGET_ACCEPTANCE, -0.7, 0.7))
        elif (it - burn_in + 1) % thin == 0:
            keep(x, payload)

    acceptance_post = sum(accepted[burn_in:]) / (n * thin)
    if n * thin >= 50 and acceptance_post < MIN_ACCEPTANCE:
        raise McmcError(f"Metropolis acceptance stayed below {MIN_ACCEPTANCE:.0%} after "
                        "adaptation; review priors and proposal scale")
    return ChainRun(sum(accepted) / len(accepted), acceptance_post, step, invalid)


def sample_posterior(
    training: TrainingSet,
    sites: list,
    xy: np.ndarray,
    n: int = 100,
    seed: int = 0,
    *,
    mesh: Mesh,
    priors: Priors = Priors(),
    config: McmcConfig = McmcConfig(),
    init: Optional[np.ndarray] = None,
) -> PosteriorDraws:
    """Posterior sample of (a(s), b(s), σ) at the prediction sites: the ids
    `sites`, row s of the (S, 2) km array `xy` locating ``sites[s]``.

    `metropolis` runs the chain over the five log hyperparameters.  Its
    target, log_prior + log_marginal, raises for a θ whose posterior cannot
    be factored: a rejected proposal, or McmcError at the start.  Its `keep`
    draws the latent vector exactly from its Gaussian conditional at each
    kept θ, from the chain's rng, and evaluates it at the sites through the
    basis projector.  Deterministic for fixed (inputs, seed).  Needs n >= 1,
    burn_in >= 0 and thin >= 1.
    """
    psi_sites = projector(mesh, xy)
    model = _WindowModel(training, mesh, assemble_fem(mesh), priors, alpha=config.alpha)
    rng = np.random.default_rng(np.random.SeedSequence([0xB0A5, int(seed)]))
    x = _initial_state(training, priors) if init is None else np.asarray(init, dtype=float)

    def target(xv):
        with np.errstate(over="raise", under="raise"):
            theta = Hyperparameters.from_log_vector(xv)
            chol, mu = model.posterior_factor(theta)
            lp = log_prior(theta, priors) + model._log_marginal_from(theta, chol, mu)
        return lp, (chol, mu, theta)

    K = model.layout.K
    a, b, sigma, thetas = [], [], [], []

    def keep(xv, payload):
        chol, mu, theta = payload
        u = mu + chol.solve_Lt(rng.standard_normal(model.layout.dim))
        a.append(u[0] + psi_sites @ u[2 : 2 + K])
        b.append(u[1] + psi_sites @ u[2 + K :])
        sigma.append(theta.sigma)
        thetas.append(xv)

    run = metropolis(target, x, rng, keep, n, config)
    return PosteriorDraws(list(sites), np.array(a), np.array(b), np.array(sigma),
                          np.array(thetas), int(seed), **asdict(run))


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


def predictive_sample(draws: PosteriorDraws, fbar: dict, m: int = 50) -> np.ndarray:
    """(S, N) quantile sample, row s for draws.sites[s], of the posterior
    predictive mixture with components N(a_i(s) + b_i(s)·f̄(s), σ_i²), given
    f̄ per site."""
    from . import emos

    missing = [s for s in draws.sites if s not in fbar]
    if missing:
        raise ValueError(f"fbar missing for sites {missing}")
    fvec = np.array([float(fbar[s]) for s in draws.sites])
    return emos.quantile_sample(draws.a + draws.b * fvec[None, :], draws.sigma[:, None], m)
