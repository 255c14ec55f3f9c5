"""Tests for the latent-field Bayesian model: priors, marginal likelihood,
posterior sampling and the predictive mixture."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.stats import gamma as gamma_dist, norm

from oracles import band_scatter_union, dense_log_marginal

from enspost import data, memos, mesh as mesh_mod, spde


def training_and_site_mesh(training, sites, xy):
    """Default mesh over the training and prediction locations, merged by
    id and sorted."""
    merged = dict(zip(training.stations, training.xy.tolist()))
    merged.update(zip(sites, xy.tolist()))
    return mesh_mod.build_mesh([merged[k] for k in sorted(merged)])


@pytest.fixture(scope="module")
def small_problem():
    """8 stations, K=14 mesh, 40 training cases: latent dim 30 (<= 40)."""
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, (8, 2))
    sites = [f"s{i}" for i in range(len(pts))], pts  # ids and (S, 2) km coordinates
    msh = mesh_mod.build_mesh(pts, min_angle=5.0)
    ops = spde.assemble_fem(msh)
    fbar = rng.uniform(0, 15, 40)
    y = 1.0 + 0.9 * fbar + rng.normal(0, 1.0, 40)
    training = data.TrainingSet(
        stations=sites[0] * 5, dates=[None] * 40, fbar=fbar, y=y,
        xy=np.tile(pts, (5, 1)), window="test",
    )
    return sites, msh, ops, training


class TestLogPrior:
    def test_kappa_tau_mode_at_prior_means(self):
        priors = memos.Priors()
        base = memos.Hyperparameters(
            math.exp(-0.082), math.exp(-0.878), math.exp(-0.082), math.exp(-0.878), 1.0
        )
        best = memos.log_prior(base, priors)
        rng = np.random.default_rng(0)
        for _ in range(20):
            other = memos.Hyperparameters(
                math.exp(-0.082 + rng.normal(0, 1)),
                math.exp(-0.878 + rng.normal(0, 1)),
                math.exp(-0.082 + rng.normal(0, 1)),
                math.exp(-0.878 + rng.normal(0, 1)),
                1.0,
            )
            assert memos.log_prior(other, priors) <= best + 1e-12

    def test_component_independence(self):
        priors = memos.Priors()
        t1 = memos.Hyperparameters(1.0, 0.4, 1.0, 0.4, 1.0)
        t2 = memos.Hyperparameters(1.0, 0.8, 1.0, 0.4, 1.0)
        t3 = memos.Hyperparameters(2.0, 0.4, 1.0, 0.4, 1.0)
        t4 = memos.Hyperparameters(2.0, 0.8, 1.0, 0.4, 1.0)
        # doubling tau_a moves the density by the same amount whatever kappa_a is
        d1 = memos.log_prior(t2, priors) - memos.log_prior(t1, priors)
        d2 = memos.log_prior(t4, priors) - memos.log_prior(t3, priors)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_reference_value_against_direct_formula(self):
        priors = memos.Priors()
        theta = memos.Hyperparameters(1.2, 0.3, 0.8, 0.5, 1.7)
        rho = 1.7**-2
        direct = (
            norm.logpdf(math.log(1.2), -0.082, math.sqrt(1.5))
            + norm.logpdf(math.log(0.8), -0.082, math.sqrt(1.5))
            + norm.logpdf(math.log(0.3), -0.878, math.sqrt(1.5))
            + norm.logpdf(math.log(0.5), -0.878, math.sqrt(1.5))
            + gamma_dist.logpdf(rho, 1.0, scale=1 / 0.00005)
            + math.log(2 * rho)
        )
        assert memos.log_prior(theta, priors) == pytest.approx(direct, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            memos.Hyperparameters(0.0, 1.0, 1.0, 1.0, 1.0)


class TestLogMarginal:
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_matches_dense_oracle(self, small_problem, alpha):
        sites, msh, ops, training = small_problem
        priors = memos.Priors(v_fix=50.0)
        model = memos._WindowModel(training, msh, ops, priors, alpha=alpha)
        rng = np.random.default_rng(10)
        assert model.layout.dim <= 40
        for _ in range(20):
            theta = memos.Hyperparameters(
                math.exp(rng.normal(-0.1, 0.8)),
                math.exp(rng.normal(-0.9, 0.8)),
                math.exp(rng.normal(-0.1, 0.8)),
                math.exp(rng.normal(-0.9, 0.8)),
                math.exp(rng.normal(0.0, 0.5)),
            )
            sparse_val = model.log_marginal(theta)
            dense_val = dense_log_marginal(theta, training, msh, ops, priors, alpha)
            assert abs(sparse_val - dense_val) <= 1e-8

    def test_duplicate_row_changes_value(self, small_problem):
        sites, msh, ops, training = small_problem
        theta = memos.Hyperparameters(0.9, 0.4, 0.9, 0.4, 1.0)
        priors = memos.Priors()
        v1 = memos._WindowModel(training, msh, ops, priors).log_marginal(theta)
        doubled = data.TrainingSet(
            stations=training.stations + [training.stations[0]],
            dates=training.dates + [training.dates[0]],
            fbar=np.append(training.fbar, training.fbar[0]),
            y=np.append(training.y, training.y[0]),
            xy=np.vstack([training.xy, training.xy[:1]]),
            window="test",
        )
        v2 = memos._WindowModel(doubled, msh, ops, priors).log_marginal(theta)
        assert v1 != v2

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_fast_path_equals_generic_assembly(self, small_problem, alpha):
        """The fixed-pattern factor equals a factor of Q_post assembled with
        scipy sparse arithmetic from `spde.precision` blocks."""
        import scipy.sparse as sp

        sites, msh, ops, training = small_problem
        priors = memos.Priors()
        model = memos._WindowModel(training, msh, ops, priors, alpha=alpha)
        theta = memos.Hyperparameters(1.1, 0.5, 0.7, 0.9, 1.3)
        fast = model.log_marginal(theta)
        q_a = spde.precision(ops, theta.kappa_a, theta.tau_a, alpha).Q
        q_b = spde.precision(ops, theta.kappa_b, theta.tau_b, alpha).Q
        fixed = sp.diags([1.0 / priors.v_fix] * 2)
        Q_post = sp.csc_matrix(
            sp.block_diag([fixed, q_a, q_b]) + theta.sigma**-2 * model.XtX
        )
        chol = spde.SparseCholesky(Q_post, dense=(0, 1))
        mu = chol.solve(theta.sigma**-2 * model.Xty)
        generic = model._log_marginal_from(theta, chol, mu)
        assert fast == pytest.approx(generic, abs=1e-10)

    def test_scale_equivariance_of_slope_posterior(self, small_problem):
        """Noise-free y = b·f̄: the posterior mean slope stays near b when
        y and f̄ are scaled jointly."""
        sites, msh, ops, _ = small_problem
        rng = np.random.default_rng(3)
        fbar = rng.uniform(5, 15, 64)
        slopes = {}
        for scale in (1.0, 3.0):
            training = data.TrainingSet(
                stations=sites[0] * 8, dates=[None] * 64,
                fbar=scale * fbar, y=scale * (0.8 * fbar),
                xy=np.tile(sites[1], (8, 1)), window="t",
            )
            draws = memos.sample_posterior(
                training, *sites, n=40, seed=11, mesh=msh,
                config=memos.McmcConfig(burn_in=200, thin=2),
            )
            slopes[scale] = float(np.mean(draws.b))
        assert slopes[1.0] == pytest.approx(0.8, abs=0.05)
        assert slopes[3.0] == pytest.approx(0.8, abs=0.05)


@pytest.fixture(scope="module")
def window_models():
    """α = 1 and α = 2 window models of 20 stations on 25 days, with the
    terms their band pattern sums, rebuilt from the model's blocks."""
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 50, (20, 2))
    msh = mesh_mod.build_mesh(pts, min_angle=20.0)
    ops = spde.assemble_fem(msh)
    fbar = rng.uniform(0, 15, 500)
    training = data.TrainingSet(
        stations=[f"s{i}" for i in range(20)] * 25, dates=[None] * 500, fbar=fbar,
        y=1.0 + 0.9 * fbar + rng.normal(0, 1.0, 500),
        xy=np.tile(pts, (25, 1)), window="test",
    )
    models = {}
    for alpha in (1, 2):
        model = memos._WindowModel(training, msh, ops, memos.Priors(), alpha=alpha)
        K, p = model.layout.K, model.layout.dim
        zero2, zero_k = sp.csr_matrix((2, 2)), sp.csr_matrix((K, K))
        terms = ([sp.coo_matrix(([1.0, 1.0], ([0, 1], [0, 1])), shape=(p, p))]
                 + [sp.block_diag([zero2, T, zero_k]) for T in ops.terms(alpha)]
                 + [sp.block_diag([zero2, zero_k, T]) for T in ops.terms(alpha)]
                 + [model.XtX])
        models[alpha] = model, terms
    return models


class TestBandScatterAgainstUnionValues:
    """Adding each term straight into band storage gives every entry the
    same sum of the same products, in the same order, as summing over the
    union pattern first, so the blocks and the factors agree bit for bit."""

    @pytest.mark.parametrize("alpha", [1, 2])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_same_blocks_and_factor(self, window_models, alpha, data):
        model, terms = window_models[alpha]
        weights = data.draw(st.lists(st.floats(0.1, 10.0), min_size=len(terms),
                                     max_size=len(terms)))
        pattern = model._pattern
        got, want = pattern.scatter(weights), band_scatter_union(pattern, terms, weights)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)
        direct = pattern.factor(weights)
        union = spde.SparseCholesky.__new__(spde.SparseCholesky)
        union._factor(pattern, *want)
        assert direct.logdet == union.logdet
        rhs = np.random.default_rng(0).standard_normal(pattern.n)
        np.testing.assert_array_equal(direct.solve(rhs), union.solve(rhs))


class TestMetropolis:
    """The kernel alone, on targets with known answers."""

    @staticmethod
    def chain(target, x0, n, burn_in):
        kept = []
        run = memos.metropolis(target, x0, np.random.default_rng(0),
                               lambda x, payload: kept.append(x), n,
                               memos.McmcConfig(burn_in=burn_in, thin=1))
        return run, np.array(kept)

    def test_correlated_gaussian_with_sds_from_002_to_1(self):
        """Burn-in tunes the step to the narrowest coordinates: the kept
        chain accepts 20-40 % and recovers the sds of the two smallest,
        which correlate 0.8 with each other only, to within 15 %."""
        sds = np.array([0.02, 0.05, 0.2, 0.5, 1.0])
        corr = np.eye(5)
        corr[0, 1] = corr[1, 0] = 0.8
        corr[2, 3] = corr[3, 2] = corr[3, 4] = corr[4, 3] = 0.5
        prec = np.linalg.inv(corr * np.outer(sds, sds))
        run, kept = self.chain(lambda x: (-0.5 * float(x @ prec @ x), None), np.zeros(5),
                               n=4000, burn_in=1000)
        assert 0.2 <= run.acceptance_post <= 0.4
        np.testing.assert_allclose(np.std(kept, axis=0, ddof=1)[:2], sds[:2], rtol=0.15)

    def test_invalid_region_is_a_rejection(self):
        """A proposal the target raises on is rejected and counted; no kept
        state lies in the invalid region x[0] > 1."""
        def target(x):
            if x[0] > 1.0:
                raise FloatingPointError("beyond 1")
            return -0.5 * float(x @ x), None

        run, kept = self.chain(target, np.zeros(2), n=2000, burn_in=500)
        assert run.invalid_proposals > 0
        assert np.all(kept[:, 0] <= 1.0)

    def test_draw_order(self):
        """A constant target accepts every proposal, so without burn-in the
        kept states replay x0 + step·z: per step standard_normal(d), then
        uniform(), then what `keep` draws from the same generator."""
        x0, step = np.array([1.0, -2.0, 0.5]), memos.McmcConfig().initial_step
        rng, kept = np.random.default_rng(3), []
        run = memos.metropolis(lambda x: (0.0, None), x0, rng,
                               lambda x, payload: kept.append((x, rng.standard_normal(2))),
                               40, memos.McmcConfig(burn_in=0, thin=1))
        assert (run.acceptance, run.final_step, run.invalid_proposals, len(kept)) == (
            1.0, step, 0, 40)
        replay, x = np.random.default_rng(3), x0
        for state, extra in kept:
            x = x + step * replay.standard_normal(3)
            replay.uniform()
            np.testing.assert_array_equal(state, x)
            np.testing.assert_array_equal(extra, replay.standard_normal(2))


class TestSamplePosterior:
    def test_near_prior_under_huge_noise(self, small_problem):
        """One weak observation with a prior pinning σ huge: the field
        posterior collapses to its prior (fixed-effect mean 0)."""
        sites, msh, ops, _ = small_problem
        training = data.TrainingSet(
            stations=sites[0][:1], dates=[None], fbar=np.array([10.0]),
            y=np.array([5.0]), xy=sites[1][:1], window="t",
        )
        priors = memos.Priors(precision_shape=200.0, precision_rate=2_000_000.0,
                              v_fix=4.0)  # sigma pinned near 100
        draws = memos.sample_posterior(
            training, *sites, n=60, seed=2, mesh=msh, priors=priors,
            config=memos.McmcConfig(burn_in=300, thin=2),
        )
        assert np.all(draws.sigma > 10.0)
        # fixed-effect prior sd is 2; mean over sites/draws should sit near 0
        assert abs(np.mean(draws.a)) < 1.5
        assert abs(np.mean(draws.b)) < 1.5

    def test_tracks_ols_on_dense_single_station(self):
        rng = np.random.default_rng(2)
        pts = np.array([[2.0, 2.0], [8.0, 2.0], [5.0, 8.0], [5.0, 5.0]])
        fbar = rng.uniform(0, 15, 500)
        y = 2.0 + 1.1 * fbar + rng.normal(0, 1.0, 500)
        training = data.TrainingSet(
            stations=["s3"] * 500, dates=[None] * 500, fbar=fbar, y=y,
            xy=np.tile(pts[3], (500, 1)), window="t",
        )
        msh = mesh_mod.build_mesh(pts, min_angle=20)
        draws = memos.sample_posterior(
            training, ["s3"], pts[3:], n=100, seed=1, mesh=msh,
            config=memos.McmcConfig(burn_in=400, thin=3),
        )
        f_new = 10.0
        post = draws.a[:, 0] + draws.b[:, 0] * f_new
        ols = np.polyfit(fbar, y, 1)
        ols_pred = ols[1] + ols[0] * f_new
        assert abs(post.mean() - ols_pred) < 2 * post.std()

    def test_invalid_proposals_count_as_rejections(self, small_problem):
        """A huge proposal scale overflows or makes the precision singular
        on many proposals; the chain rejects them and still completes."""
        sites, msh, ops, training = small_problem
        draws = memos.sample_posterior(
            training, *sites, n=10, seed=4, mesh=msh,
            config=memos.McmcConfig(burn_in=100, thin=1, initial_step=500.0),
        )
        assert draws.invalid_proposals > 0
        assert np.all(np.isfinite(draws.a)) and np.all(np.isfinite(draws.sigma))

    def test_invalid_initial_state_raises(self, small_problem):
        """A start the target cannot evaluate is a McmcError naming the
        state and the cause, which the CLI reports in one line."""
        sites, msh, ops, training = small_problem
        with pytest.raises(memos.McmcError, match=r"initial state \[0, 0, 0, 0, 1000\] .*"
                                                  r"\(FloatingPointError: overflow"):
            memos.sample_posterior(
                training, *sites, n=2, seed=4, mesh=msh,
                config=memos.McmcConfig(burn_in=2, thin=1),
                init=np.array([0.0, 0.0, 0.0, 0.0, 1000.0]),
            )

    @pytest.mark.parametrize("n, burn_in, thin", [(0, 10, 1), (5, -5, 1), (5, 10, 0)],
                             ids=["no-draws", "negative-burn-in", "zero-thin"])
    def test_chain_settings_out_of_range_raise(self, small_problem, n, burn_in, thin):
        """`metropolis` rejects them before its first step: n = 0 would keep
        no draw, and thin = 0 would divide by zero in acceptance_post."""
        sites, msh, ops, training = small_problem
        with pytest.raises(ValueError, match="need n >= 1, burn_in >= 0 and thin >= 1"):
            memos.sample_posterior(training, *sites, n=n, seed=4, mesh=msh,
                                   config=memos.McmcConfig(burn_in=burn_in, thin=thin))

    def test_reproducible_given_seed(self, small_problem):
        sites, msh, ops, training = small_problem
        kwargs = dict(n=10, seed=7, mesh=msh,
                      config=memos.McmcConfig(burn_in=50, thin=1))
        d1 = memos.sample_posterior(training, *sites, **kwargs)
        d2 = memos.sample_posterior(training, *sites, **kwargs)
        assert np.array_equal(d1.a, d2.a)
        assert np.array_equal(d1.b, d2.b)
        assert np.array_equal(d1.sigma, d2.sigma)

    def test_coverage_of_true_intercept_field(self):
        """a*(s) lies inside the central 90% posterior interval at >= 80%
        of stations, pooled over seeds."""
        hits = 0
        total = 0
        for seed in range(20):
            cfg = data.SimConfig(
                n_stations=30, n_days=40, m=20, sigma=1.0,
                kappa_a=0.9, tau_a=0.5, kappa_b=0.9, tau_b=8.0, alpha=1,
            )
            table, truth = data.simulate(cfg, 100 + seed)
            valid = table.dates[-1]
            training = data.rolling_window(table, valid, length=39, mode="global")
            draws = memos.sample_posterior(
                training, table.stations, table.xy, n=100, seed=seed, mesh=truth.mesh,
                config=memos.McmcConfig(burn_in=300, thin=2),
            )
            lo = np.quantile(draws.a, 0.05, axis=0)
            hi = np.quantile(draws.a, 0.95, axis=0)
            a_true = np.array([truth.a_true[s] for s in draws.sites])
            hits += int(np.sum((a_true >= lo) & (a_true <= hi)))
            total += len(a_true)
        assert hits / total >= 0.80

    def test_no_spurious_slope_field(self):
        """b* ≡ 0 with large noise: the slope posterior concentrates near its
        fixed-effect prior mean 0 at every site."""
        cfg = data.SimConfig(
            n_stations=20, n_days=40, m=20, sigma=4.0,
            field_mode="constant", a_mean=0.0, b_mean=0.0,
        )
        table, truth = data.simulate(cfg, 5)
        valid = table.dates[-1]
        training = data.rolling_window(table, valid, length=39, mode="global")
        draws = memos.sample_posterior(
            training, table.stations, table.xy, n=80, seed=3,
            mesh=training_and_site_mesh(training, table.stations, table.xy),
            config=memos.McmcConfig(burn_in=300, thin=2),
        )
        post_mean_b = draws.b.mean(axis=0)
        assert np.max(np.abs(post_mean_b)) < 0.1
        assert np.std(post_mean_b) < 0.05

    def test_mean_crps_stable_across_seeds(self):
        """Posterior Monte Carlo error dominates seed-to-seed variation of the
        mean predictive score on a fixed test day (checked at 3 seeds)."""
        from enspost import verify

        cfg = data.SimConfig(n_stations=30, n_days=27, m=20, sigma=1.5,
                             tau_a=0.25, tau_b=8.0)
        table, _ = data.simulate(cfg, 8)
        day = table.dates[-1]
        training = data.rolling_window(table, day, length=25, mode="global")
        cases = table.on(day)
        fbar = dict(zip(cases.sites, cases.fbar))

        msh = training_and_site_mesh(training, table.stations, table.xy)
        means = []
        subset_ses = []
        for seed in (1, 2, 3):
            draws = memos.sample_posterior(
                training, table.stations, table.xy, n=100, seed=seed, mesh=msh,
                config=memos.McmcConfig(burn_in=400, thin=3),
            )
            sample = memos.predictive_sample(draws, fbar, m=20)
            pooled = dict(zip(draws.sites, sample))
            scores = [
                verify.crps_empirical(pooled[s], y)
                for s, y in zip(cases.sites, cases.obs)
            ]
            means.append(float(np.mean(scores)))
            # Monte Carlo error estimate: mean CRPS over 10 disjoint 10-draw
            # subsets; the full-sample mean has ~sd(subsets)/sqrt(10)
            subset_means = []
            for k in range(10):
                # draws 10k..10k+9, m = 20 columns each
                pooled = dict(zip(draws.sites, sample[:, 200 * k : 200 * (k + 1)]))
                subset_means.append(
                    np.mean([
                        verify.crps_empirical(pooled[s], y)
                        for s, y in zip(cases.sites, cases.obs)
                    ])
                )
            subset_ses.append(float(np.std(subset_means) / np.sqrt(10)))
        mc_error = max(subset_ses)
        assert max(means) - min(means) < 6 * mc_error


class TestPredictiveSample:
    @staticmethod
    def single_draw(a, b, sigma, site="X"):
        return memos.PosteriorDraws(
            sites=[site], a=np.array([[a]]), b=np.array([[b]]),
            sigma=np.array([sigma]), theta=np.zeros((1, 5)), seed=0, acceptance=1.0,
        )

    def test_single_median_quantile(self):
        draws = self.single_draw(0.0, 1.0, 1.0)
        sample = memos.predictive_sample(draws, {"X": 5.0}, m=1)
        assert sample.shape == (1, 1)
        assert sample[0, 0] == pytest.approx(5.0, abs=1e-12)

    def test_two_member_quartiles(self):
        draws = self.single_draw(0.0, 0.0, 1.0)
        sample = memos.predictive_sample(draws, {"X": 0.0}, m=2)
        assert sample[0] == pytest.approx([-0.67449, 0.67449], abs=1e-5)

    def test_first_of_fifty_quantiles(self):
        draws = self.single_draw(0.0, 0.0, 1.0)
        sample = memos.predictive_sample(draws, {"X": 0.0}, m=50)
        assert sample[0, 0] == pytest.approx(-2.32635, abs=1e-5)

    def test_nondecreasing_within_subsample(self):
        rng = np.random.default_rng(0)
        draws = memos.PosteriorDraws(
            sites=["A", "B"], a=rng.normal(0, 1, (7, 2)), b=rng.normal(1, 0.1, (7, 2)),
            sigma=rng.uniform(0.5, 2.0, 7), theta=np.zeros((7, 5)), seed=0,
            acceptance=1.0,
        )
        sample = memos.predictive_sample(draws, {"A": 3.0, "B": -1.0}, m=9)
        assert np.all(np.diff(sample.reshape(2, 7, 9), axis=2) >= 0)

    def test_missing_fbar_site_error(self):
        draws = self.single_draw(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="missing"):
            memos.predictive_sample(draws, {"Y": 1.0}, m=2)


class TestMixtureCdf:
    def test_agrees_with_predictive_sample_ecdf(self):
        rng = np.random.default_rng(2)
        n = 50
        draws = memos.PosteriorDraws(
            sites=["X"], a=rng.normal(0, 1, (n, 1)), b=rng.normal(1, 0.1, (n, 1)),
            sigma=rng.uniform(0.8, 1.2, n), theta=np.zeros((n, 5)), seed=0,
            acceptance=1.0,
        )
        sample = memos.predictive_sample(draws, {"X": 5.0}, m=100)  # N = 5000
        values = np.sort(sample[0])
        grid = np.linspace(values[0] - 1, values[-1] + 1, 300)
        ecdf = np.searchsorted(values, grid, side="right") / len(values)
        # the mixture CDF (1/n)Σ Φ((x − a_i − b_i f̄)/σ_i)
        means = draws.a[:, 0] + draws.b[:, 0] * 5.0
        cdf = norm.cdf((grid[:, None] - means[None, :]) / draws.sigma[None, :]).mean(axis=1)
        assert np.max(np.abs(ecdf - cdf)) < 0.02


# site ids the CSV must quote, and the extreme finite doubles
EDGE_VALUES = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_VALUES)
POSITIVE = st.floats(min_value=5e-324, allow_infinity=False) | st.sampled_from(EDGE_VALUES[1:3])


@st.composite
def any_draws(draw):
    """PosteriorDraws of 1-3 draws at 1-4 distinct sites whose ids hold
    commas, quotes, colons and spaces."""
    sites = draw(st.lists(st.text(alphabet='ab,":\' ', max_size=5), min_size=1, max_size=4,
                          unique=True))
    n, S = draw(st.integers(1, 3)), len(sites)

    def grid(values, *shape):
        size = math.prod(shape)
        return np.array(draw(st.lists(values, min_size=size, max_size=size)),
                        dtype=float).reshape(shape)

    return memos.PosteriorDraws(
        sites=sites, a=grid(FINITE, n, S), b=grid(FINITE, n, S), sigma=grid(POSITIVE, n),
        theta=grid(FINITE, n, 5), seed=draw(st.integers(0, 2**32 - 1)),
        acceptance=draw(st.floats(0, 1)), final_step=draw(st.floats(0, 10)),
        invalid_proposals=draw(st.integers(0, 10**6)), acceptance_post=draw(st.floats(0, 1)))


class TestDrawsCsvRoundtrip:
    def test_roundtrip(self, tmp_path, small_problem):
        sites, msh, ops, training = small_problem
        draws = memos.sample_posterior(
            training, *sites, n=5, seed=3, mesh=msh,
            config=memos.McmcConfig(burn_in=30, thin=1),
        )
        # a count the reader's default (0) cannot fake
        draws = dataclasses.replace(draws, invalid_proposals=7)
        assert 0.0 <= draws.acceptance_post <= 1.0
        path = tmp_path / "draws.csv"
        draws.to_csv(path)
        back = memos.PosteriorDraws.from_csv(path)
        assert back.sites == sorted(draws.sites)
        idx = [back.sites.index(s) for s in draws.sites]
        assert np.array_equal(back.a[:, idx], draws.a)
        assert np.array_equal(back.b[:, idx], draws.b)
        assert np.array_equal(back.sigma, draws.sigma)
        assert np.array_equal(back.theta, draws.theta)
        assert back.theta.shape == (5, 5)
        assert back.seed == draws.seed == 3
        assert back.acceptance == draws.acceptance
        assert back.final_step == draws.final_step
        assert back.invalid_proposals == 7
        assert back.acceptance_post == draws.acceptance_post

    @settings(max_examples=60, deadline=None)
    @given(draws=any_draws())
    @example(draws=memos.PosteriorDraws(
        sites=['a "b", c: d'], a=np.array([[-0.0]]), b=np.array([[5e-324]]),
        sigma=np.array([1.7976931348623157e308]),
        theta=np.array([[-1.7976931348623157e308, 5e-324, -0.0, 1.7976931348623157e308, 0.0]]),
        seed=1, acceptance=0.5))
    def test_roundtrip_is_bit_exact(self, draws):
        """from_csv(to_csv(d)) gives d's arrays bit for bit, its sites
        sorted and its health fields, for any site ids and finite values."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "draws.csv"
            draws.to_csv(path)
            back = memos.PosteriorDraws.from_csv(path)
        order = sorted(range(len(draws.sites)), key=draws.sites.__getitem__)
        assert back.sites == sorted(draws.sites)
        for name, expected in (("a", draws.a[:, order]), ("b", draws.b[:, order]),
                               ("sigma", draws.sigma), ("theta", draws.theta)):
            got = getattr(back, name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), name
        # repr: the same type and value, NaN included
        for name in ("seed", "acceptance", "acceptance_post", "final_step", "invalid_proposals"):
            assert repr(getattr(back, name)) == repr(getattr(draws, name)), name

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, value):
        """A NaN or ±inf in any column ends the read with the file, line and column."""
        draws = TestPredictiveSample.single_draw(0.5, 1.0, 2.0, site="X")
        path = tmp_path / "draws.csv"
        draws.to_csv(path)
        header, row = path.read_text().splitlines()
        for k, column in enumerate(header.split(",")):
            cells = row.split(",")
            cells[k] = value
            path.write_text(f"{header}\n{','.join(cells)}\n")
            with pytest.raises(ValueError) as info:
                memos.PosteriorDraws.from_csv(path)
            assert str(info.value) == f"{path} line 2: {column} must be finite, got {value}"
