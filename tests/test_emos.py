"""Tests for the Gaussian predictive model and minimum-CRPS fitting."""

import datetime as dt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import norm

from oracles import crps_by_quadrature, emos_fit_nelder_mead

from enspost import data, emos


class TestCrpsGaussian:
    def test_standard_normal_at_mean(self):
        assert emos.crps_gaussian(0.0, 1.0, 0.0) == pytest.approx(0.23369, abs=1e-5)

    def test_far_observation(self):
        assert emos.crps_gaussian(0.0, 1.0, 10.0) == pytest.approx(9.43581, abs=1e-5)

    def test_against_quadrature(self):
        for mu, sigma, y in [(0, 1, 0), (0, 1, 10), (2, 0.1, 2.5), (-3, 5, 4)]:
            closed = emos.crps_gaussian(mu, sigma, y)
            quad = crps_by_quadrature(mu, sigma, y)
            assert closed == pytest.approx(quad, abs=1e-6)

    @given(
        st.floats(-5, 5), st.floats(0.1, 5), st.floats(-10, 10), st.floats(-20, 20)
    )
    @settings(max_examples=50)
    def test_translation_invariance(self, mu, sigma, y, c):
        a = emos.crps_gaussian(mu + c, sigma, y + c)
        b = emos.crps_gaussian(mu, sigma, y)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_nonnegative_and_vectorized(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(0, 3, 100)
        y = rng.normal(0, 3, 100)
        out = emos.crps_gaussian(mu, 1.3, y)
        assert out.shape == (100,)
        assert np.all(out >= 0)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError):
            emos.crps_gaussian(0.0, 0.0, 1.0)


def training_set(fbar, y):
    n = len(fbar)
    return data.TrainingSet(
        stations=["s"] * n, dates=[None] * n, fbar=np.asarray(fbar, float),
        y=np.asarray(y, float), xy=np.zeros((n, 2)), window="test",
    )


class TestFit:
    def test_noise_free_recovery(self):
        rng = np.random.default_rng(1)
        fbar = rng.uniform(0, 20, 200)
        params = emos.fit(training_set(fbar, 2.0 + 0.9 * fbar))
        assert params.a == pytest.approx(2.0, abs=1e-4)
        assert params.b == pytest.approx(0.9, abs=1e-4)
        assert params.sigma == pytest.approx(emos.SIGMA_FLOOR)

    def test_constant_fbar_fixes_slope(self):
        rng = np.random.default_rng(2)
        y = rng.normal(5.0, 2.0, 100)
        params = emos.fit(training_set(np.full(100, 3.0), y))
        assert params.b == 0.0
        # for a Gaussian fit the CRPS-optimal location is near the sample mean
        assert params.a == pytest.approx(np.mean(y), abs=0.3)

    def test_consistency_on_synthetic(self):
        rng = np.random.default_rng(3)
        fbar = rng.uniform(0, 20, 5000)
        y = 1.0 + 1.1 * fbar + rng.normal(0, 1.5, 5000)
        params = emos.fit(training_set(fbar, y))
        assert abs(params.a - 1.0) < 0.05 * 1.0 + 0.1
        assert abs(params.b - 1.1) / 1.1 < 0.05
        assert abs(params.sigma - 1.5) / 1.5 < 0.05

    def test_objective_not_worse_than_ols_start(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            fbar = rng.uniform(-5, 15, 60)
            y = rng.normal(2.0, 1.0, 60) + 0.5 * fbar + rng.standard_t(3, 60)
            ts = training_set(fbar, y)
            params = emos.fit(ts)
            b0 = np.cov(fbar, y, bias=True)[0, 1] / np.var(fbar)
            a0 = np.mean(y) - b0 * np.mean(fbar)
            s0 = max(np.std(y - a0 - b0 * fbar), 10 * emos.SIGMA_FLOOR)
            start = np.mean(emos.crps_gaussian(a0 + b0 * fbar, s0, y))
            fitted = np.mean(
                emos.crps_gaussian(params.a + params.b * fbar, params.sigma, y)
            )
            assert fitted <= start + 1e-12


def case_table(cases, sites):
    """CaseTable of (date, station id, members, observation or None) tuples
    at `sites`, {station id: (x, y)}."""
    index = {s: k for k, s in enumerate(sites)}
    return data.CaseTable(list(sites), list(sites.values()),
                          [c[0].toordinal() for c in cases], [index[c[1]] for c in cases],
                          [c[2] for c in cases], [np.nan if c[3] is None else c[3] for c in cases])


class TestFitGlobalLocal:
    @staticmethod
    def two_station_table(bias_plus=2.0, bias_minus=-2.0, days=40, seed=0):
        rng = np.random.default_rng(seed)
        sites = {"P": (0.0, 0.0), "M": (10.0, 0.0)}
        cases = []
        import datetime as dt

        for i in range(days):
            d = dt.date(2010, 6, 1) + dt.timedelta(days=i)
            for site, bias in zip(sites, (bias_plus, bias_minus)):
                members = tuple(rng.normal(10.0 + 3 * np.sin(i / 5), 1.0, 5))
                fbar = float(np.mean(members))
                cases.append(
                    (d, site, members, bias + fbar + rng.normal(0, 0.3))
                )
        return case_table(cases, sites)

    def test_single_station_global_equals_local(self):
        import datetime as dt

        rng = np.random.default_rng(5)
        cases = []
        for i in range(30):
            d = dt.date(2010, 6, 1) + dt.timedelta(days=i)
            members = tuple(rng.normal(10, 2, 4))
            cases.append(
                (d, "A", members, float(np.mean(members)) + rng.normal())
            )
        table = case_table(cases, {"A": (0.0, 0.0)})
        valid = dt.date(2010, 6, 28)
        pg = emos.fit_global(table, valid)
        pl = emos.fit_local(table, valid, ["A"])["A"]
        assert pg == pl

    def test_opposite_biases_split(self):
        import datetime as dt

        table = self.two_station_table()
        valid = dt.date(2010, 7, 8)
        pg = emos.fit_global(table, valid)
        fits = emos.fit_local(table, valid, ["P", "M"])
        pp, pm = fits["P"], fits["M"]
        assert abs(pg.a) < 0.8
        assert pp.a == pytest.approx(2.0, abs=0.5)
        assert pm.a == pytest.approx(-2.0, abs=0.5)

    def test_unknown_station_error(self):
        import datetime as dt

        table = self.two_station_table()
        with pytest.raises(ValueError, match="unknown station"):
            emos.fit_local(table, dt.date(2010, 7, 8), ["NOPE"])


def mean_crps(params, training):
    fbar, y = np.asarray(training.fbar), np.asarray(training.y)
    return float(np.mean(emos.crps_gaussian(params.a + params.b * fbar, params.sigma, y)))


WINDOW_KINDS = ("random", "constant", "noise-free")


def synthetic_window(kind, seed, length, a, b, sigma):
    """f̄ spread over 0-20 (one value for constant), y = a + b·f̄ + N(0, σ²)
    (no noise for noise-free; no slope for constant)."""
    rng = np.random.default_rng(seed)
    if kind == "constant":
        fbar = np.full(length, rng.uniform(0, 20))
        y = a + sigma * rng.standard_normal(length)
    else:
        fbar = rng.uniform(0, 20, length)
        y = a + b * fbar + (0.0 if kind == "noise-free" else sigma * rng.standard_normal(length))
    return training_set(fbar, y)


def random_table(seed, n_stations, n_days, missing):
    """Stations of all three window kinds on consecutive days; each
    observation after the first two days is missing with probability
    `missing`, so the local windows differ in length."""
    rng = np.random.default_rng(seed)
    sites = {f"S{i}": (float(i), 0.0) for i in range(n_stations)}
    cases = []
    for i, site in enumerate(sites):
        kind = WINDOW_KINDS[i % 3]
        a, b, sigma = rng.normal(0, 2), rng.uniform(0.5, 1.5), rng.uniform(0.3, 2.0)
        for k in range(n_days):
            day = dt.date(2010, 6, 1) + dt.timedelta(days=k)
            if kind == "constant":
                members = (5.0,) * 4
            else:
                members = tuple(rng.normal(10 + 3 * np.sin(k / 4), 2.0, 4))
            fbar = float(np.mean(members))
            noise = 0.0 if kind == "noise-free" else sigma * rng.standard_normal()
            obs = None if k >= 2 and rng.uniform() < missing else a + b * fbar + noise
            cases.append((day, site, members, obs))
    return case_table(cases, sites)


class TestNewtonAgainstNelderMead:
    """The batched Newton solver against a scalar Nelder–Mead run, whose own
    parameter tolerance is 1e-8 in (a, b, log σ)."""

    @given(st.sampled_from(WINDOW_KINDS), st.integers(0, 2**32 - 1), st.integers(10, 60),
           st.floats(-5, 5), st.floats(0.2, 1.8), st.floats(0.3, 3.0))
    # a single Nelder–Mead run stalled here at a = 7.99e-6 against Newton's 1e-5
    @example(kind="noise-free", seed=0, length=10, a=1e-5, b=0.75, sigma=1.0)
    @settings(max_examples=60, deadline=None)
    def test_same_optimum(self, kind, seed, length, a, b, sigma):
        training = synthetic_window(kind, seed, length, a, b, sigma)
        params = emos.fit(training)
        oracle = emos_fit_nelder_mead(training)
        assert abs(params.a - oracle.a) < 1e-6
        assert abs(params.b - oracle.b) < 1e-6
        assert abs(params.sigma - oracle.sigma) < 1e-6
        assert mean_crps(params, training) <= mean_crps(oracle, training) + 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.floats(0.0, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_batch_equals_alone_in_any_order(self, seed, n_stations, missing):
        table = random_table(seed, n_stations, 30, missing)
        valid = dt.date(2010, 6, 30)
        stations = table.stations
        batch = emos.fit_local(table, valid, stations, min_cases=2)
        for station in stations:
            window = data.rolling_window(table, valid, mode="local", station=station,
                                         min_cases=2)
            alone = emos.fit(window)
            got = batch[station]
            assert abs(got.a - alone.a) <= 1e-10
            assert abs(got.b - alone.b) <= 1e-10
            assert abs(got.sigma - alone.sigma) <= 1e-10
        shuffled = [stations[k] for k in np.random.default_rng(seed).permutation(n_stations)]
        assert emos.fit_local(table, valid, shuffled, min_cases=2) == batch


class TestPredict:
    def test_quantile_sample_sorted_symmetric(self):
        """A Gaussian forecast N(1, 2²) is the one-component case of the
        shared mixture quantile sample."""
        sample = emos.quantile_sample([[1.0]], [[2.0]], 50)
        assert sample.shape == (1, 50)
        q = sample[0]
        assert np.all(np.diff(q) > 0)
        assert q[0] + q[-1] == pytest.approx(2.0, abs=1e-9)  # symmetry about mu
        assert q[0] == pytest.approx(1.0 + 2.0 * norm.ppf(0.01), abs=1e-9)
