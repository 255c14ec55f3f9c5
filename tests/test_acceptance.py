"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria are checked at their stated tolerances; generator settings used
by the statistical criteria are documented inline.
"""

import math
import time

import numpy as np
from scipy.stats import chi2, norm

from oracles import crps_by_quadrature, dense_log_marginal

from enspost import cli, data, ecc, emos, memos, mesh as mesh_mod, spde, verify


def report(num, ok, detail):
    print(f"\ncriterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_gaussian_crps_closed_form_vs_quadrature():
    t0 = time.time()
    worst = 0.0
    for mu in range(-5, 6):
        for sigma in (0.1, 1.0, 5.0):
            for y in range(-10, 11):
                closed = emos.crps_gaussian(float(mu), sigma, float(y))
                quad = crps_by_quadrature(float(mu), sigma, float(y))
                worst = max(worst, abs(closed - quad))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, ok, f"693-point grid, max |closed − quadrature| = {worst:.2e}, "
                  f"{elapsed:.1f}s (< 5s)")


def test_criterion_02_fem_assembly_unit_right_triangle():
    msh = mesh_mod.Mesh(
        vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        triangles=np.array([[0, 1, 2]]),
    )
    ops = spde.assemble_fem(msh)
    expected_G = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    err_g = np.max(np.abs(ops.G.toarray() - expected_G))
    err_c = np.max(np.abs(ops.c_diag - 1.0 / 6.0))
    ok = err_g <= 1e-12 and err_c <= 1e-12
    report(2, ok, f"stiffness err {err_g:.1e}, lumped mass err {err_c:.1e} (<= 1e-12)")


def test_criterion_03_gmrf_sampler_covariance():
    t0 = time.time()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 10, (12, 2))
    msh = mesh_mod.build_mesh(pts, min_angle=5.0)  # no refinement: K = 12 <= 20
    ops = spde.assemble_fem(msh)
    Q = spde.precision(ops, 0.9, 0.8)
    draws = spde.sample_gmrf(Q, 50_000, np.random.default_rng(42))
    emp = np.cov(draws.T)
    dense = np.linalg.inv(Q.Q.toarray())
    rel = np.linalg.norm(emp - dense) / np.linalg.norm(dense)
    elapsed = time.time() - t0
    ok = msh.n_vertices <= 20 and rel < 0.05 and elapsed < 30.0
    report(3, ok, f"K={msh.n_vertices}, 5e4 draws, relative Frobenius error "
                  f"{rel:.3f} (< 0.05), {elapsed:.1f}s (< 30s)")


def test_criterion_04_log_marginal_sparse_vs_dense_oracle():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 10, (8, 2))
    msh = mesh_mod.build_mesh(pts, min_angle=5.0)
    ops = spde.assemble_fem(msh)
    stations = [f"s{i}" for i in range(len(pts))] * 5
    fbar = rng.uniform(0, 15, 40)
    y = 1.0 + 0.9 * fbar + rng.normal(0, 1.0, 40)
    training = data.TrainingSet(
        stations=stations, dates=[None] * 40, fbar=fbar, y=y,
        xy=np.tile(pts, (5, 1)), window="t",
    )
    priors = memos.Priors(v_fix=50.0)
    model = memos._WindowModel(training, msh, ops, priors)
    worst = 0.0
    for _ in range(25):
        theta = memos.Hyperparameters(
            math.exp(rng.normal(-0.1, 0.8)), math.exp(rng.normal(-0.9, 0.8)),
            math.exp(rng.normal(-0.1, 0.8)), math.exp(rng.normal(-0.9, 0.8)),
            math.exp(rng.normal(0.0, 0.5)),
        )
        worst = max(worst, abs(model.log_marginal(theta)
                               - dense_log_marginal(theta, training, msh, ops, priors)))
    ok = model.layout.dim <= 40 and worst <= 1e-8
    report(4, ok, f"latent dim {model.layout.dim} (<= 40), 25 random θ, "
                  f"max |sparse − dense| = {worst:.1e} (<= 1e-8)")


def _recovery_run(seed, n_days_eval=60, window=25):
    """One seed of the synthetic-recovery comparison.

    Truth: smooth nonconstant bias fields (alpha=2, intercept sd ~ 1.9 °C,
    slope sd ~ 0.04 around 1), σ* = 1.5 °C, 50 stations, m = 50.  The
    spatial-model chain warm-starts from the previous day's state with a
    shorter burn-in; day one burns in from scratch.
    """
    cfg = data.SimConfig(n_stations=50, n_days=window + n_days_eval, m=50,
                         sigma=1.5, tau_a=0.25, tau_b=8.0, alpha=2)
    table, _ = data.simulate(cfg, seed)
    msh = mesh_mod.build_mesh(table.xy, min_angle=20)
    crps = {"global": [], "local": [], "memos": []}
    init = None
    step = None
    for i, day in enumerate(table.dates[window:]):
        cases = table.on(day)
        pooled = data.rolling_window(table, day, length=window, mode="global")
        pg = emos.fit(pooled)
        for f, y in zip(cases.fbar, cases.obs):
            crps["global"].append(
                emos.crps_gaussian(pg.a + pg.b * f, pg.sigma, y)
            )
        local = emos.fit_local(table, day, cases.sites, length=window)
        for s, f, y in zip(cases.sites, cases.fbar, cases.obs):
            pl = local[s]
            crps["local"].append(
                emos.crps_gaussian(pl.a + pl.b * f, pl.sigma, y)
            )
        mc = memos.McmcConfig(burn_in=500 if init is None else 200, thin=5,
                              initial_step=step if step else 0.25)
        draws = memos.sample_posterior(pooled, table.stations, table.xy, n=100,
                                       seed=1000 * seed + i,
                                       mesh=msh, config=mc, init=init)
        init, step = draws.theta[-1], draws.final_step
        sample = memos.predictive_sample(draws, dict(zip(cases.sites, cases.fbar)), m=50)
        pooled = dict(zip(draws.sites, sample))
        for s, y in zip(cases.sites, cases.obs):
            crps["memos"].append(verify.crps_empirical(pooled[s], y))
    return {k: float(np.mean(v)) for k, v in crps.items()}


def test_criterion_05_synthetic_recovery_ordering():
    t0 = time.time()
    wins = 0
    lines = []
    for seed in range(5):
        r = _recovery_run(seed)
        ok = (r["global"] > r["local"]) and (r["memos"] <= r["local"] + 0.02)
        wins += ok
        lines.append(f"seed {seed}: global {r['global']:.3f} local {r['local']:.3f} "
                     f"memos {r['memos']:.3f} {'ok' if ok else 'MISS'}")
    elapsed = time.time() - t0
    ok = wins >= 4 and elapsed < 900.0
    report(5, ok, f"{wins}/5 seeds ordered (need >= 4), {elapsed:.0f}s (< 900s); "
                  + "; ".join(lines))


SBC_PRIORS = memos.Priors(
    logkappa_mean=math.log(0.9), logkappa_var=0.4,
    logtau_mean=math.log(0.45), logtau_var=0.4,
    precision_shape=3.0, precision_rate=3.0, v_fix=4.0,
)


def _sbc_replication(rep_seed, n_stations=30, train_days=20, predict_days=4):
    """Data drawn from the model's own prior predictive at these priors,
    then refit; returns the 17-bin chi-square statistic of the PITs."""
    rng = np.random.default_rng(np.random.SeedSequence([0x5BC, rep_seed]))
    coords = rng.uniform(0.5, 9.5, (n_stations, 2))
    ids = [f"s{i:02d}" for i in range(n_stations)]
    msh = mesh_mod.build_mesh(coords, min_angle=20)
    ops = spde.assemble_fem(msh)
    proj = mesh_mod.projector(msh, coords)
    k_a, k_b = np.exp(rng.normal(SBC_PRIORS.logkappa_mean,
                                 math.sqrt(SBC_PRIORS.logkappa_var), 2))
    t_a, t_b = np.exp(rng.normal(SBC_PRIORS.logtau_mean,
                                 math.sqrt(SBC_PRIORS.logtau_var), 2))
    rho = rng.gamma(SBC_PRIORS.precision_shape, 1.0 / SBC_PRIORS.precision_rate)
    sigma = 1.0 / math.sqrt(rho)
    w_a = spde.sample_gmrf(spde.precision(ops, k_a, t_a), 1, rng)[0]
    w_b = spde.sample_gmrf(spde.precision(ops, k_b, t_b), 1, rng)[0]
    mu_a, mu_b = rng.normal(0.0, math.sqrt(SBC_PRIORS.v_fix), 2)
    a_st = mu_a + proj @ w_a
    b_st = mu_b + proj @ w_b

    stations, fbars, ys = [], [], []
    for _ in range(train_days):
        f = rng.normal(10.0, 3.0, n_stations)
        y = a_st + b_st * f + rng.normal(0.0, sigma, n_stations)
        stations += ids
        fbars += list(f)
        ys += list(y)
    training = data.TrainingSet(
        stations=stations, dates=[None] * len(ys), fbar=np.array(fbars),
        y=np.array(ys), xy=np.tile(coords, (train_days, 1)), window="sbc",
    )
    draws = memos.sample_posterior(
        training, ids, coords, n=100, seed=rep_seed, mesh=msh, priors=SBC_PRIORS,
        config=memos.McmcConfig(burn_in=400, thin=3),
    )
    pits = []
    for _ in range(predict_days):
        f = rng.normal(10.0, 3.0, n_stations)
        y = a_st + b_st * f + rng.normal(0.0, sigma, n_stations)
        sample = memos.predictive_sample(
            draws, dict(zip(ids, f)), m=50
        )
        pooled = dict(zip(draws.sites, sample))
        for j, s in enumerate(ids):
            pits.append(verify.normalized_rank(pooled[s], y[j], rng))
    counts = verify.histogram(np.array(pits), 17) * len(pits)
    expected = len(pits) / 17
    return float(((counts - expected) ** 2 / expected).sum())


def test_criterion_06_prior_predictive_calibration():
    t0 = time.time()
    crit = chi2.ppf(0.99, 16)
    passes = sum(_sbc_replication(rep) < crit for rep in range(50))
    elapsed = time.time() - t0
    ok = passes >= 45
    report(6, ok, f"PIT uniformity: {passes}/50 replications pass the 1%-level "
                  f"17-bin chi-square (need >= 45), {elapsed:.0f}s")


def test_criterion_07_ecc_invariance_and_multiset():
    rng = np.random.default_rng(7)
    invariant = 0
    for _ in range(1000):
        m = int(rng.integers(1, 51))
        raw = rng.normal(0, 5, m)
        out = ecc.ecc_q(raw, np.sort(raw), np.random.default_rng(0))
        invariant += bool(np.array_equal(out, raw))
    multiset_ok = 0
    for _ in range(10_000):
        m = int(rng.integers(1, 21))
        raw = rng.normal(0, 5, m)
        sample = np.sort(rng.normal(2, 3, m))
        out = ecc.ecc_q(raw, sample, np.random.default_rng(1))
        multiset_ok += bool(np.array_equal(np.sort(out), sample))
    ok = invariant == 1000 and multiset_ok == 10_000
    report(7, ok, f"raw invariance {invariant}/1000 exact, multisets preserved "
                  f"{multiset_ok}/10000")


def test_criterion_08_energy_score_reductions():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        x = rng.normal(0, 3, n)
        y = rng.normal(0, 3)
        worst = max(worst, abs(verify.energy_score(x[:, None], [y])
                               - verify.crps_empirical(x, y)))
    exact = True
    for _ in range(100):
        x = rng.normal(0, 3, 4)
        y = rng.normal(0, 3, 4)
        exact &= verify.energy_score([x], y) == float(np.linalg.norm(x - y))
    ok = worst <= 1e-12 and exact
    report(8, ok, f"d=1 max |ES − CRPS| = {worst:.1e} (<= 1e-12); single-member "
                  f"ES equals Euclidean distance exactly: {exact}")


def test_criterion_09_dm_test_size():
    rng = np.random.default_rng(12345)
    n, trials = 200, 10_000
    d = rng.standard_normal((trials, n))
    stats = d.mean(axis=1) / np.sqrt(d.var(axis=1) / n)
    rate = float(np.mean(2 * (1 - norm.cdf(np.abs(stats))) < 0.05))
    # spot-check the vectorized statistic against dm_test itself
    spot = verify.dm_test(d[0], np.zeros(n))
    matches = abs(spot.statistic - stats[0]) < 1e-12
    ident = verify.dm_test(np.arange(20.0), np.arange(20.0))
    ok = (abs(rate - 0.05) <= 0.01 and matches
          and ident.statistic == 0.0 and ident.pvalue == 1.0)
    report(9, ok, f"null rejection rate {rate:.4f} (5% ± 1%); identical series "
                  f"give (statistic, p) = ({ident.statistic}, {ident.pvalue})")


PIPELINE_CONFIG = """\
seed = 17
sim_stations = 8
sim_days = 18
sim_m = 10
sim_sigma = 1.0
window = 10
min_train = 8
m = 10
n = 20
memos_burnin = 120
memos_thin = 2
eval_start = 2010-06-12
eval_days = 3
"""


def test_criterion_10_pipeline_determinism(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(PIPELINE_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        for args in (
            ["simulate"],
            ["mesh"],
            ["fit", "--method", "memos"],
            ["predict", "--method", "memos"],
            ["ecc", "--method", "memos"],
            ["verify"],
        ):
            code = cli.main(["--config", str(config), "--out", str(out), *args])
            assert code == 0
        outs.append(out)
    files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    same_names = files_a == files_b
    diff = [str(rel) for rel in files_a
            if (outs[0] / rel).read_bytes() != (outs[1] / rel).read_bytes()]
    ok = same_names and not diff
    report(10, ok, f"{len(files_a)} pipeline files byte-identical across reruns"
                   + (f"; differing: {diff}" if diff else ""))


def test_criterion_11_memos_day_performance():
    window = 25
    cfg = data.SimConfig(n_stations=50, n_days=window + 2, m=50, sigma=1.5,
                         tau_a=0.25, tau_b=8.0, alpha=2)
    table, _ = data.simulate(cfg, 9)
    day = table.dates[window]
    training = data.rolling_window(table, day, length=window, mode="global")
    t0 = time.time()
    msh = mesh_mod.build_mesh(table.xy, min_angle=20)
    draws = memos.sample_posterior(
        training, table.stations, table.xy, n=100, seed=4, mesh=msh,
        config=memos.McmcConfig(burn_in=1000, thin=5),
    )
    fbar = dict(zip(table.on(day).sites, table.on(day).fbar))
    sample = memos.predictive_sample(draws, fbar, m=50)
    elapsed = time.time() - t0
    ok = msh.n_vertices <= 300 and elapsed < 60.0 and sample.shape == (50, 5000)
    report(11, ok, f"mesh {msh.n_vertices} vertices (<= 300), fit+predict "
                   f"{elapsed:.1f}s (< 60s), sample shape {sample.shape}")
