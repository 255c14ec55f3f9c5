"""End-to-end tests of the command line pipeline."""

import csv
import datetime as dt
import json
import os
import re
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from oracles import crps_gaussian_mixture, midpoint_quantile_w1, mixture_means

from enspost import cli, data, ecc, emos, memos, verify

CONFIG = """\
seed = 11
sim_stations = 10
sim_days = 22
sim_m = 8
sim_sigma = 1.0
window = 12
min_train = 8
m = 8
n = 20
memos_burnin = 120
memos_thin = 2
eval_start = 2010-06-16
eval_days = 6
"""


def src_env(env):
    """`env` with the package's source root first on PYTHONPATH, so a child
    interpreter imports this checkout's enspost, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in env.get("PYTHONPATH", "")
                                                 .split(os.pathsep) if p])
    return env


def run_cli(config, out, *args):
    code = cli.main(["--config", str(config), "--out", str(out), *args])
    assert code == 0, f"command failed: {args}"


def read_scores(path):
    """scores.csv as a verify.ScoreSeries."""
    scores = verify.ScoreSeries()
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            scores.add(row["date"], row["site"], row["method"], row["score"],
                       float(row["value"]))
    return scores


def dm_of_scores(out, method_a, method_b, score="crps"):
    """The dm_<a>_<b>_<score>.csv row of `verify.dm_test` on the daily means
    that scores.csv holds for the two methods, paired by date."""
    scores = read_scores(out / "scores.csv")
    a, b = (dict(zip(*scores.daily_mean(method, score))) for method in (method_a, method_b))
    dates = sorted(a.keys() & b.keys())
    result = verify.dm_test([a[d] for d in dates], [b[d] for d in dates])
    return [method_a, method_b, score, repr(result.statistic), repr(result.pvalue),
            repr(result.mean_difference), str(len(dates))]


def read_dm(out, method_a, method_b, score="crps"):
    with open(out / f"dm_{method_a}_{method_b}_{score}.csv", newline="") as fh:
        return list(csv.reader(fh))[1]


def config_with(line):
    """CONFIG with `line` in place of the line of its key, or appended, and
    the number of that line."""
    text, found = re.subn(rf"^{line.split()[0]} = .*$", line, CONFIG, flags=re.M)
    text = text if found else CONFIG + line + "\n"
    return text, text.splitlines().index(line) + 1


def held(count, n=20):
    """The error of a draws file with `count` rows and a sidecar with n = `n`."""
    return f"{{path}} holds {count} draws, but {{sidecar}} has n = {n} (rerun `fit --method memos`)"


DRAWS_HEADER_ERROR = ("line 1: expected the header log_kappa_a,log_tau_a,log_kappa_b,log_tau_b,"
                      "log_sigma,sigma,a:<site>...,b:<site>... with each site once "
                      "(rerun `fit --method memos`?)")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    config = root / "run.cfg"
    config.write_text(CONFIG)
    out = root / "out"
    run_cli(config, out, "simulate")
    run_cli(config, out, "mesh")
    run_cli(config, out, "fit", "--method", "global")
    run_cli(config, out, "fit", "--method", "local")
    run_cli(config, out, "fit", "--method", "memos")
    run_cli(config, out, "predict", "--method", "global")
    run_cli(config, out, "predict", "--method", "local")
    run_cli(config, out, "predict", "--method", "memos")
    run_cli(config, out, "ecc", "--method", "raw")
    run_cli(config, out, "ecc", "--method", "memos")
    run_cli(config, out, "ecc", "--method", "memos", "--structure", "independence")
    run_cli(config, out, "verify", "--compare", "memos", "local",
            "--score", "crps", "--daily-mean")
    return config, out


class TestPipelineContract:
    def test_score_table_has_crps_row_per_day_station(self, pipeline):
        config, out = pipeline
        scores = read_scores(out / "scores.csv")
        rows = [(d, s) for d, s, m, sc, v in scores.rows()
                if m == "global" and sc == "crps"]
        assert len(rows) == 6 * 10  # eval_days * stations
        assert len(set(rows)) == len(rows)

    def test_all_methods_scored(self, pipeline):
        config, out = pipeline
        scores = read_scores(out / "scores.csv")
        for method in ("raw", "global", "local", "memos"):
            assert scores.mean(method, "crps") > 0
            assert scores.mean(method, "ae") >= 0

    def test_dm_output_written(self, pipeline):
        config, out = pipeline
        dm = (out / "dm_memos_local_crps.csv").read_text().splitlines()
        assert dm[0].startswith("method_a,method_b")
        fields = dm[1].split(",")
        assert fields[0] == "memos" and fields[1] == "local"
        assert 0.0 <= float(fields[4]) <= 1.0

    def test_dm_output_is_dm_test_on_the_daily_means(self, pipeline):
        config, out = pipeline
        assert read_dm(out, "memos", "local") == dm_of_scores(out, "memos", "local")
        assert read_dm(out, "memos", "local")[-1] == "6"

    def test_daily_means_pair_by_date(self, pipeline, tmp_path):
        """memos predicted for 06-16..21 and local, refitted from 06-17, for
        06-17..22: over seven days `--daily-mean` pairs the two series on
        their five common dates, not by position (which gave n = 6)."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        shifted, seven = tmp_path / "shifted.cfg", tmp_path / "seven.cfg"
        shifted.write_text(CONFIG.replace("eval_start = 2010-06-16", "eval_start = 2010-06-17"))
        seven.write_text(CONFIG.replace("eval_days = 6", "eval_days = 7"))
        for method in ("fit", "predict"):
            run_cli(shifted, out, method, "--method", "local")
        run_cli(seven, out, "verify", "--compare", "memos", "local", "--daily-mean")
        row = read_dm(out, "memos", "local")
        assert row == dm_of_scores(out, "memos", "local")
        assert row[-1] == "5"

    def test_verify_builds_each_sample_once(self, pipeline, tmp_path, monkeypatch):
        """`verify` builds the memos m-quantile sample once per evaluation
        day; its CRPS and both memos ens_* labels share it."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        build, calls = emos.quantile_sample, []

        def counted(mu, sigma, m):
            calls.append(len(mu))
            return build(mu, sigma, m)

        monkeypatch.setattr(emos, "quantile_sample", counted)
        run_cli(config, out, "verify")
        assert calls == [20] * 6  # n components of memos, on each of six days
        assert (out / "scores.csv").read_bytes() == (done / "scores.csv").read_bytes()

    def test_histograms_normalized(self, pipeline):
        config, out = pipeline
        for hist in out.glob("hist_*.csv"):
            rows = hist.read_text().splitlines()[1:]
            total = sum(float(r.split(",")[2]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_energy_scores_present_for_ensembles(self, pipeline):
        config, out = pipeline
        scores = read_scores(out / "scores.csv")
        assert scores.mean("raw_ecc", "es") > 0
        assert scores.mean("memos_ecc", "es") > 0
        assert scores.mean("memos_independence", "es") > 0

    def test_mesh_json_valid(self, pipeline):
        config, out = pipeline
        obj = json.loads((out / "mesh.json").read_text())
        assert len(obj["vertices"]) >= 10
        assert all(len(t) == 3 for t in obj["triangles"])

    def test_manifests_record_config_hash(self, pipeline):
        config, out = pipeline
        manifests = list(out.glob("manifest_*.json"))
        assert len(manifests) == 6  # one per distinct command
        hashes = {json.loads(m.read_text())["config_hash"] for m in manifests}
        assert len(hashes) == 1

    def test_predict_memos_rows_rebuild_the_predictive_sample(self, pipeline):
        """verify's memos components of a day are the n posterior draws at
        each site with a case, in draw order: mu = a + b·f̄ as the oracle
        folds it and sigma the draw's σ.  Their quantile sample is
        predictive_sample's, and no command writes a predict table."""
        config, out = pipeline
        assert list(out.glob("predict_*")) == []
        day = "2010-06-18"
        cases = data.load_cases(out / "cases.csv").on(dt.date.fromisoformat(day))
        draws = memos.PosteriorDraws.from_csv(out / "draws_memos" / f"{day}.csv")
        fit = cli._read_fit(out, "memos", {day: cases.sites})
        sites, mu, sigma = cli._predictive(fit[day], cases.fbar)
        assert sites == cases.sites == draws.sites
        assert mu.shape == sigma.shape == (draws.n, 10) == (20, 10)
        assert mu.tolist() == mixture_means(draws.a, draws.b, cases.members)
        assert sigma.tolist() == [[s] * 10 for s in draws.sigma.tolist()]
        rebuilt = emos.quantile_sample(mu, sigma, 8)
        expected = memos.predictive_sample(draws, dict(zip(cases.sites, cases.fbar)), 8)
        assert np.array_equal(rebuilt, expected)

    @pytest.mark.parametrize("method", ["global", "local"])
    def test_emos_predict_rows_are_the_fitted_gaussians(self, pipeline, method):
        """verify's components of global and local EMOS are one
        N(a + b·f̄, σ²) per (date, site) with a case, with the day's fitted
        (a, b, σ) from params_<method>.csv and the oracle's f̄."""
        config, out = pipeline
        with open(out / f"params_{method}.csv", newline="") as fh:
            fits = {(row["date"], row["site"]): row for row in csv.DictReader(fh)}
        # global EMOS has one row per day, at site ALL
        assert len(fits) == 6 * (1 if method == "global" else 10)
        table = data.load_cases(out / "cases.csv")
        days = cli._eval_days(cli.RunConfig.load(config), table.dates)
        fit = cli._read_fit(out, method, {day.isoformat(): table.on(day).sites for day in days})
        rows = 0
        for key, components in fit.items():
            cases = table.on(dt.date.fromisoformat(key))
            sites, mu, sigma = cli._predictive(components, cases.fbar)
            params = [fits[key, "ALL" if method == "global" else site] for site in sites]
            a, b, s = ([[float(p[name]) for p in params]] for name in ("a", "b", "sigma"))
            assert sites == cases.sites
            assert mu.tolist() == mixture_means(a, b, cases.members)
            assert sigma.tolist() == s
            rows += len(sites)
        assert rows == 6 * 10

    def test_fit_manifest_lists_the_draws_sidecars(self, pipeline):
        config, out = pipeline
        outputs = json.loads((out / "manifest_fit.json").read_text())["outputs"]
        days = [f"2010-06-{d}" for d in range(16, 22)]
        assert outputs == sorted(f"draws_memos/{d}.{ext}" for d in days
                                 for ext in ("csv", "json"))
        health = json.loads((out / "draws_memos" / f"{days[0]}.json").read_text())
        assert sorted(health) == ["acceptance", "acceptance_post", "final_step",
                                  "invalid_proposals", "n", "seed"]
        assert 0.0 <= health["acceptance_post"] <= 1.0
        assert health["n"] == 20
        # one row per draw: θ, σ, then a and b at the 10 stations
        with open(out / "draws_memos" / f"{days[0]}.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        sites = [f"S{k:02d}" for k in range(1, 11)]
        assert header == ["log_kappa_a", "log_tau_a", "log_kappa_b", "log_tau_b", "log_sigma",
                          "sigma", *(f"a:{s}" for s in sites), *(f"b:{s}" for s in sites)]
        assert len(rows) == 20

    def test_raw_ecc_equals_sorted_raw_reordered(self, pipeline):
        """The raw ensemble is invariant under the reordering."""
        config, out = pipeline
        table = data.load_cases(out / "cases.csv")
        seed = cli._read_ensembles(out, 8, 8)["raw_ecc"][2]
        for day in cli._eval_days(cli.RunConfig.load(config), table.dates):
            key, cases = day.isoformat(), table.on(day)
            sample = np.sort(cases.members, axis=1)
            assert np.array_equal(cli._reordered(key, "ecc", seed, cases.members, sample),
                                  cases.members)

    def test_ecc_artifact_rebuilds_the_ecc_output(self, pipeline):
        """Each ens_* file holds the header seed and the one seed ecc ran
        with, and the ensembles verify redraws from it equal ecc_memos and
        independence_shuffle run on the day's sample with the ecc streams."""
        config, out = pipeline
        seed = cli.RunConfig.load(config).seed
        table = data.load_cases(out / "cases.csv")
        days = [f"2010-06-{d}" for d in range(16, 22)]
        fit = cli._read_fit(out, "memos", {key: table.on(dt.date.fromisoformat(key)).sites
                                           for key in days})
        labels = ("memos_ecc", "memos_independence", "raw_ecc")
        ensembles = cli._read_ensembles(out, 8, 8)
        assert ensembles == {label: (*label.rsplit("_", 1), seed) for label in labels}
        for label in labels:
            method, structure = label.rsplit("_", 1)
            assert (out / f"ens_{label}.csv").read_bytes() == f"seed\n{seed}\n".encode()
            for key in days:
                cases = table.on(dt.date.fromisoformat(key))
                if method == "raw":
                    sites, pooled = cases.sites, np.sort(cases.members, axis=1)
                else:
                    sites, mu, sigma = cli._predictive(fit[key], cases.fbar)
                    pooled = emos.quantile_sample(mu, sigma, 8)
                if structure == "ecc":
                    rng = np.random.default_rng(cli.subseed(seed, "ecc-ties", key))
                    expected = ecc.ecc_memos(cases.members, pooled, rng)
                else:
                    rng = np.random.default_rng(cli.subseed(seed, "independence", key))
                    expected = ecc.independence_shuffle(pooled, rng)
                rebuilt = cli._reordered(key, structure, seed, cases.members, pooled)
                assert sorted(sites) == sites == cases.sites
                assert np.array_equal(rebuilt, expected)

    def test_verify_redraws_the_baseline_of_the_ecc_seed(self, pipeline, tmp_path):
        """`ecc --seed 3` then `verify --seed 4` scores the seed-3 ECC ties
        and the seed-3 independence shuffle: the seed travels in the rows."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        for structure in ("ecc", "independence"):
            run_cli(config, out, "--seed", "3", "ecc", "--method", "memos",
                    "--structure", structure)
        run_cli(config, out, "--seed", "4", "verify")
        table = data.load_cases(out / "cases.csv")
        days = cli._eval_days(cli.RunConfig.load(config), table.dates)
        fit = cli._read_fit(out, "memos", {day.isoformat(): table.on(day).sites for day in days})
        scores = list(read_scores(out / "scores.csv").rows())
        checked = 0
        for structure in ("ecc", "independence"):
            scored = {d: v for d, _, label, score, v in scores
                      if (label, score) == (f"memos_{structure}", "es")}
            for key, components in fit.items():
                cases = table.on(dt.date.fromisoformat(key))
                sites, mu, sigma = cli._predictive(components, cases.fbar)
                sample = emos.quantile_sample(mu, sigma, 8)
                assert sites == cases.sites
                stream = "ecc-ties" if structure == "ecc" else "independence"
                rng = np.random.default_rng(cli.subseed(3, stream, key))
                if structure == "ecc":
                    ens = ecc.ecc_memos(cases.members, sample, rng)
                else:
                    ens = ecc.independence_shuffle(sample, rng)
                ens = dict(zip(sites, ens))
                obs = dict(zip(cases.sites, cases.obs))
                sites = sorted(s for s in ens if not np.isnan(obs[s]))
                es = verify.energy_score(np.array([ens[s] for s in sites]).T,
                                         [obs[s] for s in sites])
                assert scored[key] == es
                checked += 1
        assert checked == 12


class TestMixtureCrpsOracle:
    def test_memos_crps_matches_the_closed_form_mixture_crps(self, tmp_path):
        """Each memos crps row of scores.csv is the sample CRPS of the grouped
        m-quantile sample of the day's mixture (1/n)Σ N(μᵢ, σᵢ²), built here
        from the draws and the raw members by the oracle's μᵢ = aᵢ + bᵢ·f̄;
        the closed form (Grimit et al. 2006) scores the mixture itself.
        Their gap is bounded by 2·W₁(sample, mixture): CRPS(F, y) =
        E|X − y| − ½E|X − X'|, and both |x − y| and |x − x'| are 1-Lipschitz
        in each argument, so under a W₁-optimal coupling the two terms move
        by at most W₁ and ½·2W₁.  Coupling each component to
        its own m quantiles gives W₁ ≤ (1/n)Σ σᵢ w_m, with w_m the W₁ distance
        of N(0, 1) from its m midpoint quantiles (`midpoint_quantile_w1`).
        So |gap| ≤ 2 w_m mean(σᵢ), plus float rounding.  The bound is not
        tight, so the run uses m = 50 (2 w_m = 0.060) rather than the
        module pipeline's m = 8 (2 w_m = 0.30)."""
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("\nm = 8\n", "\nm = 50\n"))
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        run_cli(config, out, "mesh")
        run_cli(config, out, "fit", "--method", "memos")
        run_cli(config, out, "predict", "--method", "memos")
        run_cli(config, out, "verify")
        table = data.load_cases(out / "cases.csv")
        components = {}  # {(date, site): (means, sigmas)}
        for day in cli._eval_days(cli.RunConfig.load(config), table.dates):
            key, cases = day.isoformat(), table.on(day)
            draws = memos.PosteriorDraws.from_csv(out / "draws_memos" / f"{key}.csv")
            assert draws.sites == cases.sites
            means = np.array(mixture_means(draws.a, draws.b, cases.members))
            for j, site in enumerate(cases.sites):
                components[key, site] = (means[:, j], draws.sigma)
        w_m = midpoint_quantile_w1(50)
        scores = read_scores(out / "scores.csv")
        rows = [(d, s, v) for d, s, m, sc, v in scores.rows()
                if m == "memos" and sc == "crps"]
        assert len(rows) == 6 * 10
        for date, site, value in rows:
            mu, sigma = components[(date, site)]
            cases = table.on(dt.date.fromisoformat(date))
            y = cases.obs[cases.sites.index(site)]
            exact = crps_gaussian_mixture(np.full(len(mu), 1.0 / len(mu)), mu, sigma, y)
            assert abs(value - exact) <= 2.0 * w_m * np.mean(sigma) + 1e-9, (date, site)


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("sim_days = 22", "sim_days = 16")
                          .replace("eval_days = 6", "eval_days = 2"))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(config, out, "simulate")
            run_cli(config, out, "mesh")
            run_cli(config, out, "fit", "--method", "memos")
            run_cli(config, out, "predict", "--method", "memos")
            run_cli(config, out, "ecc", "--method", "memos")
            run_cli(config, out, "verify")
            outs.append(out)
        files_a = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes(), rel

    def test_seed_beyond_32_bits_is_its_own(self, pipeline, tmp_path):
        """Every seed >= 0 drives streams of its own: --seed 2**32 + 1 draws
        other chains than --seed 1, where before the seed was taken modulo
        2**32.  Below 2**32 a stream is the seed and the crc32 of its keys,
        as it always was."""
        config, done = pipeline
        one_day = tmp_path / "run.cfg"
        one_day.write_text(config_with("eval_days = 1")[0])
        draws = []
        for seed in ("1", str(2**32 + 1)):
            out = tmp_path / seed
            shutil.copytree(done, out)
            shutil.rmtree(out / "draws_memos")
            run_cli(one_day, out, "--seed", seed, "fit", "--method", "memos")
            draws.append((out / "draws_memos" / "2010-06-16.csv").read_bytes())
        assert draws[0] != draws[1]
        for seed in (0, 1, 2**32 - 1):
            assert cli.subseed(seed, "memos-fit", "2010-06-16").entropy == [
                seed, zlib.crc32(b"memos-fit"), zlib.crc32(b"2010-06-16")]

    def test_seed_flag_changes_outputs(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        run_cli(config, out1, "simulate")
        code = cli.main(["--config", str(config), "--seed", "99",
                         "--out", str(out2), "simulate"])
        assert code == 0
        assert (out1 / "cases.csv").read_bytes() != (out2 / "cases.csv").read_bytes()


def corrupt_future_observations(src, dst, valid_date):
    """Copy src/cases.csv to dst with every observation on or after the
    valid date set to 9999.0."""
    dst.mkdir()
    lines = (src / "cases.csv").read_text().splitlines()
    header, rows = lines[0], lines[1:]
    cols = header.split(",")
    obs_idx = cols.index("obs")
    date_idx = cols.index("date")
    corrupted = []
    for row in rows:
        fields = row.split(",")
        if fields[date_idx] >= valid_date:
            fields[obs_idx] = "9999.0"
        corrupted.append(",".join(fields))
    (dst / "cases.csv").write_text("\n".join([header] + corrupted) + "\n")


class TestNoLookAhead:
    def test_fit_ignores_future_observations(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("eval_days = 6", "eval_days = 1"))
        out_clean = tmp_path / "clean"
        run_cli(config, out_clean, "simulate")
        run_cli(config, out_clean, "fit", "--method", "global")

        out_corrupt = tmp_path / "corrupt"
        corrupt_future_observations(out_clean, out_corrupt, "2010-06-16")
        run_cli(config, out_corrupt, "fit", "--method", "global")
        assert (out_clean / "params_global.csv").read_bytes() == (
            out_corrupt / "params_global.csv"
        ).read_bytes()

    def test_fit_memos_ignores_future_observations(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG.replace("eval_days = 6", "eval_days = 1"))
        out_clean = tmp_path / "clean"
        run_cli(config, out_clean, "simulate")
        out_corrupt = tmp_path / "corrupt"
        corrupt_future_observations(out_clean, out_corrupt, "2010-06-16")
        for out in (out_clean, out_corrupt):
            run_cli(config, out, "mesh")
            run_cli(config, out, "fit", "--method", "memos")
        for name in ("2010-06-16.csv", "2010-06-16.json"):
            assert (out_clean / "draws_memos" / name).read_bytes() == (
                out_corrupt / "draws_memos" / name
            ).read_bytes(), name


class TestBlasThreads:
    """The CLI pins OpenBLAS to one thread before numpy loads, unless the
    caller already chose a thread count."""

    @staticmethod
    def probe(env, code):
        proc = subprocess.run([sys.executable, "-c", "import os, enspost.cli\n" + code],
                              env=src_env(env), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_import_runs_one_thread(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads")
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        assert self.probe(env, "print(len(os.listdir('/proc/self/task')))") == "1"

    def test_caller_setting_wins(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        assert self.probe(env, "print(os.environ['OPENBLAS_NUM_THREADS'])") == "2"


# modules of the sparse, spatial and LAPACK stack that only mesh, the MEMOS
# commands and simulate need
SPARSE_STACK = ("scipy.sparse", "scipy.spatial", "scipy.linalg",
                "enspost.memos", "enspost.mesh", "enspost.spde")
# `predict` and `ecc` only check their inputs and write a manifest or a
# seed: they load no model module, and read their inputs on the standard
# library alone
CHECK_ABSENT = ("numpy", "scipy", "enspost.data", "enspost.ecc", "enspost.emos") + SPARSE_STACK
# `fit` builds no sample to reorder and no quantiles: only `verify` loads
# ecc, and `statistics` for Φ⁻¹
FIT_ABSENT = ("scipy", "enspost.ecc", "statistics") + SPARSE_STACK


class TestImports:
    def test_cli_leaves_scipy_optimize_unloaded(self):
        """No library module loads scipy.optimize: importing it costs every
        CLI process about 0.13 s of CPU."""
        probe = TestBlasThreads.probe(
            dict(os.environ), "import sys\nprint('scipy.optimize' in sys.modules)")
        assert probe == "False"

    def test_emos_and_verify_leave_scipy_unloaded(self):
        """Φ and Φ⁻¹ come from the standard library's math.erfc and
        statistics.NormalDist, so the EMOS fit, its quantiles, the PIT and
        the DM p-value load no scipy module."""
        probe = TestBlasThreads.probe(dict(os.environ), (
            "import sys, enspost.emos, enspost.verify\n"
            "print([name for name in sys.modules if name.split('.')[0] == 'scipy'])"))
        assert probe == "[]"

    def test_mesh_and_memos_leave_scipy_spatial_unloaded(self):
        """Only triangulation needs Qhull: `build_mesh` and
        `delaunay_triangulation` import it when they run, so the MEMOS fit,
        which reads mesh.json, skips the 0.17 s CPU of scipy.spatial."""
        probe = TestBlasThreads.probe(dict(os.environ), (
            "import sys, enspost.mesh, enspost.memos\n"
            "print([name for name in sys.modules if name.startswith('scipy.spatial')])"))
        assert probe == "[]"

    def test_mesh_leaves_data_unloaded(self):
        """`build_mesh` takes the stations as an (S, 2) km array, so the mesh
        module needs no case-table module."""
        probe = TestBlasThreads.probe(dict(os.environ), (
            "import sys, enspost.mesh\n"
            "print('enspost.data' in sys.modules)"))
        assert probe == "False"

    @pytest.mark.parametrize("args, drop, absent", [
        ((), "", ("numpy", "scipy", "enspost.data")),
        (("ecc", "--method", "raw"), "", CHECK_ABSENT),
        (("ecc", "--method", "global"), "", CHECK_ABSENT),
        (("ecc", "--method", "memos"), "", CHECK_ABSENT),
        (("ecc", "--method", "memos", "--structure", "independence"), "", CHECK_ABSENT),
        (("predict", "--method", "global"), "", CHECK_ABSENT),
        (("predict", "--method", "local"), "", CHECK_ABSENT),
        (("predict", "--method", "memos"), "", CHECK_ABSENT),
        (("fit", "--method", "global"), "", FIT_ABSENT),
        (("fit", "--method", "local"), "", FIT_ABSENT),
        (("fit", "--method", "memos"), "", ("scipy.spatial", "enspost.ecc", "statistics")),
        (("verify",), "", ("scipy",) + SPARSE_STACK),
        (("verify",), "ens_*", ("scipy",) + SPARSE_STACK),
    ], ids=["import", "ecc-raw", "ecc-global", "ecc-memos", "ecc-memos-independence",
            "predict-global", "predict-local", "predict-memos",
            "fit-global", "fit-local", "fit-memos", "verify", "verify-no-ens"])
    def test_command_loads_only_what_it_runs(self, pipeline, tmp_path, args, drop, absent):
        """A fresh interpreter that imports enspost.cli and runs one command
        through `main`, in a copy of the pipeline's output less the files
        matching `drop`, holds no module of the listed packages afterwards."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        for path in out.glob(drop) if drop else ():
            path.unlink()
        code = "import json, sys\n"
        if args:
            argv = ["--config", str(config), "--out", str(out), *args]
            code += f"assert enspost.cli.main({argv!r}) == 0\n"
        code += "print(json.dumps(sorted(sys.modules)))"
        modules = json.loads(TestBlasThreads.probe(dict(os.environ), code).splitlines()[-1])
        assert "enspost.cli" in modules
        assert [name for name in modules
                if name in absent or name.startswith(tuple(f"{a}." for a in absent))] == []


# keys that earlier configs accepted; their settings are now constants
REMOVED_KEYS = (
    "bins", "mesh_max_edge", "memos_vfix",
    "prior_logkappa_mean", "prior_logkappa_var", "prior_logtau_mean", "prior_logtau_var",
    "prior_precision_shape", "prior_precision_rate",
    "sim_kappa_a", "sim_tau_a", "sim_kappa_b", "sim_tau_b", "sim_a_mean", "sim_b_mean",
    "sim_alpha", "sim_field_mode", "sim_domain_km", "sim_start",
)


class TestConfigKeys:
    def test_docstring_lists_exactly_the_config_keys(self):
        listing = cli.__doc__.split("Config keys", 1)[1]
        keys = re.findall(r"(\w+) \(", listing)
        assert sorted(keys) == sorted(cli.CONFIG_KEYS)
        assert len(set(cli.CONFIG_KEYS)) == len(cli.CONFIG_KEYS)

    def test_the_cli_reads_exactly_the_config_keys(self):
        source = Path(cli.__file__).read_text()
        read = set(re.findall(r"\b(?:cfg|self|raw)\.(?:get|date)\(\s*\"(\w+)\"", source))
        assert read == set(cli.CONFIG_KEYS)

    @pytest.mark.parametrize("key", REMOVED_KEYS)
    def test_removed_key_is_unknown(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG + f"{key} = 1\n")
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        line = len(CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {config}:{line}: unknown key '{key}'\n"

    @pytest.mark.parametrize("line, message", [
        ("window = 12.5", "key 'window': invalid literal for int() with base 10: '12.5'"),
        ("eval_start = 2010-6-16", "key 'eval_start': Invalid isoformat string: '2010-6-16'"),
    ], ids=["int", "date"])
    def test_value_that_does_not_parse(self, tmp_path, capsys, line, message):
        """A value that fails its cast names the file, the line and the key."""
        text = re.sub(rf"^{line.split()[0]} = .*$", line, CONFIG, flags=re.M)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "global"])
        assert code == 1
        lineno = text.splitlines().index(line) + 1
        assert capsys.readouterr().err == f"error: {config}:{lineno}: {message}\n"


class TestErrors:
    @pytest.mark.parametrize("method, upstream, missing, hint", [
        ("global", [], "cases.csv", "simulate"),
        ("memos", ["simulate"], "mesh.json", "mesh"),
    ], ids=["global", "memos-no-mesh"])
    def test_missing_upstream_file(self, tmp_path, capsys, method, upstream, missing, hint):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        out = tmp_path / "out"
        out.mkdir()
        for command in upstream:
            run_cli(config, out, command)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "fit", "--method", method])
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: missing upstream file: {out / missing} (run `{hint}` first?)\n"

    @pytest.mark.parametrize("label, text, message", [
        ("memos_ecc", "date,seed\n2010-06-16,11\n",
         "ens_memos_ecc.csv line 1: expected the header seed (rerun `ecc`?)"),
        ("memos_independence", "seed\nx\n",
         "ens_memos_independence.csv line 2: seed must be an integer, got 'x'"),
        ("memos_ecc", "seed\n11\n11\n",
         "ens_memos_ecc.csv: expected one seed row, got 2 (rerun `ecc`?)"),
        ("memos_ecc", "seed\n",
         "ens_memos_ecc.csv: expected one seed row, got 0 (rerun `ecc`?)"),
        ("memos_ecc", "seed\n-1\n", "ens_memos_ecc.csv line 2: seed must be >= 0, got -1"),
    ], ids=["bad-header", "malformed-seed", "repeated-row", "day-without-rows",
            "negative-seed"])
    def test_bad_ecc_artifact(self, pipeline, tmp_path, capsys, label, text, message):
        """An ens_* file of an earlier version (one date,seed row per day), a
        bad seed cell, or other than one seed row ends `verify` with one line
        naming the file."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        (out / f"ens_{label}.csv").write_text(text)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "verify"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["ens_memos_ecc.bak.csv", "ens_raw_old.csv",
                                      "ens_memos_local_ecc.csv"])
    def test_stray_ens_file(self, pipeline, tmp_path, capsys, name):
        """A copy of an ens_* file under a name that is not
        ens_<method>_<structure>.csv ends `verify` with one line naming it,
        where before it was scored under a label of its own."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        shutil.copy(out / "ens_memos_ecc.csv", out / name)
        previous = (out / "scores.csv").read_bytes()
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "verify"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {name}: not an ens_<method>_<structure>.csv of `ecc`, with method "
            "raw/global/local/memos and structure ecc/independence\n")
        assert (out / "scores.csv").read_bytes() == previous

    @pytest.mark.parametrize("args, name, edit, message", [
        (("ecc", "--method", "local"), "params_local.csv", lambda row: row.rsplit(",", 1)[0],
         "params_local.csv line 4: expected 5 fields, got 4"),
        (("verify",), "params_local.csv", lambda row: row.rsplit(",", 1)[0],
         "params_local.csv line 4: expected 5 fields, got 4"),
        (("ecc", "--method", "local"), "params_local.csv",
         lambda row: ",".join(row.split(",")[:2] + ["x"] + row.split(",")[3:]),
         "params_local.csv line 4: could not convert string to float: 'x'"),
        (("verify",), "params_local.csv", lambda row: ",".join(row.split(",")[:4] + [""]),
         "params_local.csv line 4: could not convert string to float: ''"),
        (("ecc", "--method", "memos"), "draws_memos/2010-06-16.csv",
         lambda row: ",".join(row.split(",")[:5] + ["-0.5"] + row.split(",")[6:]),
         "{path} line 4: sigma must be > 0, got -0.5"),
        (("verify",), "draws_memos/2010-06-16.csv",
         lambda row: ",".join(row.split(",")[:5] + ["-0.5"] + row.split(",")[6:]),
         "{path} line 4: sigma must be > 0, got -0.5"),
        (("verify",), "params_global.csv", lambda row: ",".join(row.split(",")[:4] + ["0.0"]),
         "params_global.csv line 4: sigma must be finite and > 0, got 0.0"),
        (("ecc", "--method", "local"), "params_local.csv",
         lambda row: ",".join(row.split(",")[:2] + ["nan"] + row.split(",")[3:]),
         "params_local.csv line 4: a must be finite, got nan"),
    ], ids=["ecc-missing-sigma", "verify-missing-sigma", "ecc-bad-mu", "verify-empty-sigma",
            "ecc-negative-memos-sigma", "verify-negative-memos-sigma", "verify-zero-global-sigma",
            "ecc-nan-mu"])
    def test_malformed_predict_row(self, pipeline, tmp_path, capsys, args, name, edit, message):
        """A row of the fit that the predictive law is built from, a
        params_<method>.csv row or a draw, that is short, holds a cell that
        is not a number, a non-finite a or a sigma that is not finite and
        > 0 ends `ecc` and `verify` with one line naming the file and the
        line, as it ends `predict`."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / name
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("method, edit, message", [
        ("local", lambda rows: rows[:1] + rows[2:],
         "no fitted parameters for {date} station S01 in {path}"),
        ("global", lambda rows: rows[:1] + rows[2:], "no fitted parameters for {date} in {path}"),
        ("local", lambda rows: [row for row in rows if row[0] != rows[1][0]],
         "no fitted parameters for {date} in {path}"),
        ("local", lambda rows: rows[:3] + [rows[2]] + rows[3:],
         "params_local.csv line 4: repeated row for {date} site S02"),
        ("local", lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:],
         "params_local.csv line 2: expected 5 fields, got 4"),
        ("global", lambda rows: rows[:1] + [rows[1][:2] + [""] + rows[1][3:]] + rows[2:],
         "params_global.csv line 2: could not convert string to float: ''"),
        ("local", lambda rows: rows[:1] + [rows[1][:2] + ["x"] + rows[1][3:]] + rows[2:],
         "params_local.csv line 2: could not convert string to float: 'x'"),
        ("local", lambda rows: rows[:3] + [rows[3][:3] + ["inf"] + rows[3][4:]] + rows[4:],
         "params_local.csv line 4: b must be finite, got inf"),
        ("global", lambda rows: rows[:1] + [rows[1][:4] + ["nan"]] + rows[2:],
         "params_global.csv line 2: sigma must be finite and > 0, got nan"),
        ("local", lambda rows: rows[:2] + [rows[2][:4] + ["0.0"]] + rows[3:],
         "params_local.csv line 3: sigma must be finite and > 0, got 0.0"),
        ("global", lambda rows: [["date", "a", "b", "sigma"]] + rows[1:],
         "params_global.csv line 1: expected the header date,site,a,b,sigma "
         "(rerun `fit --method global`?)"),
    ], ids=["station-missing", "day-missing", "local-day-missing", "repeated-row",
            "local-key-missing", "global-key-missing", "non-numeric-a", "infinite-b",
            "nan-global-sigma", "zero-local-sigma", "wrong-header"])
    def test_incomplete_params(self, pipeline, tmp_path, capsys, method, edit, message):
        """params_<method>.csv without a row for one of the day's stations or
        for the whole day, with a repeated (date, site), a short row, a cell
        that is not a number, a non-finite a or b, a sigma that is not finite
        and > 0, or another header ends `predict` with one line naming the
        file, and the line or the date."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / f"params_{method}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        date = rows[1][0]
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", method])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message.format(date=date, path=path)}\n"

    def test_params_json_of_an_older_run(self, pipeline, tmp_path, capsys):
        """A run directory of an earlier version holds params_local.json,
        not the params_local.csv table: `predict` asks for `fit` again."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        (out / "params_local.csv").unlink()
        (out / "params_local.json").write_text(
            '{"2010-06-16":{"S01":{"a":0.5,"b":1.0,"sigma":1.5}}}\n')
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "local"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: missing upstream file: "
                                           f"{out / 'params_local.csv'} (run `fit` first?)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[0][:5] + ["sd"] + rows[0][6:]] + rows[1:], DRAWS_HEADER_ERROR),
        (lambda rows: [rows[0][:7] + ["a:S01"] + rows[0][8:17] + ["b:S01"] + rows[0][18:]]
         + rows[1:], DRAWS_HEADER_ERROR),
        (lambda rows: [rows[0][:16] + ["b:S11"] + rows[0][17:]] + rows[1:], DRAWS_HEADER_ERROR),
        (lambda rows: [["draw", "site", "a", "b", "sigma"]]
         + [["1", "S01", "0.5", "1.0", "2.0"]], DRAWS_HEADER_ERROR),
        (lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:], "line 2: expected 26 fields, got 25"),
        (lambda rows: rows[:1] + [rows[1][:7] + ["x"] + rows[1][8:]] + rows[2:],
         "line 2: could not convert string to float: 'x'"),
        (lambda rows: rows[:2] + [rows[2][:6] + ["nan"] + rows[2][7:]] + rows[3:],
         "line 3: a:S01 must be finite, got nan"),
        (lambda rows: rows[:2] + [rows[2][:-1] + ["-inf"]] + rows[3:],
         "line 3: b:S10 must be finite, got -inf"),
        (lambda rows: rows[:1] + [["inf"] + rows[1][1:]] + rows[2:],
         "line 2: log_kappa_a must be finite, got inf"),
        (lambda rows: rows[:1] + [rows[1][:5] + ["0.0"] + rows[1][6:]] + rows[2:],
         "line 2: sigma must be > 0, got 0.0"),
        (lambda rows: rows[:1] + [rows[1][:5] + ["-1.5"] + rows[1][6:]] + rows[2:],
         "line 2: sigma must be > 0, got -1.5"),
        (lambda rows: rows[:1] + [rows[1][:5] + ["inf"] + rows[1][6:]] + rows[2:],
         "line 2: sigma must be finite, got inf"),
    ], ids=["renamed-column", "site-listed-twice", "a-and-b-over-different-sites",
            "long-format", "short-row", "cell-not-a-number", "nan-a", "infinite-b",
            "infinite-theta", "zero-sigma", "negative-sigma", "infinite-sigma"])
    def test_malformed_draws_row(self, pipeline, tmp_path, capsys, edit, message):
        """A draws file whose header, row length or cell is bad ends `predict
        --method memos` with one error line that names the file and line.
        The header must list each site once, with a and b over the same
        sites, so a file of the older one-row-per-(draw, site) format fails
        there."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "draws_memos" / "2010-06-18.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path} {message}\n"

    @pytest.mark.parametrize("command", ["ecc", "verify"])
    def test_predict_header_not_the_schema(self, pipeline, tmp_path, capsys, command):
        """A params_<method>.csv header other than date,site,a,b,sigma ends
        `ecc` and `verify`, which read the fit, with one line naming the
        file and the command that writes it."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "params_local.csv"
        path.write_text(path.read_text().replace("date,site,a,b,sigma", "date,site,a,b", 1))
        capsys.readouterr()
        args = ["ecc", "--method", "local"] if command == "ecc" else ["verify"]
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == ("error: params_local.csv line 1: expected the header "
                                           "date,site,a,b,sigma (rerun `fit --method local`?)\n")

    def test_draws_sidecar_without_post_burn_in_acceptance(self, pipeline, tmp_path, capsys):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        sidecar = out / "draws_memos" / "2010-06-16.json"
        health = json.loads(sidecar.read_text())
        del health["acceptance_post"]
        sidecar.write_text(json.dumps(health))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {sidecar} has no 'acceptance_post' entry "
                                           "(rerun `fit --method memos`)\n")

    @pytest.mark.parametrize("edit, health, message", [
        (lambda rows: rows[:5] + rows[6:], {}, held(19)),
        (lambda rows: rows[:1] + rows[2:], {}, held(19)),
        (lambda rows: rows[:2] + rows[1:], {}, held(21)),
        (lambda rows: rows[:-1], {}, held(19)),
        (lambda rows: rows[:1], {}, held(0)),
        (lambda rows: rows + rows[-1:], {}, held(21)),
        (lambda rows: rows, {"n": 19}, held(20, n=19)),
        (lambda rows: [row[:6] + row[7:16] + row[17:] for row in rows], {},
         "{path}: site S01 has no columns"),
    ], ids=["deleted-row", "deleted-draw", "duplicated-row", "cut-at-a-draw-boundary",
            "no-draws", "draw-past-the-sidecar", "sidecar-n-one-less",
            "site-missing-from-every-draw"])
    def test_incomplete_draws_grid(self, pipeline, tmp_path, capsys, edit, health, message):
        """The draws file holds one row per draw, n of them by its sidecar,
        with columns for every station; otherwise `predict` ends with one
        error line, and leaves its previous manifest and no partial file."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "draws_memos" / "2010-06-16.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), **health}))
        previous = (out / "manifest_predict.json").read_bytes()
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {message.format(path=path, sidecar=sidecar)}"
                                           "\n")
        assert (out / "manifest_predict.json").read_bytes() == previous
        assert sorted(out.glob("*.tmp")) == []

    def test_failed_ecc_keeps_the_previous_table(self, pipeline, tmp_path, capsys):
        """`ecc` fails on a day without a fit, its draws file deleted; the
        previous ens_memos_ecc.csv stays as it was."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "draws_memos" / "2010-06-21.csv"
        path.unlink()
        previous = (out / "ens_memos_ecc.csv").read_bytes()
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "ecc", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: missing upstream file: {path} "
                                           "(run `fit` first?)\n")
        assert (out / "ens_memos_ecc.csv").read_bytes() == previous
        assert sorted(out.glob("*.tmp")) == []

    def test_ecc_m_not_the_member_count(self, pipeline, tmp_path, capsys):
        """ECC needs one quantile per raw member, so `ecc --structure ecc`
        with m other than the member count of cases.csv stops before it
        writes, though it builds no sample, and so does `verify` on an
        ens_*_ecc.csv file."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        other = tmp_path / "m5.cfg"
        other.write_text(CONFIG.replace("\nm = 8\n", "\nm = 5\n"))
        previous = (out / "ens_memos_ecc.csv").read_bytes()
        capsys.readouterr()
        for args in (("ecc", "--method", "memos"), ("verify",)):
            code = cli.main(["--config", str(other), "--out", str(out), *args])
            assert code == 1
            assert capsys.readouterr().err == ("error: ECC reorders m = 5 quantiles by the ranks "
                                               "of 8 raw members; set m = 8 in the config\n")
        assert (out / "ens_memos_ecc.csv").read_bytes() == previous

    @pytest.mark.parametrize("line, message", [
        ("memos_burnin = -5", "key 'memos_burnin' must be >= 0, got -5"),
        ("memos_thin = 0", "key 'memos_thin' must be >= 1, got 0"),
        ("n = 0", "key 'n' must be >= 1, got 0"),
        ("memos_alpha = 3", "key 'memos_alpha' must be 1 or 2, got 3"),
    ], ids=["negative-burn-in", "zero-thin", "no-draws", "alpha-not-1-or-2"])
    def test_chain_setting_out_of_range(self, pipeline, tmp_path, capsys, line, message):
        """A burn-in below 0, a thinning below 1, n below 1 or an alpha
        other than 1 or 2 ends `fit --method memos` before the chain runs,
        with no draws written; otherwise the draws would hold uninitialised
        memory, or the first day would fail with an error naming no key."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        shutil.rmtree(out / "draws_memos")
        text, lineno = config_with(line)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}:{lineno}: {message}\n"
        assert not (out / "draws_memos").exists()

    @pytest.mark.parametrize("line, commands", [
        ("eval_days = 0", ("fit", "predict", "ecc", "verify")),
        ("window = 0", ("fit", "predict", "ecc", "verify")),
        ("m = 0", ("ecc", "verify")),
        ("min_train = 0", ("fit",)),
    ], ids=["no-evaluation-days", "empty-window", "no-quantiles", "no-training-cases"])
    def test_day_setting_below_one(self, pipeline, tmp_path, capsys, line, commands):
        """eval_days, window or m below 1 ends every command that reads it
        with one line naming the key.  Before, at eval_days = 0 `predict`,
        `ecc` and `verify` ran no day and exited 0, and m = 0 ended `verify`
        with an error that named no key."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        key, value = line.split(" = ")
        text, lineno = config_with(line)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        capsys.readouterr()
        for command in commands:
            args = (command,) if command == "verify" else (command, "--method", "memos")
            assert cli.main(["--config", str(config), "--out", str(out), *args]) == 1
            assert capsys.readouterr().err == (f"error: {config}:{lineno}: key {key!r} must be "
                                               f">= 1, got {value}\n")

    @pytest.mark.parametrize("args, kept", [
        (("fit", "--method", "global"), "params_global.csv"),
        (("predict", "--method", "memos"), "manifest_predict.json"),
        (("ecc", "--method", "memos"), "ens_memos_ecc.csv"),
        (("verify",), "scores.csv"),
    ], ids=["fit", "predict", "ecc", "verify"])
    def test_no_evaluation_day(self, pipeline, tmp_path, capsys, args, kept):
        """An eval_start after the last date ends every command with one
        line and leaves its previous output as it was.  Before, only `fit`
        failed: `predict` and `verify` wrote header-only tables and `ecc` a
        seed, each exiting 0."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        config = tmp_path / "run.cfg"
        config.write_text(config_with("eval_start = 2011-01-01")[0])
        previous = (out / kept).read_bytes()
        capsys.readouterr()
        assert cli.main(["--config", str(config), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == "error: no evaluation days fall inside the dataset\n"
        assert (out / kept).read_bytes() == previous

    @pytest.mark.parametrize("day, other", [("2010-06-21", "2010-06-16"),
                                            ("2010-06-16", "2010-06-17")],
                             ids=["later-day-smaller", "first-day-smaller"])
    def test_component_count_that_changes_between_days(self, pipeline, tmp_path, capsys,
                                                       day, other):
        """A draws file with one draw fewer than the other days, its
        sidecar's n with it, ends `predict`, `ecc` and `verify` with one line
        naming a file of each count, and so both dates, and leaves
        scores.csv as it was.  Before, `verify` failed with a rank outside
        1..rank_max, or binned the later days' ranks under the first day's
        rank_max."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "draws_memos" / f"{day}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows[:-1])
        sidecar = path.with_suffix(".json")
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": 19}))
        first, later = sorted([(path, 19), (path.with_name(f"{other}.csv"), 20)])
        message = (f"error: {later[0]} holds {later[1]} draws, but {first[0]} holds {first[1]} "
                   "(rerun `fit --method memos`)\n")
        previous = (out / "scores.csv").read_bytes()
        capsys.readouterr()
        for args in (("predict", "--method", "memos"), ("ecc", "--method", "memos"), ("verify",)):
            assert cli.main(["--config", str(config), "--out", str(out), *args]) == 1
            assert capsys.readouterr().err == message
        assert (out / "scores.csv").read_bytes() == previous

    @pytest.mark.parametrize("args", [("predict", "--method", "local"),
                                      ("ecc", "--method", "local"), ("verify",)],
                             ids=["predict", "ecc", "verify"])
    def test_station_without_a_fit(self, pipeline, tmp_path, capsys, args):
        """params_local.csv without one station's row on one day ends
        `predict`, `ecc` and `verify`, which all read the fit, with one line
        naming the file, the date and the station."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "params_local.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(row for row in lines if not row.startswith("2010-06-18,S03,"))
                        + "\n")
        capsys.readouterr()
        assert cli.main(["--config", str(config), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == ("error: no fitted parameters for 2010-06-18 station "
                                           f"S03 in {path}\n")

    def test_draw_count_that_changes_between_days(self, pipeline, tmp_path, capsys):
        """`fit --method memos` rerun at n = 10 over the first three days
        leaves draws files with 10 draws there and 20 on the later days;
        `predict --method memos` then ends with one line naming a file of
        each count and keeps its previous manifest.  Before, it wrote a
        table of 10 and 20 components per site and exited 0."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        short = tmp_path / "short.cfg"
        short.write_text(CONFIG.replace("\nn = 20\n", "\nn = 10\n")
                         .replace("\neval_days = 6\n", "\neval_days = 3\n"))
        run_cli(short, out, "fit", "--method", "memos")
        previous = (out / "manifest_predict.json").read_bytes()
        capsys.readouterr()
        assert cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"]) == 1
        draws = out / "draws_memos"
        assert capsys.readouterr().err == (
            f"error: {draws / '2010-06-19.csv'} holds 20 draws, but {draws / '2010-06-16.csv'} "
            "holds 10 (rerun `fit --method memos`)\n")
        assert (out / "manifest_predict.json").read_bytes() == previous
        assert sorted(out.glob("*.tmp")) == []

    @pytest.mark.parametrize("args", [("simulate",), ("fit", "--method", "memos")],
                             ids=["simulate", "fit-memos"])
    def test_negative_seed(self, pipeline, tmp_path, capsys, args):
        """A seed below 0 in the config or in --seed is one line naming the
        key or flag.  Before, `simulate` ended with `expected non-negative
        integer`, and `fit --method memos` ran on the seed modulo 2**32."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        text, lineno = config_with("seed = -1")
        negative = tmp_path / "run.cfg"
        negative.write_text(text)
        capsys.readouterr()
        assert cli.main(["--config", str(negative), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == (f"error: {negative}:{lineno}: key 'seed' must be "
                                           ">= 0, got -1\n")
        assert cli.main(["--config", str(config), "--out", str(out), "--seed", "-1", *args]) == 1
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
        assert (out / "cases.csv").read_bytes() == (done / "cases.csv").read_bytes()

    @pytest.mark.parametrize("line, commands, message", [
        ("sim_stations = 2", ("simulate",), "must be >= 3, got 2"),
        ("sim_days = 0", ("simulate",), "must be >= 1, got 0"),
        ("sim_m = 0", ("simulate",), "must be >= 1, got 0"),
        ("sim_sigma = -1", ("simulate",), "must be >= 0, got -1.0"),
        ("mesh_min_angle = 40", ("simulate", "mesh"), "must lie in (0, 34], got 40.0"),
        ("mesh_min_angle = 0", ("simulate", "mesh"), "must lie in (0, 34], got 0.0"),
    ], ids=["two-stations", "no-days", "no-members", "negative-sigma", "angle-above-34",
            "zero-angle"])
    def test_data_setting_out_of_range(self, pipeline, tmp_path, capsys, line, commands,
                                       message):
        """A simulated data set or mesh setting out of its range ends every
        command that reads it with one line naming the key, and leaves
        cases.csv and mesh.json as they were.  Before, the error named no
        file, line or key."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        key = line.split(" = ")[0]
        text, lineno = config_with(line)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        previous = [(out / name).read_bytes() for name in ("cases.csv", "mesh.json")]
        capsys.readouterr()
        for command in commands:
            assert cli.main(["--config", str(config), "--out", str(out), command]) == 1
            assert capsys.readouterr().err == f"error: {config}:{lineno}: key {key!r} {message}\n"
        assert [(out / name).read_bytes() for name in ("cases.csv", "mesh.json")] == previous

    def test_predicted_site_without_a_case(self, pipeline, tmp_path, capsys):
        """A station with a fit but no case on a date has no forecast there:
        the components are built for the day's stations with a case, so
        after deleting the 2010-06-18 S01 case `ecc` and `verify` run and
        score memos at the day's other observed stations.  Before,
        `ecc --structure ecc` ended on predict_memos.csv rows of S01."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        date = "2010-06-18"
        path = out / "cases.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(row for row in lines if not row.startswith(f"{date},S01,"))
                        + "\n")
        for structure in ("ecc", "independence"):
            run_cli(config, out, "ecc", "--method", "memos", "--structure", structure)
        run_cli(config, out, "verify")
        rows = list(read_scores(out / "scores.csv").rows())
        scored = sorted(s for d, s, m, sc, _ in rows if (d, m, sc) == (date, "memos", "crps"))
        cases = data.load_cases(path).on(dt.date.fromisoformat(date))
        assert "S01" not in cases.sites
        assert scored == [s for s, y in zip(cases.sites, cases.obs) if not np.isnan(y)]
        assert {m for d, _, m, sc, _ in rows if (d, sc) == (date, "es")} == {
            "raw_ecc", "memos_ecc", "memos_independence"}

    @pytest.mark.parametrize("name, args, rerun", [
        ("mesh.json", ("fit", "--method", "memos"), "mesh"),
        ("draws_memos/2010-06-16.json", ("predict", "--method", "memos"), "fit --method memos"),
    ], ids=["mesh", "draws-sidecar"])
    def test_json_that_does_not_parse(self, pipeline, tmp_path, capsys, name, args, rerun):
        """A truncated JSON artifact ends the command with one line naming
        the file and the command that writes it."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / name
        path.write_text(path.read_text()[:9] + "\t")
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert err.endswith(f" (rerun `{rerun}`?)\n")

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj.pop("triangles"), "no 'triangles' entry"),
        (lambda obj: obj["triangles"][0].__setitem__(1, len(obj["vertices"])),
         "triangles must hold vertex indices 0..{last}"),
        (lambda obj: obj["triangles"][0].__setitem__(1, 1.5),
         "triangles must hold vertex indices 0..{last}"),
        (lambda obj: obj.update(vertices=[[0.0, 1.0], [2.0]]),
         "vertices must be a nonempty list of 2 finite numbers each"),
        (lambda obj: obj.update(vertices={}),
         "vertices must be a nonempty list of 2 finite numbers each"),
    ], ids=["no-triangles", "index-past-the-vertices", "fractional-index", "ragged-vertices",
            "vertices-a-mapping"])
    def test_badly_shaped_mesh(self, pipeline, tmp_path, capsys, edit, message):
        """mesh.json without its keys, with entries of the wrong shape or
        with a triangle index that is not a vertex ends `fit --method memos`
        with one line, not a traceback."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "mesh.json"
        obj = json.loads(path.read_text())
        last = len(obj["vertices"]) - 1
        edit(obj)
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {path}: {message.format(last=last)} "
                                           "(rerun `mesh`?)\n")

    def test_mesh_json_not_an_object(self, pipeline, tmp_path, capsys):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "mesh.json"
        path.write_text(json.dumps([json.loads(path.read_text())]))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {path}: expected a JSON object, got list "
                                           "(rerun `mesh`?)\n")

    def test_mesh_not_covering_a_station(self, pipeline, tmp_path, capsys):
        """A mesh.json whose hull leaves out a station ends `fit --method
        memos` before the first chain with one line naming the file and the
        first such station, not the projector's row indices."""
        from scipy.spatial import Delaunay

        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        shutil.rmtree(out / "draws_memos")
        path = out / "mesh.json"
        obj = json.loads(path.read_text())
        obj["vertices"] = [[0.5 * x, 0.5 * y] for x, y in obj["vertices"]]
        path.write_text(json.dumps(obj))
        table = data.load_cases(out / "cases.csv")
        outside = Delaunay(np.array(obj["vertices"])).find_simplex(table.xy) < 0
        assert outside.any()
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "memos"])
        assert code == 1
        station = table.stations[int(np.flatnonzero(outside)[0])]
        assert capsys.readouterr().err == (f"error: {path} does not cover station {station} "
                                           "(rerun `mesh`?)\n")
        assert not (out / "draws_memos").exists()

    @pytest.mark.parametrize("args", [("predict", "--method", "memos"),
                                      ("ecc", "--method", "memos"), ("verify",)],
                             ids=["predict", "ecc", "verify"])
    def test_draws_without_draws(self, pipeline, tmp_path, capsys, args):
        """Draws files cut to their header, with n = 0 in each sidecar, end
        `predict`, `ecc` and `verify` with one line naming the first file,
        where `verify` ended on a broadcast error naming none."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        for path in sorted((out / "draws_memos").glob("*.csv")):
            path.write_text(path.read_text().splitlines()[0] + "\n")
            sidecar = path.with_suffix(".json")
            sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "n": 0}))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'draws_memos' / '2010-06-16.csv'} holds no draws "
            "(rerun `fit --method memos`)\n")

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("date,station,lon,lat,obs,m1,m9\n2010-06-01,A,0.0,0.0,1.0,1.0,2.0\n",
         "line 1: member columns must be numbered 1..K without gaps"),
        ("date,station,lon,lat,obs,m1,m2\n", "line 1: no cases"),
    ], ids=["empty-file", "member-gap", "header-only"])
    def test_case_file_without_cases(self, tmp_path, capsys, text, message):
        """A case file that is empty, numbers its members with a gap or
        holds only its header ends `ecc`, which reads it on the standard
        library, and `fit`, which builds the case table, with one line naming
        the file."""
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        path = tmp_path / "cases.csv"
        path.write_text(text)
        for args in (("ecc", "--method", "raw"), ("fit", "--method", "global")):
            capsys.readouterr()
            assert cli.main(["--config", str(config), "--out", str(tmp_path), *args]) == 1
            assert capsys.readouterr().err == f"error: {path} {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda health: [health], "{sidecar} must hold a JSON object, got list"),
        (lambda health: {k: v for k, v in health.items() if k != "n"},
         "{sidecar} has no 'n' entry"),
        (lambda health: {**health, "n": "20"},
         "{path} holds 20 draws, but {sidecar} has n = '20'"),
    ], ids=["a-list", "no-n", "n-a-string"])
    def test_badly_shaped_draws_sidecar(self, pipeline, tmp_path, capsys, edit, message):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        sidecar = out / "draws_memos" / "2010-06-16.json"
        sidecar.write_text(json.dumps(edit(json.loads(sidecar.read_text()))))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {message.format(sidecar=sidecar, path=sidecar.with_suffix('.csv'))} "
            "(rerun `fit --method memos`)\n")

    @pytest.mark.parametrize("drop, args, message", [
        (("draws_memos", "ens_memos_*.csv"), ("memos", "local", "--daily-mean"),
         "no crps scores for memos; methods with crps scores: global, local, raw"),
        (("draws_memos", "ens_memos_*.csv"), ("memos", "local"),
         "no crps scores for memos; methods with crps scores: global, local, raw"),
        ((), ("local", "raw", "--score", "es", "--daily-mean"),
         "no es scores for local; methods with es scores: memos_ecc, memos_independence, "
         "raw_ecc"),
    ], ids=["no-memos-daily-mean", "no-memos", "es-of-a-univariate-method"])
    def test_compare_method_without_the_score(self, pipeline, tmp_path, capsys, drop, args,
                                              message):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        for pattern in drop:
            for path in out.glob(pattern):
                shutil.rmtree(path) if path.is_dir() else path.unlink()
        previous = {path.name: path.read_bytes() for path in out.glob("*.csv")}
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "verify", "--compare", *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: --compare: {message}\n"
        # the error comes before verify writes anything
        assert {path.name: path.read_bytes() for path in out.glob("*.csv")} == previous

    def test_compare_lag_beyond_the_series_leaves_outputs(self, pipeline, tmp_path, capsys):
        """`dm_test` rejects the lag before verify writes scores.csv or any
        histogram; the message names the option and the series length."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        kept = ("scores.csv", "hist_raw.csv")
        previous = {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns)
                    for name in kept}
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "verify",
                         "--compare", "memos", "local", "--lag", "100"])
        assert code == 1
        assert capsys.readouterr().err == ("error: --compare memos local on crps, --lag 100: "
                                           "lag must satisfy 0 <= lag < n = 60\n")
        assert {name: ((out / name).read_bytes(), (out / name).stat().st_mtime_ns)
                for name in kept} == previous

    def test_missing_config(self, tmp_path):
        code = cli.main(["--config", str(tmp_path / "nope.cfg"), "--out",
                         str(tmp_path), "simulate"])
        assert code == 1

    def test_bad_config_line(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a key value pair\n")
        code = cli.main(["--config", str(config), "--out", str(tmp_path), "simulate"])
        assert code == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG + "sim_station = 5\n")
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        line = len(CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == f"error: {config}:{line}: unknown key 'sim_station'\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG + "seed = 2\n")
        code = cli.main(["--config", str(config), "--out", str(tmp_path / "out"), "simulate"])
        assert code == 1
        line = len(CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == (
            f"error: {config}:{line}: key 'seed' already set on line 1\n")
        assert not (tmp_path / "out").exists()

    def test_failed_chain_is_one_line_naming_the_day(self, tmp_path, monkeypatch, capsys):
        from enspost import memos

        def fail(*args, **kwargs):
            raise memos.McmcError("acceptance collapsed")

        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        run_cli(config, out, "mesh")
        monkeypatch.setattr(memos, "sample_posterior", fail)
        code = cli.main(["--config", str(config), "--out", str(out),
                         "fit", "--method", "memos"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: fit memos 2010-06-16: acceptance collapsed\n"

    def test_chain_start_that_cannot_be_evaluated(self, pipeline, tmp_path, capsys):
        """Observations scaled by 1e152 put the chain's start at σ ≈ 1e152,
        whose noise precision underflows in the posterior factor: one line
        naming the day, the state and the cause, not a FloatingPointError
        traceback."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "cases.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[4] = row[4] and repr(float(row[4]) * 1e152)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", "memos"])
        err = capsys.readouterr().err
        assert code == 1
        assert re.fullmatch(r"error: fit memos 2010-06-16: the chain's initial state "
                            r"\[-0\.082, -0\.878, -0\.082, -0\.878, 350\.\d+\] cannot be "
                            r"evaluated \(FloatingPointError: underflow [^\n]*\)\n", err), err

    def test_window_whose_squares_overflow(self, tmp_path):
        """At the default window of 25 days, 12 stations of observations
        scaled by 1e152 square to more than the largest float: `fit --method
        memos` prints the one error line naming the day, and no numpy
        RuntimeWarning before it."""
        config = tmp_path / "run.cfg"
        config.write_text("seed = 11\nsim_stations = 12\nsim_days = 30\nsim_m = 10\nm = 10\n"
                          "n = 5\nmemos_burnin = 20\n")
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        run_cli(config, out, "mesh")
        path = out / "cases.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            row[4] = row[4] and repr(float(row[4]) * 1e152)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        proc = subprocess.run(
            [sys.executable, "-m", "enspost.cli", "--config", str(config), "--out", str(out),
             "fit", "--method", "memos"],
            env=src_env(dict(os.environ)), capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ("error: fit memos 2010-06-26: the squares of the training "
                               "window's 300 observations sum past the largest float\n")

    @pytest.mark.parametrize("args, message", [
        (("mesh",), "error: refinement stalled\n"),
        (("fit", "--method", "global"), "error: fit global 2010-06-16: did not converge\n"),
    ], ids=["mesh", "fit-global"])
    def test_model_error_is_one_line(self, tmp_path, monkeypatch, capsys, args, message):
        """A MeshRefinementError or a FitError reaches `main` as a
        files.ModelError: one line, exit 1."""
        from enspost import mesh

        def mesh_fails(*args, **kwargs):
            raise mesh.MeshRefinementError("refinement stalled")

        def fit_fails(*args, **kwargs):
            raise emos.FitError("did not converge")

        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        monkeypatch.setattr(mesh, "build_mesh", mesh_fails)
        monkeypatch.setattr(emos, "fit_global", fit_fails)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == message

    @staticmethod
    def fit_local_error(tmp_path, capsys, edit_cases=None):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        out = tmp_path / "out"
        run_cli(config, out, "simulate")
        if edit_cases is not None:
            path = out / "cases.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(edit_cases(row) for row in rows)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "fit", "--method", "local"])
        assert code == 1
        return capsys.readouterr().err

    def test_station_with_too_few_observed_days(self, tmp_path, capsys):
        """S03 keeps its observations on 2010-06-01..07 only: 7 training
        cases before the first evaluation day, one short of min_train."""
        def drop_obs(row):
            if row["station"] == "S03" and row["date"] > "2010-06-07":
                row["obs"] = ""
            return row

        err = self.fit_local_error(tmp_path, capsys, drop_obs)
        assert err == ("error: fit local 2010-06-16 station S03: insufficient training data: "
                       "7 cases before 2010-06-16 (minimum 8)\n")

    @pytest.mark.parametrize("method, settings, message", [
        ("global", "window = 1\nmin_train = 1\n", "need at least 2 training cases"),
        ("memos", "window = 1\nmin_train = 2\n",
         "insufficient training data: 1 cases before 2010-06-16 (minimum 2)"),
    ], ids=["global-one-case", "memos-window-below-min-train"])
    def test_training_window_too_small(self, pipeline, tmp_path, capsys, method, settings,
                                       message):
        """A training window too small for the fit names the method and the
        date, as `fit local` does: 2010-06-15 keeps one observed case for the
        one-day window of 2010-06-16."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "cases.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            if row[0] == "2010-06-15" and row[1] != "S01":
                row[4] = ""
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        config = tmp_path / "run.cfg"
        config.write_text(re.sub(r"^(window|min_train) = .*\n", "", CONFIG, flags=re.M)
                          + settings)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "fit", "--method", method])
        assert code == 1
        assert capsys.readouterr().err == f"error: fit {method} 2010-06-16: {message}\n"

    def test_non_converging_station(self, tmp_path, capsys, monkeypatch):
        from enspost import emos

        monkeypatch.setattr(emos, "MAX_NEWTON_ITER", 1)
        err = self.fit_local_error(tmp_path, capsys)
        assert err == ("error: fit local 2010-06-16 station S01: minimum-CRPS Newton solver "
                       "stopped at its iteration cap (1) before converging\n")

    def test_console_entry_point(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "enspost.cli", "--config", str(config),
             "--out", str(tmp_path / "o"), "simulate"],
            env=src_env(dict(os.environ)), capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "simulate:" in proc.stdout


class TestHarnessContract:
    """perfbench/traced.py wraps library functions by name and builds the
    `--spde` problem from `RunConfig`, `memos` and `spde`; each of its two
    forms must keep running on a finished pipeline."""

    TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"

    def test_fit_memos_passes_n_and_config_by_keyword(self, pipeline, tmp_path, monkeypatch):
        """traced.py counts each chain's target evaluations from
        kwargs["n"] and kwargs["config"] of the `memos.sample_posterior`
        calls that `fit --method memos` makes."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        calls, sample_posterior = [], memos.sample_posterior

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return sample_posterior(*args, **kwargs)

        monkeypatch.setattr(memos, "sample_posterior", recorded)
        run_cli(config, out, "fit", "--method", "memos")
        assert len(calls) == 6
        for kwargs in calls:
            assert kwargs["n"] == 20
            assert kwargs["config"] == memos.McmcConfig(burn_in=120, thin=2)

    @pytest.mark.parametrize("form, span", [("cli", "cli.ecc"), ("spde", "spde.factor")])
    def test_traced_form_runs(self, pipeline, tmp_path, form, span):
        """The cli form also runs `predict --method memos`, which reads
        cases.csv and the draws through `files` on the standard library."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        spans = tmp_path / "spans.jsonl"
        cli_args = ["--", "--config", str(config), "--out", str(out)]
        if form == "cli":
            runs = [[str(spans), "t1", *cli_args, "ecc", "--method", "raw"],
                    [str(spans), "t1", *cli_args, "predict", "--method", "memos"]]
            expected = {span, "cli.predict"}
        else:
            runs = [["--spde", str(spans), "t1", str(out), str(config)]]
            expected = {span}
        for args in runs:
            proc = subprocess.run([sys.executable, str(self.TRACED), *args],
                                  env=src_env(dict(os.environ)), capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
        names = {json.loads(line)["name"] for line in spans.read_text().splitlines()}
        assert expected <= names
