"""End-to-end tests of the command line pipeline."""

import csv
import datetime as dt
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import crps_gaussian_mixture, midpoint_quantile_w1

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
        scores = verify.ScoreSeries.from_csv(out / "scores.csv")
        rows = [(d, s) for d, s, m, sc, v in scores.rows()
                if m == "global" and sc == "crps"]
        assert len(rows) == 6 * 10  # eval_days * stations
        assert len(set(rows)) == len(rows)

    def test_all_methods_scored(self, pipeline):
        config, out = pipeline
        scores = verify.ScoreSeries.from_csv(out / "scores.csv")
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

    def test_histograms_normalized(self, pipeline):
        config, out = pipeline
        for hist in out.glob("hist_*.csv"):
            rows = hist.read_text().splitlines()[1:]
            total = sum(float(r.split(",")[2]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_energy_scores_present_for_ensembles(self, pipeline):
        config, out = pipeline
        scores = verify.ScoreSeries.from_csv(out / "scores.csv")
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
        """predict_memos.csv holds the n mixture components of each site with
        a case, in draw order; their quantile sample is predictive_sample's."""
        config, out = pipeline
        assert not (out / "predict_memos").exists()
        day = "2010-06-18"
        components = {}
        with open(out / "predict_memos.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                if row["date"] == day:
                    components.setdefault(row["site"], []).append(
                        (float(row["mu"]), float(row["sigma"])))
        cases = data.load_cases(out / "cases.csv").on(dt.date.fromisoformat(day))
        draws = memos.PosteriorDraws.from_csv(out / "draws_memos" / f"{day}.csv")
        sites = sorted(components)
        assert sites == sorted(cases) == draws.sites
        assert all(len(rows) == draws.n == 20 for rows in components.values())
        mu, sigma = (np.array([[c[k] for c in components[s]] for s in sites]).T
                     for k in (0, 1))
        rebuilt = emos.quantile_sample(sites, mu, sigma, 8)
        expected = memos.predictive_sample(draws, {s: cases[s].fbar for s in sites}, 8)
        assert np.array_equal(rebuilt.values, expected.values)

    def test_fit_manifest_lists_the_draws_sidecars(self, pipeline):
        config, out = pipeline
        outputs = json.loads((out / "manifest_fit.json").read_text())["outputs"]
        days = [f"2010-06-{d}" for d in range(16, 22)]
        assert outputs == sorted(f"draws_memos/{d}.{ext}" for d in days
                                 for ext in ("csv", "json"))
        health = json.loads((out / "draws_memos" / f"{days[0]}.json").read_text())
        assert sorted(health) == ["acceptance", "acceptance_post", "final_step",
                                  "invalid_proposals", "seed", "theta"]
        assert 0.0 <= health["acceptance_post"] <= 1.0
        assert np.shape(health["theta"]) == (20, 5)

    def test_raw_ecc_equals_sorted_raw_reordered(self, pipeline):
        """The raw ensemble is invariant under the reordering."""
        import csv as csv_mod

        config, out = pipeline
        table = data.load_cases(out / "cases.csv")
        by_key = {(date, site): list(values)
                  for date, by_site in cli._load_ensembles(out, "raw_ecc", table, {}, 8).items()
                  for site, values in by_site.items()}
        cases = {}
        with open(out / "cases.csv", newline="") as fh:
            for row in csv_mod.DictReader(fh):
                cases[(row["date"], row["station"])] = [
                    float(row[f"m{k}"]) for k in range(1, 9)
                ]
        checked = 0
        for key, values in by_key.items():
            if key in cases:
                assert values == pytest.approx(cases[key])
                checked += 1
        assert checked > 0

    def test_ecc_artifact_rebuilds_the_ecc_output(self, pipeline):
        """The ensembles verify rebuilds from the rank rows equal ecc_memos and
        independence_shuffle run on the day's sample with the ecc streams."""
        config, out = pipeline
        seed = cli.RunConfig.load(config).seed
        table = data.load_cases(out / "cases.csv")
        preds = {"memos": cli._load_predictions(out, "memos")}
        for label in ("memos_ecc", "memos_independence", "raw_ecc"):
            method, structure = label.rsplit("_", 1)
            rebuilt = cli._load_ensembles(out, label, table, preds, 8)
            assert sorted(rebuilt) == [f"2010-06-{d}" for d in range(16, 22)]
            for key, by_site in rebuilt.items():
                cases = table.on(dt.date.fromisoformat(key))
                if method == "raw":
                    sites = sorted(cases)
                    members = np.sort([cases[s].members for s in sites], axis=1)
                    sample = ecc.PredictiveSample(sites=sites, values=members.T[None])
                else:
                    sample = cli._day_sample(preds[method][key], 8)
                if structure == "ecc":
                    rng = np.random.default_rng(cli.subseed(seed, "ecc-ties", key))
                    raw = {s: c.members for s, c in cases.items()}
                    expected = ecc.ecc_memos(raw, sample, rng)
                else:
                    rng = np.random.default_rng(cli.subseed(seed, "independence", key))
                    expected = ecc.independence_shuffle(
                        {s: sample.pooled(s) for s in sample.sites}, rng)
                assert sorted(by_site) == sorted(expected) == sorted(cases)
                for site, values in expected.items():
                    assert np.array_equal(by_site[site], values)
            with open(out / f"ens_{label}.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == ["date", "site", "ranks"]
            assert all(re.fullmatch(r"[0-9]+( [0-9]+)*", row[2]) for row in rows[1:])
            assert len({tuple(row[:2]) for row in rows[1:]}) == len(rows) - 1 == sum(
                len(by_site) for by_site in rebuilt.values())


class TestMixtureCrpsOracle:
    def test_memos_crps_matches_the_closed_form_mixture_crps(self, tmp_path):
        """Each memos crps row of scores.csv is the sample CRPS of the grouped
        m-quantile sample of the day's mixture (1/n)Σ N(μᵢ, σᵢ²) from
        predict_memos.csv; the closed form (Grimit et al. 2006) scores the
        mixture itself.  Their gap is bounded by 2·W₁(sample, mixture):
        CRPS(F, y) = E|X − y| − ½E|X − X'|, and both |x − y| and |x − x'|
        are 1-Lipschitz in each argument, so under a W₁-optimal coupling the
        two terms move by at most W₁ and ½·2W₁.  Coupling each component to
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
        components = {}
        with open(out / "predict_memos.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                mu, sigma = components.setdefault((row["date"], row["site"]), ([], []))
                mu.append(float(row["mu"]))
                sigma.append(float(row["sigma"]))
        table = data.load_cases(out / "cases.csv")
        w_m = midpoint_quantile_w1(50)
        scores = verify.ScoreSeries.from_csv(out / "scores.csv")
        rows = [(d, s, v) for d, s, m, sc, v in scores.rows()
                if m == "memos" and sc == "crps"]
        assert len(rows) == 6 * 10
        for date, site, value in rows:
            mu, sigma = components[(date, site)]
            y = table.on(dt.date.fromisoformat(date))[site].observation
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
        assert (out_clean / "params_global.json").read_bytes() == (
            out_corrupt / "params_global.json"
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


# modules of the sparse, spatial and LAPACK stack that only mesh, verify,
# the MEMOS commands and simulate need
SPARSE_STACK = ("scipy.sparse", "scipy.spatial", "scipy.linalg",
                "enspost.memos", "enspost.mesh", "enspost.spde")


class TestImports:
    def test_cli_leaves_scipy_optimize_unloaded(self):
        """No library module loads scipy.optimize: importing it costs every
        CLI process about 0.13 s of CPU."""
        probe = TestBlasThreads.probe(
            dict(os.environ), "import sys\nprint('scipy.optimize' in sys.modules)")
        assert probe == "False"

    def test_emos_and_verify_leave_scipy_unloaded(self):
        """Φ and Φ⁻¹ come from enspost.normal, so the EMOS fit, its
        quantiles, the PIT and the DM p-value load no scipy module."""
        probe = TestBlasThreads.probe(dict(os.environ), (
            "import sys, enspost.emos, enspost.verify\n"
            "print([name for name in sys.modules if name.split('.')[0] == 'scipy'])"))
        assert probe == "[]"

    @pytest.mark.parametrize("args, drop, absent", [
        ((), "", ("scipy",)),
        (("ecc", "--method", "raw"), "", ("scipy",)),
        (("ecc", "--method", "global"), "", ("scipy",) + SPARSE_STACK),
        (("ecc", "--method", "memos"), "", ("scipy",) + SPARSE_STACK),
        (("predict", "--method", "local"), "", ("scipy",) + SPARSE_STACK),
        (("predict", "--method", "memos"), "", ("scipy",) + SPARSE_STACK),
        (("fit", "--method", "global"), "", ("scipy",) + SPARSE_STACK),
        (("fit", "--method", "local"), "", ("scipy",) + SPARSE_STACK),
        (("verify",), "", ("enspost.memos", "enspost.spde")),
        (("verify",), "ens_*", ("scipy",) + SPARSE_STACK),
    ], ids=["import", "ecc-raw", "ecc-global", "ecc-memos", "predict-local", "predict-memos",
            "fit-global", "fit-local", "verify", "verify-no-ens"])
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

    @pytest.mark.parametrize("label, edit, message", [
        ("memos_ecc", lambda row: row[:2] + ["1 1 2 3 4 5 6 7"],
         "ens_memos_ecc.csv line 2: pi must be a permutation of 1..L"),
        ("memos_independence", lambda row: row[:2] + ["1 2 3 4 5 6 7"],
         "ens_memos_independence.csv line 2: sample size 160 "
         "is not a multiple of ensemble size 7"),
        ("memos_ecc", lambda row: row[:2] + ["2 1 4 3"],
         "ens_memos_ecc.csv line 2: 4 ranks for ensemble size 8"),
        ("memos_ecc", lambda row: [row[0], "nowhere", row[2]],
         "ens_memos_ecc.csv line 2: {date} site nowhere has no row in predict_memos.csv"),
    ], ids=["not-a-permutation", "length-not-a-divisor", "ecc-length-not-m",
            "site-not-predicted"])
    def test_bad_ecc_artifact(self, pipeline, tmp_path, capsys, label, edit, message):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / f"ens_{label}.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        date = rows[1][0]
        rows[1] = edit(rows[1])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "verify"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: " + message.format(date=date) + "\n"

    @pytest.mark.parametrize("args, edit, message", [
        (("ecc", "--method", "local"), lambda row: row.rsplit(",", 1)[0],
         "predict_local.csv line 4: expected 4 fields, got 3"),
        (("verify",), lambda row: row.rsplit(",", 1)[0],
         "predict_local.csv line 4: expected 4 fields, got 3"),
        (("ecc", "--method", "local"), lambda row: ",".join(row.split(",")[:2] + ["x", "1.0"]),
         "predict_local.csv line 4: could not convert string to float: 'x'"),
        (("verify",), lambda row: ",".join(row.split(",")[:3] + [""]),
         "predict_local.csv line 4: could not convert string to float: ''"),
        (("ecc", "--method", "memos"), lambda row: ",".join(row.split(",")[:3] + ["-0.5"]),
         "predict_memos.csv line 4: sigma must be finite and > 0, got -0.5"),
        (("verify",), lambda row: ",".join(row.split(",")[:3] + ["-0.5"]),
         "predict_memos.csv line 4: sigma must be finite and > 0, got -0.5"),
        (("verify",), lambda row: ",".join(row.split(",")[:3] + ["0.0"]),
         "predict_global.csv line 4: sigma must be finite and > 0, got 0.0"),
        (("ecc", "--method", "local"), lambda row: ",".join(row.split(",")[:2] + ["nan", "1.0"]),
         "predict_local.csv line 4: mu must be finite, got nan"),
    ], ids=["ecc-missing-sigma", "verify-missing-sigma", "ecc-bad-mu", "verify-empty-sigma",
            "ecc-negative-memos-sigma", "verify-negative-memos-sigma", "verify-zero-global-sigma",
            "ecc-nan-mu"])
    def test_malformed_predict_row(self, pipeline, tmp_path, capsys, args, edit, message):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / message.split()[0]  # the file the message names
        lines = path.read_text().splitlines()
        lines[3] = edit(lines[3])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["ecc", "verify"])
    def test_predict_header_not_the_schema(self, pipeline, tmp_path, capsys, command):
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "predict_local.csv"
        path.write_text(path.read_text().replace("date,site,mu,sigma", "date,site,mu", 1))
        capsys.readouterr()
        args = ["ecc", "--method", "local"] if command == "ecc" else ["verify"]
        code = cli.main(["--config", str(config), "--out", str(out), *args])
        assert code == 1
        assert capsys.readouterr().err == ("error: predict_local.csv line 1: expected the "
                                           "header date,site,mu,sigma (rerun `predict`?)\n")

    def test_ragged_memos_components(self, pipeline, tmp_path, capsys):
        """One deleted component row leaves its site with n - 1 components."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "predict_memos.csv"
        lines = path.read_text().splitlines()
        date, site = lines[1].split(",")[:2]
        del lines[1]
        path.write_text("\n".join(lines) + "\n")
        other = lines[20].split(",")[1]
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out), "ecc", "--method", "memos"])
        assert code == 1
        assert capsys.readouterr().err == (f"error: predict_memos.csv: {date} has 19 components "
                                           f"at site {site} but 20 at site {other}\n")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[0]] + rows[2:], "draw 1 has no row for site {site}"),
        (lambda rows: rows[:2] + rows[1:], "draw 1 has two rows for site {site}"),
        (lambda rows: rows[:2] + [rows[2][:4] + ["9.5"]] + rows[3:],
         "draw 1 has sigma {sigma} and 9.5"),
        (lambda rows: [r for r in rows if r[0] != "1"], "draw 1 has no rows"),
        (lambda rows: [r for r in rows if r[0] != rows[-1][0]], "draw {last} has no rows"),
        (lambda rows: rows + [[str(int(r[0]) + 1)] + r[1:]
                              for r in rows if r[0] == rows[-1][0]],
         "draw {past} is outside the draws 1..{last} of {sidecar}"),
        (lambda rows: [r for r in rows if r[1] != rows[1][1]], "site {site} has no rows"),
    ], ids=["deleted-row", "duplicated-row", "sigma-differs-between-sites", "deleted-draw",
            "cut-at-a-draw-boundary", "draw-past-the-sidecar", "site-missing-from-every-draw"])
    def test_incomplete_draws_grid(self, pipeline, tmp_path, capsys, edit, message):
        """Each draw 1..n of the sidecar's chain has exactly one row for each
        station, with one σ per draw; otherwise `predict` ends with one error
        line."""
        config, done = pipeline
        out = tmp_path / "out"
        shutil.copytree(done, out)
        path = out / "draws_memos" / "2010-06-16.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(edit(rows))
        capsys.readouterr()
        code = cli.main(["--config", str(config), "--out", str(out),
                         "predict", "--method", "memos"])
        assert code == 1
        expected = message.format(site=rows[1][1], sigma=rows[1][4], last=rows[-1][0],
                                  past=int(rows[-1][0]) + 1, sidecar=path.with_suffix(".json"))
        assert capsys.readouterr().err == f"error: {path}: {expected}\n"

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

    @pytest.mark.parametrize("args, message", [
        (("mesh",), "error: refinement stalled\n"),
        (("fit", "--method", "global"), "error: fit global 2010-06-16: did not converge\n"),
    ], ids=["mesh", "fit-global"])
    def test_model_error_is_one_line(self, tmp_path, monkeypatch, capsys, args, message):
        """A MeshRefinementError or a FitError reaches `main` as a
        data.ModelError: one line, exit 1."""
        from enspost import mesh

        def mesh_fails(*args, **kwargs):
            raise mesh.MeshRefinementError("refinement stalled")

        def fit_fails(*args, **kwargs):
            raise emos.FitError("did not converge", emos.EmosParams(0.0, 1.0, 1.0))

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
