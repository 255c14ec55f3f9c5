"""Batch pipeline driver: simulate | mesh | fit | predict | ecc | verify.

Every command reads a flat key=value config file, accepts ``--seed`` and
``--out``, writes its artifacts under the output directory together with a
manifest recording the config hash and seed, and is deterministic given
(config, seed).  Evaluation days are processed in date order and only ever
read data strictly before each valid date.

Artifacts: ``mesh`` writes mesh.json, which ``fit --method memos`` reads.
``fit --method memos`` writes the posterior draws of each day to
draws_memos/<date>.csv and the chain's health next to them in
draws_memos/<date>.json: seed, acceptance overall and after burn-in
(acceptance_post), final proposal step, invalid_proposals and the kept θ
chain (n × 5 log hyperparameters).
``predict`` writes predict_<method>.csv with columns date,site,mu,sigma:
one row per component N(mu, sigma²) of an equally weighted Gaussian
mixture, so one row per (date, site) for global and local EMOS and n rows,
in posterior draw order, for MEMOS.  ``ecc`` and ``verify`` rebuild the
grouped m-quantile sample of each day from those rows with
``emos.quantile_sample`` (for raw: the sorted members, n = 1).  ``ecc``
writes ens_<method>_<structure>.csv with columns date,site,ranks: one row
per (date, site) holding L space-separated ranks, the raw ensemble's m
ranks for ECC or a permutation of the N = m·n pooled values for
independence.  ``verify`` rebuilds each ensemble by reordering every
consecutive block of L pooled values by these ranks.

Imports: each CLI run is one process, and most commands do less work than
loading the whole library costs.  So this module imports only the standard
library, numpy and ``data`` at module level, and each command imports the
model modules it calls where it calls them.  ``fit`` and ``predict`` for
global and local EMOS, ``predict --method memos`` (which reads the draws
with ``data.PosteriorDraws``) and ``ecc`` for every method run on numpy
alone: Φ and Φ⁻¹ come from ``normal``, not from SciPy.  ``verify`` loads
``scipy.spatial`` (and with it ``scipy.sparse``) only to score ``ens_*``
files, and only ``mesh``, ``fit --method memos`` and ``simulate`` load
``mesh``, ``spde`` or ``memos``.  A fit, chain or mesh that fails on valid
input raises a subclass of ``data.ModelError``; ``main`` reports it, a
ValueError or an OSError as one ``error:`` line and exit 1.

Config keys (defaults in parentheses); any other key, or a key set twice, is
an error:
  seed (0)                 window (25)            min_train (10)
  m (50)                   n (100)                bins (17)
  cases (cases.csv)        eval_start (first date + window)
  eval_days (rest of data) mesh_min_angle (20)    mesh_max_edge (none)
  memos_burnin (1000)      memos_thin (5)         memos_alpha (1)
  memos_vfix (1e6)
  prior_logkappa_mean (-0.082)  prior_logkappa_var (1.5)
  prior_logtau_mean (-0.878)    prior_logtau_var (1.5)
  prior_precision_shape (1)     prior_precision_rate (0.00005)
  sim_stations (50)  sim_days (60)  sim_m (50)  sim_sigma (1.5)
  sim_kappa_a (0.9)  sim_tau_a (0.5)  sim_kappa_b (0.9)  sim_tau_b (8.0)
  sim_a_mean (0)     sim_b_mean (1)   sim_alpha (2)  sim_field_mode (gmrf)
  sim_domain_km (10) sim_start (2010-06-01)
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import datetime as dt
import hashlib
import json
import math
import os
import sys
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

# Every factorization here is small and banded: one BLAS thread, unless set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np  # noqa: E402

from . import data  # noqa: E402

if TYPE_CHECKING:
    from . import ecc, memos, verify

METHODS_FIT = ("global", "local", "memos")
METHODS_ALL = ("raw",) + METHODS_FIT

# every key a config file may set; the module docstring lists their defaults
CONFIG_KEYS = (
    "seed", "window", "min_train", "m", "n", "bins", "cases", "eval_start", "eval_days",
    "mesh_min_angle", "mesh_max_edge",
    "memos_burnin", "memos_thin", "memos_alpha", "memos_vfix",
    "prior_logkappa_mean", "prior_logkappa_var", "prior_logtau_mean", "prior_logtau_var",
    "prior_precision_shape", "prior_precision_rate",
    "sim_stations", "sim_days", "sim_m", "sim_sigma", "sim_kappa_a", "sim_tau_a",
    "sim_kappa_b", "sim_tau_b", "sim_a_mean", "sim_b_mean", "sim_alpha", "sim_field_mode",
    "sim_domain_km", "sim_start",
)


class CliError(RuntimeError):
    pass


@contextlib.contextmanager
def _naming(*where):
    """Re-raise a model failure, or any failure of one station inside a
    batched local fit, as a CliError that names where it happened."""
    from .emos import StationError  # every fit loads emos (memos samples through it)

    try:
        yield
    except StationError as exc:
        raise CliError(f"{' '.join(where)} station {exc.station}: {exc}") from exc
    except data.ModelError as exc:
        raise CliError(f"{' '.join(where)}: {exc}") from exc


@dataclass
class RunConfig:
    raw: dict = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def load(cls, path, seed_override=None) -> "RunConfig":
        raw, set_on = {}, {}
        p = Path(path)
        if not p.exists():
            raise CliError(f"config file not found: {p}")
        for lineno, line in enumerate(p.read_text().splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{p}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise CliError(f"{p}:{lineno}: unknown key {key!r}")
            if key in set_on:
                raise CliError(f"{p}:{lineno}: key {key!r} already set on line {set_on[key]}")
            raw[key], set_on[key] = value, lineno
        cfg = cls(raw=raw)
        cfg.seed = int(seed_override if seed_override is not None else raw.get("seed", 0))
        return cfg

    def get(self, key, default=None, cast=str):
        if key not in self.raw or self.raw[key] == "":
            return default
        return cast(self.raw[key])

    def date(self, key, default=None):
        value = self.raw.get(key, "")
        return dt.date.fromisoformat(value) if value else default

    @property
    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        canon += f"\nseed={self.seed}"
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def sim_config(self) -> data.SimConfig:
        return data.SimConfig(
            n_stations=self.get("sim_stations", 50, int),
            n_days=self.get("sim_days", 60, int),
            start=self.date("sim_start", dt.date(2010, 6, 1)),
            m=self.get("sim_m", 50, int),
            sigma=self.get("sim_sigma", 1.5, float),
            kappa_a=self.get("sim_kappa_a", 0.9, float),
            tau_a=self.get("sim_tau_a", 0.5, float),
            kappa_b=self.get("sim_kappa_b", 0.9, float),
            tau_b=self.get("sim_tau_b", 8.0, float),
            a_mean=self.get("sim_a_mean", 0.0, float),
            b_mean=self.get("sim_b_mean", 1.0, float),
            alpha=self.get("sim_alpha", 2, int),
            field_mode=self.get("sim_field_mode", "gmrf"),
            domain_km=self.get("sim_domain_km", 10.0, float),
            mesh_min_angle=self.get("mesh_min_angle", 20.0, float),
        )

    def priors(self) -> memos.Priors:
        from . import memos

        return memos.Priors(
            logkappa_mean=self.get("prior_logkappa_mean", -0.082, float),
            logkappa_var=self.get("prior_logkappa_var", 1.5, float),
            logtau_mean=self.get("prior_logtau_mean", -0.878, float),
            logtau_var=self.get("prior_logtau_var", 1.5, float),
            precision_shape=self.get("prior_precision_shape", 1.0, float),
            precision_rate=self.get("prior_precision_rate", 0.00005, float),
            v_fix=self.get("memos_vfix", 1e6, float),
        )

    def mcmc(self) -> memos.McmcConfig:
        from . import memos

        return memos.McmcConfig(
            burn_in=self.get("memos_burnin", 1000, int),
            thin=self.get("memos_thin", 5, int),
            alpha=self.get("memos_alpha", 1, int),
        )


def subseed(seed: int, *keys) -> np.random.SeedSequence:
    parts = [int(seed) & 0xFFFFFFFF]
    for key in keys:
        parts.append(zlib.crc32(str(key).encode()))
    return np.random.SeedSequence(parts)


def _write_manifest(out: Path, command: str, cfg: RunConfig, inputs, outputs) -> None:
    def rel(p):
        p = Path(p)
        try:
            return str(p.relative_to(out))
        except ValueError:
            return p.name
    manifest = {
        "command": command,
        "config_hash": cfg.config_hash,
        "seed": cfg.seed,
        "inputs": sorted(rel(p) for p in inputs),
        "outputs": sorted(rel(p) for p in outputs),
    }
    (out / f"manifest_{command}.json").write_text(
        json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n"
    )


def _load_table(cfg: RunConfig, out: Path) -> data.CaseTable:
    cases = out / cfg.get("cases", "cases.csv")
    if not cases.exists():
        raise CliError(f"missing upstream file: {cases} (run `simulate` first?)")
    return data.load_cases(cases)


def _eval_days(cfg: RunConfig, table: data.CaseTable) -> list:
    window = cfg.get("window", 25, int)
    dates = table.dates
    start = cfg.date("eval_start", dates[0] + dt.timedelta(days=window))
    n_days = cfg.get("eval_days", max(1, (dates[-1] - start).days + 1), int)
    present = set(dates)
    return [start + dt.timedelta(days=i) for i in range(n_days)
            if start + dt.timedelta(days=i) in present]


def cmd_simulate(cfg: RunConfig, out: Path) -> list:
    table, truth = data.simulate(cfg.sim_config(), cfg.seed)
    cases_path = out / cfg.get("cases", "cases.csv")
    data.write_cases(table, cases_path)
    truth_path = out / "truth.json"
    truth_path.write_text(
        json.dumps(
            {
                "a_true": truth.a_true,
                "b_true": truth.b_true,
                "sigma": truth.sigma,
                "seed": truth.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
    )
    print(f"simulate: {len(table)} cases at {len(table.stations)} stations -> {cases_path}")
    return [cases_path, truth_path]


def cmd_mesh(cfg: RunConfig, out: Path) -> list:
    from . import mesh as mesh_mod

    table = _load_table(cfg, out)
    locs = [table.locations[s] for s in table.stations]
    msh = mesh_mod.build_mesh(
        locs,
        min_angle=cfg.get("mesh_min_angle", 20.0, float),
        max_edge=cfg.get("mesh_max_edge", None, float),
    )
    path = out / "mesh.json"
    path.write_text(msh.to_json() + "\n")
    print(f"mesh: {msh.n_vertices} vertices, {len(msh.triangles)} triangles -> {path}")
    return [path]


def cmd_fit(cfg: RunConfig, out: Path, method: str) -> list:
    table = _load_table(cfg, out)
    days = _eval_days(cfg, table)
    if not days:
        raise CliError("no evaluation days fall inside the dataset")
    window = cfg.get("window", 25, int)
    min_train = cfg.get("min_train", 10, int)
    outputs = []

    if method in ("global", "local"):
        from . import emos

        fits = {}
        for day in days:
            with _naming(f"fit {method}", day.isoformat()):
                if method == "global":
                    params = asdict(emos.fit_global(table, day, length=window,
                                                    min_cases=min_train))
                else:
                    params = {station: asdict(p) for station, p in emos.fit_local(
                        table, day, table.stations, length=window, min_cases=min_train).items()}
            fits[day.isoformat()] = params
        path = out / f"params_{method}.json"
        path.write_text(json.dumps(fits, sort_keys=True, separators=(",", ":")) + "\n")
        outputs.append(path)
    else:
        from . import memos, mesh as mesh_mod

        mesh_path = out / "mesh.json"
        if not mesh_path.exists():
            raise CliError(f"missing upstream file: {mesh_path} (run `mesh` first?)")
        msh = mesh_mod.Mesh.from_json(mesh_path.read_text())
        draws_dir = out / "draws_memos"
        draws_dir.mkdir(exist_ok=True)
        sites = [table.locations[s] for s in table.stations]
        for day in days:
            training = data.rolling_window(table, day, length=window, mode="global",
                                           min_cases=min_train)
            with _naming("fit memos", day.isoformat()):
                draws = memos.sample_posterior(
                    training,
                    sites,
                    n=cfg.get("n", 100, int),
                    seed=subseed(cfg.seed, "memos-fit", day.isoformat()).generate_state(1)[0],
                    mesh=msh,
                    priors=cfg.priors(),
                    config=cfg.mcmc(),
                )
            path = draws_dir / f"{day.isoformat()}.csv"
            draws.to_csv(path)
            outputs += [path.with_suffix(".json"), path]
    print(f"fit[{method}]: {len(days)} day(s) -> {outputs[-1] if outputs else out}")
    return outputs


def cmd_predict(cfg: RunConfig, out: Path, method: str) -> list:
    table = _load_table(cfg, out)
    days = _eval_days(cfg, table)
    if method != "memos":
        from . import emos

        params_path = out / f"params_{method}.json"
        if not params_path.exists():
            raise CliError(f"missing upstream file: {params_path} (run `fit` first?)")
        fits = json.loads(params_path.read_text())

    def components(key, cases):
        """(site, mu, sigma) for each site with a case on the day."""
        if method == "memos":
            draws_path = out / "draws_memos" / f"{key}.csv"
            if not draws_path.exists():
                raise CliError(f"missing upstream file: {draws_path} (run `fit` first?)")
            draws = data.PosteriorDraws.from_csv(draws_path)
            # `fit --method memos` predicts at every station of the table
            missing = sorted(set(table.stations) - set(draws.sites))
            if missing:
                raise CliError(f"{draws_path}: site {missing[0]} has no rows")
            for j, site in enumerate(draws.sites):
                if site in cases:
                    yield site, draws.a[:, j] + draws.b[:, j] * cases[site].fbar, draws.sigma
            return
        if key not in fits:
            raise CliError(f"no fitted parameters for {key} in {params_path}")
        for site, case in sorted(cases.items()):
            entry = fits[key] if method == "global" else fits[key][site]
            params = emos.EmosParams(entry["a"], entry["b"], entry["sigma"])
            forecast = emos.predict(params, case.fbar)
            yield site, [forecast.mu], [forecast.sigma]

    path = out / f"predict_{method}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "site", "mu", "sigma"])
        for day in days:
            key = day.isoformat()
            for site, mu, sigma in components(key, table.on(day)):
                writer.writerows([key, site, repr(float(u)), repr(float(v))]
                                 for u, v in zip(mu, sigma))
    print(f"predict[{method}]: {len(days)} day(s)")
    return [path]


def _load_predictions(out: Path, method: str) -> dict:
    """predict_<method>.csv -> {date: {site: (mu, sigma)}}, components in row
    order.  Every mu must be finite and every sigma finite and > 0, and every
    site of a day must have the same number of components."""
    path = out / f"predict_{method}.csv"
    if not path.exists():
        raise CliError(f"missing upstream file: {path} (run `predict` first?)")
    by_day: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["date", "site", "mu", "sigma"]:
            raise CliError(f"{path.name} line 1: expected the header date,site,mu,sigma "
                           "(rerun `predict`?)")
        for row in reader:
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 fields, got {len(row)}")
                key, site, mu, sigma = row[0], row[1], float(row[2]), float(row[3])
                if not math.isfinite(mu):
                    raise ValueError(f"mu must be finite, got {mu!r}")
                if not 0.0 < sigma < math.inf:
                    raise ValueError(f"sigma must be finite and > 0, got {sigma!r}")
                components = by_day.setdefault(key, {}).setdefault(site, ([], []))
                components[0].append(mu)
                components[1].append(sigma)
            except ValueError as exc:
                raise CliError(f"{path.name} line {reader.line_num}: {exc}") from exc
    for key, by_site in by_day.items():
        first, (mu, _) = next(iter(by_site.items()))
        for site, (other, _) in by_site.items():
            if len(other) != len(mu):
                raise CliError(f"{path.name}: {key} has {len(mu)} components at site "
                               f"{first} but {len(other)} at site {site}")
    return by_day


def _day_sample(components: dict, m: int) -> ecc.PredictiveSample:
    """Grouped m-quantile sample of one day's {site: (mu, sigma)} components."""
    from . import emos

    sites = sorted(components)
    mu, sigma = (np.array([components[s][k] for s in sites]).T for k in (0, 1))
    return emos.quantile_sample(sites, mu, sigma, m)


def _ensemble_sample(method: str, rows: dict, m: int) -> ecc.PredictiveSample:
    """The day's sample that ECC reorders: for raw, the sorted members of the
    day's cases as one subsample (n = 1); else the grouped m-quantile sample
    of the day's {site: (mu, sigma)} components."""
    from . import ecc

    if method != "raw":
        return _day_sample(rows, m)
    sites = sorted(rows)
    sorted_raw = np.sort([rows[s].members for s in sites], axis=1)
    return ecc.PredictiveSample(sites=sites, values=sorted_raw.T[None])


def cmd_ecc(cfg: RunConfig, out: Path, method: str, structure: str) -> list:
    from . import ecc

    table = _load_table(cfg, out)
    days = _eval_days(cfg, table)
    m = cfg.get("m", 50, int)
    preds = None if method == "raw" else _load_predictions(out, method)
    path = out / f"ens_{method}_{structure}.csv"

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "site", "ranks"])
        for day in days:
            key = day.isoformat()
            cases = table.on(day)
            rows = cases if preds is None else preds.get(key)
            if rows is None:
                raise CliError(f"no predictions for {key} in predict_{method}.csv "
                               "(run `predict` first?)")
            sample = _ensemble_sample(method, rows, m)
            if structure == "ecc":
                rng = np.random.default_rng(subseed(cfg.seed, "ecc-ties", key))
                ranks = ecc.ecc_ranks({s: c.members for s, c in cases.items()}, sample, rng)
            else:
                rng = np.random.default_rng(subseed(cfg.seed, "independence", key))
                ranks = ecc.shuffle_ranks({s: sample.n * sample.m for s in sample.sites}, rng)
            writer.writerows([key, site, " ".join(map(str, pi.pi))]
                             for site, pi in sorted(ranks.items()))
    print(f"ecc[{method}/{structure}]: {len(days)} day(s) -> {path}")
    return [path]


def _load_ensembles(out: Path, label: str, table, preds: dict, m: int) -> dict:
    """Rebuild ens_<label>.csv as {date: {site: N members}}: each row's ranks
    reorder the site's pooled `_ensemble_sample` block by block
    (`ecc.apply_permutation`).  ECC rows hold m ranks, independence rows N."""
    from . import ecc

    method, structure = label.rsplit("_", 1)
    path = out / f"ens_{label}.csv"
    source = "cases.csv" if method == "raw" else f"predict_{method}.csv"
    by_day = None if method == "raw" else preds.get(method) or _load_predictions(out, method)
    ensembles, samples = {}, {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["date", "site", "ranks"]:
            raise CliError(f"{path}: expected the header date,site,ranks (rerun `ecc`?)")
        for row in reader:
            try:
                key, site, text = row
                pi = ecc.RankPermutation(tuple(map(int, text.split())))
                rows = (table.on(dt.date.fromisoformat(key)) if by_day is None
                        else by_day.get(key, {}))
                if site not in rows:
                    raise ValueError(f"{key} site {site} has no row in {source}")
                if key not in samples:
                    samples[key] = _ensemble_sample(method, rows, m)
                if structure == "ecc" and len(pi) != samples[key].m:
                    raise ValueError(f"{len(pi)} ranks for ensemble size {samples[key].m}")
                ensembles.setdefault(key, {})[site] = ecc.apply_permutation(
                    pi, samples[key].pooled(site))
            except ValueError as exc:
                raise CliError(f"{path.name} line {reader.line_num}: {exc}") from exc
    return ensembles


def _univariate_scores(cfg: RunConfig, table, days, preds: dict, scores: verify.ScoreSeries,
                       pit_values: dict) -> None:
    from . import emos, verify

    m = cfg.get("m", 50, int)

    for day in days:
        key = day.isoformat()
        cases = table.on(day)
        on_day = {method: p.get(key, {}) for method, p in preds.items()}
        memos_sample = _day_sample(on_day["memos"], m) if on_day.get("memos") else None
        observed = [s for s in sorted(cases) if cases[s].observation is not None]
        for station in observed:
            case = cases[station]
            y = case.observation
            rng = np.random.default_rng(subseed(cfg.seed, "verify-rank", key, station))
            members = np.asarray(case.members)
            scores.add(key, station, "raw", "crps", verify.crps_empirical(members, y))
            scores.add(key, station, "raw", "ae", verify.abs_error(members, y))
            pit_values.setdefault("raw", []).append(
                verify.verification_rank(members, y, rng)
            )
            if memos_sample is not None and station in memos_sample.sites:
                pooled = memos_sample.pooled(station)
                scores.add(key, station, "memos", "crps", verify.crps_empirical(pooled, y))
                scores.add(key, station, "memos", "ae", verify.abs_error(pooled, y))
                pit_values.setdefault("memos", []).append(
                    verify.normalized_rank(pooled, y, rng)
                )
        # one array call per method and day: a call of Φ has a fixed cost of
        # about 0.1 ms whatever its length
        for method in ("global", "local"):
            rows = on_day.get(method, {})
            sites = [s for s in observed if s in rows]
            if not sites:
                continue
            # one component N(mu, sigma²) per site
            mu, sigma = np.array([(u, v) for s in sites for (u,), (v,) in [rows[s]]]).T
            y = np.array([cases[s].observation for s in sites])
            forecast = emos.GaussianForecast(mu, sigma)
            crps = emos.crps_gaussian(mu, sigma, y)
            for station, c, u, v in zip(sites, crps, mu, y):
                scores.add(key, station, method, "crps", c)
                scores.add(key, station, method, "ae", abs(u - v))
            pit_values.setdefault(method, []).extend(verify.pit(forecast.cdf, y))


def _multivariate_scores(cfg: RunConfig, out: Path, table, days, preds: dict,
                         scores: verify.ScoreSeries, mv_ranks: dict) -> None:
    from . import verify

    m = cfg.get("m", 50, int)
    for ens_path in sorted(out.glob("ens_*_*.csv")):
        label = ens_path.stem[len("ens_"):]
        per_day = _load_ensembles(out, label, table, preds, m)
        for day in days:
            key = day.isoformat()
            if key not in per_day:
                continue
            cases = table.on(day)
            sites = sorted(s for s in per_day[key] if s in cases
                           and cases[s].observation is not None)
            if len(sites) < 2:
                continue
            ens = np.array([per_day[key][s] for s in sites]).T  # (members, d)
            y = np.array([cases[s].observation for s in sites])
            scores.add(key, "ALL", label, "es", verify.energy_score(ens, y))
            rng = np.random.default_rng(subseed(cfg.seed, "mvrank", label, key))
            mv_ranks.setdefault(label, []).append(
                (verify.multivariate_rank(ens, y, rng), len(ens) + 1)
            )


def cmd_verify(cfg: RunConfig, out: Path, compare=None, score: str = "crps",
               daily_mean: bool = False, lag: int = 0) -> list:
    from . import verify

    table = _load_table(cfg, out)
    days = _eval_days(cfg, table)
    bins = verify.HistogramSpec(cfg.get("bins", 17, int))
    outputs = []

    preds = {method: _load_predictions(out, method) for method in METHODS_FIT
             if (out / f"predict_{method}.csv").exists()}
    scores = verify.ScoreSeries()
    pit_values: dict = {}
    _univariate_scores(cfg, table, days, preds, scores, pit_values)
    mv_ranks: dict = {}
    _multivariate_scores(cfg, out, table, days, preds, scores, mv_ranks)

    scores_path = out / "scores.csv"
    scores.to_csv(scores_path)
    outputs.append(scores_path)

    histograms = {}
    for method, values in sorted(pit_values.items()):
        if method == "raw":
            spec = verify.HistogramSpec(min(bins.bins, table.m + 1))
            counts = verify.histogram(np.asarray(values), spec, rank_max=table.m + 1)
        else:
            counts = verify.histogram(np.asarray(values), bins)
        histograms[f"hist_{method}"] = (method, counts)
    for label, ranked in sorted(mv_ranks.items()):
        rank_max = ranked[0][1]
        spec = verify.HistogramSpec(min(bins.bins, rank_max))
        histograms[f"mvhist_{label}"] = (label, verify.histogram(
            np.asarray([r for r, _ in ranked]), spec, rank_max=rank_max))
    for name, (label, counts) in histograms.items():
        hist_path = out / f"{name}.csv"
        with open(hist_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method", "bin", "frequency"])
            writer.writerows([label, b, repr(float(freq))]
                             for b, freq in enumerate(counts, start=1))
        outputs.append(hist_path)

    for method in METHODS_ALL:
        try:
            mean_crps = scores.mean(method, "crps")
            print(f"verify: mean crps[{method}] = {mean_crps:.4f}")
        except KeyError:
            pass

    if compare:
        method_a, method_b = compare
        if daily_mean:
            _, series_a = scores.daily_mean(method_a, score)
            _, series_b = scores.daily_mean(method_b, score)
        else:
            rows_a, rows_b = {}, {}
            for d, s, meth, sc, v in scores.rows():
                if sc != score:
                    continue
                if meth == method_a:
                    rows_a[(d, s)] = v
                elif meth == method_b:
                    rows_b[(d, s)] = v
            keys = sorted(set(rows_a) & set(rows_b))
            series_a = np.array([rows_a[k] for k in keys])
            series_b = np.array([rows_b[k] for k in keys])
        result = verify.dm_test(series_a, series_b, lag=lag)
        dm_path = out / f"dm_{method_a}_{method_b}_{score}.csv"
        with open(dm_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["method_a", "method_b", "score", "statistic", "pvalue",
                             "mean_difference", "n"])
            writer.writerow([method_a, method_b, score, repr(result.statistic),
                             repr(result.pvalue), repr(result.mean_difference),
                             len(series_a)])
        outputs.append(dm_path)
        print(
            f"verify: DM {method_a} vs {method_b} on {score}"
            f"{' (daily means)' if daily_mean else ''}: "
            f"statistic={result.statistic:.4f} p={result.pvalue:.4g}"
        )
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="enspost",
        description="Ensemble postprocessing pipelines on forecast case files.",
    )
    parser.add_argument("--config", required=True, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate")
    sub.add_parser("mesh")
    for name in ("fit", "predict"):
        p = sub.add_parser(name)
        p.add_argument("--method", choices=METHODS_FIT, required=True)
    p = sub.add_parser("ecc")
    p.add_argument("--method", choices=METHODS_ALL, required=True)
    p.add_argument("--structure", choices=("ecc", "independence"), default="ecc")
    p = sub.add_parser("verify")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    p.add_argument("--score", default="crps", choices=("crps", "ae", "es"))
    p.add_argument("--daily-mean", action="store_true")
    p.add_argument("--lag", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config, seed_override=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            outputs = cmd_simulate(cfg, out)
        elif args.command == "mesh":
            outputs = cmd_mesh(cfg, out)
        elif args.command == "fit":
            outputs = cmd_fit(cfg, out, args.method)
        elif args.command == "predict":
            outputs = cmd_predict(cfg, out, args.method)
        elif args.command == "ecc":
            outputs = cmd_ecc(cfg, out, args.method, args.structure)
        else:
            outputs = cmd_verify(cfg, out, compare=args.compare, score=args.score,
                                 daily_mean=args.daily_mean, lag=args.lag)
        _write_manifest(out, args.command, cfg, [args.config], outputs)
    except (CliError, ValueError, OSError, data.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
