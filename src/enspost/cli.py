"""Batch pipeline driver: simulate | mesh | fit | predict | ecc | verify.

Every command reads a flat key=value config file, accepts ``--seed`` and
``--out``, writes its artifacts under the output directory together with a
manifest recording the config hash and seed, and is deterministic given
(config, seed).  A seed is an integer >= 0, and `subseed` gives every seed
and key its own stream.  Evaluation days are processed in date order and
only ever read data strictly before each valid date; a config that selects
none ends every command that reads them before it writes.

Artifacts: ``files.read_cases`` reads and checks cases.csv, and
``data.load_cases`` builds row arrays on its rows (NaN for a missing
observation, f̄ the members' cumulative sum over m divided by m).  Every
artifact is read through ``files.CsvRows``, so a bad header, row length or
cell ends the command with ``error: <file> line <n>: <reason>``.
``mesh`` writes mesh.json, which ``fit --method memos`` reads.
``fit --method global|local`` writes params_<method>.csv with columns
date,site,a,b,sigma: one row per day, with site ALL, for global EMOS and
one per (date, station) for local EMOS.
``fit --method memos`` writes the posterior draws of each day to
draws_memos/<date>.csv, one row per draw: its five log hyperparameters θ
(log_kappa_a, log_tau_a, log_kappa_b, log_tau_b, log_sigma), its σ, then
a(s) and b(s) at every station, as columns a:<site> and b:<site>.  The
chain's health sits next to them in draws_memos/<date>.json: seed,
acceptance overall and after burn-in (acceptance_post), final proposal
step, invalid_proposals and the draw count n.
The predictive law of a site on a day is an equally weighted Gaussian
mixture with components N(a + b·f̄, σ²), f̄ the site's ensemble mean:
one component per site, from params_<method>.csv, for EMOS and one per
posterior draw, in draw order, from draws_memos/<date>.csv, for MEMOS.
No artifact holds it: ``_read_fit`` reads and checks the fit of a method
for the stations with a case on each evaluation day, on the standard
library alone, and ``verify`` computes mu = a + b·f̄ from it.  A params
row needs a finite a and b and a σ finite and > 0; a repeated (date, site)
in params_<method>.csv, a day or station without a row, a draws file
without a station's columns and draws files whose draw count differs
between days are errors naming the file and the date.  ``predict`` makes
these checks and writes only its manifest.  ``ecc`` makes them too and
writes ens_<method>_<structure>.csv: the header ``seed`` and the one seed
it ran with.  ``verify`` scores every method that has a fit, each on the
evaluation days its fit holds, in one pass per day: it builds each
method's sample once, as one (S, N) array over the day's stations with a
case (``emos.quantile_sample`` of the components; for raw, the sorted
members, n = 1), scores the CRPS, AE and PIT (of global and local EMOS in
closed form), then reorders the sample of each ens_* label by ranks drawn
again from its seed and the date, on the streams ``ecc`` has always used:
``ecc.ecc_ranks`` of the raw members on ``subseed(seed, "ecc-ties",
date)``, or ``ecc.shuffle_ranks`` on ``subseed(seed, "independence",
date)``; ``ecc.reorder`` reorders every block of L values of a site's row
by them.  An ens_* file named for no method and structure, or without
exactly one seed row, is an error.  mesh.json and the draws sidecars are
read through ``files.read_json``, so one that does not parse names its
file.  Every artifact is written through ``files``, under a temporary name
renamed into place once it is whole.

Imports: each CLI run is one process, and most commands do less work than
loading the whole library costs.  So this module imports only the standard
library and ``files`` at module level, after it sets the BLAS thread
default, and each command imports numpy, ``data`` and the model modules it
calls where it calls them.  ``predict`` and ``ecc`` only check their inputs
and write a manifest or a seed, so they run on the standard library alone:
they read cases.csv with ``files.read_cases`` and the fit with
``_read_fit`` (draws files through ``files.read_draws``).  ``fit`` for
global and local EMOS and ``verify`` run on numpy alone: Φ and Φ⁻¹ are
``emos.ndtr`` and ``emos.ndtri`` on the standard library, and the energy
score sums its pair distances from centred Gram blocks, not from SciPy.
No ``fit`` loads ``ecc`` or ``statistics``: only ``verify`` reorders and
builds quantiles.  Only ``mesh``, ``fit --method memos`` and ``simulate``
load SciPy, ``mesh``, ``spde`` or ``memos``.  A fit, chain or mesh that
fails on valid input raises a subclass of ``files.ModelError``; ``main``
reports it, a ValueError or an OSError as one ``error:`` line and exit 1.

Config keys (defaults in parentheses); any other key, or a key set twice, is
an error, and a value that does not parse, or a memos_burnin or sim_sigma
below 0, memos_thin, n, window, min_train, m, eval_days, sim_days or sim_m
below 1, sim_stations below 3, a mesh_min_angle outside 0 < angle <= 34 or
a memos_alpha other than 1 or 2, names its file, line and key:
  seed (0)                 window (25)            min_train (10)
  m (50)                   n (100)                cases (cases.csv)
  eval_start (first date + window)                eval_days (rest of data)
  mesh_min_angle (20)      memos_burnin (1000)    memos_thin (5)
  memos_alpha (1)
  sim_stations (50)  sim_days (60)  sim_m (50)  sim_sigma (1.5)
Everything else is a constant of the study: the defaults of `memos.Priors`,
the truth fields of `data.SimConfig`, 17 histogram bins and no maximum mesh
edge.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import hashlib
import math
import os
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

# Every factorization here is small and banded: one BLAS thread, unless set.
# This runs before any command imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import files  # noqa: E402

if TYPE_CHECKING:
    import numpy as np

    from . import data, memos

METHODS_FIT = ("global", "local", "memos")
METHODS_ALL = ("raw",) + METHODS_FIT

# every key a config file may set; the module docstring lists their defaults
CONFIG_KEYS = (
    "seed", "window", "min_train", "m", "n", "cases", "eval_start", "eval_days",
    "mesh_min_angle", "memos_burnin", "memos_thin", "memos_alpha",
    "sim_stations", "sim_days", "sim_m", "sim_sigma",
)


# the columns of params_<method>.csv and ens_<method>_<structure>.csv
PARAMS_HEADER = ("date", "site", "a", "b", "sigma")
ENS_HEADER = ("seed",)
STRUCTURES = ("ecc", "independence")


class CliError(RuntimeError):
    pass


@contextlib.contextmanager
def _naming(*where):
    """Re-raise a model failure, a training window that is too small, or any
    failure of one station inside a batched local fit, as a CliError that
    names where it happened."""
    from .emos import StationError  # every fit loads emos (memos samples through it)

    try:
        yield
    except StationError as exc:
        raise CliError(f"{' '.join(where)} station {exc.station}: {exc}") from exc
    except (files.ModelError, ValueError) as exc:
        raise CliError(f"{' '.join(where)}: {exc}") from exc


@dataclass
class RunConfig:
    raw: dict = field(default_factory=dict)
    seed: int = 0
    # "<file>:<line>" of each key in `raw`, for errors
    origin: dict = field(default_factory=dict)

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
        cfg = cls(raw=raw, origin={key: f"{p}:{lineno}" for key, lineno in set_on.items()})
        cfg.seed = cfg.get("seed", 0, int, least=0) if seed_override is None else seed_override
        if cfg.seed < 0:  # `get` checks the config's seed
            raise CliError(f"--seed must be >= 0, got {cfg.seed}")
        return cfg

    def get(self, key, default=None, cast=str, least=None, must=None):
        """The value of `key` cast, or `default` if unset.  A value below
        `least`, or one that fails `must`, a pair (test, "must ..."), is an
        error naming the file, line and key."""
        if key not in self.raw or self.raw[key] == "":
            return default
        try:
            value = cast(self.raw[key])
        except ValueError as exc:
            raise CliError(f"{self.origin.get(key, 'config')}: key {key!r}: {exc}") from exc
        if least is not None:
            must = (lambda v: v >= least, f"must be >= {least}")
        if must is not None and not must[0](value):
            raise CliError(f"{self.origin.get(key, 'config')}: key {key!r} {must[1]}, "
                           f"got {value}")
        return value

    def date(self, key, default=None):
        return self.get(key, default, dt.date.fromisoformat)

    @property
    def config_hash(self) -> str:
        canon = "\n".join(f"{k}={self.raw[k]}" for k in sorted(self.raw))
        canon += f"\nseed={self.seed}"
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    def sim_config(self) -> data.SimConfig:
        from . import data

        return data.SimConfig(
            n_stations=self.get("sim_stations", 50, int, least=3),
            n_days=self.get("sim_days", 60, int, least=1),
            m=self.get("sim_m", 50, int, least=1),
            sigma=self.get("sim_sigma", 1.5, float, least=0),
            mesh_min_angle=self.min_angle(),
        )

    def min_angle(self) -> float:
        """The smallest triangle angle of a mesh, in degrees: refinement
        provably ends only up to 34."""
        return self.get("mesh_min_angle", 20.0, float,
                        must=(lambda v: 0 < v <= 34, "must lie in (0, 34]"))

    def priors(self) -> memos.Priors:
        from . import memos

        return memos.Priors()

    def mcmc(self) -> memos.McmcConfig:
        from . import memos

        return memos.McmcConfig(
            burn_in=self.get("memos_burnin", 1000, int, least=0),
            thin=self.get("memos_thin", 5, int, least=1),
            alpha=self.get("memos_alpha", 1, int,
                           must=(lambda v: v in (1, 2), "must be 1 or 2")),
        )


def subseed(seed: int, *keys) -> np.random.SeedSequence:
    """The stream of `keys` under a seed >= 0: every seed has its own."""
    import numpy as np

    return np.random.SeedSequence([int(seed)] + [zlib.crc32(str(key).encode()) for key in keys])


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
    files.write_json(out / f"manifest_{command}.json", manifest)


def _upstream(path: Path, command: str) -> Path:
    """`path`, which `command` writes, if it exists."""
    if not path.exists():
        raise CliError(f"missing upstream file: {path} (run `{command}` first?)")
    return path


def _cases_path(cfg: RunConfig, out: Path) -> Path:
    return _upstream(out / cfg.get("cases", "cases.csv"), "simulate")


def _load_table(cfg: RunConfig, out: Path) -> data.CaseTable:
    from . import data

    return data.load_cases(_cases_path(cfg, out))


def _eval_days(cfg: RunConfig, dates: list) -> list:
    """The evaluation days among `dates`, the sorted dates with a case; none
    is an error."""
    window = cfg.get("window", 25, int, least=1)
    start = cfg.date("eval_start", dates[0] + dt.timedelta(days=window))
    n_days = cfg.get("eval_days", max(1, (dates[-1] - start).days + 1), int, least=1)
    present = set(dates)
    days = [start + dt.timedelta(days=i) for i in range(n_days)
            if start + dt.timedelta(days=i) in present]
    if not days:
        raise CliError("no evaluation days fall inside the dataset")
    return days


def cmd_simulate(cfg: RunConfig, out: Path) -> list:
    from . import data

    table, truth = data.simulate(cfg.sim_config(), cfg.seed)
    cases_path = out / cfg.get("cases", "cases.csv")
    data.write_cases(table, cases_path)
    truth_path = out / "truth.json"
    files.write_json(truth_path, {"a_true": truth.a_true, "b_true": truth.b_true,
                                  "sigma": truth.sigma, "seed": truth.seed})
    print(f"simulate: {len(table)} cases at {len(table.stations)} stations -> {cases_path}")
    return [cases_path, truth_path]


def cmd_mesh(cfg: RunConfig, out: Path) -> list:
    from . import mesh as mesh_mod

    table = _load_table(cfg, out)
    msh = mesh_mod.build_mesh(table.xy, min_angle=cfg.min_angle())
    path = out / "mesh.json"
    files.write_text(path, msh.to_json() + "\n")
    print(f"mesh: {msh.n_vertices} vertices, {len(msh.triangles)} triangles -> {path}")
    return [path]


def cmd_fit(cfg: RunConfig, out: Path, method: str) -> list:
    from . import data

    table = _load_table(cfg, out)
    days = _eval_days(cfg, table.dates)
    window = cfg.get("window", 25, int, least=1)
    min_train = cfg.get("min_train", 10, int, least=1)
    outputs = []

    if method in ("global", "local"):
        from . import emos

        rows = []
        for day in days:
            with _naming(f"fit {method}", day.isoformat()):
                if method == "global":
                    fits = {"ALL": emos.fit_global(table, day, length=window,
                                                   min_cases=min_train)}
                else:
                    fits = emos.fit_local(table, day, table.stations, length=window,
                                          min_cases=min_train)
            rows += ([day.isoformat(), site, repr(p.a), repr(p.b), repr(p.sigma)]
                     for site, p in fits.items())
        path = out / f"params_{method}.csv"
        files.write_rows(path, PARAMS_HEADER, rows)
        outputs.append(path)
    else:
        from . import memos, mesh as mesh_mod

        n, mcmc = cfg.get("n", 100, int, least=1), cfg.mcmc()
        mesh_path = _upstream(out / "mesh.json", "mesh")
        msh = files.read_json(mesh_path, "mesh", mesh_mod.Mesh.from_json)
        for station, point in zip(table.stations, table.xy):
            if mesh_mod.locate(msh, point) is None:
                raise CliError(f"{mesh_path} does not cover station {station} (rerun `mesh`?)")
        draws_dir = out / "draws_memos"
        draws_dir.mkdir(exist_ok=True)
        for day in days:
            with _naming("fit memos", day.isoformat()):
                training = data.rolling_window(table, day, length=window, mode="global",
                                               min_cases=min_train)
                draws = memos.sample_posterior(
                    training,
                    table.stations,
                    table.xy,
                    n=n,
                    seed=subseed(cfg.seed, "memos-fit", day.isoformat()).generate_state(1)[0],
                    mesh=msh,
                    priors=cfg.priors(),
                    config=mcmc,
                )
            path = draws_dir / f"{day.isoformat()}.csv"
            draws.to_csv(path)
            outputs += [path.with_suffix(".json"), path]
    print(f"fit[{method}]: {len(days)} day(s) -> {outputs[-1] if outputs else out}")
    return outputs


def _gaussian(names, cells) -> list:
    """`cells`, named `names`, as floats: all finite, the last, a sigma, > 0."""
    values = list(map(float, cells))
    for name, value in zip(names[:-1], values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 < values[-1] < math.inf:
        raise ValueError(f"{names[-1]} must be finite and > 0, got {values[-1]!r}")
    return values


def _fit_path(out: Path, method: str) -> Path:
    """The fit of `method`: params_<method>.csv, or the draws_memos directory."""
    return out / ("draws_memos" if method == "memos" else f"params_{method}.csv")


def _cased(cases: files.Cases, days) -> dict:
    """{date: sorted ids of the stations with a case on it} of each of `days`."""
    ids, on = list(cases.stations), {}
    for ordinal, k in zip(cases.ordinal, cases.station):
        on.setdefault(ordinal, []).append(ids[k])
    return {day.isoformat(): sorted(on[day.toordinal()]) for day in days}


def _read_fit(out: Path, method: str, cased: dict, every_day: bool = True) -> dict:
    """{date: (sites, a, b, sigma)} of the fit of `method` on each day of
    `cased` ({date: sorted sites}): n × S lists of the components
    N(a + b·f̄, σ²) at the sites, one row of params_<method>.csv per site
    (n = 1) for EMOS and one row per posterior draw, in draw order, for
    MEMOS.  A repeated params row, a site without a fit, a draw count that
    differs between days and a bad cell are errors naming the file; so is a
    day without a fit if `every_day`, and otherwise that day is left out."""
    fit = {}
    _upstream(_fit_path(out, method), "fit")
    if method == "memos":
        first = None  # the first day's draws file and draw count
        for key, sites in cased.items():
            path = out / "draws_memos" / f"{key}.csv"
            if not (every_day or path.exists()):
                continue
            draws = files.read_draws(_upstream(path, "fit"))
            first = first or (path, len(draws.rows))
            if len(draws.rows) != first[1]:
                raise CliError(f"{path} holds {len(draws.rows)} draws, but {first[0]} holds "
                               f"{first[1]} (rerun `{files.RERUN_FIT}`)")
            k, width = len(files.DRAWS_HEADER), len(draws.sites)
            col = {site: j for j, site in enumerate(draws.sites, start=k)}
            missing = [site for site in sites if site not in col]
            if missing:
                raise CliError(f"{path}: site {missing[0]} has no columns")
            cols = [col[site] for site in sites]
            fit[key] = (sites, [[row[j] for j in cols] for row in draws.rows],
                        [[row[j + width] for j in cols] for row in draws.rows],
                        [[row[k - 1]] * len(sites) for row in draws.rows])
        return fit
    path, params = out / f"params_{method}.csv", {}  # {date: {site: [a, b, sigma]}}
    with files.CsvRows(path, PARAMS_HEADER, name=path.name,
                       rerun=f"fit --method {method}") as rows:
        for key, site, *cells in rows:
            if site in params.setdefault(key, {}):
                raise ValueError(f"repeated row for {key} site {site}")
            params[key][site] = _gaussian(PARAMS_HEADER[2:], cells)
    for key, sites in cased.items():
        if not (every_day or key in params):
            continue
        fitted = ["ALL"] * len(sites) if method == "global" else sites
        lacking = [key] if key not in params else [
            f"{key} station {site}" for site in fitted if site not in params[key]]
        if lacking:
            raise CliError(f"no fitted parameters for {lacking[0]} in {path}")
        a, b, sigma = zip(*(params[key][site] for site in fitted))
        fit[key] = (sites, [list(a)], [list(b)], [list(sigma)])
    return fit


def cmd_predict(cfg: RunConfig, out: Path, method: str) -> list:
    cases = files.read_cases(_cases_path(cfg, out))
    days = _eval_days(cfg, cases.dates)
    _read_fit(out, method, _cased(cases, days))
    print(f"predict[{method}]: {len(days)} day(s)")
    return []


def _check_ecc_size(m: int, members: int, method: str, structure: str) -> None:
    """ECC reorders each site's m quantiles by the ranks of its raw members."""
    if structure == "ecc" and method != "raw" and m != members:
        raise CliError(f"ECC reorders m = {m} quantiles by the ranks of {members} raw members; "
                       f"set m = {members} in the config")


def cmd_ecc(cfg: RunConfig, out: Path, method: str, structure: str) -> list:
    cases = files.read_cases(_cases_path(cfg, out))
    days = _eval_days(cfg, cases.dates)
    _check_ecc_size(cfg.get("m", 50, int, least=1), cases.m, method, structure)
    if method != "raw":
        _read_fit(out, method, _cased(cases, days))
    # verify redraws each day's ranks from this seed, the date and its sample
    path = out / f"ens_{method}_{structure}.csv"
    files.write_text(path, f"{ENS_HEADER[0]}\n{cfg.seed}\n")
    print(f"ecc[{method}/{structure}]: {len(days)} day(s) -> {path}")
    return [path]


def _read_ensembles(out: Path, m: int, members: int) -> dict:
    """{label: (method, structure, seed)} of every ens_<label>.csv in `out`,
    each holding the one seed `ecc` ran with."""
    ensembles = {}
    for path in sorted(out.glob("ens_*.csv")):
        label = path.stem[len("ens_"):]
        method, _, structure = label.rpartition("_")
        if method not in METHODS_ALL or structure not in STRUCTURES:
            raise CliError(f"{path.name}: not an ens_<method>_<structure>.csv of `ecc`, with "
                           f"method {'/'.join(METHODS_ALL)} and structure {'/'.join(STRUCTURES)}")
        _check_ecc_size(m, members, method, structure)
        with files.CsvRows(path, ENS_HEADER, name=path.name, rerun="ecc") as rows:
            seeds = [rows.integer(cells, 0) for cells in rows]
        if len(seeds) != 1:
            raise CliError(f"{path.name}: expected one seed row, got {len(seeds)} (rerun `ecc`?)")
        ensembles[label] = (method, structure, seeds[0])
    return ensembles


def _reordered(key: str, structure: str, seed: int, members, pooled) -> np.ndarray:
    """The day's (S, N) ensemble: the sample `pooled` reordered by ranks
    drawn from `seed` on the streams `ecc` has always used: the ECC ranks of
    the raw `members` of the same sites, or the independence shuffle."""
    import numpy as np

    from . import ecc

    if structure == "ecc":
        rng = np.random.default_rng(subseed(seed, "ecc-ties", key))
        ranks = ecc.ecc_ranks(members, pooled, rng)
    else:  # L = N
        rng = np.random.default_rng(subseed(seed, "independence", key))
        ranks = ecc.shuffle_ranks(*pooled.shape, rng)
    return ecc.reorder(ranks, pooled)


def _predictive(fit: tuple, fbar) -> tuple:
    """(sites, mu, sigma) of a day's `fit` (sites, a, b, sigma) given f̄ at
    its sites: (n, S) arrays of the components N(mu, sigma²)."""
    import numpy as np

    sites, a, b, sigma = fit
    return sites, np.array(a) + np.array(b) * fbar, np.array(sigma)


def _score_days(cfg: RunConfig, table, days, fits: dict, ensembles: dict, m: int) -> tuple:
    """(scores, PIT values, multivariate ranks) of every evaluation day, in
    one pass: each day's (S, N) sample of raw, memos and every ens_* method,
    one row per site with a case, is built once and serves both the
    per-site and the multivariate scores."""
    import numpy as np

    from . import emos, verify

    scores, pit_values, mv_ranks = verify.ScoreSeries(), {}, {}
    sampled = {"memos"} | {method for method, _, _ in ensembles.values()}
    for day in days:
        key = day.isoformat()
        cases = table.on(day)
        mixtures = {method: _predictive(fit[key], cases.fbar)
                    for method, fit in fits.items() if key in fit}
        samples = {method: emos.quantile_sample(mu, sigma, m)
                   for method, (_, mu, sigma) in mixtures.items() if method in sampled}
        if "raw" in sampled:
            samples["raw"] = np.sort(cases.members, axis=1)
        obs = cases.obs.tolist()
        cols = [j for j, y in enumerate(obs) if not math.isnan(y)]
        for j in cols:
            station, members, y = cases.sites[j], cases.members[j], obs[j]
            rng = np.random.default_rng(subseed(cfg.seed, "verify-rank", key, station))
            scores.add(key, station, "raw", "crps", verify.crps_empirical(members, y))
            scores.add(key, station, "raw", "ae", verify.abs_error(members, y))
            pit_values.setdefault("raw", []).append(verify.verification_rank(members, y, rng))
            if "memos" in samples:
                pooled = samples["memos"][j]
                scores.add(key, station, "memos", "crps", verify.crps_empirical(pooled, y))
                scores.add(key, station, "memos", "ae", verify.abs_error(pooled, y))
                pit_values.setdefault("memos", []).append(verify.normalized_rank(pooled, y, rng))
        if not cols:
            continue
        y = np.array([obs[j] for j in cols])
        # one array call per method and day: a call of Φ costs about 7 µs on
        # 50 values, 2.5 µs of it fixed
        for method in ("global", "local"):
            if method not in mixtures:
                continue
            # one component N(mu, sigma²) per site
            sites, mu, sigma = mixtures[method]
            mu, sigma = mu[0, cols], sigma[0, cols]
            crps = emos.crps_gaussian(mu, sigma, y)
            for j, c, u, v in zip(cols, crps, mu, y):
                scores.add(key, sites[j], method, "crps", c)
                scores.add(key, sites[j], method, "ae", abs(u - v))
            pit_values.setdefault(method, []).extend(emos.ndtr((y - mu) / sigma))
        for label, (method, structure, seed) in ensembles.items():
            if method not in samples or len(cols) < 2:
                continue
            # (members, d), C-ordered site rows transposed: the norms sum in memory order
            ens = _reordered(key, structure, seed, cases.members, samples[method])[cols].T
            scores.add(key, "ALL", label, "es", verify.energy_score(ens, y))
            rng = np.random.default_rng(subseed(cfg.seed, "mvrank", label, key))
            rank = verify.multivariate_rank(ens, y, rng)
            mv_ranks.setdefault(label, []).append((rank, len(ens) + 1))
    return scores, pit_values, mv_ranks


def cmd_verify(cfg: RunConfig, out: Path, compare=None, score: str = "crps",
               daily_mean: bool = False, lag: int = 0) -> list:
    import numpy as np

    from . import verify

    table = _load_table(cfg, out)
    days = _eval_days(cfg, table.dates)
    m = cfg.get("m", 50, int, least=1)
    bins = 17
    outputs = []

    ensembles = _read_ensembles(out, m, table.m)
    # an ens_* method needs its fit; a method is scored on the days its fit holds
    wanted = {method for method, _, _ in ensembles.values()}
    cased = {day.isoformat(): table.on(day).sites for day in days}
    fits = {method: _read_fit(out, method, cased, every_day=False) for method in METHODS_FIT
            if method in wanted or _fit_path(out, method).exists()}
    scores, pit_values, mv_ranks = _score_days(cfg, table, days, fits, ensembles, m)

    # the DM test runs before any output is written, so a rejected --compare
    # leaves them as they were
    if compare:
        scored = scores.methods(score)
        for method in compare:
            if method not in scored:
                raise CliError(f"--compare: no {score} scores for {method}; methods with "
                               f"{score} scores: {', '.join(scored) or 'none'}")
        method_a, method_b = compare

        def keyed(method):
            if daily_mean:
                return dict(zip(*scores.daily_mean(method, score)))
            return {(d, s): v for d, s, meth, sc, v in scores.rows()
                    if (meth, sc) == (method, score)}

        # {date: daily mean} or {(date, site): score}, paired on the common keys
        rows_a, rows_b = keyed(method_a), keyed(method_b)
        keys = sorted(rows_a.keys() & rows_b.keys())
        series_a = np.array([rows_a[k] for k in keys])
        series_b = np.array([rows_b[k] for k in keys])
        try:
            result = verify.dm_test(series_a, series_b, lag=lag)
        except ValueError as exc:
            raise CliError(f"--compare {method_a} {method_b} on {score}, "
                           f"--lag {lag}: {exc}") from exc

    scores_path = out / "scores.csv"
    scores.to_csv(scores_path)
    outputs.append(scores_path)

    histograms = {}
    for method, values in sorted(pit_values.items()):
        if method == "raw":
            counts = verify.histogram(np.asarray(values), min(bins, table.m + 1),
                                      rank_max=table.m + 1)
        else:
            counts = verify.histogram(np.asarray(values), bins)
        histograms[f"hist_{method}"] = (method, counts)
    for label, ranked in sorted(mv_ranks.items()):
        rank_max = ranked[0][1]
        histograms[f"mvhist_{label}"] = (label, verify.histogram(
            np.asarray([r for r, _ in ranked]), min(bins, rank_max), rank_max=rank_max))
    for name, (label, counts) in histograms.items():
        hist_path = out / f"{name}.csv"
        files.write_rows(hist_path, ["method", "bin", "frequency"],
                         ([label, b, repr(float(freq))] for b, freq in enumerate(counts, start=1)))
        outputs.append(hist_path)

    with_crps = scores.methods("crps")
    for method in METHODS_ALL:
        if method in with_crps:
            print(f"verify: mean crps[{method}] = {scores.mean(method, 'crps'):.4f}")

    if compare:
        dm_path = out / f"dm_{method_a}_{method_b}_{score}.csv"
        files.write_rows(dm_path, ["method_a", "method_b", "score", "statistic", "pvalue",
                                   "mean_difference", "n"],
                         [[method_a, method_b, score, repr(result.statistic),
                           repr(result.pvalue), repr(result.mean_difference), len(series_a)]])
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
    p.add_argument("--structure", choices=STRUCTURES, default="ecc")
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
    except (CliError, ValueError, OSError, files.ModelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
