"""Forecast/observation cases, rolling training windows, synthetic data
and the on-disk MEMOS posterior draws: the half of the package's data
handling that computes with numpy.  Reading and checking the files, on the
standard library alone, is `files`.

The on-disk case format is a CSV with columns ``date,station,lon,lat,obs,
m1,...,mK`` (ISO-8601 dates, ``.`` decimal separator, empty ``obs`` for a
missing observation).  `files.read_cases` makes every check of a case
file; `load_cases` builds a `CaseTable` on its rows.  A `CaseTable` holds
the cases as row arrays sorted by (date, station), NaN marking a missing
observation, and f̄ as the members' cumulative sum over m (left to right,
one rounding per addition) divided by m.  Longitude/latitude are projected
to planar km with an equirectangular projection about the domain centroid,
so that field range parameters live in a metric space.

A day's MEMOS posterior draws are one CSV row per draw (`PosteriorDraws`):
the five log hyperparameters θ, σ, then a(s) and b(s) at every site, with
the chain's health and the draw count n in a JSON sidecar.
`files.read_draws` reads and checks them, and `PosteriorDraws.from_csv`
builds its arrays on its rows.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .files import CASE_COLUMNS, DRAWS_HEADER, read_cases, read_draws, write_json, write_rows

EARTH_RADIUS_KM = 6371.0088


class Day(NamedTuple):
    """One date's rows of a CaseTable, in station order."""

    sites: list           # station ids
    members: np.ndarray   # (k, m)
    obs: np.ndarray       # (k,), NaN where unobserved
    fbar: np.ndarray      # (k,)


class CaseTable:
    """Forecast cases as row arrays sorted by (date, station).

    Row r is the case of ``dates[day[r]]`` at ``stations[station[r]]``: the
    m ensemble members ``members[r]``, the observation ``obs[r]`` (NaN if
    missing) and ``fbar[r] = cumsum(members[r])[-1] / m``.  `dates` holds
    the dates with a case and `stations` the station ids, both sorted; row
    s of the (S, 2) array `xy` holds the planar km coordinates of
    ``stations[s]``.
    """

    def __init__(self, stations, xy, ordinal, station, members, obs):
        """Rows in any order, `ordinal` being ``date.toordinal()`` and `station`
        an index into `stations` and the rows of `xy`, at most one per (date,
        station), with finite members and observations finite or NaN:
        `files.read_cases` checks a file for this, and `simulate` draws such
        rows."""
        stations = list(stations)
        by_id = sorted(range(len(stations)), key=stations.__getitem__)
        self.stations = [stations[k] for k in by_id]
        if len(set(self.stations)) != len(by_id):
            raise ValueError("duplicate station ids")
        self.xy = np.asarray(xy, dtype=float)[by_id]
        station = np.argsort(by_id)[np.asarray(station, dtype=np.intp)]  # into self.stations
        ordinal, obs = np.asarray(ordinal, dtype=np.int64), np.asarray(obs, dtype=float)
        members = np.asarray(members, dtype=float)  # (rows, m)
        ordinals, day = np.unique(ordinal, return_inverse=True)
        order = np.lexsort((station, day))
        self.dates = [dt.date.fromordinal(int(o)) for o in ordinals]
        self.day, self.station = day[order], station[order]
        self.members, self.obs = members[order], obs[order]
        self.m = members.shape[1]
        self.fbar = np.cumsum(self.members, axis=1)[:, -1] / self.m
        # the dates' ordinals, and the first row of each date
        self._ordinals, self._start = ordinals, np.searchsorted(self.day, range(len(ordinals) + 1))

    def __eq__(self, other):
        return (isinstance(other, CaseTable) and self.stations == other.stations
                and self.dates == other.dates and all(np.array_equal(
                    getattr(self, k), getattr(other, k), equal_nan=k == "obs")
                    for k in ("xy", "day", "station", "members", "obs")))

    def __len__(self):
        return len(self.obs)

    def _rows(self, first: dt.date, stop: dt.date) -> slice:
        """The rows of the dates in [first, stop)."""
        lo, hi = np.searchsorted(self._ordinals, [first.toordinal(), stop.toordinal()])
        return slice(self._start[lo], self._start[hi])

    def on(self, date: dt.date) -> Day:
        """The rows of `date`."""
        rows = self._rows(date, date + dt.timedelta(days=1))
        return Day([self.stations[s] for s in self.station[rows].tolist()],
                   self.members[rows], self.obs[rows], self.fbar[rows])


@dataclass
class TrainingSet:
    """Complete (station, f̄, y) triples selected by a rolling window; row r
    of the (n, 2) array `xy` holds the planar km coordinates of
    ``stations[r]``."""

    stations: list
    dates: list
    fbar: np.ndarray
    y: np.ndarray
    xy: np.ndarray
    window: str

    def __len__(self):
        return len(self.stations)


def _project_lonlat(lon: np.ndarray, lat: np.ndarray) -> tuple:
    """Equirectangular projection to km about the centroid of the inputs."""
    lon0, lat0 = float(np.mean(lon)), float(np.mean(lat))
    x = EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * np.radians(lon - lon0)
    y = EARTH_RADIUS_KM * np.radians(lat - lat0)
    return x, y


def _unproject_km(x: np.ndarray, y: np.ndarray) -> tuple:
    """Inverse of `_project_lonlat` about (0°, 0°); used when writing synthetic data."""
    lon = np.degrees(np.asarray(x) / EARTH_RADIUS_KM)
    lat = np.degrees(np.asarray(y) / EARTH_RADIUS_KM)
    return lon, lat


def load_cases(path) -> CaseTable:
    """Read a case CSV into a CaseTable: `files.read_cases` reads and checks
    its rows, and the stations' lon/lat are projected to planar km."""
    cases = read_cases(path)
    ids = sorted(cases.stations)
    # projected in sorted-id order, since the centroid's bits depend on it
    xy = np.column_stack(_project_lonlat(*np.array([cases.stations[s] for s in ids]).T))
    index = {s: k for k, s in enumerate(ids)}
    return CaseTable(ids, xy, cases.ordinal,
                     np.array([index[s] for s in cases.stations])[cases.station],
                     np.array(cases.members).reshape(len(cases.obs), cases.m), cases.obs)


def write_cases(table: CaseTable, path) -> None:
    """Write a CaseTable back to the CSV schema (inverse projection about 0°N 0°E)."""
    lonlat = [(repr(lon), repr(lat))
              for lon, lat in np.column_stack(_unproject_km(*table.xy.T)).tolist()]
    dates = [d.isoformat() for d in table.dates]
    write_rows(path, list(CASE_COLUMNS) + [f"m{k}" for k in range(1, table.m + 1)],
               ([dates[day], table.stations[station], *lonlat[station],
                 "" if math.isnan(y) else repr(y), *map(repr, members)]
                for day, station, y, members in zip(table.day.tolist(), table.station.tolist(),
                                                    table.obs.tolist(), table.members.tolist())))


@dataclass
class PosteriorDraws:
    """Joint posterior draws of (a(s), b(s), σ) at the prediction sites, as
    `memos.sample_posterior` returns them and `fit --method memos` stores them:
    draw i is the kept chain state θ = theta[i], its σ = sigma[i] and the
    fields a[i], b[i] at the sites."""

    sites: list
    a: np.ndarray       # (n, S)
    b: np.ndarray       # (n, S)
    sigma: np.ndarray   # (n,)
    theta: np.ndarray   # (n, 5) log-scale chain states, in DRAWS_HEADER order
    seed: int
    acceptance: float
    final_step: float = float("nan")
    invalid_proposals: int = 0
    acceptance_post: float = float("nan")   # over the kept (post-burn-in) steps

    @property
    def n(self) -> int:
        return len(self.sigma)

    def to_csv(self, path) -> None:
        """Write one row per draw to `path`, under the header ``DRAWS_HEADER,
        a:<site>..., b:<site>...``: its θ, its σ, then a and b at the sites in
        the same order.  The chain's health (seed, acceptance overall and
        after burn-in, final step, invalid proposals) and the draw count n go
        to the sidecar `path` with suffix .json."""
        health = {"seed": self.seed, "acceptance": float(self.acceptance),
                  "acceptance_post": float(self.acceptance_post),
                  "final_step": float(self.final_step),
                  "invalid_proposals": int(self.invalid_proposals), "n": self.n}
        write_json(Path(path).with_suffix(".json"), health)
        write_rows(path, [*DRAWS_HEADER, *(f"a:{s}" for s in self.sites),
                          *(f"b:{s}" for s in self.sites)],
                   (map(repr, [*theta, sigma, *a, *b]) for theta, sigma, a, b in zip(
                       self.theta.tolist(), self.sigma.tolist(), self.a.tolist(),
                       self.b.tolist())))

    @classmethod
    def from_csv(cls, path) -> "PosteriorDraws":
        """Read the draws that `to_csv` wrote, with their sidecar, the sites
        sorted; `files.read_draws` checks them."""
        draws = read_draws(path)
        sites, k, health = draws.sites, len(DRAWS_HEADER), draws.health
        grid = np.array(draws.rows, dtype=float).reshape(len(draws.rows), k + 2 * len(sites))
        by_site = sorted(range(len(sites)), key=sites.__getitem__)
        return cls(sites=sorted(sites), a=grid[:, [k + j for j in by_site]],
                   b=grid[:, [k + len(sites) + j for j in by_site]],
                   sigma=grid[:, k - 1], theta=grid[:, :k - 1],
                   seed=health["seed"], acceptance=health["acceptance"],
                   final_step=health["final_step"],
                   invalid_proposals=health["invalid_proposals"],
                   acceptance_post=health["acceptance_post"])


def rolling_window(
    table: CaseTable,
    valid_date: dt.date,
    length: int = 25,
    mode: str = "global",
    station: Optional[str] = None,
    min_cases: int = 10,
) -> TrainingSet:
    """Training cases preceding `valid_date`.

    Global mode pools every case with an observation in the `length`
    calendar days immediately before the valid date.  Local mode takes, for
    one station, the most recent `length` distinct dates with available
    data, reaching further back than the calendar window if needed.
    """
    if length < 1:
        raise ValueError("window length must be >= 1")
    if mode not in ("global", "local"):
        raise ValueError(f"unknown window mode {mode!r}")

    if mode == "global":
        start = valid_date - dt.timedelta(days=length)
        rows = table._rows(start, valid_date)
        selected = rows.start + np.flatnonzero(~np.isnan(table.obs[rows]))
        label = f"global[{start.isoformat()}..{(valid_date - dt.timedelta(days=1)).isoformat()}]"
    else:
        if station is None:
            raise ValueError("local mode requires a station id")
        if station not in table.stations:
            raise ValueError(f"unknown station {station!r}")
        # the station's observed rows before the valid date, in date order
        stop = table._rows(valid_date, valid_date).stop
        selected = np.flatnonzero((table.station[:stop] == table.stations.index(station))
                                  & ~np.isnan(table.obs[:stop]))[-length:]
        label = f"local[{station}, {len(selected)} dates]"

    if len(selected) < min_cases:
        raise ValueError(
            f"insufficient training data: {len(selected)} cases before "
            f"{valid_date.isoformat()} (minimum {min_cases})"
        )
    station = table.station[selected]
    return TrainingSet([table.stations[s] for s in station.tolist()],
                       [table.dates[d] for d in table.day[selected].tolist()],
                       table.fbar[selected], table.obs[selected], table.xy[station], label)


# Synthetic data: SIM_START is the first date, and stations are uniform over
# the middle 90 % of a DOMAIN_KM × DOMAIN_KM square.
SIM_START = dt.date(2010, 6, 1)
DOMAIN_KM = 10.0

# Synthetic forecast centres: BASE_MEAN + BASE_AMPLITUDE·sin(2πt/BASE_PERIOD)
# plus N(0, BASE_SD²) per station and day; members add N(0, MEMBER_SPREAD²).
BASE_MEAN = 10.0
BASE_AMPLITUDE = 8.0
BASE_PERIOD = 365.0
BASE_SD = 3.0
MEMBER_SPREAD = 1.5


@dataclass(frozen=True)
class SimConfig:
    """Ground-truth generator settings.

    Bias fields a*(s), b*(s) are drawn from the SPDE-based random field on a
    triangulation of the simulated station set (``field_mode="gmrf"``), or
    held constant at (a_mean, b_mean) for degenerate checks.  ``alpha=2``
    gives smooth truth fields.
    """

    n_stations: int = 50
    n_days: int = 60
    m: int = 50
    sigma: float = 1.5
    kappa_a: float = 0.9
    tau_a: float = 0.5
    kappa_b: float = 0.9
    tau_b: float = 8.0
    a_mean: float = 0.0
    b_mean: float = 1.0
    alpha: int = 2
    field_mode: str = "gmrf"
    mesh_min_angle: float = 20.0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")
        if self.field_mode not in ("gmrf", "constant"):
            raise ValueError(f"unknown field_mode {self.field_mode!r}")
        if self.field_mode == "gmrf":
            for name in ("kappa_a", "tau_a", "kappa_b", "tau_b"):
                if getattr(self, name) <= 0:
                    raise ValueError(f"{name} must be > 0")
        if self.n_stations < 3 or self.n_days < 1 or self.m < 1:
            raise ValueError("need >=3 stations, >=1 day, >=1 member")


@dataclass
class TruthRecord:
    """Latent values behind a simulated CaseTable."""

    a_true: dict
    b_true: dict
    sigma: float
    mesh: object
    seed: int


def simulate(config: SimConfig, seed: int):
    """Generate a synthetic CaseTable plus the TruthRecord that produced it.

    Pure function of (config, seed): station placement, field draws, member
    perturbations and observation noise all come from one seeded generator
    in a fixed order.  y = a*(s) + b*(s)·f̄ + N(0, σ*²) with f̄ the realized
    ensemble mean.
    """
    from . import mesh as mesh_mod
    from . import spde as spde_mod

    rng = np.random.default_rng(np.random.SeedSequence([0x5EED, int(seed)]))
    coords = rng.uniform(0.05 * DOMAIN_KM, 0.95 * DOMAIN_KM, size=(config.n_stations, 2))
    width = max(2, len(str(config.n_stations)))
    ids = [f"S{i:0{width}d}" for i in range(1, config.n_stations + 1)]

    if config.field_mode == "gmrf":
        msh = mesh_mod.build_mesh(coords, min_angle=config.mesh_min_angle, node_budget_factor=40)
        proj = mesh_mod.projector(msh, coords)
        ops = spde_mod.assemble_fem(msh)
        q_a = spde_mod.precision(ops, config.kappa_a, config.tau_a, alpha=config.alpha)
        q_b = spde_mod.precision(ops, config.kappa_b, config.tau_b, alpha=config.alpha)
        w_a = spde_mod.sample_gmrf(q_a, 1, rng)[0]
        w_b = spde_mod.sample_gmrf(q_b, 1, rng)[0]
        a_st = config.a_mean + proj @ w_a
        b_st = config.b_mean + proj @ w_b
    else:
        msh = None
        a_st = np.full(config.n_stations, config.a_mean)
        b_st = np.full(config.n_stations, config.b_mean)

    n, S = config.n_days, config.n_stations
    members = np.empty((n, S, config.m))
    obs = np.empty((n, S))
    for t in range(n):
        seasonal = BASE_AMPLITUDE * math.sin(2 * math.pi * t / BASE_PERIOD)
        centers = BASE_MEAN + seasonal + rng.normal(0.0, BASE_SD, size=S)
        perts = rng.standard_normal((S, config.m)) * MEMBER_SPREAD
        members[t] = centers[:, None] + perts
        noise = rng.normal(0.0, config.sigma, size=S) if config.sigma > 0 else np.zeros(S)
        obs[t] = a_st + b_st * members[t].mean(axis=1) + noise

    table = CaseTable(ids, coords, np.repeat(SIM_START.toordinal() + np.arange(n), S),
                      np.tile(np.arange(S), n), members.reshape(n * S, -1), obs.reshape(-1))
    truth = TruthRecord(
        a_true=dict(zip(ids, a_st.tolist())),
        b_true=dict(zip(ids, b_st.tolist())),
        sigma=config.sigma,
        mesh=msh,
        seed=int(seed),
    )
    return table, truth
