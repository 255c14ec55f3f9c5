"""Forecast/observation cases, rolling training windows, synthetic data
and the on-disk MEMOS posterior draws.

The on-disk case format is a CSV with columns ``date,station,lon,lat,obs,
m1,...,mK`` (ISO-8601 dates, ``.`` decimal separator, empty ``obs`` for a
missing observation).  Longitude/latitude are projected to planar km with
an equirectangular projection about the domain centroid, so that field
range parameters live in a metric space.
"""

from __future__ import annotations

import bisect
import csv
import datetime as dt
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

EARTH_RADIUS_KM = 6371.0088


class ModelError(RuntimeError):
    """A fit, chain or mesh that fails on valid input (`emos.FitError`,
    `memos.McmcError`, `mesh.MeshRefinementError`).  Defined here so that
    callers can catch any of them without importing the model modules."""


@dataclass(frozen=True)
class Location:
    """Observation or prediction site with planar coordinates in km."""

    id: str
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates for station {self.id!r}")


@dataclass(frozen=True)
class ForecastCase:
    """One (date, station) record: m ensemble members plus optional observation."""

    date: dt.date
    station: str
    members: tuple
    observation: Optional[float] = None

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("empty ensemble")
        if not all(math.isfinite(v) for v in self.members):
            raise ValueError(f"non-finite member value at {self.date} {self.station}")
        if self.observation is not None and not math.isfinite(self.observation):
            raise ValueError(f"non-finite observation at {self.date} {self.station}")

    @property
    def fbar(self) -> float:
        return ensemble_mean(self.members)


def ensemble_mean(members) -> float:
    """Arithmetic mean of the ensemble members."""
    members = list(members)
    if not members:
        raise ValueError("ensemble_mean of empty member list")
    return float(sum(members)) / len(members)


class CaseTable:
    """Immutable station-indexed collection of forecast cases.

    All cases must share the same ensemble size m, station ids must map to
    a single Location, and at most one case may exist per (date, station).
    """

    def __init__(self, cases: Iterable[ForecastCase], locations: Iterable[Location]):
        self.cases = tuple(cases)
        locs = list(locations)
        ids = [loc.id for loc in locs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate station ids in location list")
        self.locations = {loc.id: loc for loc in locs}
        if self.cases:
            m = len(self.cases[0].members)
            for c in self.cases:
                if len(c.members) != m:
                    raise ValueError("inconsistent ensemble size")
                if c.station not in self.locations:
                    raise ValueError(f"case references unknown station {c.station!r}")
            self.m = m
        else:
            self.m = 0
        self._by_date: dict = {}
        # each station's cases with an observation, in date order
        self._observed: dict = {}
        for c in self.cases:
            day = self._by_date.setdefault(c.date, {})
            if c.station in day:
                raise ValueError(f"duplicate case for {c.date} {c.station}")
            day[c.station] = c
            if c.observation is not None:
                self._observed.setdefault(c.station, []).append(c)
        for observed in self._observed.values():
            observed.sort(key=lambda c: c.date)

    def __eq__(self, other):
        return (
            isinstance(other, CaseTable)
            and self.cases == other.cases
            and self.locations == other.locations
        )

    def __len__(self):
        return len(self.cases)

    @property
    def dates(self):
        return sorted(self._by_date)

    @property
    def stations(self):
        return sorted(self.locations)

    def on(self, date: dt.date) -> dict:
        """Cases valid on `date`, keyed by station id."""
        return dict(self._by_date.get(date, {}))


@dataclass
class TrainingSet:
    """Complete (station, f̄, y) triples selected by a rolling window."""

    stations: list
    dates: list
    fbar: np.ndarray
    y: np.ndarray
    locations: dict
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
    """Read a case CSV into a CaseTable.

    Member columns are `m1..mK` in the header; K fixes the ensemble size
    for the whole file.  Rows with an empty observation cell are kept with
    ``observation=None``; a row with any empty or unparsable member cell is
    rejected.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        required = ["date", "station", "lon", "lat", "obs"]
        for col in required:
            if col not in header:
                raise ValueError(f"{path}: header missing column {col!r}")
        member_cols = []
        for name in header:
            if name.startswith("m") and name[1:].isdigit():
                member_cols.append((int(name[1:]), name))
        member_cols.sort()
        if not member_cols:
            raise ValueError(f"{path}: no member columns with prefix 'm'")
        if [k for k, _ in member_cols] != list(range(1, len(member_cols) + 1)):
            raise ValueError(f"{path}: member columns must be numbered 1..K without gaps")
        i_date, i_station, i_lon, i_lat, i_obs = (header.index(name) for name in required)
        midx = [header.index(name) for _, name in member_cols]

        cases = []
        station_coords: dict = {}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
            try:
                date = dt.date.fromisoformat(row[i_date].strip())
                station = row[i_station].strip()
                lon = float(row[i_lon])
                lat = float(row[i_lat])
                obs_cell = row[i_obs].strip()
                obs = float(obs_cell) if obs_cell else None
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            member_cells = [row[j].strip() for j in midx]
            if any(cell == "" for cell in member_cells):
                raise ValueError(
                    f"{path}:{lineno}: inconsistent ensemble size "
                    f"(missing member values; expected {len(midx)})"
                )
            try:
                members = tuple(float(cell) for cell in member_cells)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row ({exc})") from None
            prev = station_coords.get(station)
            if prev is not None and prev != (lon, lat):
                raise ValueError(f"{path}:{lineno}: station {station!r} moved between rows")
            station_coords[station] = (lon, lat)
            cases.append((date, station, members, obs))

    ids = sorted(station_coords)
    lons = np.array([station_coords[s][0] for s in ids])
    lats = np.array([station_coords[s][1] for s in ids])
    xs, ys = _project_lonlat(lons, lats)
    locations = [Location(s, float(x), float(y)) for s, x, y in zip(ids, xs, ys)]
    return CaseTable(
        [ForecastCase(d, s, m, o) for d, s, m, o in cases],
        locations,
    )


def write_cases(table: CaseTable, path) -> None:
    """Write a CaseTable back to the CSV schema (inverse projection about 0°N 0°E)."""
    ids = table.stations
    xs = np.array([table.locations[s].x for s in ids])
    ys = np.array([table.locations[s].y for s in ids])
    lons, lats = _unproject_km(xs, ys)
    lonlat = {s: (lon, lat) for s, lon, lat in zip(ids, lons, lats)}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["date", "station", "lon", "lat", "obs"]
            + [f"m{k}" for k in range(1, table.m + 1)]
        )
        for c in sorted(table.cases, key=lambda c: (c.date, c.station)):
            lon, lat = lonlat[c.station]
            obs = repr(float(c.observation)) if c.observation is not None else ""
            writer.writerow(
                [c.date.isoformat(), c.station, repr(float(lon)), repr(float(lat)), obs]
                + [repr(float(v)) for v in c.members]
            )


@dataclass
class PosteriorDraws:
    """Joint posterior draws of (a(s), b(s), σ) at the prediction sites, as
    `memos.sample_posterior` returns them and `fit --method memos` stores them."""

    sites: list
    a: np.ndarray       # (n, S)
    b: np.ndarray       # (n, S)
    sigma: np.ndarray   # (n,)
    theta: np.ndarray   # (n, 5) log-scale chain states
    seed: int
    acceptance: float
    final_step: float = float("nan")
    invalid_proposals: int = 0
    acceptance_post: float = float("nan")   # over the kept (post-burn-in) steps

    @property
    def n(self) -> int:
        return len(self.sigma)

    def to_csv(self, path) -> None:
        """Write the draws to `path` and the chain's health (seed,
        acceptance overall and after burn-in, final step, invalid proposals,
        kept θ chain) to the sidecar `path` with suffix .json."""
        health = {"seed": self.seed, "acceptance": float(self.acceptance),
                  "acceptance_post": float(self.acceptance_post),
                  "final_step": float(self.final_step),
                  "invalid_proposals": int(self.invalid_proposals),
                  "theta": self.theta.tolist()}
        Path(path).with_suffix(".json").write_text(
            json.dumps(health, sort_keys=True, separators=(",", ":")) + "\n")
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["draw", "site", "a", "b", "sigma"])
            for i in range(self.n):
                for j, site in enumerate(self.sites):
                    writer.writerow(
                        [i + 1, site, repr(float(self.a[i, j])),
                         repr(float(self.b[i, j])), repr(float(self.sigma[i]))]
                    )

    @classmethod
    def from_csv(cls, path) -> "PosteriorDraws":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                rows.append((int(row["draw"]), row["site"], float(row["a"]),
                             float(row["b"]), float(row["sigma"])))
        draws = sorted({r[0] for r in rows})
        sites = sorted({r[1] for r in rows})
        sidx = {s: j for j, s in enumerate(sites)}
        didx = {d: i for i, d in enumerate(draws)}
        a = np.empty((len(draws), len(sites)))
        b = np.empty_like(a)
        sigma = np.empty(len(draws))
        read = np.zeros(a.shape, dtype=bool)
        for d, s, av, bv, sv in rows:
            i, j = didx[d], sidx[s]
            if read[i, j]:
                raise ValueError(f"{path}: draw {d} has two rows for site {s}")
            if read[i].any() and sv != sigma[i]:
                raise ValueError(f"{path}: draw {d} has sigma {float(sigma[i])!r} and {sv!r}")
            a[i, j], b[i, j], sigma[i] = av, bv, sv
            read[i, j] = True
        if not read.all():
            i, j = np.argwhere(~read)[0]
            raise ValueError(f"{path}: draw {draws[i]} has no row for site {sites[j]}")
        sidecar = Path(path).with_suffix(".json")
        health = json.loads(sidecar.read_text())
        try:
            n = len(health["theta"])
            if draws != list(range(1, n + 1)):
                missing = sorted(set(range(1, n + 1)) - set(draws))
                raise ValueError(f"{path}: draw {missing[0]} has no rows" if missing else
                                 f"{path}: draw {next(d for d in draws if not 1 <= d <= n)}"
                                 f" is outside the draws 1..{n} of {sidecar}")
            return cls(sites=sites, a=a, b=b, sigma=sigma,
                       theta=np.array(health["theta"], dtype=float).reshape(len(draws), 5),
                       seed=health["seed"], acceptance=health["acceptance"],
                       final_step=health["final_step"],
                       invalid_proposals=health["invalid_proposals"],
                       acceptance_post=health["acceptance_post"])
        except KeyError as exc:
            raise ValueError(f"{sidecar} has no {exc} entry (rerun `fit --method memos`)") from exc


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
        selected = []
        for k in range(length):
            day = table._by_date.get(start + dt.timedelta(days=k), {})
            selected += [day[s] for s in sorted(day) if day[s].observation is not None]
        label = f"global[{start.isoformat()}..{(valid_date - dt.timedelta(days=1)).isoformat()}]"
    else:
        if station is None:
            raise ValueError("local mode requires a station id")
        if station not in table.locations:
            raise ValueError(f"unknown station {station!r}")
        observed = table._observed.get(station, [])
        before = bisect.bisect_left(observed, valid_date, key=lambda c: c.date)
        selected = observed[max(0, before - length):before]
        label = f"local[{station}, {len(selected)} dates]"

    if len(selected) < min_cases:
        raise ValueError(
            f"insufficient training data: {len(selected)} cases before "
            f"{valid_date.isoformat()} (minimum {min_cases})"
        )
    return TrainingSet(
        stations=[c.station for c in selected],
        dates=[c.date for c in selected],
        fbar=np.array([c.fbar for c in selected]),
        y=np.array([c.observation for c in selected]),
        locations={s: table.locations[s] for s in sorted({c.station for c in selected})},
        window=label,
    )


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
    locations = [
        Location(f"S{i:0{width}d}", float(x), float(y))
        for i, (x, y) in enumerate(coords, start=1)
    ]

    if config.field_mode == "gmrf":
        msh = mesh_mod.build_mesh(
            locations, min_angle=config.mesh_min_angle, node_budget_factor=40
        )
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

    cases = []
    for t in range(config.n_days):
        date = SIM_START + dt.timedelta(days=t)
        seasonal = BASE_AMPLITUDE * math.sin(2 * math.pi * t / BASE_PERIOD)
        centers = BASE_MEAN + seasonal + rng.normal(0.0, BASE_SD, size=config.n_stations)
        perts = rng.standard_normal((config.n_stations, config.m)) * MEMBER_SPREAD
        members = centers[:, None] + perts
        fbar = members.mean(axis=1)
        noise = (
            rng.normal(0.0, config.sigma, size=config.n_stations)
            if config.sigma > 0
            else np.zeros(config.n_stations)
        )
        y = a_st + b_st * fbar + noise
        for i, loc in enumerate(locations):
            cases.append(
                ForecastCase(date, loc.id, tuple(float(v) for v in members[i]), float(y[i]))
            )

    table = CaseTable(cases, locations)
    truth = TruthRecord(
        a_true={loc.id: float(a_st[i]) for i, loc in enumerate(locations)},
        b_true={loc.id: float(b_st[i]) for i, loc in enumerate(locations)},
        sigma=config.sigma,
        mesh=msh,
        seed=int(seed),
    )
    return table, truth
