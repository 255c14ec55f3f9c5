"""The half of reading and writing the pipeline's files that needs only
the standard library, so that a command which only checks its inputs loads
no numpy: `CsvRows`, which reads every CSV artifact (a bad header, field
count or cell is one ``<file> line <n>: <reason>`` error), `write_rows`,
`write_text` and `write_json`, which write every artifact, each under a
temporary name renamed into place once it is whole, `read_json`,
`read_cases`, `read_draws` and `ModelError`.

`read_cases` makes every check of a case file, each naming its line: the
header, a date, coordinate or cell that does not parse, a station that
moves, an empty member cell, a non-finite member or observation, and a
repeated (date, station), in file order, so the first bad line wins; then
non-finite station coordinates and a file without cases.  `data.load_cases`
builds its arrays on these rows and checks nothing more.  `read_draws` does
the same for a day's MEMOS draws file and its sidecar, and
`data.PosteriorDraws.from_csv` builds on it.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import math
import os
from pathlib import Path
from typing import NamedTuple


class ModelError(RuntimeError):
    """A fit, chain or mesh that fails on valid input (`emos.FitError`,
    `memos.McmcError`, `mesh.MeshRefinementError`).  Defined here so that
    callers can catch any of them without importing the model modules."""


class CsvRows:
    """``with CsvRows(path, header) as rows: for cells in rows: ...`` reads a
    CSV file whose first line must be `header` (None leaves that check to
    the caller, as ``rows.header``), skips blank rows and requires as many
    fields as the header on every other row.  A ValueError raised in the
    block, by the caller's parsing too, leaves it as ``<name> line <n>:
    <reason>``, with `name` the path unless given."""

    def __init__(self, path, header=None, *, name=None, rerun=None):
        self.path, self.expected, self.rerun = path, header, rerun
        self.name, self.line = str(path) if name is None else name, 1

    def __enter__(self) -> "CsvRows":
        self._fh = open(self.path, newline="")
        self._reader = csv.reader(self._fh)
        self.header = next(self._reader, None)
        if self.expected is not None and self.header != list(self.expected):
            self._fh.close()
            raise self.error(f"expected the header {','.join(self.expected)}"
                             + (f" (rerun `{self.rerun}`?)" if self.rerun else ""))
        return self

    def __iter__(self):
        width = len(self.header or ())
        for cells in self._reader:
            self.line = self._reader.line_num
            if any(map(str.strip, cells)):
                if len(cells) != width:
                    raise ValueError(f"expected {width} fields, got {len(cells)}")
                yield cells

    def __exit__(self, kind, exc, tb):
        self._fh.close()
        if isinstance(exc, (ValueError, csv.Error)):
            raise self.error(exc) from exc

    def error(self, reason) -> ValueError:
        return ValueError(f"{self.name} line {self.line}: {reason}")

    def integer(self, cells, k) -> int:
        """cells[k] as an int >= 0; the error names the column."""
        try:
            value = int(cells[k])
        except ValueError:
            raise ValueError(f"{self.header[k]} must be an integer, got {cells[k]!r}") from None
        if value < 0:
            raise ValueError(f"{self.header[k]} must be >= 0, got {value}")
        return value


@contextlib.contextmanager
def _replacing(path):
    """A text handle on a temporary file next to `path`, renamed onto it if
    the block raises nothing: a failed write leaves the previous file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_rows(path, header, rows) -> None:
    """Write `header` and `rows` as CSV (CRLF line ends) to `path`."""
    with _replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_text(path, text: str) -> None:
    """Write `text` to `path` as it is, without line-end translation."""
    with _replacing(path) as fh:
        fh.write(text)


def write_json(path, value) -> None:
    """Write `value` as one line of compact JSON with sorted keys."""
    write_text(path, json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n")


def read_json(path, rerun: str, parse=json.loads):
    """parse(text of `path`), by default its JSON value.  A file that does
    not parse, or a ValueError of `parse`, names the file and the command
    that writes it."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc} (rerun `{rerun}`?)") from None


CASE_COLUMNS = ("date", "station", "lon", "lat", "obs")


class Cases(NamedTuple):
    """The rows of a case file, in file order: row r is the case of
    ``date.fromordinal(ordinal[r])`` at the `station[r]`-th key of
    `stations`, with observation `obs[r]` (NaN if missing) and the m members
    ``members[r*m:(r+1)*m]``."""

    stations: dict    # station id -> (lon, lat), in order of first appearance
    ordinal: list
    station: list
    obs: list
    members: list     # flat, row-major
    m: int

    @property
    def dates(self) -> list:
        """The dates with a case, sorted."""
        return [dt.date.fromordinal(o) for o in sorted(set(self.ordinal))]


def read_cases(path) -> Cases:
    """Read and check a case CSV.

    Member columns are `m1..mK` in the header; K fixes the ensemble size
    for the whole file.  An empty observation cell is a missing observation
    (NaN); an empty member cell, a non-finite member or observation, or a
    second case of a (date, station) is an error naming the file and line.
    """
    with CsvRows(path) as rows:
        header = rows.header
        if header is None:
            raise ValueError("empty file")
        for col in CASE_COLUMNS:
            if col not in header:
                raise ValueError(f"header missing column {col!r}")
        numbered = sorted((int(name[1:]), k) for k, name in enumerate(header)
                          if name.startswith("m") and name[1:].isdigit())
        if not numbered:
            raise ValueError("no member columns with prefix 'm'")
        if [n for n, _ in numbered] != list(range(1, len(numbered) + 1)):
            raise ValueError("member columns must be numbered 1..K without gaps")
        i_date, i_station, i_lon, i_lat, i_obs = map(header.index, CASE_COLUMNS)
        midx = [k for _, k in numbered]

        ordinal_of, index_of, coords, seen = {}, {}, [], set()
        ordinals, stations, obs, values = [], [], [], []
        for cells in rows:
            text = cells[i_date]
            if text not in ordinal_of:
                ordinal_of[text] = dt.date.fromisoformat(text.strip()).toordinal()
            name = cells[i_station].strip()
            lonlat = float(cells[i_lon]), float(cells[i_lat])
            k = index_of.setdefault(name, len(coords))
            if k == len(coords):
                coords.append(lonlat)
            elif coords[k] != lonlat:
                raise ValueError(f"station {name!r} moved between rows")
            cell = cells[i_obs].strip()
            y = float(cell) if cell else math.nan
            if cell and not math.isfinite(y):
                raise ValueError(f"non-finite observation at {text.strip()} {name}")
            try:
                members = list(map(float, map(cells.__getitem__, midx)))
            except ValueError:
                if not all(cells[j].strip() for j in midx):
                    raise ValueError("inconsistent ensemble size (missing member values; "
                                     f"expected {len(midx)})") from None
                raise
            case = ordinal_of[text], k
            if case in seen or not all(map(math.isfinite, members)):
                what = "duplicate case for" if case in seen else "non-finite member value at"
                raise ValueError(f"{what} {dt.date.fromordinal(case[0])} {name}")
            seen.add(case)
            ordinals.append(case[0])
            stations.append(k)
            obs.append(y)
            values += members
        if not ordinals:
            raise ValueError("no cases")

    located = dict(zip(index_of, coords))
    for name, lonlat in located.items():
        if not all(map(math.isfinite, lonlat)):
            raise ValueError(f"non-finite coordinates for station {name!r}")
    return Cases(located, ordinals, stations, obs, values, len(midx))


# the columns of a draws file before its a:<site> and b:<site> columns: θ, then σ
DRAWS_HEADER = ("log_kappa_a", "log_tau_a", "log_kappa_b", "log_tau_b", "log_sigma", "sigma")
# the entries of a draws sidecar: the draw count n, then the chain's health
HEALTH_KEYS = ("n", "seed", "acceptance", "final_step", "invalid_proposals", "acceptance_post")
RERUN_FIT = "fit --method memos"


class Draws(NamedTuple):
    """A draws file and its sidecar: ``rows[i]`` holds draw i's θ, its σ,
    then a and b at `sites`, in file order, and `health` the sidecar's
    entries."""

    sites: list
    rows: list
    health: dict


def read_draws(path) -> Draws:
    """Read and check a day's draws file and its sidecar, `path` with suffix
    .json.  The header must be ``DRAWS_HEADER, a:<site>..., b:<site>...``
    with each site once; every cell must be finite and every sigma > 0; the
    sidecar must be a JSON object with every entry of `HEALTH_KEYS`, and the
    file must hold its n >= 1 rows."""
    values = []
    with CsvRows(path, rerun=RERUN_FIT) as rows:
        header, k = rows.header or [], len(DRAWS_HEADER)
        sites = [name[2:] for name in header[k:k + (len(header) - k) // 2]]
        if header != [*DRAWS_HEADER, *("a:" + s for s in sites),
                      *("b:" + s for s in sites)] or len(set(sites)) < len(sites):
            raise ValueError(f"expected the header {','.join(DRAWS_HEADER)},a:<site>...,"
                             f"b:<site>... with each site once (rerun `{RERUN_FIT}`?)")
        for cells in rows:
            row = list(map(float, cells))
            bad = next((j for j, v in enumerate(row) if not math.isfinite(v)), None)
            if bad is not None:
                raise ValueError(f"{header[bad]} must be finite, got {row[bad]!r}")
            if not row[k - 1] > 0.0:
                raise ValueError(f"sigma must be > 0, got {row[k - 1]!r}")
            values.append(row)
    sidecar = Path(path).with_suffix(".json")
    health = read_json(sidecar, RERUN_FIT)
    if not isinstance(health, dict):
        raise ValueError(f"{sidecar} must hold a JSON object, got {type(health).__name__} "
                         f"(rerun `{RERUN_FIT}`)")
    if "n" in health and len(values) != health["n"]:
        raise ValueError(f"{path} holds {len(values)} draws, but {sidecar} has "
                         f"n = {health['n']!r} (rerun `{RERUN_FIT}`)")
    if not values:
        raise ValueError(f"{path} holds no draws (rerun `{RERUN_FIT}`)")
    missing = [key for key in HEALTH_KEYS if key not in health]
    if missing:
        raise ValueError(f"{sidecar} has no {missing[0]!r} entry (rerun `{RERUN_FIT}`)")
    return Draws(sites, values, health)
