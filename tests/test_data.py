"""Tests for case loading, rolling windows, and the synthetic generator."""

import datetime as dt
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fbar_fold, rolling_window_scan

from enspost import cli, data


def write_csv(tmp_path, text, name="cases.csv"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


# a bad row after a good row and a blank line, so on line 4, and its error
BAD_ROWS = [
    ("2010-10-01,A,10.0,50.0,5.5,4.0", "duplicate case for 2010-10-01 A"),
    ("2010-10-02,A,10.0,50.0,5.5,nan", "non-finite member value at 2010-10-02 A"),
    ("2010-10-02,A,10.0,50.0,5.5,-inf", "non-finite member value at 2010-10-02 A"),
    ("2010-10-02,A,10.0,50.0,nan,4.0", "non-finite observation at 2010-10-02 A"),
    ("2010-10-02,A,10.0,50.0,inf,4.0", "non-finite observation at 2010-10-02 A"),
]
BAD_ROW_IDS = ["repeated-case", "nan-member", "inf-member", "nan-obs", "inf-obs"]

# every bad case file of these tests
BAD_FILES = {
    "inconsistent-member-count": """\
        date,station,lon,lat,obs,m1,m2,m3
        2010-10-01,A,10.0,50.0,5.5,5.0,6.0,7.0
        2010-10-02,A,10.0,50.0,5.5,5.0,6.0,
        """,
    "malformed-row": """\
        date,station,lon,lat,obs,m1
        2010-10-01,A,10.0,50.0,5.5,4.0
        2010-10-02,A,10.0,not-a-number,5.5,4.0
        """,
    "header-missing-column": """\
        date,station,lon,obs,m1
        2010-10-01,A,10.0,5.5,4.0
        """,
    "no-member-columns": """\
        date,station,lon,lat,obs
        2010-10-01,A,10.0,50.0,5.5
        """,
    "station-moved": """\
        date,station,lon,lat,obs,m1
        2010-10-01,A,10.0,50.0,5.5,4.0
        2010-10-02,A,11.0,50.0,5.5,4.0
        """,
    "non-finite-coordinates": """\
        date,station,lon,lat,obs,m1
        2010-10-01,A,10.0,50.0,5.5,4.0
        2010-10-01,B,nan,50.5,5.5,4.0
        """,
    "non-finite-member-before-a-repeat": """\
        date,station,lon,lat,obs,m1
        2010-10-01,A,10.0,50.0,5.5,4.0
        2010-10-02,A,10.0,50.0,5.5,nan
        2010-10-02,B,10.5,50.5,5.5,4.0
        2010-10-01,A,10.0,50.0,5.5,4.0
        """,
    **{name: "date,station,lon,lat,obs,m1\n2010-10-01,A,10.0,50.0,5.5,4.0\n\n" + row + "\n"
       for name, (row, _) in zip(BAD_ROW_IDS, BAD_ROWS)},
}


class TestLoadCases:
    def test_two_rows_three_members(self, tmp_path):
        path = write_csv(
            tmp_path,
            """\
            date,station,lon,lat,obs,m1,m2,m3
            2010-10-01,A,10.0,50.0,5.5,5.0,6.0,7.0
            2010-10-01,B,10.5,50.5,3.0,2.0,3.0,4.0
            """,
        )
        table = data.load_cases(path)
        assert table.m == 3
        assert len(table) == 2
        day = table.on(dt.date(2010, 10, 1))
        assert day.sites == ["A", "B"]
        assert day.members.tolist() == [[5.0, 6.0, 7.0], [2.0, 3.0, 4.0]]
        assert day.obs.tolist() == [5.5, 3.0]

    def test_missing_observation_cell(self, tmp_path):
        path = write_csv(
            tmp_path,
            """\
            date,station,lon,lat,obs,m1,m2
            2010-10-01,A,10.0,50.0,,5.0,6.0
            """,
        )
        table = data.load_cases(path)
        assert np.isnan(table.obs[0])

    def test_inconsistent_member_count(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["inconsistent-member-count"])
        with pytest.raises(ValueError, match="inconsistent ensemble size"):
            data.load_cases(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["malformed-row"])
        with pytest.raises(ValueError, match=r"cases\.csv line 3: could not convert"):
            data.load_cases(path)

    @pytest.mark.parametrize("name, message", [
        (name, message) for name, (_, message) in zip(BAD_ROW_IDS, BAD_ROWS)], ids=BAD_ROW_IDS)
    def test_bad_case_names_file_and_line(self, tmp_path, name, message):
        """A repeated (date, station) or a non-finite cell names the file and
        the line; a blank line still counts toward the line number."""
        path = write_csv(tmp_path, BAD_FILES[name])
        with pytest.raises(ValueError) as info:
            data.load_cases(path)
        assert str(info.value) == f"{path} line 4: {message}"

    def test_first_bad_line_wins(self, tmp_path):
        """Every case check runs as its row is read, so a non-finite member
        on line 3 is reported before the repeated case on line 5."""
        path = write_csv(tmp_path, BAD_FILES["non-finite-member-before-a-repeat"])
        with pytest.raises(ValueError) as info:
            data.load_cases(path)
        assert str(info.value) == f"{path} line 3: non-finite member value at 2010-10-02 A"

    def test_non_finite_coordinates_name_the_station(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["non-finite-coordinates"])
        with pytest.raises(ValueError) as info:
            data.load_cases(path)
        assert str(info.value) == "non-finite coordinates for station 'B'"

    def test_header_missing_column(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["header-missing-column"])
        with pytest.raises(ValueError, match="missing column 'lat'"):
            data.load_cases(path)

    def test_no_member_columns(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["no-member-columns"])
        with pytest.raises(ValueError, match="member columns"):
            data.load_cases(path)

    def test_station_moved_error(self, tmp_path):
        path = write_csv(tmp_path, BAD_FILES["station-moved"])
        with pytest.raises(ValueError, match="moved"):
            data.load_cases(path)

    def test_write_read_roundtrip(self, tmp_path):
        cfg = data.SimConfig(n_stations=6, n_days=3, m=4, sigma=0.5)
        table, _ = data.simulate(cfg, 2)
        path = tmp_path / "cases.csv"
        data.write_cases(table, path)
        back = data.load_cases(path)
        assert back.m == table.m
        assert len(back) == len(table)
        assert back.dates == table.dates and back.stations == table.stations
        assert np.array_equal(back.day, table.day)
        assert np.array_equal(back.station, table.station)
        assert back.members == pytest.approx(table.members)
        assert back.obs == pytest.approx(table.obs)

    def test_projection_roundtrip_distances(self, tmp_path):
        # stations 1 degree apart at the equator are ~111.2 km apart
        path = write_csv(
            tmp_path,
            """\
            date,station,lon,lat,obs,m1
            2010-10-01,A,0.0,0.0,1.0,1.0
            2010-10-01,B,1.0,0.0,1.0,1.0
            """,
        )
        table = data.load_cases(path)
        ax, bx = table.xy[:, 0]  # stations A, B
        assert abs(abs(bx - ax) - 111.19) < 0.1


class TestOneReader:
    @pytest.mark.parametrize("name", sorted(BAD_FILES))
    def test_ecc_and_fit_end_with_the_load_cases_error(self, tmp_path, capsys, name):
        """`ecc`, which reads cases.csv on the standard library alone, and
        `fit`, which builds the case table, end with load_cases' error."""
        path = write_csv(tmp_path, BAD_FILES[name])
        with pytest.raises(ValueError) as info:
            data.load_cases(path)
        config = tmp_path / "run.cfg"
        config.write_text("")
        errors = []
        for args in (("ecc", "--method", "raw"), ("fit", "--method", "global")):
            assert cli.main(["--config", str(config), "--out", str(tmp_path), *args]) == 1
            errors.append(capsys.readouterr().err)
        assert errors == [f"error: {info.value}\n"] * 2


class TestFbar:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda m: st.lists(
        st.lists(st.floats(-1e9, 1e9), min_size=m, max_size=m), min_size=1, max_size=6)))
    def test_bit_equal_to_the_left_to_right_fold(self, rows):
        """f̄ is the cumulative sum over the members divided by m: bit for bit
        a left-to-right fold of float additions, without compensation."""
        table = data.CaseTable([f"S{i}" for i in range(len(rows))],
                               [(float(i), 0.0) for i in range(len(rows))],
                               [733000] * len(rows), range(len(rows)), rows,
                               [0.0] * len(rows))
        want = [fbar_fold(row).hex() for row in rows]
        assert [v.hex() for v in table.fbar.tolist()] == want
        assert [v.hex() for v in table.on(table.dates[0]).fbar.tolist()] == want


def make_table(dates_by_station, m=2):
    """CaseTable with observation = 1.0 on the given dates per station."""
    stations = sorted(dates_by_station)
    xy = [(10.0 * i, 5.0 * i) for i in range(len(stations))]
    rows = [(d.toordinal(), i, 1.0 if has_obs else np.nan)
            for i, s in enumerate(stations) for d, has_obs in dates_by_station[s]]
    ordinal, station, obs = zip(*rows)
    return data.CaseTable(stations, xy, ordinal, station, np.ones((len(rows), m)), obs)


class TestRollingWindow:
    def test_global_calendar_range(self):
        days = [dt.date(2010, 9, 1) + dt.timedelta(days=i) for i in range(40)]
        table = make_table({"A": [(d, True) for d in days]})
        window = data.rolling_window(table, dt.date(2010, 10, 3), length=25)
        assert min(window.dates) == dt.date(2010, 9, 8)
        assert max(window.dates) == dt.date(2010, 10, 2)
        assert len(window) == 25

    def test_local_fallback_extends_back(self):
        days = [dt.date(2010, 9, 1) + dt.timedelta(days=i) for i in range(32)]
        missing = {dt.date(2010, 10, 1), dt.date(2010, 10, 2)}
        table = make_table({"A": [(d, d not in missing) for d in days]})
        window = data.rolling_window(
            table, dt.date(2010, 10, 3), length=25, mode="local", station="A"
        )
        assert len(window) == 25
        assert max(window.dates) == dt.date(2010, 9, 30)
        # reaches 2 extra days back past the 25-day calendar window
        assert min(window.dates) == dt.date(2010, 9, 6)

    def test_insufficient_training_data(self):
        days = [dt.date(2010, 9, 1) + dt.timedelta(days=i) for i in range(5)]
        table = make_table({"A": [(d, True) for d in days]})
        with pytest.raises(ValueError, match="insufficient training data"):
            data.rolling_window(
                table, dt.date(2010, 10, 3), length=25, mode="local", station="A"
            )

    def test_never_includes_valid_or_later(self):
        days = [dt.date(2010, 9, 1) + dt.timedelta(days=i) for i in range(45)]
        table = make_table({"A": [(d, True) for d in days]})
        valid = dt.date(2010, 10, 3)
        window = data.rolling_window(table, valid, length=25)
        assert all(d < valid for d in window.dates)

    def test_missing_observations_excluded(self):
        days = [dt.date(2010, 9, 1) + dt.timedelta(days=i) for i in range(40)]
        table = make_table({"A": [(d, d.day % 2 == 0) for d in days]})
        window = data.rolling_window(table, dt.date(2010, 10, 3), length=25)
        assert all(d.day % 2 == 0 for d in window.dates)


def _window_or_error(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return str(exc)


@st.composite
def sparse_tables(draw):
    """A table of 1-4 stations over up to 20 days, each (date, station) case
    present or not and observed or not, in a drawn case order."""
    stations = [f"S{i}" for i in range(draw(st.integers(1, 4)))]
    start = dt.date(2010, 6, 1)
    cases = []
    for day in range(draw(st.integers(1, 20))):
        for i in range(len(stations)):
            kind = draw(st.sampled_from(["absent", "missing", "observed", "observed"]))
            if kind != "absent":
                members = draw(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
                obs = draw(st.floats(-10, 10)) if kind == "observed" else np.nan
                cases.append(((start + dt.timedelta(days=day)).toordinal(), i, members, obs))
    cases = draw(st.permutations(cases))
    table = data.CaseTable(stations, [(float(i), 0.0) for i in range(len(stations))],
                           [c[0] for c in cases], [c[1] for c in cases],
                           np.reshape([c[2] for c in cases], (-1, 2)), [c[3] for c in cases])
    return table, stations


class TestRollingWindowIndex:
    @settings(max_examples=200, deadline=None)
    @given(sparse_tables(), st.integers(-3, 25), st.integers(1, 25), st.integers(0, 6),
           st.sampled_from(["global", "local"]), st.integers(0, 4))
    def test_equals_the_full_scan(self, built, offset, length, min_cases, mode, pick):
        """The indexed window holds the scan's cases in the same order, with
        the same label, or fails with the same message."""
        table, stations = built
        valid = dt.date(2010, 6, 1) + dt.timedelta(days=offset)
        station = stations[pick % len(stations)] if mode == "local" else None
        args = (table, valid)
        kwargs = dict(length=length, mode=mode, station=station, min_cases=min_cases)
        got = _window_or_error(data.rolling_window, *args, **kwargs)
        want = _window_or_error(rolling_window_scan, *args, **kwargs)
        if isinstance(want, str):
            assert got == want
            return
        assert (got.stations, got.dates, got.window) == (
            want.stations, want.dates, want.window)
        assert np.array_equal(got.xy, want.xy)
        assert np.array_equal(got.fbar, want.fbar)
        assert np.array_equal(got.y, want.y)


class TestSimulate:
    def test_degenerate_noise_free_identity(self):
        cfg = data.SimConfig(
            n_stations=6, n_days=3, m=4, sigma=0.0,
            field_mode="constant", a_mean=0.0, b_mean=1.0,
        )
        table, truth = data.simulate(cfg, 1)
        assert table.obs == pytest.approx(table.fbar, abs=1e-12)

    def test_same_seed_identical(self):
        cfg = data.SimConfig(n_stations=8, n_days=4, m=5)
        t1, _ = data.simulate(cfg, 33)
        t2, _ = data.simulate(cfg, 33)
        assert t1 == t2

    def test_different_seed_differs(self):
        cfg = data.SimConfig(n_stations=8, n_days=4, m=5)
        t1, _ = data.simulate(cfg, 33)
        t2, _ = data.simulate(cfg, 34)
        assert t1 != t2

    def test_residual_sd_matches_generator(self):
        cfg = data.SimConfig(n_stations=50, n_days=60, m=50, sigma=1.5)
        table, truth = data.simulate(cfg, 42)
        assert len(table) == 3000
        a = np.array([truth.a_true[s] for s in table.stations])[table.station]
        b = np.array([truth.b_true[s] for s in table.stations])[table.station]
        resid = table.obs - a - b * table.fbar
        assert abs(np.std(resid) - cfg.sigma) / cfg.sigma < 0.05

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            data.SimConfig(n_stations=5, n_days=2, m=3, sigma=-1.0)

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            data.SimConfig(n_stations=5, n_days=2, m=3, kappa_a=0.0)
