import dataclasses
import itertools
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug.core import (
    ASU_MAX,
    ASU_MIN,
    INT64_MAX,
    INT64_MIN,
    MAX_READINGS_PER_SCAN,
    SCAN_ARRAYS,
    DatabaseFormatError,
    FingerprintDatabase,
    TowerId,
    heard_count_histogram,
    load_database,
    save_database,
    sidecar_path,
)
from cellaug.pipeline import temporal_split
from cellaug.preprocess import location_blocks, vectorize
from conftest import survey


def one_location(tower_universe, asu_rows):
    """Direct construction: location 0 at the origin, one scan per row of
    ASU values (0 = unheard), readings in column order."""
    asu = np.array(asu_rows)
    position = np.where(asu > 0, np.cumsum(asu > 0, axis=1) - 1, -1)
    return FingerprintDatabase(tower_universe, [0], [(0.0, 0.0)], [0] * len(asu),
                               range(len(asu)), asu, position)


@pytest.fixture
def small_db():
    return survey([
        (0, (0.0, 0.0), [(0, [("B", 10), ("A", 20)]), (1, [("A", 5)]), (2, [("B", 31)])]),
        (1, (2.0, 1.5), [(0, [("A", 0)]), (1, [("A", 7), ("B", 3)]), (2, [("B", 12)])]),
    ], testbed="t")


class TestDatabaseInvariants:
    def test_universe_is_sorted_union(self, small_db):
        assert small_db.tower_universe == ("A", "B")
        assert len(small_db.location_ids) == 2

    def test_scan_outside_universe_rejected(self):
        # a reading is a column of the universe: two columns need two towers
        with pytest.raises(ValueError, match="shape"):
            one_location(("B",), [[1, 0]])

    def test_subset_universe_allowed_for_views(self):
        # split views keep the parent universe even if a tower drops out
        db = one_location(("A", "B"), [[1, 0]])
        assert db.tower_universe == ("A", "B")

    def test_unsorted_universe_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            one_location(("B", "A"), [[1, 0]])

    def test_duplicate_location_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate location_id"):
            FingerprintDatabase(("A",), [0, 0], [(0, 0), (1, 1)], [0, 1], [0, 0],
                                [[1], [2]], [[0], [0]])

    def test_descending_location_ids_rejected(self):
        with pytest.raises(ValueError, match="location ids must ascend"):
            FingerprintDatabase(("A",), [1, 0], [(0, 0), (1, 1)], [0, 1], [0, 0],
                                [[1], [2]], [[0], [0]])

    def test_position_shape_checked(self):
        with pytest.raises(ValueError, match=re.escape("position has shape (1, 2), expected (1, 1)")):
            FingerprintDatabase(("A",), [0], [(0, 0)], [0], [0], [[1]], [[0, -1]])

    def test_location_requires_scans(self):
        # location 1 has no scan
        with pytest.raises(ValueError, match="each with one"):
            FingerprintDatabase(("A",), [0, 1], [(0, 0), (1, 1)], [0, 0], [0, 1],
                                [[1], [2]], [[0], [0]])

    @pytest.mark.parametrize("asu, position, message", [
        ([[40]], [[0]], r"ASU must be in \[0, 31\] where heard"),
        ([[-1]], [[0]], r"ASU must be in \[0, 31\] where heard"),
        ([[3, 2]], [[0, -1]], "and 0 elsewhere"),
        ([[0, 0]], [[-1, -1]], "each scan must hear 1 to 7 towers"),
        ([[3, 3]], [[3, 3]], "heard positions must be 0 to k - 1, each once"),
        ([[3, 3]], [[0, 0]], "heard positions must be 0 to k - 1, each once"),
        ([[3, 0]], [[0, -2]], "and -1 elsewhere"),
    ], ids=["ASU 40", "ASU -1", "unheard ASU 2", "no tower heard", "positions 3 and 3",
            "positions 0 and 0", "position -2"])
    def test_values_no_file_holds_rejected(self, asu, position, message):
        towers = ("A", "B")[:len(asu[0])]
        with pytest.raises(ValueError, match=message):
            FingerprintDatabase(towers, [0], [(0.0, 0.0)], [0], [0], asu, position)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_position_check_matches_its_sorted_form(self, data):
        # accepted exactly when 1 to 7 towers are heard and the sorted row is
        # -1 for each unheard tower, then 0 to k - 1; drawn as such a row,
        # with one entry perhaps replaced
        m = data.draw(st.integers(1, 9), label="towers")
        k = data.draw(st.integers(0, min(m, 8)), label="heard")
        row = data.draw(st.permutations([-1] * (m - k) + list(range(k))), label="row")
        if data.draw(st.booleans(), label="replace one"):
            row[data.draw(st.integers(0, m - 1))] = data.draw(st.integers(-3, 9))
        heard = sum(p >= 0 for p in row)
        want = 1 <= heard <= 7 and sorted(row) == [-1] * (m - heard) + list(range(heard))
        asu = [[int(p >= 0) for p in row]]
        try:
            FingerprintDatabase(tuple(f"T{j}" for j in range(m)), [0], [(0.0, 0.0)], [0], [0],
                                asu, [row])
        except ValueError as exc:
            assert not want and re.match("each scan must hear|heard positions", str(exc))
        else:
            assert want

    def test_eight_heard_towers_rejected(self):
        towers = tuple(f"T{j}" for j in range(8))
        with pytest.raises(ValueError, match="each scan must hear 1 to 7 towers"):
            FingerprintDatabase(towers, [0], [(0.0, 0.0)], [0], [0], [[5] * 8], [range(8)])

    @settings(max_examples=200, deadline=None)
    @given(scan_location=st.lists(st.integers(-1, 4), max_size=6), n_locations=st.integers(0, 4))
    def test_scan_grouping_check_matches_its_unique_form(self, scan_location, n_locations):
        # accepted exactly when sorted and holding each location index
        want = (sorted(scan_location) == scan_location
                and np.array_equal(np.unique(scan_location), np.arange(n_locations)))
        n = len(scan_location)
        try:
            FingerprintDatabase(("A",), range(n_locations), np.zeros((n_locations, 2)),
                                scan_location, range(n), np.ones((n, 1)), np.zeros((n, 1)))
        except ValueError as exc:
            assert not want and "grouped by location" in str(exc)
        else:
            assert want


class TestSerialization:
    def test_load_two_locations(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database(small_db, path)
        loaded = load_database(path)
        assert loaded.tower_universe == ("A", "B")
        assert len(loaded.location_ids) == 2

    def test_round_trip_identity(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database(small_db, path)
        assert load_database(path) == small_db

    def test_round_trip_identity_when_every_tower_is_heard(self, tmp_path):
        db = FingerprintDatabase(("A", "B"), [0], [(0.0, 0.0)], [0], [0], [[3, 5]], [[0, 1]])
        save_database(db, tmp_path / "db.jsonl")
        assert load_database(tmp_path / "db.jsonl") == db

    def test_unheard_universe_tower_is_not_written(self, tmp_path):
        # as in a split view: B is in the universe, but no scan hears it
        db = FingerprintDatabase(("A", "B"), [0], [(0.0, 0.0)], [0], [0], [[3, 0]], [[0, -1]])
        save_database(db, tmp_path / "db.jsonl")
        loaded = load_database(tmp_path / "db.jsonl")
        assert loaded != db
        assert loaded == FingerprintDatabase(("A",), [0], [(0.0, 0.0)], [0], [0], [[3]], [[0]])

    def test_round_trip_determinism(self, small_db, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_database(small_db, p1)
        save_database(load_database(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file_reports_no_locations(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatabaseFormatError, match="no locations"):
            load_database(path)

    def test_header_only_reports_no_locations(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"testbed": "x", "grid_cell_m": 1}\n')
        with pytest.raises(DatabaseFormatError, match="no locations"):
            load_database(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"testbed": "x", "grid_cell_m": 1}\n{not json}\n')
        with pytest.raises(DatabaseFormatError, match="line 2"):
            load_database(path)

    @pytest.mark.parametrize("readings, message", [
        ([], "empty scan: at least one reading required"),
        ([(f"T{i}", 5) for i in range(8)], "too many readings: 8 > 7"),
        ([("A", 1), ("", 2)], "empty tower id"),
        ([("A", 1), ("B", 2), ("A", 3)], "duplicate tower in scan: A"),
        ([("A", 1), ("B", 32)], "ASU out of range: 32 for tower B"),
        ([("A", -1)], "ASU out of range: -1 for tower A"),
    ], ids=["no readings", "eight readings", "empty tower id", "repeated tower", "ASU 32", "ASU -1"])
    def test_reading_rule_messages(self, tmp_path, readings, message):
        record = {"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": readings}
        assert self.load_one_scan(tmp_path, json.dumps(record)) == message

    def test_seven_readings_accepted(self):
        db = survey([(0, (0, 0), [(0, [(f"T{i}", 5) for i in range(MAX_READINGS_PER_SCAN)])])])
        assert db.heard.sum() == MAX_READINGS_PER_SCAN == 7

    def test_asu_bounds_accepted(self):
        db = survey([(0, (0, 0), [(0, [("A", 0), ("B", ASU_MAX)])])])
        assert db.asu.tolist() == [[0, 31]] and db.heard.tolist() == [[True, True]]

    def test_loader_keeps_reading_order(self, tmp_path):
        db = survey([(0, (0, 0), [(0, [("B", 10), ("A", 20)])])])
        assert db.asu.tolist() == [[20, 10]]
        assert db.position.tolist() == [[1, 0]]
        save_database(db, tmp_path / "db.jsonl")
        record = json.loads((tmp_path / "db.jsonl").read_text().splitlines()[1])
        assert record["readings"] == [["B", 10], ["A", 20]]

    def test_interleaved_location_keeps_its_scan_order(self):
        db = survey([(3, (1, 1), [(9, [("A", 1)])]), (0, (0, 0), [(5, [("A", 2)])]),
                     (3, (1, 1), [(2, [("A", 3)])])])
        assert db.location_ids.tolist() == [0, 3]
        assert db.scan_location.tolist() == [0, 1, 1]
        assert db.timestamps.tolist() == [5, 9, 2]
        assert db.asu[:, 0].tolist() == [2, 1, 3]

    def test_loaded_arrays_match_hand_filled_constructor(self, small_db):
        assert small_db == FingerprintDatabase(
            ("A", "B"), [0, 1], [(0.0, 0.0), (2.0, 1.5)], [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2],
            [[20, 10], [5, 0], [0, 31], [0, 0], [7, 3], [0, 12]],
            [[1, 0], [0, -1], [-1, 0], [0, -1], [0, 1], [-1, 0]], testbed="t", grid_cell_m=1.0)

    def test_out_of_range_asu_in_file(self, tmp_path):
        path = tmp_path / "asu.jsonl"
        path.write_text(
            '{"testbed": "x", "grid_cell_m": 1}\n'
            '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 32]]}\n'
        )
        with pytest.raises(DatabaseFormatError, match="ASU out of range"):
            load_database(path)

    @pytest.mark.parametrize("key", ["loc", "ts"])
    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
    def test_integer_outside_int64_rejected(self, tmp_path, key, value):
        record = {"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}
        record[key] = value
        path = tmp_path / "big.jsonl"
        path.write_text('{"testbed": "x", "grid_cell_m": 1}\n' + json.dumps(record) + "\n")
        with pytest.raises(DatabaseFormatError, match=rf"big\.jsonl: line 2: {key} outside int64"):
            load_database(path)

    def test_conflicting_coordinates_rejected(self, tmp_path):
        path = tmp_path / "xy.jsonl"
        path.write_text(
            '{"testbed": "x", "grid_cell_m": 1}\n'
            '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n'
            '{"loc": 0, "x": 5, "y": 0, "ts": 1, "readings": [["A", 2]]}\n'
        )
        with pytest.raises(DatabaseFormatError, match="conflicting coordinates"):
            load_database(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_coordinates_rejected(self, tmp_path, bad):
        path = tmp_path / "xy.jsonl"
        path.write_text(
            '{"testbed": "x", "grid_cell_m": 1}\n'
            '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n'
            f'{{"loc": 1, "x": {bad}, "y": 0, "ts": 0, "readings": [["A", 2]]}}\n'
        )
        with pytest.raises(DatabaseFormatError, match=r"xy\.jsonl: line 3: non-finite"):
            load_database(path)

    def test_non_finite_grid_cell_rejected(self, tmp_path):
        path = tmp_path / "grid.jsonl"
        path.write_text(
            '{"testbed": "x", "grid_cell_m": NaN}\n'
            '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n'
        )
        with pytest.raises(DatabaseFormatError, match=r"grid\.jsonl: line 1: .*non-finite"):
            load_database(path)

    @pytest.mark.parametrize("header, message", [
        ('{"testbed": "x", "grid_cell_m": true}', "got 'x' and True"),
        ('{"testbed": "x", "grid_cell_m": "2"}', "got 'x' and '2'"),
        ('{"testbed": 5, "grid_cell_m": 2}', "got 5 and 2"),
        # a JSON integer beyond the float range
        ('{"testbed": "x", "grid_cell_m": 1' + "0" * 400 + "}", "int too large to convert to float"),
    ], ids=["boolean_grid", "string_grid", "number_testbed", "huge_grid"])
    def test_header_json_types_rejected(self, tmp_path, header, message):
        path = tmp_path / "header.jsonl"
        path.write_text(header + '\n{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n')
        with pytest.raises(DatabaseFormatError,
                           match=rf"header\.jsonl: line 1: bad header: .*{re.escape(message)}$"):
            load_database(path)

    @pytest.mark.parametrize("key, value, message", [
        ("loc", '"7"', "loc must be a JSON integer, got '7'"),
        ("loc", "7.0", "loc must be a JSON integer, got 7.0"),
        ("ts", "2.9", "ts must be a JSON integer, got 2.9"),
        ("ts", "true", "ts must be a JSON integer, got True"),
        ("x", '"1.5"', "x must be a JSON number, got '1.5'"),
        ("y", "false", "y must be a JSON number, got False"),
        ("readings", '[["A", 4.8]]', "ASU must be a JSON integer, got 4.8 for tower A"),
        ("readings", '[["A", true]]', "ASU must be a JSON integer, got True for tower A"),
        ("readings", "[[5, 3]]", "tower id must be a JSON string, got 5"),
    ])
    def test_loose_json_type_rejected(self, tmp_path, key, value, message):
        # a file must hold the JSON types themselves, not values that convert to them
        fields = {"loc": "0", "x": "0", "y": "0", "ts": "0", "readings": '[["A", 1]]', key: value}
        path = tmp_path / "types.jsonl"
        path.write_text('{"testbed": "x", "grid_cell_m": 1}\n'
                        '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n'
                        + "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
        with pytest.raises(DatabaseFormatError,
                           match=rf"types\.jsonl: line 3: {re.escape(message)}$"):
            load_database(path)

    @staticmethod
    def load_one_scan(tmp_path, record_text):
        """The DatabaseFormatError message for a survey of one scan line."""
        path = tmp_path / "one.jsonl"
        path.write_text('{"testbed": "x", "grid_cell_m": 1}\n' + record_text + "\n")
        with pytest.raises(DatabaseFormatError) as excinfo:
            load_database(path)
        return str(excinfo.value).split(": line 2: ", 1)[1]

    # A scan with several faults is named by the first rule it breaks:
    # structure, JSON types, values, then its location's coordinates.
    def test_json_type_is_named_before_a_value_conversion(self, tmp_path):
        message = self.load_one_scan(
            tmp_path, '{"loc": "abc", "x": 0, "y": 0, "ts": 2.5, "readings": [["A", 1]]}')
        assert message == "loc must be a JSON integer, got 'abc'"

    def test_missing_key_is_named_before_a_value(self, tmp_path):
        message = self.load_one_scan(tmp_path, f'{{"loc": {2**63}, "x": 0, "y": 0, "ts": 0}}')
        assert message == "malformed scan: 'readings'"

    def test_reading_rules_are_checked_one_rule_at_a_time(self, tmp_path):
        message = self.load_one_scan(
            tmp_path, '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 40], ["", 3]]}')
        assert message == "empty tower id"

    def test_blank_first_line_reports_bad_header(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text('\n{"testbed": "x", "grid_cell_m": 1}\n'
                        '{"loc": 0, "x": 0, "y": 0, "ts": 0, "readings": [["A", 1]]}\n')
        with pytest.raises(DatabaseFormatError, match=r"blank\.jsonl: line 1: bad header"):
            load_database(path)

    def test_unwritable_path_raises_io_error(self, small_db, tmp_path):
        with pytest.raises(OSError):
            save_database(small_db, tmp_path / "missing_dir" / "db.jsonl")

    def test_55_locations_17_towers(self, tmp_path):
        rng = np.random.default_rng(17)
        towers = [f"C{i:02d}" for i in range(17)]
        locations = []
        for loc_id in range(55):
            scans = []
            for ts in range(3):
                heard = rng.choice(17, size=5, replace=False)
                scans.append((ts, [(towers[j], int(rng.integers(0, 32))) for j in sorted(heard)]))
            locations.append((loc_id, (float(rng.uniform(0, 11)), float(rng.uniform(0, 12))), scans))
        db = survey(locations)
        path = tmp_path / "big.jsonl"
        save_database(db, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 55 * 3
        loaded = load_database(path)
        assert len(loaded.location_ids) == 55
        assert loaded == db

    def test_random_databases_round_trip(self, tmp_path):
        rng = np.random.default_rng(99)
        for trial in range(10):
            n_towers = int(rng.integers(2, 9))
            towers = [f"T{i}" for i in range(n_towers)]
            locations = []
            for loc_id in range(int(rng.integers(2, 6))):
                scans = []
                for ts in range(int(rng.integers(1, 5))):
                    k = int(rng.integers(1, min(n_towers, 7) + 1))
                    heard = rng.choice(n_towers, size=k, replace=False)
                    scans.append((ts, [(towers[j], int(rng.integers(0, 32))) for j in heard]))
                xy = (float(rng.normal(0, 10)), float(rng.normal(0, 10)))
                locations.append((loc_id, xy, scans))
            db = survey(locations, testbed=f"trial{trial}", grid_cell_m=float(rng.uniform(0.5, 100)))
            path = tmp_path / f"r{trial}.jsonl"
            save_database(db, path)
            assert load_database(path) == db


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def surveys_in_file_order(draw):
    """A survey as drawn: (scans, coordinates, testbed, grid_cell_m), where
    scans lists (location id, timestamp, readings) in file order, readings a
    tuple of (tower, ASU) pairs. 1-4 locations with
    1-3 scans each and arbitrary finite coordinates and grid size; free-form
    tower ids and testbed name. Scans interleave across locations, tie on
    timestamps often, and list their readings in no particular tower order."""
    towers = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=9, unique=True))
    loc_ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4, unique=True))
    coordinates = {loc_id: (draw(finite), draw(finite)) for loc_id in loc_ids}
    scans = []
    for loc_id in loc_ids:
        for _ in range(draw(st.integers(1, 3))):
            heard = draw(st.lists(st.sampled_from(towers), min_size=1,
                                  max_size=MAX_READINGS_PER_SCAN, unique=True))
            asus = draw(st.lists(st.integers(0, ASU_MAX), min_size=len(heard), max_size=len(heard)))
            ts = draw(st.integers(0, 2) | st.integers(-2**40, 2**40))
            scans.append((loc_id, ts, tuple(zip(heard, asus))))
    return draw(st.permutations(scans)), coordinates, draw(st.text(max_size=8)), draw(finite)


def grouped(scans):
    """The drawn scans sorted stably by location id: locations by ascending
    id, each location's scans in file order."""
    return sorted(scans, key=lambda s: s[0])


def build(drawn):
    """The database loaded from the drawn survey's lines, in file order."""
    scans, coordinates, testbed, grid = drawn
    return survey([(loc_id, coordinates[loc_id], [(ts, readings)]) for loc_id, ts, readings in scans],
                  testbed=testbed, grid_cell_m=grid)


def surveys():
    return surveys_in_file_order().map(build)


def read_back(db):
    """Each scan of db as (location id, timestamp, readings), in database
    order, read cell by cell from the arrays."""
    out = []
    for i, ts in enumerate(db.timestamps.tolist()):
        readings = sorted((int(db.position[i, j]), db.tower_universe[j], int(db.asu[i, j]))
                          for j in range(db.n_towers) if db.position[i, j] >= 0)
        loc_id = int(db.location_ids[db.scan_location[i]])
        out.append((loc_id, ts, tuple((t, a) for _, t, a in readings)))
    return out


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(db=surveys())
    def test_load_inverts_save(self, tmp_path_factory, db):
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        save_database(db, path)
        assert load_database(path) == db

    @settings(max_examples=60, deadline=None)
    @given(db=surveys())
    def test_resave_is_byte_identical(self, tmp_path_factory, db):
        # readings keep their file order, which is not tower order
        first, second = (tmp_path_factory.mktemp("survey") / "db.jsonl" for _ in range(2))
        save_database(db, first)
        save_database(load_database(first), second)
        assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(drawn=surveys_in_file_order())
    def test_load_groups_interleaved_lines(self, drawn):
        db = build(drawn)
        scans, coordinates, testbed, grid = drawn
        assert read_back(db) == grouped(scans)
        assert db.location_ids.tolist() == sorted(coordinates)
        assert db.coordinates.tolist() == [list(map(float, coordinates[loc_id]))
                                           for loc_id in sorted(coordinates)]
        assert (db.testbed, db.grid_cell_m) == (testbed, float(grid))


# Text that json escapes: quotes, backslashes, control and non-ASCII characters.
escaped_text = st.text(st.sampled_from('"\\\x00\n\r\x1f\x7fé€ 😀a'), min_size=1, max_size=4)
int64_ends = st.sampled_from([INT64_MIN, INT64_MAX]) | st.integers(INT64_MIN, INT64_MAX)
edge_floats = st.sampled_from([-0.0, 1e16, 5e-324, 0.1 + 0.2]) | finite


@st.composite
def edge_surveys(draw):
    """Surveys whose every field json writes in its own way: escaped tower
    ids and testbed names, loc and ts at the int64 ends, signed zeros,
    subnormals, large and inexact coordinates."""
    tower_ids = escaped_text | st.text(min_size=1, max_size=4)
    towers = draw(st.lists(tower_ids, min_size=1, max_size=9, unique=True))
    locations = []
    for loc_id in draw(st.lists(int64_ends, min_size=1, max_size=3, unique=True)):
        scans = []
        for _ in range(draw(st.integers(1, 3))):
            heard = draw(st.lists(st.sampled_from(towers), min_size=1,
                                  max_size=MAX_READINGS_PER_SCAN, unique=True))
            scans.append((draw(int64_ends), [(t, draw(st.integers(0, ASU_MAX))) for t in heard]))
        locations.append((loc_id, (draw(edge_floats), draw(edge_floats)), scans))
    return survey(locations, testbed=draw(tower_ids), grid_cell_m=draw(edge_floats))


class TestWriterProperty:
    @settings(max_examples=100, deadline=None)
    @given(db=edge_surveys())
    def test_each_line_is_json_dumps_of_its_record(self, tmp_path_factory, db):
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        save_database(db, path)
        coords = dict(zip(db.location_ids.tolist(), db.coordinates.tolist()))
        records = [{"testbed": db.testbed, "grid_cell_m": db.grid_cell_m}]
        records += [{"loc": loc_id, "x": coords[loc_id][0], "y": coords[loc_id][1],
                     "ts": ts, "readings": readings}
                    for loc_id, ts, readings in read_back(db)]
        assert path.read_text(encoding="utf-8") == "".join(json.dumps(r) + "\n" for r in records)
        assert load_database(path) == db


class TestSplitAndVectorizeProperties:
    """temporal_split and vectorize against plain-Python references that
    work scan by scan on the drawn survey."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=surveys_in_file_order(), train_scans=st.none() | st.integers(0, 3),
           fraction=st.floats(0.05, 0.95))
    def test_temporal_split_matches_reference(self, drawn, train_scans, fraction):
        db = build(drawn)
        train, test, failure = [], [], None
        for loc_id, loc_scans in itertools.groupby(grouped(drawn[0]), key=lambda s: s[0]):
            loc_scans = list(loc_scans)
            n = len(loc_scans)
            cut = train_scans if train_scans is not None else max(1, int(n * fraction))
            if not 0 < cut < n:
                failure = failure or f"location {loc_id}: cannot split {n} scans into {cut} train"
                continue
            ordered = sorted(loc_scans, key=lambda s: s[1])  # stable: ties keep file order
            train += ordered[:cut]
            test += ordered[cut:]
        if failure:
            with pytest.raises(ValueError, match=re.escape(failure)):
                temporal_split(db, fraction, train_scans)
            return
        for view, expected in zip(temporal_split(db, fraction, train_scans), (train, test)):
            assert read_back(view) == expected
            assert view.tower_universe == db.tower_universe
            assert np.array_equal(view.location_ids, db.location_ids)
            assert np.array_equal(view.coordinates, db.coordinates)

    @settings(max_examples=80, deadline=None)
    @given(drawn=surveys_in_file_order(), data=st.data(),
           extra=st.lists(st.text(min_size=1, max_size=4), max_size=3))
    def test_vectorize_matches_reference(self, drawn, data, extra):
        db = build(drawn)
        # any column order, over a universe that may be wider than the heard towers
        towers = data.draw(st.permutations(sorted(set(db.tower_universe) | set(extra))))
        rows = grouped(drawn[0])
        x = np.zeros((len(rows), len(towers)))
        heard = np.zeros(x.shape, dtype=bool)
        for i, (_, _, readings) in enumerate(rows):
            for tower, asu in readings:
                x[i, towers.index(tower)] = asu / ASU_MAX
                heard[i, towers.index(tower)] = True
        samples, mask = vectorize(db, towers)
        assert samples.towers == tuple(towers)
        assert samples.labels.tolist() == [loc_id for loc_id, _, _ in rows]
        assert np.array_equal(samples.x, x)
        assert np.array_equal(mask, heard)


def heard_of(scans):
    return survey([(0, (0, 0), scans)]).heard


class TestHeardCountHistogram:
    def test_all_same_count(self):
        scans = [(t, [(f"T{i}", 10) for i in range(5)]) for t in range(10)]
        assert heard_count_histogram(heard_of(scans)) == {5: 1.0}

    def test_hand_counts(self):
        scans = [
            (0, [("A", 1), ("B", 2), ("C", 3)]),
            (1, [("A", 1), ("B", 2), ("C", 3)]),
            (2, [("A", 1), ("B", 2), ("C", 3), ("D", 4)]),
        ]
        hist = heard_count_histogram(heard_of(scans))
        assert hist == {3: pytest.approx(2 / 3), 4: pytest.approx(1 / 3)}

    def test_probabilities_sum_to_one(self, small_db):
        for _, _, heard in location_blocks(small_db):
            assert sum(heard_count_histogram(heard).values()) == pytest.approx(1.0)


def _int64(value, key: str) -> int:
    value = int(value)
    if not (INT64_MIN <= value <= INT64_MAX):
        raise ValueError(f"{key} outside int64: {value}")
    return value


def _check_readings(raw) -> tuple[tuple[TowerId, int], ...]:
    """One scan's readings as (tower, ASU) pairs, in their given order.

    Raises ValueError for an empty or oversized scan, an empty or repeated
    tower id, or an ASU outside [0, 31].
    """
    readings = tuple((str(t), int(a)) for t, a in raw)
    if len(readings) == 0:
        raise ValueError("empty scan: at least one reading required")
    if len(readings) > MAX_READINGS_PER_SCAN:
        raise ValueError(f"too many readings: {len(readings)} > {MAX_READINGS_PER_SCAN}")
    seen = set()
    for tower, asu in readings:
        if not tower:
            raise ValueError("empty tower id")
        if tower in seen:
            raise ValueError(f"duplicate tower in scan: {tower}")
        seen.add(tower)
        if not (ASU_MIN <= asu <= ASU_MAX):
            raise ValueError(f"ASU out of range: {asu} for tower {tower}")
    return readings


def reference_parse(path, lines):
    """The loader as it was before its columns were checked as arrays: each
    line decoded and checked on its own, in file order. The oracle for
    load_database, which must return the same database or raise the same
    message, except that it also refuses JSON types this one coerces."""
    first = next(lines, "")
    if not first.strip():
        raise DatabaseFormatError(f"{path}: no locations (empty file)")

    try:
        header = json.loads(first)
        testbed = str(header["testbed"])
        grid_cell_m = float(header["grid_cell_m"])
        if not math.isfinite(grid_cell_m):
            raise ValueError(f"non-finite grid_cell_m: {grid_cell_m}")
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise DatabaseFormatError(f"{path}: line 1: bad header: {exc}") from exc

    coords_by_loc, scans = {}, []
    for lineno, raw in enumerate(lines, start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            loc_id = _int64(rec["loc"], "loc")
            xy = (float(rec["x"]), float(rec["y"]))
            if not all(map(math.isfinite, xy)):
                raise ValueError(f"non-finite coordinates: {xy}")
            ts = _int64(rec["ts"], "ts")
            readings = _check_readings(rec["readings"])
        except (json.JSONDecodeError, KeyError, TypeError, IndexError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: malformed scan: {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise DatabaseFormatError(f"{path}: line {lineno}: {exc}") from exc
        if coords_by_loc.setdefault(loc_id, xy) != xy:
            raise DatabaseFormatError(
                f"{path}: line {lineno}: conflicting coordinates for location {loc_id}"
            )
        scans.append((loc_id, ts, readings))

    if not coords_by_loc:
        raise DatabaseFormatError(f"{path}: no locations")
    # cell by cell: each location's scans in file order, locations by ascending id
    ids, scans = sorted(coords_by_loc), grouped(scans)
    universe = sorted({tower for _, _, readings in scans for tower, _ in readings})
    asu = np.zeros((len(scans), len(universe)), dtype=np.int8)
    position = np.full(asu.shape, -1, dtype=np.int8)
    for i, (_, _, readings) in enumerate(scans):
        for p, (tower, a) in enumerate(readings):
            asu[i, universe.index(tower)], position[i, universe.index(tower)] = a, p
    return FingerprintDatabase(universe, ids, [coords_by_loc[i] for i in ids],
                               [ids.index(loc_id) for loc_id, _, _ in scans],
                               [ts for _, ts, _ in scans], asu, position,
                               testbed=testbed, grid_cell_m=grid_cell_m)


def _set_reading(rec, index, value):
    rec["readings"][0][index] = value


def _pick(draw, *values):
    return draw(st.sampled_from(values))


def _split_line(rec, draw):
    text = json.dumps(rec)
    cut = draw(st.integers(1, len(text) - 1))
    return text[:cut] + "\n" + text[cut:]


def _padded_line(rec, draw):
    pads = ("", " ", "\t ", "\x0c", "\xa0")  # JSON whitespace or not
    return _pick(draw, *pads) + json.dumps(rec) + _pick(draw, *pads)


BIG = (2**63, -(2**63) - 1)

# Single-record mutations, each given the record (a dict) and a draw
# function; one that returns a string replaces the record's line with it.
BAD_RECORDS = {
    "two objects": lambda rec, draw: json.dumps(rec) + _pick(draw, " ", "") + json.dumps(rec),
    "split over two lines": _split_line,
    "padded": _padded_line,
    "outside int64": lambda rec, draw: rec.update(
        {_pick(draw, "loc", "ts", "x", "y"): _pick(draw, *BIG, 10**400)}),
    "outside int64 ASU": lambda rec, draw: _set_reading(rec, 1, _pick(draw, *BIG)),
    "non-finite coordinate": lambda rec, draw: rec.update(
        {_pick(draw, "x", "y"): _pick(draw, math.nan, math.inf, -math.inf)}),
    "no readings": lambda rec, draw: rec.update(readings=[]),
    "eight readings": lambda rec, draw: rec.update(readings=[[f"R{i}", 1] for i in range(8)]),
    "repeated tower": lambda rec, draw: rec["readings"].append(
        [rec["readings"][0][0], draw(st.integers(0, ASU_MAX))]),
    "ASU out of range": lambda rec, draw: _set_reading(rec, 1, _pick(draw, -1, 32)),
    "empty tower id": lambda rec, draw: _set_reading(rec, 0, ""),
    "conflicting coordinates": lambda rec, draw: rec.update(x=rec["x"] + _pick(draw, 1.0, 1e300)),
    "missing key": lambda rec, draw: rec.pop(_pick(draw, "loc", "x", "y", "ts", "readings")),
    "not an object": lambda rec, draw: json.dumps(_pick(draw, [1, 2], "scan", 7, None)),
    "readings not pairs": lambda rec, draw: rec.update(
        readings=_pick(draw, [["A", 1, 2]], [["A"]], {"A": 1}, 5, "AB")),
}

# Values that convert to a scan's types (as reference_parse converts them)
# but that a file may not hold.
LOOSE_RECORDS = {
    "loc as float": lambda rec, draw: rec.update(loc=float(rec["loc"])),
    "loc as string": lambda rec, draw: rec.update(loc=str(rec["loc"])),
    "ts as float": lambda rec, draw: rec.update(ts=rec["ts"] + 0.9),
    "ts as bool": lambda rec, draw: rec.update(ts=draw(st.booleans())),
    "x as string": lambda rec, draw: rec.update(x=str(rec["x"])),
    "y as bool": lambda rec, draw: rec.update(y=draw(st.booleans())),
    "ASU as float": lambda rec, draw: _set_reading(rec, 1, rec["readings"][0][1] + 0.5),
    "ASU as bool": lambda rec, draw: _set_reading(rec, 1, draw(st.booleans())),
    "tower id as int": lambda rec, draw: _set_reading(rec, 0, draw(st.integers(0, 99))),
    "reading as a string": lambda rec, draw: rec.update(readings=["A5"]),
}


@st.composite
def mutated_surveys(draw):
    """(file text, 2-based line of the loose-typed record or None): a drawn
    survey with up to two bad records or one loose-typed one, blank or
    whitespace-only lines anywhere after the header, and LF, CRLF or CR
    line ends."""
    scans, coordinates, testbed, grid = draw(surveys_in_file_order())
    records = [{"loc": loc_id, "x": coordinates[loc_id][0], "y": coordinates[loc_id][1],
                "ts": ts, "readings": [list(r) for r in readings]}
               for loc_id, ts, readings in scans]
    loose_line = None
    if draw(st.booleans()):
        table = LOOSE_RECORDS
        targets = [draw(st.integers(0, len(records) - 1))]
        loose_line = targets[0] + 2
    else:
        table = BAD_RECORDS
        targets = draw(st.lists(st.integers(0, len(records) - 1), max_size=2, unique=True))
    lines = [json.dumps(rec) for rec in records]
    for i in targets:
        replaced = table[draw(st.sampled_from(sorted(table)))](records[i], draw)
        lines[i] = replaced if isinstance(replaced, str) else json.dumps(records[i])
    if loose_line is None:
        for _ in range(draw(st.integers(0, 3))):
            blank = draw(st.sampled_from(["", " ", "\t", "  \t ", "\x0c"]))
            lines.insert(draw(st.integers(0, len(lines))), blank)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([json.dumps({"testbed": testbed, "grid_cell_m": grid}), *lines])
    return text + draw(st.sampled_from(["", newline])), loose_line


def load_with(loader, path):
    """(database, None) or (None, the DatabaseFormatError message)."""
    try:
        return loader(path), None
    except DatabaseFormatError as exc:
        return None, str(exc)


def reference_load(path):
    with path.open(encoding="utf-8") as lines:
        return reference_parse(path, lines)


class TestLoaderOracle:
    @settings(max_examples=400, deadline=None)
    @given(drawn=mutated_surveys())
    def test_matches_line_by_line_reference(self, tmp_path_factory, drawn):
        text, loose_line = drawn
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        path.write_bytes(text.encode("utf-8"))
        db, message = load_with(load_database, path)
        expected, expected_message = load_with(reference_load, path)
        if loose_line is None:
            assert message == expected_message
            assert db == expected
            return
        assert re.fullmatch(rf".*db\.jsonl: line {loose_line}: "
                            r"(loc|ts|x|y|ASU|tower id) must be a JSON (integer|number|string), .*",
                            message, flags=re.DOTALL)
        if expected_message is not None:  # the coerced value may clash with a later line
            assert int(re.search(r"line (\d+)", expected_message).group(1)) >= loose_line


def split_view(db, draw):
    """db less some scans, keeping one or more at each location, so its
    universe may hold towers that no scan hears, as a temporal_split view's."""
    keep = np.array(draw(st.lists(st.booleans(), min_size=db.timestamps.size,
                                  max_size=db.timestamps.size)), dtype=bool)
    keep[np.unique(db.scan_location, return_index=True)[1]] = True
    return dataclasses.replace(db, **{name: getattr(db, name)[keep] for name in SCAN_ARRAYS})


def non_finite_coordinate(db, draw):
    coordinates = db.coordinates.copy()
    coordinates.flat[draw(st.integers(0, coordinates.size - 1))] = _pick(draw, math.nan, math.inf)
    return dataclasses.replace(db, coordinates=coordinates)


# Surveys in memory, each made from a loaded one, that save_database writes
# as a file that loads to another survey or is refused; "as loaded" round trips.
SAVED_SURVEYS = {
    "as loaded": lambda db, draw: db,
    "split view": split_view,
    "non-finite coordinate": non_finite_coordinate,
    "empty tower id": lambda db, draw: dataclasses.replace(
        db, tower_universe=("", *db.tower_universe[1:])),
    "integer tower ids": lambda db, draw: dataclasses.replace(db, tower_universe=range(db.n_towers)),
    "grid_cell_m no header holds": lambda db, draw: dataclasses.replace(
        db, grid_cell_m=_pick(draw, math.nan, math.inf, True, 10**400)),
    "integer grid_cell_m": lambda db, draw: dataclasses.replace(db, grid_cell_m=3),
    "testbed no header holds": lambda db, draw: dataclasses.replace(db, testbed=_pick(draw, None, 5)),
    "no scans": lambda db, draw: FingerprintDatabase((), [], np.empty((0, 2)), [], [],
                                                     np.empty((0, 0)), np.empty((0, 0))),
}


def rewrite_sidecar(path, **changes):
    """Rewrite the sidecar of the survey file at `path`, each entry named in
    `changes` dropped (None) or replaced by change(entry); the digest stays
    the file's."""
    with np.load(sidecar_path(path)) as npz:
        entries = dict(npz)
    for name, change in changes.items():
        entry = entries.pop(name)
        if change:
            entries[name] = change(entry)
    with sidecar_path(path).open("wb") as file:
        np.savez(file, **entries)


def write_npy(path):
    with sidecar_path(path).open("wb") as file:
        np.save(file, np.arange(3))


def make_directory(path):
    sidecar_path(path).unlink()
    sidecar_path(path).mkdir()


# Sidecars that a survey file must be parsed past, each made from the one
# its first load wrote, and whether the next load replaces it: it does for
# any file, as no other program writes at the sidecar's path, but not for a
# directory. All but the first four keep the file's digest.
BAD_SIDECARS = {
    "truncated": (lambda path: sidecar_path(path).write_bytes(
        sidecar_path(path).read_bytes()[:-200]), True),
    "garbage": (lambda path: sidecar_path(path).write_bytes(
        b"PK\x03\x04" + bytes(range(256)) * 4), True),
    "a .npy file": (write_npy, True),
    "a directory": (make_directory, False),
    "no asu": (lambda path: rewrite_sidecar(path, asu=None), True),
    "no meta": (lambda path: rewrite_sidecar(path, meta=None), True),
    "meta not an object": (lambda path: rewrite_sidecar(
        path, meta=lambda meta: np.array("[1, 2]")), True),
    "float32 coordinates": (lambda path: rewrite_sidecar(
        path, coordinates=lambda a: a.astype(np.float32)), True),
    "int32 timestamps": (lambda path: rewrite_sidecar(
        path, timestamps=lambda a: a.astype(np.int32)), True),
    "asu one column short": (lambda path: rewrite_sidecar(path, asu=lambda a: a[:, :-1]), True),
    "position transposed": (lambda path: rewrite_sidecar(path, position=lambda a: a.T), True),
}


def no_parse(*args):
    pytest.fail("the file was parsed")


class TestSidecar:
    """The sidecar a load writes is a cache of the parse: a survey file loads
    to the same survey, or is refused with the same message, whether its
    sidecar is read, damaged or deleted."""

    @pytest.fixture
    def loaded(self, tmp_path):
        """A survey whose coordinates float32 cannot hold, and its file,
        loaded once, so its sidecar is written."""
        db = survey([(0, (0.1, 0.2), [(5, [("B", 10), ("A", 20)]), (6, [("A", 5)])]),
                     (1, (2.3, 1e-9), [(7, [("C", 31)])])], testbed="t", grid_cell_m=0.3)
        path = tmp_path / "db.jsonl"
        save_database(db, path)
        assert load_database(path) == db
        return db, path

    def assert_cache_keeps_the_answer(self, path):
        parsed = load_with(load_database, path)
        # written exactly when the file loads
        assert sidecar_path(path).exists() == (parsed[1] is None)
        with pytest.MonkeyPatch.context() as patch:
            if parsed[1] is None:
                patch.setattr("cellaug.core._parse", no_parse)
            again = load_with(load_database, path)
        assert again[1] == parsed[1]
        assert again[0] == parsed[0]
        sidecar_path(path).unlink(missing_ok=True)
        assert load_with(load_database, path)[0] == parsed[0]

    @settings(max_examples=150, deadline=None)
    @given(db=surveys() | edge_surveys(), kind=st.sampled_from(sorted(SAVED_SURVEYS)),
           data=st.data())
    def test_sidecar_never_changes_a_saved_surveys_answer(self, tmp_path_factory, db, kind, data):
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        save_database(SAVED_SURVEYS[kind](db, data.draw), path)
        assert not sidecar_path(path).exists()  # saving writes none
        self.assert_cache_keeps_the_answer(path)

    @settings(max_examples=150, deadline=None)
    @given(drawn=mutated_surveys())
    def test_sidecar_never_changes_a_texts_answer(self, tmp_path_factory, drawn):
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        path.write_bytes(drawn[0].encode("utf-8"))
        self.assert_cache_keeps_the_answer(path)

    def test_second_load_reads_the_sidecar(self, loaded, monkeypatch):
        db, path = loaded
        monkeypatch.setattr("cellaug.core._parse", no_parse)
        assert load_database(path) == db
        assert sorted(p.name for p in path.parent.iterdir()) == ["db.jsonl", "db.jsonl.cellaug.npz"]

    def test_stale_sidecar_is_replaced(self, loaded, monkeypatch):
        db, path = loaded
        view = dataclasses.replace(db, **{name: getattr(db, name)[[1, 2]] for name in SCAN_ARRAYS})
        save_database(view, path)  # B is unheard, so the file holds towers A and C
        assert load_database(path).tower_universe == ("A", "C")
        monkeypatch.setattr("cellaug.core._parse", no_parse)
        assert load_database(path).tower_universe == ("A", "C")

    @pytest.mark.parametrize("damage", sorted(BAD_SIDECARS))
    def test_bad_sidecar_is_parsed_past(self, loaded, monkeypatch, damage):
        db, path = loaded
        make, replaced = BAD_SIDECARS[damage]
        make(path)
        assert load_database(path) == db
        if replaced:
            monkeypatch.setattr("cellaug.core._parse", no_parse)
            assert load_database(path) == db
        else:
            assert sidecar_path(path).is_dir()

    def test_another_files_sidecar_is_parsed_past(self, loaded, tmp_path):
        db, path = loaded
        other = tmp_path / "other.jsonl"
        save_database(dataclasses.replace(db, testbed="u"), other)
        load_database(other)
        sidecar_path(other).replace(sidecar_path(path))
        assert load_database(path) == db

    def test_file_edited_after_a_load_is_parsed(self, loaded):
        db, path = loaded
        path.write_text(path.read_text().replace('"ts": 6', '"ts": 9'))
        loaded = load_database(path)
        assert loaded.timestamps.tolist() == [5, 9, 7]
        assert loaded == dataclasses.replace(db, timestamps=[5, 9, 7])

    def test_an_unrelated_npz_is_left_alone(self, tmp_path):
        # a survey named with no extension, beside a file of the same name +
        # .npz, a name the sidecar once had
        path, other = tmp_path / "data", tmp_path / "data.npz"
        save_database(survey([(0, (0.0, 0.0), [(1, [("A", 3)])])]), path)
        with other.open("wb") as file:
            np.savez(file, weights=np.arange(4))
        before = other.read_bytes()
        assert load_database(path).n_towers == 1
        assert other.read_bytes() == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_pipe_gets_no_sidecar(self, loaded, tmp_path):
        db, path = loaded
        pipe = tmp_path / "pipe.jsonl"
        os.mkfifo(pipe)
        writer = threading.Thread(target=lambda: pipe.write_bytes(path.read_bytes()), daemon=True)
        writer.start()
        assert load_database(pipe) == db
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert not sidecar_path(pipe).exists()

    def test_no_file_is_overwritten_but_a_sidecar(self, loaded):
        # the sidecar is written through a new file: a name in use gets none
        db, path = loaded
        sidecar_path(path).unlink()
        part = path.with_name(f"db.jsonl.cellaug.npz.{os.getpid()}.part")
        part.write_text("mine")
        assert load_database(path) == db
        assert not sidecar_path(path).exists()
        assert part.read_text() == "mine"
