import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug.core import (
    ASU_MAX,
    MAX_READINGS_PER_SCAN,
    DatabaseFormatError,
    FingerprintDatabase,
    RawScan,
    ReferenceLocation,
    from_locations,
    heard_count_histogram,
    load_database,
    save_database,
)
from cellaug.pipeline import temporal_split
from cellaug.preprocess import location_blocks, normalize_asu, vectorize


def scan(ts, readings):
    return RawScan(timestamp=ts, readings=tuple(readings))


def make_db(loc_specs, testbed="t", grid=1.0):
    locations = [
        ReferenceLocation(location_id=i, coordinates=xy, scans=tuple(scans))
        for i, (xy, scans) in enumerate(loc_specs)
    ]
    return from_locations(locations, testbed=testbed, grid_cell_m=grid)


def one_location(tower_universe, asu_rows):
    """Direct construction: location 0 at the origin, one scan per row of
    ASU values (0 = unheard), readings in column order."""
    asu = np.array(asu_rows)
    position = np.where(asu > 0, np.cumsum(asu > 0, axis=1) - 1, -1)
    return FingerprintDatabase(tower_universe, [0], [(0.0, 0.0)], [0] * len(asu),
                               range(len(asu)), asu, position)


@pytest.fixture
def small_db():
    return make_db([
        ((0.0, 0.0), [scan(0, [("B", 10), ("A", 20)]), scan(1, [("A", 5)]), scan(2, [("B", 31)])]),
        ((2.0, 1.5), [scan(0, [("A", 0)]), scan(1, [("A", 7), ("B", 3)]), scan(2, [("B", 12)])]),
    ])


class TestRawScan:
    def test_orders_and_caps(self):
        s = scan(5, [("X", 1), ("Y", 31)])
        assert tuple(t for t, _ in s.readings) == ("X", "Y")
        assert dict(s.readings).get("Y") == 31
        assert dict(s.readings).get("Z") is None

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError, match="empty scan"):
            scan(0, [])

    def test_more_than_seven_readings_rejected(self):
        readings = [(f"T{i}", 5) for i in range(8)]
        with pytest.raises(ValueError, match="too many readings"):
            scan(0, readings)

    def test_asu_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="ASU out of range"):
            scan(0, [("A", 32)])
        with pytest.raises(ValueError, match="ASU out of range"):
            scan(0, [("A", -1)])

    def test_duplicate_tower_rejected(self):
        with pytest.raises(ValueError, match="duplicate tower"):
            scan(0, [("A", 1), ("A", 2)])


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
        locs = (
            ReferenceLocation(0, (0, 0), (scan(0, [("A", 1)]),)),
            ReferenceLocation(0, (1, 1), (scan(0, [("A", 2)]),)),
        )
        with pytest.raises(ValueError, match="duplicate location_id"):
            from_locations(locs)

    def test_location_requires_scans(self):
        with pytest.raises(ValueError, match="no scans"):
            ReferenceLocation(0, (0, 0), ())


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

    def test_unwritable_path_raises_io_error(self, small_db, tmp_path):
        with pytest.raises(OSError):
            save_database(small_db, tmp_path / "missing_dir" / "db.jsonl")

    def test_55_locations_17_towers(self, tmp_path):
        rng = np.random.default_rng(17)
        towers = [f"C{i:02d}" for i in range(17)]
        loc_specs = []
        for _ in range(55):
            scans = []
            for ts in range(3):
                heard = rng.choice(17, size=5, replace=False)
                scans.append(scan(ts, [(towers[j], int(rng.integers(0, 32))) for j in sorted(heard)]))
            loc_specs.append(((float(rng.uniform(0, 11)), float(rng.uniform(0, 12))), scans))
        db = make_db(loc_specs)
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
            loc_specs = []
            for _ in range(int(rng.integers(2, 6))):
                scans = []
                for ts in range(int(rng.integers(1, 5))):
                    k = int(rng.integers(1, min(n_towers, 7) + 1))
                    heard = rng.choice(n_towers, size=k, replace=False)
                    scans.append(scan(ts, [(towers[j], int(rng.integers(0, 32))) for j in heard]))
                xy = (float(rng.normal(0, 10)), float(rng.normal(0, 10)))
                loc_specs.append((xy, scans))
            db = make_db(loc_specs, testbed=f"trial{trial}", grid=float(rng.uniform(0.5, 100)))
            path = tmp_path / f"r{trial}.jsonl"
            save_database(db, path)
            assert load_database(path) == db


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def surveys_in_file_order(draw):
    """A survey as drawn: (scans, coordinates, testbed, grid_cell_m), where
    scans lists (location id, RawScan) in file order. 1-4 locations with
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
            scans.append((loc_id, scan(ts, zip(heard, asus))))
    return draw(st.permutations(scans)), coordinates, draw(st.text(max_size=8)), draw(finite)


def grouped(scans):
    """Each location's scans in file order, locations by ascending id."""
    out: dict[int, list[RawScan]] = {}
    for loc_id, s in scans:
        out.setdefault(loc_id, []).append(s)
    return dict(sorted(out.items()))


def build(drawn):
    scans, coordinates, testbed, grid = drawn
    locations = [ReferenceLocation(loc_id, coordinates[loc_id], tuple(loc_scans))
                 for loc_id, loc_scans in grouped(scans).items()]
    return from_locations(locations, testbed=testbed, grid_cell_m=grid)


def surveys():
    return surveys_in_file_order().map(build)


def read_back(db):
    """Each scan of db as (location id, RawScan), in database order, read
    cell by cell from the arrays."""
    out = []
    for i, ts in enumerate(db.timestamps.tolist()):
        readings = sorted((int(db.position[i, j]), db.tower_universe[j], int(db.asu[i, j]))
                          for j in range(db.n_towers) if db.position[i, j] >= 0)
        loc_id = int(db.location_ids[db.scan_location[i]])
        out.append((loc_id, scan(ts, [(t, a) for _, t, a in readings])))
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
    def test_load_groups_interleaved_lines(self, tmp_path_factory, drawn):
        scans, coordinates, testbed, grid = drawn
        lines = [json.dumps({"testbed": testbed, "grid_cell_m": grid})]
        lines += [json.dumps({"loc": loc_id, "x": coordinates[loc_id][0], "y": coordinates[loc_id][1],
                              "ts": s.timestamp, "readings": [list(r) for r in s.readings]})
                  for loc_id, s in scans]
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        path.write_text("\n".join(lines) + "\n")
        db = load_database(path)
        assert db == build(drawn)
        assert read_back(db) == [(loc_id, s) for loc_id, ss in grouped(scans).items() for s in ss]


class TestSplitAndVectorizeProperties:
    """temporal_split and vectorize against plain-Python references that
    work scan by scan on the drawn survey."""

    @settings(max_examples=80, deadline=None)
    @given(drawn=surveys_in_file_order(), train_scans=st.none() | st.integers(0, 3),
           fraction=st.floats(0.05, 0.95))
    def test_temporal_split_matches_reference(self, drawn, train_scans, fraction):
        db = build(drawn)
        train, test, failure = [], [], None
        for loc_id, loc_scans in grouped(drawn[0]).items():
            n = len(loc_scans)
            cut = train_scans if train_scans is not None else max(1, int(n * fraction))
            if not 0 < cut < n:
                failure = failure or f"location {loc_id}: cannot split {n} scans into {cut} train"
                continue
            ordered = sorted(loc_scans, key=lambda s: s.timestamp)  # stable: ties keep file order
            train += [(loc_id, s) for s in ordered[:cut]]
            test += [(loc_id, s) for s in ordered[cut:]]
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
        rows = [(loc_id, s) for loc_id, ss in grouped(drawn[0]).items() for s in ss]
        x = np.zeros((len(rows), len(towers)))
        heard = np.zeros(x.shape, dtype=bool)
        for i, (_, s) in enumerate(rows):
            for tower, asu in s.readings:
                x[i, towers.index(tower)] = normalize_asu(asu)
                heard[i, towers.index(tower)] = True
        samples, mask = vectorize(db, towers)
        assert samples.towers == tuple(towers)
        assert samples.labels.tolist() == [loc_id for loc_id, _ in rows]
        assert np.array_equal(samples.x, x)
        assert np.array_equal(mask, heard)


def heard_of(scans):
    return from_locations([ReferenceLocation(0, (0, 0), tuple(scans))]).heard


class TestHeardCountHistogram:
    def test_all_same_count(self):
        scans = [scan(t, [(f"T{i}", 10) for i in range(5)]) for t in range(10)]
        assert heard_count_histogram(heard_of(scans)) == {5: 1.0}

    def test_hand_counts(self):
        scans = [
            scan(0, [("A", 1), ("B", 2), ("C", 3)]),
            scan(1, [("A", 1), ("B", 2), ("C", 3)]),
            scan(2, [("A", 1), ("B", 2), ("C", 3), ("D", 4)]),
        ]
        hist = heard_count_histogram(heard_of(scans))
        assert hist == {3: pytest.approx(2 / 3), 4: pytest.approx(1 / 3)}

    def test_probabilities_sum_to_one(self, small_db):
        for _, _, heard in location_blocks(small_db):
            assert sum(heard_count_histogram(heard).values()) == pytest.approx(1.0)
