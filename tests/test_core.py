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


def scan(ts, readings):
    return RawScan(timestamp=ts, readings=tuple(readings))


def make_db(loc_specs, testbed="t", grid=1.0):
    locations = [
        ReferenceLocation(location_id=i, coordinates=xy, scans=tuple(scans))
        for i, (xy, scans) in enumerate(loc_specs)
    ]
    return from_locations(locations, testbed=testbed, grid_cell_m=grid)


@pytest.fixture
def small_db():
    return make_db([
        ((0.0, 0.0), [scan(0, [("B", 10), ("A", 20)]), scan(1, [("A", 5)]), scan(2, [("B", 31)])]),
        ((2.0, 1.5), [scan(0, [("A", 0)]), scan(1, [("A", 7), ("B", 3)]), scan(2, [("B", 12)])]),
    ])


class TestRawScan:
    def test_orders_and_caps(self):
        s = scan(5, [("X", 1), ("Y", 31)])
        assert s.towers == ("X", "Y")
        assert s.asu_of("Y") == 31
        assert s.asu_of("Z") is None

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
        assert len(small_db.locations) == 2

    def test_scan_outside_universe_rejected(self):
        loc = ReferenceLocation(0, (0, 0), (scan(0, [("A", 1)]),))
        with pytest.raises(ValueError, match="unknown tower"):
            FingerprintDatabase(tower_universe=("B",), locations=(loc,))

    def test_subset_universe_allowed_for_views(self):
        # split views keep the parent universe even if a tower drops out
        loc = ReferenceLocation(0, (0, 0), (scan(0, [("A", 1)]),))
        db = FingerprintDatabase(tower_universe=("A", "B"), locations=(loc,))
        assert db.tower_universe == ("A", "B")

    def test_unsorted_universe_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            FingerprintDatabase(tower_universe=("B", "A"), locations=())

    def test_duplicate_location_id_rejected(self):
        locs = (
            ReferenceLocation(0, (0, 0), (scan(0, [("A", 1)]),)),
            ReferenceLocation(0, (1, 1), (scan(0, [("A", 2)]),)),
        )
        with pytest.raises(ValueError, match="duplicate location_id"):
            FingerprintDatabase(tower_universe=("A",), locations=locs)

    def test_location_requires_scans(self):
        with pytest.raises(ValueError, match="no scans"):
            ReferenceLocation(0, (0, 0), ())


class TestSerialization:
    def test_load_two_locations(self, small_db, tmp_path):
        path = tmp_path / "db.jsonl"
        save_database(small_db, path)
        loaded = load_database(path)
        assert loaded.tower_universe == ("A", "B")
        assert len(loaded.locations) == 2

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
        assert len(loaded.locations) == 55
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
def surveys(draw):
    """Databases of 1-4 locations with 1-3 scans each, arbitrary finite
    coordinates and grid size, and free-form tower ids and testbed name."""
    towers = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=9, unique=True))
    loc_ids = draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4, unique=True))
    locations = []
    for loc_id in loc_ids:
        scans = []
        for _ in range(draw(st.integers(1, 3))):
            heard = draw(st.lists(st.sampled_from(towers), min_size=1,
                                  max_size=MAX_READINGS_PER_SCAN, unique=True))
            asus = draw(st.lists(st.integers(0, ASU_MAX), min_size=len(heard), max_size=len(heard)))
            scans.append(scan(draw(st.integers(-2**40, 2**40)), zip(heard, asus)))
        locations.append(ReferenceLocation(loc_id, (draw(finite), draw(finite)), tuple(scans)))
    return from_locations(locations, testbed=draw(st.text(max_size=8)), grid_cell_m=draw(finite))


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(db=surveys())
    def test_load_inverts_save(self, tmp_path_factory, db):
        path = tmp_path_factory.mktemp("survey") / "db.jsonl"
        save_database(db, path)
        assert load_database(path) == db


class TestHeardCountHistogram:
    def test_all_same_count(self):
        scans = [scan(t, [(f"T{i}", 10) for i in range(5)]) for t in range(10)]
        loc = ReferenceLocation(0, (0, 0), tuple(scans))
        assert heard_count_histogram(loc) == {5: 1.0}

    def test_hand_counts(self):
        scans = [
            scan(0, [("A", 1), ("B", 2), ("C", 3)]),
            scan(1, [("A", 1), ("B", 2), ("C", 3)]),
            scan(2, [("A", 1), ("B", 2), ("C", 3), ("D", 4)]),
        ]
        loc = ReferenceLocation(0, (0, 0), tuple(scans))
        hist = heard_count_histogram(loc)
        assert hist == {3: pytest.approx(2 / 3), 4: pytest.approx(1 / 3)}

    def test_probabilities_sum_to_one(self, small_db):
        for loc in small_db.locations:
            assert sum(heard_count_histogram(loc).values()) == pytest.approx(1.0)
