import numpy as np
import pytest

from cellaug.core import RawScan, ReferenceLocation, from_locations
from cellaug.preprocess import (
    SampleSet,
    asu_to_dbm,
    normalize_asu,
    vectorize,
    vectorize_database,
)


def vectorize_scan(scan, towers, label=0):
    """Row, label and heard mask of one scan vectorized over `towers`."""
    db = from_locations([ReferenceLocation(label, (0.0, 0.0), (scan,))])
    samples, heard = vectorize(db, towers)
    return samples.x[0], int(samples.labels[0]), heard[0]


class TestAsuToDbm:
    def test_endpoints_and_midpoint(self):
        assert asu_to_dbm(0) == -113
        assert asu_to_dbm(31) == -51
        assert asu_to_dbm(16) == -81

    def test_affine_over_all_values(self):
        for asu in range(32):
            assert asu_to_dbm(asu) == 2 * asu - 113

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="ASU out of range"):
            asu_to_dbm(32)
        with pytest.raises(ValueError, match="ASU out of range"):
            asu_to_dbm(-1)


class TestNormalizeAsu:
    def test_bounds_and_ratio(self):
        assert normalize_asu(0) == 0.0
        assert normalize_asu(31) == 1.0
        assert normalize_asu(15) == pytest.approx(15 / 31)

    def test_monotone_into_unit_interval(self):
        values = [normalize_asu(a) for a in range(32)]
        assert values == sorted(values)
        assert all(0.0 <= v <= 1.0 for v in values)
        # dBm is affine in the normalized value on the whole grid
        for asu, v in enumerate(values):
            assert asu_to_dbm(asu) == pytest.approx(62.0 * v - 113.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            normalize_asu(33)


class TestVectorize:
    def test_zero_fill_and_collision(self):
        s = RawScan(0, (("A", 31), ("C", 0)))
        values, location_id, mask = vectorize_scan(s, ("A", "B", "C"), label=4)
        assert np.array_equal(values, [1.0, 0.0, 0.0])
        assert location_id == 4
        # the raw scan keeps the heard/unheard distinction the vector loses
        assert mask.tolist() == [True, False, True]

    def test_two_tower_scan(self):
        values, _, _ = vectorize_scan(RawScan(0, (("A", 15), ("B", 31))), ("A", "B"))
        assert np.allclose(values, [15 / 31, 1.0])

    def test_unknown_tower(self):
        with pytest.raises(ValueError, match="unknown tower"):
            vectorize_scan(RawScan(0, (("D", 1),)), ("A", "B"))

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        universe = tuple(f"T{i}" for i in range(6))
        for _ in range(50):
            k = int(rng.integers(1, 7))
            heard = rng.choice(6, size=k, replace=False)
            s = RawScan(0, tuple((universe[j], int(rng.integers(0, 32))) for j in heard))
            values, _, _ = vectorize_scan(s, universe)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)
            for tower, asu in s.readings:
                if asu > 0:
                    assert values[universe.index(tower)] > 0.0


class TestVectorizeDatabase:
    def test_55_locations_17_towers(self):
        rng = np.random.default_rng(3)
        towers = [f"C{i:02d}" for i in range(17)]
        locations = []
        for loc_id in range(55):
            heard = rng.choice(17, size=6, replace=False)
            scans = (RawScan(0, tuple((towers[j], 10) for j in sorted(heard))),)
            locations.append(ReferenceLocation(loc_id, (float(loc_id), 0.0), scans))
        db = from_locations(locations)
        vectors = vectorize_database(db)
        assert len(vectors) == 55
        assert vectors.x.shape[1] == 17
        assert sorted(set(vectors.labels.tolist())) == list(range(55))

    def test_single_scan(self):
        db = from_locations(
            [ReferenceLocation(0, (0, 0), (RawScan(0, (("A", 1),)),)),
             ReferenceLocation(1, (1, 0), (RawScan(0, (("A", 2),)),))]
        )
        assert len(vectorize_database(db)) == 2

    def test_empty_locations(self):
        db = from_locations([])
        assert len(vectorize_database(db)) == 0

    def test_deterministic_order(self):
        scans0 = (RawScan(0, (("A", 1),)), RawScan(1, (("A", 2),)))
        scans1 = (RawScan(0, (("B", 3),)),)
        db = from_locations([
            ReferenceLocation(1, (1, 0), scans1),
            ReferenceLocation(0, (0, 0), scans0),
        ])
        labels = vectorize_database(db).labels.tolist()
        assert labels == [0, 0, 1]


class TestSampleSet:
    def test_equality_compares_values_and_labels(self):
        a = SampleSet(np.array([[0.1, 0.2]]), [1], ("A", "B"))
        b = SampleSet(np.array([[0.1, 0.2]]), [1], ("A", "B"))
        c = SampleSet(np.array([[0.1, 0.3]]), [1], ("A", "B"))
        assert a == b
        assert a != c
        assert a != SampleSet(np.array([[0.1, 0.2]]), [2], ("A", "B"))

    def test_misaligned_shapes_rejected(self):
        with pytest.raises(ValueError, match="matrix"):
            SampleSet(np.zeros((2, 3)), [0, 1], ("A", "B"))
        with pytest.raises(ValueError, match="labels"):
            SampleSet(np.zeros((2, 2)), [0], ("A", "B"))
