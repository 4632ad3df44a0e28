import numpy as np
import pytest

from cellaug.core import ASU_MAX, FingerprintDatabase
from cellaug.preprocess import SampleSet, vectorize, vectorize_database
from conftest import survey


def vectorize_scan(readings, towers, label=0):
    """Row, label and heard mask of one scan vectorized over `towers`."""
    samples, heard = vectorize(survey([(label, (0.0, 0.0), [(0, readings)])]), towers)
    return samples.x[0], int(samples.labels[0]), heard[0]


class TestVectorize:
    def test_zero_fill_and_collision(self):
        values, location_id, mask = vectorize_scan([("A", 31), ("C", 0)], ("A", "B", "C"), label=4)
        assert np.array_equal(values, [1.0, 0.0, 0.0])
        assert location_id == 4
        # the raw scan keeps the heard/unheard distinction the vector loses
        assert mask.tolist() == [True, False, True]

    def test_two_tower_scan(self):
        values, _, _ = vectorize_scan([("A", 15), ("B", 31)], ("A", "B"))
        assert np.allclose(values, [15 / 31, 1.0])

    def test_every_asu_value_scales_by_asu_max(self):
        db = survey([(0, (0.0, 0.0), [(asu, [("A", asu)]) for asu in range(ASU_MAX + 1)])])
        values = vectorize_database(db).x[:, 0]
        assert values.tolist() == [asu / ASU_MAX for asu in range(ASU_MAX + 1)]
        assert values[0] == 0.0 and values[-1] == 1.0 and np.all(np.diff(values) > 0)

    def test_unknown_tower(self):
        with pytest.raises(ValueError, match="unknown tower"):
            vectorize_scan([("D", 1)], ("A", "B"))

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(0)
        universe = tuple(f"T{i}" for i in range(6))
        for _ in range(50):
            k = int(rng.integers(1, 7))
            heard = rng.choice(6, size=k, replace=False)
            readings = [(universe[j], int(rng.integers(0, 32))) for j in heard]
            values, _, _ = vectorize_scan(readings, universe)
            assert np.all(values >= 0.0) and np.all(values <= 1.0)
            for tower, asu in readings:
                if asu > 0:
                    assert values[universe.index(tower)] > 0.0


class TestVectorizeDatabase:
    def test_55_locations_17_towers(self):
        rng = np.random.default_rng(3)
        towers = [f"C{i:02d}" for i in range(17)]
        locations = []
        for loc_id in range(55):
            heard = rng.choice(17, size=6, replace=False)
            scans = [(0, [(towers[j], 10) for j in sorted(heard)])]
            locations.append((loc_id, (float(loc_id), 0.0), scans))
        db = survey(locations)
        vectors = vectorize_database(db)
        assert len(vectors) == 55
        assert vectors.x.shape[1] == 17
        assert sorted(set(vectors.labels.tolist())) == list(range(55))

    def test_single_scan(self):
        db = survey([(0, (0, 0), [(0, [("A", 1)])]), (1, (1, 0), [(0, [("A", 2)])])])
        assert len(vectorize_database(db)) == 2

    def test_empty_locations(self):
        db = FingerprintDatabase((), [], np.zeros((0, 2)), [], [], np.zeros((0, 0)), np.zeros((0, 0)))
        assert len(vectorize_database(db)) == 0

    def test_deterministic_order(self):
        db = survey([(1, (1, 0), [(0, [("B", 3)])]),
                     (0, (0, 0), [(0, [("A", 1)]), (1, [("A", 2)])])])
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
