import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug.core import (
    MAX_READINGS_PER_SCAN,
    RawScan,
    ReferenceLocation,
    from_locations,
    heard_count_histogram,
)
from cellaug.testbed import TestbedSpec as SurveySpec
from cellaug.testbed import (
    MAX_REFERENCE_POINTS,
    Tower,
    dbm_to_asu,
    default_desk_spec,
    generate,
    received_dbm,
    spec_from_file,
)
from cellaug.util import ConfigError, derive_rng


def poisson_binomial(probabilities):
    """Distribution of the number of successes of independent Bernoullis.

    Independent oracle for the generator's heard-count histogram (valid
    while the per-scan cap never binds).
    """
    dist = np.array([1.0])
    for p in probabilities:
        dist = np.convolve(dist, [1.0 - p, p])
    return dist


def scalar_generate(spec):
    """generate as one shadowing draw per tower per scan, with the readings
    sorted, capped and converted one scan at a time."""
    locations = []
    for loc_id, point in enumerate(spec.reference_points()):
        rng = derive_rng(spec.seed, "testbed", loc_id)
        scans = []
        for s in range(spec.scans_per_location):
            heard = []
            for tower in spec.towers:
                dbm = received_dbm(tower, point, spec.path_loss_exponent)
                if spec.shadow_sigma_db > 0:
                    dbm += rng.normal(0.0, spec.shadow_sigma_db)
                if dbm >= spec.sensitivity_dbm:
                    heard.append((tower.tower_id, dbm))
            heard.sort(key=lambda pair: (-pair[1], pair[0]))
            readings = [(t, dbm_to_asu(dbm)) for t, dbm in heard[:MAX_READINGS_PER_SCAN]]
            scans.append(RawScan(s, tuple(readings)))
        locations.append(ReferenceLocation(loc_id, point, tuple(scans)))
    grid = spec.grid_spacing_m if spec.grid_spacing_m else 1.0
    return from_locations(locations, testbed=spec.name, grid_cell_m=grid)


def spec_with(towers, sigma=0.0, scans=10, seed=1, points=((0.0, 0.0), (5.0, 0.0)), **kw):
    defaults = dict(
        name="t",
        area=(10.0, 10.0),
        towers=tuple(towers),
        path_loss_exponent=2.0,
        shadow_sigma_db=sigma,
        sensitivity_dbm=-111.0,
        scans_per_location=scans,
        seed=seed,
        points=tuple(points) if points else None,
    )
    defaults.update(kw)
    return SurveySpec(**defaults)


class TestPathLossArithmetic:
    def test_asu_step_at_doubled_distance(self):
        # P=-50 dBm, n=2: moving from 4 m to 8 m loses 6.02 dB = 3 ASU steps
        near = Tower("A", (4.0, 0.0), -50.0)
        far_silent = Tower("B", (1000.0, 1000.0), -50.0)  # all locations: below floor
        spec = spec_with([near, far_silent], points=((0.0, 0.0), (-4.0, 0.0)))
        db = generate(spec)
        first = np.searchsorted(db.scan_location, np.arange(len(db.location_ids)))
        column = db.tower_universe.index("A")
        asu_at = dict(zip(db.location_ids.tolist(), db.asu[first, column].tolist()))
        assert asu_at[0] == dbm_to_asu(-50.0 - 20.0 * math.log10(4.0))
        assert asu_at[1] == dbm_to_asu(-50.0 - 20.0 * math.log10(8.0))
        assert asu_at[0] - asu_at[1] == 3

    def test_tower_beyond_sensitivity_never_heard(self):
        near = Tower("A", (1.0, 0.0), -50.0)
        weak = Tower("B", (0.0, 8.0), -95.0)  # -95 - 20*log10(8) = -113.1 < -111
        db = generate(spec_with([near, weak], points=((0.0, 0.0),) * 1 + ((0.1, 0.0),)))
        assert "B" not in db.tower_universe  # the universe is every tower any scan heard

    def test_coincident_tower_clamped_to_reference_distance(self):
        t = Tower("A", (0.0, 0.0), -60.0)
        assert received_dbm(t, (0.0, 0.0), 3.0) == -60.0

    def test_dbm_to_asu_clipping(self):
        assert dbm_to_asu(-150.0) == 0
        assert dbm_to_asu(10.0) == 31
        assert dbm_to_asu(-113.0) == 0
        assert dbm_to_asu(-51.0) == 31


class TestGenerate:
    def test_deterministic(self):
        spec = default_desk_spec()
        assert generate(spec) == generate(spec)

    def test_scan_cap_and_asu_range(self):
        towers = [Tower(f"T{i:02d}", (float(i), 0.0), -50.0) for i in range(12)]
        db = generate(spec_with(towers, sigma=2.0, points=((0.0, 1.0), (3.0, 1.0))))
        assert np.all(db.heard.sum(axis=1) == 7)  # 12 strong towers, cap binds
        assert np.all((0 <= db.asu) & (db.asu <= 31))

    def test_strongest_towers_kept_under_cap(self):
        # 8 towers at increasing distance, no shadowing: the nearest 7 survive
        towers = [Tower(f"T{i}", (float(i + 1), 0.0), -50.0) for i in range(8)]
        db = generate(spec_with(towers, points=((0.0, 0.0), (0.0, 0.1))))
        heard = {db.tower_universe[j] for j in np.flatnonzero(db.heard[0])}
        assert heard == {f"T{i}" for i in range(7)}  # T7 is the farthest

    def test_equals_scalar_reference(self):
        # 8 towers, listed out of id order. T5 and T4 sit near the sensitivity
        # floor, so they drop in and out, and the cap binds when both are heard
        towers = [Tower(f"T{i}", (2.0 * i - 6.0, 1.0), -50.0) for i in (3, 0, 7, 1, 6, 2)]
        towers += [Tower("T5", (0.0, 110.0), -70.0), Tower("T4", (110.0, 0.0), -70.0)]
        spec = spec_with(towers, sigma=4.0, scans=40, points=((0.0, 0.0), (4.0, 2.0), (-3.0, 5.0)))
        db = generate(spec)
        heard_t5 = db.heard[:, db.tower_universe.index("T5")]
        assert 0 < heard_t5.sum() < heard_t5.size
        assert np.any(db.heard.sum(axis=1) == MAX_READINGS_PER_SCAN)
        assert db == scalar_generate(spec)

    def test_equals_scalar_reference_on_desk_spec(self):
        # 60 scans x 10 towers per location: one block draw is the scalar draws
        assert generate(default_desk_spec()) == scalar_generate(default_desk_spec())

    def test_ties_break_by_tower_id_without_shadowing(self):
        # mirror-image towers are heard at equal dBm; no draw is made at sigma 0
        towers = [Tower(t, (x, 0.0), -50.0)
                  for t, x in (("T3", 5.0), ("T1", 3.0), ("T2", -5.0), ("T0", -3.0))]
        spec = spec_with(towers, points=((0.0, 0.0), (0.0, 1.0)))
        db = generate(spec)
        assert db == scalar_generate(spec)
        assert db.position[0].tolist() == [0, 1, 2, 3]

    def test_all_locations_hear_nothing_raises(self):
        towers = [Tower("A", (500.0, 0.0), -80.0), Tower("B", (0.0, 500.0), -80.0)]
        with pytest.raises(ValueError, match="hears no towers"):
            generate(spec_with(towers))

    def test_heard_histogram_matches_poisson_binomial(self):
        # towers straddling the sensitivity floor; cap never binds (5 towers)
        towers = [
            Tower("A", (3.0, 0.0), -50.0),
            Tower("B", (0.0, 40.0), -72.0),
            Tower("C", (50.0, 0.0), -74.0),
            Tower("D", (0.0, -60.0), -73.0),
            Tower("E", (80.0, 80.0), -70.0),
        ]
        sigma = 3.0
        spec = spec_with(towers, sigma=sigma, scans=1000, points=((0.0, 0.0), (1.0, 0.0)))
        db = generate(spec)
        hear_probs = []
        for tower in towers:
            det = received_dbm(tower, tuple(db.coordinates[0]), spec.path_loss_exponent)
            z = (det - spec.sensitivity_dbm) / sigma
            hear_probs.append(0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
        oracle = poisson_binomial(hear_probs)
        hist = heard_count_histogram(db.heard[db.scan_location == 0])
        for k, expected in enumerate(oracle):
            assert abs(hist.get(k, 0.0) - expected) < 0.05

    def test_histogram_non_degenerate_near_floor(self):
        db = generate(default_desk_spec())
        hist = heard_count_histogram(db.heard[db.scan_location == 0])
        assert len(hist) >= 2


class TestDefaultDeskSpec:
    def test_thirty_six_grid_points(self):
        spec = default_desk_spec()
        assert len(spec.reference_points()) == 36
        db = generate(spec)
        assert len(db.location_ids) == 36
        assert db.grid_cell_m == 2.0

    def test_universe_within_ten_towers(self):
        db = generate(default_desk_spec())
        assert db.n_towers <= 10

    def test_database_satisfies_invariants(self):
        # construction through from_locations validates everything
        db = generate(default_desk_spec())
        assert db.tower_universe == tuple(sorted(db.tower_universe))
        heard_counts = db.heard.sum(axis=1)
        assert np.all((1 <= heard_counts) & (heard_counts <= 7))


class TestSpecValidation:
    def test_too_few_towers(self):
        with pytest.raises(ConfigError, match="at least 2 towers"):
            spec_with([Tower("A", (0.0, 0.0), -50.0)])

    def test_needs_layout(self):
        towers = [Tower("A", (0.0, 0.0), -50.0), Tower("B", (1.0, 0.0), -50.0)]
        with pytest.raises(ConfigError, match="grid_spacing_m or explicit points"):
            spec_with(towers, points=None)

    def test_needs_two_locations(self):
        towers = [Tower("A", (0.0, 0.0), -50.0), Tower("B", (1.0, 0.0), -50.0)]
        with pytest.raises(ConfigError, match="at least 2 reference locations"):
            spec_with(towers, points=((0.0, 0.0),))

    @pytest.mark.parametrize("spacing", [0.001, 1e-9, 5e-324])
    def test_too_fine_grid_refused_before_it_is_built(self, spacing):
        towers = [Tower("A", (0.0, 0.0), -50.0), Tower("B", (1.0, 0.0), -50.0)]
        with pytest.raises(ConfigError, match=f"grid_spacing_m .* more than {MAX_REFERENCE_POINTS}"):
            spec_with(towers, points=None, area=(12.0, 12.0), grid_spacing_m=spacing)

    @settings(max_examples=200, deadline=None)
    @given(spacing=st.floats(0.05, 20.0),
           cells=st.lists(st.one_of(st.floats(0.2, 40.0),
                                    st.integers(0, 40).map(lambda k: k + 0.5)),
                          min_size=2, max_size=2))
    def test_grid_size_check_counts_the_points_built(self, spacing, cells):
        # the bound is checked on a count computed before the grid exists;
        # half-integer cell counts sit on np.arange's rounding edge
        towers = [Tower("A", (0.0, 0.0), -50.0), Tower("B", (1.0, 0.0), -50.0)]
        width, height = spacing * cells[0], spacing * cells[1]
        try:
            spec = spec_with(towers, points=None, area=(width, height), grid_spacing_m=spacing)
        except ConfigError as exc:
            assert "at least 2 reference locations" in str(exc)
            spec = None
        n_built = len(np.arange(spacing / 2.0, width, spacing)) * len(
            np.arange(spacing / 2.0, height, spacing))
        assert (spec is None) == (n_built < 2)
        if spec is not None:
            assert len(spec.reference_points()) == n_built


class TestSpecFromFile:
    def test_parses_complete_file(self, tmp_path):
        path = tmp_path / "tb.cfg"
        path.write_text(
            "name = mini\n"
            "area.width = 10\n"
            "area.height = 8\n"
            "grid.spacing = 4\n"
            "path_loss_exponent = 2.5\n"
            "shadow_sigma_db = 3\n"
            "sensitivity_dbm = -111\n"
            "scans_per_location = 12\n"
            "seed = 5\n"
            "tower.A = 1, 2, -50\n"
            "tower.B = 9, 7, -60\n"
        )
        spec = spec_from_file(path)
        assert spec.name == "mini"
        assert spec.area == (10.0, 8.0)
        assert len(spec.towers) == 2
        assert spec.towers[0].tower_id == "A"
        db = generate(spec)
        assert len(db.location_ids) == len(spec.reference_points())

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "tb.cfg"
        path.write_text("area.width = 10\ntower.A = 1, 2, -50\n")
        with pytest.raises(ConfigError, match="missing testbed config keys"):
            spec_from_file(path)

    def test_bad_tower_line_rejected(self, tmp_path):
        path = tmp_path / "tb.cfg"
        path.write_text(
            "area.width = 10\narea.height = 10\ngrid.spacing = 5\n"
            "path_loss_exponent = 2\nshadow_sigma_db = 0\nsensitivity_dbm = -111\n"
            "scans_per_location = 1\nseed = 0\n"
            "tower.A = 1, 2\n"
        )
        with pytest.raises(ConfigError, match="tower.A"):
            spec_from_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "tb.cfg"
        path.write_text(
            "area.width = 10\narea.height = 10\ngrid.spacing = 5\n"
            "path_loss_exponent = 2\nshadow_sigma_db = 0\nsensitivity_dbm = -111\n"
            "scans_per_location = 1\nseed = 0\nbogus = 1\n"
            "tower.A = 1, 2, -50\ntower.B = 3, 4, -50\n"
        )
        with pytest.raises(ConfigError, match="unknown testbed config key"):
            spec_from_file(path)
