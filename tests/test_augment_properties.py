"""Property tests of the augmenter invariants on random surveys and rows:
values stay in [0, 1], every output row keeps its source label, no tower
is added that was not heard at the location, and the threshold dropper
yields 2^k - 1 rows."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cellaug.augment import (
    MAX_THRESHOLD_CANDIDATES,
    AugmentConfig,
    augment_all,
    augment_drop_random,
    augment_drop_threshold,
    augment_noise,
    compute_stats,
)
from cellaug.core import ASU_MAX, RawScan, ReferenceLocation, from_locations
from cellaug.preprocess import vectorize

TOWERS = [f"T{i}" for i in range(6)]


@st.composite
def surveys(draw):
    """1-3 locations of 1-4 scans, each hearing 1-6 of six towers, as the
    hand-built locations; from_locations makes the database."""
    locations = []
    for loc_id in range(draw(st.integers(1, 3))):
        scans = []
        for ts in range(draw(st.integers(1, 4))):
            heard = draw(st.lists(st.sampled_from(TOWERS), min_size=1, max_size=6, unique=True))
            scans.append(RawScan(ts, tuple((t, draw(st.integers(0, ASU_MAX))) for t in heard)))
        locations.append(ReferenceLocation(loc_id, (float(loc_id), 0.0), tuple(scans)))
    return locations


FOUR_TECHNIQUES = AugmentConfig(noise_per_scan=3, sampling_n_per_location=4,
                                drop_random_per_scan=3, vae_enabled=False)


@settings(max_examples=40, deadline=None)
@given(locations=surveys(), seed=st.integers(0, 2**16), threshold=st.floats(0.0, 1.0))
def test_augment_all_invariants(locations, seed, threshold):
    cfg = replace(FOUR_TECHNIQUES, seed=seed, drop_threshold_value=threshold)
    out, counts = augment_all(from_locations(locations), cfg)
    assert len(out) == sum(counts.values())
    assert np.all((out.x >= 0.0) & (out.x <= 1.0))

    # labels: each technique's block runs location by location, with the
    # per-location row count worked out from the raw scans
    expected = []
    for per_loc in (
        lambda loc: len(loc.scans),                                   # originals
        lambda loc: len(loc.scans) * cfg.noise_per_scan,              # noise
        lambda loc: cfg.sampling_n_per_location,                      # sampling
        lambda loc: len(loc.scans) * cfg.drop_random_per_scan,        # drop_random
        lambda loc: sum(                                              # drop_threshold
            2 ** min(MAX_THRESHOLD_CANDIDATES,
                     sum(0 < asu / ASU_MAX < threshold for _, asu in scan.readings)) - 1
            for scan in loc.scans),
    ):
        for loc in locations:
            expected += [loc.location_id] * per_loc(loc)
    assert out.labels.tolist() == expected

    # no row holds a nonzero value for a tower never heard at its location
    for loc in locations:
        heard = {t for scan in loc.scans for t, _ in scan.readings}
        silent = [j for j, t in enumerate(out.towers) if t not in heard]
        assert np.all(out.x[out.labels == loc.location_id][:, silent] == 0.0)


@settings(max_examples=40, deadline=None)
@given(locations=surveys(), seed=st.integers(0, 2**16), max_drop=st.integers(1, 6))
def test_row_augmenters_touch_only_heard_entries(locations, seed, max_drop):
    db = from_locations(locations)
    samples, heard = vectorize(db)
    stats = compute_stats(db)
    rng = np.random.default_rng(seed)
    for loc in locations:
        rows = samples.labels == loc.location_id
        x, mask = samples.x[rows], heard[rows]
        noisy = augment_noise(x, mask, stats[loc.location_id], rng)
        assert np.all((noisy >= 0.0) & (noisy <= 1.0))
        assert np.array_equal(noisy[~mask], x[~mask])
        dropped = augment_drop_random(x, mask, stats[loc.location_id],
                                      AugmentConfig(drop_random_max_drop=max_drop), rng)
        assert np.all((dropped == x) | (dropped == 0.0))
        zeroed = (dropped != x).sum(axis=1)
        assert np.all(zeroed <= np.minimum(max_drop, np.maximum(mask.sum(axis=1) - 1, 0)))


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       threshold=st.floats(0.0, 1.0))
def test_drop_threshold_count_law(values, threshold):
    row = np.array(values)
    k = min(MAX_THRESHOLD_CANDIDATES, int(np.sum((row > 0.0) & (row < threshold))))
    out = augment_drop_threshold(row[None, :], AugmentConfig(drop_threshold_value=threshold))
    assert len(out) == 2**k - 1
    assert np.all((out == row) | (out == 0.0))
    assert len({tuple(r) for r in out}) == len(out)  # every combination once
