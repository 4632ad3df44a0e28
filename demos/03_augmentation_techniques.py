"""Walk through the four augmentation techniques on one location: additive
noise scaled to each tower's observed range, independent per-tower sampling,
random tower dropping with a protected serving cell, and exhaustive
threshold-based dropping.

Run:  python demos/03_augmentation_techniques.py
"""

import numpy as np

from cellaug.augment import (
    AugmentConfig,
    augment_all,
    augment_drop_random,
    augment_drop_threshold,
    augment_noise,
    augment_sampling,
    compute_stats,
)
from cellaug.distfit import fit_database
from cellaug.preprocess import location_blocks
from cellaug.testbed import default_desk_spec, generate
from cellaug.util import derive_rng


def show(name, values):
    print(f"  {name:18s} " + " ".join(f"{v:4.2f}" for v in values))


db = generate(default_desk_spec())
# Each technique works on row blocks: here the location's scans, one row each,
# with the heard mask that tells a heard ASU 0 from an unheard tower.
loc_id, x, heard = list(location_blocks(db))[7]
stats = compute_stats(db)[loc_id]
v, mask = x[:1], heard[:1]  # the first scan

print(f"location {loc_id} at {tuple(db.coordinates[7].tolist())}, first scan:")
show("towers", range(len(db.tower_universe)))
show("original", v[0])
show("noise scale s", stats.noise_scale)

rng = derive_rng(0, "demo-noise")
print("\nadditive noise (three draws):")
for row in augment_noise(np.repeat(v, 3, axis=0), np.repeat(mask, 3, axis=0), stats, rng):
    show("noisy copy", row)

print("\nindependent per-tower sampling from fitted distributions:")
fits = fit_database(db)
rng = derive_rng(0, "demo-sampling")
for sample in augment_sampling(heard, fits[loc_id], db.tower_universe, rng, 3):
    show("sampled", sample)

print("\nrandom tower dropper (protected: strongest mean tower):")
cfg = AugmentConfig()
protected = int(np.argmax(np.where(mask[0], stats.mean_values, -1)))
print(f"  protected tower index: {protected}")
rng = derive_rng(0, "demo-drop")
for row in augment_drop_random(np.repeat(v, 3, axis=0), np.repeat(mask, 3, axis=0),
                               stats, cfg, rng):
    show("masked copy", row)

weak = np.flatnonzero((v[0] > 0) & (v[0] < cfg.drop_threshold_value))
print(f"\nthreshold dropper (candidates below {cfg.drop_threshold_value}: "
      f"indices {weak.tolist()}):")
for out in augment_drop_threshold(v, cfg):
    show("combination", out)

print("\ncombining everything on the whole training set:")
fast = AugmentConfig(noise_per_scan=2, sampling_n_per_location=5,
                     drop_random_per_scan=2, vae_n_per_location=5,
                     vae_epochs=150, seed=0)
samples, counts = augment_all(db, fast)
for technique, count in counts.items():
    print(f"  {technique:15s} {count:6d} vectors")
print(f"  {'total':15s} {len(samples):6d}")
