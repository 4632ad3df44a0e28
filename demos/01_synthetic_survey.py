"""Generate a synthetic fingerprint survey and look at what the radio model
produces: per-location heard-tower histograms, signal ranges, and the
JSON-lines database round trip.

Run:  python demos/01_synthetic_survey.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from cellaug.core import heard_count_histogram, load_database, save_database
from cellaug.preprocess import vectorize_database
from cellaug.testbed import default_desk_spec, generate

spec = default_desk_spec()
print(f"testbed '{spec.name}': {spec.area[0]:.0f}x{spec.area[1]:.0f} m, "
      f"{len(spec.towers)} towers, {spec.scans_per_location} scans/location")

db = generate(spec)
print(f"generated {len(db.locations)} reference locations, "
      f"tower universe {db.tower_universe}")

# How many towers does one scan hear? Weak towers flicker around the
# sensitivity floor, so the count varies scan to scan.
overall = Counter(len(s.readings) for loc in db.locations for s in loc.scans)
total = sum(overall.values())
print("\nheard-tower counts over all scans:")
for k in sorted(overall):
    bar = "#" * int(60 * overall[k] / total)
    print(f"  {k} towers: {overall[k]/total:5.1%} {bar}")

corner = db.locations[0]
print(f"\nlocation 0 at {corner.coordinates}:")
for k, p in heard_count_histogram(corner).items():
    print(f"  hears {k} towers with probability {p:.2f}")

x = vectorize_database(db).x
print(f"\nfeature matrix: {x.shape[0]} vectors x {x.shape[1]} towers, "
      f"values in [{x.min():.2f}, {x.max():.2f}]")
heard_fraction = (x > 0).mean(axis=0)
for tower, frac in zip(db.tower_universe, heard_fraction):
    print(f"  {tower}: heard in {frac:5.1%} of scans, "
          f"mean level {x[:, db.tower_universe.index(tower)].mean():.2f}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "survey.jsonl"
    save_database(db, path)
    size_kb = path.stat().st_size / 1024
    assert load_database(path) == db
    print(f"\nround trip through {path.name} ({size_kb:.0f} KiB): lossless")
