"""The whole point, end to end: starve the localizer down to 5 training
scans per location, then train it again on the augmented set and compare
median errors on the identical held-out scans.

Run:  python demos/05_end_to_end_comparison.py   (a few seconds)
"""

from cellaug.augment import AugmentConfig
from cellaug.localize import desk_profile
from cellaug.pipeline import run_comparison
from cellaug.testbed import default_desk_spec, generate

db = generate(default_desk_spec())
print(f"survey: {len(db.location_ids)} locations x "
      f"{db.scan_counts[0]} scans, {db.n_towers} towers")

cfg = AugmentConfig(seed=1)
profile = desk_profile()
print("training budget: 5 scans/location; remaining 55 scans/location held out")

result = run_comparison(db, cfg, profile, train_scans=5)

print("\naugmented training set:")
for technique, count in result.augmented_counts.items():
    print(f"  {technique:15s} {count:6d}")

wo, w = result.without_augmentation, result.with_augmentation
print(f"\n{'':14s} {'p25':>8s} {'p50':>8s} {'p75':>8s}")
print(f"{'without aug':14s} {wo.p25:8.3f} {wo.p50:8.3f} {wo.p75:8.3f}")
print(f"{'with aug':14s} {w.p25:8.3f} {w.p50:8.3f} {w.p75:8.3f}")

imp = result.improvement_percent
fmt = {k: (v if isinstance(v, str) else f"{v:.1f}%") for k, v in imp.items()}
print(f"{'improvement':14s} {fmt['p25']:>8s} {fmt['p50']:>8s} {fmt['p75']:>8s}")

print("\nfirst CDF points (error m, fraction of test scans within it):")
for err, frac in w.cdf[:: len(w.cdf) // 8][:8]:
    print(f"  {err:7.3f}  {frac:.3f}")
