"""Fit Beta/Gamma/Gaussian models to per-tower signal samples and sample
from the winners. Bounded, left- or right-leaning RSS distributions tend to
favor Beta, which is the point of fitting several families and comparing
likelihoods.

Run:  python demos/02_distribution_fitting.py
"""

from collections import Counter

import numpy as np

from cellaug.distfit import fit_best, fit_database, sample_from
from cellaug.preprocess import location_blocks
from cellaug.testbed import default_desk_spec, generate

db = generate(default_desk_spec())
fits = fit_database(db)

tally = Counter(fit.family for per_tower in fits.values() for fit in per_tower.values())
print("winning family over all (location, tower) pairs:")
for family, count in tally.most_common():
    print(f"  {family:10s} {count}")

loc_id, x, heard = list(location_blocks(db))[14]
print(f"\nlocation {loc_id} at {tuple(db.coordinates[14].tolist())}:")
for tower, fit in fits[loc_id].items():
    params = ", ".join(f"{p:.3f}" for p in fit.params)
    ll = f"{fit.log_likelihood:8.1f}" if np.isfinite(fit.log_likelihood) else "     inf"
    print(f"  {tower}: {fit.family:10s} ({params})  log-likelihood {ll}  n={fit.sample_count}")

# Compare a fitted model's samples against the raw data moments.
tower = "T00"
j = db.tower_universe.index(tower)
samples = x[heard[:, j], j]
fit = fits[loc_id][tower]
draws = sample_from(fit, rng=7, n=50_000)
print(f"\n{tower} at location {loc_id}: fitted {fit.family}")
print(f"  data  mean {samples.mean():.4f}  std {samples.std():.4f}  (n={samples.size})")
print(f"  model mean {draws.mean():.4f}  std {draws.std():.4f}  (n={draws.size})")

# fit_best on hand-made data picks the generating family.
rng = np.random.default_rng(0)
for name, data in [
    ("Beta(2,5)", rng.beta(2, 5, 10_000)),
    ("Gamma(2,0.08)", rng.gamma(2.0, 0.08, 10_000)),
    ("Gaussian(0.5,0.12)", np.clip(rng.normal(0.5, 0.12, 10_000), 0, 1)),
]:
    print(f"  fit_best on {name:20s} -> {fit_best(data).family}")
