"""Train the per-location generative model and show why it exists: unlike
independent per-tower sampling, decoding latent draws preserves the joint
structure between towers.

Run:  python demos/04_generative_model.py
"""

import numpy as np

from cellaug.distfit import fit_best, sample_from
from cellaug.vae import VaeTrainConfig, generate, train_vae, vae_loss

# Toy location: two towers whose signals rise and fall together (rho = 0.9),
# as happens when one obstruction shadows both paths.
rng = np.random.default_rng(42)
cov = np.array([[1.0, 0.9], [0.9, 1.0]])
data = np.clip(0.5 + 0.15 * rng.multivariate_normal([0, 0], cov, size=200), 0, 1)
print(f"training data: {len(data)} scans, tower correlation "
      f"{np.corrcoef(data[:, 0], data[:, 1])[0, 1]:.3f}")

cfg = VaeTrainConfig(epochs=3000, learning_rate=0.001, seed=1)
model = train_vae(data, cfg, location_id=0)
print(f"trained {cfg.epochs} epochs: loss {model.trace[0]:.3f} -> {model.trace[-1]:.3f}")

loss, _ = vae_loss(data[0], model, rng=0)
print(f"one-sample loss: reconstruction {loss.reconstruction:.4f} "
      f"+ kl {loss.kl:.4f} = {loss.total:.4f}")

generated = generate(model, 9, 10_000)
gen_corr = np.corrcoef(generated[:, 0], generated[:, 1])[0, 1]
print(f"\ngenerated 10000 samples: correlation {gen_corr:.3f} "
      f"(mean {generated.mean(axis=0).round(3)}, std {generated.std(axis=0).round(3)})")

# The sampling technique fits each tower separately, so its synthetic
# vectors cannot carry the cross-tower relationship.
fits = [fit_best(data[:, 0]), fit_best(data[:, 1])]
srng = np.random.default_rng(9)
sampled = np.column_stack([sample_from(f, srng, 10_000) for f in fits])
ind_corr = np.corrcoef(sampled[:, 0], sampled[:, 1])[0, 1]
print(f"independent sampling from per-tower fits: correlation {ind_corr:+.3f}")

print("\nscatter of 40 generated pairs (x = tower 0, y = tower 1):")
for row in generated[:40:4]:
    pad = int(40 * row[0])
    print("  " + " " * pad + "*" + f"   ({row[0]:.2f}, {row[1]:.2f})")
