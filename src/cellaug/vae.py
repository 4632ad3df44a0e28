"""Per-location variational autoencoder for generative augmentation.

One model is trained per reference location on that location's feature
vectors. The encoder maps a vector to the mean and log-variance of a
5-dimensional Gaussian latent; the loss is squared-error reconstruction
plus the closed-form KL against the standard normal prior, with the
reparameterization trick for gradient flow. New samples come from decoding
standard-normal latent draws.

Training weights the reconstruction term by RECON_WEIGHT = 1/sigma_rec^2
with sigma_rec = 0.1, i.e. a Gaussian decoder calibrated to the scale of
normalized RSS. With a unit-variance decoder the KL term dominates on
data whose per-tower variance is far below 1 and the posterior collapses,
leaving the decoder blind to the latent and destroying exactly the
joint-structure capture this augmenter exists for. Batches are the full
location up to 64 rows, else chunks of 32.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    DenseNetwork,
    Gradients,
    LayerSpec,
    TrainingDiverged,
    backward,
    forward,
    forward_with_cache,
    init_network,
    network_from_dict,
    network_to_dict,
    sgd_step,
)
from .util import as_rng, derive_rng

LATENT_DIM = 5
HIDDEN_UNITS = 10

# Per-location datasets are small: full batch up to this size, else chunks of 32.
FULL_BATCH_LIMIT = 64
MINI_BATCH = 32
RECON_WEIGHT = 100.0  # 1/sigma_rec^2 for sigma_rec = 0.1


@dataclass(frozen=True)
class VaeTrainConfig:
    epochs: int = 3000
    learning_rate: float = 0.001
    seed: int = 0


@dataclass(frozen=True)
class VaeLoss:
    reconstruction: float
    kl: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.kl


@dataclass
class VaeModel:
    encoder: DenseNetwork
    decoder: DenseNetwork
    location_id: int
    trace: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.encoder.output_dim != 2 * self.latent_dim:
            raise ValueError(
                f"encoder must emit mean and log-variance: output dim "
                f"{self.encoder.output_dim} != 2 * latent {self.latent_dim}"
            )

    @property
    def latent_dim(self) -> int:
        return self.decoder.input_dim

    @property
    def n_features(self) -> int:
        return self.encoder.input_dim


@dataclass
class VaeCache:
    enc_cache: object
    dec_cache: object
    x: np.ndarray
    xhat: np.ndarray
    mu: np.ndarray
    log_var: np.ndarray
    eps: np.ndarray


def build_vae(
    n_features: int, seed: int, latent_dim: int = LATENT_DIM, hidden: int = HIDDEN_UNITS,
    location_id: int = -1,
) -> VaeModel:
    """Fresh encoder/decoder pair with the 10-5-10 bottleneck structure."""
    enc = init_network(
        [LayerSpec(n_features, hidden, "tanh"), LayerSpec(hidden, 2 * latent_dim, "linear")],
        derive_rng(seed, "vae-encoder"),
    )
    dec = init_network(
        [LayerSpec(latent_dim, hidden, "tanh"), LayerSpec(hidden, n_features, "sigmoid")],
        derive_rng(seed, "vae-decoder"),
    )
    return VaeModel(enc, dec, location_id)


def kl_to_standard_normal(mu: np.ndarray, log_var: np.ndarray) -> float:
    """KL(N(mu, diag(exp(log_var))) || N(0, I)) in closed form."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    return float(0.5 * np.sum(np.exp(log_var) + mu**2 - 1.0 - log_var))


def _batch_loss(model: VaeModel, x: np.ndarray, eps: np.ndarray) -> tuple[VaeLoss, VaeCache]:
    enc_out, enc_cache = forward_with_cache(model.encoder, x)
    d = model.latent_dim
    mu, log_var = enc_out[:, :d], enc_out[:, d:]
    z = mu + np.exp(0.5 * log_var) * eps
    xhat, dec_cache = forward_with_cache(model.decoder, z)
    n = x.shape[0]
    rec = 0.5 * np.sum((x - xhat) ** 2) / n
    kl = kl_to_standard_normal(mu, log_var) / n
    return VaeLoss(float(rec), kl), VaeCache(enc_cache, dec_cache, x, xhat, mu, log_var, eps)


def vae_grads(
    model: VaeModel, cache: VaeCache, recon_weight: float = 1.0
) -> tuple[Gradients, Gradients]:
    """Analytic encoder/decoder gradients of recon_weight * rec + kl."""
    n = cache.x.shape[0]
    d_xhat = recon_weight * (cache.xhat - cache.x) / n
    dec_grads, d_z = backward(model.decoder, cache.dec_cache, d_xhat)
    sigma = np.exp(0.5 * cache.log_var)
    d_mu = d_z + cache.mu / n
    d_log_var = d_z * cache.eps * 0.5 * sigma + 0.5 * (np.exp(cache.log_var) - 1.0) / n
    enc_grads, _ = backward(
        model.encoder, cache.enc_cache, np.concatenate([d_mu, d_log_var], axis=1)
    )
    return enc_grads, dec_grads


def vae_loss(
    x: np.ndarray,
    model: VaeModel,
    rng: np.random.Generator | int | None = None,
    eps: np.ndarray | None = None,
) -> tuple[VaeLoss, VaeCache]:
    """Loss of one 1-D vector with a single reparameterized latent draw.

    Passing eps freezes the draw, making the loss a deterministic function
    of the parameters (used by the finite-difference gradient checks).
    """
    values = np.asarray(x, dtype=np.float64)
    if values.shape != (model.n_features,):
        raise ValueError(f"expected vector of length {model.n_features}, got {values.shape}")
    if eps is None:
        eps = as_rng(rng).standard_normal(model.latent_dim)
    return _batch_loss(model, values[None, :], np.asarray(eps, dtype=np.float64)[None, :])


def train_vae(
    x: np.ndarray,
    cfg: VaeTrainConfig | None = None,
    location_id: int | None = None,
) -> VaeModel:
    """Train one VAE on the (n, m) rows of one location; returns the model
    with its loss trace."""
    cfg = cfg or VaeTrainConfig()
    if location_id is None:
        raise ValueError("location_id required: it seeds and names the model")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"too few samples to train a VAE: {n}")

    init_seed = int(derive_rng(cfg.seed, "vae-init", location_id).integers(0, 2**32))
    model = build_vae(x.shape[1], init_seed, location_id=location_id)
    batch = n if n <= FULL_BATCH_LIMIT else MINI_BATCH
    rng = derive_rng(cfg.seed, "vae-train", location_id)

    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            eps = rng.standard_normal((idx.size, model.latent_dim))
            loss, cache = _batch_loss(model, x[idx], eps)
            enc_grads, dec_grads = vae_grads(model, cache, RECON_WEIGHT)
            sgd_step(model.encoder, enc_grads, cfg.learning_rate)
            sgd_step(model.decoder, dec_grads, cfg.learning_rate)
            total += (RECON_WEIGHT * loss.reconstruction + loss.kl) * idx.size
        epoch_loss = total / n
        trace.append(epoch_loss)
        if not np.isfinite(epoch_loss):
            raise TrainingDiverged(
                f"VAE training (location {location_id}): loss diverged "
                f"at epoch {len(trace)}", trace
            )
    model.trace = trace
    return model


def generate(model: VaeModel, rng, n: int) -> np.ndarray:
    """Decode n standard-normal latent draws into (n, m) synthetic rows."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = as_rng(rng)
    z = gen.standard_normal((n, model.latent_dim))
    return np.clip(forward(model.decoder, z), 0.0, 1.0)


def vae_to_dict(model: VaeModel) -> dict:
    return {
        "location_id": model.location_id,
        "encoder": network_to_dict(model.encoder),
        "decoder": network_to_dict(model.decoder),
    }


def vae_from_dict(data: dict) -> VaeModel:
    return VaeModel(
        encoder=network_from_dict(data["encoder"]),
        decoder=network_from_dict(data["decoder"]),
        location_id=int(data["location_id"]),
    )


def save_vae_models(models: dict[int, VaeModel], path: str | Path) -> None:
    """Bundle the per-location models of one database into a single file."""
    payload = {"locations": {str(loc): vae_to_dict(m) for loc, m in sorted(models.items())}}
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_vae_models(path: str | Path) -> dict[int, VaeModel]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {int(loc): vae_from_dict(d) for loc, d in payload["locations"].items()}
