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

Locations with the same row count train together as one stack: every
parameter gains a leading location axis, (L, in, out), and each SGD step
runs the forward, backward and update of all L models as one batched pass
through the nn engine. Each location still draws from its own "vae-init"
and "vae-train" streams, in the order a lone run would, so a model trained
in a stack is bit-identical to the same location trained alone
(train_vae is the L = 1 case).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .nn import (
    DenseNetwork,
    Gradients,
    LayerSpec,
    NonFiniteError,
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
    """Batch-mean loss terms: floats, or (L,) arrays for a stacked model."""

    reconstruction: float | np.ndarray
    kl: float | np.ndarray

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


def _slice_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, one total per stacked slice."""
    return np.sum(values.reshape(values.shape[:-2] + (-1,)), axis=-1)


def kl_to_standard_normal(mu: np.ndarray, log_var: np.ndarray) -> float | np.ndarray:
    """KL(N(mu, diag(exp(log_var))) || N(0, I)) in closed form, summed over
    the rows of each stacked slice of (L, n, d) inputs."""
    mu = np.asarray(mu, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    return 0.5 * _slice_sum(np.exp(log_var) + mu**2 - 1.0 - log_var)


@contextmanager
def _network(name: str):
    """Prefix the engine's non-finite errors with the network they came from."""
    try:
        yield
    except NonFiniteError as exc:
        raise NonFiniteError(f"{name} {exc}", exc.slices) from exc


def _batch_loss(model: VaeModel, x: np.ndarray, eps: np.ndarray) -> tuple[VaeLoss, VaeCache]:
    with _network("encoder"):
        enc_out, enc_cache = forward_with_cache(model.encoder, x)
    d = model.latent_dim
    mu, log_var = enc_out[..., :d], enc_out[..., d:]
    z = mu + np.exp(0.5 * log_var) * eps
    with _network("decoder"):
        xhat, dec_cache = forward_with_cache(model.decoder, z)
    n = x.shape[-2]
    rec = 0.5 * _slice_sum((x - xhat) ** 2) / n
    kl = kl_to_standard_normal(mu, log_var) / n
    return VaeLoss(rec, kl), VaeCache(enc_cache, dec_cache, x, xhat, mu, log_var, eps)


def vae_grads(
    model: VaeModel, cache: VaeCache, recon_weight: float = 1.0
) -> tuple[Gradients, Gradients]:
    """Analytic encoder/decoder gradients of recon_weight * rec + kl."""
    n = cache.x.shape[-2]
    d_xhat = recon_weight * (cache.xhat - cache.x) / n
    dec_grads, d_z = backward(model.decoder, cache.dec_cache, d_xhat)
    sigma = np.exp(0.5 * cache.log_var)
    d_mu = d_z + cache.mu / n
    d_log_var = d_z * cache.eps * 0.5 * sigma + 0.5 * (np.exp(cache.log_var) - 1.0) / n
    enc_grads, _ = backward(
        model.encoder, cache.enc_cache, np.concatenate([d_mu, d_log_var], axis=-1)
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


def stack_vaes(models: list[VaeModel]) -> VaeModel:
    """One model whose parameters are those of `models` stacked along a new
    leading axis, in order (location_id -1)."""

    def stack(nets: list[DenseNetwork]) -> DenseNetwork:
        return DenseNetwork(
            nets[0].layers,
            [np.stack(ws) for ws in zip(*(net.weights for net in nets))],
            [np.stack(bs) for bs in zip(*(net.biases for net in nets))],
        )

    return VaeModel(stack([m.encoder for m in models]), stack([m.decoder for m in models]), -1)


def _diverged(location_ids: list[int], slices, traces: np.ndarray, what: str) -> TrainingDiverged:
    ids = [location_ids[i] for i in slices]
    label = "location" if len(ids) == 1 else "locations"
    return TrainingDiverged(
        f"VAE training ({label} {', '.join(map(str, ids))}): {what}",
        traces[:, slices[0]].tolist(),
    )


def train_vaes(x: np.ndarray, cfg: VaeTrainConfig, location_ids: list[int]) -> list[VaeModel]:
    """Train one VAE per slice of the (L, n, m) stack x in one stacked pass.

    Slice l holds the rows of location location_ids[l], which seeds and
    names its model. Returns the L models, each with its loss trace.
    Raises TrainingDiverged naming the locations whose slice went
    non-finite, with the trace of the first of them.
    """
    n_locations, n, _ = x.shape
    if n < 2:
        raise ValueError(f"too few samples to train a VAE: {n}")

    models = [
        build_vae(x.shape[2], int(derive_rng(cfg.seed, "vae-init", loc).integers(0, 2**32)),
                  location_id=loc)
        for loc in location_ids
    ]
    stacked = stack_vaes(models)
    rngs = [derive_rng(cfg.seed, "vae-train", loc) for loc in location_ids]
    batch = n if n <= FULL_BATCH_LIMIT else MINI_BATCH
    rows = np.arange(n_locations)[:, None]

    traces = np.empty((cfg.epochs, n_locations))
    # The finiteness checks name the network, layer and locations of an overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            # Per location: its permutation, then the eps of every batch in turn.
            # One (n, d) draw is those per-batch draws: the generator fills in order.
            draws = [(rng.permutation(n), rng.standard_normal((n, stacked.latent_dim)))
                     for rng in rngs]
            order = np.stack([perm for perm, _ in draws])
            eps_epoch = np.stack([eps for _, eps in draws])
            total = np.zeros(n_locations)
            for start in range(0, n, batch):
                idx = order[:, start : start + batch]
                eps = eps_epoch[:, start : start + batch]
                try:
                    loss, cache = _batch_loss(stacked, x[rows, idx], eps)
                    enc_grads, dec_grads = vae_grads(stacked, cache, RECON_WEIGHT)
                    with _network("encoder"):
                        sgd_step(stacked.encoder, enc_grads, cfg.learning_rate)
                    with _network("decoder"):
                        sgd_step(stacked.decoder, dec_grads, cfg.learning_rate)
                except NonFiniteError as exc:
                    raise _diverged(location_ids, exc.slices, traces[:epoch],
                                    f"{exc} at epoch {epoch + 1}") from exc
                total += (RECON_WEIGHT * loss.reconstruction + loss.kl) * idx.shape[1]
            traces[epoch] = total / n
            bad = np.flatnonzero(~np.isfinite(traces[epoch]))
            if bad.size:
                raise _diverged(location_ids, bad, traces[: epoch + 1],
                                f"loss diverged at epoch {epoch + 1}")

    for i, model in enumerate(models):
        for net, stack in ((model.encoder, stacked.encoder), (model.decoder, stacked.decoder)):
            net.weights = [w[i] for w in stack.weights]
            net.biases = [b[i] for b in stack.biases]
        model.trace = traces[:, i].tolist()
    return models


def train_vae(
    x: np.ndarray,
    cfg: VaeTrainConfig | None = None,
    location_id: int | None = None,
) -> VaeModel:
    """Train one VAE on the (n, m) rows of one location; returns the model
    with its loss trace."""
    if location_id is None:
        raise ValueError("location_id required: it seeds and names the model")
    x = np.asarray(x, dtype=np.float64)
    return train_vaes(x[None], cfg or VaeTrainConfig(), [location_id])[0]


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
