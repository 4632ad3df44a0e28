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
runs the forward, backward and update of all L models as one batched pass.
The forward and the analytic gradient (_batch_loss, vae_grads) are
straight-line array code, with the arithmetic of the engine's
forward_with_cache and backward in the same order, so they give the same
bits; nn.sgd_step does the update. Each location still draws from its own
"vae-init" and "vae-train" streams, in the order a lone run would, so a
model trained in a stack is bit-identical to the same location trained
alone (train_vae is the L = 1 case). Each epoch's draws, per location a
permutation of its rows and one (n, d) block of latent noise, come from
_train_draws through drawahead.draw_ahead: a forked child makes them
ahead on a second core, and the steps read them from a shared ring.
"""

from __future__ import annotations

import json
import math
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
    _layer,
    forward,
    init_network,
    network_from_dict,
    network_to_dict,
    sgd_step,
)
# bench/trace.py wraps these on this module to time the VAE's engine calls.
from .nn import backward, forward_with_cache  # noqa: F401
from .drawahead import draw_ahead
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

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be a finite number > 0, got {self.learning_rate}")


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
        # _batch_loss and vae_grads compute exactly build_vae's layers.
        kinds = [[spec.activation for spec in net.layers] for net in (self.encoder, self.decoder)]
        if kinds != [["tanh", "linear"], ["tanh", "sigmoid"]]:
            raise ValueError(f"VAE layers must be tanh, linear and tanh, sigmoid; got {kinds}")
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
    """The values of one forward pass that vae_grads reads: inputs, encoder
    hidden layer, latent mean and log-variance, sigma = exp(log_var / 2),
    the draws, the latent, decoder hidden layer and reconstruction."""

    x: np.ndarray
    h_enc: np.ndarray
    mu: np.ndarray
    log_var: np.ndarray
    sigma: np.ndarray
    eps: np.ndarray
    z: np.ndarray
    h_dec: np.ndarray
    xhat: np.ndarray


def build_vae(n_features: int, seed: int, location_id: int) -> VaeModel:
    """Fresh encoder/decoder pair with the 10-5-10 bottleneck structure."""
    enc = init_network(
        [LayerSpec(n_features, HIDDEN_UNITS, "tanh"),
         LayerSpec(HIDDEN_UNITS, 2 * LATENT_DIM, "linear")],
        derive_rng(seed, "vae-encoder"),
    )
    dec = init_network(
        [LayerSpec(LATENT_DIM, HIDDEN_UNITS, "tanh"),
         LayerSpec(HIDDEN_UNITS, n_features, "sigmoid")],
        derive_rng(seed, "vae-decoder"),
    )
    return VaeModel(enc, dec, location_id)


def _slice_sum(values: np.ndarray) -> np.ndarray:
    """Sum over the last two axes, one total per stacked slice."""
    return np.add.reduce(values.reshape(values.shape[:-2] + (-1,)), axis=-1)


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
    """Forward pass and loss terms of the (..., n, m) rows x with the latent
    draws eps, for build_vae's layers: encoder tanh then linear,
    reparameterization, decoder tanh then sigmoid."""
    enc, dec = model.encoder, model.decoder
    h_enc = _layer(x, enc.weights[0], enc.biases[0], "tanh", "encoder layer 0")
    enc_out = _layer(h_enc, enc.weights[1], enc.biases[1], "linear", "encoder layer 1")
    d = eps.shape[-1]
    # Contiguous copies: every use of mu and log_var is elementwise, and
    # numpy runs those faster on contiguous operands.
    mu, log_var = enc_out[..., :d].copy(), enc_out[..., d:].copy()
    sigma = np.exp(0.5 * log_var)
    z = mu + sigma * eps
    h_dec = _layer(z, dec.weights[0], dec.biases[0], "tanh", "decoder layer 0")
    xhat = _layer(h_dec, dec.weights[1], dec.biases[1], "sigmoid", "decoder layer 1")
    n = x.shape[-2]
    rec = 0.5 * _slice_sum((x - xhat) ** 2) / n
    kl = kl_to_standard_normal(mu, log_var) / n
    return VaeLoss(rec, kl), VaeCache(x, h_enc, mu, log_var, sigma, eps, z, h_dec, xhat)


def vae_grads(
    model: VaeModel, cache: VaeCache, recon_weight: float = 1.0
) -> tuple[Gradients, Gradients]:
    """Analytic encoder/decoder gradients of recon_weight * rec + kl."""
    c = cache
    n = c.x.shape[-2]
    # Decoder: sigmoid output, then the tanh hidden layer.
    delta = recon_weight * (c.xhat - c.x)
    delta /= n
    delta *= c.xhat
    delta *= 1.0 - c.xhat
    dec_w1 = c.h_dec.swapaxes(-1, -2) @ delta
    dec_b1 = np.add.reduce(delta, axis=-2)
    delta = delta @ model.decoder.weights[1].swapaxes(-1, -2)
    delta *= 1.0 - c.h_dec**2
    dec_w0 = c.z.swapaxes(-1, -2) @ delta
    dec_b0 = np.add.reduce(delta, axis=-2)
    d_z = delta @ model.decoder.weights[0].swapaxes(-1, -2)
    # Through the reparameterization into the encoder's linear output [mu, log_var].
    d_mu = d_z + c.mu / n
    d_log_var = d_z * c.eps * 0.5 * c.sigma + 0.5 * (np.exp(c.log_var) - 1.0) / n
    delta = np.concatenate([d_mu, d_log_var], axis=-1)
    enc_w1 = c.h_enc.swapaxes(-1, -2) @ delta
    enc_b1 = np.add.reduce(delta, axis=-2)
    delta = delta @ model.encoder.weights[1].swapaxes(-1, -2)
    delta *= 1.0 - c.h_enc**2
    enc_w0 = c.x.swapaxes(-1, -2) @ delta
    enc_b0 = np.add.reduce(delta, axis=-2)
    return (Gradients([enc_w0, enc_w1], [enc_b0, enc_b1]),
            Gradients([dec_w0, dec_w1], [dec_b0, dec_b1]))


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


def _train_draws(rngs: list[np.random.Generator], n: int, d: int, epochs: int):
    """train_vaes' draws, in its order: per epoch, for each location in
    turn, a permutation of its n rows (rng.permutation(n) is arange(n)
    shuffled), then the (n, d) latent noise of every batch in turn, which
    one draw gives since the generator fills in order."""
    positions = np.arange(n)
    order = np.empty((len(rngs), n), dtype=positions.dtype)
    eps = np.empty((len(rngs), n, d))
    for _ in range(epochs):
        order[:] = positions
        for rng, perm, eps_l in zip(rngs, order, eps):
            rng.shuffle(perm)
            rng.standard_normal(out=eps_l)
        yield order, eps


def train_vaes(x: np.ndarray, cfg: VaeTrainConfig, location_ids: list[int]) -> list[VaeModel]:
    """Train one VAE per slice of the (L, n, m) stack x in one stacked pass.

    Slice l holds the rows of location location_ids[l], which seeds and
    names its model. Returns the L models, each with its loss trace.
    Raises TrainingDiverged naming the locations whose slice went
    non-finite, with the trace of the first of them.
    """
    x = np.asarray(x, dtype=np.float64)
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
    # Batches are gathered from x's rows as one (L * n, m) matrix.
    x_rows = x.reshape(n_locations * n, -1)
    offsets = np.arange(0, n_locations * n, n)[:, None]
    d = stacked.latent_dim
    layout = [((n_locations, n), np.intp), ((n_locations, n, d), np.float64)]

    traces = np.empty((cfg.epochs, n_locations))
    # The finiteness checks name the network, layer and locations of an overflow.
    with draw_ahead(_train_draws(rngs, n, d, cfg.epochs), layout, cfg.epochs) as draws, \
            np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order, eps = next(draws)
            rows = order + offsets
            total = np.zeros(n_locations)
            for start in range(0, n, batch):
                idx = rows[:, start : start + batch]
                try:
                    loss, cache = _batch_loss(stacked, x_rows.take(idx, axis=0),
                                              eps[:, start : start + batch])
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
    x: np.ndarray, cfg: VaeTrainConfig | None = None, *, location_id: int
) -> VaeModel:
    """Train one VAE on the (n, m) rows of one location, which location_id
    seeds and names; returns the model with its loss trace."""
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
