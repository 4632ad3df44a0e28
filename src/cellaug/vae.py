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
bits. The stack's parameters live in one flat float64 buffer, which the
networks' arrays view, and vae_grads writes their gradients into views of
a second one, so a step updates with g *= lr; params -= g, the arithmetic
of nn.sgd_step. Each location still draws from its own "vae-init" and
"vae-train" streams, in the order a lone run would, so a model trained in
a stack is bit-identical to the same location trained alone (train_vae is
the L = 1 case). Each epoch's draws, per location a permutation of its
rows and one (n, d) block of latent noise, come from _train_draws through
drawahead.draw_ahead: a forked child makes them ahead on a second core,
and the steps read them from a shared ring.

A step checks after the fact and diagnoses only on failure. Its forward
runs unchecked, and one finiteness check covers the flat gradient, one
the L losses: a non-finite activation always makes its slice's loss
non-finite, so a step that passes both would have passed every per-layer
check. A step that fails is diagnosed from its own values
(_first_non_finite), in the engine's order: encoder layers 0 and 1 (h_enc;
mu and log_var, the two halves of the latter's output), decoder layers 0
and 1 (h_dec, xhat), then the encoder's and the decoder's gradient views.
The first non-finite one names the network, layer and locations of the
error. A step with none, whose loss alone overflowed, takes its update,
and the epoch's end reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import (
    DenseNetwork,
    Gradients,
    LayerSpec,
    NonFiniteError,
    TrainingDiverged,
    _layer,
    _non_finite,
    _packed,
    forward,
    init_network,
)
# bench/trace.py wraps these on this module to time the VAE's engine calls.
from .nn import backward, forward_with_cache, sgd_step  # noqa: F401
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
    trace: np.ndarray = field(default_factory=lambda: np.empty(0))  # loss per epoch

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
    hidden layer, latent mean and log-variance, var = exp(log_var), sigma =
    exp(log_var / 2), the draws, the latent, decoder hidden layer and
    reconstruction."""

    x: np.ndarray
    h_enc: np.ndarray
    mu: np.ndarray
    log_var: np.ndarray
    var: np.ndarray
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
    return _kl(mu, log_var, np.exp(log_var))


def _kl(mu: np.ndarray, log_var: np.ndarray, var: np.ndarray) -> float | np.ndarray:
    """kl_to_standard_normal with var = exp(log_var) given."""
    return 0.5 * _slice_sum(var + mu**2 - 1.0 - log_var)


def _batch_loss(model: VaeModel, x: np.ndarray, eps: np.ndarray) -> tuple[VaeLoss, VaeCache]:
    """Forward pass and loss terms of the (..., n, m) rows x with the latent
    draws eps, for build_vae's layers: encoder tanh then linear,
    reparameterization, decoder tanh then sigmoid. No activation is
    checked; _first_non_finite diagnoses the cache."""
    enc, dec = model.encoder, model.decoder
    h_enc = _layer(x, enc.weights[0], enc.biases[0], "tanh", None)
    enc_out = _layer(h_enc, enc.weights[1], enc.biases[1], "linear", None)
    d = eps.shape[-1]
    # Contiguous copies: every use of mu and log_var is elementwise, and
    # numpy runs those faster on contiguous operands.
    mu, log_var = enc_out[..., :d].copy(), enc_out[..., d:].copy()
    var = np.exp(log_var)
    sigma = np.exp(0.5 * log_var)
    z = mu + sigma * eps
    h_dec = _layer(z, dec.weights[0], dec.biases[0], "tanh", None)
    xhat = _layer(h_dec, dec.weights[1], dec.biases[1], "sigmoid", None)
    n = x.shape[-2]
    rec = 0.5 * _slice_sum((x - xhat) ** 2) / n
    kl = _kl(mu, log_var, var) / n
    return VaeLoss(rec, kl), VaeCache(x, h_enc, mu, log_var, var, sigma, eps, z, h_dec, xhat)


def _first_non_finite(cache: VaeCache, grads: tuple[Gradients, ...] = ()) -> NonFiniteError | None:
    """The error naming a step's first non-finite value and the slices that
    hold one, or None: its activations layer by layer, then `grads`."""
    checks = [("encoder layer 0 activation", [cache.h_enc]),
              ("encoder layer 1 activation", [cache.mu, cache.log_var]),
              ("decoder layer 0 activation", [cache.h_dec]),
              ("decoder layer 1 activation", [cache.xhat])]
    checks += zip(("encoder gradient", "decoder gradient"), (g.weights + g.biases for g in grads))
    for what, arrays in checks:
        if not all(np.isfinite(a).all() for a in arrays):
            return _non_finite(f"{what} is non-finite", arrays, cache.x.ndim - 2)
    return None


def vae_grads(
    model: VaeModel,
    cache: VaeCache,
    recon_weight: float = 1.0,
    out: tuple[Gradients, Gradients] | None = None,
) -> tuple[Gradients, Gradients]:
    """Analytic encoder/decoder gradients of recon_weight * rec + kl, written
    into the arrays of `out` when given."""
    c = cache
    n = c.x.shape[-2]
    fresh = Gradients([None, None], [None, None])
    (enc_w, enc_b), (dec_w, dec_b) = [(g.weights, g.biases) for g in out or (fresh, fresh)]
    # Decoder: sigmoid output, then the tanh hidden layer.
    delta = recon_weight * (c.xhat - c.x)
    delta /= n
    delta *= c.xhat
    delta *= 1.0 - c.xhat
    dec_w1 = np.matmul(c.h_dec.swapaxes(-1, -2), delta, out=dec_w[1])
    dec_b1 = np.add.reduce(delta, axis=-2, out=dec_b[1])
    delta = delta @ model.decoder.weights[1].swapaxes(-1, -2)
    delta *= 1.0 - c.h_dec**2
    dec_w0 = np.matmul(c.z.swapaxes(-1, -2), delta, out=dec_w[0])
    dec_b0 = np.add.reduce(delta, axis=-2, out=dec_b[0])
    d_z = delta @ model.decoder.weights[0].swapaxes(-1, -2)
    # Through the reparameterization into the encoder's linear output [mu, log_var].
    d_mu = d_z + c.mu / n
    d_log_var = d_z * c.eps * 0.5 * c.sigma + 0.5 * (c.var - 1.0) / n
    delta = np.concatenate([d_mu, d_log_var], axis=-1)
    enc_w1 = np.matmul(c.h_enc.swapaxes(-1, -2), delta, out=enc_w[1])
    enc_b1 = np.add.reduce(delta, axis=-2, out=enc_b[1])
    delta = delta @ model.encoder.weights[1].swapaxes(-1, -2)
    delta *= 1.0 - c.h_enc**2
    enc_w0 = np.matmul(c.x.swapaxes(-1, -2), delta, out=enc_w[0])
    enc_b0 = np.add.reduce(delta, axis=-2, out=enc_b[0])
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
    loss, cache = _batch_loss(model, values[None, :], np.asarray(eps, dtype=np.float64)[None, :])
    if error := _first_non_finite(cache):
        raise error
    return loss, cache


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


def _flat_buffers(stacked: VaeModel) -> tuple[np.ndarray, np.ndarray, tuple[Gradients, Gradients]]:
    """Move the parameters of `stacked` into one flat float64 buffer, which
    its networks' arrays then view, and make a second one for their
    gradients: (parameters, gradients, encoder and decoder views of the
    gradients)."""
    nets = (stacked.encoder, stacked.decoder)
    arrays = [a for net in nets for a in net.weights + net.biases]
    params, views = _packed(arrays, np.float64)
    for view, a in zip(views, arrays):
        view[...] = a
    for net, k in zip(nets, (0, 4)):
        net.weights, net.biases = views[k : k + 2], views[k + 2 : k + 4]
    grads, views = _packed(arrays, np.float64)
    return params, grads, (Gradients(views[0:2], views[2:4]), Gradients(views[4:6], views[6:8]))


def train_vaes(x: np.ndarray, cfg: VaeTrainConfig, location_ids: list[int]) -> list[VaeModel]:
    """Train one VAE per slice of the (L, n, m) stack x in one stacked pass.

    Slice l holds the rows of location location_ids[l], which seeds and
    names its model. Returns the L models, each with its loss trace, the
    model's column of one (epochs, L) array.
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

    params, grads, grad_views = _flat_buffers(stacked)
    lr = cfg.learning_rate

    traces = np.empty((cfg.epochs, n_locations))
    with draw_ahead(_train_draws(rngs, n, d, cfg.epochs), layout, cfg.epochs) as draws, \
            np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order, eps = next(draws)
            rows = order + offsets
            total = np.zeros(n_locations)
            for start in range(0, n, batch):
                idx = rows[:, start : start + batch]
                x_batch, eps_batch = x_rows.take(idx, axis=0), eps[:, start : start + batch]
                loss, cache = _batch_loss(stacked, x_batch, eps_batch)
                vae_grads(stacked, cache, RECON_WEIGHT, out=grad_views)
                step_loss = RECON_WEIGHT * loss.reconstruction + loss.kl
                # checked after the fact; a failed step is diagnosed from its cache
                if not (np.isfinite(grads).all() and np.isfinite(step_loss).all()):
                    if exc := _first_non_finite(cache, grad_views):
                        raise _diverged(location_ids, exc.slices, traces[:epoch],
                                        f"{exc} at epoch {epoch + 1}") from exc
                grads *= lr
                params -= grads
                total += step_loss * idx.shape[1]
            traces[epoch] = total / n
            if not np.isfinite(traces[epoch]).all():
                raise _diverged(location_ids, np.flatnonzero(~np.isfinite(traces[epoch])),
                                traces[: epoch + 1], f"loss diverged at epoch {epoch + 1}")

    for i, model in enumerate(models):
        for net, stack in ((model.encoder, stacked.encoder), (model.decoder, stacked.decoder)):
            net.weights = [w[i] for w in stack.weights]
            net.biases = [b[i] for b in stack.biases]
        model.trace = traces[:, i]
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
