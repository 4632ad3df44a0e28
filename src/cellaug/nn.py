"""Minimal dense feed-forward engine: forward, backprop, SGD, inverted dropout.

Shared by the localization classifier (softmax head) and the generative
augmenter (tanh/sigmoid/linear heads). No autodiff: gradients are the exact
analytic expressions for the fixed affine + activation topology; a softmax
head takes the fused cross-entropy gradient (probs - targets) / n.

A network may carry a leading stack axis: weights (L, in, out), biases
(L, out), inputs (L, n, in). Its L networks then run as one batched matmul
per layer, each slice computing exactly what the unstacked network would.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .util import as_rng

ACTIVATIONS = ("relu", "tanh", "sigmoid", "linear", "softmax")


class NonFiniteError(FloatingPointError):
    """A non-finite activation or gradient. `slices` lists the flat indices
    over a stacked network's leading axes that hold one (empty when the
    network is not stacked)."""

    def __init__(self, message: str, slices: list[int]):
        super().__init__(message)
        self.slices = slices


def _non_finite(message: str, arrays: list[np.ndarray], lead: int) -> NonFiniteError:
    """The error for arrays that failed a finiteness check; the first `lead`
    axes of each array are the stack axes."""
    if not lead:
        return NonFiniteError(message, [])
    bad = np.zeros(arrays[0].shape[:lead], dtype=bool)
    for a in arrays:
        bad |= ~np.isfinite(a.reshape(a.shape[:lead] + (-1,))).all(axis=-1)
    return NonFiniteError(message, np.flatnonzero(bad).tolist())


class TrainingDiverged(RuntimeError):
    """Non-finite loss during training; carries the loss trace so far."""

    def __init__(self, message: str, trace: list[float]):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        if self.input_dim <= 0 or self.output_dim <= 0:
            raise ValueError(f"layer dims must be positive: {self.input_dim}x{self.output_dim}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation: {self.activation}")


@dataclass
class DenseNetwork:
    layers: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float = 0.0

    @property
    def input_dim(self) -> int:
        return self.layers[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.layers[-1].output_dim


@dataclass
class Gradients:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


@dataclass
class ForwardCache:
    """Intermediate values needed by backward(): inputs, pure activations,
    the values actually fed forward (after dropout), and the dropout
    multipliers."""

    x: np.ndarray
    post: list[np.ndarray] = field(default_factory=list)
    fed: list[np.ndarray] = field(default_factory=list)
    drop: list[np.ndarray | None] = field(default_factory=list)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.epochs < 0:
            raise ValueError("learning_rate and batch_size must be positive, epochs >= 0")


def _validate_specs(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ValueError("network needs at least one layer")
    for prev, cur in zip(specs, specs[1:]):
        if prev.output_dim != cur.input_dim:
            raise ValueError(
                f"mismatched dims: layer output {prev.output_dim} feeds input {cur.input_dim}"
            )
    for spec in specs[:-1]:
        if spec.activation == "softmax":
            raise ValueError("softmax allowed only as the final layer")


def init_network(specs: list[LayerSpec], seed, dropout_rate: float = 0.0) -> DenseNetwork:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    _validate_specs(specs)
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError(f"dropout_rate must be in [0, 1): {dropout_rate}")
    rng = as_rng(seed)
    weights, biases = [], []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        weights.append(rng.uniform(-limit, limit, size=(spec.input_dim, spec.output_dim)))
        biases.append(np.zeros(spec.output_dim))
    return DenseNetwork(list(specs), weights, biases, dropout_rate)


def parameter_count(net: DenseNetwork) -> int:
    return sum(w.size + b.size for w, b in zip(net.weights, net.biases))


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "linear":
        return z
    if kind == "softmax":
        shifted = z - np.max(z, axis=-1, keepdims=True)
        e = np.exp(shifted)
        return e / np.sum(e, axis=-1, keepdims=True)
    raise ValueError(f"unknown activation: {kind}")


def forward_with_cache(
    net: DenseNetwork,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Batched forward pass. x is (n, input_dim), or (L, n, input_dim) for a
    stacked network; returns (..., n, output_dim).

    In train mode, hidden activations are masked by inverted dropout so the
    eval-mode pass needs no rescaling.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != net.input_dim:
        raise ValueError(f"expected input shape (..., n, {net.input_dim}), got {x.shape}")
    if train_mode and net.dropout_rate > 0.0 and rng is None:
        raise ValueError("train_mode with dropout requires an rng")

    cache = ForwardCache(x=x)
    a = x
    last = len(net.layers) - 1
    for i, (spec, w, b) in enumerate(zip(net.layers, net.weights, net.biases)):
        post = _activate(a @ w + b[..., None, :], spec.activation)
        if not np.isfinite(post).all():
            raise _non_finite(f"layer {i} activation is non-finite", [post], post.ndim - 2)
        mask = None
        fed = post
        if train_mode and net.dropout_rate > 0.0 and i != last:
            keep = 1.0 - net.dropout_rate
            mask = (rng.random(post.shape) < keep) / keep
            fed = post * mask
        cache.post.append(post)
        cache.fed.append(fed)
        cache.drop.append(mask)
        a = fed
    return a, cache


def forward(
    net: DenseNetwork,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Forward pass accepting a single vector or a batch."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    out, _ = forward_with_cache(net, x[None, :] if single else x, train_mode, rng)
    return out[0] if single else out


def _activation_grad(spec: LayerSpec, post: np.ndarray, d_post: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return d_post * (post > 0.0)
    if spec.activation == "tanh":
        return d_post * (1.0 - post**2)
    if spec.activation == "sigmoid":
        return d_post * post * (1.0 - post)
    return d_post  # linear, or a softmax head fed dLoss/dLogits (see backward)


def backward(
    net: DenseNetwork, cache: ForwardCache, loss_grad: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Exact gradients of the cached forward pass.

    loss_grad is dLoss/dOutput (same shape as the output batch) or, for a
    softmax head, dLoss/dLogits as softmax_cross_entropy returns it. Returns
    parameter gradients and dLoss/dInput for chaining through sub-networks.
    """
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != cache.fed[-1].shape:
        raise ValueError(f"loss_grad shape {loss_grad.shape} != output shape {cache.fed[-1].shape}")

    d_weights = [np.empty(0)] * len(net.layers)
    d_biases = [np.empty(0)] * len(net.layers)
    d_fed = loss_grad
    for i in range(len(net.layers) - 1, -1, -1):
        d_post = d_fed if cache.drop[i] is None else d_fed * cache.drop[i]
        delta = _activation_grad(net.layers[i], cache.post[i], d_post)
        a_prev = cache.x if i == 0 else cache.fed[i - 1]
        d_weights[i] = a_prev.swapaxes(-1, -2) @ delta
        d_biases[i] = np.sum(delta, axis=-2)
        d_fed = delta @ net.weights[i].swapaxes(-1, -2)
    return Gradients(d_weights, d_biases), d_fed


def sgd_step(net: DenseNetwork, grads: Gradients, learning_rate: float) -> DenseNetwork:
    """In-place SGD update: theta <- theta - lr * grad."""
    arrays = grads.weights + grads.biases
    if not all(np.isfinite(g).all() for g in arrays):
        raise _non_finite("gradient is non-finite", arrays, grads.weights[0].ndim - 2)
    for w, gw in zip(net.weights, grads.weights):
        w -= learning_rate * gw
    for b, gb in zip(net.biases, grads.biases):
        b -= learning_rate * gb
    return net


def softmax_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax outputs against one-hot targets.

    Returns (loss, dLoss/dLogits = (probs - targets) / n), the gradient that
    backward() passes through a softmax head. The 1e-300 floor only bounds
    the loss (690.8 for a row whose target probability underflows).
    """
    n = probs.shape[0]
    loss = float(-np.sum(targets * np.log(np.maximum(probs, 1e-300))) / n)
    return loss, (probs - targets) / n


def squared_error(outputs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Half squared error summed over dims, averaged over the batch."""
    n = outputs.shape[0]
    diff = outputs - targets
    loss = float(0.5 * np.sum(diff**2) / n)
    return loss, diff / n


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def train(
    net: DenseNetwork,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss_fn,
    cfg: TrainConfig,
) -> tuple[DenseNetwork, list[float]]:
    """Epochs of mini-batch SGD in random order; returns the per-epoch loss trace.

    loss_fn(outputs, targets) must return (mean batch loss, loss_grad for backward()).
    Deterministic for a fixed config seed; raises TrainingDiverged if the
    loss goes non-finite.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("empty dataset")
    if inputs.shape[0] != targets.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")

    rng = as_rng(cfg.seed)
    n = inputs.shape[0]
    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            out, cache = forward_with_cache(net, inputs[idx], train_mode=True, rng=rng)
            loss, d_out = loss_fn(out, targets[idx])
            if not np.isfinite(loss):
                trace.append(float(loss))
                raise TrainingDiverged(f"loss diverged at epoch {len(trace)}", trace)
            grads, _ = backward(net, cache, d_out)
            sgd_step(net, grads, cfg.learning_rate)
            total += loss * idx.size
        trace.append(total / n)
    return net, trace


def network_to_dict(net: DenseNetwork) -> dict:
    return {
        "dropout_rate": net.dropout_rate,
        "layers": [
            {"in": s.input_dim, "out": s.output_dim, "activation": s.activation}
            for s in net.layers
        ],
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def network_from_dict(data: dict) -> DenseNetwork:
    specs = [LayerSpec(d["in"], d["out"], d["activation"]) for d in data["layers"]]
    _validate_specs(specs)
    weights = [np.array(w, dtype=np.float64) for w in data["weights"]]
    biases = [np.array(b, dtype=np.float64) for b in data["biases"]]
    for spec, w, b in zip(specs, weights, biases):
        if w.shape != (spec.input_dim, spec.output_dim) or b.shape != (spec.output_dim,):
            raise ValueError("weight shapes disagree with layer specs")
    return DenseNetwork(specs, weights, biases, float(data["dropout_rate"]))


def save_network(net: DenseNetwork, path: str | Path) -> None:
    Path(path).write_text(json.dumps(network_to_dict(net)), encoding="utf-8")


def load_network(path: str | Path) -> DenseNetwork:
    return network_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
