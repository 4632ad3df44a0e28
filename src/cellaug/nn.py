"""Minimal dense feed-forward engine: forward, backprop, SGD, inverted dropout.

Shared by the localization classifier (softmax head) and the generative
augmenter (tanh/sigmoid/linear heads). No autodiff: gradients are the exact
analytic expressions for the fixed affine + activation topology; a softmax
head takes the fused cross-entropy gradient (probs - targets) / n.

A network may carry a leading stack axis: weights (L, in, out), biases
(L, out), inputs (L, n, in). Its L networks then run as one batched matmul
per layer, each slice computing exactly what the unstacked network would.
However it is made, a network checks its own structure on construction;
network_from_dict also takes only finite numbers, with no stack axis.

train() is the localizer's loop: a softmax classifier trained on class
indices, each step's forward, fused cross-entropy, backward and update in
one straight-line loop over flat float32 buffers, one for the parameters
and one for their gradients. Its batches and dropout draws are those of
float64 training; _train_draws makes them, and drawahead.draw_ahead runs
it ahead in a forked child on a second core, so the steps read them from a
shared ring. A step gathers its target probabilities into an epoch
buffer, and the float64 losses are computed once per epoch (_losses). The
step checks only its update and diagnoses on failure: a non-finite loss
needs a NaN target probability, which makes that step's gradient NaN, so
only a step whose check fails computes its loss, to tell a diverged loss
from a diverged update. vae.train_vaes checks and diagnoses likewise.
forward() is the eval-mode pass, in float64, holding one layer's
activations at a time.

No command calls forward_with_cache, backward and sgd_step, the general
passes in a network's dtype and their update; bench/trace.py wraps them
here and on vae. With the losses of tests/reference_engine.py they are the
tests' oracle, which train's weights match bit for bit on a float32 copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .drawahead import draw_ahead
from .util import TrainingDiverged, as_rng

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
    """One weight (..., in, out) and one bias (..., out) per layer, all with
    the same leading stack shape; __post_init__ holds every structural rule."""

    layers: list[LayerSpec]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    dropout_rate: float = 0.0

    def __post_init__(self):
        if not self.layers:
            raise ValueError("network needs at least one layer")
        for prev, cur in zip(self.layers, self.layers[1:]):
            if prev.output_dim != cur.input_dim:
                raise ValueError(f"mismatched dims: layer output {prev.output_dim} "
                                 f"feeds input {cur.input_dim}")
        if any(spec.activation == "softmax" for spec in self.layers[:-1]):
            raise ValueError("softmax allowed only as the final layer")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1): {self.dropout_rate}")
        counts = (len(self.layers), len(self.weights), len(self.biases))
        if len(set(counts)) != 1:
            raise ValueError(f"layer, weight and bias counts differ: {counts}")
        lead = self.weights[0].shape[:-2]
        if any((w.shape, b.shape) != (lead + (s.input_dim, s.output_dim), lead + (s.output_dim,))
               for s, w, b in zip(self.layers, self.weights, self.biases)):
            raise ValueError("weight shapes disagree with layer specs")

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
        if not math.isfinite(self.learning_rate) or min(self.learning_rate, self.batch_size) <= 0:
            raise ValueError("learning_rate must be finite and positive, batch_size positive")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")


def init_network(specs: list[LayerSpec], seed, dropout_rate: float = 0.0) -> DenseNetwork:
    """Glorot-uniform weights, zero biases; deterministic for a given seed."""
    rng = as_rng(seed)
    weights, biases = [], []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        weights.append(rng.uniform(-limit, limit, size=(spec.input_dim, spec.output_dim)))
        biases.append(np.zeros(spec.output_dim))
    return DenseNetwork(list(specs), weights, biases, dropout_rate)


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of the pre-activations z, computed in z's own buffer."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    if kind == "sigmoid":
        np.exp(np.negative(z, out=z), out=z)
        z += 1.0
        return np.divide(1.0, z, out=z)
    if kind == "linear":
        return z
    if kind == "softmax":
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return z
    raise ValueError(f"unknown activation: {kind}")


def _check_input(net: DenseNetwork, x: np.ndarray) -> None:
    if x.ndim < 2 or x.shape[-1] != net.input_dim:
        raise ValueError(f"expected input shape (..., n, {net.input_dim}), got {x.shape}")


def forward_with_cache(
    net: DenseNetwork,
    x: np.ndarray,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Batched forward pass in the network's dtype. x is (n, input_dim), or
    (L, n, input_dim) for a stacked network; returns (..., n, output_dim).

    In train mode, hidden activations are masked by inverted dropout so the
    eval-mode pass needs no rescaling.
    """
    x = np.asarray(x, dtype=net.weights[0].dtype)
    _check_input(net, x)
    if train_mode and net.dropout_rate > 0.0 and rng is None:
        raise ValueError("train_mode with dropout requires an rng")

    cache = ForwardCache(x=x)
    a = x
    last = len(net.layers) - 1
    for i, (spec, w, b) in enumerate(zip(net.layers, net.weights, net.biases)):
        post = _layer(a, w, b, spec.activation, f"layer {i}")
        mask = None
        fed = post
        if train_mode and net.dropout_rate > 0.0 and i != last:
            keep = 1.0 - net.dropout_rate
            mask = ((rng.random(post.shape) < keep) / keep).astype(post.dtype, copy=False)
            fed = post * mask
        cache.post.append(post)
        cache.fed.append(fed)
        cache.drop.append(mask)
        a = fed
    return a, cache


def forward(net: DenseNetwork, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass of a single vector or a batch (stacked as in
    forward_with_cache). Holds one layer's activations at a time; a
    non-finite one raises NonFiniteError."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x[None, :] if single else x
    _check_input(net, a)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (spec, w, b) in enumerate(zip(net.layers, net.weights, net.biases)):
            a = _layer(a, w, b, spec.activation, f"layer {i}")
    return a[0] if single else a


def _layer(
    a: np.ndarray, w: np.ndarray, b: np.ndarray, kind: str, name: str | None
) -> np.ndarray:
    """One dense layer, a @ w + b then the activation in place. Given a
    `name`, a non-finite activation raises NonFiniteError naming it and the
    stacked slices that hold one; with None the activation is not checked."""
    z = a @ w
    z += b[..., None, :]
    post = _activate(z, kind)
    if name is not None and not np.isfinite(post).all():
        raise _non_finite(f"{name} activation is non-finite", [post], post.ndim - 2)
    return post


def _activation_grad(
    kind: str, post: np.ndarray, d_post: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """dLoss/dPre-activation from dLoss/dPost; out=d_post computes it in place."""
    if kind == "relu":
        return np.multiply(d_post, post > 0.0, out=out)
    if kind == "tanh":
        return np.multiply(d_post, 1.0 - post**2, out=out)
    if kind == "sigmoid":
        d = np.multiply(d_post, post, out=out)
        return np.multiply(d, 1.0 - post, out=d)
    return d_post  # linear, or a softmax head fed dLoss/dLogits (see backward)


def backward(
    net: DenseNetwork, cache: ForwardCache, loss_grad: np.ndarray
) -> tuple[Gradients, np.ndarray]:
    """Exact gradients of the cached forward pass.

    loss_grad is dLoss/dOutput (same shape as the output batch) or, for a
    softmax head, dLoss/dLogits ((probs - targets) / n for the mean one-hot
    cross-entropy). Returns parameter gradients and dLoss/dInput.
    """
    loss_grad = np.asarray(loss_grad, dtype=cache.x.dtype)
    if loss_grad.shape != cache.fed[-1].shape:
        raise ValueError(f"loss_grad shape {loss_grad.shape} != output shape {cache.fed[-1].shape}")

    d_weights = [np.empty(0)] * len(net.layers)
    d_biases = [np.empty(0)] * len(net.layers)
    d_fed = loss_grad
    for i in range(len(net.layers) - 1, -1, -1):
        d_post = d_fed if cache.drop[i] is None else d_fed * cache.drop[i]
        delta = _activation_grad(net.layers[i].activation, cache.post[i], d_post)
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


def _packed(arrays: list[np.ndarray], dtype=np.float32) -> tuple[np.ndarray, list[np.ndarray]]:
    """One flat buffer of `dtype` and, in order, a view of it shaped like each array."""
    ends = np.cumsum([a.size for a in arrays]).tolist()
    flat = np.empty(ends[-1], dtype=dtype)
    return flat, [flat[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]


def _train_draws(rng, n: int, batch: int, epochs: int, widths: list[int], keep: float):
    """train's draws, in its order: each epoch's permutation of the n rows,
    then per step its batch of that order and, for each hidden layer of
    width in `widths`, the float32 dropout multipliers (u < keep) / keep,
    as 1.0 * (1 / keep) or 0.0, of float64 uniforms u."""
    unkeep = 1.0 / keep
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            masks = []
            for width in widths:
                shape = (idx.size, width)
                mask = np.less(rng.random(shape), keep, out=np.empty(shape, dtype=np.float32))
                mask *= unkeep
                masks.append(mask)
            yield (idx, *masks)


def _losses(p: np.ndarray, batch: int) -> list[float]:
    """The float64 mean cross-entropy of each step whose float32 target
    probabilities fill p in turn, `batch` rows a step and the last step the
    rest, with a probability floored at 1e-300 (not 0 in float64). Each
    step's rows are summed on their own, as a step-by-step loss would be."""
    logs = p.astype(np.float64)
    np.negative(np.log(np.maximum(logs, 1e-300, out=logs), out=logs), out=logs)
    full = logs.size - logs.size % batch
    sums = logs[:full].reshape(-1, batch).sum(axis=1).tolist()
    losses = [s / batch for s in sums]
    if full < logs.size:
        losses.append(float(logs[full:].sum()) / (logs.size - full))
    return losses


def train(
    net: DenseNetwork,
    inputs: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
) -> tuple[DenseNetwork, list[float]]:
    """Epochs of mini-batch SGD in random order on the softmax head's mean
    cross-entropy against the (n,) class indices `labels`; returns the
    per-epoch loss trace.

    Deterministic for a fixed config seed. The inputs, learning rate,
    activations, parameters and gradients are float32; the batch order, the
    float64 dropout draws compared to the keep rate and the float64 loss of
    the target probabilities are those of float64 training. Each step
    computes the logits gradient (p - t) / n in place and keeps its target
    probabilities for the epoch's loss; its arithmetic and draws are those of
    forward_with_cache in train mode, that gradient against one-hot targets,
    backward and sgd_step on a float32 copy of the network, so the weights
    are bit-identical to calling them in turn (only the loss differs, as a
    float32 cross-entropy takes float32 logs). The parameters
    train in one flat float32 buffer; on return, net.weights and net.biases
    are float64 arrays holding its values exactly. Raises TrainingDiverged,
    with the trace so far and net left as it was, when the loss or the
    update goes non-finite; a non-finite activation, or a value beyond
    float32's range, reaches one of the two.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ValueError("empty dataset")
    if labels.shape != inputs.shape[:1]:
        raise ValueError("inputs and labels disagree on sample count")
    if net.layers[-1].activation != "softmax":
        raise ValueError("train needs a softmax head")
    if labels.min() < 0 or labels.max() >= net.output_dim:
        raise ValueError(f"labels must be class indices in [0, {net.output_dim})")
    labels = labels.astype(np.intp)  # uint64 plus the int64 row offsets would be float64

    kinds = [spec.activation for spec in net.layers]
    last = len(kinds) - 1
    drop = net.dropout_rate > 0.0
    keep = 1.0 - net.dropout_rate
    arrays = net.weights + net.biases
    params, views = _packed(arrays)
    weights, biases = views[: last + 1], views[last + 1 :]
    grads, views = _packed(arrays)
    d_weights, d_biases = views[: last + 1], views[last + 1 :]

    n = inputs.shape[0]
    batch = min(cfg.batch_size, n)
    widths = [spec.output_dim for spec in net.layers[:last]] if drop else []
    layout = [((batch,), np.intp)] + [((batch, width), np.float32) for width in widths]
    producer = _train_draws(as_rng(cfg.seed), n, batch, cfg.epochs, widths, keep)
    sizes = [min(batch, n - start) for start in range(0, n, batch)]
    # each step's target probabilities, for the loss taken once per epoch,
    # and their flat positions in its (b, classes) softmax output
    target_p = np.empty(n, dtype=np.float32)
    row_offsets = np.arange(0, batch * net.output_dim, net.output_dim)
    trace: list[float] = []
    with draw_ahead(producer, layout, cfg.epochs * -(-n // batch)) as draws, \
            np.errstate(over="ignore", invalid="ignore"):
        # a value beyond float32's range casts to inf and diverges below
        for view, a in zip(weights + biases, arrays):
            view[...] = a
        inputs = inputs.astype(np.float32)
        lr = np.float32(cfg.learning_rate)
        for _ in range(cfg.epochs):
            for start, b in zip(range(0, n, batch), sizes):
                idx, *masks = [draw[:b] for draw in next(draws)]
                # fed[i] is layer i's input; post and masks as in ForwardCache.
                a = inputs.take(idx, axis=0)
                fed, post = [a], []
                for i, kind in enumerate(kinds):
                    z = a @ weights[i]
                    z += biases[i]
                    a = _activate(z, kind)
                    post.append(a)
                    if drop and i != last:
                        a = a * masks[i]
                    fed.append(a)
                flat, targets = a.reshape(-1), labels.take(idx) + row_offsets[:b]
                p = flat.take(targets, out=target_p[start : start + b])
                # (p - t) / b in place: p - 0.0 is p, so only the targets change
                flat.put(targets, p - 1.0)
                a /= b
                d = a
                for i in range(last, -1, -1):
                    np.matmul(fed[i].T, d, out=d_weights[i])
                    np.add.reduce(d, axis=0, out=d_biases[i])
                    if i:
                        d = d @ weights[i].T
                        if drop:
                            d *= masks[i - 1]
                        _activation_grad(kinds[i - 1], post[i - 1], d, out=d)
                grads *= lr
                if not np.isfinite(grads).all():
                    # a non-finite loss needs a NaN target probability (a
                    # non-finite softmax row is NaN throughout), which makes
                    # this gradient NaN
                    loss = _losses(p, b)[0]
                    if not math.isfinite(loss):
                        trace.append(loss)
                        raise TrainingDiverged(f"loss diverged at epoch {len(trace)}", trace)
                    raise TrainingDiverged(f"update diverged at epoch {len(trace) + 1}", trace)
                params -= grads
            total = 0.0
            for loss, b in zip(_losses(target_p, batch), sizes):
                total += loss * b
            trace.append(total / n)
    # float32 to float64 is exact
    net.weights = [w.astype(np.float64) for w in weights]
    net.biases = [b.astype(np.float64) for b in biases]
    return net, trace


def network_to_dict(net: DenseNetwork) -> dict:
    return {
        "dropout_rate": float(net.dropout_rate),
        "layers": [
            {"in": s.input_dim, "out": s.output_dim, "activation": s.activation}
            for s in net.layers
        ],
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _parameter(values, ndim: int) -> np.ndarray:
    """A weight (ndim 2) or bias (ndim 1) of a file, as finite float64."""
    a = np.array(values, dtype=np.float64)
    if a.ndim != ndim or not np.isfinite(a).all():
        raise ValueError(f"expected a finite {ndim}-D parameter, got a {a.ndim}-D one")
    return a


def network_from_dict(data: dict) -> DenseNetwork:
    """The network of a network_to_dict dict, each value coerced to the type it writes."""
    return DenseNetwork(
        [LayerSpec(int(d["in"]), int(d["out"]), str(d["activation"])) for d in data["layers"]],
        [_parameter(w, 2) for w in data["weights"]],
        [_parameter(b, 1) for b in data["biases"]],
        float(data["dropout_rate"]),
    )
