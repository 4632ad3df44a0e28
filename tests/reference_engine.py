"""The engine's loss oracles: the one-hot cross-entropy and squared error
that the tests feed to nn.forward_with_cache and nn.backward, against which
nn.train, the VAE step and the finite-difference checks are tested."""

import numpy as np


def softmax_cross_entropy(probs: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax outputs against one-hot targets.

    Returns (loss, dLoss/dLogits = (probs - targets) / n), the gradient that
    backward() passes through a softmax head. The 1e-300 floor only bounds
    the loss (690.8 for a row whose target probability underflows).
    """
    n = probs.shape[0]
    log_probs = np.log(np.maximum(probs, 1e-300))
    log_probs *= targets
    grad = probs - targets
    grad /= n
    return float(-log_probs.sum() / n), grad


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
