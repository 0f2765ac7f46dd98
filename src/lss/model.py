"""Small differentiable classifiers over flat weight vectors.

Softmax regression and 1-2 hidden-layer MLPs with hand-derived
backpropagation.  Keeping the gradient explicit (instead of pulling in an
autodiff framework) makes the chain-rule scaling in the soup training loop
easy to verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .params import ParamVector, dense_param_count

ACTIVATIONS = ("relu", "tanh")


@dataclass(frozen=True)
class MlpSpec:
    """Architecture of a classifier: input -> hidden_dims -> num_classes."""

    input_dim: int
    hidden_dims: tuple[int, ...] = ()
    num_classes: int = 2
    activation: str = "relu"

    def __post_init__(self) -> None:
        if self.input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {self.input_dim}")
        if any(h <= 0 for h in self.hidden_dims):
            raise ValueError(f"hidden dims must be positive, got {self.hidden_dims}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )
        object.__setattr__(self, "hidden_dims", tuple(self.hidden_dims))

    def layer_shapes(self) -> list[tuple[int, int]]:
        widths = [self.input_dim, *self.hidden_dims, self.num_classes]
        return [(widths[i], widths[i + 1]) for i in range(len(widths) - 1)]

    def param_count(self) -> int:
        return dense_param_count(self.layer_shapes())


# (W, b) views of one flat vector, one pair per layer.
Layers = list[tuple[np.ndarray, np.ndarray]]


def _unpack(flat: np.ndarray, spec: MlpSpec) -> Layers:
    """Split a flat vector into (W, b) views, W laid out (fan_in, fan_out)."""
    layers = []
    off = 0
    for fi, fo in spec.layer_shapes():
        w = flat[off : off + fi * fo].reshape(fi, fo)
        off += fi * fo
        b = flat[off : off + fo]
        off += fo
        layers.append((w, b))
    return layers


def _check_params(params: ParamVector, spec: MlpSpec) -> None:
    if params.dim != spec.param_count():
        raise ValueError(
            f"parameter vector has dim {params.dim}, spec needs {spec.param_count()}"
        )


def _check_data(data: Dataset, spec: MlpSpec) -> None:
    """O(1): a ``Dataset`` has already checked its labels against its own
    ``num_classes``, which may not exceed the spec's."""
    if data.num_classes > spec.num_classes:
        raise ValueError(
            f"dataset has {data.num_classes} classes, "
            f"more than the spec's num_classes={spec.num_classes}"
        )
    if data.input_dim != spec.input_dim:
        raise ValueError(
            f"dataset has {data.input_dim} features, spec expects {spec.input_dim}"
        )


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """Deterministic Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.empty(spec.param_count(), dtype=np.float64)
    for w, b in _unpack(flat, spec):
        fi, fo = w.shape
        s = np.sqrt(6.0 / (fi + fo))
        w[:] = rng.uniform(-s, s, size=w.shape)
        b[:] = 0.0
    return ParamVector._wrap(flat)


def _forward(
    layers: Layers, spec: MlpSpec, features: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Returns (logits, activations per layer input, pre-activations)."""
    a = features
    acts = [a]  # inputs to each layer
    pre = []
    for idx, (w, b) in enumerate(layers):
        z = a @ w + b
        pre.append(z)
        if idx < len(layers) - 1:
            a = np.maximum(z, 0.0) if spec.activation == "relu" else np.tanh(z)
            acts.append(a)
    return pre[-1], acts, pre


def _logits(params: ParamVector, spec: MlpSpec, data: Dataset) -> np.ndarray:
    _check_params(params, spec)
    _check_data(data, spec)
    return _forward(_unpack(params.values, spec), spec, data.features)[0]


def predict_proba(params: ParamVector, spec: MlpSpec, data: Dataset) -> np.ndarray:
    """Softmax class probabilities, shape (n, num_classes)."""
    z = _logits(params, spec, data)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(out: np.ndarray) -> np.ndarray:
    # Called as ufunc reductions: the ``max``/``sum`` wrappers cost more than
    # the reduction itself at these sizes, and give the same bits.
    shifted = out - np.maximum.reduce(out, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_probs[np.arange(labels.shape[0]), labels].mean())


def _backprop(
    layers: Layers, grads: Layers, spec: MlpSpec, features: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Writes the gradient of the mean cross-entropy at the weights viewed by
    ``layers`` into the views ``grads`` and returns the log-probabilities,
    shape (n, num_classes).  Inputs are not checked."""
    n = labels.shape[0]
    out, acts, pre = _forward(layers, spec, features)
    log_probs = _log_softmax(out)

    # dL/dlogits = (softmax - onehot) / n
    dlogits = np.exp(log_probs)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n

    delta = dlogits
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        np.matmul(acts[idx].T, delta, out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if idx > 0:
            da = delta @ layers[idx][0].T
            if spec.activation == "relu":
                delta = da * (pre[idx - 1] > 0.0)
            else:  # acts[idx] is tanh of the pre-activation
                delta = da * (1.0 - acts[idx] ** 2)
    return log_probs


def loss_and_grad(
    params: ParamVector, spec: MlpSpec, data: Dataset
) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the dataset and its exact gradient."""
    _check_params(params, spec)
    _check_data(data, spec)
    flat_grad = np.empty(params.dim, dtype=np.float64)
    layers, grads = _unpack(params.values, spec), _unpack(flat_grad, spec)
    log_probs = _backprop(layers, grads, spec, data.features, data.labels)
    return _mean_nll(log_probs, data.labels), ParamVector._wrap(flat_grad)


def accuracy(params: ParamVector, spec: MlpSpec, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    preds = np.argmax(_logits(params, spec, data), axis=1)  # the first max index
    return float(np.mean(preds == data.labels))


def evaluate(params: ParamVector, spec: MlpSpec, data: Dataset) -> tuple[float, float]:
    """``(accuracy, loss)`` from one forward pass, bit for bit the values of
    ``accuracy`` and of ``loss_and_grad``'s loss, without the backward pass."""
    out = _logits(params, spec, data)
    acc = float(np.mean(np.argmax(out, axis=1) == data.labels))
    return acc, _mean_nll(_log_softmax(out), data.labels)
