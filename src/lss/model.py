"""Small differentiable classifiers over flat weight vectors.

Softmax regression and 1-2 hidden-layer MLPs with hand-derived
backpropagation.  Keeping the gradient explicit (instead of pulling in an
autodiff framework) makes the chain-rule scaling in the soup training loop
easy to verify against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ParamVector, ShapeSpec

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
        return sum(fi * fo + fo for fi, fo in self.layer_shapes())

    def shape_spec(self) -> ShapeSpec:
        return ShapeSpec(tuple((fi, fo, True) for fi, fo in self.layer_shapes()))


@dataclass
class Batch:
    """A minibatch: features (batch_size x input_dim) and integer labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got ndim={self.features.ndim}")
        if self.features.shape[0] == 0:
            raise ValueError("batch must contain at least one sample")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match "
                f"batch size {self.features.shape[0]}"
            )
        if np.any(self.labels < 0):
            raise ValueError("labels must be non-negative class indices")

    @property
    def size(self) -> int:
        return int(self.features.shape[0])


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


def _check_labels(batch: Batch, spec: MlpSpec) -> None:
    if np.any(batch.labels >= spec.num_classes):
        raise ValueError(
            f"labels exceed num_classes={spec.num_classes}: max={batch.labels.max()}"
        )
    if batch.features.shape[1] != spec.input_dim:
        raise ValueError(
            f"features have {batch.features.shape[1]} columns, "
            f"spec expects {spec.input_dim}"
        )


def init_params(spec: MlpSpec, seed: int) -> ParamVector:
    """Deterministic Glorot-uniform weights, zero biases."""
    rng = np.random.default_rng(seed)
    flat = np.empty(spec.param_count(), dtype=np.float64)
    off = 0
    for fi, fo in spec.layer_shapes():
        s = np.sqrt(6.0 / (fi + fo))
        flat[off : off + fi * fo] = rng.uniform(-s, s, size=fi * fo)
        off += fi * fo
        flat[off : off + fo] = 0.0
        off += fo
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


def logits(params: ParamVector, spec: MlpSpec, features: np.ndarray) -> np.ndarray:
    _check_params(params, spec)
    features = np.asarray(features, dtype=np.float64)
    out, _, _ = _forward(_unpack(params.values, spec), spec, features)
    return out


def predict_proba(
    params: ParamVector, spec: MlpSpec, features: np.ndarray
) -> np.ndarray:
    """Softmax class probabilities, shape (n, num_classes)."""
    z = logits(params, spec, features)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _backprop(
    layers: Layers, grads: Layers, spec: MlpSpec, features: np.ndarray, labels: np.ndarray
) -> float:
    """Mean cross-entropy at the weights viewed by ``layers``; writes its
    gradient into the views ``grads``.  Inputs are not checked."""
    n = labels.shape[0]
    rows = np.arange(n)
    out, acts, pre = _forward(layers, spec, features)

    shifted = out - out.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-log_probs[rows, labels].mean())

    # dL/dlogits = (softmax - onehot) / n
    dlogits = np.exp(log_probs)
    dlogits[rows, labels] -= 1.0
    dlogits /= n

    delta = dlogits
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        np.matmul(acts[idx].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if idx > 0:
            da = delta @ layers[idx][0].T
            if spec.activation == "relu":
                delta = da * (pre[idx - 1] > 0.0)
            else:  # acts[idx] is tanh of the pre-activation
                delta = da * (1.0 - acts[idx] ** 2)
    return loss


def loss_and_grad(
    params: ParamVector, spec: MlpSpec, batch: Batch
) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the batch and its exact gradient."""
    _check_params(params, spec)
    _check_labels(batch, spec)
    flat_grad = np.empty(params.dim, dtype=np.float64)
    layers, grads = _unpack(params.values, spec), _unpack(flat_grad, spec)
    loss = _backprop(layers, grads, spec, batch.features, batch.labels)
    return loss, ParamVector._wrap(flat_grad)


def accuracy(params: ParamVector, spec: MlpSpec, data: Batch) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    _check_params(params, spec)
    _check_labels(data, spec)
    out = logits(params, spec, data.features)
    preds = np.argmax(out, axis=1)  # argmax returns the first (lowest) max index
    return float(np.mean(preds == data.labels))
