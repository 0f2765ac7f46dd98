"""Small differentiable classifiers over flat weight vectors.

Softmax regression and 1-2 hidden-layer MLPs with hand-derived
backpropagation.  Keeping the gradient explicit (instead of pulling in an
autodiff framework) makes the chain-rule scaling in the soup training loop
easy to verify against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
# One (..., n, width) block per layer.
Blocks = list[np.ndarray]


def _unpack(flat: np.ndarray, spec: MlpSpec) -> Layers:
    """Split a flat vector into (W, b) views, W laid out (fan_in, fan_out)
    and b as one (1, fan_out) row.  A stacked ``(G, D)`` matrix gives views
    with the same leading client axis."""
    lead = flat.shape[:-1]
    layers = []
    off = 0
    for fi, fo in spec.layer_shapes():
        w = flat[..., off : off + fi * fo].reshape(*lead, fi, fo)
        off += fi * fo
        b = flat[..., None, off : off + fo]
        off += fo
        layers.append((w, b))
    return layers


def _check_params(flat: np.ndarray, spec: MlpSpec) -> None:
    if flat.shape[-1] != spec.param_count():
        raise ValueError(
            f"parameter vector has dim {flat.shape[-1]}, spec needs {spec.param_count()}"
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


def _forward(layers: Layers, spec: MlpSpec, features: np.ndarray, outs: Blocks) -> np.ndarray:
    """Writes each layer's output into ``outs``, the activation of a hidden
    layer and the logits last, and returns the logits."""
    a = features
    for (w, b), z in zip(layers, outs):
        np.matmul(a, w, out=z)
        z += b
        if z is not outs[-1]:
            np.maximum(z, 0.0, out=z) if spec.activation == "relu" else np.tanh(z, out=z)
        a = z
    return a


def _layer_blocks(spec: MlpSpec, lead: tuple[int, ...]) -> Blocks:
    """Fresh output blocks, one per layer, for a batch of leading shape ``lead``."""
    return [np.empty((*lead, fo)) for _, fo in spec.layer_shapes()]


def _logits(params: ParamVector, spec: MlpSpec, data: Dataset) -> np.ndarray:
    _check_params(params.values, spec)
    _check_data(data, spec)
    blocks = _layer_blocks(spec, data.features.shape[:-1])
    return _forward(_unpack(params.values, spec), spec, data.features, blocks)


def predict_proba(params: ParamVector, spec: MlpSpec, data: Dataset) -> np.ndarray:
    """Softmax class probabilities, shape (n, num_classes)."""
    z = _logits(params, spec, data)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _log_softmax(
    out: np.ndarray, log_probs: np.ndarray, exps: np.ndarray, col: np.ndarray
) -> np.ndarray:
    """Writes the log-softmax of ``out`` over its last axis into
    ``log_probs`` (which may be ``out``) and returns it; ``exps`` (shaped
    like ``out``) and ``col`` (its last axis 1) are scratch."""
    # Called as ufunc reductions: the ``max``/``sum`` wrappers cost more than
    # the reduction itself at these sizes, and give the same bits.
    np.maximum.reduce(out, axis=-1, keepdims=True, out=col)
    shifted = np.subtract(out, col, out=log_probs)
    np.add.reduce(np.exp(shifted, out=exps), axis=-1, keepdims=True, out=col)
    shifted -= np.log(col, out=col)
    return shifted


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_probs[np.arange(labels.shape[0]), labels].mean())


class _Workspace:
    """The forward and backward temporaries of one batch shape: disjoint
    views of the front of a kernel's flat scratch buffer, which the
    workspaces of its other batch shapes share."""

    __slots__ = ("outs", "deltas", "log_probs", "dlogits", "onehot", "col", "rows")

    def __init__(self, spec: MlpSpec, lead: tuple[int, ...], scratch: np.ndarray):
        rows, blocks, off = math.prod(lead), [], 0
        for width in _workspace_widths(spec):
            blocks.append(scratch[off : off + rows * width].reshape(*lead, width))
            off += rows * width
        layers = len(spec.hidden_dims) + 1
        self.outs, self.deltas = blocks[:layers], blocks[layers:-3]
        self.log_probs, self.dlogits, self.col = blocks[-3:]
        # dlogits with one row per sample, and each sample's row index in it
        self.onehot = self.dlogits.reshape(-1, spec.num_classes)
        self.rows = np.arange(rows)


def _workspace_widths(spec: MlpSpec) -> list[int]:
    """The widths of a workspace's blocks, each one row per sample: each
    layer's output, each hidden layer's delta, the log-probabilities,
    dlogits, and one column."""
    return [
        *(fo for _, fo in spec.layer_shapes()), *spec.hidden_dims,
        spec.num_classes, spec.num_classes, 1,
    ]


def _backprop(
    layers: Layers, grads: Layers, spec: MlpSpec, features: np.ndarray, labels: np.ndarray,
    ws: _Workspace,
) -> np.ndarray:
    """Writes the gradient of the mean cross-entropy at the weights viewed by
    ``layers`` into the views ``grads`` and returns the log-probabilities,
    shape (n, num_classes), held in ``ws``.  Inputs are not checked.

    With a leading client axis (weights from a ``(G, D)`` matrix, features
    ``(G, n, input_dim)``, labels ``(G, n)``) each client's slice gets the
    bits it gets alone: the matmuls run slice by slice, and the reductions
    run along the same contiguous axes."""
    n = labels.shape[-1]
    out = _forward(layers, spec, features, ws.outs)
    log_probs = _log_softmax(out, ws.log_probs, ws.dlogits, ws.col)

    # dL/dlogits = (softmax - onehot) / n
    dlogits = np.exp(log_probs, out=ws.dlogits)
    ws.onehot[ws.rows, labels.ravel()] -= 1.0
    dlogits /= n

    delta = dlogits
    for idx in range(len(layers) - 1, -1, -1):
        gw, gb = grads[idx]
        a = ws.outs[idx - 1] if idx else features  # the layer's input
        np.matmul(a.swapaxes(-1, -2), delta, out=gw)
        np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
        if idx > 0:
            delta = np.matmul(delta, layers[idx][0].swapaxes(-1, -2), out=ws.deltas[idx - 1])
            # The activation's derivative, in place of the activation; for
            # relu, max(z, 0) > 0 exactly where z > 0.
            if spec.activation == "relu":
                np.greater(a, 0.0, out=a)
            else:
                np.subtract(1.0, np.square(a, out=a), out=a)
            delta *= a
    return log_probs


class Kernel:
    """The training kernel on the caller's flat weights ``x``, checked with
    ``data`` against the spec once.  ``kernel(features, labels)`` writes the
    gradient of the mean cross-entropy at ``x`` into ``grad`` and returns the
    log-probabilities, valid until the next call; the batch is unchecked, so
    it must be rows of ``data``.

    A ``(G, D)`` matrix ``x`` holds the weights of G clients, and ``data`` is
    then one dataset per client; each call takes a ``(g, n, input_dim)``
    batch, n rows of the data of each of the g clients from row ``lo``
    (``kernel(features, labels, lo)``), and writes only their rows of
    ``grad``.

    The kernel owns ``grad``, shaped like ``x``, and its forward and backward
    temporaries: one flat scratch buffer, sized to the largest batch so far,
    whose front each batch shape's blocks view from its first call on."""

    __slots__ = ("x", "grad", "_spec", "_row_floats", "_calls", "_workspaces", "_scratch")

    def __init__(self, spec: MlpSpec, data: Dataset | Sequence[Dataset], x: np.ndarray):
        _check_params(x, spec)
        for d in [data] if isinstance(data, Dataset) else data:
            _check_data(d, spec)
        self.x, self._spec = x, spec
        self.grad = np.empty(x.shape)
        self._row_floats = sum(_workspace_widths(spec))  # scratch floats per sample
        # (lo, batch shape) -> the weight and gradient views of its rows,
        # and the workspace of the batch shape
        self._calls: dict[tuple, tuple[Layers, Layers, _Workspace]] = {}
        self._workspaces: dict[tuple[int, ...], _Workspace] = {}
        self._scratch = np.empty(0)

    def __call__(self, features: np.ndarray, labels: np.ndarray, lo: int = 0) -> np.ndarray:
        weights, grads, ws = self._calls.get((lo, features.shape)) or self._bind(lo, features.shape)
        return _backprop(weights, grads, self._spec, features, labels, ws)

    def _bind(self, lo: int, shape: tuple[int, ...]) -> tuple[Layers, Layers, _Workspace]:
        x, grad = self.x, self.grad
        if x.ndim == 2:  # clients lo..lo + g - 1 of a stacked matrix
            x, grad = x[lo : lo + shape[0]], grad[lo : lo + shape[0]]
        ws = self._workspaces.get(shape)
        if ws is None:
            lead = shape[:-1]
            need = math.prod(lead) * self._row_floats
            if need > self._scratch.size:
                # the workspaces so far view the old buffer
                self._workspaces.clear()
                self._calls.clear()
                self._scratch = np.empty(need)
            ws = self._workspaces[shape] = _Workspace(self._spec, lead, self._scratch)
        self._calls[(lo, shape)] = call = (_unpack(x, self._spec), _unpack(grad, self._spec), ws)
        return call


def loss_and_grad(
    params: ParamVector, spec: MlpSpec, data: Dataset
) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the dataset and its exact gradient."""
    kernel = Kernel(spec, data, params.values)
    log_probs = kernel(data.features, data.labels)
    return _mean_nll(log_probs, data.labels), ParamVector._wrap(kernel.grad)


def accuracy(params: ParamVector, spec: MlpSpec, data: Dataset) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class index."""
    preds = np.argmax(_logits(params, spec, data), axis=1)  # the first max index
    return float(np.mean(preds == data.labels))


def evaluate(params: ParamVector, spec: MlpSpec, data: Dataset) -> tuple[float, float]:
    """``(accuracy, loss)`` from one forward pass, bit for bit the values of
    ``accuracy`` and of ``loss_and_grad``'s loss, without the backward pass."""
    out = _logits(params, spec, data)
    acc = float(np.mean(np.argmax(out, axis=1) == data.labels))
    log_probs = _log_softmax(out, out, np.empty_like(out), np.empty((data.n, 1)))
    return acc, _mean_nll(log_probs, data.labels)
