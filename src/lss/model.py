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
# One array per layer, or per kernel temporary.
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


def _forward(
    spec: MlpSpec, runs: Sequence[tuple[Layers, np.ndarray, Blocks]], blocks: Blocks
) -> np.ndarray:
    """The forward pass of runs of samples, each ``(layers, features,
    outs)``: its weights, its input rows, and its output of each layer, a
    view of its consecutive rows of that layer's block in ``blocks``.  A
    layer's matmul and bias add run run by run, and a hidden layer's
    activation once on its block, in place.  Returns the logits' block."""
    for i, block in enumerate(blocks):
        for layers, features, outs in runs:
            w, b = layers[i]
            z = np.matmul(outs[i - 1] if i else features, w, out=outs[i])
            z += b
        if block is not blocks[-1]:
            np.maximum(block, 0.0, out=block) if spec.activation == "relu" else np.tanh(block, out=block)
    return blocks[-1]


def _logits(params: ParamVector | np.ndarray, spec: MlpSpec, data: Dataset) -> np.ndarray:
    """The logits of ``data`` at ``params``, shape (n, num_classes); a ``(G,
    D)`` block of G weight vectors gives shape (G, n, num_classes)."""
    flat = params.values if isinstance(params, ParamVector) else params
    _check_params(flat, spec)
    _check_data(data, spec)
    blocks = [np.empty((*flat.shape[:-1], data.n, fo)) for _, fo in spec.layer_shapes()]
    return _forward(spec, [(_unpack(flat, spec), data.features, blocks)], blocks)


def predict_proba(params: ParamVector, spec: MlpSpec, data: Dataset) -> np.ndarray:
    """Softmax class probabilities, shape (n, num_classes)."""
    z = _logits(params, spec, data)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# From ``_ROW_MAX_FROM`` rows per class, for up to ``_ROW_MAX_CLASSES``
# classes, ``_row_max`` takes the max over the class columns, one call per
# class, in place of ``maximum.reduce``'s inner loop per row.  Against the
# reduce (numpy 2.4.6, AVX-512 Xeon), the column max ran at 10 classes
# 1.03x as fast at 256 rows, 1.5x at 512 and 4x at 2,218 (32 against
# 129 us); at 2 classes 1.2x as fast at 64 rows; at 32 classes slower at
# 8,192 rows, and at 64 classes slower at every row count up to 2,218.
_ROW_MAX_FROM = 32
_ROW_MAX_CLASSES = 16


def _row_max(out: np.ndarray, col: np.ndarray) -> None:
    """Writes the max of each row of the ``(rows, classes)`` ``out`` into the
    ``(rows, 1)`` ``col``, bit for bit ``np.maximum.reduce``'s."""
    rows, classes = out.shape
    if classes > _ROW_MAX_CLASSES or rows < _ROW_MAX_FROM * classes:
        np.maximum.reduce(out, axis=-1, keepdims=True, out=col)
        return
    np.maximum(out[:, :1], out[:, 1:2], out=col)
    for k in range(2, classes):
        np.maximum(col, out[:, k : k + 1], out=col)
    # A max is exact in any order, but a max of zero or NaN may differ from
    # the reduce's in its sign or NaN payload, which follow the reduce's
    # SIMD lanes; those rows take the reduce's.
    if not np.minimum.reduce(np.abs(col), axis=None) > 0.0:
        redo = np.flatnonzero(~(np.abs(col[:, 0]) > 0.0))
        col[redo] = np.maximum.reduce(out[redo], axis=-1, keepdims=True)


def _log_softmax(out: np.ndarray, exps: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Writes the log-softmax of each row of the ``(rows, classes)`` ``out``
    over it and returns it; ``exps`` (shaped like ``out``) and the
    ``(rows, 1)`` ``col`` are scratch."""
    # Called as ufunc reductions: the ``max``/``sum`` wrappers cost more than
    # the reduction itself at these sizes, and give the same bits.
    _row_max(out, col)
    shifted = np.subtract(out, col, out=out)
    np.add.reduce(np.exp(shifted, out=exps), axis=-1, keepdims=True, out=col)
    shifted -= np.log(col, out=col)
    return shifted


def _mean_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    return float(-log_probs[np.arange(labels.shape[0]), labels].mean())


def _workspace_widths(spec: MlpSpec) -> list[int]:
    """The widths of a kernel's blocks, each one row per sample: each
    layer's output (the logits, then the log-probabilities in their place),
    each layer's delta (the last one dlogits), and one column: the
    log-softmax's scratch, then each row's batch size."""
    return [*(fo for _, fo in spec.layer_shapes()), *spec.hidden_dims, spec.num_classes, 1]


class _Block:
    """The first ``rows.size`` rows of each of a kernel's blocks: what a call
    on that many rows runs its row-wise ops on.  ``rows`` holds each row's
    index."""

    __slots__ = ("outs", "deltas", "col", "rows")

    def __init__(self, blocks: Blocks, rows: np.ndarray, layers: int):
        if rows.size < len(blocks[0]):
            blocks = [block[: rows.size] for block in blocks]
        self.outs, self.deltas, self.col = blocks[:layers], blocks[layers:-1], blocks[-1]
        self.rows = rows


class _Run:
    """A run bound to a kernel: the weight and gradient views of its g
    clients, and its views of rows ``end - g·n`` to ``end`` of the kernel's
    blocks, each shaped like its batch, ``(g, n, width)``."""

    __slots__ = ("weights", "grads", "outs", "deltas", "col", "n", "end")

    def __init__(self, weights: Layers, grads: Layers, views: Blocks, end: int):
        layers = len(weights)
        self.weights, self.grads, self.end = weights, grads, end
        self.outs, self.deltas, self.col = views[:layers], views[layers:-1], views[-1]
        self.n = self.col.shape[-2]


def _backprop(
    spec: MlpSpec, runs: list[tuple[_Run, np.ndarray]], labels: np.ndarray, block: _Block
) -> np.ndarray:
    """Writes the gradient of the mean cross-entropy of each run's batch at
    its clients' weights into its gradient views, and returns the
    log-probabilities of all the runs' rows, shape (rows, num_classes), held
    in ``block``.  ``runs`` holds each run's binding and features,
    ``labels`` the label of each row, in run order.  Inputs are not
    checked.

    Each client's slice gets the bits it gets alone: the matmuls and the
    bias-gradient sums over the batch run run by run, slice by slice, and
    every other op works one row at a time, once on all the rows."""
    forward = [(run.weights, features, run.outs) for run, features in runs]
    out = _forward(spec, forward, block.outs)
    log_probs = _log_softmax(out, block.deltas[-1], block.col)

    # dL/dlogits = (softmax - onehot) / n, n the row's batch size
    dlogits = np.exp(log_probs, out=block.deltas[-1])
    dlogits[block.rows, labels.ravel()] -= 1.0
    if len(runs) == 1:
        dlogits /= runs[0][0].n
    else:
        for run, _ in runs:
            run.col.fill(run.n)
        dlogits /= block.col

    for i in range(len(block.outs) - 1, -1, -1):
        for run, features in runs:
            gw, gb = run.grads[i]
            delta = run.deltas[i]
            a = run.outs[i - 1] if i else features  # the layer's input
            np.matmul(a.swapaxes(-1, -2), delta, out=gw)
            np.add.reduce(delta, axis=-2, keepdims=True, out=gb)
            if i:
                np.matmul(delta, run.weights[i][0].swapaxes(-1, -2), out=run.deltas[i - 1])
        if i:
            # The activation's derivative, in place of the activation; for
            # relu, max(z, 0) > 0 exactly where z > 0.
            a = block.outs[i - 1]
            if spec.activation == "relu":
                np.greater(a, 0.0, out=a)
            else:
                np.subtract(1.0, np.square(a, out=a), out=a)
            block.deltas[i - 1] *= a
    return log_probs


# The run bindings that a kernel caches at most.  A group's bindings are
# few in practice: 48 over 2,400 steps of the 100-client softmax workload's
# group, 5 for a group of five clients of the 20-client MLP.  But a run's
# first row is the sum of the batch sizes before it, which can take one
# value per combination of the earlier clients' epoch tails; and a binding
# holds 2-3 KB of views.
_BINDINGS = 256


class Kernel:
    """The training kernel on the caller's ``(G, D)`` weights ``x``, the
    weights of G clients, checked with ``data``, the datasets of their
    batches, against the spec once.  ``kernel(runs, labels)`` takes one
    step's batches: ``runs`` holds ``(lo, features)`` pairs, each a ``(g,
    n, input_dim)`` batch, n rows of the data of each of clients ``lo ..
    lo + g - 1``, and ``labels`` the label of each of their rows, in run
    order (any shape that ravels to that).  It writes the gradient of the
    mean cross-entropy of each run's clients at their rows of ``x`` into
    those rows of ``grad``, and only those, and returns the
    log-probabilities, one row per sample in run order, valid until the
    next call.  The batches are unchecked, so they must be rows of
    ``data``.  The runs of one call may differ in n: only the matmuls and
    the bias-gradient sums over the batch run run by run, and every other
    op once on all rows, so no batch is padded.

    The kernel owns ``grad``, shaped like ``x``, and its forward and backward
    temporaries: one block per temporary, each one row per sample, in one
    flat scratch buffer of ``rows`` rows, allocated here, in the
    constructing thread.  A call of more rows raises ``ValueError``.  A
    call views the front rows of each block, and each run its consecutive
    rows of them.
    The views are cached by run binding, ``(lo, batch shape, first row)``,
    and by row count, not by a step's composition, and at most
    ``_BINDINGS`` run bindings are kept."""

    __slots__ = ("x", "grad", "_spec", "_runs", "_blocks", "_full", "_rows")

    def __init__(self, spec: MlpSpec, data: Sequence[Dataset], x: np.ndarray, rows: int):
        _check_params(x, spec)
        if x.ndim != 2:
            raise ValueError(f"kernel weights must be a (G, D) block, got shape {x.shape}")
        for d in data:
            _check_data(d, spec)
        self.x, self._spec = x, spec
        self.grad = np.empty(x.shape)
        self._runs: dict[tuple, _Run] = {}  # (lo, batch shape, first row) -> binding
        self._blocks: dict[int, _Block] = {}  # rows -> the blocks' front rows
        widths = _workspace_widths(spec)
        scratch = np.empty(rows * sum(widths))
        self._full: Blocks = []  # each temporary's block, at full size
        off = 0
        for width in widths:
            self._full.append(scratch[off : off + rows * width].reshape(rows, width))
            off += rows * width
        self._rows = np.arange(rows)  # each row's index

    def __call__(self, runs: Sequence[tuple[int, np.ndarray]], labels: np.ndarray) -> np.ndarray:
        bound, end = [], 0
        try:
            for lo, features in runs:
                run = self._runs[lo, features.shape, end]
                bound.append((run, features))
                end = run.end
            block = self._blocks[end]
        except KeyError:
            bound, block = self._bind(runs)
        return _backprop(self._spec, bound, labels, block)

    def _bind(self, runs: Sequence[tuple[int, np.ndarray]]) -> tuple[list, _Block]:
        rows = sum(math.prod(features.shape[:-1]) for _, features in runs)
        if rows > self._rows.size:
            raise ValueError(f"a call of {rows} rows, but the kernel holds {self._rows.size}")
        if len(self._runs) + len(runs) > _BINDINGS:
            self._runs.clear()
            self._blocks.clear()
        bound, end = [], 0
        for lo, features in runs:
            key = (lo, features.shape, end)
            run = self._runs.get(key) or self._bind_run(*key)
            bound.append((run, features))
            end = run.end
        block = self._blocks.get(end)
        if block is None:
            layers = len(self._spec.hidden_dims) + 1
            block = self._blocks[end] = _Block(self._full, self._rows[:end], layers)
        return bound, block

    def _bind_run(self, lo: int, shape: tuple[int, ...], start: int) -> _Run:
        g, n = shape[:2]
        x, grad = self.x[lo : lo + g], self.grad[lo : lo + g]
        end = start + g * n
        views = self._full
        if (start, end) != (0, len(views[0])):
            views = [block[start:end] for block in views]
        views = [view.reshape(g, n, view.shape[1]) for view in views]
        run = _Run(_unpack(x, self._spec), _unpack(grad, self._spec), views, end)
        self._runs[lo, shape, start] = run
        return run


def loss_and_grad(
    params: ParamVector, spec: MlpSpec, data: Dataset
) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the dataset and its exact gradient."""
    kernel = Kernel(spec, [data], params.values[None], data.n)
    log_probs = kernel([(0, data.features[None])], data.labels)
    return _mean_nll(log_probs, data.labels), ParamVector._wrap(kernel.grad[0])


def accuracy(
    params: ParamVector | np.ndarray, spec: MlpSpec, data: Dataset
) -> float | np.ndarray:
    """Fraction of argmax-correct predictions; ties go to the lowest class index.

    A ``(G, D)`` block of G weight vectors is scored in one forward pass,
    and gives the G fractions, each bit for bit the one its row gets alone:
    each layer's matmul runs once per row."""
    preds = np.argmax(_logits(params, spec, data), axis=-1)  # the first max index
    acc = np.mean(preds == data.labels, axis=-1)
    return float(acc) if acc.ndim == 0 else acc


def evaluate(params: ParamVector, spec: MlpSpec, data: Dataset) -> tuple[float, float]:
    """``(accuracy, loss)`` from one forward pass, bit for bit the values of
    ``accuracy`` and of ``loss_and_grad``'s loss, without the backward pass."""
    out = _logits(params, spec, data)
    acc = float(np.mean(np.argmax(out, axis=1) == data.labels))
    log_probs = _log_softmax(out, np.empty_like(out), np.empty((data.n, 1)))
    return acc, _mean_nll(log_probs, data.labels)
