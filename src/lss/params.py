"""Flat weight vectors and the arithmetic behind interpolation and averaging.

Every model in the simulator is a single immutable float64 vector
(:class:`ParamVector`).  Interpolation, aggregation, and distance
computations all operate on this one currency, so determinism rules are
centralized here: sums accumulate left to right in the order the caller
supplies, so equal inputs in equal order give bit-identical results.
"""

from __future__ import annotations

import os
import struct
from typing import Iterable, Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-9

CHECKPOINT_MAGIC = b"LSSW"
CHECKPOINT_VERSION = 1


class ParamVector:
    """Immutable 1-D float64 weight vector.

    Entries are validated finite on construction, so any vector obtained
    from an exported operation is guaranteed NaN/Inf free.  Instances are
    never modified, so one vector may back many models and uploads.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[float]):
        arr = np.array(values, dtype=np.float64, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"expected a flat vector, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ValueError("parameter vector must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("parameter vector contains non-finite entries")
        arr.setflags(write=False)
        self._values = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ParamVector":
        # Internal fast path for freshly computed arrays we own; still
        # enforces the finiteness invariant on every exported result.
        obj = object.__new__(cls)
        if not np.isfinite(arr).all():  # the method skips np.all's wrapper
            raise ValueError("operation produced non-finite entries")
        arr.setflags(write=False)
        obj._values = arr
        return obj

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def dim(self) -> int:
        return int(self._values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParamVector):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))

    def __hash__(self) -> int:  # pragma: no cover - identity-style hashing
        return hash((self.dim, self._values.tobytes()))

    def __repr__(self) -> str:
        return f"ParamVector(dim={self.dim})"


def _check_same_dim(a: ParamVector, b: ParamVector, op: str) -> None:
    if a.dim != b.dim:
        raise ValueError(f"{op}: dimension mismatch ({a.dim} vs {b.dim})")


# A distance between diverged models overflows to inf; callers check it.
@np.errstate(over="ignore", invalid="ignore")
def l2_distance(a: ParamVector, b: ParamVector) -> float:
    """Euclidean distance between two weight vectors."""
    _check_same_dim(a, b, "l2_distance")
    d = a.values - b.values
    return float(np.sqrt(np.dot(d, d)))


def weighted_average(
    models: Sequence[ParamVector], weights: Sequence[float]
) -> ParamVector:
    """Convex combination sum_i weights[i] * models[i].

    Weights must be non-negative and sum to 1 within ``WEIGHT_SUM_TOL``.
    Accumulation is strictly left to right in the given order.
    """
    if len(models) == 0:
        raise ValueError("weighted_average: empty model list")
    if len(models) != len(weights):
        raise ValueError(
            f"weighted_average: {len(models)} models but {len(weights)} weights"
        )
    dim = models[0].dim
    for m in models[1:]:
        _check_same_dim(models[0], m, "weighted_average")
    total = 0.0
    for w in weights:
        if w < 0.0:
            raise ValueError(f"weighted_average: negative weight {w}")
        total += float(w)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(
            f"weighted_average: weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}"
        )
    acc = float(weights[0]) * models[0].values
    for m, w in zip(models[1:], weights[1:]):
        acc += float(w) * m.values
    assert acc.size == dim
    return ParamVector._wrap(acc)


def uniform_average(models: Sequence[ParamVector]) -> ParamVector:
    """Equal-weight average of the given models."""
    n = len(models)
    if n == 0:
        raise ValueError("uniform_average: empty model list")
    return weighted_average(models, [1.0 / n] * n)


def axpy(y: ParamVector, alpha: float, x: ParamVector) -> ParamVector:
    """y + alpha * x, elementwise."""
    _check_same_dim(y, x, "axpy")
    return ParamVector._wrap(y.values + float(alpha) * x.values)


# ---------------------------------------------------------------------------
# Checkpoint format
#
# Layout (all integers little-endian):
#   bytes 0-3   magic "LSSW"
#   u32         format version (currently 1)
#   u64         dim
#   dim * f64   weights, IEEE-754 little-endian
#   u32         number of layers
#   per layer:  u64 fan_in, u64 fan_out, u8 has_bias (always 1)
#
# The layers are the (fan_in, fan_out) pairs of ``MlpSpec.layer_shapes()``,
# and the weights are laid out as ``model._unpack`` reads them: per layer a
# row-major (fan_in, fan_out) matrix, then fan_out biases.  Every layer
# has a bias, and each layer's fan_in is the previous layer's fan_out; the
# reader rejects any other file, since no ``MlpSpec`` describes it.
# ---------------------------------------------------------------------------

LayerShapes = Sequence[tuple[int, int]]


def dense_param_count(layers: LayerShapes) -> int:
    """Weights and biases of dense layers given as (fan_in, fan_out) pairs."""
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in layers)


def _check_layers(layers: LayerShapes, dim: int) -> None:
    """Reject layers that no ``MlpSpec`` describes or that do not hold ``dim`` weights."""
    for i, (fan_in, fan_out) in enumerate(layers):
        if fan_in <= 0 or fan_out <= 0:
            raise ValueError(f"layer {i} has a zero width: ({fan_in}, {fan_out})")
        if i > 0 and fan_in != layers[i - 1][1]:
            raise ValueError(
                f"layer {i} takes {fan_in} inputs, but layer {i - 1} gives {layers[i - 1][1]}"
            )
    count = dense_param_count(layers)
    if count != dim:
        raise ValueError(f"layers {list(layers)} hold {count} parameters, vector has {dim}")


def save_checkpoint(path, params: ParamVector, layers: LayerShapes) -> None:
    """Write a bit-exact checkpoint of ``params`` with its (fan_in, fan_out) layers."""
    _check_layers(layers, params.dim)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", params.dim))
        fh.write(params.values.astype("<f8").tobytes())
        fh.write(struct.pack("<I", len(layers)))
        for fan_in, fan_out in layers:
            fh.write(struct.pack("<QQB", fan_in, fan_out, 1))


def read_exact(fh, n: int, what: str) -> bytes:
    """The next ``n`` bytes of the binary file ``fh``.

    The size is checked against the bytes left in the file before
    anything is read, so a corrupt size field cannot ask for more memory
    than the file holds.
    """
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise ValueError(f"truncated {what}: needs {n} bytes, but only {left} remain")
    return fh.read(n)


def load_checkpoint(path) -> tuple[ParamVector, list[tuple[int, int]]]:
    """Read back a checkpoint written by :func:`save_checkpoint`: the
    weights and their (fan_in, fan_out) layers."""
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "checkpoint magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(
                f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, got {magic!r}"
            )
        (version,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (dim,) = struct.unpack("<Q", read_exact(fh, 8, "checkpoint dim field"))
        if dim == 0:
            raise ValueError("checkpoint declares zero-dimensional vector")
        raw = read_exact(fh, 8 * dim, f"checkpoint weights (dim field {dim})")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        (n_layers,) = struct.unpack("<I", read_exact(fh, 4, "checkpoint layer count"))
        raw = read_exact(fh, 17 * n_layers, f"checkpoint layers (layer count field {n_layers})")
        if fh.read(1):
            raise ValueError("checkpoint has trailing bytes after the last layer")
    layers = []
    for fan_in, fan_out, has_bias in struct.iter_unpack("<QQB", raw):
        if has_bias != 1:
            raise ValueError(f"checkpoint layer {len(layers)} has bias flag {has_bias}, not 1")
        layers.append((fan_in, fan_out))
    _check_layers(layers, dim)
    return ParamVector._wrap(values), layers
