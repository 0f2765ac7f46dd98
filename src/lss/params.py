"""Flat weight vectors and the arithmetic behind interpolation and averaging.

Every model in the simulator is a single immutable float64 vector
(:class:`ParamVector`).  Interpolation, aggregation, and distance
computations all operate on this one currency, so determinism rules are
centralized here: sums accumulate left to right in the order the caller
supplies, which makes results independent of thread scheduling.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

WEIGHT_SUM_TOL = 1e-9

CHECKPOINT_MAGIC = b"LSSW"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ShapeSpec:
    """Maps a flat vector onto dense layers as (fan_in, fan_out, has_bias) triples."""

    layer_dims: tuple[tuple[int, int, bool], ...]

    def __post_init__(self) -> None:
        for rows, cols, has_bias in self.layer_dims:
            if rows <= 0 or cols <= 0:
                raise ValueError(f"layer dims must be positive, got ({rows}, {cols})")
            if not isinstance(has_bias, bool):
                raise ValueError("has_bias must be a bool")

    def param_count(self) -> int:
        return sum(r * c + (c if b else 0) for r, c, b in self.layer_dims)


class ParamVector:
    """Immutable 1-D float64 weight vector.

    Entries are validated finite on construction, so any vector obtained
    from an exported operation is guaranteed NaN/Inf free.  Instances may
    be shared freely across threads.
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
        if not np.all(np.isfinite(arr)):
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
#   u32         number of shape triples
#   per triple: u64 fan_in, u64 fan_out, u8 has_bias
# ---------------------------------------------------------------------------


def save_checkpoint(path, params: ParamVector, shape: ShapeSpec) -> None:
    """Write a bit-exact checkpoint of ``params`` described by ``shape``."""
    if shape.param_count() != params.dim:
        raise ValueError(
            f"shape describes {shape.param_count()} parameters, vector has {params.dim}"
        )
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", params.dim))
        fh.write(params.values.astype("<f8").tobytes())
        fh.write(struct.pack("<I", len(shape.layer_dims)))
        for rows, cols, has_bias in shape.layer_dims:
            fh.write(struct.pack("<QQB", rows, cols, 1 if has_bias else 0))


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path) -> tuple[ParamVector, ShapeSpec]:
    """Read back a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, "magic")
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(
                f"bad checkpoint magic: expected {CHECKPOINT_MAGIC!r}, got {magic!r}"
            )
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        (dim,) = struct.unpack("<Q", _read_exact(fh, 8, "dim"))
        if dim == 0:
            raise ValueError("checkpoint declares zero-dimensional vector")
        raw = _read_exact(fh, 8 * dim, "weights")
        values = np.frombuffer(raw, dtype="<f8").astype(np.float64)
        (n_layers,) = struct.unpack("<I", _read_exact(fh, 4, "layer count"))
        layers = []
        for _ in range(n_layers):
            rows, cols, bias_flag = struct.unpack(
                "<QQB", _read_exact(fh, 17, "layer triple")
            )
            if bias_flag not in (0, 1):
                raise ValueError(f"bad bias flag {bias_flag} in checkpoint layer triple")
            layers.append((int(rows), int(cols), bool(bias_flag)))
        if fh.read(1):
            raise ValueError("checkpoint has trailing bytes after the last layer triple")
    shape = ShapeSpec(tuple(layers))
    params = ParamVector._wrap(values)
    if shape.param_count() != params.dim:
        raise ValueError(
            f"checkpoint shape describes {shape.param_count()} parameters, "
            f"vector has {params.dim}"
        )
    return params, shape
