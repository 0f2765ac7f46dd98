"""Dataset synthesis, loading, and non-IID partitioning.

Gaussian-blob classification stands in for image benchmarks at desk scale.
Label shift is produced by per-class Dirichlet allocation across clients;
feature shift by per-client orthogonal rotations plus coordinate scalings
of an IID split.  Real data can be brought in through the big-endian IDX
file format.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .params import read_exact

FEATURE_SHIFT_MARKER = "feature-shift"

_CENTER_RADIUS = 3.0

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass(frozen=True)
class Dataset:
    """Labeled samples: a finite 2-D float64 feature matrix and one int64
    label in ``[0, num_classes)`` per row (labels given as floats must be
    whole numbers).  Every model, trainer and estimator reads its data as a
    ``Dataset``, so these are checked once, here.

    A ``Dataset`` does not copy arrays that already have those dtypes: it
    holds read-only views of them.  The caller's arrays stay writable, and
    writing to them changes the dataset.
    """

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64).view()
        labels = np.asarray(self.labels)
        if not np.issubdtype(labels.dtype, np.integer):
            with np.errstate(invalid="ignore"):  # NaN and Inf cast to garbage
                cast = labels.astype(np.int64)
            if not np.array_equal(cast, labels):
                raise ValueError(f"labels must be integers, got {labels[cast != labels]}")
            labels = cast
        labels = np.asarray(labels, dtype=np.int64).view()
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite (no NaN or Inf)")
        if labels.shape != (feats.shape[0],):
            raise ValueError("labels length must match number of rows")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if np.any(labels < 0) or np.any(labels >= self.num_classes):
            raise ValueError("labels out of range")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return int(self.features.shape[0])

    @property
    def input_dim(self) -> int:
        return int(self.features.shape[1])

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def as_batch(self) -> "Dataset":
        # The benchmark's ``perfbench/child.py`` calls this and passes the
        # result to ``model.loss_and_grad``, which takes the dataset itself.
        return self

    def label_marginal(self) -> np.ndarray:
        counts = np.bincount(self.labels, minlength=self.num_classes)
        return counts / counts.sum()


@dataclass(frozen=True)
class PartitionPlan:
    """Disjoint assignment of sample indices to clients."""

    client_indices: tuple[tuple[int, ...], ...]
    alpha: float | str
    seed: int

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for ids in self.client_indices:
            for i in ids:
                if i in seen:
                    raise ValueError(f"index {i} assigned to more than one client")
                seen.add(i)

    @property
    def num_clients(self) -> int:
        return len(self.client_indices)

    def covered_indices(self) -> set[int]:
        return {i for ids in self.client_indices for i in ids}


def class_center(label: int, input_dim: int) -> np.ndarray:
    """Fixed unit-norm direction for a class, scaled to radius 3.

    Depends only on (label, input_dim) so that datasets generated with
    different sample seeds share the same class geometry; this is what lets
    a warm-up dataset act as a stand-in for pre-training.
    """
    rng = np.random.default_rng(label)
    u = rng.standard_normal(input_dim)
    return _CENTER_RADIUS * u / np.linalg.norm(u)


def gen_blobs(
    num_classes: int, per_class: int, input_dim: int, spread: float, seed: int
) -> Dataset:
    """Gaussian blobs: per class, samples = center + N(0, spread^2 I)."""
    if num_classes < 2 or per_class < 1 or input_dim < 1:
        raise ValueError("num_classes, per_class, input_dim must be positive")
    if spread <= 0:
        raise ValueError(f"spread must be > 0, got {spread}")
    rng = np.random.default_rng(seed)
    feats = np.empty((num_classes * per_class, input_dim), dtype=np.float64)
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        lo = c * per_class
        noise = rng.standard_normal((per_class, input_dim)) * spread
        feats[lo : lo + per_class] = class_center(c, input_dim) + noise
        labels[lo : lo + per_class] = c
    return Dataset(feats, labels, num_classes)


def split_sizes(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Sample counts of the (train, val, test) split of ``n`` samples."""
    if abs(sum(fractions) - 1.0) > 1e-9 or any(f < 0 for f in fractions):
        raise ValueError(f"fractions must be non-negative and sum to 1: {fractions}")
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return n_train, n_val, n - n_train - n_val


def split_dataset(
    data: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Shuffled train/val/test split by the given fractions (must sum to 1)."""
    n_train, n_val, _ = split_sizes(data.n, fractions)
    rng = np.random.default_rng(seed)
    order = rng.permutation(data.n)
    train = data.subset(order[:n_train])
    val = data.subset(order[n_train : n_train + n_val])
    test = data.subset(order[n_train + n_val :])
    return train, val, test


def dirichlet_partition(
    data: Dataset, num_clients: int, alpha: float, seed: int
) -> PartitionPlan:
    """Label-shift partition: per class, client shares ~ Dirichlet(alpha).

    Guarantees a disjoint cover of all indices.  Clients that end up empty
    steal one sample from the currently largest client so every client has
    at least one sample.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > data.n:
        raise ValueError(f"cannot split {data.n} samples across {num_clients} clients")
    rng = np.random.default_rng(seed)
    buckets: list[list[int]] = [[] for _ in range(num_clients)]
    for c in range(data.num_classes):
        idx = np.flatnonzero(data.labels == c)
        if idx.size == 0:
            continue
        rng.shuffle(idx)
        props = rng.dirichlet(np.full(num_clients, alpha))
        cuts = (np.cumsum(props)[:-1] * idx.size).astype(np.int64)
        for client, chunk in enumerate(np.split(idx, cuts)):
            buckets[client].extend(int(i) for i in chunk)
    _rebalance_empty(buckets)
    return PartitionPlan(tuple(tuple(b) for b in buckets), float(alpha), seed)


def _rebalance_empty(buckets: list[list[int]]) -> None:
    for client, bucket in enumerate(buckets):
        while not bucket:
            largest = max(range(len(buckets)), key=lambda j: len(buckets[j]))
            if len(buckets[largest]) <= 1:
                raise ValueError("not enough samples to give every client one")
            bucket.append(buckets[largest].pop())


# Feature shift: each client's domain is a rotation by at most this angle in
# each coordinate plane, then a per-coordinate scaling drawn from this range.
_MAX_ANGLE = np.pi / 4
_SCALE_RANGE = (0.8, 1.25)


def _random_rotation(dim: int, max_angle: float, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal matrix built from plane rotations with |angle| <= max_angle."""
    rot = np.eye(dim)
    axes = rng.permutation(dim)
    for k in range(dim // 2):
        i, j = int(axes[2 * k]), int(axes[2 * k + 1])
        theta = rng.uniform(-max_angle, max_angle)
        c, s = np.cos(theta), np.sin(theta)
        givens = np.eye(dim)
        givens[i, i] = c
        givens[j, j] = c
        givens[i, j] = -s
        givens[j, i] = s
        rot = givens @ rot
    return rot


def feature_shift_partition(
    train: Dataset, test: Dataset, num_clients: int, seed: int
) -> tuple[PartitionPlan, tuple[Dataset, ...], Dataset]:
    """IID split of ``train`` with a fixed rotation-then-scaling per client.

    Client c's map is the matrix M_c: its data are its plan rows as
    ``x @ M_c.T``.  The returned eval set is the mixture of the client
    domains: ``test`` cut into ``num_clients`` chunks, chunk c mapped
    through M_c, so its labels are ``test.labels``.
    """
    if num_clients < 1:
        raise ValueError(f"num_clients must be >= 1, got {num_clients}")
    if num_clients > train.n:
        raise ValueError(f"cannot split {train.n} samples across {num_clients} clients")
    rng = np.random.default_rng(seed)
    order = rng.permutation(train.n)
    chunks = np.array_split(order, num_clients)
    test_chunks = np.array_split(np.arange(test.n), num_clients)
    clients, eval_feats = [], []
    for chunk, test_chunk in zip(chunks, test_chunks):
        rot = _random_rotation(train.input_dim, _MAX_ANGLE, rng)
        scales = rng.uniform(_SCALE_RANGE[0], _SCALE_RANGE[1], size=train.input_dim)
        m = scales[:, None] * rot
        clients.append(
            Dataset(train.features[chunk] @ m.T, train.labels[chunk], train.num_classes)
        )
        eval_feats.append(test.features[test_chunk] @ m.T)
    plan = PartitionPlan(
        tuple(tuple(int(i) for i in chunk) for chunk in chunks),
        FEATURE_SHIFT_MARKER,
        seed,
    )
    eval_data = Dataset(np.concatenate(eval_feats), test.labels, test.num_classes)
    return plan, tuple(clients), eval_data


# ---------------------------------------------------------------------------
# IDX file format (big-endian): images magic 0x00000803 with dims
# (count, rows, cols); labels magic 0x00000801 with dims (count,).
# Pixels are u8 scaled to [0, 1] and flattened row-major.
# ---------------------------------------------------------------------------


def _read_be32(fh, what: str) -> int:
    return struct.unpack(">I", read_exact(fh, 4, what))[0]


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair as a flat-feature dataset."""
    with open(images_path, "rb") as fh:
        magic = _read_be32(fh, "IDX image magic")
        if magic != IDX_IMAGES_MAGIC:
            raise ValueError(
                f"bad IDX image magic: expected {IDX_IMAGES_MAGIC:#010x}, got {magic:#010x}"
            )
        count = _read_be32(fh, "IDX image count")
        if count == 0:
            raise ValueError(f"IDX image count field of {images_path} is 0: it holds no images")
        rows = _read_be32(fh, "IDX row count")
        cols = _read_be32(fh, "IDX column count")
        raw = read_exact(
            fh,
            count * rows * cols,
            f"IDX image data (count, rows and cols fields {count} x {rows} x {cols})",
        )
    pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64) / 255.0
    features = pixels.reshape(count, rows * cols)

    with open(labels_path, "rb") as fh:
        magic = _read_be32(fh, "IDX label magic")
        if magic != IDX_LABELS_MAGIC:
            raise ValueError(
                f"bad IDX label magic: expected {IDX_LABELS_MAGIC:#010x}, got {magic:#010x}"
            )
        label_count = _read_be32(fh, "IDX label count")
        raw = read_exact(fh, label_count, f"IDX label data (label count field {label_count})")
    if label_count != count:
        raise ValueError(
            f"IDX count mismatch: {count} images but {label_count} labels"
        )
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        raise ValueError(
            f"IDX labels {labels_path} give {num_classes} class (largest label + 1); "
            "at least 2 are needed"
        )
    return Dataset(features, labels, num_classes)


# ---------------------------------------------------------------------------
# Partition plan text format, one file per plan:
#   # lss partition plan v1
#   alpha: <float or "feature-shift">
#   seed: <int>
#   clients: <int>
#   client <id>: <space-separated indices>
# ---------------------------------------------------------------------------


def write_partition_plan(plan: PartitionPlan, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# lss partition plan v1\n")
        fh.write(f"alpha: {plan.alpha}\n")
        fh.write(f"seed: {plan.seed}\n")
        fh.write(f"clients: {plan.num_clients}\n")
        for cid, ids in enumerate(plan.client_indices):
            fh.write(f"client {cid}: {' '.join(str(i) for i in ids)}\n")
