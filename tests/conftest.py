"""Shared fixtures and numerical oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

import lss.analysis as analysis
import lss.federation as federation
import lss.local_training as local_training
from lss.data import Dataset, gen_blobs
from lss.model import MlpSpec, init_params
from lss.params import ParamVector


def finite_diff_grad(fn, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, one coordinate at a time."""
    g = np.zeros_like(x)
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = eps
        g[k] = (fn(x + e) - fn(x - e)) / (2.0 * eps)
    return g


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """Per-coordinate relative error with a floor guarding near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


def random_batch(rng: np.random.Generator, spec: MlpSpec, size: int) -> Dataset:
    return Dataset(
        rng.standard_normal((size, spec.input_dim)),
        rng.integers(0, spec.num_classes, size),
        spec.num_classes,
    )


def perturbed(params: ParamVector, rng: np.random.Generator, scale: float = 0.3) -> ParamVector:
    return ParamVector(params.values + scale * rng.standard_normal(params.dim))


def spy_prepare_group(monkeypatch) -> list:
    """The datasets of each lockstep group, in the order the groups are
    prepared.  ``prepare_group`` is patched under both names it is called
    by: ``local_training``'s own, which ``train_group`` (and so the
    one-client trainers) calls, and the one ``federation`` binds at import,
    which ``train_clients`` calls."""
    calls = []
    prepare = local_training.prepare_group

    def spy(*args, **kwargs):
        calls.append(args[2])
        return prepare(*args, **kwargs)

    for module in (local_training, federation):
        monkeypatch.setattr(module, "prepare_group", spy)
    return calls


@pytest.fixture
def spy_workers(monkeypatch):
    """A function that returns the list of worker threads started from
    then on, in order; given ``workers``, it also forces the engine's
    callers (``train_clients`` and the estimators) to run up to that many
    units at once, however wide the model."""

    def spy(workers: int | None = None) -> list:
        if workers is not None:
            for module in (federation, analysis):
                monkeypatch.setattr(
                    module, "lockstep_workers", lambda units, dim: min(units, workers)
                )
        started = []

        class Worker(local_training._Worker):
            def __init__(self, work):
                started.append(self)
                super().__init__(work)

        monkeypatch.setattr(local_training, "_Worker", Worker)
        return started

    return spy


@pytest.fixture(scope="session")
def small_blobs():
    return gen_blobs(num_classes=6, per_class=80, input_dim=8, spread=1.0, seed=5)


@pytest.fixture(scope="session")
def softmax_spec():
    return MlpSpec(input_dim=8, hidden_dims=(), num_classes=6)


@pytest.fixture(scope="session")
def softmax_anchor(softmax_spec):
    return init_params(softmax_spec, 3)
