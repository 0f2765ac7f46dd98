"""Client-side update strategies: proximal SGD and soup training.

Plain SGD is proximal SGD with ``mu_prox`` 0.  The soup strategy
(``lss_local_train``) grows a pool of models seeded with the round's
incoming anchor.  Each new member starts from the pool average
and is trained for ``tau`` steps: the forward/backward pass runs through a
random convex combination of the pool, only the newest member receives
gradient, and two distance regularizers shape the pool geometry - an
affinity pull toward the anchor and a diversity push away from the frozen
members.  The client's uploaded model is the uniform average of the whole
pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .model import Batch, MlpSpec, loss_and_grad
from .params import ParamVector, axpy, l2_distance, uniform_average, weighted_average

COEFF_MODES = ("uniform_random", "active_only")


@dataclass(frozen=True)
class LocalConfig:
    """Hyperparameters for one client's local training."""

    eta: float = 5e-4
    tau: int = 8
    batch_size: int = 64
    lambda_a: float = 3.0
    lambda_d: float = 3.0
    num_pool_models: int = 4
    mu_prox: float = 0.0
    coeff_mode: str = "uniform_random"
    dist_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        # Comparisons are written so that NaN fails them; ``< math.inf``
        # rejects infinity.
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        # tau == 0 is allowed as the degenerate no-op used by tests/smoke runs
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not all(0 <= v < math.inf for v in (self.lambda_a, self.lambda_d, self.mu_prox)):
            raise ValueError("lambda_a, lambda_d, mu_prox must be finite and non-negative")
        if self.num_pool_models < 1:
            raise ValueError(
                f"num_pool_models must be >= 1, got {self.num_pool_models}"
            )
        if self.coeff_mode not in COEFF_MODES:
            raise ValueError(
                f"coeff_mode must be one of {COEFF_MODES}, got {self.coeff_mode!r}"
            )
        if not 0 < self.dist_epsilon < math.inf:
            raise ValueError(
                f"dist_epsilon must be finite and > 0, got {self.dist_epsilon}"
            )


def sample_interp_coeffs(
    pool_size: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Interpolation coefficients on the simplex.

    ``uniform_random`` draws i.i.d. U(0,1) values and normalizes them;
    ``active_only`` puts all weight on the last (trainable) member and
    consumes no randomness.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if mode == "active_only":
        coeffs = np.zeros(pool_size)
        coeffs[-1] = 1.0
        return coeffs
    if mode != "uniform_random":
        raise ValueError(f"unknown coeff mode {mode!r}")
    u = rng.uniform(0.0, 1.0, size=pool_size)
    total = u.sum()
    if total == 0.0:  # astronomically unlikely; keep the simplex guarantee
        return np.full(pool_size, 1.0 / pool_size)
    return u / total


def interpolate(pool: Sequence[ParamVector], coeffs: Sequence[float]) -> ParamVector:
    """Convex combination of the pool members."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (len(pool),):
        raise ValueError(f"got {coeffs.size} coefficients for a pool of {len(pool)}")
    if np.any(coeffs < -1e-12) or abs(coeffs.sum() - 1.0) > 1e-9:
        raise ValueError(f"coefficients outside the simplex: {coeffs}")
    return weighted_average(pool, np.clip(coeffs, 0.0, None))


def diversity_loss(f: ParamVector, models: Sequence[ParamVector]) -> float:
    """Mean distance from ``f`` to each given model."""
    if not models:
        raise ValueError("diversity_loss: empty pool")
    return sum(l2_distance(f, m) for m in models) / len(models)


def affinity_loss(f: ParamVector, anchor: ParamVector) -> float:
    """Distance from ``f`` to the round's anchor model."""
    return l2_distance(f, anchor)


def mean_pairwise_distance(models: Sequence[ParamVector]) -> float:
    pairs = list(combinations(range(len(models)), 2))
    if not pairs:
        return 0.0
    return sum(l2_distance(models[i], models[j]) for i, j in pairs) / len(pairs)


def _unit_toward(f: ParamVector, other: ParamVector, eps: float) -> np.ndarray:
    diff = f.values - other.values
    return diff / max(float(np.sqrt(np.dot(diff, diff))), eps)


def lss_regularized_grad(
    pool: Sequence[ParamVector],
    coeffs: Sequence[float],
    spec: MlpSpec,
    batch: Batch,
    config: LocalConfig,
) -> tuple[float, ParamVector]:
    """Regularized loss at the interpolated model and its gradient w.r.t.
    the active member.

    ``pool[0]`` is the anchor and ``pool[-1]`` the active member; the
    members before it are frozen.

    Loss = task_loss(interpolate(pool, coeffs))
           + lambda_a * dist(active, anchor)
           - lambda_d * mean dist(active, frozen members).

    Only the active member receives gradient: the task term scales by its
    interpolation coefficient, and the distance terms differentiate to unit
    vectors with an ``eps`` floor on the denominator so the gradient stays
    defined when models coincide.
    """
    anchor, active, frozen = pool[0], pool[-1], pool[:-1]
    coeffs = np.asarray(coeffs, dtype=np.float64)
    interp = interpolate(pool, coeffs)
    task_loss, task_grad = loss_and_grad(interp, spec, batch)

    aff = affinity_loss(active, anchor)
    div = diversity_loss(active, frozen) if frozen else 0.0
    loss = task_loss + config.lambda_a * aff - config.lambda_d * div

    grad = coeffs[-1] * task_grad.values
    eps = config.dist_epsilon
    if config.lambda_a != 0.0:
        grad = grad + config.lambda_a * _unit_toward(active, anchor, eps)
    if config.lambda_d != 0.0 and frozen:
        push = np.zeros(active.dim)
        for m in frozen:
            push += _unit_toward(active, m, eps)
        grad = grad - (config.lambda_d / len(frozen)) * push
    return loss, ParamVector._wrap(np.asarray(grad, dtype=np.float64))


class MinibatchSampler:
    """Without-replacement minibatches; reshuffles when an epoch is exhausted.

    Clients smaller than one batch always yield their whole dataset.
    """

    def __init__(self, features, labels, batch_size: int, rng: np.random.Generator):
        self._features = np.asarray(features, dtype=np.float64)
        self._labels = np.asarray(labels, dtype=np.int64)
        self._n = self._features.shape[0]
        self._batch_size = batch_size
        self._rng = rng
        self._order = None
        self._pos = 0

    def next_batch(self) -> Batch:
        if self._n <= self._batch_size:
            return Batch(self._features, self._labels)
        if self._order is None or self._pos >= self._n:
            self._order = self._rng.permutation(self._n)
            self._pos = 0
        chunk = self._order[self._pos : self._pos + self._batch_size]
        self._pos += len(chunk)
        return Batch(self._features[chunk], self._labels[chunk])


def _spawn_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    # Independent streams for batching and coefficient sampling so that the
    # batch sequence is identical across strategies sharing a seed.
    batch_ss, coeff_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(batch_ss), np.random.default_rng(coeff_ss)


@dataclass(frozen=True)
class LocalTrace:
    """Geometry of a finished soup: the final pool and its spread."""

    pool_members: tuple[ParamVector, ...]
    anchor_distance: float
    pool_mean_pairwise_distance: float


def lss_local_train(
    anchor: ParamVector,
    spec: MlpSpec,
    client_data,
    config: LocalConfig,
    seed: int,
) -> tuple[ParamVector, LocalTrace]:
    """Sequential soup training from ``anchor``; returns the pool average.

    For each of ``num_pool_models`` phases: a new member is initialized to
    the uniform average of the current pool and trained for ``tau`` steps
    of the regularized interpolation objective.  Fresh interpolation
    coefficients are sampled every step.  Deterministic given ``seed``.
    """
    rng_batch, rng_coeff = _spawn_rngs(seed)
    sampler = MinibatchSampler(
        client_data.features, client_data.labels, config.batch_size, rng_batch
    )
    pool = [anchor]
    for _ in range(config.num_pool_models):
        pool.append(uniform_average(pool))
        for _ in range(config.tau):
            coeffs = sample_interp_coeffs(len(pool), config.coeff_mode, rng_coeff)
            batch = sampler.next_batch()
            _, grad = lss_regularized_grad(pool, coeffs, spec, batch, config)
            pool[-1] = axpy(pool[-1], -config.eta, grad)
    final = uniform_average(pool)
    trace = LocalTrace(
        pool_members=tuple(pool),
        anchor_distance=l2_distance(final, anchor),
        pool_mean_pairwise_distance=mean_pairwise_distance(pool),
    )
    return final, trace


def fedprox_loss_and_grad(
    params: ParamVector,
    anchor: ParamVector,
    spec: MlpSpec,
    batch: Batch,
    mu: float,
) -> tuple[float, ParamVector]:
    """Task loss plus (mu/2)||f - anchor||^2 and its gradient."""
    loss, grad = loss_and_grad(params, spec, batch)
    if mu == 0.0:
        return loss, grad
    diff = params.values - anchor.values
    loss = loss + 0.5 * mu * float(np.dot(diff, diff))
    return loss, ParamVector._wrap(grad.values + mu * diff)


def fedprox_local_train(
    anchor: ParamVector,
    spec: MlpSpec,
    client_data,
    config: LocalConfig,
    seed: int,
) -> ParamVector:
    """SGD on the proximal objective; plain minibatch SGD when ``mu_prox`` is 0."""
    rng_batch, _ = _spawn_rngs(seed)
    sampler = MinibatchSampler(
        client_data.features, client_data.labels, config.batch_size, rng_batch
    )
    f = anchor
    for _ in range(config.tau):
        _, grad = fedprox_loss_and_grad(
            f, anchor, spec, sampler.next_batch(), config.mu_prox
        )
        f = axpy(f, -config.eta, grad)
    return f
