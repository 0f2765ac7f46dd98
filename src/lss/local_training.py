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

Both trainers run one engine, ``_train``.  It checks its inputs once per
client, holds the pool in one ``(members + 1, D)`` matrix (row 0 the
anchor) and writes each step into fixed buffers, in the float order of the
reference functions (``lss_regularized_grad``, ``fedprox_loss_and_grad``,
``axpy``), so results are bit-identical to them.  Finiteness is checked at
the end of each member phase: no update turns a non-finite entry finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .config import COEFF_MODES, LocalConfig  # COEFF_MODES is re-exported
from .model import (
    Batch, MlpSpec, _backprop, _check_labels, _check_params, _unpack, loss_and_grad
)
from .params import ParamVector, l2_distance, uniform_average, weighted_average


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
    if len(pool) < 2:
        raise ValueError("the pool needs the anchor and an active member")
    active, frozen = pool[-1], pool[:-1]
    coeffs = np.asarray(coeffs, dtype=np.float64)
    task_loss, task_grad = loss_and_grad(interpolate(pool, coeffs), spec, batch)

    # frozen[0] is the anchor, so its distance is the affinity term; the
    # mean distance to the frozen members is the diversity term.
    diffs = [active.values - m.values for m in frozen]
    dists = [float(np.sqrt(np.dot(d, d))) for d in diffs]
    units = [d / max(dist, config.dist_epsilon) for d, dist in zip(diffs, dists)]
    aff, div = dists[0], sum(dists) / len(frozen)
    loss = task_loss + config.lambda_a * aff - config.lambda_d * div

    grad = coeffs[-1] * task_grad.values
    if config.lambda_a != 0.0:
        grad = grad + config.lambda_a * units[0]
    if config.lambda_d != 0.0:
        push = sum(units, np.zeros(active.dim))
        grad = grad - (config.lambda_d / len(frozen)) * push
    return loss, ParamVector._wrap(grad)


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
        return Batch(*self._next())

    def _next(self) -> tuple[np.ndarray, np.ndarray]:
        """The next minibatch's features and labels, unchecked."""
        if self._n <= self._batch_size:
            return self._features, self._labels
        if self._order is None or self._pos >= self._n:
            self._order = self._rng.permutation(self._n)
            self._pos = 0
        chunk = self._order[self._pos : self._pos + self._batch_size]
        self._pos += len(chunk)
        return self._features[chunk], self._labels[chunk]


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


def _train(
    anchor: ParamVector, spec: MlpSpec, client_data, config: LocalConfig, seed: int,
    soup: bool,
) -> list[ParamVector]:
    """The local-training engine; returns the pool, anchor first.

    With ``soup`` it trains ``num_pool_models`` members on the regularized
    interpolation objective, otherwise one member by proximal SGD.
    """
    _check_params(anchor, spec)
    data = Batch(client_data.features, client_data.labels)
    _check_labels(data, spec)
    rng_batch, rng_coeff = _spawn_rngs(seed)
    sampler = MinibatchSampler(data.features, data.labels, config.batch_size, rng_batch)
    members = config.num_pool_models if soup else 1
    rows = np.empty((members + 1, anchor.dim))
    rows[0] = anchor.values
    # One allocation per D-sized buffer: (k, D) blocks raised the peak RSS
    # of a run with D = 101k by about 1 MB.
    grad, tmp = np.empty(anchor.dim), np.empty(anchor.dim)
    # The weights backprop reads: the interpolation, or the one member.
    x, push = (np.empty(anchor.dim), np.empty(anchor.dim)) if soup else (rows[1], None)
    weights, grads = _unpack(x, spec), _unpack(grad, spec)
    lam_a, lam_d, mu = config.lambda_a, config.lambda_d, config.mu_prox
    pool = [anchor]
    for m in range(1, members + 1):
        active = rows[m]
        active[:] = uniform_average(pool).values
        for _ in range(config.tau):
            features, labels = sampler._next()
            if soup:
                coeffs = sample_interp_coeffs(m + 1, config.coeff_mode, rng_coeff)
                np.multiply(rows[0], coeffs[0], out=x)
                for row, c in zip(rows[1 : m + 1], coeffs[1:]):
                    x += np.multiply(row, c, out=tmp)
            _backprop(weights, grads, spec, features, labels)
            if soup:
                grad *= coeffs[-1]
                if lam_a != 0.0 or lam_d != 0.0:
                    # Unit vectors from the frozen members (row 0 the
                    # anchor) to the active one, summed from zeros.
                    push.fill(0.0)
                    for k in range(m if lam_d != 0.0 else 1):
                        np.subtract(active, rows[k], out=tmp)
                        tmp /= max(float(np.sqrt(np.dot(tmp, tmp))), config.dist_epsilon)
                        push += tmp
                        if k == 0 and lam_a != 0.0:
                            grad += np.multiply(tmp, lam_a, out=tmp)
                    if lam_d != 0.0:
                        grad -= np.multiply(push, lam_d / m, out=push)
            elif mu != 0.0:
                np.subtract(active, rows[0], out=tmp)
                grad += np.multiply(tmp, mu, out=tmp)
            grad *= -config.eta
            active += grad
        pool.append(ParamVector._wrap(active.copy()))
    return pool


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
    pool = _train(anchor, spec, client_data, config, seed, soup=True)
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
    return _train(anchor, spec, client_data, config, seed, soup=False)[-1]
