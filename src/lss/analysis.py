"""Convergence-theory calculators and loss-landscape diagnostics.

The calculators evaluate the closed-form convergence bound for convex
local objectives, the matching learning-rate choice, and the ceiling on
local steps under a fixed gradient-computation budget.  The empirical side
estimates the constants those formulas consume (gradient noise, local/
global gradient gap) and probes landscape sharpness via finite-difference
Hessian-vector products.  The sigma and Hessian estimators run the
training kernel (``model.Kernel``) on its fixed buffers, checking their
inputs once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .federation import data_proportional_weights
from .model import Kernel, MlpSpec, loss_and_grad, predict_proba
from .params import ParamVector, l2_distance, uniform_average, weighted_average


@dataclass(frozen=True)
class TheoryParams:
    """Constants of the convergence analysis.

    beta: smoothness of the local objectives.
    sigma: stochastic-gradient noise bound.
    zeta: local/global gradient gap bound.
    c: bound on the per-step regularization update.
    d: distance from the initialization to the optimum.
    """

    beta: float
    sigma: float
    zeta: float
    c: float
    d: float
    num_clients: int
    tau: int
    rounds: int

    def __post_init__(self) -> None:
        for name in ("beta", "sigma", "zeta", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.d <= 0:
            raise ValueError(f"d must be > 0, got {self.d}")
        if self.sigma < 0 or self.zeta < 0 or self.c < 0:
            raise ValueError("sigma, zeta, c must be non-negative")
        if self.num_clients < 1 or self.tau < 1 or self.rounds < 1:
            raise ValueError("num_clients, tau, rounds must be >= 1")

    @property
    def total_grads(self) -> int:
        """Total gradient computations across all clients and rounds."""
        return self.num_clients * self.tau * self.rounds


def lr_choice(p: TheoryParams) -> float:
    """Learning rate minimizing the bound: the min of four regime terms.

    Terms whose denominator constant (sigma, or zeta + c) is zero are
    treated as +inf and drop out of the min.
    """
    m, tau, r = p.num_clients, p.tau, p.rounds
    terms = [1.0 / (4.0 * p.beta)]
    if p.sigma > 0:
        terms.append(math.sqrt(m) * p.d / (math.sqrt(tau) * math.sqrt(r) * p.sigma))
        terms.append(
            p.d ** (2.0 / 3.0)
            / (tau ** (2.0 / 3.0) * r ** (1.0 / 3.0) * p.beta ** (1.0 / 3.0) * p.sigma ** (2.0 / 3.0))
        )
    gap = p.zeta + p.c
    if gap > 0:
        terms.append(
            p.d ** (2.0 / 3.0)
            / (tau * r ** (1.0 / 3.0) * p.beta ** (1.0 / 3.0) * gap ** (2.0 / 3.0))
        )
    return min(terms)


def convergence_bound(p: TheoryParams, first_term: str = "r_squared") -> float:
    """Sum of the four error terms of the convergence bound.

    ``first_term`` selects the reading of the leading term: ``r_squared``
    evaluates 2*beta*R^2/(tau*R) as printed in the source analysis, while
    ``d_squared`` evaluates the dimensional-analysis alternative
    2*beta*d^2/(tau*R).  Both are reported by the CLI for sensitivity.
    """
    m, tau, r = p.num_clients, p.tau, p.rounds
    if first_term == "r_squared":
        t1 = 2.0 * p.beta * r * r / (tau * r)
    elif first_term == "d_squared":
        t1 = 2.0 * p.beta * p.d * p.d / (tau * r)
    else:
        raise ValueError(f"first_term must be 'r_squared' or 'd_squared', got {first_term!r}")
    t2 = 2.0 * p.sigma * p.d / math.sqrt(m * tau * r)
    t3 = (
        5.0 * p.beta ** (1.0 / 3.0) * p.sigma ** (2.0 / 3.0) * p.d ** (4.0 / 3.0)
        / (tau ** (1.0 / 3.0) * r ** (2.0 / 3.0))
    )
    gap = p.zeta + p.c
    t4 = (
        15.0 * p.beta ** (1.0 / 3.0) * gap ** (2.0 / 3.0) * p.d ** (4.0 / 3.0)
        / r ** (2.0 / 3.0)
    )
    return t1 + t2 + t3 + t4


def max_local_steps(p: TheoryParams) -> float:
    """Ceiling on local steps keeping the noise term dominant at fixed budget.

    Returns +inf when zeta + c == 0 (the ceiling is unbounded).
    """
    gap = p.zeta + p.c
    if gap == 0.0:
        return math.inf
    k = p.total_grads
    return (p.sigma / gap) * math.sqrt(
        (p.sigma / (p.d * p.beta)) * math.sqrt(k) / p.num_clients**2
    )


def _check_finite(arr: np.ndarray) -> np.ndarray:
    # A finite dot product proves every entry finite at a fraction of the
    # cost of the entrywise scan, which then runs only on an overflow.
    if not math.isfinite(arr.dot(arr)) and not np.isfinite(arr).all():
        raise ValueError("diagnostic produced non-finite entries")
    return arr


# Diverged weights overflow in the kernel; its outputs are checked, so
# numpy's own warnings would only repeat the error raised here.
@np.errstate(over="ignore", invalid="ignore")
def estimate_zeta(
    params: ParamVector,
    spec: MlpSpec,
    client_datasets: Sequence[Dataset],
) -> float:
    """Max over clients of the local/global full-batch gradient gap at ``params``.

    The global gradient weights clients by sample count, as the server does.
    Sampled only at ``params``, this is a lower bound on the true constant.
    """
    if len(client_datasets) == 0:
        raise ValueError("estimate_zeta: no client datasets")
    grads = [loss_and_grad(params, spec, d)[1] for d in client_datasets]
    global_grad = weighted_average(grads, data_proportional_weights(client_datasets)).values
    gaps = [float(np.linalg.norm(g.values - global_grad)) for g in grads]
    return max(gaps)


@np.errstate(over="ignore", invalid="ignore")
def estimate_sigma(
    params: ParamVector,
    spec: MlpSpec,
    client_data: Dataset,
    batch_size: int,
    num_draws: int,
    seed: int,
) -> float:
    """Root-mean-square minibatch gradient noise around the full gradient."""
    if num_draws < 2:
        raise ValueError(f"num_draws must be >= 2, got {num_draws}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    kernel = Kernel(spec, client_data, params.values)
    if batch_size >= client_data.n:
        return 0.0
    features, labels = client_data.features, client_data.labels
    kernel(features, labels)
    full_grad, grad = _check_finite(kernel.grad).copy(), kernel.grad
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(num_draws):
        rows = rng.choice(client_data.n, size=batch_size, replace=False)
        kernel(features[rows], labels[rows])
        diff = np.subtract(_check_finite(grad), full_grad, out=grad)
        acc += float(np.dot(diff, diff))
    return math.sqrt(acc / num_draws)


@dataclass(frozen=True)
class BvclDiagnostics:
    variance: float
    covariance: float
    locality: float


def bvcl_diagnostics(
    models: Sequence[ParamVector], spec: MlpSpec, test_data: Dataset
) -> BvclDiagnostics:
    """Prediction variance/covariance across models plus pool locality.

    Predictions are per-class softmax probabilities.  At each test point
    the deviations are taken from the across-model mean; variance averages
    squared deviations, covariance averages products over ordered model
    pairs.  Locality is the largest distance of any model from the pool's
    uniform average.
    """
    n_models = len(models)
    if n_models < 2:
        raise ValueError(f"bvcl_diagnostics needs >= 2 models, got {n_models}")
    preds = np.stack([predict_proba(m, spec, test_data) for m in models])  # (N, points, classes)
    dev = preds - preds.mean(axis=0, keepdims=True)
    sq = np.sum(dev * dev, axis=0)  # per (point, class)
    variance = float(np.mean(sq / n_models))
    pair_sum = np.sum(dev, axis=0) ** 2 - sq  # sum over ordered pairs i != j
    covariance = float(np.mean(pair_sum / (n_models * (n_models - 1))))
    center = uniform_average(models)
    locality = max(l2_distance(m, center) for m in models)
    return BvclDiagnostics(variance=variance, covariance=covariance, locality=locality)


def ensemble_variance_split(preds: np.ndarray) -> tuple[float, float, float]:
    """Moments of replicated member predictions, shape (draws, members, ...).

    Returns (variance of the member-mean, mean member variance, mean
    pairwise covariance), all over the draws axis with matching centering,
    so that var_of_mean == var / N + (N - 1) / N * cov holds exactly.
    """
    preds = np.asarray(preds, dtype=np.float64)
    if preds.ndim < 2 or preds.shape[0] < 2 or preds.shape[1] < 2:
        raise ValueError("need shape (draws >= 2, members >= 2, ...)")
    n_members = preds.shape[1]
    member_mean = preds.mean(axis=1)
    var_of_mean = float(np.mean(member_mean.var(axis=0)))
    dev = preds - preds.mean(axis=0, keepdims=True)
    member_var = float(np.mean(dev * dev))
    pair = np.sum(dev, axis=1) ** 2 - np.sum(dev * dev, axis=1)
    covariance = float(np.mean(pair.mean(axis=0) / (n_members * (n_members - 1))))
    return var_of_mean, member_var, covariance


# ---------------------------------------------------------------------------
# Sharpness: dominant Hessian eigenvalue by power iteration on
# finite-difference Hessian-vector products.
# ---------------------------------------------------------------------------


def _fd_hvp(
    grad_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, v: np.ndarray
) -> np.ndarray:
    eps = 1e-4 * (1.0 + float(np.linalg.norm(x))) / float(np.linalg.norm(v))
    return (grad_fn(x + eps * v) - grad_fn(x - eps * v)) / (2.0 * eps)


def top_hessian_eigenvalue_from_grad(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iters: int,
    rng: np.random.Generator,
) -> float:
    """Power iteration on the FD Hessian at ``x``; returns the Rayleigh quotient.

    A degenerate probe (Hessian-vector product vanishes) is reseeded once;
    a second failure raises.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    x = np.asarray(x, dtype=np.float64)
    for attempt in range(2):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        eig = 0.0
        degenerate = False
        for _ in range(iters):
            hv = _fd_hvp(grad_fn, x, v)
            norm = float(np.linalg.norm(hv))
            if norm < 1e-30 or not np.isfinite(norm):
                degenerate = True
                break
            eig = float(np.dot(v, hv))
            v = hv / norm
        if not degenerate:
            return eig
    raise RuntimeError("power iteration degenerate: Hessian-vector product vanished")


@np.errstate(over="ignore", invalid="ignore")
def hessian_top_eig(
    params: ParamVector,
    spec: MlpSpec,
    data: Dataset,
    iters: int,
    seed: int,
    batch_size: int = 64,
) -> float:
    """Median over dataset batches of the dominant Hessian eigenvalue."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    kernel = Kernel(spec, data, params.values.copy())
    rng = np.random.default_rng(seed)
    n_batches = max(1, math.ceil(data.n / batch_size))
    eigs = []
    for chunk in np.array_split(rng.permutation(data.n), n_batches):
        features, labels = data.features[chunk], data.labels[chunk]

        def grad_fn(point: np.ndarray) -> np.ndarray:
            np.copyto(kernel.x, _check_finite(point))
            kernel(features, labels)
            # A copy: ``_fd_hvp`` holds one gradient while taking the next.
            return _check_finite(kernel.grad).copy()

        eigs.append(
            top_hessian_eigenvalue_from_grad(grad_fn, params.values, iters, rng)
        )
    return float(np.median(eigs))


def write_diagnostics(path, entries: dict) -> None:
    """Write a ``key: value`` per-line report."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}: {format(value, '.17g')}\n")
            else:
                fh.write(f"{key}: {value}\n")
