"""Convergence-theory calculators and loss-landscape diagnostics.

The calculators evaluate the closed-form convergence bound for convex
local objectives, the matching learning-rate choice, and the ceiling on
local steps under a fixed gradient-computation budget.  The empirical side
estimates the constants those formulas consume (gradient noise, local/
global gradient gap) and probes landscape sharpness via finite-difference
Hessian-vector products.  The sigma and Hessian estimators run the
training kernel (``model.Kernel``) on its fixed buffers, checking their
inputs once per call, in lockstep waves under one float budget: sigma
makes one kernel call per wave of minibatch draws, and the Hessian one
stacked call per power iteration of a wave of batches.
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


_NON_FINITE = "diagnostic produced non-finite entries"


def _check_finite(arr: np.ndarray) -> np.ndarray:
    # A finite dot product proves every entry finite at a fraction of the
    # cost of the entrywise scan, which then runs only on an overflow.
    if not math.isfinite(arr.dot(arr)) and not np.isfinite(arr).all():
        raise ValueError(_NON_FINITE)
    return arr


# The floats (8 bytes each, so 2 MiB) that one lockstep wave of Hessian
# probes or of sigma's minibatch draws may hold in its vectors, batch
# features and kernel temporaries.  The wave size follows from the model
# and the batch (``_wave_size``); a wave holds at least one item, so a wide
# MLP such as a 256-256 one on 128 features runs one item at a time.
WAVE_FLOATS = 1 << 18


def _wave_size(spec: MlpSpec, vectors: int, rows: int) -> int:
    """Items that one wave holds under ``WAVE_FLOATS``, an item holding
    ``vectors`` vectors of D floats and ``rows`` kernel rows.  A row holds
    its features and the kernel's temporaries: two blocks per hidden layer
    and three for the classes.  A Hessian probe of a batch holds five
    vectors (its iterate, two points, two gradients) and the batch's rows at
    each of its two points; a sigma draw holds its gradient and its batch's
    rows."""
    widths = spec.input_dim + 2 * sum(spec.hidden_dims) + 3 * spec.num_classes
    return max(1, WAVE_FLOATS // (vectors * spec.param_count() + rows * widths))


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
    """Root-mean-square minibatch gradient noise around the full gradient.

    The minibatches are drawn first, in order, and their gradients taken in
    lockstep waves of up to ``WAVE_FLOATS`` (``_wave_size``): one kernel
    call per wave of W draws, stacked as one run on the weights broadcast
    to W rows.  Each draw's squared distance from the full gradient is then
    added row by row, in draw order, so the result is the float of taking
    the draws one at a time."""
    if num_draws < 2:
        raise ValueError(f"num_draws must be >= 2, got {num_draws}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    wave = min(num_draws, _wave_size(spec, 1, batch_size))
    x = np.broadcast_to(params.values, (wave, params.dim))  # a view, not W copies
    kernel = Kernel(spec, client_data, x)
    if batch_size >= client_data.n:
        return 0.0
    features, labels = client_data.features, client_data.labels
    kernel([(0, features[None])], labels)
    full_grad = _check_finite(kernel.grad[0]).copy()
    rng = np.random.default_rng(seed)
    draws = np.stack(
        [rng.choice(client_data.n, size=batch_size, replace=False) for _ in range(num_draws)]
    )
    acc = 0.0
    for lo in range(0, num_draws, wave):
        rows = draws[lo : lo + wave]
        kernel([(0, features[rows])], labels[rows])
        diffs = kernel.grad[: len(rows)]
        _check_finite(diffs.ravel())
        np.subtract(diffs, full_grad, out=diffs)
        for diff in diffs:
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

# (hi, points, gradients) of the wave of probes lo..hi-1 (see
# ``_power_iteration``), given lo.
Waves = Callable[[int], tuple[int, np.ndarray, Callable[[], np.ndarray]]]


def _power_iteration(
    waves: Waves, x: np.ndarray, count: int, iters: int, rng: np.random.Generator,
    checked: bool = False,
) -> list[float]:
    """Rayleigh quotients of ``count`` power iterations on the FD Hessian at
    ``x``, one per probe, run in lockstep waves.

    ``waves(lo)`` gives the wave that starts at probe ``lo``: its end
    ``hi``, a ``(2, hi - lo, D)`` buffer that receives the points
    ``x + eps * v`` (row 0) and ``x - eps * v`` (row 1) of its probes, and
    a function that returns their gradients, shaped alike.  Each probe gets
    the floats and the draws from ``rng`` that it gets alone, probing one
    after the other: the reductions run row by row, a probe whose
    Hessian-vector product vanishes (or is not finite) is reseeded once
    from the generator state after its start vector and then restarts the
    wave, and a second failure raises.  With ``checked``, a probe with a
    non-finite point or gradient raises ``ValueError`` once the probes
    before it have finished.
    """
    scale = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    eigs: list[float] = []
    reseeded = -1  # the probe on its second start vector
    lo = 0
    while lo < count:
        points = gradients = v = None  # the last wave's buffers go first
        hi, points, gradients = waves(lo)
        size = hi - lo
        v = np.empty((size, x.size))
        states = []
        for row in v:
            row[:] = rng.standard_normal(x.size)
            states.append(rng.bit_generator.state)
            row /= math.sqrt(row.dot(row))
        eig, eps, norms = [0.0] * size, np.zeros(size), np.empty(size)
        active, event = size, None  # probes active..size-1 have stopped
        for _ in range(iters):
            if not active:
                break
            for r in range(active):
                eps[r] = scale / math.sqrt(v[r].dot(v[r]))
            step = np.multiply(v[:active], eps[:active, None], out=points[1, :active])
            np.add(x, step, out=points[0, :active])
            np.subtract(x, step, out=points[1, :active])
            grads = gradients()
            ok = _finite_probes(points, grads, active) if checked else active
            hv = np.subtract(grads[0, :ok], grads[1, :ok], out=grads[0, :ok])
            hv /= (2.0 * eps[:ok])[:, None]
            for r in range(ok):
                norm = math.sqrt(hv[r].dot(hv[r]))
                if norm < 1e-30 or not math.isfinite(norm):
                    active, event = r, "degenerate"
                    break
                eig[r], norms[r] = float(v[r].dot(hv[r])), norm
            else:
                if ok < active:
                    active, event = ok, "error"
            np.divide(hv[:active], norms[:active, None], out=v[:active])
        eigs += eig[:active]
        if event is None:
            lo = hi
            continue
        # Back to where probing one batch at a time stands at this probe.
        rng.bit_generator.state = states[active]
        if event == "error":
            raise ValueError(_NON_FINITE)
        if reseeded == lo + active:
            raise RuntimeError("power iteration degenerate: Hessian-vector product vanished")
        lo = reseeded = lo + active
    return eigs


def _finite_probes(points: np.ndarray, grads: np.ndarray, active: int) -> int:
    """How many of the probes 0..active-1, from the first, have finite
    points and gradients."""
    for arr in (points, grads):
        flat = arr[:, :active].ravel()  # a view unless probes have stopped
        # A finite dot product proves every entry finite (see _check_finite).
        if not math.isfinite(flat.dot(flat)):
            break
    else:
        return active
    finite = np.isfinite(points[:, :active]).all(axis=(0, 2))
    finite &= np.isfinite(grads[:, :active]).all(axis=(0, 2))
    return active if finite.all() else int(np.argmin(finite))


def top_hessian_eigenvalue_from_grad(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iters: int,
    rng: np.random.Generator,
) -> float:
    """Power iteration on the FD Hessian at ``x``; returns the Rayleigh quotient.

    A degenerate probe (Hessian-vector product vanishes) is reseeded once;
    a second failure raises.  This is the one-probe case of the lockstep
    engine that ``hessian_top_eig`` runs.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    x = np.asarray(x, dtype=np.float64)
    points, grads = np.empty((2, 1, x.size)), np.empty((2, 1, x.size))

    def gradients() -> np.ndarray:
        grads[0, 0] = grad_fn(points[0, 0])
        grads[1, 0] = grad_fn(points[1, 0])
        return grads

    return _power_iteration(lambda lo: (1, points, gradients), x, 1, iters, rng)[0]


@np.errstate(over="ignore", invalid="ignore")
def hessian_top_eig(
    params: ParamVector,
    spec: MlpSpec,
    data: Dataset,
    iters: int,
    seed: int,
    batch_size: int = 64,
) -> float:
    """Median over dataset batches of the dominant Hessian eigenvalue.

    The batches' probes run in lockstep waves of equal-size batches, up to
    ``WAVE_FLOATS``: one kernel call per iteration on the stacked
    points of a wave, with the eigenvalues of probing batch by batch."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    n_batches = max(1, math.ceil(data.n / batch_size))
    chunks = np.array_split(rng.permutation(data.n), n_batches)
    kernel = None

    def waves(lo: int):
        nonlocal kernel
        n, hi = chunks[lo].size, lo + 1
        limit = min(n_batches, lo + _wave_size(spec, 5, 2 * n))
        while hi < limit and chunks[hi].size == n:
            hi += 1
        size = hi - lo
        if kernel is None or kernel.x.shape[0] != 2 * size:
            kernel = None  # the last wave's buffers go first
            kernel = Kernel(spec, data, np.empty((2 * size, params.dim)))  # checks the inputs
        wave_kernel, grads = kernel, kernel.grad.reshape(2, size, -1)
        rows = np.tile(np.concatenate(chunks[lo:hi]), 2)  # each batch at its + and - point
        features = data.features[rows].reshape(2 * size, n, spec.input_dim)
        labels = data.labels[rows].reshape(2 * size, n)

        def gradients() -> np.ndarray:
            wave_kernel([(0, features)], labels)
            return grads

        return hi, kernel.x.reshape(2, size, -1), gradients

    eigs = _power_iteration(waves, params.values, n_batches, iters, rng, checked=True)
    return float(np.median(eigs))


def write_diagnostics(path, entries: dict) -> None:
    """Write a ``key: value`` per-line report."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}: {format(value, '.17g')}\n")
            else:
                fh.write(f"{key}: {value}\n")
