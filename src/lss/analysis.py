"""Convergence-theory calculators and loss-landscape diagnostics.

The calculators evaluate the closed-form convergence bound for convex
local objectives, the matching learning-rate choice, and the ceiling on
local steps under a fixed gradient-computation budget.  The empirical side
estimates the constants those formulas consume (gradient noise, local/
global gradient gap) and probes landscape sharpness via finite-difference
Hessian-vector products.  The sigma and Hessian estimators run the
training kernel (``model.Kernel``) on stacked ``(G, D)`` weights, its
scratch sized once to their largest call, checking their inputs once per
call, in lockstep waves under one float budget: sigma makes one kernel
call per wave of a client's minibatch draws, and the Hessian one stacked
call per power iteration of a wave of batches, whose probes run through
one power iteration (``_power_iteration``).  On a wide model with BLAS
pinned, sigma's clients (through ``local_training.run_in_waves``) and the
Hessian's probes run ``local_training.lockstep_workers`` at once, one per
thread, inside the one estimator call; the calling thread allocates every
buffer, and the floats, reseeds and errors are those of running them one
by one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .federation import data_proportional_weights
from .local_training import lockstep_workers, run_at_once, run_in_waves
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


def _all_finite(arr: np.ndarray) -> bool:
    # A finite dot product proves every entry finite at a fraction of the
    # cost of the entrywise scan, which then runs only on an overflow.
    return math.isfinite(arr.dot(arr)) or bool(np.isfinite(arr).all())


def _check_finite(arr: np.ndarray) -> None:
    if not _all_finite(arr):
        raise ValueError(_NON_FINITE)


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
    keep_grads: list | None = None,
) -> float:
    """Max over clients of the local/global full-batch gradient gap at ``params``.

    The global gradient weights clients by sample count, as the server does.
    Sampled only at ``params``, this is a lower bound on the true constant.
    Given a list, ``keep_grads`` receives each client's full-batch gradient,
    in order: the ``full_grads`` of ``estimate_sigma``.
    """
    if len(client_datasets) == 0:
        raise ValueError("estimate_zeta: no client datasets")
    grads = [loss_and_grad(params, spec, d)[1] for d in client_datasets]
    global_grad = weighted_average(grads, data_proportional_weights(client_datasets)).values
    gaps = [float(np.linalg.norm(g.values - global_grad)) for g in grads]
    if keep_grads is not None:
        keep_grads.extend(g.values for g in grads)
    return max(gaps)


@np.errstate(over="ignore", invalid="ignore")
def estimate_sigma(
    params: ParamVector,
    spec: MlpSpec,
    client_datasets: Sequence[Dataset],
    batch_size: int,
    num_draws: int,
    seeds: Sequence[int],
    full_grads: Sequence[np.ndarray] | None = None,
) -> float:
    """Max over clients of the root-mean-square minibatch gradient noise
    around the client's full-batch gradient; client i draws its minibatches
    with ``seeds[i]``, and a client no larger than one batch has none.

    ``full_grads``, when given, holds each client's full-batch gradient at
    ``params`` (``estimate_zeta``'s ``keep_grads``); otherwise each is taken
    here, with ``loss_and_grad``.  A client's minibatches are drawn first, in
    order, and their gradients taken in lockstep waves of up to
    ``WAVE_FLOATS`` (``_wave_size``): one kernel call per wave of W draws,
    stacked as one run on the weights broadcast to W rows.  Each draw's
    squared distance from the full gradient is then added row by row, in
    draw order, so a client's noise is the float of taking its draws one at
    a time.

    The clients run in waves of ``lockstep_workers`` (``run_in_waves``),
    each on a thread of its own for a wide model with BLAS pinned.  This
    thread allocates every buffer, client by client, before the wave's
    draws start; a failing client raises the first error in client order,
    once the wave's threads have been joined."""
    if num_draws < 2:
        raise ValueError(f"num_draws must be >= 2, got {num_draws}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if len(client_datasets) == 0:
        raise ValueError("estimate_sigma: no client datasets")
    if len(seeds) != len(client_datasets):
        raise ValueError(f"{len(seeds)} seeds for {len(client_datasets)} clients")
    if full_grads is not None and len(full_grads) != len(client_datasets):
        raise ValueError(f"{len(full_grads)} full gradients for {len(client_datasets)} clients")
    wave = min(num_draws, _wave_size(spec, 1, batch_size))
    x = np.broadcast_to(params.values, (wave, params.dim))  # a view, not W copies

    def prepare(i: int) -> Callable[[], float] | None:
        """Client i's draws, or None for a client within one batch."""
        data = client_datasets[i]
        if batch_size >= data.n:
            Kernel(spec, [data], x, 0)  # checks the inputs; no kernel call
            return None
        if full_grads is None:
            full_grad = loss_and_grad(params, spec, data)[1].values
        else:
            full_grad = full_grads[i]
        kernel = Kernel(spec, [data], x, wave * batch_size)  # checks the inputs
        _check_finite(full_grad)
        rng = np.random.default_rng(seeds[i])
        draws = np.stack(
            [rng.choice(data.n, size=batch_size, replace=False) for _ in range(num_draws)]
        )
        features = np.empty((wave, batch_size, spec.input_dim))
        labels = np.empty((wave, batch_size), dtype=data.labels.dtype)
        return partial(_sigma_draws, kernel, data, draws, features, labels, full_grad)

    noise: list[float] = []  # a client within one batch has none
    run_in_waves(
        [partial(prepare, i) for i in range(len(client_datasets))],
        lockstep_workers(len(client_datasets), params.dim), noise.append,
    )
    return max(noise, default=0.0)


@np.errstate(over="ignore", invalid="ignore")
def _sigma_draws(
    kernel: Kernel, data: Dataset, draws: np.ndarray, features: np.ndarray,
    labels: np.ndarray, full_grad: np.ndarray,
) -> float:
    """A client's noise from its ``draws``, one minibatch a row, in waves
    of the kernel's rows, each gathered into ``features`` and ``labels``."""
    wave, acc = len(kernel.x), 0.0
    for lo in range(0, len(draws), wave):
        rows = draws[lo : lo + wave]
        batch, batch_labels = features[: len(rows)], labels[: len(rows)]
        # "clip" writes straight into the buffers ("raise" buffers its
        # output); the rows are in range.
        np.take(data.features, rows, axis=0, out=batch, mode="clip")
        np.take(data.labels, rows, out=batch_labels, mode="clip")
        kernel([(0, batch)], batch_labels)
        diffs = kernel.grad[: len(rows)]
        _check_finite(diffs.ravel())
        np.subtract(diffs, full_grad, out=diffs)
        for diff in diffs:
            acc += float(np.dot(diff, diff))
    return math.sqrt(acc / len(draws))


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

# How a wave's probes end: the Rayleigh quotients of the probes that
# finished before the first that failed, in probe order, and that probe's
# failure, "degenerate" or "error" (None when every probe finished).
Outcome = tuple[list[float], str | None]
# The wave of probes lo..hi-1 (see ``_power_iteration``), given lo: its end
# hi, and the function that runs the wave from ``(x, v, scale, iters)``, v
# the (hi - lo, D) block of its probes' unit start vectors.
Waves = Callable[[int], tuple[int, Callable[[np.ndarray, np.ndarray, float, int], Outcome]]]


def _power_iteration(
    waves: Waves, x: np.ndarray, count: int, iters: int, rng: np.random.Generator
) -> list[float]:
    """Rayleigh quotients of ``count`` power iterations on the FD Hessian at
    ``x``, one per probe, run a wave of probes at a time (``Waves``).

    Each probe gets the floats and the draws from ``rng`` that it gets
    alone, probing one after the other: a wave's start vectors are drawn
    here, in probe order, and its outcome read in probe order.  A probe
    whose Hessian-vector product vanishes (or is not finite) is reseeded
    once from the generator state after its start vector and then restarts
    the wave, and a second failure raises.  A probe with a non-finite point
    or gradient raises ``ValueError`` once the probes before it have
    finished.
    """
    scale = 1e-4 * (1.0 + float(np.linalg.norm(x)))
    eigs: list[float] = []
    reseeded = -1  # the probe on its second start vector
    lo = 0
    while lo < count:
        run = v = row = None  # the last wave's buffers go first
        hi, run = waves(lo)
        v = np.empty((hi - lo, x.size))
        states = []
        for row in v:
            rng.standard_normal(out=row)  # in place, the bits of standard_normal(x.size)
            states.append(rng.bit_generator.state)
            row /= math.sqrt(row.dot(row))
        done, event = run(x, v, scale, iters)
        eigs += done
        if event is None:
            lo = hi
            continue
        # Back to where probing one batch at a time stands at this probe.
        rng.bit_generator.state = states[len(done)]
        if event == "error":
            raise ValueError(_NON_FINITE)
        if reseeded == lo + len(done):
            raise RuntimeError("power iteration degenerate: Hessian-vector product vanished")
        lo = reseeded = lo + len(done)
    return eigs


def _lockstep(
    points: np.ndarray, gradients: Callable[[], np.ndarray],
    x: np.ndarray, v: np.ndarray, scale: float, iters: int,
) -> Outcome:
    """A wave's probes in lockstep: ``points``, a ``(2, probes, D)`` buffer,
    receives the points ``x + eps * v`` (row 0) and ``x - eps * v`` (row 1)
    of the probes still running, and ``gradients()`` returns their
    gradients, shaped alike, one call per iteration.  The reductions run
    row by row, as for each probe alone."""
    size = len(v)
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
        ok = _finite_probes(points, grads, active)
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
    return eig[:active], event


def _finite_probes(points: np.ndarray, grads: np.ndarray, active: int) -> int:
    """How many of the probes 0..active-1, from the first, have finite
    points and gradients."""
    for arr in (points, grads):
        flat = arr[:, :active].ravel()  # a view unless probes have stopped
        # A finite dot product proves every entry finite (see _all_finite).
        if not math.isfinite(flat.dot(flat)):
            break
    else:
        return active
    finite = np.isfinite(points[:, :active]).all(axis=(0, 2))
    finite &= np.isfinite(grads[:, :active]).all(axis=(0, 2))
    return active if finite.all() else int(np.argmin(finite))


def _threaded(
    probes: list[tuple], x: np.ndarray, v: np.ndarray, scale: float, iters: int
) -> Outcome:
    """A wave's probes, each a ``_probe`` on a thread of its own (in this
    thread when it is alone), read in probe order."""
    ends = run_at_once(
        [partial(_probe, *probe, x, row, scale, iters) for probe, row in zip(probes, v)]
    )
    for r, end in enumerate(ends):
        if isinstance(end, str):
            return ends[:r], end
    return ends, None


@np.errstate(over="ignore", invalid="ignore")
def _probe(
    kernel: Kernel, runs: list, labels: np.ndarray, plus: np.ndarray,
    x: np.ndarray, v: np.ndarray, scale: float, iters: int,
) -> float | str:
    """One probe's power iteration from ``v`` on the one-point ``kernel``:
    each iteration takes the gradient at ``x + eps * v``, keeps it in
    ``plus``, then takes the one at ``x - eps * v``, and forms the
    Hessian-vector product in ``plus``.  Returns the Rayleigh quotient, or
    the probe's failure as ``_lockstep`` finds it, in its bits."""
    point, grad = kernel.x[0], kernel.grad[0]
    eig = 0.0
    for _ in range(iters):
        eps = scale / math.sqrt(v.dot(v))
        np.add(x, np.multiply(v, eps, out=point), out=point)
        kernel(runs, labels)
        if not (_all_finite(point) and _all_finite(grad)):
            return "error"
        np.copyto(plus, grad)
        np.subtract(x, np.multiply(v, eps, out=point), out=point)
        kernel(runs, labels)
        if not (_all_finite(point) and _all_finite(grad)):
            return "error"
        hv = np.subtract(plus, grad, out=plus)
        hv /= 2.0 * eps
        norm = math.sqrt(hv.dot(hv))
        if norm < 1e-30 or not math.isfinite(norm):
            return "degenerate"
        eig = float(v.dot(hv))
        np.divide(hv, norm, out=v)
    return eig


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
    points of a wave, with the eigenvalues of probing batch by batch.  A
    wide model's probes instead run ``lockstep_workers`` at once, each on a
    thread and a one-point kernel of its own, which this thread allocates,
    with the same eigenvalues."""
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    n_batches = max(1, math.ceil(data.n / batch_size))
    chunks = np.array_split(rng.permutation(data.n), n_batches)
    workers = lockstep_workers(n_batches, params.dim)
    kernel = None

    def waves(lo: int):
        nonlocal kernel
        if workers > 1:
            hi = min(n_batches, lo + workers)
            batches = [(data.features[c][None], data.labels[c]) for c in chunks[lo:hi]]
            probes = [
                # checks the inputs
                (Kernel(spec, [data], np.empty((1, params.dim)), len(labels)),
                 [(0, features)], labels, np.empty(params.dim))
                for features, labels in batches
            ]
            return hi, partial(_threaded, probes)
        n, hi = chunks[lo].size, lo + 1
        limit = min(n_batches, lo + _wave_size(spec, 5, 2 * n))
        while hi < limit and chunks[hi].size == n:
            hi += 1
        size = hi - lo
        # The batches go before the kernel's scratch: allocated after it, they
        # raised the peak RSS of a 100-client softmax run by 0.8 MB in some
        # heap layouts.
        rows = np.tile(np.concatenate(chunks[lo:hi]), 2)  # each batch at its + and - point
        features = data.features[rows].reshape(2 * size, n, -1)
        labels = data.labels[rows].reshape(2 * size, n)
        if kernel is None or kernel.x.shape[0] != 2 * size:
            kernel = None  # the last wave's buffers go first
            # checks the inputs; a later wave of this size has batches no larger
            kernel = Kernel(spec, [data], np.empty((2 * size, params.dim)), 2 * size * n)
        wave_kernel, grads = kernel, kernel.grad.reshape(2, size, -1)

        def gradients() -> np.ndarray:
            wave_kernel([(0, features)], labels)
            return grads

        return hi, partial(_lockstep, kernel.x.reshape(2, size, -1), gradients)

    eigs = sorted(_power_iteration(waves, params.values, n_batches, iters, rng))
    # np.median's float, without the import of numpy.ma that its first call
    # makes (1.35 MB of RSS in a run that has not imported it)
    mid = len(eigs) // 2
    return eigs[mid] if len(eigs) % 2 else (eigs[mid - 1] + eigs[mid]) / 2


def write_diagnostics(path, entries: dict) -> None:
    """Write a ``key: value`` per-line report."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                fh.write(f"{key}: {format(value, '.17g')}\n")
            else:
                fh.write(f"{key}: {value}\n")
