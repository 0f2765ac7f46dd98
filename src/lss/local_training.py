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

Both trainers, and every round's clients, run one engine, ``train_group``,
on the training kernel (``model.Kernel``), which checks its inputs once per
group.  It trains a group of G clients at once, a lone client being a
group of one: it holds the pools in one ``(members + 1, G, D)`` array
(row 0 the anchor), which it returns, and writes each step into fixed
``(G, D)`` buffers.  ``prepare_group`` allocates them all before the first
step and returns the step loop, which ``run_in_waves`` may run on a worker
thread, as it does sigma's clients (``lockstep_workers`` at a time).
The steps follow the float order of the reference functions
(``lss_regularized_grad``, ``fedprox_loss_and_grad``, ``axpy``), so
results are bit-identical to them whatever the group.
``lockstep_groups`` forms the groups: every client, ordered by size, in
the fewest groups whose rows fit ``LOCKSTEP_FLOATS``.  Each step runs one
soup step on all the group's rows and one kernel call on all its batches
(``_group_batches``): each client keeps its own batch stream, whose batch
sizes follow from its dataset's size alone.  The kernel runs the matmuls
and the bias-gradient sums once per run of consecutive clients whose
batches have one size, and every other op once on all the step's rows, so
no batch is padded.  Each client draws from its own random streams (a
member phase draws the group's coefficients as one block,
``_coeff_rows``), and each of its pool distances is checked
(``_unit_rows``).  Finiteness is checked at the end of each member phase:
no update turns a non-finite entry finite.
"""

from __future__ import annotations

import os
import threading
from functools import partial
from itertools import combinations, count, groupby
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import COEFF_MODES, LocalConfig  # COEFF_MODES is re-exported
from .data import Dataset
from .model import Kernel, MlpSpec, loss_and_grad
from .params import ParamVector, l2_distance, uniform_average, weighted_average


def sample_interp_coeffs(
    pool_size: int, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Interpolation coefficients on the simplex.

    ``uniform_random`` draws i.i.d. U(0,1) values and normalizes them;
    ``active_only`` puts all weight on the last (trainable) member and
    consumes no randomness.
    """
    return _coeff_rows(pool_size, 1, mode, [rng])[0, 0]


def _coeff_rows(
    pool_size: int, steps: int, mode: str, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """``steps`` rows of coefficients for each generator, shape (len(rngs),
    steps, pool_size), from one call to each generator, normalized at once.
    Row t of block g is bit for bit the t-th of ``steps`` one-row draws from
    ``rngs[g]``, so a member phase may draw a group's blocks at once.  The
    draws are U[0, 1) values from ``rng.random``, the bits of
    ``rng.uniform(0.0, 1.0)`` at under half its cost a call."""
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    if mode == "active_only":
        coeffs = np.zeros((len(rngs), steps, pool_size))
        coeffs[..., -1] = 1.0
        return coeffs
    if mode != "uniform_random":
        raise ValueError(f"unknown coeff mode {mode!r}")
    u = np.stack([rng.random((steps, pool_size)) for rng in rngs])
    total = np.add.reduce(u, axis=-1, keepdims=True)
    if np.minimum.reduce(total, axis=None, initial=1.0) == 0.0:
        # astronomically unlikely; keep the simplex guarantee
        zero = total[..., 0] == 0.0
        u[zero], total[zero] = 1.0, pool_size
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
    batch: Dataset,
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


def _batches(
    data: Dataset, batch_size: int, rng: np.random.Generator
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Endless without-replacement minibatches as unchecked ``(features, labels)``.

    Each epoch draws a fresh permutation when its first batch is taken.
    Clients smaller than one batch always yield their whole dataset.
    """
    if data.n <= batch_size:
        while True:
            yield data.features, data.labels
    for chunk in _batch_rows(data.n, batch_size, rng):
        yield data.features[chunk], data.labels[chunk]


def _batch_rows(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The row indices of ``_batches``' minibatches of a dataset of more than
    ``batch_size`` rows, batch by batch."""
    while True:
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            yield order[lo : lo + batch_size]


def _stream(seed: int, child: int) -> np.random.Generator:
    """A client's batch (``child`` 0) or coefficient (1) stream: child
    ``child`` of ``SeedSequence(seed).spawn(2)``, built alone, since a
    client that draws no batches needs only its coefficient stream.  The
    streams are independent so that the batch sequence is identical across
    strategies sharing a seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(child,)))


class LocalTrace:
    """A finished soup's pool: a read-only view of its ``(members + 1, D)``
    rows, anchor first, and its members and geometry on demand."""

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        self.rows = rows.view()
        self.rows.setflags(write=False)

    @property
    def pool_members(self) -> tuple[ParamVector, ...]:
        return tuple(ParamVector._wrap(row) for row in self.rows)

    @property
    def anchor_distance(self) -> float:
        """Distance from the anchor to the uploaded pool average."""
        members = self.pool_members
        return l2_distance(uniform_average(members), members[0])

    @property
    def pool_mean_pairwise_distance(self) -> float:
        return mean_pairwise_distance(self.pool_members)


# The floats that the rows and buffers of one lockstep group may hold.  A
# client holds about (members + 4)·D of them (see ``train_group``), so a group
# holds 5 clients of four members at D = 2,762, 110 of three at D = 170,
# and one at D = 101,386.  A group's rows add to the peak RSS: groups of 10
# at D = 2,762 raised a 20-client run's peak by about 7%, groups of 5 by 3%,
# for about the same speed.
LOCKSTEP_FLOATS = 1 << 17


def _clients_per_group(dim: int, members: int) -> int:
    """Clients of ``members`` pool members on ``dim`` weights that one
    group holds under ``LOCKSTEP_FLOATS``: each holds its pool with the
    anchor, its interpolation, its gradient and its distance sum."""
    return max(1, LOCKSTEP_FLOATS // ((members + 4) * dim))


def lockstep_groups(datasets: Sequence[Dataset], dim: int, members: int) -> list[list[int]]:
    """The clients' indices in training groups: all clients ordered by
    ``(size, index)``, cut into the fewest groups that
    ``_clients_per_group`` allows, of near-equal count."""
    if not datasets:
        return []
    order = sorted(range(len(datasets)), key=lambda i: (datasets[i].n, i))
    groups = -(-len(order) // _clients_per_group(dim, members))
    cuts = [len(order) * k // groups for k in range(groups + 1)]
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def lockstep_workers(units: int, dim: int) -> int:
    """The threads that run ``units`` independent units on ``dim`` weights
    at once (a round's lockstep groups, sigma's clients, the Hessian's
    probes): min(units, usable cores // BLAS threads) once ``dim`` reaches
    half of ``LOCKSTEP_FLOATS``, where every group is one client, else 1,
    which runs the units one by one in the calling thread.

    A narrower client's step is mostly small ops that hold the GIL: on two
    threads, single-client LSS groups at D = 13,354 trained slower (4-client
    rounds 0.39-0.62 s against 0.62-0.73 s), and so did ``lss-mid``'s
    groups of five at D = 2,762 (0.53-0.57 s against 0.56-0.85 s);
    proximal ones at D = 67,210 trained faster (0.34-0.43 s against
    0.28-0.33 s).  BLAS threads are read from ``OPENBLAS_NUM_THREADS``,
    else ``OMP_NUM_THREADS``; with neither set BLAS takes every core, and
    threaded groups made ``fedprox-wide`` rounds slower (0.52-0.60 s
    against 0.72-0.99 s), so the units run one by one."""
    if units < 2 or dim < LOCKSTEP_FLOATS // 2:
        return 1
    pin = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    try:
        blas = int(pin)
    except (TypeError, ValueError):  # unset, or not a count
        return 1
    if blas < 1:  # 0 leaves BLAS its default, every core
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(units, (cores or 1) // blas))


class _Worker(threading.Thread):
    """A started thread running one unit of work: a lockstep group's step
    loop, a sigma client's draws or a Hessian probe.  ``outcome()`` joins
    it, then returns (and lets go of) what the unit returned, or raises
    what it raised."""

    def __init__(self, work):
        super().__init__(name="lss-lockstep-unit")
        self._work, self._result, self._failure = work, None, None
        self.start()

    def run(self) -> None:
        try:
            self._result = self._work()
        except BaseException as exc:  # re-raised by the dispatching thread
            self._failure = exc
        finally:
            del self._work  # frees the unit's buffers but for what it returned

    def outcome(self):
        self.join()
        if self._failure is not None:
            raise self._failure
        result, self._result = self._result, None
        return result


def run_at_once(units: Sequence[Callable[[], object]]) -> list:
    """What each of ``units`` returns, in order, each run on a thread of its
    own, all at once; a lone unit runs in this thread.  The caller allocates
    the units' buffers.  A unit that raised raises its error, the first in
    unit order, once every thread started here has been joined."""
    if len(units) == 1:
        return [units[0]()]
    workers: list[_Worker] = []
    try:
        for unit in units:
            workers.append(_Worker(unit))
        return [worker.outcome() for worker in workers]
    finally:
        for worker in workers:
            worker.join()


def run_in_waves(prepares: Sequence[Callable], workers: int, finish: Callable) -> None:
    """Calls ``prepares`` in this thread, in order, ``workers`` at a time,
    which allocates their units' buffers (a preparation may return None: no
    unit), runs each wave's units at once (``run_at_once``) and hands their
    results to ``finish`` in order before the next wave is prepared: a
    group's pools held across the next group raised the peak RSS of a run
    at D = 101,386 by 3 MB.  A failed preparation raises once the units
    before it have run and been finished, unless one of them failed: that
    error comes first."""
    for lo in range(0, len(prepares), workers):
        units, failure = [], None
        for prepare in prepares[lo : lo + workers]:
            try:
                unit = prepare()
            except Exception as exc:  # raised once the units before it have run
                failure = exc
                break
            if unit is not None:
                units.append(unit)
        results = run_at_once(units)
        units = unit = None  # the wave's buffers go as their results are finished
        while results:
            finish(results.pop(0))
        if failure is not None:
            raise failure


def _average(rows: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The uniform average of ``rows`` along its first axis into ``out``,
    in ``uniform_average``'s order: each term scaled, then added left to
    right."""
    w = 1.0 / len(rows)
    np.multiply(rows[0], w, out=out)
    for row in rows[1:]:
        out += np.multiply(row, w, out=tmp)
    return out


def _group_batches(
    datasets: Sequence[Dataset], batch_size: int, seeds: Sequence[int]
) -> Iterator[tuple[list[tuple[int, np.ndarray]], np.ndarray]]:
    """Endless: each step's kernel call ``(runs, labels)`` for a group.  A
    run ``(lo, features)`` holds the batches of clients ``lo`` to ``lo + g -
    1``, ``features`` shaped ``(g, n, input_dim)``, and ``labels`` the label
    of each of the step's rows, in run order.  Client ``g`` takes the
    batches of its own ``_batches`` stream on ``_stream(seeds[g], 0)``,
    whose sizes follow from its dataset's size alone, so a run of
    consecutive clients of one size takes batches of one size at every
    step; a run in the call holds such a run, or consecutive ones whose
    batches have one size at that step.  The runs of a step differ in
    size: they are never padded to a common row count, since a padded stack
    does not give each client the bits it gets alone.

    Each step's batches lie one after another in one features block and
    one label vector, of ``_step_rows`` rows, allocated on the call, before
    the first step.  A batch drawn from a stream is gathered straight
    into them; a client within one batch takes its whole dataset every
    step, so its rows are written again only when they move."""
    # (lo, hi, sizes): each run of one dataset size and its batch sizes over an epoch
    runs, lo = [], 0
    for n, run in groupby(datasets, key=lambda d: d.n):
        hi = lo + len(list(run))
        full, tail = divmod(n, batch_size)
        sizes = (n,) if n <= batch_size else (batch_size,) * full + ((tail,) if tail else ())
        runs.append((lo, hi, sizes))
        lo = hi
    streams = {
        g: _batch_rows(datasets[g].n, batch_size, _stream(seeds[g], 0))
        for g in range(len(datasets)) if datasets[g].n > batch_size
    }
    rows = _step_rows(datasets, batch_size)
    features = np.empty((rows, datasets[0].input_dim))
    labels = np.empty(rows, dtype=np.int64)
    return _steps(datasets, runs, streams, features, labels)


def _step_rows(datasets: Sequence[Dataset], batch_size: int) -> int:
    """The rows of a group's largest step, its first: each client's batch
    holds at most min(n, batch_size) rows."""
    return sum(min(d.n, batch_size) for d in datasets)


def _steps(
    datasets: Sequence[Dataset], runs: list, streams: dict, features: np.ndarray,
    labels: np.ndarray,
) -> Iterator[tuple[list[tuple[int, np.ndarray]], np.ndarray]]:
    """``_group_batches``' steps, written into ``features`` and ``labels``."""
    placed = {}  # the row where each run within one batch was written last step
    for step in count():
        calls, end = [], 0
        for size, call in groupby(runs, key=lambda run: run[2][step % len(run[2])]):
            start = end
            for a, b, _ in call:
                if a in streams:
                    for g in range(a, b):
                        # ``clip`` mode writes straight into ``out``, which
                        # ``raise`` would buffer; the indices are all in range.
                        chunk = next(streams[g])
                        datasets[g].features.take(chunk, 0, features[end : end + size], "clip")
                        datasets[g].labels.take(chunk, 0, labels[end : end + size], "clip")
                        end += size
                elif placed.get(a) == end:
                    end += (b - a) * size
                else:
                    placed[a] = end
                    for d in datasets[a:b]:
                        features[end : end + size], labels[end : end + size] = d.features, d.labels
                        end += size
            view = features[start:end].reshape(-1, size, features.shape[1])
            calls.append((b - view.shape[0], view))  # from its first client
        yield calls, labels[:end]


def train_group(
    anchor: ParamVector, spec: MlpSpec, datasets: Sequence[Dataset], config: LocalConfig,
    seeds: Sequence[int], soup: bool,
) -> np.ndarray:
    """The ``(members + 1, G, D)`` pools of clients trained in lockstep,
    row ``[k, g]`` member ``k`` of client ``g`` in the order given (row 0
    the anchor); client ``g`` trains from ``seeds[g]`` and gets the pool it
    gets alone, bit for bit; ``seeds`` holds one seed per client.

    With ``soup`` it trains ``num_pool_models`` members on the regularized
    interpolation objective, otherwise one member by proximal SGD.  Row
    ``g`` of every ``(G, D)`` buffer is client ``g``'s, each client keeps
    its own random streams, and its distances are checked one by one.  Each
    step runs the soup step once on all rows, and one kernel call on the
    step's batches (``_group_batches``), which writes every row of the
    gradients.  It runs ``prepare_group``'s step loop in the calling thread.
    """
    return prepare_group(anchor, spec, datasets, config, seeds, soup)[1]()


def prepare_group(
    anchor: ParamVector, spec: MlpSpec, datasets: Sequence[Dataset], config: LocalConfig,
    seeds: Sequence[int], soup: bool,
) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """``train_group``'s pools before training, row 0 the anchor, and its
    step loop, which trains the members into them in place, returns them,
    and raises ``ValueError`` on a non-finite member or distance.  Every
    large buffer of the loop is allocated here, in the calling thread: the
    pool rows, the ``(G, D)`` step buffers, the kernel's gradient and its
    scratch, sized to the group's largest step, and the step's features
    block.  So the loop may run in another thread without growing that
    thread's heap: allocated in two worker threads, they raised the peak
    RSS of a run at D = 101,386 to 68-71 MB, against 56 MB allocated here."""
    members = config.num_pool_models if soup else 1
    size, dim = len(datasets), anchor.dim
    rows = np.empty((members + 1, size, dim))  # rows[k, g]: member k of client g
    rows[0] = anchor.values
    # The kernel reads the interpolations or the members, both (G, D), and
    # owns the gradients.  A soup's interpolation buffer is its scratch
    # outside the kernel call, and its gradient buffer is scratch until that
    # call; proximal SGD, whose kernel reads the member, has a scratch
    # buffer of its own.  One allocation per buffer: one (2, D) block for
    # tmp and push raised the peak RSS of a run with D = 101k by about 1 MB.
    x = np.empty((size, dim)) if soup else rows[1]
    # checks every input once, and sizes its scratch to the first step, the largest
    kernel = Kernel(spec, datasets, x, _step_rows(datasets, config.batch_size))
    tmp = x if soup else np.empty((size, dim))
    push = np.empty((size, dim)) if soup else None
    batches = _group_batches(datasets, config.batch_size, seeds)
    coeff_rngs = [_stream(seed, 1) for seed in seeds]
    return rows, partial(_train_steps, rows, kernel, tmp, push, batches, coeff_rngs, config, soup)


# A diverging member overflows in the loop; its distances and its final
# weights are checked, so numpy's own warnings would only repeat that.
@np.errstate(over="ignore", invalid="ignore")
def _train_steps(
    rows: np.ndarray, kernel: Kernel, tmp: np.ndarray, push: np.ndarray | None,
    batches: Iterator, coeff_rngs: list[np.random.Generator], config: LocalConfig, soup: bool,
) -> np.ndarray:
    """``prepare_group``'s step loop on its buffers; returns ``rows``."""
    x, grad = kernel.x, kernel.grad
    lam_a, lam_d, mu = config.lambda_a, config.lambda_d, config.mu_prox
    for m in range(1, len(rows)):
        active = rows[m]
        _average(rows[:m], active, tmp)  # the pool so far
        if soup:
            # coeffs[t, k]: member k's coefficient at step t, a (G, 1) column.
            # Contiguous: a strided column slowed each multiply by about 5%.
            coeffs = _coeff_rows(m + 1, config.tau, config.coeff_mode, coeff_rngs)
            coeffs = np.ascontiguousarray(coeffs.transpose(1, 2, 0))[..., None]
        for t in range(config.tau):
            if soup:
                step = coeffs[t]
                np.multiply(rows[0], step[0], out=x)
                for k in range(1, m + 1):
                    x += np.multiply(rows[k], step[k], out=grad)
            kernel(*next(batches))
            if soup:
                grad *= step[m]
                if lam_a != 0.0 or lam_d != 0.0:
                    # Unit vectors from the frozen members (row 0 the
                    # anchor) to the active one, summed from zeros.
                    push.fill(0.0)
                    for k in range(m if lam_d != 0.0 else 1):
                        np.subtract(active, rows[k], out=tmp)
                        _unit_rows(tmp, config.dist_epsilon, m, k)
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
        if not np.isfinite(active).all():
            raise ValueError("operation produced non-finite entries")
    return rows


def _unit_rows(diffs: np.ndarray, eps: float, m: int, k: int) -> None:
    """Scales each row of ``diffs`` (active member ``m`` minus member ``k``,
    one row per client) to unit length, with ``eps`` floor on the norm, in
    the bits of one ``sqrt(dot(row, row))`` per row."""
    dists = np.sqrt(np.vecdot(diffs, diffs))
    bad = ~np.isfinite(dists)
    if bad.any():
        dist = float(dists[bad.argmax()])
        raise ValueError(f"soup member {m} diverged: its distance to member {k} is {dist}")
    diffs /= np.maximum(dists, eps, out=dists)[:, None]


def lss_local_train(
    anchor: ParamVector,
    spec: MlpSpec,
    client_data: Dataset,
    config: LocalConfig,
    seed: int,
    pool: np.ndarray | None = None,
) -> tuple[ParamVector, LocalTrace]:
    """Sequential soup training from ``anchor``; returns the pool average.

    For each of ``num_pool_models`` phases: a new member is initialized to
    the uniform average of the current pool and trained for ``tau`` steps
    of the regularized interpolation objective.  Fresh interpolation
    coefficients are sampled every step.  Deterministic given ``seed``.

    Given ``pool``, the ``(members + 1, D)`` rows, anchor first, that the
    client got in a lockstep group (``train_group``: the pool it gets
    alone), the client is not trained again: the upload and trace are
    formed from those rows.  ``federation.train_clients`` forms every soup
    upload this way, so that this one function returns them all.
    """
    if pool is None:
        pool = train_group(anchor, spec, [client_data], config, [seed], soup=True)[:, 0]
    elif pool.shape != (config.num_pool_models + 1, anchor.dim):
        raise ValueError(
            f"a pool of {config.num_pool_models} members on {anchor.dim} weights "
            f"has shape {(config.num_pool_models + 1, anchor.dim)}, got {pool.shape}"
        )
    upload = _average(pool, np.empty(anchor.dim), np.empty(anchor.dim))
    return ParamVector._wrap(upload), LocalTrace(pool)


def fedprox_loss_and_grad(
    params: ParamVector,
    anchor: ParamVector,
    spec: MlpSpec,
    batch: Dataset,
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
    client_data: Dataset,
    config: LocalConfig,
    seed: int,
) -> ParamVector:
    """SGD on the proximal objective; plain minibatch SGD when ``mu_prox`` is 0."""
    pools = train_group(anchor, spec, [client_data], config, [seed], soup=False)
    return ParamVector._wrap(pools[-1, 0].copy())  # a copy frees the anchor row
