"""The diagnostics estimators against reference bodies written with the
public, checked calls: ``loss_and_grad`` on a fresh ``ParamVector`` and a
``Dataset.subset`` per batch.  The estimators in ``lss.analysis`` run the
training kernel on fixed buffers instead, and must return the same floats,
bit for bit.  The Hessian's reference probes one batch at a time with the
sequential power iteration of ``hessian_oracle``; ``hessian_top_eig``
probes its batches in lockstep waves, and ``estimate_sigma`` takes its
minibatch draws in lockstep waves."""

from __future__ import annotations

import math
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_oracle import top_hessian_eigenvalue_from_grad
from lss import analysis, local_training, model as model_module
from lss.analysis import estimate_sigma, estimate_zeta, hessian_top_eig
from lss.data import Dataset, gen_blobs
from lss.federation import data_proportional_weights
from lss.model import MlpSpec, init_params, loss_and_grad
from lss.params import ParamVector, weighted_average


def reference_zeta(params, spec, client_datasets):
    grads = [loss_and_grad(params, spec, d)[1] for d in client_datasets]
    global_grad = weighted_average(grads, data_proportional_weights(client_datasets)).values
    return max(float(np.linalg.norm(g.values - global_grad)) for g in grads)


def reference_sigma(params, spec, client_data, batch_size, num_draws, seed):
    if batch_size >= client_data.n:
        return 0.0
    full_grad = loss_and_grad(params, spec, client_data)[1].values
    rng = np.random.default_rng(seed)
    acc = 0.0
    for _ in range(num_draws):
        batch = client_data.subset(rng.choice(client_data.n, size=batch_size, replace=False))
        diff = loss_and_grad(params, spec, batch)[1].values - full_grad
        acc += float(np.dot(diff, diff))
    return math.sqrt(acc / num_draws)


def reference_hessian(params, spec, data, iters, seed, batch_size):
    rng = np.random.default_rng(seed)
    n_batches = max(1, math.ceil(data.n / batch_size))
    eigs = []
    for chunk in np.array_split(rng.permutation(data.n), n_batches):
        batch = data.subset(chunk)

        def grad_fn(x):
            return loss_and_grad(ParamVector(x), spec, batch)[1].values

        eigs.append(top_hessian_eigenvalue_from_grad(grad_fn, params.values, iters, rng))
    return float(np.median(eigs))


SPECS = {
    "relu-mlp": MlpSpec(input_dim=6, hidden_dims=(12,), num_classes=5, activation="relu"),
    "tanh-mlp": MlpSpec(input_dim=6, hidden_dims=(10, 7), num_classes=5, activation="tanh"),
    "softmax": MlpSpec(input_dim=6, hidden_dims=(), num_classes=5),
}


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs(num_classes=5, per_class=30, input_dim=6, spread=1.0, seed=21)  # n = 150


def model(name):
    spec = SPECS[name]
    noise = np.random.default_rng(0).standard_normal(spec.param_count())
    return spec, ParamVector(init_params(spec, 7).values + 0.4 * noise)


def same_float(got, want):
    assert isinstance(got, float)
    assert got.hex() == want.hex()


@pytest.mark.parametrize("name", sorted(SPECS))
class TestMatchesReference:
    # n=150 splits evenly at batch 16 and 64; 150 and 400 cover batch_size >= n
    @pytest.mark.parametrize("batch_size", [16, 64, 150, 400])
    def test_hessian(self, name, batch_size, blobs):
        spec, params = model(name)
        got = hessian_top_eig(params, spec, blobs, iters=12, seed=3, batch_size=batch_size)
        same_float(got, reference_hessian(params, spec, blobs, 12, 3, batch_size))

    # a client of 23 samples is no larger than one batch of 64 (sigma 0.0)
    @pytest.mark.parametrize("n, batch_size", [(150, 64), (150, 7), (23, 64), (150, 150)])
    def test_sigma(self, name, n, batch_size, blobs):
        spec, params = model(name)
        data = blobs.subset(np.arange(n))
        got = estimate_sigma(params, spec, [data], batch_size, num_draws=9, seeds=[5])
        want = reference_sigma(params, spec, data, batch_size, 9, 5)
        same_float(got, want)
        assert (want == 0.0) == (batch_size >= n)

    def test_zeta(self, name, blobs):
        spec, params = model(name)
        order = np.random.default_rng(1).permutation(blobs.n)
        clients = [blobs.subset(order[lo:hi]) for lo, hi in ((0, 5), (5, 69), (69, 150))]
        same_float(estimate_zeta(params, spec, clients), reference_zeta(params, spec, clients))

    # A client within one batch (5 samples) has no noise; zeta's gradients,
    # handed to sigma, are the ones sigma takes itself.
    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_sigma_of_several_clients_is_the_max_with_or_without_zeta_gradients(
        self, name, batch_size, blobs
    ):
        spec, params = model(name)
        order = np.random.default_rng(2).permutation(blobs.n)
        clients = [blobs.subset(order[lo:hi]) for lo, hi in ((0, 5), (5, 90), (90, 150))]
        seeds = [5, 6, 7]
        want = max(
            reference_sigma(params, spec, c, batch_size, 9, s) for c, s in zip(clients, seeds)
        )
        same_float(estimate_sigma(params, spec, clients, batch_size, 9, seeds), want)
        grads = []
        estimate_zeta(params, spec, clients, grads)
        assert len(grads) == 3
        for client, grad in zip(clients, grads):
            assert np.array_equal(grad, loss_and_grad(params, spec, client)[1].values)
        same_float(estimate_sigma(params, spec, clients, batch_size, 9, seeds, grads), want)


def test_sigma_rejects_clients_it_cannot_pair(blobs):
    spec, params = model("softmax")
    with pytest.raises(ValueError, match="^estimate_sigma: no client datasets$"):
        estimate_sigma(params, spec, [], 16, num_draws=4, seeds=[])
    with pytest.raises(ValueError, match="^1 seeds for 2 clients$"):
        estimate_sigma(params, spec, [blobs, blobs], 16, num_draws=4, seeds=[0])
    with pytest.raises(ValueError, match="^1 full gradients for 2 clients$"):
        estimate_sigma(params, spec, [blobs, blobs], 16, 4, [0, 1], [np.zeros(params.dim)])


@pytest.mark.parametrize("batch_size", [0, -5])
def test_hessian_rejects_non_positive_batch_size(batch_size, blobs):
    spec, params = model("softmax")
    with pytest.raises(ValueError, match="batch_size"):
        hessian_top_eig(params, spec, blobs, iters=3, seed=0, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [0, -5])
def test_sigma_rejects_non_positive_batch_size(batch_size, blobs):
    spec, params = model("softmax")
    with pytest.raises(ValueError, match="batch_size"):
        estimate_sigma(params, spec, [blobs], batch_size, num_draws=4, seeds=[0])


# Weights this large overflow the relu network's logits.  Each estimator
# must raise its own error; the suite turns any numpy warning before it
# into a failure.
@pytest.mark.parametrize(
    "estimate",
    [
        lambda p, s, d: estimate_zeta(p, s, [d.subset(np.arange(70)), d]),
        lambda p, s, d: estimate_sigma(
            p, s, [d.subset(np.arange(70)), d], 16, num_draws=4, seeds=[0, 1]
        ),
        lambda p, s, d: hessian_top_eig(p, s, d, iters=3, seed=0, batch_size=64),
    ],
    ids=["zeta", "sigma", "hessian"],
)
def test_overflowing_params_raise_value_error(estimate, blobs):
    spec, params = model("relu-mlp")
    huge = ParamVector(params.values * 1e200)
    with pytest.raises(ValueError, match="non-finite entries"):
        estimate(huge, spec, blobs)


def spy_backprop(monkeypatch):
    """The features' shape of every kernel call from now on, each of one run."""
    shapes = []
    backprop = model_module._backprop
    monkeypatch.setattr(
        model_module, "_backprop",
        lambda *a: (shapes.extend(f.shape for _, f in a[1]), backprop(*a))[1],
    )
    return shapes


def force_wave(monkeypatch, wave):
    if wave is None:
        monkeypatch.setattr(analysis, "WAVE_FLOATS", 1 << 62)
    else:
        monkeypatch.setattr(analysis, "_wave_size", lambda spec, vectors, rows: wave)


@pytest.mark.parametrize("name", sorted(SPECS))
class TestLockstepHessian:
    # n=150 at batch 40 splits raggedly into batches of 38, 38, 37 and 37:
    # a wave holds equal-size batches only
    @pytest.mark.parametrize("batch_size", [16, 40, 64])
    @pytest.mark.parametrize("wave", [1, 2, None], ids=["wave1", "wave2", "unbounded"])
    def test_every_wave_size_gives_the_oracle_bits(
        self, name, batch_size, wave, blobs, monkeypatch
    ):
        force_wave(monkeypatch, wave)
        spec, params = model(name)
        want = reference_hessian(params, spec, blobs, 12, 3, batch_size)
        shapes = spy_backprop(monkeypatch)
        got = hessian_top_eig(params, spec, blobs, iters=12, seed=3, batch_size=batch_size)
        same_float(got, want)
        sizes = [b.size for b in np.array_split(np.arange(blobs.n), math.ceil(blobs.n / batch_size))]
        runs = [sizes.count(n) for n in dict.fromkeys(sizes)]  # equal-size batches, in order
        waves = sum(math.ceil(r / (wave or r)) for r in runs)
        assert len(shapes) == 12 * waves  # as many calls
        assert max(s[0] for s in shapes) == 2 * min(max(runs), wave or max(runs))


# Nine draws: a wave of 4 leaves a last wave of 1, and an unbounded one
# takes all nine in one call.
@pytest.mark.parametrize("wave", [1, 2, 4, None], ids=["wave1", "wave2", "wave4", "unbounded"])
class TestLockstepSigma:
    @pytest.mark.parametrize("name", sorted(SPECS))
    @pytest.mark.parametrize("batch_size", [7, 64])
    def test_every_wave_size_gives_the_oracle_bits(
        self, name, wave, batch_size, blobs, monkeypatch
    ):
        spec, params = model(name)
        want = reference_sigma(params, spec, blobs, batch_size, 9, 5)
        force_wave(monkeypatch, wave)
        shapes = spy_backprop(monkeypatch)
        same_float(estimate_sigma(params, spec, [blobs], batch_size, num_draws=9, seeds=[5]), want)
        width = min(9, wave or 9)
        assert len(shapes) == 1 + math.ceil(9 / width)  # the full gradient, then the waves
        assert shapes[0] == (1, blobs.n, spec.input_dim)
        waves = [(min(width, 9 - lo), batch_size, spec.input_dim) for lo in range(0, 9, width)]
        assert shapes[1:] == waves

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_a_client_no_larger_than_a_batch_gives_zero(self, name, wave, blobs, monkeypatch):
        spec, params = model(name)
        force_wave(monkeypatch, wave)
        shapes = spy_backprop(monkeypatch)
        client = blobs.subset(np.arange(23))
        for batch_size in (23, 64):
            got = estimate_sigma(params, spec, [client], batch_size, num_draws=9, seeds=[5])
            same_float(got, 0.0)
        assert shapes == []

    # As in test_overflowing_params_raise_value_error: the relu network's
    # logits overflow, and a numpy warning before the error fails the test.
    def test_overflowing_params_raise_value_error(self, wave, blobs, monkeypatch):
        spec, params = model("relu-mlp")
        force_wave(monkeypatch, wave)
        huge = ParamVector(params.values * 1e200)
        with pytest.raises(ValueError, match="non-finite entries"):
            estimate_sigma(huge, spec, [blobs], 16, num_draws=9, seeds=[0])

    # Every hidden unit is off, so the logits are 0, but a label-0 row's
    # hidden delta, (softmax - onehot) / n through these output weights,
    # overflows at n = 1 and not at n = 150.  The full gradient is finite,
    # and so are the first five draws' gradients; the later draws have
    # label 0.
    def test_a_draw_that_overflows_alone_raises(self, wave, blobs, monkeypatch):
        spec, x = SPECS["relu-mlp"], np.zeros(SPECS["relu-mlp"].param_count())
        (_, b1), (w2, _) = model_module._unpack(x, spec)
        b1[:] = -1.0
        w2[:] = 1.7e308
        w2[:, 0] = -1.7e308
        params = ParamVector(x)
        assert np.isfinite(loss_and_grad(params, spec, blobs)[1].values).all()
        force_wave(monkeypatch, wave)
        with pytest.raises(ValueError, match="non-finite entries"):
            estimate_sigma(params, spec, [blobs], 1, num_draws=9, seeds=[0])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    n=st.integers(2, 40),
    batch_size=st.integers(1, 45),
    num_draws=st.integers(2, 12),
    wave=st.integers(1, 13),
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.lists(st.integers(1, 9), max_size=2),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_sigma_matches_the_oracle_on_drawn_shapes(
    n, batch_size, num_draws, wave, activation, hidden, seed, blobs
):
    spec = MlpSpec(input_dim=6, hidden_dims=tuple(hidden), num_classes=5, activation=activation)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(spec.param_count())
    params = ParamVector(init_params(spec, seed).values + 0.4 * noise)
    client = blobs.subset(rng.permutation(blobs.n)[:n])
    want = reference_sigma(params, spec, client, batch_size, num_draws, seed)
    with mock.patch.object(analysis, "_wave_size", lambda spec, vectors, rows: wave):
        got = estimate_sigma(params, spec, [client], batch_size, num_draws, [seed])
    same_float(got, want)


class TestLockstepThreadedEstimators:
    """On a model of 65,536 weights or more, sigma's clients and the
    Hessian's probes run ``local_training.lockstep_workers`` at once, each on a
    thread of its own, inside the one estimator call.  Every float is the
    serial one, a failure is the serial one, and no thread outlives the
    call."""

    SPEC = MlpSpec(input_dim=16, hidden_dims=(256, 256), num_classes=3)  # D = 70,915
    # Client sizes about a batch of 16: one within it, and ragged epoch tails.
    SIZES = (23, 9, 40, 28)

    @classmethod
    def wide_case(cls):
        spec = cls.SPEC
        assert spec.param_count() >= local_training.LOCKSTEP_FLOATS // 2
        rng = np.random.default_rng(3)
        params = ParamVector(
            init_params(spec, 7).values + 0.05 * rng.standard_normal(spec.param_count())
        )
        data = Dataset(rng.standard_normal((100, 16)), rng.integers(0, 3, 100), 3)
        cuts = np.cumsum((0,) + cls.SIZES)
        clients = [data.subset(np.arange(a, b)) for a, b in zip(cuts, cuts[1:])]
        return spec, params, data, clients

    @staticmethod
    def chunks(data, seed, batch_size):
        """The Hessian's batches, in probe order, as ``hessian_top_eig`` cuts them."""
        order = np.random.default_rng(seed).permutation(data.n)
        return np.array_split(order, math.ceil(data.n / batch_size))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_worker_count_gives_the_serial_floats(self, monkeypatch, spy_workers, workers):
        spec, params, data, clients = self.wide_case()
        seeds = [11, 12, 13, 14]
        sigma = max(reference_sigma(params, spec, c, 16, 5, s) for c, s in zip(clients, seeds))
        hessian = reference_hessian(params, spec, data, 4, 3, 16)
        started = spy_workers(workers)
        # ``loss_and_grad`` is a name the traced benchmark wraps: only this
        # thread may call it.
        callers = []
        full = analysis.loss_and_grad
        monkeypatch.setattr(
            analysis, "loss_and_grad",
            lambda *a: (callers.append(threading.current_thread()), full(*a))[1],
        )
        threads = threading.active_count()
        same_float(estimate_sigma(params, spec, clients, 16, 5, seeds), sigma)
        grads = []
        estimate_zeta(params, spec, clients, grads)
        same_float(estimate_sigma(params, spec, clients, 16, 5, seeds, grads), sigma)
        same_float(hessian_top_eig(params, spec, data, iters=4, seed=3, batch_size=16), hessian)
        assert threading.active_count() == threads
        assert set(callers) == {threading.main_thread()}
        # A lone unit of a wave runs in this thread.  Sigma's waves of clients
        # are 0-1 and 2-3 at W = 2, 0-2 and 3 at W = 3, and client 1 is within
        # one batch: two threads a call.  The Hessian's 7 probes take a thread
        # each but the last.
        assert len(started) == (0 if workers == 1 else 2 * 2 + 6)
        assert not any(worker.is_alive() for worker in started)

    @staticmethod
    def inject(monkeypatch, data, chunks, faults):
        """Sets the gradient of probe p to ``value`` at its iteration ``it``,
        for each ``(p, it, value)`` of ``faults``; a probe's iterations are
        counted over its start vectors, at each of its points, in every
        kernel call (the oracle's included)."""
        backprop = model_module._backprop
        firsts = [data.features[chunk[0]] for chunk in chunks]
        points = [0] * len(chunks)

        def faulty(spec, runs, labels, block):
            log_probs = backprop(spec, runs, labels, block)
            for run, features in runs:
                probe = next(p for p, row in enumerate(firsts) if (features[0, 0] == row).all())
                it = points[probe] // 2
                points[probe] += len(features)  # the + and - points of an iteration
                for p, at, value in faults:
                    if (p, at) == (probe, it):
                        for gw, gb in run.grads:
                            gw[...], gb[...] = value, value
            return log_probs

        monkeypatch.setattr(model_module, "_backprop", faulty)

    def hessian_outcome(self, monkeypatch, spy_workers, workers, faults):
        """The Hessian's value or error with ``faults`` injected, at W
        workers (the sequential oracle for None), and the threads it started."""
        spec, params, data, _ = self.wide_case()
        started = spy_workers(workers or 1)
        self.inject(monkeypatch, data, self.chunks(data, 3, 16), faults)
        threads = threading.active_count()
        try:
            if workers is None:
                got = reference_hessian(params, spec, data, 6, 3, 16).hex()
            else:
                got = hessian_top_eig(params, spec, data, iters=6, seed=3, batch_size=16).hex()
        except (RuntimeError, ValueError) as err:
            got = (type(err), str(err))
        assert threading.active_count() == threads
        assert not any(worker.is_alive() for worker in started)
        monkeypatch.undo()
        return got, started

    # Probe 0 vanishes at iteration 2 while probe 1 (and 2, at W = 3) runs;
    # a second vanishing raises.
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("twice", [False, True], ids=["once", "twice"])
    def test_a_probe_that_degenerates_while_a_later_one_runs_is_reseeded_as_alone(
        self, monkeypatch, spy_workers, workers, twice
    ):
        faults = [(0, 2, 0.0)] + ([(0, 3 + 2, 0.0)] if twice else [])
        oracle, _ = self.hessian_outcome(monkeypatch, spy_workers, None, faults)
        serial, _ = self.hessian_outcome(monkeypatch, spy_workers, 1, faults)
        threaded, started = self.hessian_outcome(monkeypatch, spy_workers, workers, faults)
        assert threaded == serial == oracle
        assert len(started) >= workers
        if twice:
            assert oracle == (
                RuntimeError, "power iteration degenerate: Hessian-vector product vanished"
            )
        else:
            # the reseed draws other start vectors for probe 0 and every later one
            assert oracle != self.hessian_outcome(monkeypatch, spy_workers, None, [])[0]

    # Probe 2's gradient is infinite at iteration 0; probe 1 vanishes at
    # iteration 3, once or twice.  The error of the first probe to fail
    # alone is raised, after the probes in flight are joined.  (The oracle
    # names a non-finite gradient in the words of ``ParamVector``.)
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("twice", [False, True], ids=["once", "twice"])
    def test_a_non_finite_probe_raises_the_serial_error(
        self, monkeypatch, spy_workers, workers, twice
    ):
        faults = [(2, 0, np.inf), (1, 3, 0.0)] + ([(1, 4 + 3, 0.0)] if twice else [])
        oracle, _ = self.hessian_outcome(monkeypatch, spy_workers, None, faults)
        serial, _ = self.hessian_outcome(monkeypatch, spy_workers, 1, faults)
        threaded, _ = self.hessian_outcome(monkeypatch, spy_workers, workers, faults)
        assert threaded == serial
        assert serial[0] is oracle[0] is (RuntimeError if twice else ValueError)
        if not twice:
            assert serial[1] == "diagnostic produced non-finite entries"

    # Client 0 draws no label-0 row and client 1 does: with every hidden unit
    # off, a label-0 draw of one row overflows its hidden delta (see
    # test_a_draw_that_overflows_alone_raises), a full batch does not.
    # Client 2 has the wrong width, which its kernel rejects before any draw.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_a_non_finite_client_raises_the_serial_error(self, spy_workers, workers):
        spec = self.SPEC
        x = np.zeros(spec.param_count())
        (_, b1), (_, b2), (w3, _) = model_module._unpack(x, spec)
        b1[:], b2[:] = -1.0, -1.0
        w3[:] = 1.7e308
        w3[:, 0] = -1.7e308
        params = ParamVector(x)
        rng = np.random.default_rng(4)
        safe = Dataset(rng.standard_normal((20, 16)), rng.integers(1, 3, 20), 3)
        risky = Dataset(rng.standard_normal((20, 16)), np.arange(20) % 3, 3)
        narrow = Dataset(rng.standard_normal((20, 5)), np.arange(20) % 3, 3)
        assert np.isfinite(loss_and_grad(params, spec, risky)[1].values).all()
        started = spy_workers(workers)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^diagnostic produced non-finite entries$"):
            estimate_sigma(params, spec, [safe, risky, narrow], 1, 9, [0, 1, 2])
        with pytest.raises(ValueError, match="^dataset has 5 features, spec expects 16$"):
            estimate_sigma(params, spec, [safe, narrow, risky], 1, 9, [0, 1, 2])
        assert threading.active_count() == threads
        assert (started == []) == (workers == 1)
        assert not any(worker.is_alive() for worker in started)

    # Client 0 fails late and client 1 at once: client 0's error is raised,
    # once client 1's thread is joined.
    def test_the_first_failure_in_client_order_is_raised_after_every_join(
        self, monkeypatch, spy_workers
    ):
        spec, params, _, clients = self.wide_case()
        started = spy_workers(3)
        draws = analysis._sigma_draws
        order = {id(c): i for i, c in enumerate(clients)}

        def failing(kernel, data, *args):
            index = order[id(data)]
            if index == 0:
                time.sleep(0.05)
            if index in (0, 2):
                raise ValueError(f"client {index} failed")
            return draws(kernel, data, *args)

        monkeypatch.setattr(analysis, "_sigma_draws", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^client 0 failed$"):
            estimate_sigma(params, spec, clients, 16, 5, [1, 2, 3, 4])
        assert threading.active_count() == threads
        # The first wave's clients over a batch, 0 and 2; none after it.
        assert len(started) == 2
        assert not any(worker.is_alive() for worker in started)

    def test_only_a_wide_model_with_blas_pinned_starts_threads(self, monkeypatch, spy_workers):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(local_training.os, "sched_getaffinity", lambda pid: {0, 1})
        wide, params, data, clients = self.wide_case()
        narrow = MlpSpec(input_dim=16, hidden_dims=(64,), num_classes=3)
        assert local_training.lockstep_workers(4, narrow.param_count()) == 1
        started = spy_workers()
        for spec, x, threads in ((narrow, init_params(narrow, 1), 0), (wide, params, 2 + 6)):
            estimate_sigma(x, spec, clients, 16, 5, [1, 2, 3, 4])
            hessian_top_eig(x, spec, data, iters=2, seed=0, batch_size=16)
            # sigma: clients 2 and 3 (client 1 is within a batch, so client 0
            # runs alone in this thread); the Hessian: its 7 probes but the last
            assert len(started) == threads
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        estimate_sigma(params, wide, clients, 16, 5, [1, 2, 3, 4])
        hessian_top_eig(params, wide, data, iters=2, seed=0, batch_size=16)
        assert len(started) == 8  # BLAS unpinned: serial

