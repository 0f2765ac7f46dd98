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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessian_oracle import top_hessian_eigenvalue_from_grad
from lss import analysis, model as model_module
from lss.analysis import estimate_sigma, estimate_zeta, hessian_top_eig
from lss.data import gen_blobs
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
        got = estimate_sigma(params, spec, data, batch_size, num_draws=9, seed=5)
        want = reference_sigma(params, spec, data, batch_size, 9, 5)
        same_float(got, want)
        assert (want == 0.0) == (batch_size >= n)

    def test_zeta(self, name, blobs):
        spec, params = model(name)
        order = np.random.default_rng(1).permutation(blobs.n)
        clients = [blobs.subset(order[lo:hi]) for lo, hi in ((0, 5), (5, 69), (69, 150))]
        same_float(estimate_zeta(params, spec, clients), reference_zeta(params, spec, clients))


@pytest.mark.parametrize("batch_size", [0, -5])
def test_hessian_rejects_non_positive_batch_size(batch_size, blobs):
    spec, params = model("softmax")
    with pytest.raises(ValueError, match="batch_size"):
        hessian_top_eig(params, spec, blobs, iters=3, seed=0, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [0, -5])
def test_sigma_rejects_non_positive_batch_size(batch_size, blobs):
    spec, params = model("softmax")
    with pytest.raises(ValueError, match="batch_size"):
        estimate_sigma(params, spec, blobs, batch_size, num_draws=4, seed=0)


# Weights this large overflow the relu network's logits.  Each estimator
# must raise its own error; the suite turns any numpy warning before it
# into a failure.
@pytest.mark.parametrize(
    "estimate",
    [
        lambda p, s, d: estimate_zeta(p, s, [d.subset(np.arange(70)), d]),
        lambda p, s, d: estimate_sigma(p, s, d, 16, num_draws=4, seed=0),
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
        same_float(estimate_sigma(params, spec, blobs, batch_size, num_draws=9, seed=5), want)
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
            same_float(estimate_sigma(params, spec, client, batch_size, num_draws=9, seed=5), 0.0)
        assert shapes == []

    # As in test_overflowing_params_raise_value_error: the relu network's
    # logits overflow, and a numpy warning before the error fails the test.
    def test_overflowing_params_raise_value_error(self, wave, blobs, monkeypatch):
        spec, params = model("relu-mlp")
        force_wave(monkeypatch, wave)
        huge = ParamVector(params.values * 1e200)
        with pytest.raises(ValueError, match="non-finite entries"):
            estimate_sigma(huge, spec, blobs, 16, num_draws=9, seed=0)

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
            estimate_sigma(params, spec, blobs, 1, num_draws=9, seed=0)


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
        got = estimate_sigma(params, spec, client, batch_size, num_draws, seed)
    same_float(got, want)
