import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lss.model as model

from conftest import finite_diff_grad, max_rel_err, perturbed, random_batch
from lss.data import Dataset
from lss.model import (
    ACTIVATIONS,
    Kernel,
    MlpSpec,
    accuracy,
    evaluate,
    init_params,
    loss_and_grad,
    predict_proba,
)
from lss.model import _log_softmax, _row_max
from lss.params import ParamVector


class TestMlpSpec:
    def test_param_count_no_hidden(self):
        assert MlpSpec(input_dim=2, hidden_dims=(), num_classes=3).param_count() == 9

    def test_param_count_hidden(self):
        spec = MlpSpec(input_dim=4, hidden_dims=(5, 3), num_classes=2)
        assert spec.param_count() == (4 * 5 + 5) + (5 * 3 + 3) + (3 * 2 + 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            MlpSpec(input_dim=0, num_classes=2)
        with pytest.raises(ValueError):
            MlpSpec(input_dim=2, num_classes=1)
        with pytest.raises(ValueError):
            MlpSpec(input_dim=2, num_classes=2, activation="sigmoid")


class TestInitParams:
    def test_deterministic(self):
        spec = MlpSpec(input_dim=6, hidden_dims=(4,), num_classes=3)
        assert np.array_equal(init_params(spec, 9).values, init_params(spec, 9).values)

    def test_biases_zero_and_weights_bounded(self):
        spec = MlpSpec(input_dim=6, hidden_dims=(4,), num_classes=3)
        flat = init_params(spec, 1).values
        w1 = flat[: 6 * 4]
        b1 = flat[6 * 4 : 6 * 4 + 4]
        w2 = flat[6 * 4 + 4 : 6 * 4 + 4 + 4 * 3]
        b2 = flat[-3:]
        assert np.all(b1 == 0.0) and np.all(b2 == 0.0)
        assert np.all(np.abs(w1) <= np.sqrt(6.0 / (6 + 4)))
        assert np.all(np.abs(w2) <= np.sqrt(6.0 / (4 + 3)))

    def test_different_seeds_differ(self):
        spec = MlpSpec(input_dim=2, hidden_dims=(), num_classes=3)
        assert not np.array_equal(init_params(spec, 0).values, init_params(spec, 1).values)


class TestLossAndGrad:
    def test_zero_params_gives_log_c(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=5)
        params = ParamVector(np.zeros(spec.param_count()))
        batch = Dataset(np.random.default_rng(0).standard_normal((8, 3)), np.arange(8) % 5, 5)
        loss, _ = loss_and_grad(params, spec, batch)
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # 100 random architecture/params/batch triples: 0, 1 or 2 hidden
        # layers, each depth with both activations
        rng = np.random.default_rng(42)
        worst = 0.0
        for trial in range(100):
            spec = MlpSpec(
                input_dim=int(rng.integers(2, 5)),
                hidden_dims=tuple(int(rng.integers(2, 5)) for _ in range(trial % 3)),
                num_classes=int(rng.integers(2, 5)),
                activation="tanh" if trial % 2 else "relu",
            )
            params = perturbed(init_params(spec, trial), rng, 0.4)
            batch = random_batch(rng, spec, int(rng.integers(1, 9)))
            _, grad = loss_and_grad(params, spec, batch)

            def scalar_loss(x):
                return loss_and_grad(ParamVector(x), spec, batch)[0]

            fd = finite_diff_grad(scalar_loss, params.values)
            worst = max(worst, max_rel_err(grad.values, fd))
        assert worst < 1e-4

    def test_duplicated_batch_is_mean_invariant(self):
        rng = np.random.default_rng(3)
        spec = MlpSpec(input_dim=4, hidden_dims=(3,), num_classes=3)
        params = perturbed(init_params(spec, 0), rng)
        batch = random_batch(rng, spec, 5)
        doubled = Dataset(
            np.vstack([batch.features, batch.features]),
            np.concatenate([batch.labels, batch.labels]),
            batch.num_classes,
        )
        l1, g1 = loss_and_grad(params, spec, batch)
        l2, g2 = loss_and_grad(params, spec, doubled)
        assert l1 == pytest.approx(l2, abs=1e-12)
        np.testing.assert_allclose(g1.values, g2.values, rtol=0, atol=1e-12)

    def test_logit_shift_invariance_via_output_bias(self):
        # adding a constant to every output bias shifts all logits equally
        rng = np.random.default_rng(4)
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=4)
        params = perturbed(init_params(spec, 1), rng)
        batch = random_batch(rng, spec, 6)
        shifted = params.values.copy()
        shifted[-4:] += 7.5
        l1, g1 = loss_and_grad(params, spec, batch)
        l2, g2 = loss_and_grad(ParamVector(shifted), spec, batch)
        assert abs(l1 - l2) < 1e-10
        np.testing.assert_allclose(g1.values, g2.values, rtol=0, atol=1e-10)

    def test_loss_non_negative_and_decreases_with_confidence(self):
        spec = MlpSpec(input_dim=2, hidden_dims=(), num_classes=2)
        batch = Dataset(np.array([[1.0, 0.0]]), np.array([0]), 2)
        losses = []
        for scale in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0):
            # weight matrix steering class 0 up on this input
            flat = np.array([scale, -scale, 0.0, 0.0, 0.0, 0.0])
            loss, _ = loss_and_grad(ParamVector(flat), spec, batch)
            assert loss >= 0.0
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-6

    def test_dim_mismatch_and_bad_labels(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=2)
        batch = Dataset(np.zeros((2, 3)), np.array([0, 1]), 2)
        with pytest.raises(ValueError, match="dim"):
            loss_and_grad(ParamVector(np.zeros(5)), spec, batch)
        bad = Dataset(np.zeros((2, 3)), np.array([0, 7]), 8)
        with pytest.raises(ValueError, match="dataset has 8 classes.*num_classes=2"):
            loss_and_grad(ParamVector(np.zeros(spec.param_count())), spec, bad)

    def test_fewer_declared_classes_than_the_spec_are_accepted(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=4)
        data = Dataset(np.ones((2, 3)), np.array([0, 1]), 2)
        loss, _ = loss_and_grad(ParamVector(np.zeros(spec.param_count())), spec, data)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    @pytest.mark.parametrize("fn", [loss_and_grad, accuracy, evaluate, predict_proba])
    def test_every_entry_point_checks_the_dataset(self, fn):
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=2)
        params = ParamVector(np.zeros(spec.param_count()))
        with pytest.raises(ValueError, match="dataset has 3 classes.*num_classes=2"):
            fn(params, spec, Dataset(np.zeros((2, 3)), np.array([0, 1]), 3))
        with pytest.raises(ValueError, match="dataset has 4 features, spec expects 3"):
            fn(params, spec, Dataset(np.zeros((2, 4)), np.array([0, 1]), 2))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(np.zeros((0, 3)), np.array([], dtype=int), 2)


class TestAccuracy:
    def test_perfect_predictions(self):
        spec = MlpSpec(input_dim=2, hidden_dims=(), num_classes=2)
        # W = [[4, -4], [0, 0]], b = 0: sign of x0 decides
        params = ParamVector(np.array([4.0, -4.0, 0.0, 0.0, 0.0, 0.0]))
        batch = Dataset(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0, 1]), 2)
        assert accuracy(params, spec, batch) == 1.0

    def test_zero_params_ties_break_to_class_zero(self):
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=4)
        params = ParamVector(np.zeros(spec.param_count()))
        labels = np.array([0, 0, 1, 2, 3, 0])
        batch = Dataset(np.random.default_rng(1).standard_normal((6, 3)), labels, 4)
        assert accuracy(params, spec, batch) == pytest.approx(np.mean(labels == 0))

    def test_hand_built_separable_case(self):
        spec = MlpSpec(input_dim=1, hidden_dims=(), num_classes=2)
        # logits = [2x, -2x]: positive x -> class 0
        params = ParamVector(np.array([2.0, -2.0, 0.0, 0.0]))
        batch = Dataset(np.array([[3.0], [-2.0]]), np.array([0, 1]), 2)
        # a two-class softmax is the logistic function of the logit gap
        gap = np.array([12.0, -8.0])
        expected = np.column_stack([1.0 / (1.0 + np.exp(-gap)), 1.0 / (1.0 + np.exp(gap))])
        np.testing.assert_allclose(predict_proba(params, spec, batch), expected, rtol=1e-12)
        assert accuracy(params, spec, batch) == 1.0


class TestEvaluate:
    SPECS = [
        MlpSpec(input_dim=5, hidden_dims=(), num_classes=4),
        MlpSpec(input_dim=5, hidden_dims=(6, 3), num_classes=4, activation="relu"),
        MlpSpec(input_dim=5, hidden_dims=(6,), num_classes=4, activation="tanh"),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["softmax", "relu-mlp", "tanh-mlp"])
    @pytest.mark.parametrize("zero_output_layer", [False, True], ids=["random", "all-tie"])
    def test_is_accuracy_and_the_loss_of_loss_and_grad_to_the_bit(self, spec, zero_output_layer):
        rng = np.random.default_rng(11)
        flat = perturbed(init_params(spec, 3), rng, 0.5).values.copy()
        if zero_output_layer:
            # every logit is exactly 0: every row is an argmax tie, which
            # goes to class 0, and the loss is log(num_classes)
            fan_in = (spec.hidden_dims or (spec.input_dim,))[-1]
            flat[-(fan_in + 1) * spec.num_classes :] = 0.0
        params = ParamVector(flat)
        batch = random_batch(rng, spec, 40)
        acc, loss = evaluate(params, spec, batch)
        assert (acc, loss) == (accuracy(params, spec, batch), loss_and_grad(params, spec, batch)[0])
        if zero_output_layer:
            assert acc == np.mean(batch.labels == 0)
            assert loss == pytest.approx(np.log(spec.num_classes), abs=1e-12)


def alone(spec, data, x, features, labels):
    """The log-probabilities and gradient of one client's ``(n,
    input_dim)`` batch at its weights ``x``, from a one-client kernel."""
    kernel = Kernel(spec, [data], x[None].copy(), len(features))
    return kernel([(0, features[None])], labels), kernel.grad[0]


class TestKernel:
    def test_checks_once_and_writes_the_gradient_of_loss_and_grad(self):
        spec = MlpSpec(input_dim=5, hidden_dims=(6,), num_classes=4, activation="tanh")
        rng = np.random.default_rng(5)
        params = perturbed(init_params(spec, 3), rng, 0.5)
        data = random_batch(rng, spec, 30)
        with pytest.raises(ValueError, match="parameter vector has dim 5, spec needs"):
            Kernel(spec, [data], np.zeros((1, 5)), data.n)
        with pytest.raises(ValueError, match=r"must be a \(G, D\) block, got shape \(64,\)"):
            Kernel(spec, [data], params.values.copy(), data.n)
        with pytest.raises(ValueError, match="dataset has 4 features, spec expects 5"):
            xs = np.stack([params.values] * 2)
            Kernel(spec, [data, Dataset(np.zeros((2, 4)), [0, 1], 2)], xs, data.n)
        kernel = Kernel(spec, [data], params.values[None].copy(), data.n)
        loss, grad = loss_and_grad(params, spec, data)
        log_probs = kernel([(0, data.features[None])], data.labels)
        assert np.array_equal(kernel.grad[0], grad.values)
        assert -log_probs[np.arange(data.n), data.labels].mean() == loss
        # The weights are read from ``x`` at each call.
        kernel.x[:] = 0.0
        kernel([(0, data.features[None])], data.labels)
        zero = ParamVector(np.zeros(spec.param_count()))
        assert np.array_equal(kernel.grad[0], loss_and_grad(zero, spec, data)[1].values)

    def test_a_call_of_more_rows_than_it_holds_raises(self):
        spec = MlpSpec(input_dim=5, hidden_dims=(6,), num_classes=4)
        rng = np.random.default_rng(6)
        data = random_batch(rng, spec, 30)
        xs = np.stack([perturbed(init_params(spec, g), rng, 0.5).values for g in range(2)])
        kernel = Kernel(spec, [data] * 2, xs, 40)
        runs, labels = ragged_step(data, [(0, 1, 21), (1, 1, 20)])
        with pytest.raises(ValueError, match="a call of 41 rows, but the kernel holds 40"):
            kernel(runs, labels)
        # The kernel still takes the calls that fit, with their bits alone.
        for calls in ([(0, 2, 20)], [(1, 1, 20), (0, 1, 20)], [(0, 1, 7)]):
            runs, labels = ragged_step(data, calls)
            got, start = kernel(runs, labels), 0
            for lo, features in runs:
                for k, batch in enumerate(features):
                    rows = slice(start, start + len(batch))
                    want, grad = alone(spec, data, xs[lo + k], batch, labels[rows])
                    assert np.array_equal(got[rows], want)
                    assert np.array_equal(kernel.grad[lo + k], grad)
                    start += len(batch)
        # A kernel of no rows checks its inputs and takes no call.
        with pytest.raises(ValueError, match="dataset has 4 features, spec expects 5"):
            Kernel(spec, [Dataset(np.zeros((2, 4)), [0, 1], 2)], xs[:1], 0)
        empty = Kernel(spec, [data], xs[:1], 0)
        with pytest.raises(ValueError, match="a call of 1 rows, but the kernel holds 0"):
            empty([(0, data.features[None, :1])], data.labels[:1])


WORKSPACE_SPECS = [
    MlpSpec(input_dim=5, hidden_dims=(), num_classes=4),
    MlpSpec(input_dim=5, hidden_dims=(9,), num_classes=4, activation="relu"),
    MlpSpec(input_dim=5, hidden_dims=(9, 6), num_classes=4, activation="tanh"),
]


def ragged_step(data, calls):
    """A kernel call's runs and labels: ``calls`` holds ``(lo, g, n)`` for
    each run, and client ``lo + k`` of a run takes rows ``7·k`` to
    ``7·k + n - 1`` of ``data``."""
    runs, labels = [], []
    for lo, g, n in calls:
        rows = np.stack([np.arange(7 * k, 7 * k + n) for k in range(g)])
        runs.append((lo, data.features[rows]))
        labels.append(data.labels[rows].ravel())
    return runs, np.concatenate(labels)


def step_rows(steps):
    """The rows of the largest of ``steps``, each a ``ragged_step`` list."""
    return max(sum(g * n for _, g, n in calls) for calls in steps)


@pytest.mark.parametrize("spec", WORKSPACE_SPECS, ids=["softmax", "relu", "tanh"])
class TestKernelWorkspace:
    def test_a_reused_kernel_gives_the_bits_of_a_fresh_one(self, spec):
        rng = np.random.default_rng(11)
        data = random_batch(rng, spec, 64)
        x = perturbed(init_params(spec, 2), rng, 0.5).values
        kernel = Kernel(spec, [data], x[None].copy(), 64)
        for lo, rows in ((0, 64), (30, 17), (0, 64), (5, 17)):
            features, labels = data.features[None, lo : lo + rows], data.labels[lo : lo + rows]
            fresh = Kernel(spec, [data], x[None].copy(), rows)
            want = fresh([(0, features)], labels)
            assert np.array_equal(kernel([(0, features)], labels), want)
            assert np.array_equal(kernel.grad, fresh.grad)
        # stacked: three clients, each at its own weights and rows, in one
        # run or in runs of unequal batch size
        xs = np.stack([x, x[::-1].copy(), 0.5 * x])
        steps = ([(0, 3, 20)], [(0, 3, 9)], [(0, 1, 20), (1, 2, 9)], [(0, 3, 20)],
                 [(2, 1, 5), (0, 2, 20)], [(0, 1, 20), (1, 2, 9)])
        kernel = Kernel(spec, [data] * 3, xs.copy(), step_rows(steps))
        for calls in steps:
            runs, labels = ragged_step(data, calls)
            fresh = Kernel(spec, [data] * 3, xs.copy(), labels.size)
            want = fresh(runs, labels)
            assert np.array_equal(kernel(runs, labels), want)
            assert np.array_equal(kernel.grad, fresh.grad)
            start = 0
            for (lo, features), (_, g, n) in zip(runs, calls):
                for k in range(g):  # and each client's slice is its bits alone
                    rows = slice(start + k * n, start + (k + 1) * n)
                    log_probs, grad = alone(spec, data, xs[lo + k], features[k], labels[rows])
                    assert np.array_equal(want[rows], log_probs)
                    assert np.array_equal(fresh.grad[lo + k], grad)
                start += g * n

    def test_a_call_on_a_row_range_writes_only_those_rows(self, spec):
        rng = np.random.default_rng(13)
        data = random_batch(rng, spec, 64)
        xs = np.stack([perturbed(init_params(spec, g), rng, 0.5).values for g in range(6)])
        # One run, then runs of mixed batch size, on clients that are not
        # adjacent or not in order; the largest step, then smaller ones that
        # view its scratch; rows from the start, the middle and the end.
        steps = ([(1, 3, 20)], [(1, 2, 20), (4, 1, 9)], [(0, 1, 9)],
                 [(0, 3, 20), (3, 2, 9), (5, 1, 31)], [(5, 1, 20), (2, 2, 9)],
                 [(4, 2, 5), (0, 1, 20)], [(2, 1, 20), (5, 1, 20)])
        kernel = Kernel(spec, [data] * 6, xs.copy(), step_rows(steps))
        kernel.grad[:] = np.nan
        for calls in steps:
            before = kernel.grad.copy()
            runs, labels = ragged_step(data, calls)
            got = kernel(runs, labels)
            assert got.shape == (labels.size, spec.num_classes)
            start, written = 0, set()
            for (lo, features), (_, g, n) in zip(runs, calls):
                for k in range(g):
                    rows = slice(start + k * n, start + (k + 1) * n)
                    log_probs, grad = alone(spec, data, xs[lo + k], features[k], labels[rows])
                    assert np.array_equal(got[rows], log_probs)
                    assert np.array_equal(kernel.grad[lo + k], grad)
                    written.add(lo + k)
                start += g * n
            others = [r for r in range(6) if r not in written]
            assert np.array_equal(kernel.grad[others], before[others], equal_nan=True)

    # Layers wide enough that a block of one batch, n rows of the narrowest
    # layer, outgrows numpy's own ufunc buffer (8192 floats), which the
    # broadcast bias add and the relu mask's cast still take at each call.
    @pytest.mark.parametrize("case", ["single", "stacked", "ragged"])
    def test_a_repeated_call_allocates_no_batch_sized_block(self, spec, case):
        spec = MlpSpec(
            input_dim=5,
            hidden_dims=tuple(150 + 10 * h for h in spec.hidden_dims),
            num_classes=140,
            activation=spec.activation,
        )
        rng = np.random.default_rng(12)
        n = 96
        data = random_batch(rng, spec, n)
        # each case's step, then a smaller one: (lo, g, rows) for each run
        calls = {
            "single": ([(0, 1, n)], [(0, 1, n // 2)]),
            "stacked": ([(0, 3, n)], [(0, 3, n // 2)]),
            "ragged": ([(0, 2, n), (2, 3, n // 2)], [(0, 1, n // 2), (3, 2, n // 4)]),
        }[case]
        clients = 1 if case == "single" else 5
        x = np.broadcast_to(init_params(spec, 4).values, (clients, spec.param_count())).copy()
        kernel = Kernel(spec, [data] * clients, x, step_rows(calls[:1]))

        def step(runs):
            features = [(lo, np.stack([data.features[:rows]] * g)) for lo, g, rows in runs]
            return features, np.concatenate([np.tile(data.labels[:rows], g) for _, g, rows in runs])

        full, smaller = step(calls[0]), step(calls[1])
        kernel(*full)
        block = n * min((spec.num_classes, *spec.hidden_dims)) * 8
        tracemalloc.start()
        try:
            kernel(*full)
            peak = tracemalloc.get_traced_memory()[1]
            # A smaller step takes its temporaries from the same scratch.
            tracemalloc.reset_peak()
            kernel(*smaller)
            after = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block
        assert after < block


@st.composite
def ragged_steps(draw):
    """Steps of ragged runs ``(lo, g, n)`` for one kernel: each step lays its
    runs of g clients at batch size n out over consecutive clients from 0
    and calls them in a drawn order."""
    steps = []
    for _ in range(draw(st.integers(1, 3))):
        shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 48)),
                               min_size=1, max_size=4))
        los = np.cumsum([0] + [g for g, _ in shapes[:-1]])
        order = draw(st.permutations(range(len(shapes))))
        steps.append([(int(los[i]), *shapes[i]) for i in order])
    return steps


# Classes on both sides of ``_ROW_MAX_CLASSES``, so that a step's rows take
# the column row max or the reduce.
@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    steps=ragged_steps(),
    hidden=st.sampled_from([(), (7,), (6, 5)]),
    classes=st.sampled_from([2, 3, 10, 16, 17, 24]),
    activation=st.sampled_from(ACTIVATIONS),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_kernel_gives_each_run_the_bits_of_loss_and_grad(
    steps, hidden, classes, activation, seed
):
    spec = MlpSpec(input_dim=4, hidden_dims=hidden, num_classes=classes, activation=activation)
    rng = np.random.default_rng(seed)
    clients = max(lo + g for calls in steps for lo, g, _ in calls)
    datasets = [random_batch(rng, spec, 48) for _ in range(clients)]
    xs = np.stack([perturbed(init_params(spec, c), rng, 0.5).values for c in range(clients)])
    kernel = Kernel(spec, datasets, xs, max(sum(g * n for _, g, n in calls) for calls in steps))
    for calls in steps:
        runs = [(lo, np.stack([datasets[lo + k].features[:n] for k in range(g)]))
                for lo, g, n in calls]
        labels = np.concatenate([datasets[lo + k].labels[:n] for lo, g, n in calls
                                 for k in range(g)])
        got, start = kernel(runs, labels), 0
        for lo, g, n in calls:
            for k in range(g):
                client = datasets[lo + k]
                batch = Dataset(client.features[:n], client.labels[:n], classes)
                loss, grad = loss_and_grad(ParamVector(xs[lo + k]), spec, batch)
                log_probs = got[start : start + n]
                assert np.array_equal(kernel.grad[lo + k], grad.values)
                assert np.array_equal(log_probs, alone(spec, batch, xs[lo + k], batch.features, batch.labels)[0])
                assert -log_probs[np.arange(n), batch.labels].mean() == loss
                start += n


# A quiet NaN with a payload, and one with its sign bit set.
NAN_PAYLOAD = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
NEG_NAN = np.array([0xFFF8000000000000], dtype=np.uint64).view(np.float64)[0]


@pytest.mark.parametrize("classes", [2, 3, 7, 8, 9, 10, 16, 64])
def test_workspace_row_max_and_log_softmax_are_the_bits_of_the_reduce(classes):
    rng = np.random.default_rng(classes)
    special = [0.0, -0.0, np.nan, NEG_NAN, NAN_PAYLOAD, np.inf, -np.inf, 1.5, -2.0]
    crossover = model._ROW_MAX_FROM * classes
    for rows in (crossover - 1, crossover, 3 * crossover + 5):
        # rows of special values; rows of zeros of either sign and negatives,
        # whose max is a tie of zeros; and rows of ordinary logits
        out = rng.choice(special, size=(rows, classes))
        out[::3] = rng.choice([0.0, -0.0, -1.0], size=out[::3].shape)
        out[1::3] = rng.standard_normal(out[1::3].shape)
        want = np.maximum.reduce(out, axis=-1, keepdims=True)
        col = np.empty((rows, 1))
        _row_max(out, col)
        assert np.array_equal(col.view(np.uint64), want.view(np.uint64))
        with np.errstate(invalid="ignore"):
            shifted = out - want
            ref = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
            got = _log_softmax(out.copy(), np.empty_like(out), col)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_no_module_but_model_imports_its_private_names():
    src = Path(__file__).resolve().parents[1] / "src" / "lss"
    modules = sorted(src.glob("*.py"))
    assert {"analysis.py", "local_training.py", "model.py"} <= {p.name for p in modules}
    offenders = []
    for path in modules:
        if path.name == "model.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level, node.module) in (
                (1, "model"),
                (0, "lss.model"),
            ):
                offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []
