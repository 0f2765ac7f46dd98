import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import finite_diff_grad, max_rel_err, perturbed, random_batch
from lss.data import Dataset
from lss.model import (
    Kernel,
    MlpSpec,
    accuracy,
    evaluate,
    init_params,
    loss_and_grad,
    predict_proba,
)
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


class TestKernel:
    def test_checks_once_and_writes_the_gradient_of_loss_and_grad(self):
        spec = MlpSpec(input_dim=5, hidden_dims=(6,), num_classes=4, activation="tanh")
        rng = np.random.default_rng(5)
        params = perturbed(init_params(spec, 3), rng, 0.5)
        data = random_batch(rng, spec, 30)
        with pytest.raises(ValueError, match="parameter vector has dim 5, spec needs"):
            Kernel(spec, data, np.zeros(5))
        with pytest.raises(ValueError, match="dataset has 4 features, spec expects 5"):
            Kernel(spec, Dataset(np.zeros((2, 4)), [0, 1], 2), params.values)
        kernel = Kernel(spec, data, params.values.copy())
        loss, grad = loss_and_grad(params, spec, data)
        log_probs = kernel(data.features, data.labels)
        assert np.array_equal(kernel.grad, grad.values)
        assert -log_probs[np.arange(data.n), data.labels].mean() == loss
        # The weights are read from ``x`` at each call.
        kernel.x[:] = 0.0
        kernel(data.features, data.labels)
        zero = ParamVector(np.zeros(spec.param_count()))
        assert np.array_equal(kernel.grad, loss_and_grad(zero, spec, data)[1].values)


WORKSPACE_SPECS = [
    MlpSpec(input_dim=5, hidden_dims=(), num_classes=4),
    MlpSpec(input_dim=5, hidden_dims=(9,), num_classes=4, activation="relu"),
    MlpSpec(input_dim=5, hidden_dims=(9, 6), num_classes=4, activation="tanh"),
]


@pytest.mark.parametrize("spec", WORKSPACE_SPECS, ids=["softmax", "relu", "tanh"])
class TestKernelWorkspace:
    def test_a_reused_kernel_gives_the_bits_of_a_fresh_one(self, spec):
        rng = np.random.default_rng(11)
        data = random_batch(rng, spec, 64)
        x = perturbed(init_params(spec, 2), rng, 0.5).values
        kernel = Kernel(spec, data, x.copy())
        for lo, rows in ((0, 64), (30, 17), (0, 64), (5, 17)):
            features, labels = data.features[lo : lo + rows], data.labels[lo : lo + rows]
            fresh = Kernel(spec, data, x.copy())
            want = fresh(features, labels)
            assert np.array_equal(kernel(features, labels), want)
            assert np.array_equal(kernel.grad, fresh.grad)
        # stacked: three clients, each at its own weights and rows
        xs = np.stack([x, x[::-1].copy(), 0.5 * x])
        kernel = Kernel(spec, [data] * 3, xs.copy())
        for lo, rows in ((0, 20), (7, 9), (0, 20)):
            order = [np.arange(lo, lo + rows) + 15 * g for g in range(3)]
            features, labels = data.features[order], data.labels[order]
            fresh = Kernel(spec, [data] * 3, xs.copy())
            want = fresh(features, labels)
            assert np.array_equal(kernel(features, labels), want)
            assert np.array_equal(kernel.grad, fresh.grad)
            for g in range(3):  # and each client's slice is its bits alone
                alone = Kernel(spec, data, xs[g].copy())
                assert np.array_equal(want[g], alone(features[g], labels[g]))
                assert np.array_equal(fresh.grad[g], alone.grad)

    # Layers wide enough that a block of one batch, n rows of the narrowest
    # layer, outgrows numpy's own ufunc buffer (8192 floats), which the
    # broadcast bias add and the relu mask's cast still take at each call.
    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_a_repeated_call_allocates_no_batch_sized_block(self, spec, lead):
        spec = MlpSpec(
            input_dim=5,
            hidden_dims=tuple(150 + 10 * h for h in spec.hidden_dims),
            num_classes=140,
            activation=spec.activation,
        )
        rng = np.random.default_rng(12)
        n = 96
        data = random_batch(rng, spec, n)
        x = np.broadcast_to(init_params(spec, 4).values, (*lead, spec.param_count())).copy()
        kernel = Kernel(spec, data, x)
        features = np.broadcast_to(data.features, (*lead, n, spec.input_dim)).copy()
        labels = np.broadcast_to(data.labels, (*lead, n)).copy()
        kernel(features, labels)
        block = n * min((spec.num_classes, *spec.hidden_dims)) * 8
        tracemalloc.start()
        try:
            kernel(features, labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block


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
