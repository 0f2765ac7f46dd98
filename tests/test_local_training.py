import dataclasses
import itertools
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lss.federation as federation
import lss.local_training as local_training
import lss.model as model
from conftest import finite_diff_grad, max_rel_err, perturbed, random_batch, spy_prepare_group
from lss.data import Dataset
from lss.local_training import (
    COEFF_MODES,
    LocalConfig,
    _batches,
    affinity_loss,
    diversity_loss,
    fedprox_local_train,
    fedprox_loss_and_grad,
    interpolate,
    lockstep_groups,
    lss_local_train,
    lss_regularized_grad,
    mean_pairwise_distance,
    sample_interp_coeffs,
    train_group,
)
from lss.federation import train_clients
from lss.model import MlpSpec, accuracy, init_params, loss_and_grad
from lss.params import ParamVector, axpy, l2_distance, uniform_average


def pv(*values):
    return ParamVector(np.array(values, dtype=np.float64))


def spawn_rngs(seed):
    """A client's batch and coefficient streams, as ``SeedSequence.spawn`` makes them."""
    batch_ss, coeff_ss = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(batch_ss), np.random.default_rng(coeff_ss)


class TestLocalConfig:
    def test_defaults(self):
        cfg = LocalConfig()
        assert cfg.eta == 5e-4
        assert cfg.tau == 8
        assert cfg.batch_size == 64
        assert cfg.lambda_a == 3.0
        assert cfg.lambda_d == 3.0
        assert cfg.num_pool_models == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalConfig(eta=0.0)
        with pytest.raises(ValueError):
            LocalConfig(tau=-1)
        with pytest.raises(ValueError):
            LocalConfig(lambda_a=-0.1)
        with pytest.raises(ValueError):
            LocalConfig(num_pool_models=0)
        with pytest.raises(ValueError):
            LocalConfig(coeff_mode="nope")
        for name in ("eta", "lambda_a", "lambda_d", "mu_prox", "dist_epsilon"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    LocalConfig(**{name: bad})


class TestSampleInterpCoeffs:
    def test_pool_of_one_normalizes_to_one(self):
        rng = np.random.default_rng(0)
        coeffs = sample_interp_coeffs(1, "uniform_random", rng)
        assert coeffs.shape == (1,) and coeffs[0] == 1.0

    def test_active_only_is_one_hot_on_last(self):
        rng = np.random.default_rng(0)
        coeffs = sample_interp_coeffs(5, "active_only", rng)
        assert list(coeffs) == [0.0, 0.0, 0.0, 0.0, 1.0]

    def test_simplex_constraints_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            coeffs = sample_interp_coeffs(4, "uniform_random", rng)
            assert np.all(coeffs >= 0.0)
            assert abs(coeffs.sum() - 1.0) < 1e-12

    def test_coordinates_are_symmetric(self):
        rng = np.random.default_rng(2)
        draws = np.array(
            [sample_interp_coeffs(3, "uniform_random", rng) for _ in range(100_000)]
        )
        np.testing.assert_allclose(draws.mean(axis=0), 1.0 / 3.0, atol=0.01)

    def test_zero_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_interp_coeffs(0, "uniform_random", np.random.default_rng(0))


class TestInterpolate:
    def test_one_hot_is_bit_exact(self):
        rng = np.random.default_rng(3)
        members = [ParamVector(rng.standard_normal(17)) for _ in range(3)]
        for k in range(3):
            coeffs = np.zeros(3)
            coeffs[k] = 1.0
            out = interpolate(members, coeffs)
            assert np.array_equal(out.values, members[k].values)

    def test_two_equal_members_idempotent(self):
        v = pv(1.0, -2.0, 3.0)
        pool = [v, v]
        out = interpolate(pool, [0.3, 0.7])
        np.testing.assert_allclose(out.values, v.values, rtol=5e-16, atol=0)

    def test_hand_arithmetic(self):
        pool = [pv(0.0, 0.0), pv(4.0, 8.0)]
        out = interpolate(pool, [0.25, 0.75])
        assert np.array_equal(out.values, [3.0, 6.0])

    def test_length_mismatch_and_simplex_violations(self):
        pool = [pv(0.0), pv(1.0)]
        with pytest.raises(ValueError, match="coefficients"):
            interpolate(pool, [1.0])
        with pytest.raises(ValueError, match="simplex"):
            interpolate(pool, [0.9, 0.3])
        with pytest.raises(ValueError, match="simplex"):
            interpolate(pool, [-0.2, 1.2])


class TestDistanceLosses:
    def test_diversity_of_identical_pool_is_zero(self):
        v = pv(1.0, 2.0)
        assert diversity_loss(v, [v, v, v]) == 0.0

    def test_single_member_distance(self):
        assert diversity_loss(pv(3.0, 4.0), [pv(0.0, 0.0)]) == 5.0

    def test_mean_of_two_distances(self):
        assert diversity_loss(pv(3.0, 4.0), [pv(0.0, 0.0), pv(6.0, 8.0)]) == 5.0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            diversity_loss(pv(1.0), [])

    def test_affinity_examples(self):
        assert affinity_loss(pv(1.0, 1.0), pv(1.0, 1.0)) == 0.0
        assert affinity_loss(pv(3.0, 4.0), pv(0.0, 0.0)) == 5.0
        assert affinity_loss(pv(1.0, 1.0, 1.0), pv(0.0, 0.0, 0.0)) == pytest.approx(
            np.sqrt(3.0), rel=1e-15
        )

    def test_mean_pairwise_distance(self):
        models = [pv(0.0, 0.0), pv(3.0, 4.0), pv(6.0, 8.0)]
        assert mean_pairwise_distance(models) == pytest.approx((5 + 10 + 5) / 3)


class TestRegularizedGrad:
    def make_instance(self, seed=0, dim_spec=(3, (), 3), pool_size=3):
        rng = np.random.default_rng(seed)
        spec = MlpSpec(input_dim=dim_spec[0], hidden_dims=dim_spec[1], num_classes=dim_spec[2])
        anchor = perturbed(init_params(spec, seed), rng, 0.5)
        pool = [anchor] + [perturbed(anchor, rng, 0.5) for _ in range(pool_size - 1)]
        batch = random_batch(rng, spec, 5)
        return rng, spec, pool, batch

    def test_reduces_to_plain_gradient(self):
        _, spec, pool, batch = self.make_instance()
        cfg = LocalConfig(lambda_a=0.0, lambda_d=0.0, coeff_mode="active_only")
        coeffs = np.zeros(len(pool))
        coeffs[-1] = 1.0
        loss, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)
        ref_loss, ref_grad = loss_and_grad(pool[-1], spec, batch)
        assert loss == ref_loss
        assert np.array_equal(grad.values, ref_grad.values)

    def test_pure_affinity_gradient_is_unit_direction(self):
        _, spec, pool, batch = self.make_instance(seed=1)
        cfg = LocalConfig(lambda_a=1.0, lambda_d=0.0)
        coeffs = np.zeros(len(pool))
        coeffs[0] = 1.0  # task gradient flows to a frozen member only
        _, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)
        diff = pool[-1].values - pool[0].values
        expected = diff / np.linalg.norm(diff)
        np.testing.assert_allclose(grad.values, expected, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        # includes the chain-rule scaling by the active coefficient
        rng, spec, pool, batch = self.make_instance(seed=2, dim_spec=(2, (), 3))
        cfg = LocalConfig(lambda_a=1.3, lambda_d=0.7)
        coeffs = sample_interp_coeffs(len(pool), "uniform_random", rng)
        loss, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)

        frozen = pool[:-1]

        def scalar(x):
            interp = interpolate([*frozen, ParamVector(x)], coeffs)
            task = loss_and_grad(interp, spec, batch)[0]
            aff = affinity_loss(ParamVector(x), pool[0])
            div = diversity_loss(ParamVector(x), frozen)
            return task + cfg.lambda_a * aff - cfg.lambda_d * div

        assert loss == scalar(pool[-1].values)
        fd = finite_diff_grad(scalar, pool[-1].values)
        assert max_rel_err(grad.values, fd) < 1e-4

    def test_fifty_random_configurations_match_fd(self):
        rng = np.random.default_rng(10)
        worst = 0.0
        for trial in range(50):
            spec = MlpSpec(
                input_dim=int(rng.integers(2, 4)),
                hidden_dims=(),
                num_classes=int(rng.integers(2, 4)),
            )
            anchor = perturbed(init_params(spec, trial), rng, 0.6)
            pool = [anchor] + [
                perturbed(anchor, rng, 0.6) for _ in range(int(rng.integers(1, 4)))
            ]
            batch = random_batch(rng, spec, int(rng.integers(2, 7)))
            cfg = LocalConfig(
                lambda_a=float(rng.uniform(0, 4)), lambda_d=float(rng.uniform(0, 4))
            )
            coeffs = sample_interp_coeffs(len(pool), "uniform_random", rng)
            loss, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)

            frozen = pool[:-1]

            def scalar(x):
                task = loss_and_grad(interpolate([*frozen, ParamVector(x)], coeffs), spec, batch)[0]
                aff = affinity_loss(ParamVector(x), pool[0])
                div = diversity_loss(ParamVector(x), frozen)
                return task + cfg.lambda_a * aff - cfg.lambda_d * div

            assert loss == scalar(pool[-1].values)
            fd = finite_diff_grad(scalar, pool[-1].values)
            worst = max(worst, max_rel_err(grad.values, fd))
        assert worst < 1e-4

    def test_pool_needs_an_active_member(self):
        _, spec, pool, batch = self.make_instance()
        with pytest.raises(ValueError, match="active member"):
            lss_regularized_grad(pool[:1], [1.0], spec, batch, LocalConfig())

    def test_chain_rule_scaling(self):
        # task part of the gradient is exactly alpha_active * grad at f_s
        rng, spec, pool, batch = self.make_instance(seed=4)
        cfg = LocalConfig(lambda_a=0.0, lambda_d=0.0)
        coeffs = np.array([0.2, 0.5, 0.3])
        _, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)
        _, task_grad = loss_and_grad(interpolate(pool, coeffs), spec, batch)
        np.testing.assert_allclose(grad.values, 0.3 * task_grad.values, rtol=1e-15)


class TestBatches:
    def test_epoch_covers_every_sample_once(self):
        data = Dataset(np.arange(10.0)[:, None], np.zeros(10, dtype=np.int64), 2)
        batches = _batches(data, 3, np.random.default_rng(0))
        seen = []
        for _ in range(4):  # 3 + 3 + 3 + 1
            seen.extend(Dataset(*next(batches), 2).features[:, 0].astype(int))
        assert sorted(seen) == list(range(10))

    def test_reshuffles_after_exhaustion(self):
        data = Dataset(np.arange(6.0)[:, None], np.zeros(6, dtype=np.int64), 2)
        batches = _batches(data, 2, np.random.default_rng(1))
        epoch1 = [tuple(Dataset(*next(batches), 2).features[:, 0]) for _ in range(3)]
        epoch2 = [tuple(Dataset(*next(batches), 2).features[:, 0]) for _ in range(3)]
        assert sorted(sum(epoch1, ())) == sorted(sum(epoch2, ()))

    def test_tiny_client_gets_whole_dataset(self):
        data = Dataset(np.arange(3.0)[:, None], np.zeros(3, dtype=np.int64), 2)
        batches = _batches(data, 64, np.random.default_rng(2))
        batch = Dataset(*next(batches), 2)
        assert batch.n == 3


class TestLssLocalTrain:
    def test_pool_of_one_zero_steps_returns_anchor(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.1, tau=0, num_pool_models=1)
        final, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=0)
        assert np.array_equal(final.values, softmax_anchor.values)
        assert trace.anchor_distance == 0.0

    def test_deterministic_given_seed(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.05, tau=4, num_pool_models=3)
        f1, _ = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=9)
        f2, _ = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=9)
        assert np.array_equal(f1.values, f2.values)

    @pytest.mark.parametrize("tau", [1, 3, 8])
    def test_reduction_to_sgd_with_midpoint_soup(self, small_blobs, softmax_spec, softmax_anchor, tau):
        cfg = LocalConfig(
            eta=0.05, tau=tau, batch_size=32, lambda_a=0.0, lambda_d=0.0,
            num_pool_models=1, coeff_mode="active_only",
        )
        final, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=42)
        sgd = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=42)
        assert np.array_equal(trace.pool_members[-1].values, sgd.values)
        midpoint = uniform_average([softmax_anchor, sgd])
        assert np.array_equal(final.values, midpoint.values)

    def test_frozen_members_stay_frozen(self, small_blobs, softmax_spec, softmax_anchor):
        # growing the pool must not disturb already-trained members: the
        # first k members of an N-member run equal those of a (k)-member run
        cfg = dict(eta=0.05, tau=3, batch_size=32)
        runs = {
            n: lss_local_train(
                softmax_anchor, softmax_spec, small_blobs,
                LocalConfig(num_pool_models=n, **cfg), seed=17,
            )[1].pool_members
            for n in (1, 2, 3, 4)
        }
        for n in (1, 2, 3):
            for idx in range(n + 1):
                assert np.array_equal(runs[4][idx].values, runs[n][idx].values)
        assert np.array_equal(runs[4][0].values, softmax_anchor.values)

    def test_affinity_strength_shrinks_anchor_distance(self, softmax_spec, softmax_anchor, small_blobs):
        # feature scale x8 keeps the task gradient dominant over the pull,
        # which is the regime where stronger pull means tighter soup
        data = Dataset(small_blobs.features * 8.0, small_blobs.labels, small_blobs.num_classes)
        dists = []
        for lam in (0.0, 1.0, 3.0, 10.0):
            cfg = LocalConfig(eta=0.005, tau=8, batch_size=32, lambda_a=lam,
                              lambda_d=0.0, num_pool_models=4)
            final, _ = lss_local_train(softmax_anchor, softmax_spec, data, cfg, seed=21)
            dists.append(l2_distance(final, softmax_anchor))
        assert all(b <= a + 1e-6 for a, b in zip(dists, dists[1:]))

    def test_trace_geometry_is_computed_from_the_pool(
        self, small_blobs, softmax_spec, softmax_anchor
    ):
        cfg = LocalConfig(eta=0.05, tau=4, batch_size=32, num_pool_models=3)
        final, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=3)
        assert trace.pool_members[0] == softmax_anchor
        assert trace.anchor_distance == l2_distance(final, softmax_anchor) > 0.0
        pool = list(trace.pool_members)
        assert trace.pool_mean_pairwise_distance == mean_pairwise_distance(pool) > 0.0

    def test_a_given_pool_is_not_trained_again(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.05, tau=4, batch_size=32, num_pool_models=3)
        final, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=3)
        rows = trace.rows.copy()
        again, again_trace = lss_local_train(
            softmax_anchor, softmax_spec, small_blobs, cfg, seed=99, pool=rows
        )
        assert again == final
        assert np.array_equal(again_trace.rows, rows)
        assert not again_trace.rows.flags.writeable and rows.flags.writeable
        with pytest.raises(ValueError, match=r"has shape \(4, 54\), got \(3, 54\)"):
            lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=3, pool=rows[1:])

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"## Library use.*?```python\n(.*?)```", readme, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {})
        printed = [float(v) for v in capsys.readouterr().out.split()]
        assert len(printed) == 2 and all(0.0 < v < math.inf for v in printed)

    def test_diversity_strength_spreads_pool(self, softmax_spec, softmax_anchor, small_blobs):
        spreads = []
        for lam in (0.0, 3.0):
            cfg = LocalConfig(eta=0.05, tau=8, batch_size=32, lambda_a=0.0,
                              lambda_d=lam, num_pool_models=4)
            _, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=21)
            spreads.append(trace.pool_mean_pairwise_distance)
        assert spreads[1] >= spreads[0]


class TestSgdLocalTrain:
    def test_zero_steps_is_identity(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.1, tau=0, mu_prox=0.0)
        out = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=0)
        assert np.array_equal(out.values, softmax_anchor.values)

    def test_single_step_single_sample_batch(self, softmax_spec, softmax_anchor):
        rng = np.random.default_rng(5)
        tiny = Dataset(
            np.vstack([rng.standard_normal(8)] * 6), np.arange(6) % 6, 6
        )
        cfg = LocalConfig(eta=0.2, tau=1, batch_size=64, mu_prox=0.0)  # whole dataset per batch
        out = fedprox_local_train(softmax_anchor, softmax_spec, tiny, cfg, seed=0)
        _, grad = loss_and_grad(softmax_anchor, softmax_spec, tiny)
        expected = axpy(softmax_anchor, -0.2, grad)
        assert np.array_equal(out.values, expected.values)


class TestFedproxLocalTrain:
    def test_mu_zero_is_bit_identical_to_sgd(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.05, tau=8, batch_size=32, mu_prox=0.0)
        prox = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=5)
        # reference: minibatch SGD written out step by step
        rng_batch, _ = spawn_rngs(5)
        batches = _batches(small_blobs, 32, rng_batch)
        sgd = softmax_anchor
        for _ in range(8):
            batch = Dataset(*next(batches), small_blobs.num_classes)
            _, grad = loss_and_grad(sgd, softmax_spec, batch)
            sgd = axpy(sgd, -0.05, grad)
        assert np.array_equal(prox.values, sgd.values)

    def test_strong_prox_pins_to_anchor(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=1e-7, tau=50, batch_size=32, mu_prox=1e6)
        out = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=5)
        assert l2_distance(out, softmax_anchor) < 1e-3

    def test_prox_gradient_vanishes_at_anchor(self, small_blobs, softmax_spec, softmax_anchor):
        base_loss, base_grad = loss_and_grad(softmax_anchor, softmax_spec, small_blobs)
        loss, grad = fedprox_loss_and_grad(
            softmax_anchor, softmax_anchor, softmax_spec, small_blobs, mu=7.0
        )
        assert loss == base_loss
        assert np.array_equal(grad.values, base_grad.values)

    def test_prox_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=3)
        anchor = init_params(spec, 0)
        params = perturbed(anchor, rng, 0.5)
        batch = random_batch(rng, spec, 4)

        def scalar(x):
            return fedprox_loss_and_grad(ParamVector(x), anchor, spec, batch, mu=0.9)[0]

        _, grad = fedprox_loss_and_grad(params, anchor, spec, batch, mu=0.9)
        fd = finite_diff_grad(scalar, params.values)
        assert max_rel_err(grad.values, fd) < 1e-4


def reference_lss(anchor, spec, data, cfg, seed):
    """Soup training written out from the public reference functions
    (``lss_regularized_grad`` interpolates with ``interpolate``)."""
    rng_batch, rng_coeff = spawn_rngs(seed)
    batches = _batches(data, cfg.batch_size, rng_batch)
    pool = [anchor]
    for _ in range(cfg.num_pool_models):
        pool.append(uniform_average(pool))
        for _ in range(cfg.tau):
            coeffs = sample_interp_coeffs(len(pool), cfg.coeff_mode, rng_coeff)
            batch = Dataset(*next(batches), data.num_classes)
            _, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)
            pool[-1] = axpy(pool[-1], -cfg.eta, grad)
    return pool, uniform_average(pool)


def reference_fedprox(anchor, spec, data, cfg, seed):
    rng_batch, _ = spawn_rngs(seed)
    batches = _batches(data, cfg.batch_size, rng_batch)
    f = anchor
    for _ in range(cfg.tau):
        batch = Dataset(*next(batches), data.num_classes)
        _, grad = fedprox_loss_and_grad(f, anchor, spec, batch, cfg.mu_prox)
        f = axpy(f, -cfg.eta, grad)
    return f


def engine_case(hidden, activation, n, seed=0):
    rng = np.random.default_rng(seed)
    spec = MlpSpec(input_dim=4, hidden_dims=hidden, num_classes=3, activation=activation)
    anchor = perturbed(init_params(spec, seed), rng, 0.3)
    data = Dataset(rng.standard_normal((n, 4)), rng.integers(0, 3, n), 3)
    return spec, anchor, data


# 7 samples are fewer than one batch of 16; 37 leave an epoch tail of 5.
CLIENT_SIZES = (7, 37)


class TestEngineMatchesReference:
    @pytest.mark.parametrize(
        "hidden, activation, coeff_mode",
        list(itertools.product([(), (5,), (4, 3)], ["relu", "tanh"], COEFF_MODES)),
    )
    @pytest.mark.parametrize(
        "lambda_a, lambda_d", [(0.0, 0.0), (0.7, 0.0), (0.0, 0.4), (0.7, 0.4)]
    )
    def test_lss_local_train_is_bit_identical(
        self, hidden, activation, coeff_mode, lambda_a, lambda_d
    ):
        for n in CLIENT_SIZES:
            spec, anchor, data = engine_case(hidden, activation, n)
            cfg = LocalConfig(
                eta=0.2, tau=5, batch_size=16, lambda_a=lambda_a, lambda_d=lambda_d,
                num_pool_models=3, coeff_mode=coeff_mode,
            )
            final, trace = lss_local_train(anchor, spec, data, cfg, seed=11)
            pool, ref_final = reference_lss(anchor, spec, data, cfg, seed=11)
            assert len(trace.pool_members) == len(pool) == 4
            for got, want in zip(trace.pool_members, pool):
                assert np.array_equal(got.values, want.values)
            assert np.array_equal(final.values, ref_final.values)
            assert not np.array_equal(final.values, anchor.values)

    @pytest.mark.parametrize(
        "hidden, activation", list(itertools.product([(), (5,), (4, 3)], ["relu", "tanh"]))
    )
    @pytest.mark.parametrize("mu", [0.0, 0.3])
    def test_fedprox_local_train_is_bit_identical(self, hidden, activation, mu):
        for n in CLIENT_SIZES:
            spec, anchor, data = engine_case(hidden, activation, n)
            cfg = LocalConfig(eta=0.2, tau=6, batch_size=16, mu_prox=mu)
            got = fedprox_local_train(anchor, spec, data, cfg, seed=4)
            want = reference_fedprox(anchor, spec, data, cfg, seed=4)
            assert np.array_equal(got.values, want.values)
            assert not np.array_equal(got.values, anchor.values)

    def test_divergence_raises_from_both_trainers(self):
        spec, anchor, data = engine_case((5,), "relu", 37)
        cfg = LocalConfig(eta=1e308, tau=3, batch_size=16, num_pool_models=2)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError, match="soup member 1 diverged: .* is inf"):
                lss_local_train(anchor, spec, data, cfg, seed=0)
            with pytest.raises(ValueError, match="non-finite"):
                fedprox_local_train(anchor, spec, data, cfg, seed=0)

    def test_bad_inputs_rejected_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(model, "_backprop", lambda *a: steps.append(a))
        spec, anchor, _ = engine_case((), "relu", 7)
        wide = Dataset(np.zeros((4, 4)), [0, 1, 2, 4], 5)  # label 4, spec has 3 classes
        cfg = LocalConfig(eta=0.1, tau=3, batch_size=16, num_pool_models=2)
        for train in (lss_local_train, fedprox_local_train):
            with pytest.raises(ValueError, match="num_classes=3"):
                train(anchor, spec, wide, cfg, seed=0)
            with pytest.raises(ValueError, match="spec needs"):
                train(pv(1.0, 2.0), spec, wide, cfg, seed=0)
        assert steps == []


# (strategy, lambda_a, lambda_d, coeff_mode); mu_prox is 0.3 except for fedavg.
LOCKSTEP_STRATEGIES = [
    ("lss", 0.0, 0.0, "uniform_random"),
    ("lss", 0.0, 0.0, "active_only"),
    ("lss", 0.7, 0.4, "uniform_random"),
    ("lss", 0.7, 0.4, "active_only"),
    ("fedprox", 0.0, 0.0, "uniform_random"),
    ("fedavg", 0.0, 0.0, "uniform_random"),
]


def lockstep_clients(spec, sizes, seed=5):
    rng = np.random.default_rng(seed)
    return [
        Dataset(rng.standard_normal((n, spec.input_dim)), rng.integers(0, spec.num_classes, n),
                spec.num_classes)
        for n in sizes
    ]


def alone(strategy, anchor, spec, data, cfg, seed):
    """A client's pool and upload when it trains by itself."""
    if strategy == "lss":
        final, trace = lss_local_train(anchor, spec, data, cfg, seed)
        return list(trace.pool_members), final
    mu = 0.0 if strategy == "fedavg" else cfg.mu_prox
    final = fedprox_local_train(anchor, spec, data, dataclasses.replace(cfg, mu_prox=mu), seed)
    return [anchor, final], final


class TestLockstep:
    """Clients of every size train in lockstep groups, and each gets the
    pool and upload it gets alone, bit for bit."""

    @staticmethod
    def spy_groups(monkeypatch):
        """The datasets of each lockstep group; a ``train_clients``
        call of ``fedprox_local_train`` fails the test."""

        def forbidden(*args, **kwargs):
            pytest.fail("train_clients called fedprox_local_train")

        monkeypatch.setattr(federation, "fedprox_local_train", forbidden)
        return spy_prepare_group(monkeypatch)

    @pytest.mark.parametrize("hidden, activation", [((), "relu"), ((5,), "relu"), ((4, 3), "tanh")])
    @pytest.mark.parametrize(
        "sizes",
        # 16 is the batch size.  Clients within one batch, of one size and
        # of exactly one batch; clients over one batch with ragged epoch
        # tails (5, 5, 2, 5 and none) and a run of equal size; and a mix of
        # both, unsorted, with repeats.  Every group takes its distances in
        # one vecdot per frozen member.
        [[1] * 3, [16] * 2, [5] * 4, [37, 21, 50, 37, 48],
         [5, 16, 1, 9, 40, 5, 3, 16, 1, 9, 33, 17]],
    )
    @pytest.mark.parametrize("strategy, lambda_a, lambda_d, coeff_mode", LOCKSTEP_STRATEGIES)
    def test_group_equals_clients_one_at_a_time(
        self, monkeypatch, hidden, activation, sizes, strategy, lambda_a, lambda_d, coeff_mode
    ):
        spec, anchor, _ = engine_case(hidden, activation, 5)
        cfg = LocalConfig(
            eta=0.2, tau=7, batch_size=16, lambda_a=lambda_a, lambda_d=lambda_d,
            num_pool_models=3, coeff_mode=coeff_mode, mu_prox=0.3,
        )
        datasets = lockstep_clients(spec, sizes)
        seeds = [11 + i for i in range(len(sizes))]
        groups = self.spy_groups(monkeypatch)
        uploads = train_clients(strategy, anchor, spec, datasets, cfg, seeds)
        assert [len(g) for g in groups] == [len(sizes)]
        soup = strategy == "lss"
        pool_cfg = cfg if strategy != "fedavg" else dataclasses.replace(cfg, mu_prox=0.0)
        # In the caller's order, which may break a size into several runs.
        pools = train_group(anchor, spec, datasets, pool_cfg, seeds, soup)
        assert pools.shape == (4 if soup else 2, len(sizes), anchor.dim)
        assert np.array_equal(pools[0], np.broadcast_to(anchor.values, pools.shape[1:]))
        assert uploads.shape == (len(sizes), anchor.dim)
        for i, (data, seed, upload) in enumerate(zip(datasets, seeds, uploads)):
            want_pool, want_upload = alone(strategy, anchor, spec, data, cfg, seed)
            assert np.array_equal(upload, want_upload.values)
            assert not np.array_equal(upload, anchor.values)
            for got, want in zip(pools[:, i], want_pool, strict=True):
                assert np.array_equal(got, want.values)
            if soup:
                pool = [ParamVector(member) for member in pools[:, i]]
                assert np.array_equal(upload, uniform_average(pool).values)
                final, trace = lss_local_train(anchor, spec, data, cfg, seed, pools[:, i])
                assert np.array_equal(final.values, upload)
                assert trace.pool_members == tuple(pool)

    def test_groups_hold_every_client_by_size_under_the_float_budget(self, monkeypatch):
        spec, anchor, _ = engine_case((5,), "relu", 5)
        cfg = LocalConfig(eta=0.2, tau=4, batch_size=16, num_pool_models=2, mu_prox=0.3)
        sizes = [5, 40, 5, 1, 16, 17, 16]
        datasets = lockstep_clients(spec, sizes)
        seeds = list(range(3, 3 + len(sizes)))
        dim = anchor.dim
        # by (size, index): 1, 5 (twice), 16 (twice), 17, 40
        assert lockstep_groups(datasets, dim, 2) == [[3, 0, 2, 4, 6, 5, 1]]
        assert lockstep_groups(datasets[1:2], dim, 2) == [[0]]
        assert lockstep_groups([], dim, 2) == []
        # Room for three clients of two members: the fewest groups, of
        # near-equal count.
        three = 3 * (2 + 4) * dim + 5
        monkeypatch.setattr(local_training, "LOCKSTEP_FLOATS", three)
        assert local_training._clients_per_group(dim, 2) == 3
        assert lockstep_groups(datasets, dim, 2) == [[3, 0], [2, 4], [6, 5, 1]]
        # A proximal client of one member takes less room than a soup client.
        assert local_training._clients_per_group(dim, 1) == 3
        assert local_training._clients_per_group(dim, 3) == 2
        # Room for less than one client: every client trains alone.
        monkeypatch.setattr(local_training, "LOCKSTEP_FLOATS", 1)
        assert lockstep_groups(datasets, dim, 2) == [[3], [0], [2], [4], [6], [5], [1]]
        # Each group, soup or proximal, of one client or more, trains
        # through one ``prepare_group`` call, and each client gets its upload
        # alone.
        groups = self.spy_groups(monkeypatch)
        for strategy in ("fedavg", "fedprox", "lss"):
            for budget, counts in [(three, [2, 2, 3]), (1, [1] * 7)]:
                monkeypatch.setattr(local_training, "LOCKSTEP_FLOATS", budget)
                uploads = train_clients(strategy, anchor, spec, datasets, cfg, seeds)
                assert [len(g) for g in groups] == counts
                for data, seed, upload in zip(datasets, seeds, uploads, strict=True):
                    _, want = alone(strategy, anchor, spec, data, cfg, seed)
                    assert np.array_equal(upload, want.values)
                groups.clear()  # of the calls that ``alone`` made

    def test_the_float_budget_groups_the_three_workloads(self):
        # The benchmark workloads' models, pool sizes and client counts.
        mid = MlpSpec(input_dim=32, hidden_dims=(64,), num_classes=10)
        wide = MlpSpec(input_dim=128, hidden_dims=(256, 256), num_classes=10)
        softmax = MlpSpec(input_dim=16, hidden_dims=(), num_classes=10)
        assert local_training._clients_per_group(mid.param_count(), 4) == 5
        assert local_training._clients_per_group(wide.param_count(), 1) == 1
        assert local_training._clients_per_group(softmax.param_count(), 3) >= 100
        for spec, members, clients, groups in [
            (mid, 4, 20, [5] * 4), (wide, 1, 4, [1] * 4), (softmax, 3, 100, [100])
        ]:
            datasets = lockstep_clients(spec, [1 + i % 7 for i in range(clients)])
            got = lockstep_groups(datasets, spec.param_count(), members)
            assert [len(g) for g in got] == groups

    @pytest.mark.parametrize("soup", [True, False])
    def test_one_train_call_and_one_kernel_call_per_step(self, monkeypatch, soup):
        spec, anchor, _ = engine_case((5,), "tanh", 5)
        cfg = LocalConfig(eta=0.2, tau=3, batch_size=16, num_pool_models=2, lambda_d=0.3)
        sizes = [5, 1, 16, 5, 40, 1, 3, 16, 16, 21]
        datasets = lockstep_clients(spec, sizes)
        steps = []  # the features shape of each run of each kernel call
        backprop = model._backprop
        monkeypatch.setattr(
            model, "_backprop",
            lambda *a: (steps.append([f.shape for _, f in a[1]]), backprop(*a))[1],
        )
        groups = self.spy_groups(monkeypatch)
        train_clients("lss" if soup else "fedprox", anchor, spec, datasets, cfg, range(10))
        assert [len(g) for g in groups] == [10]
        # In size order: 1 (twice), 3, 5 (twice), 16 (three times), 21 and
        # 40.  The client of 21 takes 16 then 5 rows, the client of 40 16,
        # 16, then 8; a run holds the consecutive clients of one batch size,
        # and one call holds all the runs of a step.
        within = [(2, 1, 4), (1, 3, 4), (2, 5, 4)]
        per_step = [
            within + [(5, 16, 4)],
            within + [(3, 16, 4), (1, 5, 4), (1, 16, 4)],
            within + [(4, 16, 4), (1, 8, 4)],
            within + [(3, 16, 4), (1, 5, 4), (1, 16, 4)],
            within + [(5, 16, 4)],
            within + [(3, 16, 4), (1, 5, 4), (1, 8, 4)],
        ]
        assert steps == per_step[: (2 if soup else 1) * cfg.tau]

    def test_the_view_caches_stay_bounded_over_coprime_epochs(self, monkeypatch):
        spec, _, _ = engine_case((5,), "relu", 5)
        # At batch 4: two clients within one batch, and epochs of 2, 3, 5
        # and 7 batches with four distinct tails, so the steps repeat every
        # 210.
        datasets = lockstep_clients(spec, [3, 4, 5, 10, 19, 25])
        x = np.stack([init_params(spec, g).values for g in range(6)])

        def train(steps):
            kernel = model.Kernel(spec, datasets, x.copy(), local_training._step_rows(datasets, 4))
            batches = local_training._group_batches(datasets, 4, range(6))
            cached = []  # the kernel's cached run bindings after each step
            for _ in range(steps):
                kernel(*next(batches))
                cached.append(len(kernel._runs))
            return kernel, cached

        kernel, cached = train(2 * 210)
        # one view set per run binding: none added once the steps repeat
        assert cached[209] == cached[-1] > 9
        # Under a lower cap, the cache is cleared when full, and the
        # gradients keep their bits.
        monkeypatch.setattr(model, "_BINDINGS", 9)
        capped, cached = train(2 * 210)
        assert max(cached) <= 9 and any(b < a for a, b in zip(cached, cached[1:]))
        assert np.array_equal(capped.grad, kernel.grad)

    @pytest.mark.parametrize("strategy", ["lss", "fedprox", "fedavg"])
    def test_a_client_that_diverges_in_a_mixed_group_is_named(self, strategy):
        spec, anchor, _ = engine_case((), "relu", 5)
        local = LocalConfig(eta=0.5, tau=3, batch_size=16, num_pool_models=2, mu_prox=0.1)
        rng = np.random.default_rng(8)
        clients = []
        for cid, n in enumerate([7, 40, 3, 5, 7, 1, 40]):
            scale = 1e160 if cid == 4 else 1.0
            features = scale * rng.standard_normal((n, spec.input_dim))
            if cid == 1:
                # huge rows after the first batch of its first epoch: the
                # client trains one step, then diverges mid-epoch
                seed = federation.derive_seed(9, cid)
                features[local_training._stream(seed, 0).permutation(n)[16:]] *= 1e160
            data = Dataset(features, rng.integers(0, 3, n), 3)
            clients.append(federation.ClientState(cid, data))
        datasets = [c.data for c in clients]
        # One group, ordered 5, 2, 3, 0, 4, 1, 6: client 4 comes before client 1.
        assert lockstep_groups(datasets, anchor.dim, 2) == [[5, 2, 3, 0, 4, 1, 6]]
        seeds = [federation.derive_seed(9, c.client_id) for c in clients]
        failures = []
        for cid, (data, seed) in enumerate(zip(datasets, seeds)):
            try:
                train_clients(strategy, anchor, spec, [data], local, [seed])
            except ValueError as exc:
                failures.append(f"client {cid} failed during round 2: {exc}")
        assert [f.split(" failed")[0] for f in failures] == ["client 1", "client 4"]
        lss_error = r"soup member \d diverged: its distance to member \d is (inf|nan)"
        group_error = lss_error if strategy == "lss" else "non-finite"
        with pytest.raises(ValueError, match=group_error):
            train_clients(strategy, anchor, spec, datasets, local, seeds)
        with pytest.raises(RuntimeError) as err:
            federation.run_round(anchor, clients[::-1], spec, local, strategy, 2, 9, datasets[0])
        assert str(err.value) == failures[0]

    def test_one_vecdot_gives_the_bits_and_the_error_of_one_dot_per_row(self):
        rng = np.random.default_rng(4)
        for g, d in [(1, 170), (3, 2762), (7, 15), (20, 170), (94, 170)]:
            # some rows shorter than eps, which floors their norm
            diffs = rng.standard_normal((g, d)) * 10.0 ** rng.uniform(-12, 1, (g, 1))
            want = diffs.copy()
            for row in want:
                row /= max(math.sqrt(np.dot(row, row)), 1e-8)
            local_training._unit_rows(diffs, 1e-8, 2, 1)
            assert np.array_equal(diffs, want)
        diffs = np.ones((4, 3))
        diffs[1, 0], diffs[2, 1] = np.nan, np.inf
        message = "soup member 3 diverged: its distance to member 2 is {}"
        with pytest.raises(ValueError, match=f"^{message.format('nan')}$"):
            local_training._unit_rows(diffs, 1e-8, 3, 2)
        with pytest.raises(ValueError, match=f"^{message.format('inf')}$"):
            local_training._unit_rows(diffs[::-1].copy(), 1e-8, 3, 2)

    @pytest.mark.parametrize("pool_size", [1, 2, 5, 9, 13])
    def test_a_phase_coefficient_block_equals_one_draw_per_step(self, pool_size):
        (block,) = local_training._coeff_rows(
            pool_size, 7, "uniform_random", [np.random.default_rng(3)]
        )
        rng = np.random.default_rng(3)
        for row in block:
            u = rng.uniform(0.0, 1.0, size=pool_size)
            assert np.array_equal(row, u / u.sum())

    @pytest.mark.parametrize("seed", [0, 3, 17, 2**40 + 5])
    @pytest.mark.parametrize("steps, pool_size", [(1, 1), (1, 4), (7, 2), (20, 5), (33, 13)])
    def test_coefficient_draws_are_the_bits_of_uniform(self, seed, steps, pool_size):
        # The blocks are drawn with ``rng.random``; the coefficients were
        # specified by ``rng.uniform(0.0, 1.0)``, which gives the same bits.
        rngs = [np.random.default_rng([seed, g]) for g in range(3)]
        block = local_training._coeff_rows(pool_size, steps, "uniform_random", rngs)
        for g, got in enumerate(block):
            u = np.random.default_rng([seed, g]).uniform(0.0, 1.0, size=(steps, pool_size))
            assert np.array_equal(got, u / u.sum(axis=-1, keepdims=True))

    def test_an_all_zero_draw_falls_back_to_equal_weights(self):
        class Draws:
            def random(self, size):
                return np.array([[1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 0.0, 0.0]])

        block = local_training._coeff_rows(4, 2, "uniform_random", [Draws()])
        assert np.array_equal(block, [[[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25]]])

    @pytest.mark.parametrize("mode", COEFF_MODES)
    @pytest.mark.parametrize("pool_size", [1, 2, 4, 5])
    def test_a_group_coefficient_block_equals_each_clients_alone(self, mode, pool_size):
        class Zeros:
            """A stream whose draws are all zero, for every shape."""

            def random(self, size):
                return np.zeros(size)

        def streams():
            # Client 2 draws all zeros, and takes the equal-weight rows.
            rngs = [np.random.default_rng(seed) for seed in range(6)]
            rngs[2] = Zeros()
            return rngs

        block = local_training._coeff_rows(pool_size, 7, mode, streams())
        assert block.shape == (6, 7, pool_size)
        for got, rng in zip(block, streams(), strict=True):
            (want,) = local_training._coeff_rows(pool_size, 7, mode, [rng])
            assert np.array_equal(got, want)
        if mode == "uniform_random":
            assert np.array_equal(block[2], np.full((7, pool_size), 1.0 / pool_size))
            # and each row is the one-row draw of ``sample_interp_coeffs``
            rng = np.random.default_rng(4)
            for row in block[4]:
                assert np.array_equal(row, sample_interp_coeffs(pool_size, mode, rng))

    def test_one_seed_per_client(self):
        spec, anchor, _ = engine_case((), "relu", 3)
        datasets = lockstep_clients(spec, [3, 3])
        # checked once a round, also for a client that trains alone
        for seeds in ([1], [1, 2, 3]):
            with pytest.raises(ValueError, match=f"{len(seeds)} seeds for 2 clients"):
                train_clients("lss", anchor, spec, datasets, LocalConfig(), seeds)
        with pytest.raises(ValueError, match="2 seeds for 1 clients"):
            train_clients("fedavg", anchor, spec, datasets[:1], LocalConfig(), [1, 2])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 24), min_size=1, max_size=6),  # 1 to 3 batches of 8
    per_group=st.integers(1, 6),
    strategy=st.sampled_from(["lss", "fedprox", "fedavg"]),
    members=st.integers(1, 3),
    tau=st.integers(1, 3),
    lambda_a=st.sampled_from([0.0, 0.7]),
    lambda_d=st.sampled_from([0.0, 0.4]),
    mu_prox=st.sampled_from([0.0, 0.3]),
    coeff_mode=st.sampled_from(COEFF_MODES),
    activation=st.sampled_from(["relu", "tanh"]),
    hidden=st.sampled_from([(), (3,), (4, 3)]),
    classes=st.sampled_from([3, 17]),
)
def test_lockstep_rounds_give_each_client_its_bits_alone_on_drawn_shapes(
    sizes, per_group, strategy, members, tau, lambda_a, lambda_d, mu_prox, coeff_mode,
    activation, hidden, classes,
):
    """A round under a drawn float budget, so that the lockstep groups and
    the scoring chunks are cut anywhere: each client's upload is the one it
    gets alone, and each score and update norm is the one of ``accuracy``
    and ``l2_distance`` on the upload alone."""
    spec = MlpSpec(input_dim=4, hidden_dims=hidden, num_classes=classes, activation=activation)
    anchor = perturbed(init_params(spec, 1), np.random.default_rng(2), 0.3)
    cfg = LocalConfig(
        eta=0.2, tau=tau, batch_size=8, lambda_a=lambda_a, lambda_d=lambda_d,
        num_pool_models=members, mu_prox=mu_prox, coeff_mode=coeff_mode,
    )
    datasets = lockstep_clients(spec, sizes)
    clients = [federation.ClientState(i, d) for i, d in enumerate(datasets)]
    eval_data = lockstep_clients(spec, [11], seed=6)[0]
    pool = members if strategy == "lss" else 1
    # room for ``per_group`` clients (see ``_clients_per_group``)
    budget = per_group * (pool + 4) * anchor.dim
    with mock.patch.object(local_training, "LOCKSTEP_FLOATS", budget):
        groups = lockstep_groups(datasets, anchor.dim, pool)
        _, record, finals = federation.run_round(
            anchor, clients, spec, cfg, strategy, 1, 13, eval_data
        )
    assert len(groups) == -(-len(sizes) // per_group)
    for i, (data, final) in enumerate(zip(datasets, finals, strict=True)):
        _, want = alone(strategy, anchor, spec, data, cfg, federation.derive_seed(13, i))
        assert np.array_equal(final.values, want.values)
    assert record.per_client_pre_agg_accuracy == tuple(
        accuracy(f, spec, eval_data) for f in finals
    )
    assert record.per_client_update_norm == tuple(l2_distance(f, anchor) for f in finals)
