import itertools

import numpy as np
import pytest

import lss.local_training as local_training
from conftest import finite_diff_grad, max_rel_err, perturbed, random_batch
from lss.data import Dataset
from lss.local_training import (
    COEFF_MODES,
    LocalConfig,
    MinibatchSampler,
    _spawn_rngs,
    affinity_loss,
    diversity_loss,
    fedprox_local_train,
    fedprox_loss_and_grad,
    interpolate,
    lss_local_train,
    lss_regularized_grad,
    mean_pairwise_distance,
    sample_interp_coeffs,
)
from lss.model import Batch, MlpSpec, init_params, loss_and_grad
from lss.params import ParamVector, axpy, l2_distance, uniform_average


def pv(*values):
    return ParamVector(np.array(values, dtype=np.float64))


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


class TestMinibatchSampler:
    def test_epoch_covers_every_sample_once(self):
        feats = np.arange(10, dtype=np.float64)[:, None]
        labels = np.zeros(10, dtype=np.int64)
        sampler = MinibatchSampler(feats, labels, 3, np.random.default_rng(0))
        seen = []
        for _ in range(4):  # 3 + 3 + 3 + 1
            seen.extend(sampler.next_batch().features[:, 0].astype(int))
        assert sorted(seen) == list(range(10))

    def test_reshuffles_after_exhaustion(self):
        feats = np.arange(6, dtype=np.float64)[:, None]
        labels = np.zeros(6, dtype=np.int64)
        sampler = MinibatchSampler(feats, labels, 2, np.random.default_rng(1))
        epoch1 = [tuple(sampler.next_batch().features[:, 0]) for _ in range(3)]
        epoch2 = [tuple(sampler.next_batch().features[:, 0]) for _ in range(3)]
        assert sorted(sum(epoch1, ())) == sorted(sum(epoch2, ()))

    def test_tiny_client_gets_whole_dataset(self):
        feats = np.arange(3, dtype=np.float64)[:, None]
        labels = np.zeros(3, dtype=np.int64)
        sampler = MinibatchSampler(feats, labels, 64, np.random.default_rng(2))
        batch = sampler.next_batch()
        assert batch.size == 3


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
        _, grad = loss_and_grad(softmax_anchor, softmax_spec, tiny.as_batch())
        expected = axpy(softmax_anchor, -0.2, grad)
        assert np.array_equal(out.values, expected.values)


class TestFedproxLocalTrain:
    def test_mu_zero_is_bit_identical_to_sgd(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=0.05, tau=8, batch_size=32, mu_prox=0.0)
        prox = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=5)
        # reference: minibatch SGD written out step by step
        rng_batch, _ = _spawn_rngs(5)
        sampler = MinibatchSampler(small_blobs.features, small_blobs.labels, 32, rng_batch)
        sgd = softmax_anchor
        for _ in range(8):
            _, grad = loss_and_grad(sgd, softmax_spec, sampler.next_batch())
            sgd = axpy(sgd, -0.05, grad)
        assert np.array_equal(prox.values, sgd.values)

    def test_strong_prox_pins_to_anchor(self, small_blobs, softmax_spec, softmax_anchor):
        cfg = LocalConfig(eta=1e-7, tau=50, batch_size=32, mu_prox=1e6)
        out = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=5)
        assert l2_distance(out, softmax_anchor) < 1e-3

    def test_prox_gradient_vanishes_at_anchor(self, small_blobs, softmax_spec, softmax_anchor):
        batch = small_blobs.as_batch()
        base_loss, base_grad = loss_and_grad(softmax_anchor, softmax_spec, batch)
        loss, grad = fedprox_loss_and_grad(
            softmax_anchor, softmax_anchor, softmax_spec, batch, mu=7.0
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
    rng_batch, rng_coeff = _spawn_rngs(seed)
    sampler = MinibatchSampler(data.features, data.labels, cfg.batch_size, rng_batch)
    pool = [anchor]
    for _ in range(cfg.num_pool_models):
        pool.append(uniform_average(pool))
        for _ in range(cfg.tau):
            coeffs = sample_interp_coeffs(len(pool), cfg.coeff_mode, rng_coeff)
            _, grad = lss_regularized_grad(pool, coeffs, spec, sampler.next_batch(), cfg)
            pool[-1] = axpy(pool[-1], -cfg.eta, grad)
    return pool, uniform_average(pool)


def reference_fedprox(anchor, spec, data, cfg, seed):
    rng_batch, _ = _spawn_rngs(seed)
    sampler = MinibatchSampler(data.features, data.labels, cfg.batch_size, rng_batch)
    f = anchor
    for _ in range(cfg.tau):
        _, grad = fedprox_loss_and_grad(f, anchor, spec, sampler.next_batch(), cfg.mu_prox)
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
            with pytest.raises(ValueError, match="non-finite"):
                lss_local_train(anchor, spec, data, cfg, seed=0)
            with pytest.raises(ValueError, match="non-finite"):
                fedprox_local_train(anchor, spec, data, cfg, seed=0)

    def test_bad_inputs_rejected_before_any_step(self, monkeypatch):
        steps = []
        monkeypatch.setattr(local_training, "_backprop", lambda *a: steps.append(a))
        spec, anchor, _ = engine_case((), "relu", 7)
        wide = Dataset(np.zeros((4, 4)), [0, 1, 2, 4], 5)  # label 4, spec has 3 classes
        cfg = LocalConfig(eta=0.1, tau=3, batch_size=16, num_pool_models=2)
        for train in (lss_local_train, fedprox_local_train):
            with pytest.raises(ValueError, match="num_classes=3"):
                train(anchor, spec, wide, cfg, seed=0)
            with pytest.raises(ValueError, match="spec needs"):
                train(pv(1.0, 2.0), spec, wide, cfg, seed=0)
        assert steps == []
