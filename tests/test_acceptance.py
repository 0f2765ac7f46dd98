"""Acceptance suite: one test per exit criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
verdicts.  Desk-scale fixtures are pinned (data geometry, learning rates,
master seeds); every assertion tolerance is stated inline.
"""

import math
import time

import numpy as np
import pytest

from conftest import finite_diff_grad, max_rel_err, perturbed, random_batch
from lss.analysis import (
    TheoryParams,
    bvcl_diagnostics,
    convergence_bound,
    ensemble_variance_split,
    lr_choice,
    max_local_steps,
    top_hessian_eigenvalue_from_grad,
)
from lss.cli import main
from lss.config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from lss.data import Dataset, gen_blobs
from lss.experiment import run_experiment
from lss.local_training import (
    LocalConfig,
    affinity_loss,
    diversity_loss,
    fedprox_local_train,
    fedprox_loss_and_grad,
    interpolate,
    lss_local_train,
    lss_regularized_grad,
    sample_interp_coeffs,
)
from lss.model import MlpSpec, init_params, loss_and_grad
from lss.params import ParamVector, l2_distance, uniform_average, weighted_average

from test_analysis import oracle_bound, oracle_lr, oracle_tau_ceiling, theory_grid

MASTER_SEEDS = (11, 12, 13)


def report(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {text}")


def headline_config(strategy: str, rounds: int, seed: int) -> ExperimentConfig:
    # 10-class blobs, dim 16, 300/class, 5 clients, dirichlet 0.3, warm anchor
    return ExperimentConfig(
        master_seed=seed, output_dir="unused", rounds=rounds, strategy=strategy,
        num_clients=5, warmup_steps=200, warmup_eta=0.2,
        data=DataConfig(num_classes=10, per_class=300, input_dim=16, spread=1.8),
        model=ModelConfig(),
        partition=PartitionConfig(mode="dirichlet", alpha=0.3),
        local=LocalConfig(
            eta=6.0, tau=8, batch_size=64, lambda_a=3.0, lambda_d=3.0,
            num_pool_models=4,
        ),
        analysis=AnalysisConfig(),
    )


class TestCriterion1GradientOracles:
    def test_all_gradients_match_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1000)
        worst = 0.0
        instances = 0

        # task loss
        for trial in range(20):
            spec = MlpSpec(
                input_dim=int(rng.integers(2, 5)),
                hidden_dims=() if trial % 2 else (int(rng.integers(2, 4)),),
                num_classes=int(rng.integers(2, 5)),
                activation="tanh" if trial % 3 else "relu",
            )
            params = perturbed(init_params(spec, trial), rng, 0.4)
            batch = random_batch(rng, spec, int(rng.integers(2, 8)))
            _, grad = loss_and_grad(params, spec, batch)
            fd = finite_diff_grad(lambda x: loss_and_grad(ParamVector(x), spec, batch)[0], params.values)
            worst = max(worst, max_rel_err(grad.values, fd))
            instances += 1

        # proximal objective
        for trial in range(15):
            spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=3)
            anchor = init_params(spec, trial)
            params = perturbed(anchor, rng, 0.5)
            batch = random_batch(rng, spec, 5)
            mu = float(rng.uniform(0.1, 3.0))
            _, grad = fedprox_loss_and_grad(params, anchor, spec, batch, mu)
            fd = finite_diff_grad(
                lambda x: fedprox_loss_and_grad(ParamVector(x), anchor, spec, batch, mu)[0],
                params.values,
            )
            worst = max(worst, max_rel_err(grad.values, fd))
            instances += 1

        # soup objective with both regularizers
        for trial in range(15):
            spec = MlpSpec(input_dim=int(rng.integers(2, 4)), hidden_dims=(), num_classes=3)
            anchor = perturbed(init_params(spec, trial), rng, 0.5)
            pool = [anchor] + [
                perturbed(anchor, rng, 0.5) for _ in range(int(rng.integers(1, 4)))
            ]
            batch = random_batch(rng, spec, 5)
            cfg = LocalConfig(
                lambda_a=float(rng.uniform(0, 4)), lambda_d=float(rng.uniform(0, 4))
            )
            coeffs = sample_interp_coeffs(len(pool), "uniform_random", rng)
            _, grad = lss_regularized_grad(pool, coeffs, spec, batch, cfg)
            frozen = pool[:-1]

            def scalar(x):
                task = loss_and_grad(interpolate([*frozen, ParamVector(x)], coeffs), spec, batch)[0]
                return (
                    task
                    + cfg.lambda_a * affinity_loss(ParamVector(x), pool[0])
                    - cfg.lambda_d * diversity_loss(ParamVector(x), frozen)
                )

            fd = finite_diff_grad(scalar, pool[-1].values)
            worst = max(worst, max_rel_err(grad.values, fd))
            instances += 1

        elapsed = time.perf_counter() - t0
        assert instances >= 50
        assert worst < 1e-4
        assert elapsed < 30.0
        report(1, f"{instances} gradient instances, max rel err {worst:.2e}, {elapsed:.1f}s")


class TestCriterion2Reductions:
    def test_fedprox_mu_zero_equals_fedavg(self, small_blobs, softmax_spec, softmax_anchor):
        from lss.federation import ClientState, run_round

        chunks = np.array_split(np.arange(small_blobs.n), 3)
        clients = [ClientState(i, small_blobs.subset(c)) for i, c in enumerate(chunks)]

        def one_round(strategy, mu):
            local = LocalConfig(eta=0.05, tau=8, batch_size=32, mu_prox=mu)
            return run_round(
                softmax_anchor, clients, softmax_spec, local, strategy, 1, 5, small_blobs
            )

        avg_model, avg_record, avg_finals = one_round("fedavg", 0.5)
        prox_model, prox_record, prox_finals = one_round("fedprox", 0.0)
        assert np.array_equal(avg_model.values, prox_model.values)
        for a, b in zip(avg_finals, prox_finals, strict=True):
            assert np.array_equal(a.values, b.values)
        assert avg_record.per_client_update_norm == prox_record.per_client_update_norm
        report(2, "FedAvg (mu_prox=0.5 ignored) round bit-identical to FedProx(mu=0)")

    def test_lss_reduction_tracks_plain_sgd(self, small_blobs, softmax_spec, softmax_anchor):
        for tau in (1, 4, 8):
            cfg = LocalConfig(
                eta=0.05, tau=tau, batch_size=32, lambda_a=0.0, lambda_d=0.0,
                num_pool_models=1, coeff_mode="active_only",
            )
            _, trace = lss_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=42)
            sgd = fedprox_local_train(softmax_anchor, softmax_spec, small_blobs, cfg, seed=42)
            assert np.array_equal(trace.pool_members[-1].values, sgd.values)
        report(2, "LSS(N=1, lambdas=0, active_only) active member bit-identical to SGD")

    def test_single_client_fedavg_is_centralized_sgd(self):
        from lss.data import split_dataset
        from lss.federation import ClientState, derive_seed, run_round

        data = gen_blobs(6, 120, 8, 1.0, seed=31)
        _, _, test = split_dataset(data, (0.8, 0.1, 0.1), seed=1)
        spec = MlpSpec(input_dim=8, hidden_dims=(), num_classes=6)
        anchor = init_params(spec, 2)
        local = LocalConfig(eta=0.05, tau=5, batch_size=32, mu_prox=0.0)
        model = anchor
        reference = anchor
        for r in (1, 2, 3):
            round_seed = derive_seed(8, "round", r)
            model, _, _ = run_round(
                model, [ClientState(0, data)], spec, local, "fedavg", r, round_seed, test
            )
            reference = fedprox_local_train(
                reference, spec, data, local, derive_seed(round_seed, 0)
            )
        assert np.array_equal(model.values, reference.values)
        report(2, "single-client FedAvg for 3 rounds bit-identical to centralized SGD")


class TestCriterion3SimplexAndAggregation:
    def test_hundred_thousand_coefficient_draws(self):
        rng = np.random.default_rng(77)
        draws = np.array(
            [sample_interp_coeffs(4, "uniform_random", rng) for _ in range(100_000)]
        )
        assert np.all(draws >= 0.0)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) < 1e-12
        report(3, "1e5 coefficient draws on the simplex, |sum-1| < 1e-12")

    def test_aggregation_invariants(self):
        rng = np.random.default_rng(78)
        v = ParamVector(rng.standard_normal(100))
        out = weighted_average([v], [1.0])
        assert np.array_equal(out.values, v.values)
        models = [ParamVector(rng.standard_normal(100)) for _ in range(5)]
        raw = rng.uniform(0.2, 1.0, 5)
        weights = raw / raw.sum()
        ref = weighted_average(models, weights)
        for _ in range(10):
            perm = rng.permutation(5)
            out = weighted_average([models[i] for i in perm], [weights[i] for i in perm])
            assert np.max(np.abs(out.values - ref.values)) < 1e-12
        report(3, "weighted_average idempotence and permutation invariance within 1e-12")


class TestCriterion4HeadlineOrdering:
    def test_soup_beats_fedavg_at_one_round(self):
        t0 = time.perf_counter()
        fedavg_r1, fedavg_r3, soup_r1 = [], [], []
        for seed in MASTER_SEEDS:
            records = run_experiment(headline_config("fedavg", 3, seed)).records
            fedavg_r1.append(records[0].global_test_accuracy)
            fedavg_r3.append(records[2].global_test_accuracy)
            soup = run_experiment(headline_config("lss", 1, seed)).records
            soup_r1.append(soup[0].global_test_accuracy)
        elapsed = time.perf_counter() - t0
        gap = float(np.mean(soup_r1)) - float(np.mean(fedavg_r1))
        vs_r3 = float(np.mean(soup_r1)) - float(np.mean(fedavg_r3))
        assert gap >= 0.03, f"LSS@R1 - FedAvg@R1 = {gap:.4f} < 0.03"
        assert vs_r3 >= 0.0, f"LSS@R1 - FedAvg@R3 = {vs_r3:.4f} < 0"
        assert elapsed < 180.0
        report(
            4,
            f"LSS@R1 {np.mean(soup_r1):.3f} vs FedAvg@R1 {np.mean(fedavg_r1):.3f} "
            f"(gap {100 * gap:+.1f} pts) and FedAvg@R3 {np.mean(fedavg_r3):.3f}, "
            f"{elapsed:.1f}s over 3 seeds",
        )


class TestCriterion5LocalStepNonMonotonicity:
    def test_tau_sweep_rises_then_falls(self):
        taus = (1, 4, 8, 16)
        curves = []
        for seed in MASTER_SEEDS:
            row = []
            for tau in taus:
                cfg = ExperimentConfig(
                    master_seed=seed, output_dir="unused", rounds=1, strategy="fedavg",
                    num_clients=5, warmup_steps=0, warmup_eta=0.2,
                    data=DataConfig(num_classes=10, per_class=300, input_dim=16, spread=1.8),
                    model=ModelConfig(),
                    partition=PartitionConfig(mode="dirichlet", alpha=0.1),
                    local=LocalConfig(eta=2.2, tau=tau, batch_size=64),
                    analysis=AnalysisConfig(),
                )
                row.append(run_experiment(cfg).records[0].global_test_accuracy)
            curves.append(row)
        mean = np.mean(curves, axis=0)
        peak = int(np.argmax(mean))
        assert taus[peak] in (4, 8), f"peak at tau={taus[peak]}, curve {mean}"
        assert mean[peak] > mean[0], f"no rise: {mean}"
        assert mean[peak] > mean[-1], f"no fall: {mean}"
        report(
            5,
            "FedAvg accuracy over tau {1,4,8,16}: "
            + ", ".join(f"{a:.3f}" for a in mean)
            + f" (peak at tau={taus[peak]})",
        )


class TestCriterion6TheoryCalculators:
    def test_calculators_match_independent_evaluation(self):
        for p in theory_grid():
            assert lr_choice(p) == pytest.approx(
                oracle_lr(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.tau, p.rounds),
                rel=1e-12,
            )
            assert convergence_bound(p) == pytest.approx(
                oracle_bound(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.tau, p.rounds),
                rel=1e-12,
            )
            assert max_local_steps(p) == pytest.approx(
                oracle_tau_ceiling(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.total_grads),
                rel=1e-12,
            )
        report(6, f"{len(theory_grid())}-point grid matches the independent calculator to 12 digits")

    def test_monotonicity_properties_on_grid(self):
        for p in theory_grid():
            wider_gap = TheoryParams(**{**p.__dict__, "zeta": p.zeta + 0.4, "c": p.c + 0.4})
            assert max_local_steps(wider_gap) < max_local_steps(p)
            assert convergence_bound(wider_gap) > convergence_bound(p)
            bigger_budget = TheoryParams(**{**p.__dict__, "rounds": p.rounds * 16})
            assert max_local_steps(bigger_budget) > max_local_steps(p)
            bump_zeta = TheoryParams(**{**p.__dict__, "zeta": p.zeta + 0.4})
            bump_c = TheoryParams(**{**p.__dict__, "c": p.c + 0.4})
            assert convergence_bound(bump_zeta) > convergence_bound(p)
            assert convergence_bound(bump_c) > convergence_bound(p)
        report(6, "bound/ceiling monotonicities hold across the grid")


class TestCriterion7Diagnostics:
    def test_hessian_power_iteration_on_quadratic(self):
        a = np.diag([3.0, 1.0])
        rng = np.random.default_rng(8)
        eig = top_hessian_eigenvalue_from_grad(lambda x: a @ x, np.zeros(2), 50, rng)
        assert eig == pytest.approx(3.0, rel=0.01)
        report(7, f"quadratic top eigenvalue {eig:.6f} within 1% of analytic 3")

    def test_variance_split_identity(self):
        rng = np.random.default_rng(7)
        shared = rng.standard_normal((3000, 1, 5))
        noise = rng.standard_normal((3000, 6, 5))
        preds = 0.7 * shared + 0.5 * noise
        var_of_mean, var, cov = ensemble_variance_split(preds)
        rhs = var / 6 + (5 / 6) * cov
        assert var_of_mean == pytest.approx(rhs, abs=1e-8)
        report(7, f"variance split identity holds to {abs(var_of_mean - rhs):.2e}")

    def test_two_model_locality(self):
        spec = MlpSpec(input_dim=5, hidden_dims=(), num_classes=3)
        rng = np.random.default_rng(9)
        a = init_params(spec, 0)
        b = perturbed(a, rng, 0.5)
        data = gen_blobs(3, 15, 5, 0.8, seed=1)
        out = bvcl_diagnostics([a, b], spec, data)
        assert out.locality == pytest.approx(0.5 * l2_distance(a, b), abs=1e-12)
        report(7, "two-model locality equals half the pairwise distance within 1e-12")


class TestCriterion8RegularizerGeometry:
    def test_affinity_shrinks_and_diversity_spreads(self, small_blobs, softmax_spec, softmax_anchor):
        data = Dataset(small_blobs.features * 8.0, small_blobs.labels, small_blobs.num_classes)
        dists = []
        for lam in (0.0, 1.0, 3.0, 10.0):
            cfg = LocalConfig(eta=0.005, tau=8, batch_size=32, lambda_a=lam,
                              lambda_d=0.0, num_pool_models=4)
            final, _ = lss_local_train(softmax_anchor, softmax_spec, data, cfg, seed=21)
            dists.append(l2_distance(final, softmax_anchor))
        assert all(b <= a + 1e-6 for a, b in zip(dists, dists[1:])), dists

        spreads = []
        for lam in (0.0, 3.0):
            cfg = LocalConfig(eta=0.005, tau=8, batch_size=32, lambda_a=0.0,
                              lambda_d=lam, num_pool_models=4)
            _, trace = lss_local_train(softmax_anchor, softmax_spec, data, cfg, seed=21)
            spreads.append(trace.pool_mean_pairwise_distance)
        assert spreads[1] >= spreads[0], spreads
        report(
            8,
            "anchor distance over lambda_a {0,1,3,10}: "
            + ", ".join(f"{d:.4f}" for d in dists)
            + f"; pool spread {spreads[0]:.4f} -> {spreads[1]:.4f} at lambda_d=3",
        )


class TestCriterion9Reproducibility:
    SMOKE = """
experiment:
  master_seed: 99
  rounds: 2
  strategy: lss
  num_clients: 3
  warmup_steps: 10
data:
  num_classes: 4
  per_class: 50
  input_dim: 5
  spread: 1.0
local:
  eta: 0.05
  tau: 2
  batch_size: 16
  num_pool_models: 2
output:
  dir: OUTDIR
"""

    def test_rerun_and_thread_count_invariance(self, tmp_path):
        # Rounds train clients one after another; reruns must match bit for bit.
        cfg_path = tmp_path / "cfg.yaml"
        outputs = []
        for i in range(3):
            out = tmp_path / f"run{i}"
            cfg_path.write_text(self.SMOKE.replace("OUTDIR", str(out)))
            assert main(["run", str(cfg_path)]) == 0
            outputs.append(
                (
                    (out / "rounds.csv").read_bytes(),
                    (out / "final.lssw").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
        report(9, "rounds.csv and final.lssw bit-identical across three reruns")
