import math

import numpy as np
import pytest

from hessian_oracle import FakeStack
from lss import analysis
from lss.analysis import (
    TheoryParams,
    bvcl_diagnostics,
    convergence_bound,
    ensemble_variance_split,
    estimate_sigma,
    estimate_zeta,
    hessian_top_eig,
    lr_choice,
    max_local_steps,
    write_diagnostics,
)
from lss.data import Dataset, dirichlet_partition, gen_blobs
from lss.model import MlpSpec, init_params
from lss.params import ParamVector, l2_distance


# ---------------------------------------------------------------------------
# Independent scalar calculator: same formulas assembled via logs/exps so a
# transcription slip in the library cannot hide. Shared by nothing else.
# ---------------------------------------------------------------------------


def _pow(base, num, den):
    if base == 0.0:
        return 0.0
    return math.exp((num / den) * math.log(base))


def oracle_lr(beta, sigma, zeta, c, d, m, tau, r):
    terms = [1.0 / (4.0 * beta)]
    if sigma > 0:
        terms.append(_pow(m, 1, 2) * d / (_pow(tau, 1, 2) * _pow(r, 1, 2) * sigma))
        terms.append(
            _pow(d, 2, 3) / (_pow(tau, 2, 3) * _pow(r, 1, 3) * _pow(beta, 1, 3) * _pow(sigma, 2, 3))
        )
    if zeta + c > 0:
        terms.append(
            _pow(d, 2, 3) / (tau * _pow(r, 1, 3) * _pow(beta, 1, 3) * _pow(zeta + c, 2, 3))
        )
    return min(terms)


def oracle_bound(beta, sigma, zeta, c, d, m, tau, r):
    t1 = 2.0 * beta * r * r / (tau * r)
    t2 = 2.0 * sigma * d / _pow(m * tau * r, 1, 2)
    t3 = 5.0 * _pow(beta, 1, 3) * _pow(sigma, 2, 3) * _pow(d, 4, 3) / (_pow(tau, 1, 3) * _pow(r, 2, 3))
    t4 = 15.0 * _pow(beta, 1, 3) * _pow(zeta + c, 2, 3) * _pow(d, 4, 3) / _pow(r, 2, 3)
    return t1 + t2 + t3 + t4


def oracle_tau_ceiling(beta, sigma, zeta, c, d, m, k):
    return (sigma / (zeta + c)) * _pow((sigma / (d * beta)) * _pow(k, 1, 2) / (m * m), 1, 2)


def theory_grid():
    # 20 parameter points spanning the regimes of all four learning-rate terms
    grid = []
    for beta in (0.5, 2.0):
        for sigma in (0.1, 1.0):
            for gap in (0.2, 1.5):
                for tau, r in ((4, 2), (8, 3), (16, 8)):
                    zeta, c = 0.7 * gap, 0.3 * gap
                    grid.append(
                        TheoryParams(
                            beta=beta, sigma=sigma, zeta=zeta, c=c, d=1.3,
                            num_clients=5, tau=tau, rounds=r,
                        )
                    )
    assert len(grid) >= 20
    return grid[:20]


class TestTheoryParams:
    def test_total_grads(self):
        p = TheoryParams(beta=1, sigma=1, zeta=1, c=0, d=1, num_clients=4, tau=8, rounds=2)
        assert p.total_grads == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            TheoryParams(beta=0, sigma=1, zeta=1, c=0, d=1, num_clients=1, tau=1, rounds=1)
        with pytest.raises(ValueError):
            TheoryParams(beta=1, sigma=1, zeta=1, c=0, d=0, num_clients=1, tau=1, rounds=1)
        with pytest.raises(ValueError):
            TheoryParams(beta=1, sigma=-1, zeta=1, c=0, d=1, num_clients=1, tau=1, rounds=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["beta", "sigma", "zeta", "c", "d"])
    def test_non_finite_constant_rejected_by_name(self, name, bad):
        constants = dict(beta=1, sigma=1, zeta=1, c=0, d=1, num_clients=1, tau=1, rounds=1)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {bad}$"):
            TheoryParams(**{**constants, name: bad})


class TestLrChoice:
    def test_matches_independent_calculator_to_12_digits(self):
        for p in theory_grid():
            mine = lr_choice(p)
            ref = oracle_lr(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.tau, p.rounds)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_degenerate_constants_leave_smoothness_term(self):
        p = TheoryParams(beta=2.0, sigma=0.0, zeta=0.0, c=0.0, d=1.0, num_clients=4, tau=8, rounds=2)
        assert lr_choice(p) == 1.0 / 8.0

    def test_worked_example_picks_heterogeneity_term(self):
        p = TheoryParams(beta=1, sigma=1, zeta=0.5, c=0.5, d=1, num_clients=4, tau=8, rounds=2)
        terms = [
            0.25,
            math.sqrt(4) * 1 / (math.sqrt(8) * math.sqrt(2) * 1),
            1 / (8 ** (2 / 3) * 2 ** (1 / 3)),
            1 / (8 * 2 ** (1 / 3)),
        ]
        assert terms[3] == min(terms)
        assert lr_choice(p) == pytest.approx(terms[3], rel=1e-15)
        assert lr_choice(p) == pytest.approx(0.0992125657, rel=1e-9)

    def test_never_exceeds_smoothness_cap(self):
        for p in theory_grid():
            assert lr_choice(p) <= 1.0 / (4.0 * p.beta) + 1e-18

    def test_huge_constants_make_noise_terms_dominate(self):
        p = TheoryParams(
            beta=1.0, sigma=1e9, zeta=1e9, c=1e9, d=1.0, num_clients=4, tau=8, rounds=2
        )
        assert lr_choice(p) < 1.0 / (4.0 * p.beta)


class TestConvergenceBound:
    def test_matches_independent_calculator_to_12_digits(self):
        for p in theory_grid():
            mine = convergence_bound(p)
            ref = oracle_bound(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.tau, p.rounds)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_noise_free_case_reduces_to_first_term(self):
        p = TheoryParams(beta=1.5, sigma=0.0, zeta=0.0, c=0.0, d=2.0, num_clients=3, tau=4, rounds=6)
        assert convergence_bound(p) == pytest.approx(2 * 1.5 * 6 * 6 / (4 * 6), rel=1e-15)

    def test_doubling_tau_moves_only_terms_one_and_three(self):
        base = dict(beta=1.0, sigma=1.0, zeta=0.5, c=0.5, d=1.0, num_clients=4, rounds=2)

        def terms(tau):
            p = TheoryParams(tau=tau, **base)
            t1 = 2 * p.beta * p.rounds / p.tau
            t2 = 2 * p.sigma * p.d / math.sqrt(p.num_clients * p.tau * p.rounds)
            t3 = 5 * p.beta ** (1 / 3) * p.sigma ** (2 / 3) * p.d ** (4 / 3) / (
                p.tau ** (1 / 3) * p.rounds ** (2 / 3)
            )
            t4 = 15 * p.beta ** (1 / 3) * (p.zeta + p.c) ** (2 / 3) * p.d ** (4 / 3) / (
                p.rounds ** (2 / 3)
            )
            assert convergence_bound(p) == pytest.approx(t1 + t2 + t3 + t4, rel=1e-12)
            return t1, t2, t3, t4

        a, b = terms(8), terms(16)
        assert b[0] < a[0] and b[2] < a[2]
        assert b[3] == a[3]

    def test_alternate_first_term_reading(self):
        p = TheoryParams(beta=1.0, sigma=0.0, zeta=0.0, c=0.0, d=3.0, num_clients=1, tau=2, rounds=5)
        assert convergence_bound(p, first_term="r_squared") == pytest.approx(2 * 25 / 10)
        assert convergence_bound(p, first_term="d_squared") == pytest.approx(2 * 9 / 10)
        with pytest.raises(ValueError):
            convergence_bound(p, first_term="other")

    def test_increasing_in_zeta_and_c(self):
        for p in theory_grid():
            for field in ("zeta", "c"):
                bumped = TheoryParams(**{**p.__dict__, field: getattr(p, field) + 0.5})
                assert convergence_bound(bumped) > convergence_bound(p)

    def test_decreasing_in_rounds_where_last_term_dominates(self):
        base = dict(beta=0.1, sigma=0.1, zeta=4.0, c=2.0, d=1.0, num_clients=4, tau=2)
        values = []
        for r in (2, 3, 4, 6, 8):
            p = TheoryParams(rounds=r, **base)
            t4 = 15 * p.beta ** (1 / 3) * (p.zeta + p.c) ** (2 / 3) * p.d ** (4 / 3) / r ** (2 / 3)
            total = convergence_bound(p)
            assert t4 > 0.5 * total  # dominance precondition for the check
            values.append(total)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestMaxLocalSteps:
    def test_hand_example(self):
        p = TheoryParams(beta=1.0, sigma=2.0, zeta=0.6, c=0.4, d=1.0, num_clients=2, tau=8, rounds=16)
        assert p.total_grads == 256
        assert max_local_steps(p) == pytest.approx(2 * math.sqrt(8.0), rel=1e-15)

    def test_matches_independent_calculator(self):
        for p in theory_grid():
            mine = max_local_steps(p)
            ref = oracle_tau_ceiling(p.beta, p.sigma, p.zeta, p.c, p.d, p.num_clients, p.total_grads)
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_sixteenfold_budget_doubles_ceiling(self):
        base = TheoryParams(beta=1.0, sigma=1.0, zeta=0.5, c=0.5, d=1.0, num_clients=2, tau=4, rounds=4)
        bigger = TheoryParams(**{**base.__dict__, "rounds": 64})
        assert bigger.total_grads == 16 * base.total_grads
        assert max_local_steps(bigger) == pytest.approx(2 * max_local_steps(base), rel=1e-12)

    def test_doubling_gap_halves_ceiling(self):
        a = TheoryParams(beta=1.0, sigma=1.0, zeta=0.5, c=0.5, d=1.0, num_clients=2, tau=4, rounds=4)
        b = TheoryParams(**{**a.__dict__, "zeta": 1.0, "c": 1.0})
        assert max_local_steps(b) == pytest.approx(0.5 * max_local_steps(a), rel=1e-12)

    def test_zero_gap_is_unbounded(self):
        p = TheoryParams(beta=1.0, sigma=1.0, zeta=0.0, c=0.0, d=1.0, num_clients=2, tau=4, rounds=4)
        assert max_local_steps(p) == math.inf

    def test_monotonicities_on_grid(self):
        for p in theory_grid():
            more_clients = TheoryParams(**{**p.__dict__, "num_clients": p.num_clients + 3})
            # K grows with M too, but the M^2 penalty wins
            assert max_local_steps(more_clients) < max_local_steps(p)
            more_noise = TheoryParams(**{**p.__dict__, "sigma": p.sigma * 2})
            assert max_local_steps(more_noise) > max_local_steps(p)


class TestEstimateZeta:
    def test_identical_clients_have_zero_gap(self):
        data = gen_blobs(3, 30, 4, 0.8, seed=1)
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=3)
        params = init_params(spec, 0)
        assert estimate_zeta(params, spec, [data, data, data]) < 1e-10

    def test_hand_built_opposing_gradients(self):
        # one client holds (x=1, y=0), the other (x=1, y=1); at zero weights
        # the softmax is uniform, so each client's gradient is (-+0.5, +-0.5)
        # for W and the same for b: gap norm = sqrt(4 * 0.25) = 1
        spec = MlpSpec(input_dim=1, hidden_dims=(), num_classes=2)
        params = ParamVector(np.zeros(4))
        c1 = Dataset(np.array([[1.0], [1.0]]), np.array([0, 0]), 2)
        c2 = Dataset(np.array([[1.0], [1.0]]), np.array([1, 1]), 2)
        assert estimate_zeta(params, spec, [c1, c2]) == pytest.approx(1.0, abs=1e-12)

    def test_gap_grows_with_heterogeneity(self):
        data = gen_blobs(6, 100, 5, 0.8, seed=2)
        spec = MlpSpec(input_dim=5, hidden_dims=(), num_classes=6)
        params = init_params(spec, 1)

        def mean_gap(alpha):
            out = []
            for seed in range(10):
                plan = dirichlet_partition(data, 4, alpha, seed=seed)
                clients = [data.subset(ids) for ids in plan.client_indices]
                out.append(estimate_zeta(params, spec, clients))
            return np.mean(out)

        assert mean_gap(0.1) > mean_gap(100.0)

    def test_empty_clients_rejected(self):
        spec = MlpSpec(input_dim=1, hidden_dims=(), num_classes=2)
        with pytest.raises(ValueError):
            estimate_zeta(ParamVector(np.zeros(4)), spec, [])


class TestEstimateSigma:
    def test_full_batch_has_no_noise(self):
        data = gen_blobs(3, 20, 4, 0.8, seed=3)
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=3)
        params = init_params(spec, 0)
        assert estimate_sigma(params, spec, [data], data.n, num_draws=4, seeds=[0]) == 0.0

    def test_identical_samples_have_no_noise(self):
        row = np.ones(4)
        data = Dataset(np.vstack([row] * 12), np.zeros(12, dtype=int) + 1, 2)
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=2)
        params = init_params(spec, 0)
        assert estimate_sigma(params, spec, [data], batch_size=4, num_draws=8, seeds=[1]) < 1e-10

    def test_frozen_fixture_value(self):
        # golden value from the first audited run of this estimator
        data = gen_blobs(4, 50, 6, 1.0, seed=9)
        spec = MlpSpec(input_dim=6, hidden_dims=(), num_classes=4)
        params = init_params(spec, 2)
        value = estimate_sigma(params, spec, [data], batch_size=16, num_draws=64, seeds=[77])
        assert value == pytest.approx(1.0147924799982897, rel=1e-12)

    def test_too_few_draws(self):
        data = gen_blobs(2, 5, 3, 0.8, seed=0)
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=2)
        with pytest.raises(ValueError):
            estimate_sigma(init_params(spec, 0), spec, [data], batch_size=2, num_draws=1, seeds=[0])


class TestBvcl:
    def _models(self, n, seed=0, scale=0.4):
        spec = MlpSpec(input_dim=5, hidden_dims=(), num_classes=3)
        rng = np.random.default_rng(seed)
        base = init_params(spec, 0)
        models = [
            ParamVector(base.values + scale * rng.standard_normal(base.dim))
            for _ in range(n)
        ]
        data = gen_blobs(3, 20, 5, 0.8, seed=4)
        return spec, models, data

    def test_identical_models_give_zeros(self):
        spec, models, data = self._models(1)
        out = bvcl_diagnostics([models[0]] * 3, spec, data)
        # float dust only: averaging three identical vectors rounds at 1 ulp
        assert abs(out.variance) < 1e-30
        assert abs(out.covariance) < 1e-30
        assert out.locality < 1e-12

    def test_two_model_locality_is_half_distance(self):
        spec, models, data = self._models(2, seed=5)
        out = bvcl_diagnostics(models, spec, data)
        assert out.locality == pytest.approx(0.5 * l2_distance(models[0], models[1]), abs=1e-12)

    def test_exchangeable_under_permutation(self):
        spec, models, data = self._models(4, seed=6)
        ref = bvcl_diagnostics(models, spec, data)
        perm = bvcl_diagnostics([models[i] for i in (2, 0, 3, 1)], spec, data)
        assert perm.variance == pytest.approx(ref.variance, abs=1e-12)
        assert perm.covariance == pytest.approx(ref.covariance, abs=1e-12)
        assert perm.locality == pytest.approx(ref.locality, abs=1e-12)

    def test_eval_set_is_checked_against_the_spec(self):
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=3)
        models = [init_params(spec, s) for s in (0, 1)]
        wide = gen_blobs(3, 10, 6, 0.8, seed=4)
        with pytest.raises(ValueError, match="^dataset has 6 features, spec expects 4$"):
            bvcl_diagnostics(models, spec, wide)

    def test_needs_two_models(self):
        spec, models, data = self._models(1)
        with pytest.raises(ValueError):
            bvcl_diagnostics(models, spec, data)

    def test_variance_split_identity_on_generated_predictions(self):
        # correlated member predictions over many replicate draws
        rng = np.random.default_rng(7)
        draws, members, points = 4000, 5, 7
        shared = rng.standard_normal((draws, 1, points))
        noise = rng.standard_normal((draws, members, points))
        preds = 0.8 * shared + 0.6 * noise
        var_of_mean, var, cov = ensemble_variance_split(preds)
        # independent recomputation of each moment
        member_mean = preds.mean(axis=1)
        lhs = float(np.mean(member_mean.var(axis=0)))
        centered = preds - preds.mean(axis=0, keepdims=True)
        var_ref = float(np.mean(centered**2))
        cov_terms = []
        for i in range(members):
            for j in range(members):
                if i != j:
                    cov_terms.append(np.mean(centered[:, i] * centered[:, j], axis=0))
        cov_ref = float(np.mean(cov_terms))
        assert var == pytest.approx(var_ref, abs=1e-12)
        assert cov == pytest.approx(cov_ref, abs=1e-12)
        assert var_of_mean == pytest.approx(lhs, abs=1e-12)
        # the split identity itself
        assert var_of_mean == pytest.approx(var / members + (members - 1) / members * cov, abs=1e-8)
        # and the generated tensor is genuinely correlated
        assert cov > 0.1


class TestHessianTopEig:
    """The power iteration on quadratics ``diag(d)``, through the lockstep
    engine, one probe of stacked gradients ``d * point``."""

    def test_quadratic_recovers_top_eigenvalue(self):
        stack, rng = FakeStack(np.array([[3.0, 1.0]]), 1), np.random.default_rng(8)
        eig, = analysis._power_iteration(stack, np.zeros(2), 1, 50, rng)
        assert eig == pytest.approx(3.0, rel=0.01)

    def test_scaling_the_loss_doubles_the_estimate(self):
        d = np.array([3.0, 1.0, 0.5])
        rng = np.random.default_rng(9)
        one, two = (
            analysis._power_iteration(FakeStack(diag[None], 1), np.zeros(3), 1, 50, rng)[0]
            for diag in (d, 2 * d)
        )
        assert two == pytest.approx(2 * one, rel=0.02)

    def test_degenerate_gradient_raises_after_reseed(self):
        rng = np.random.default_rng(10)
        with pytest.raises(RuntimeError, match="degenerate"):
            analysis._power_iteration(FakeStack(np.zeros((1, 3)), 1), np.zeros(3), 1, 10, rng)

    def test_median_over_batches_close_to_full_batch(self):
        data = gen_blobs(4, 60, 5, 0.8, seed=11)
        spec = MlpSpec(input_dim=5, hidden_dims=(), num_classes=4)
        params = init_params(spec, 3)
        batched = hessian_top_eig(params, spec, data, iters=40, seed=0, batch_size=48)
        full = hessian_top_eig(params, spec, data, iters=40, seed=0, batch_size=data.n)
        assert batched == pytest.approx(full, rel=0.10)

    def test_convex_loss_has_non_negative_top_eigenvalue(self):
        data = gen_blobs(3, 30, 4, 0.8, seed=12)
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=3)
        params = init_params(spec, 4)
        assert hessian_top_eig(params, spec, data, iters=30, seed=1) >= 0.0

    def test_the_data_is_checked_against_the_spec(self):
        spec = MlpSpec(input_dim=4, hidden_dims=(), num_classes=3)
        wide = gen_blobs(3, 10, 6, 0.8, seed=4)
        with pytest.raises(ValueError, match="^dataset has 6 features, spec expects 4$"):
            hessian_top_eig(init_params(spec, 0), spec, wide, iters=3, seed=0)

    def test_iters_validation(self):
        data = gen_blobs(2, 5, 3, 0.8, seed=0)
        spec = MlpSpec(input_dim=3, hidden_dims=(), num_classes=2)
        with pytest.raises(ValueError):
            hessian_top_eig(init_params(spec, 0), spec, data, iters=0, seed=0)


class TestLockstepPowerIteration:
    diags = np.linspace(0.5, 3.0, 4 * 9).reshape(4, 9) ** np.arange(1, 5)[:, None]
    x = np.linspace(-1.0, 1.0, 9)

    def both(self, stack):
        """(engine result or error, generator state) and the oracle's."""
        results = []
        for run in (
            lambda rng: analysis._power_iteration(stack, self.x, 4, 8, rng),
            lambda rng: stack.oracle(self.x, 8, rng),
        ):
            rng = np.random.default_rng(17)
            try:
                got = [e.hex() for e in run(rng)]
            except (RuntimeError, ValueError) as err:
                got = (type(err), str(err))
            results.append((got, rng.bit_generator.state))
        return results

    @pytest.mark.parametrize("wave", [1, 2, 3, 4])
    @pytest.mark.parametrize("at", [0, 5])
    def test_a_probe_that_vanishes_once_is_reseeded_as_alone(self, wave, at):
        stack = FakeStack(self.diags, wave, vanish=1, at=at)
        engine, oracle = self.both(stack)
        assert engine == oracle
        assert isinstance(engine[0], list) and len(engine[0]) == 4
        assert stack.waves_with_vanish == 2
        # without the vanishing, probe 1 and every later one get other draws
        assert engine != self.both(FakeStack(self.diags, wave))[0]

    @pytest.mark.parametrize("wave", [1, 2, 4])
    def test_a_probe_that_vanishes_twice_raises(self, wave):
        engine, oracle = self.both(FakeStack(self.diags, wave, vanish=1, twice=True))
        assert engine == oracle
        assert engine[0] == (
            RuntimeError, "power iteration degenerate: Hessian-vector product vanished"
        )

    # A non-finite gradient raises only once the probes before it have
    # finished: a later probe's error gives way to an earlier probe's reseed
    # and to its second failure.
    @pytest.mark.parametrize("wave", [1, 2, 4])
    @pytest.mark.parametrize("twice", [False, True])
    def test_errors_come_in_probe_order(self, wave, twice):
        stack = FakeStack(self.diags, wave, vanish=1, at=5, twice=twice, blow_up=2)
        engine, oracle = self.both(stack)
        assert engine == oracle
        assert engine[0][0] is (RuntimeError if twice else ValueError)


def test_the_wave_bound_stacks_a_wide_mlp_one_batch_at_a_time():
    # the three benchmark workloads' models at their eval batches
    wide = MlpSpec(input_dim=128, hidden_dims=(256, 256), num_classes=10)
    mid = MlpSpec(input_dim=32, hidden_dims=(64,), num_classes=10)
    softmax = MlpSpec(input_dim=16, hidden_dims=(), num_classes=10)
    # a Hessian probe of a batch: five vectors, and the batch at two points
    assert analysis._wave_size(wide, 5, 2 * 50) == 1
    assert analysis._wave_size(mid, 5, 2 * 60) == 7
    assert analysis._wave_size(softmax, 5, 2 * 60) >= 5
    assert analysis._wave_size(softmax, 5, 2 * 10**9) == 1
    # a sigma draw of a training batch of 64: one vector and the batch
    assert analysis._wave_size(wide, 1, 64) == 1
    assert analysis._wave_size(mid, 1, 64) == 17
    assert analysis._wave_size(softmax, 1, 64) >= 32


class TestDiagnosticsReport:
    def test_key_value_lines(self, tmp_path):
        path = tmp_path / "diag.txt"
        write_diagnostics(path, {"alpha": 0.5, "name": "run", "count": 3})
        assert path.read_text().splitlines() == ["alpha: 0.5", "name: run", "count: 3"]
