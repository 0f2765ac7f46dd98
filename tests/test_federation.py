import dataclasses

import numpy as np
import pytest

import lss.federation as federation
import lss.model as model
from lss.config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from lss.data import gen_blobs, split_dataset
from lss.experiment import run_experiment
from lss.federation import (
    CSV_HEADER,
    ClientState,
    RoundRecord,
    data_proportional_weights,
    derive_seed,
    run_round,
    train_client,
    warmup_pretrain,
    write_rounds_csv,
)
from lss.local_training import LocalConfig, fedprox_local_train, lss_local_train
from lss.model import MlpSpec, accuracy, evaluate, init_params
from lss.params import ParamVector


@pytest.fixture(scope="module")
def fed_setup():
    data = gen_blobs(6, 120, 8, 1.0, seed=31)
    train, _, test = split_dataset(data, (0.8, 0.1, 0.1), seed=1)
    spec = MlpSpec(input_dim=8, hidden_dims=(), num_classes=6)
    anchor = init_params(spec, 2)
    chunks = np.array_split(np.arange(train.n), 3)
    clients = [ClientState(i, train.subset(c)) for i, c in enumerate(chunks)]
    return spec, anchor, clients, test


class TestDeriveSeed:
    def test_stable_golden_value(self):
        # frozen: changing the hash scheme silently would break replayability
        assert derive_seed(123, "round", 7) == 8340355254483815054

    def test_distinct_parts_distinct_seeds(self):
        assert derive_seed(1, 2) != derive_seed(2, 1)
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_rejects_non_int_str(self):
        with pytest.raises(TypeError):
            derive_seed(1.5)

    def test_int_parts_outside_64_bits_are_rejected_not_reduced(self):
        # reduced mod 2**64, -1 and 2**64 - 1 would give the same seed
        assert derive_seed(0) != derive_seed(2**64 - 1)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError, match=rf"\[0, 2\*\*64\), got {bad}"):
                derive_seed(bad, "blobs")


class TestDataProportionalWeights:
    def test_data_proportional_weights(self, fed_setup):
        _, _, clients, _ = fed_setup
        weights = data_proportional_weights([c.data for c in clients])
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert weights[0] == pytest.approx(clients[0].data.n / sum(c.data.n for c in clients))


class TestWarmup:
    def test_zero_steps_returns_raw_initialization(self, fed_setup):
        spec, _, _, test = fed_setup
        out = warmup_pretrain(spec, test, steps=0, seed=77)
        assert np.array_equal(out.values, init_params(spec, 77).values)

    def test_deterministic(self, fed_setup):
        spec, _, clients, _ = fed_setup
        a = warmup_pretrain(spec, clients[0].data, 20, seed=5, eta=0.1)
        b = warmup_pretrain(spec, clients[0].data, 20, seed=5, eta=0.1)
        assert np.array_equal(a.values, b.values)

    def test_500_steps_reaches_good_proxy_accuracy(self):
        data = gen_blobs(10, 200, 8, 0.5, seed=13)
        spec = MlpSpec(input_dim=8, hidden_dims=(), num_classes=10)
        anchor = warmup_pretrain(spec, data, 500, seed=0, eta=0.1)
        assert accuracy(anchor, spec, data) > 0.8


class TestRunRound:
    def test_zero_local_steps_is_identity(self, fed_setup):
        spec, anchor, clients, test = fed_setup
        local = LocalConfig(eta=0.1, tau=0)
        new_global, record, _ = run_round(
            anchor, clients, spec, local, "fedavg", 1, derive_seed(0, "round", 1), test
        )
        np.testing.assert_allclose(new_global.values, anchor.values, rtol=0, atol=1e-12)
        assert record.round_index == 1
        assert all(u == 0.0 for u in record.per_client_update_norm)

    def test_single_client_weight_one_returns_client_final(self, fed_setup):
        spec, anchor, clients, test = fed_setup
        local = LocalConfig(eta=0.05, tau=4, batch_size=32)
        new_global, _, finals = run_round(
            anchor, clients[:1], spec, local, "fedavg", 1, 99, test
        )
        assert np.array_equal(new_global.values, finals[0].values)

    def test_hand_set_finals_aggregate_to_hand_average(self, fed_setup, monkeypatch):
        spec, anchor, clients, test = fed_setup
        # 48 and 144 samples give the uploads weights 0.25 and 0.75
        pooled = clients[0].data
        clients = [
            ClientState(0, pooled.subset(np.arange(48))),
            ClientState(1, pooled.subset(np.arange(48, 192))),
        ]
        fixed = {
            0: ParamVector(np.full(anchor.dim, 1.0)),
            1: ParamVector(np.full(anchor.dim, 3.0)),
        }

        def fake_train(strategy, a, s, data, local, seed):
            cid = next(c.client_id for c in clients if c.data is data)
            return fixed[cid]

        monkeypatch.setattr(federation, "train_client", fake_train)
        new_global, record, _ = run_round(
            anchor, clients, spec, LocalConfig(), "fedavg", 1, 0, test
        )
        np.testing.assert_allclose(new_global.values, 2.5, rtol=1e-15)
        assert len(record.per_client_pre_agg_accuracy) == 2

    @pytest.mark.parametrize("strategy", ["lss", "fedprox", "fedavg"])
    def test_scoring_runs_no_backward_pass(self, fed_setup, monkeypatch, strategy):
        # Training calls ``_backprop`` by its own imported name, so the
        # counter sees only calls made through ``lss.model``: the scoring's.
        spec, anchor, clients, test = fed_setup
        calls = []
        backprop = model._backprop
        monkeypatch.setattr(model, "_backprop", lambda *a: (calls.append(a), backprop(*a))[1])
        local = LocalConfig(eta=0.05, tau=3, batch_size=32)
        new_global, record, finals = run_round(anchor, clients, spec, local, strategy, 1, 7, test)
        assert calls == []
        assert (record.global_test_accuracy, record.global_test_loss) == evaluate(
            new_global, spec, test
        )
        assert record.per_client_pre_agg_accuracy == tuple(
            accuracy(f, spec, test) for f in finals
        )

    def test_client_order_invariance(self, fed_setup):
        spec, anchor, clients, test = fed_setup
        local = LocalConfig(eta=0.05, tau=3, batch_size=32)
        seed = derive_seed(4, "round", 1)
        ref, _, _ = run_round(anchor, clients, spec, local, "fedavg", 1, seed, test)
        shuffled = [clients[2], clients[0], clients[1]]
        out, _, _ = run_round(anchor, shuffled, spec, local, "fedavg", 1, seed, test)
        assert np.array_equal(out.values, ref.values)

    def test_client_order_invariance_with_unequal_sizes(self, fed_setup):
        spec, anchor, _, test = fed_setup
        data = gen_blobs(6, 40, 8, 1.0, seed=32)
        cuts = np.split(np.arange(220), [30, 150])
        clients = [ClientState(i, data.subset(ids)) for i, ids in enumerate(cuts)]
        assert [c.data.n for c in clients] == [30, 120, 70]
        local = LocalConfig(eta=0.05, tau=3, batch_size=32)
        seed = derive_seed(5, "round", 1)
        ref, _, _ = run_round(anchor, clients, spec, local, "lss", 1, seed, test)
        out, _, _ = run_round(anchor, clients[::-1], spec, local, "lss", 1, seed, test)
        assert np.array_equal(out.values, ref.values)

    def test_unknown_strategy_rejected_before_training(self, fed_setup, monkeypatch):
        spec, anchor, clients, test = fed_setup
        calls = []

        def counting(strategy, a, s, data, local, seed):
            calls.append(seed)
            return a

        monkeypatch.setattr(federation, "train_client", counting)
        with pytest.raises(ValueError, match="strategy"):
            run_round(anchor, clients, spec, LocalConfig(), "sgd", 1, 0, test)
        assert calls == []

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "lss"])
    def test_train_client_returns_the_upload_alone(self, fed_setup, strategy):
        spec, anchor, clients, _ = fed_setup
        local = LocalConfig(eta=0.05, tau=2, batch_size=16, num_pool_models=2)
        upload = train_client(strategy, anchor, spec, clients[0].data, local, 3)
        assert isinstance(upload, ParamVector)
        if strategy == "lss":
            final, _ = lss_local_train(anchor, spec, clients[0].data, local, 3)
            assert np.array_equal(upload.values, final.values)

    def test_client_failure_is_attributed(self, fed_setup, monkeypatch):
        spec, anchor, clients, test = fed_setup

        def exploding(strategy, a, s, data, local, seed):
            raise ArithmeticError("boom")

        monkeypatch.setattr(federation, "train_client", exploding)
        with pytest.raises(RuntimeError, match="client 0"):
            run_round(anchor, clients, spec, LocalConfig(), "fedavg", 1, 0, test)

    def test_single_client_fedavg_equals_centralized_sgd(self, fed_setup):
        spec, anchor, clients, test = fed_setup
        all_data = gen_blobs(6, 120, 8, 1.0, seed=31)
        client = [ClientState(0, all_data)]
        local = LocalConfig(eta=0.05, tau=5, batch_size=32, mu_prox=0.0)
        model = anchor
        for r in (1, 2, 3):
            round_seed = derive_seed(8, "round", r)
            model, _, _ = run_round(model, client, spec, local, "fedavg", r, round_seed, test)
        reference = anchor
        for r in (1, 2, 3):
            seed = derive_seed(derive_seed(8, "round", r), 0)
            reference = fedprox_local_train(reference, spec, all_data, local, seed)
        assert np.array_equal(model.values, reference.values)


class TestRoundRecordCsv:
    def test_header_and_formatting_are_frozen(self, tmp_path):
        records = [
            RoundRecord(1, 0.5, 1.25, (0.5, 0.25), (1.0, 2.0), 3.14),
            RoundRecord(2, 0.75, 0.5, (0.5, 1.0), (0.5, 0.125), 2.71),
        ]
        path = tmp_path / "rounds.csv"
        write_rounds_csv(records, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER == "round,global_acc,global_loss,client_accs,update_norms,wall_time_s"
        assert lines[1] == "1,0.5,1.25,0.5;0.25,1;2,0"
        assert lines[2] == "2,0.75,0.5,0.5;1,0.5;0.125,0"

    def test_record_validation(self):
        with pytest.raises(ValueError, match="accuracy"):
            RoundRecord(1, 1.5, 1.0, (), (), 0.0)
        with pytest.raises(ValueError, match="norms"):
            RoundRecord(1, 0.5, 1.0, (), (-1.0,), 0.0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="round 3: update norms"):
                RoundRecord(3, 0.5, 1.0, (0.5, 0.5), (1.0, bad), 0.0)
            with pytest.raises(ValueError, match="round 3: global test loss"):
                RoundRecord(3, 0.5, bad, (0.5,), (1.0,), 0.0)


def tiny_experiment(seed=3, rounds=1, strategy="fedavg"):
    return ExperimentConfig(
        master_seed=seed, output_dir="unused", rounds=rounds, strategy=strategy,
        num_clients=2, warmup_steps=5, warmup_eta=0.1,
        data=DataConfig(num_classes=3, per_class=40, input_dim=4, spread=0.8),
        model=ModelConfig(), partition=PartitionConfig(mode="dirichlet", alpha=1.0),
        local=LocalConfig(eta=0.05, tau=2, batch_size=16, num_pool_models=2),
        analysis=AnalysisConfig(),
    )


class TestRunExperiment:
    def test_records_length_matches_rounds(self):
        result = run_experiment(tiny_experiment(rounds=3))
        assert len(result.records) == 3
        assert [r.round_index for r in result.records] == [1, 2, 3]

    @staticmethod
    def _stable(record):
        # everything but the measured wall time is deterministic
        return dataclasses.replace(record, wall_time_seconds=0.0)

    def test_single_round_is_prefix_of_longer_run(self):
        one = run_experiment(tiny_experiment(rounds=1))
        three = run_experiment(tiny_experiment(rounds=3))
        assert self._stable(one.records[0]) == self._stable(three.records[0])

    def test_deterministic_end_to_end(self):
        cfg = tiny_experiment(rounds=2, strategy="lss")
        result = run_experiment(cfg)
        again = run_experiment(cfg)
        assert np.array_equal(result.final_model.values, again.final_model.values)
        assert [self._stable(r) for r in result.records] == [
            self._stable(r) for r in again.records
        ]

    def test_feature_shift_mode_runs(self):
        cfg = tiny_experiment()
        cfg = ExperimentConfig(
            **{**cfg.__dict__, "partition": PartitionConfig(mode="feature_shift", alpha=1.0)}
        )
        result = run_experiment(cfg)
        assert len(result.clients) == 2
        assert result.plan.alpha == "feature-shift"

    def test_clients_partition_the_train_split(self):
        result = run_experiment(tiny_experiment())
        sizes = [c.data.n for c in result.clients]
        assert sum(sizes) == round(0.8 * 120)
