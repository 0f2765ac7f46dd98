import dataclasses
import threading
import time
import weakref

import numpy as np
import pytest

import lss.federation as federation
import lss.local_training as local_training
import lss.model as model
from conftest import spy_prepare_group
from lss.config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from lss.data import Dataset, gen_blobs, split_dataset
from lss.experiment import run_experiment
from lss.federation import (
    CSV_HEADER,
    ClientState,
    RoundRecord,
    data_proportional_weights,
    derive_seed,
    run_round,
    train_clients,
    warmup_pretrain,
    write_rounds_csv,
)
from lss.local_training import LocalConfig, fedprox_local_train, lss_local_train
from lss.model import MlpSpec, accuracy, evaluate, init_params
from lss.params import ParamVector, l2_distance, uniform_average


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

        def fake_train(strategy, a, s, datasets, local, seeds):
            ids = [next(c.client_id for c in clients if c.data is d) for d in datasets]
            return np.stack([fixed[i].values for i in ids])

        monkeypatch.setattr(federation, "train_clients", fake_train)
        new_global, record, _ = run_round(
            anchor, clients, spec, LocalConfig(), "fedavg", 1, 0, test
        )
        np.testing.assert_allclose(new_global.values, 2.5, rtol=1e-15)
        assert len(record.per_client_pre_agg_accuracy) == 2

    @pytest.mark.parametrize("strategy", ["lss", "fedprox", "fedavg"])
    def test_scoring_runs_no_backward_pass(self, fed_setup, monkeypatch, strategy):
        # The uploads are trained first and then replayed, so the counter
        # sees only the backprops of the round's scoring.
        spec, anchor, clients, test = fed_setup
        local = LocalConfig(eta=0.05, tau=3, batch_size=32)
        seeds = [derive_seed(7, c.client_id) for c in clients]
        trained = train_clients(strategy, anchor, spec, [c.data for c in clients], local, seeds)
        uploads = {id(c.data): u for c, u in zip(clients, trained)}
        monkeypatch.setattr(
            federation, "train_clients",
            lambda s, a, sp, datasets, lc, seeds: np.stack([uploads[id(d)] for d in datasets]),
        )
        calls = []
        backprop = model._backprop
        monkeypatch.setattr(model, "_backprop", lambda *a: (calls.append(a), backprop(*a))[1])
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

        def counting(strategy, a, s, datasets, local, seeds):
            calls.append(seeds)
            return [a for _ in datasets]

        monkeypatch.setattr(federation, "train_clients", counting)
        with pytest.raises(ValueError, match="strategy"):
            run_round(anchor, clients, spec, LocalConfig(), "sgd", 1, 0, test)
        assert calls == []

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "lss"])
    def test_train_clients_returns_the_uploads_alone(self, fed_setup, strategy):
        spec, anchor, clients, _ = fed_setup
        local = LocalConfig(eta=0.05, tau=2, batch_size=16, num_pool_models=2, mu_prox=0.1)
        uploads = train_clients(strategy, anchor, spec, [c.data for c in clients], local, [3, 4, 5])
        assert isinstance(uploads, np.ndarray) and uploads.shape == (3, anchor.dim)
        for client, seed, upload in zip(clients, [3, 4, 5], uploads):
            if strategy == "lss":
                want, _ = lss_local_train(anchor, spec, client.data, local, seed)
            else:
                mu = 0.0 if strategy == "fedavg" else local.mu_prox
                cfg = dataclasses.replace(local, mu_prox=mu)
                want = fedprox_local_train(anchor, spec, client.data, cfg, seed)
            assert np.array_equal(upload, want.values)

    def test_client_failure_is_attributed(self, fed_setup, monkeypatch):
        spec, anchor, clients, test = fed_setup

        def exploding(strategy, a, s, datasets, local, seeds):
            raise ArithmeticError("boom")

        monkeypatch.setattr(federation, "train_clients", exploding)
        with pytest.raises(RuntimeError, match="client 0"):
            run_round(anchor, clients, spec, LocalConfig(), "fedavg", 1, 0, test)

    def test_a_group_failure_that_no_client_repeats_alone_names_the_round(
        self, fed_setup, monkeypatch
    ):
        spec, anchor, clients, test = fed_setup
        calls = []

        def fails_in_a_group(strategy, a, s, datasets, local, seeds):
            calls.append(len(datasets))
            if len(datasets) > 1:
                raise MemoryError("no room for the stacked buffers")
            return [a for _ in datasets]

        monkeypatch.setattr(federation, "train_clients", fails_in_a_group)
        with pytest.raises(RuntimeError) as err:
            run_round(anchor, clients, spec, LocalConfig(), "fedavg", 4, 0, test)
        assert str(err.value) == (
            "lockstep training failed during round 4: no room for the stacked buffers"
        )
        assert isinstance(err.value.__cause__, MemoryError)
        assert calls == [len(clients)] + [1] * len(clients)

    @pytest.mark.parametrize("strategy", ["lss", "fedprox", "fedavg"])
    def test_lockstep_failure_names_the_client_that_fails_first_alone(
        self, fed_setup, monkeypatch, strategy
    ):
        # Clients 0 and 3 (7 samples) and 1 and 2 (5 samples) form one
        # lockstep group, ordered 1, 2, 0, 3 by size; it fails, and client 1
        # is the first to fail alone in id order.
        spec, anchor, _, test = fed_setup
        rng = np.random.default_rng(8)
        clients = []
        for cid, n in enumerate([7, 5, 5, 7]):
            scale = 1e160 if cid in (1, 3) else 1.0
            features = scale * rng.standard_normal((n, spec.input_dim))
            clients.append(ClientState(cid, Dataset(features, rng.integers(0, 6, n), 6)))
        local = LocalConfig(eta=0.5, tau=3, batch_size=16, num_pool_models=2, mu_prox=0.1)
        expected = None
        for client in clients:
            try:
                seed = derive_seed(9, client.client_id)
                train_clients(strategy, anchor, spec, [client.data], local, [seed])
            except ValueError as exc:
                expected = f"client {client.client_id} failed during round 2: {exc}"
                break
        assert expected is not None and expected.startswith("client 1 failed")
        first_groups = spy_prepare_group(monkeypatch)
        with pytest.raises(RuntimeError) as err:
            run_round(anchor, clients[::-1], spec, local, strategy, 2, 9, test)
        assert str(err.value) == expected
        assert [d.n for d in first_groups[0]] == [5, 5, 7, 7]
        assert all(d is clients[i].data for d, i in zip(first_groups[0], [1, 2, 0, 3]))

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


class TestLockstepUploads:
    """The benchmark's traced pool check wraps ``federation.lss_local_train``
    and checks each upload it returns against its pool.  Every soup upload
    of a round comes from that call, and is the one its client gets
    alone."""

    # lss-mid's client sizes at seed 1, in shuffled order, with its model
    # and pool: four lockstep groups of five, each over one batch of 64
    # with a ragged epoch tail.
    SIZES = [220, 57, 367, 75, 518, 131, 309, 72, 447, 168,
             75, 293, 184, 367, 91, 246, 329, 220, 353, 278]

    def test_every_upload_of_a_ragged_round_is_the_average_of_its_pool_alone(
        self, monkeypatch
    ):
        spec = MlpSpec(input_dim=32, hidden_dims=(64,), num_classes=10)
        local = LocalConfig(
            eta=0.05, tau=5, batch_size=64, lambda_a=0.5, lambda_d=0.5, num_pool_models=4
        )
        rng = np.random.default_rng(21)
        datasets = [
            Dataset(rng.standard_normal((n, 32)), rng.integers(0, 10, n), 10) for n in self.SIZES
        ]
        anchor = init_params(spec, 3)
        seeds = [derive_seed(7, cid) for cid in range(len(datasets))]
        groups = spy_prepare_group(monkeypatch)
        # as the benchmark's traced runs record each upload with its pool
        recorded = []
        form = federation.lss_local_train

        def record(*args, **kwargs):
            final, trace = form(*args, **kwargs)
            recorded.append((args[2], final, trace.pool_members))
            return final, trace

        monkeypatch.setattr(federation, "lss_local_train", record)
        uploads = train_clients("lss", anchor, spec, datasets, local, seeds)
        assert [len(g) for g in groups] == [5] * 4
        # one call per client, whose upload is the client's row of the block
        client = {id(data): i for i, data in enumerate(datasets)}
        assert sorted(client[id(data)] for data, _, _ in recorded) == list(range(len(datasets)))
        for data, final, pool in recorded:
            assert len(pool) == 5
            assert np.array_equal(final.values, uniform_average(pool).values)
            assert np.array_equal(uploads[client[id(data)]], final.values)
        monkeypatch.undo()
        for data, seed, upload in zip(datasets, seeds, uploads, strict=True):
            final, trace = lss_local_train(anchor, spec, data, local, seed)
            assert np.array_equal(upload, uniform_average(trace.pool_members).values)
            assert np.array_equal(upload, final.values)


class TestLockstepThreads:
    """Clients whose weight vectors reach half of ``LOCKSTEP_FLOATS`` train
    one per group, and the groups train in waves of ``lockstep_workers``,
    each on a thread of its own but a wave's lone group.  Every upload
    keeps the bits it gets alone, a failure is the one of the serial loop,
    no thread outlives ``train_clients``, and at most W groups' buffers are
    alive at once."""

    # Ragged sizes about a batch of 16: within one batch, of exactly one,
    # and over one with epoch tails.
    SIZES = [23, 9, 40, 16, 33]

    @staticmethod
    def wide_case(sizes, scale=None):
        """A model of 70,915 weights, and one client per size; client i's
        features are scaled by ``scale[i]`` when given."""
        spec = MlpSpec(input_dim=16, hidden_dims=(256, 256), num_classes=3)
        assert spec.param_count() >= local_training.LOCKSTEP_FLOATS // 2
        rng = np.random.default_rng(12)
        datasets = [
            Dataset(
                (scale[i] if scale else 1.0) * rng.standard_normal((n, 16)),
                rng.integers(0, 3, n), 3,
            )
            for i, n in enumerate(sizes)
        ]
        local = LocalConfig(
            eta=0.05, tau=3, batch_size=16, lambda_a=0.5, lambda_d=0.5, num_pool_models=2,
            mu_prox=0.3,
        )
        return spec, init_params(spec, 5), datasets, local

    @pytest.mark.parametrize("strategy", ["fedavg", "fedprox", "lss"])
    def test_uploads_are_bit_identical_at_every_worker_count(
        self, monkeypatch, spy_workers, strategy
    ):
        spec, anchor, datasets, local = self.wide_case(self.SIZES)
        seeds = [derive_seed(4, i) for i in range(len(datasets))]
        clients = [ClientState(i, d) for i, d in enumerate(datasets)]
        eval_data = datasets[2]
        blocks, rounds = {}, {}
        for workers in (1, 2, 3):
            started = spy_workers(workers)
            blocks[workers] = train_clients(strategy, anchor, spec, datasets, local, seeds)
            # 5 groups: waves of 1 in this thread, of 2, 2 and a lone one,
            # or of 3 and 2.
            assert len(started) == {1: 0, 2: 4, 3: 5}[workers]
            rounds[workers] = run_round(anchor, clients, spec, local, strategy, 1, 4, eval_data)
        for workers in (2, 3):
            assert np.array_equal(blocks[workers], blocks[1])
            model, record, finals = rounds[workers]
            assert np.array_equal(model.values, rounds[1][0].values)
            assert record == dataclasses.replace(
                rounds[1][1], wall_time_seconds=record.wall_time_seconds
            )
            assert all(a == b for a, b in zip(finals, rounds[1][2], strict=True))
        monkeypatch.undo()
        for data, seed, upload in zip(datasets, seeds, blocks[1], strict=True):
            if strategy == "lss":
                want, _ = lss_local_train(anchor, spec, data, local, seed)
            else:
                mu = 0.0 if strategy == "fedavg" else local.mu_prox
                want = fedprox_local_train(
                    anchor, spec, data, dataclasses.replace(local, mu_prox=mu), seed
                )
            assert np.array_equal(upload, want.values)

    @pytest.mark.parametrize("strategy", ["fedprox", "lss"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_diverging_client_fails_the_round_as_in_the_serial_loop(
        self, spy_workers, strategy, workers
    ):
        # By size the groups are 9, 16, 23, 33, 40: client 0 (23 samples)
        # trains in the 3rd group, and diverges.
        spec, anchor, datasets, local = self.wide_case(self.SIZES, [1e160, 1, 1, 1, 1])
        local = dataclasses.replace(local, eta=0.5)
        clients = [ClientState(i, d) for i, d in enumerate(datasets)]
        test = datasets[1]
        spy_workers(1)
        with pytest.raises(RuntimeError) as serial:
            run_round(anchor, clients, spec, local, strategy, 3, 6, test)
        assert str(serial.value).startswith("client 0 failed during round 3: ")
        started = spy_workers(workers)
        threads = threading.active_count()
        with pytest.raises(RuntimeError) as threaded:
            run_round(anchor, clients, spec, local, strategy, 3, 6, test)
        assert str(threaded.value) == str(serial.value)
        assert type(threaded.value.__cause__) is type(serial.value.__cause__)
        assert threading.active_count() == threads
        # The round's threads: the waves up to the failed 3rd group's, 0-1
        # and 2-3 at W = 2, or 0-2 at W = 3; the replay trains each client
        # alone, in this thread.
        assert len(started) == {2: 4, 3: 3}[workers]
        assert not any(worker.is_alive() for worker in started)

    def test_the_first_failure_in_group_order_is_raised_after_every_join(
        self, monkeypatch, spy_workers
    ):
        spec, anchor, datasets, local = self.wide_case(self.SIZES)
        started = spy_workers(3)
        prepare = federation.prepare_group
        calls = []

        def failing(*args, **kwargs):
            # The 2nd group fails late, and the 3rd at once.
            index = len(calls)
            rows, train = prepare(*args, **kwargs)
            calls.append(index)

            def steps():
                if index == 1:
                    time.sleep(0.05)
                if index in (1, 2):
                    raise ValueError(f"group {index} failed")
                train()

            return rows, steps

        monkeypatch.setattr(federation, "prepare_group", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^group 1 failed$"):
            train_clients("fedprox", anchor, spec, datasets, local, list(range(5)))
        assert threading.active_count() == threads
        # The first wave, groups 0-2, fails; no later group is prepared.
        assert calls == [0, 1, 2] and len(started) == 3
        assert not any(worker.is_alive() for worker in started)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_training_failure_comes_before_a_later_failure_to_prepare(
        self, monkeypatch, spy_workers, workers
    ):
        spec, anchor, datasets, local = self.wide_case(self.SIZES[:2])
        started = spy_workers(workers)
        prepare = federation.prepare_group
        calls = []

        def failing(*args, **kwargs):
            # Group 0 fails in training, and group 1 to prepare.
            index = len(calls)
            calls.append(index)
            if index == 1:
                raise ValueError("prepare of group 1 failed")
            rows, train = prepare(*args, **kwargs)

            def steps():
                raise ValueError("group 0 failed in training")

            return rows, steps

        monkeypatch.setattr(federation, "prepare_group", failing)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^group 0 failed in training$"):
            train_clients("fedprox", anchor, spec, datasets, local, [1, 2])
        assert threading.active_count() == threads
        # At W = 1 group 1 is never prepared; at W = 2 its preparation
        # fails, and group 0, alone in its wave, trains in this thread.
        assert calls == list(range(workers)) and started == []

    @pytest.mark.parametrize("strategy", ["fedprox", "lss"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_w_groups_are_alive_at_once(self, monkeypatch, spy_workers, strategy, workers):
        spec, anchor, datasets, local = self.wide_case(self.SIZES)
        spy_workers(workers)
        prepare = federation.prepare_group
        rows = []
        alive = []

        def tracked(*args, **kwargs):
            prepared = prepare(*args, **kwargs)
            rows.append(weakref.ref(prepared[0]))
            alive.append(sum(ref() is not None for ref in rows))
            return prepared

        monkeypatch.setattr(federation, "prepare_group", tracked)
        train_clients(strategy, anchor, spec, datasets, local, list(range(5)))
        assert len(rows) == len(datasets)
        assert alive == [i % workers + 1 for i in range(len(datasets))]
        assert all(ref() is None for ref in rows)

    def test_the_worker_count_rule(self, monkeypatch):
        wide = local_training.LOCKSTEP_FLOATS // 2
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        cores = {0, 1}
        monkeypatch.setattr(local_training.os, "sched_getaffinity", lambda pid: cores)
        workers = local_training.lockstep_workers
        # No BLAS pin: BLAS takes every core, and the groups train serially.
        assert workers(4, wide) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert workers(4, wide) == 2
        assert workers(1, wide) == 1
        # Narrower clients train serially, even with BLAS pinned.
        assert workers(4, wide - 1) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert workers(4, wide) == 1
        # OPENBLAS_NUM_THREADS is read first, and OMP_NUM_THREADS alone.
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert workers(4, wide) == 1
        monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        cores = {0, 1, 2, 3}
        assert workers(8, wide) == 4
        assert workers(3, wide) == 3
        for pin in ("0", "many"):
            monkeypatch.setenv("OMP_NUM_THREADS", pin)
            assert workers(8, wide) == 1

    def test_a_wide_lone_client_group_trains_in_this_thread(self, monkeypatch, spy_workers):
        # With BLAS pinned on two cores, a round of one wide client starts
        # no thread; a round of two starts one per group.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setattr(local_training.os, "sched_getaffinity", lambda pid: {0, 1})
        spec, anchor, datasets, local = self.wide_case(self.SIZES[:2])
        started = spy_workers()
        train_clients("fedavg", anchor, spec, datasets[:1], local, [1])
        assert started == []
        train_clients("fedavg", anchor, spec, datasets, local, [1, 2])
        assert len(started) == 2


class TestLockstepScoring:
    """A round scores its uploads on their stacked rows: one ``accuracy``
    call and one ``vecdot`` on each chunk of rows that fits half of
    ``LOCKSTEP_FLOATS``.  Each score and update norm is the one of
    ``accuracy`` and ``l2_distance`` on its upload alone, bit for bit."""

    @staticmethod
    def near(spec, rows, seed):
        """``rows`` weight vectors around one model, and that model."""
        rng = np.random.default_rng(seed)
        center = init_params(spec, seed)
        scale = 10.0 ** rng.uniform(-12, 0, (rows, 1))  # some uploads barely move
        return center.values + scale * rng.standard_normal((rows, center.dim)), center

    @staticmethod
    def round_on(monkeypatch, uploads, anchor, spec, eval_data, chunk):
        """``run_round`` with ``uploads`` as its trained block, under a budget
        of ``chunk`` clients; returns its record, its uploads and the rows of
        each ``accuracy`` call."""
        data = gen_blobs(3, 4 * len(uploads), 2, 1.0, seed=33)
        cuts = np.array_split(np.arange(data.n), len(uploads))
        clients = [ClientState(i, data.subset(c)) for i, c in enumerate(cuts)]
        monkeypatch.setattr(federation, "train_clients", lambda *args: uploads.copy())
        per_client = eval_data.n * sum(fo for _, fo in spec.layer_shapes()) + anchor.dim
        monkeypatch.setattr(local_training, "LOCKSTEP_FLOATS", 2 * chunk * per_client)
        calls = []
        score = model.accuracy
        monkeypatch.setattr(
            federation, "accuracy", lambda rows, *a: (calls.append(len(rows)), score(rows, *a))[1]
        )
        _, record, finals = run_round(anchor, clients, spec, LocalConfig(), "fedavg", 1, 0, eval_data)
        return record, finals, calls

    @pytest.mark.parametrize("hidden, activation", [((), "relu"), ((7,), "relu"), ((6, 5), "tanh")])
    def test_a_block_scores_each_row_as_alone(self, hidden, activation):
        spec = MlpSpec(input_dim=8, hidden_dims=hidden, num_classes=6, activation=activation)
        rng = np.random.default_rng(5)
        for n in (1, 7, 64):
            data = Dataset(rng.standard_normal((n, 8)), rng.integers(0, 6, n), 6)
            for rows in (1, 2, 5, 17):
                block, _ = self.near(spec, rows, rows + n)
                want = [accuracy(ParamVector(row), spec, data) for row in block]
                got = accuracy(block, spec, data)
                assert got.shape == (rows,) and got.tolist() == want
                # rows that are not adjacent in memory
                assert accuracy(block[::2], spec, data).tolist() == want[::2]

    @pytest.mark.parametrize("hidden, activation", [((), "relu"), ((7,), "relu"), ((6, 5), "tanh")])
    @pytest.mark.parametrize("clients", [1, 2, 7, 20])
    def test_a_round_scores_each_upload_as_alone_across_chunks(
        self, fed_setup, monkeypatch, hidden, activation, clients
    ):
        _, _, _, test = fed_setup
        spec = MlpSpec(input_dim=8, hidden_dims=hidden, num_classes=6, activation=activation)
        uploads, anchor = self.near(spec, clients, 7)
        want_accs = tuple(accuracy(ParamVector(row), spec, test) for row in uploads)
        want_norms = tuple(l2_distance(ParamVector(row), anchor) for row in uploads)
        # One client a chunk, three (a ragged last chunk) and all clients.
        for chunk in (1, 3, clients):
            record, finals, calls = self.round_on(monkeypatch, uploads, anchor, spec, test, chunk)
            assert calls == [min(chunk, clients - lo) for lo in range(0, clients, chunk)]
            assert np.array_equal([f.values for f in finals], uploads)
            assert record.per_client_pre_agg_accuracy == want_accs
            assert record.per_client_update_norm == want_norms

    @pytest.mark.parametrize(
        "input_dim, hidden", [(16, ()), (32, (64,)), (128, (256, 256))], ids=["170", "2762", "101386"]
    )
    def test_update_norms_at_ragged_chunks_are_l2_distances(
        self, monkeypatch, input_dim, hidden
    ):
        # The benchmark's three model sizes, D = 170, 2,762 and 101,386.
        spec = MlpSpec(input_dim=input_dim, hidden_dims=hidden, num_classes=10)
        rng = np.random.default_rng(9)
        test = Dataset(rng.standard_normal((2, input_dim)), rng.integers(0, 10, 2), 10)
        for clients, chunk in [(1, 1), (3, 2), (5, 5), (7, 3)]:
            uploads, anchor = self.near(spec, clients, clients)
            record, _, calls = self.round_on(monkeypatch, uploads, anchor, spec, test, chunk)
            assert sum(calls) == clients and max(calls) == chunk
            assert record.per_client_update_norm == tuple(
                l2_distance(ParamVector(row), anchor) for row in uploads
            )


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
