"""End-to-end experiment runner: data, warm-up, partition, rounds.

Everything is derived from the master seed through stable hashes, so a
resolved config reproduces a run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError, ExperimentConfig
from .data import (
    Dataset,
    PartitionPlan,
    dirichlet_partition,
    feature_shift_partition,
    gen_blobs,
    load_idx,
    split_dataset,
    split_sizes,
)
from .federation import (
    ClientState,
    RoundRecord,
    derive_seed,
    run_round,
    warmup_pretrain,
)
from .model import MlpSpec
from .params import ParamVector


@dataclass(frozen=True)
class ExperimentResult:
    records: tuple[RoundRecord, ...]
    final_model: ParamVector
    anchor: ParamVector
    spec: MlpSpec
    clients: tuple[ClientState, ...]
    eval_data: Dataset
    plan: PartitionPlan
    last_round_client_models: tuple[ParamVector, ...]


def _blobs(cfg: ExperimentConfig, tag: str) -> Dataset:
    """The config's Gaussian blobs, drawn from the seed stream named ``tag``."""
    d = cfg.data
    return gen_blobs(
        d.num_classes, d.per_class, d.input_dim, d.spread, derive_seed(cfg.master_seed, tag)
    )


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data.source == "blobs":
        return _blobs(cfg, "blobs")
    data = load_idx(cfg.data.images_path, cfg.data.labels_path)
    if data.num_classes != cfg.data.num_classes:
        raise ConfigError(
            "data.num_classes",
            f"is {cfg.data.num_classes}, but the IDX labels give {data.num_classes} "
            f"classes (largest label + 1)",
        )
    if data.input_dim != cfg.data.input_dim:
        raise ConfigError(
            "data.input_dim",
            f"is {cfg.data.input_dim}, but the IDX images have {data.input_dim} "
            f"pixels (rows x cols)",
        )
    return data


def build_model_spec(cfg: ExperimentConfig, data: Dataset) -> MlpSpec:
    return MlpSpec(
        input_dim=data.input_dim,
        hidden_dims=cfg.model.hidden_dims,
        num_classes=data.num_classes,
        activation=cfg.model.activation,
    )


def split_experiment_data(
    cfg: ExperimentConfig, base: Dataset
) -> tuple[Dataset, Dataset, Dataset]:
    """The run's (train, val, test) split of ``base``; none may be empty."""
    fractions = (
        1.0 - cfg.data.val_fraction - cfg.data.test_fraction,
        cfg.data.val_fraction,
        cfg.data.test_fraction,
    )
    n_train, n_val, n_test = split_sizes(base.n, fractions)
    counts = f"{n_train} train, {n_val} val, {n_test} test of {base.n} samples"
    for key, name, n in (
        ("data.val_fraction", "train", n_train),
        ("data.val_fraction", "val", n_val),
        ("data.test_fraction", "test", n_test),
    ):
        if n == 0:
            raise ConfigError(key, f"leaves the {name} split empty ({counts})")
    if cfg.num_clients > n_train:
        raise ConfigError("experiment.num_clients", f"exceeds the {n_train} training samples")
    return split_dataset(base, fractions, derive_seed(cfg.master_seed, "split"))


def partition_clients(
    cfg: ExperimentConfig, train: Dataset, test: Dataset
) -> tuple[PartitionPlan, tuple[ClientState, ...], Dataset]:
    """The run's partition plan, its clients, and the set each round scores.

    Under label shift that set is ``test`` itself; under feature shift it
    is ``test`` mapped into the client domains (``feature_shift_partition``).
    """
    seed = derive_seed(cfg.master_seed, "partition")
    if cfg.partition.mode == "dirichlet":
        plan = dirichlet_partition(train, cfg.num_clients, cfg.partition.alpha, seed)
        datasets = tuple(train.subset(ids) for ids in plan.client_indices)
        eval_data = test
    else:
        plan, datasets, eval_data = feature_shift_partition(train, test, cfg.num_clients, seed)
    return plan, tuple(ClientState(cid, d) for cid, d in enumerate(datasets)), eval_data


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    base = build_dataset(cfg)
    train, val, test = split_experiment_data(cfg, base)
    spec = build_model_spec(cfg, base)

    # Warm-up data: blobs on a disjoint seed (shared geometry, fresh noise) or
    # the IDX val split, passed as a temporary so it is freed before the rounds.
    anchor = warmup_pretrain(
        spec,
        _blobs(cfg, "proxy") if cfg.data.source == "blobs" else val,
        cfg.warmup_steps,
        derive_seed(cfg.master_seed, "init"),
        eta=cfg.warmup_eta,
        batch_size=cfg.local.batch_size,
    )

    plan, clients, eval_data = partition_clients(cfg, train, test)

    model = anchor
    records: list[RoundRecord] = []
    finals: list[ParamVector] = []
    for r in range(1, cfg.rounds + 1):
        round_seed = derive_seed(cfg.master_seed, "round", r)
        model, record, finals = run_round(
            model, clients, spec, cfg.local, cfg.strategy, r, round_seed, eval_data
        )
        records.append(record)

    return ExperimentResult(
        records=tuple(records),
        final_model=model,
        anchor=anchor,
        spec=spec,
        clients=clients,
        eval_data=eval_data,
        plan=plan,
        last_round_client_models=tuple(finals),
    )
