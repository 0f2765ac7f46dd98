"""End-to-end experiment runner: data, warm-up, partition, rounds.

Everything is derived from the master seed through stable hashes, so a
resolved config reproduces a run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig
from .data import (
    Dataset,
    FeatureTransform,
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
    transforms: tuple[FeatureTransform, ...] | None
    last_round_client_models: tuple[ParamVector, ...]


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data.source == "blobs":
        return gen_blobs(
            cfg.data.num_classes,
            cfg.data.per_class,
            cfg.data.input_dim,
            cfg.data.spread,
            derive_seed(cfg.master_seed, "blobs"),
        )
    data = load_idx(cfg.data.images_path, cfg.data.labels_path)
    if data.num_classes != cfg.data.num_classes:
        raise ConfigError(
            "data.num_classes",
            f"is {cfg.data.num_classes}, but the IDX labels give {data.num_classes} "
            f"classes (largest label + 1)",
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
    return split_dataset(base, fractions, derive_seed(cfg.master_seed, "split"))


def _warmup_proxy(cfg: ExperimentConfig, val: Dataset) -> Dataset:
    if cfg.data.source == "blobs":
        # Same generator family, disjoint seed: shared geometry, fresh noise.
        return gen_blobs(
            cfg.data.num_classes,
            cfg.data.per_class,
            cfg.data.input_dim,
            cfg.data.spread,
            derive_seed(cfg.master_seed, "proxy"),
        )
    return val


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    base = build_dataset(cfg)
    train, val, test = split_experiment_data(cfg, base)
    if cfg.num_clients > train.n:
        raise ConfigError("experiment.num_clients", f"exceeds the {train.n} training samples")
    spec = build_model_spec(cfg, base)

    anchor = warmup_pretrain(
        spec,
        _warmup_proxy(cfg, val),
        cfg.warmup_steps,
        derive_seed(cfg.master_seed, "init"),
        eta=cfg.warmup_eta,
        batch_size=cfg.local.batch_size,
    )

    transforms: tuple[FeatureTransform, ...] | None = None
    if cfg.partition.mode == "dirichlet":
        plan = dirichlet_partition(
            train,
            cfg.num_clients,
            cfg.partition.alpha,
            derive_seed(cfg.master_seed, "partition"),
        )
        clients = tuple(
            ClientState(cid, train.subset(ids))
            for cid, ids in enumerate(plan.client_indices)
        )
        eval_data = test
    else:
        plan, tf_list = feature_shift_partition(
            train, cfg.num_clients, derive_seed(cfg.master_seed, "partition")
        )
        transforms = tuple(tf_list)
        clients = tuple(
            ClientState(cid, transforms[cid].apply_dataset(train.subset(ids)))
            for cid, ids in enumerate(plan.client_indices)
        )
        # Global test distribution is the mixture of client domains: chunk
        # the test split and push each chunk through one client's transform.
        chunks = np.array_split(np.arange(test.n), cfg.num_clients)
        feats = np.concatenate(
            [transforms[cid].apply(test.features[chunk]) for cid, chunk in enumerate(chunks)]
        )
        labels = np.concatenate([test.labels[chunk] for chunk in chunks])
        eval_data = Dataset(feats, labels, test.num_classes)

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
        transforms=transforms,
        last_round_client_models=tuple(finals),
    )
