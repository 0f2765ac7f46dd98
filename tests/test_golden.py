"""Golden-file checks: the reference experiments reproduce their archived
CSVs byte for byte.  Catches any silent change to the RNG plumbing, seed
derivation, float formatting, or training order.  One run is label-shift
LSS on a softmax model; the other is FedProx with one hidden layer on
feature-shift clients, scored on the mixture of their domains.

The same two runs with every diagnostic on reproduce their archived
``diagnostics.txt`` (less the wall-clock ``round_times_s`` line), which pins
the zeta, sigma, Hessian and BVCL estimators to the bit.  Like the CSVs,
these files were written once and are never regenerated: a mismatch is a
change of behaviour, not a stale file.  They hold on x86-64 with AVX-512
(OpenBLAS ``SkylakeX``, numpy ``X86_V4``); each failure names the first
differing line and the numeric stack it ran on (``fingerprint.py``)."""

from dataclasses import replace
from pathlib import Path

import pytest

from lss.cli import main
from lss.config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
    serialize_config,
)
from lss.experiment import run_experiment
from lss.federation import write_rounds_csv
from lss.local_training import LocalConfig
from fingerprint import first_difference

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "reference_rounds.csv"
GOLDEN_FEATURE_SHIFT = DATA / "reference_rounds_feature_shift.csv"


def reference_config():
    return ExperimentConfig(
        master_seed=2024, output_dir="unused", rounds=2, strategy="lss",
        num_clients=3, warmup_steps=30, warmup_eta=0.1,
        data=DataConfig(num_classes=5, per_class=60, input_dim=6, spread=1.0),
        model=ModelConfig(hidden_dims=(), activation="relu"),
        partition=PartitionConfig(mode="dirichlet", alpha=0.5),
        local=LocalConfig(
            eta=0.05, tau=4, batch_size=32, lambda_a=1.0, lambda_d=1.0,
            num_pool_models=3,
        ),
        analysis=AnalysisConfig(),
    )


def test_reference_experiment_matches_archived_csv(tmp_path):
    result = run_experiment(reference_config())
    out = tmp_path / "rounds.csv"
    write_rounds_csv(result.records, out)
    actual, expected = out.read_bytes(), GOLDEN.read_bytes()
    assert actual == expected, first_difference(actual, expected)


def feature_shift_config():
    return ExperimentConfig(
        master_seed=2024, output_dir="unused", rounds=2, strategy="fedprox",
        num_clients=3, warmup_steps=30, warmup_eta=0.1,
        data=DataConfig(num_classes=4, per_class=50, input_dim=6, spread=1.0),
        model=ModelConfig(hidden_dims=(8,), activation="tanh"),
        partition=PartitionConfig(mode="feature_shift", alpha=0.5),
        local=LocalConfig(eta=0.05, tau=4, batch_size=16, mu_prox=0.1),
        analysis=AnalysisConfig(),
    )


def test_feature_shift_experiment_matches_archived_csv(tmp_path):
    result = run_experiment(feature_shift_config())
    out = tmp_path / "rounds.csv"
    write_rounds_csv(result.records, out)
    actual, expected = out.read_bytes(), GOLDEN_FEATURE_SHIFT.read_bytes()
    assert actual == expected, first_difference(actual, expected)


ALL_DIAGNOSTICS = AnalysisConfig(
    zeta=True, sigma=True, hessian=True, hessian_iters=20, bvcl=True
)


@pytest.mark.parametrize(
    "make_config, golden",
    [
        (reference_config, DATA / "reference_diagnostics.txt"),
        (feature_shift_config, DATA / "reference_diagnostics_feature_shift.txt"),
    ],
)
def test_reference_diagnostics_match_archived_file(tmp_path, make_config, golden):
    out = tmp_path / "run"
    cfg = replace(make_config(), output_dir=str(out), analysis=ALL_DIAGNOSTICS)
    config_file = tmp_path / "config.yaml"
    config_file.write_text(serialize_config(cfg), encoding="utf-8")
    assert main(["run", str(config_file)]) == 0
    lines = (out / "diagnostics.txt").read_bytes().splitlines(keepends=True)
    kept = b"".join(line for line in lines if not line.startswith(b"round_times_s:"))
    expected = golden.read_bytes()
    assert kept == expected, first_difference(kept, expected)
