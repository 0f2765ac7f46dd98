"""Golden-file checks: the reference experiments reproduce their archived
CSVs byte for byte.  Catches any silent change to the RNG plumbing, seed
derivation, float formatting, or training order.  One run is label-shift
LSS on a softmax model; the other is FedProx with one hidden layer on
feature-shift clients, scored on the mixture of their domains."""

from pathlib import Path

from lss.config import (
    AnalysisConfig,
    DataConfig,
    ExperimentConfig,
    ModelConfig,
    PartitionConfig,
)
from lss.experiment import run_experiment
from lss.federation import write_rounds_csv
from lss.local_training import LocalConfig

GOLDEN = Path(__file__).parent / "data" / "reference_rounds.csv"
GOLDEN_FEATURE_SHIFT = Path(__file__).parent / "data" / "reference_rounds_feature_shift.csv"


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
    assert out.read_bytes() == GOLDEN.read_bytes()


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
    assert out.read_bytes() == GOLDEN_FEATURE_SHIFT.read_bytes()
