"""Experiment configuration: a small YAML schema with strict validation.

Config files are YAML mappings with one section per subsystem.  Unknown
sections or keys are rejected, every key is typed, and violations are
reported by dotted path (e.g. ``partition.alpha``).  Omitted optional keys
fall back to the library defaults.  ``serialize_config`` emits a canonical
snapshot that parses back to an identical config, which is what run output
directories store for reproducibility.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import yaml

from .federation import STRATEGIES
from .local_training import COEFF_MODES, LocalConfig
from .model import ACTIVATIONS

PARTITION_MODES = ("dirichlet", "feature_shift")
DATA_SOURCES = ("blobs", "idx")


class ConfigError(ValueError):
    """Configuration problem, tagged with the dotted key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class DataConfig:
    source: str = "blobs"
    num_classes: int = 10
    per_class: int = 300
    input_dim: int = 16
    spread: float = 0.5
    images_path: str = ""
    labels_path: str = ""
    val_fraction: float = 0.1
    test_fraction: float = 0.1


@dataclass(frozen=True)
class ModelConfig:
    hidden_dims: tuple[int, ...] = ()
    activation: str = "relu"


@dataclass(frozen=True)
class PartitionConfig:
    mode: str = "dirichlet"
    alpha: float = 1.0


@dataclass(frozen=True)
class AnalysisConfig:
    zeta: bool = True
    sigma: bool = True
    sigma_draws: int = 32
    hessian: bool = False
    hessian_iters: int = 30
    bvcl: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    master_seed: int
    output_dir: str
    rounds: int = 1
    strategy: str = "lss"
    num_clients: int = 5
    warmup_steps: int = 0
    warmup_eta: float = 0.1
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    local: LocalConfig = field(default_factory=LocalConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


_REQUIRED = object()


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    # NaN fails the comparison; so do infinities and integers too large
    # to convert to a float.
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    return float(value)


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _as_int_tuple(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, f"expected a list of integers, got {value!r}")
    return tuple(_as_int(v, path) for v in value)


def _choice(options: tuple[str, ...]) -> Callable[[Any, str], None]:
    def check(value: Any, path: str) -> None:
        if value not in options:
            raise ConfigError(path, f"must be one of {options}, got {value!r}")

    return check


def _positive(value: Any, path: str) -> None:
    if value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")


def _non_negative(value: Any, path: str) -> None:
    if value < 0:
        raise ConfigError(path, f"must be >= 0, got {value}")


def _at_least(minimum: int) -> Callable[[Any, str], None]:
    def check(value: Any, path: str) -> None:
        if value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")

    return check


def _fraction(value: Any, path: str) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigError(path, f"must be in [0, 1), got {value}")


# key -> (caster, default, validator or None)
_SCHEMA: dict[str, dict[str, tuple[Callable, Any, Callable | None]]] = {
    "experiment": {
        "master_seed": (_as_int, _REQUIRED, None),
        "rounds": (_as_int, 1, _at_least(1)),
        "strategy": (_as_str, "lss", _choice(STRATEGIES)),
        "num_clients": (_as_int, 5, _at_least(1)),
        "warmup_steps": (_as_int, 0, _non_negative),
        "warmup_eta": (_as_float, 0.1, _positive),
    },
    "data": {
        "source": (_as_str, "blobs", _choice(DATA_SOURCES)),
        "num_classes": (_as_int, 10, _at_least(2)),
        "per_class": (_as_int, 300, _at_least(1)),
        "input_dim": (_as_int, 16, _at_least(1)),
        "spread": (_as_float, 0.5, _positive),
        "images_path": (_as_str, "", None),
        "labels_path": (_as_str, "", None),
        "val_fraction": (_as_float, 0.1, _fraction),
        "test_fraction": (_as_float, 0.1, _fraction),
    },
    "model": {
        "hidden_dims": (_as_int_tuple, (), None),
        "activation": (_as_str, "relu", _choice(ACTIVATIONS)),
    },
    "partition": {
        "mode": (_as_str, "dirichlet", _choice(PARTITION_MODES)),
        "alpha": (_as_float, 1.0, _positive),
    },
    "local": {
        "eta": (_as_float, 5e-4, _positive),
        "tau": (_as_int, 8, _non_negative),
        "batch_size": (_as_int, 64, _at_least(1)),
        "lambda_a": (_as_float, 3.0, _non_negative),
        "lambda_d": (_as_float, 3.0, _non_negative),
        "num_pool_models": (_as_int, 4, _at_least(1)),
        "mu_prox": (_as_float, 0.0, _non_negative),
        "coeff_mode": (_as_str, "uniform_random", _choice(COEFF_MODES)),
        "dist_epsilon": (_as_float, 1e-8, _positive),
    },
    "analysis": {
        "zeta": (_as_bool, True, None),
        "sigma": (_as_bool, True, None),
        "sigma_draws": (_as_int, 32, _at_least(2)),
        "hessian": (_as_bool, False, None),
        "hessian_iters": (_as_int, 30, _at_least(1)),
        "bvcl": (_as_bool, False, None),
    },
    "output": {
        "dir": (_as_str, _REQUIRED, None),
    },
}


def _parse_section(raw: Any, section: str) -> dict[str, Any]:
    schema = _SCHEMA[section]
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(section, f"expected a mapping, got {raw!r}")
    for key in raw:
        if key not in schema:
            raise ConfigError(f"{section}.{key}", "unknown key")
    out = {}
    for key, (caster, default, validator) in schema.items():
        path = f"{section}.{key}"
        if key in raw:
            value = caster(raw[key], path)
        elif default is _REQUIRED:
            raise ConfigError(path, "missing required key")
        else:
            value = default
        if validator is not None:
            validator(value, path)
        out[key] = value
    return out


def parse_config_data(raw: Any) -> ExperimentConfig:
    """Validate a raw mapping (already loaded from YAML) into a config."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("<root>", f"expected a mapping, got {raw!r}")
    for section in raw:
        if section not in _SCHEMA:
            raise ConfigError(str(section), "unknown section")
    sections = {name: _parse_section(raw.get(name), name) for name in _SCHEMA}

    exp = sections["experiment"]
    data = DataConfig(**sections["data"])
    if data.source == "idx" and (not data.images_path or not data.labels_path):
        raise ConfigError(
            "data.images_path", "required (with data.labels_path) when source is idx"
        )
    if data.val_fraction + data.test_fraction >= 1.0:
        raise ConfigError(
            "data.val_fraction", "val_fraction + test_fraction must be < 1"
        )
    try:
        local = LocalConfig(**sections["local"])
    except ValueError as exc:
        raise ConfigError("local", str(exc)) from exc
    return ExperimentConfig(
        master_seed=exp["master_seed"],
        output_dir=sections["output"]["dir"],
        rounds=exp["rounds"],
        strategy=exp["strategy"],
        num_clients=exp["num_clients"],
        warmup_steps=exp["warmup_steps"],
        warmup_eta=exp["warmup_eta"],
        data=data,
        model=ModelConfig(**sections["model"]),
        partition=PartitionConfig(**sections["partition"]),
        local=local,
        analysis=AnalysisConfig(**sections["analysis"]),
    )


def parse_config(path) -> ExperimentConfig:
    """Load and validate a YAML config file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return parse_config_data(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict[str, dict[str, Any]]:
    """Canonical nested-dict form, in schema order, with plain YAML types."""
    values = {
        "experiment": {
            "master_seed": cfg.master_seed,
            "rounds": cfg.rounds,
            "strategy": cfg.strategy,
            "num_clients": cfg.num_clients,
            "warmup_steps": cfg.warmup_steps,
            "warmup_eta": cfg.warmup_eta,
        },
        "data": {k: getattr(cfg.data, k) for k in _SCHEMA["data"]},
        "model": {
            "hidden_dims": list(cfg.model.hidden_dims),
            "activation": cfg.model.activation,
        },
        "partition": {k: getattr(cfg.partition, k) for k in _SCHEMA["partition"]},
        "local": {k: getattr(cfg.local, k) for k in _SCHEMA["local"]},
        "analysis": {k: getattr(cfg.analysis, k) for k in _SCHEMA["analysis"]},
        "output": {"dir": cfg.output_dir},
    }
    return values


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML snapshot; ``parse`` of the output reproduces ``cfg``."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


def _parse_override_value(text: str) -> Any:
    value = yaml.safe_load(text)
    # YAML 1.1 reads dot-less scientific notation like "5e-4" as a string
    if isinstance(value, str):
        for caster in (int, float):
            try:
                return caster(value)
            except ValueError:
                continue
    return value


def apply_overrides(raw: dict | None, overrides: list[str]) -> dict:
    """Apply ``section.key=value`` overrides onto a raw config mapping.

    Values are parsed as YAML scalars, so ``local.lambda_a=3`` yields an
    integer 3 and ``local.eta=5e-4`` a float.
    """
    out: dict = {} if raw is None else {k: dict(v or {}) for k, v in raw.items()}
    for item in overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(item, "override must look like section.key=value")
        section, dot, name = key.strip().partition(".")
        if not dot or not section or not name:
            raise ConfigError(key, "override key must be a dotted section.key path")
        out.setdefault(section, {})[name] = _parse_override_value(value)
    return out
