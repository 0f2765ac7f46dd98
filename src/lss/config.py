"""Experiment configuration: the section dataclasses are the schema.

Config files are YAML mappings with one section per subsystem.  Each key
is declared once, as a field of a frozen dataclass: ``data``, ``model``,
``partition``, ``local`` and ``analysis`` are ``DataConfig``,
``ModelConfig``, ``PartitionConfig``, ``LocalConfig`` and
``AnalysisConfig``; ``experiment.*`` and ``output.dir`` are the flat fields
of ``ExperimentConfig``.  A field's type is the key's type, its default the
key's default, and its ``check`` metadata the key's range check.  Every
config object casts and checks its fields when it is constructed and
raises ``ConfigError`` naming the field; the parser reports the same
failure by dotted path (e.g. ``partition.alpha``), rejects unknown
sections and keys, and fills omitted keys with the defaults.  A
``section.key=value`` override replaces one key and is checked the same way.
``serialize_config`` emits a canonical snapshot that parses back to an
identical config, which is what run output directories store for
reproducibility.
"""

# No ``from __future__ import annotations`` here: a field's annotation is
# read at run time as the key's type.
import sys
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from typing import Any, Callable, Sequence

import yaml

from .model import ACTIVATIONS

COEFF_MODES = ("uniform_random", "active_only")
DATA_SOURCES = ("blobs", "idx")
PARTITION_MODES = ("dirichlet", "feature_shift")
STRATEGIES = ("fedavg", "fedprox", "lss")


class ConfigError(ValueError):
    """Configuration problem, tagged with the dotted key path."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


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


_CASTERS: dict[Any, Callable[[Any, str], Any]] = {
    int: _as_int,
    float: _as_float,
    str: _as_str,
    bool: _as_bool,
    tuple[int, ...]: _as_int_tuple,
}


def _choice(options: tuple[str, ...]) -> Callable[[Any, str], None]:
    def check(value: Any, path: str) -> None:
        if value not in options:
            raise ConfigError(path, f"must be one of {options}, got {value!r}")

    return check


def _positive(value: Any, path: str) -> None:
    if value <= 0:
        raise ConfigError(path, f"must be > 0, got {value}")


def _at_least(minimum: int) -> Callable[[Any, str], None]:
    def check(value: Any, path: str) -> None:
        if value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")

    return check


def _non_empty(value: Any, path: str) -> None:
    if not value:
        raise ConfigError(path, "must not be empty")


def _all_positive(value: Any, path: str) -> None:
    if any(v <= 0 for v in value):
        raise ConfigError(path, f"every entry must be > 0, got {list(value)}")


def _seed(value: Any, path: str) -> None:
    if not 0 <= value < 2**64:
        raise ConfigError(path, f"must be in [0, 2**64), got {value}")


def _fraction(value: Any, path: str) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigError(path, f"must be in [0, 1), got {value}")


def _key(default: Any, check: Callable[[Any, str], None] | None = None) -> Any:
    """A config key: a field with its default and its range check."""
    return field(default=default, metadata={"check": check})


class _Checked:
    """Casts every field to its declared type and runs its check on construction."""

    def __post_init__(self) -> None:
        for f in fields(self):
            if is_dataclass(f.type):  # a section, checked when it was built
                continue
            value = _CASTERS[f.type](getattr(self, f.name), f.name)
            check = f.metadata.get("check")
            if check is not None:
                check(value, f.name)
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class DataConfig(_Checked):
    source: str = _key("blobs", _choice(DATA_SOURCES))
    num_classes: int = _key(10, _at_least(2))
    per_class: int = _key(300, _at_least(1))
    input_dim: int = _key(16, _at_least(1))
    spread: float = _key(0.5, _positive)
    images_path: str = _key("")
    labels_path: str = _key("")
    val_fraction: float = _key(0.1, _fraction)
    test_fraction: float = _key(0.1, _fraction)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.source == "idx" and (not self.images_path or not self.labels_path):
            raise ConfigError(
                "images_path", "required (with data.labels_path) when source is idx"
            )
        if self.val_fraction + self.test_fraction >= 1.0:
            raise ConfigError("val_fraction", "val_fraction + test_fraction must be < 1")


@dataclass(frozen=True)
class ModelConfig(_Checked):
    hidden_dims: tuple[int, ...] = _key((), _all_positive)
    activation: str = _key("relu", _choice(ACTIVATIONS))


@dataclass(frozen=True)
class PartitionConfig(_Checked):
    mode: str = _key("dirichlet", _choice(PARTITION_MODES))
    alpha: float = _key(1.0, _positive)


@dataclass(frozen=True)
class LocalConfig(_Checked):
    """Hyperparameters for one client's local training."""

    eta: float = _key(5e-4, _positive)
    # tau == 0 is allowed as the degenerate no-op used by tests/smoke runs
    tau: int = _key(8, _at_least(0))
    batch_size: int = _key(64, _at_least(1))
    lambda_a: float = _key(3.0, _at_least(0))
    lambda_d: float = _key(3.0, _at_least(0))
    num_pool_models: int = _key(4, _at_least(1))
    mu_prox: float = _key(0.0, _at_least(0))
    coeff_mode: str = _key("uniform_random", _choice(COEFF_MODES))
    dist_epsilon: float = _key(1e-8, _positive)


@dataclass(frozen=True)
class AnalysisConfig(_Checked):
    zeta: bool = _key(True)
    sigma: bool = _key(True)
    sigma_draws: int = _key(32, _at_least(2))
    hessian: bool = _key(False)
    hessian_iters: int = _key(30, _at_least(1))
    bvcl: bool = _key(False)


@dataclass(frozen=True)
class ExperimentConfig(_Checked):
    master_seed: int = field(metadata={"check": _seed})
    output_dir: str = field(metadata={"check": _non_empty})
    rounds: int = _key(1, _at_least(1))
    strategy: str = _key("lss", _choice(STRATEGIES))
    num_clients: int = _key(5, _at_least(1))
    warmup_steps: int = _key(0, _at_least(0))
    warmup_eta: float = _key(0.1, _positive)
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    partition: PartitionConfig = field(default_factory=PartitionConfig)
    local: LocalConfig = field(default_factory=LocalConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)


def _layout() -> dict[str, tuple[type | None, dict[str, Field]]]:
    """YAML section -> (its dataclass, key -> field), in ``config.yaml`` order.

    The section dataclass is None for ``experiment`` and ``output``, whose
    keys are ``ExperimentConfig``'s own fields: ``output.dir`` is
    ``output_dir`` and every other flat field sits under ``experiment``.
    """
    flat = {f.name: f for f in fields(ExperimentConfig) if not is_dataclass(f.type)}
    output = {"dir": flat.pop("output_dir")}
    sections = {
        f.name: (f.type, {g.name: g for g in fields(f.type)})
        for f in fields(ExperimentConfig)
        if is_dataclass(f.type)
    }
    return {"experiment": (None, flat), **sections, "output": (None, output)}


def _mapping(raw: Any, path: str) -> dict:
    """A raw section (or the root) as a mapping; an omitted one is empty."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(path, f"expected a mapping, got {raw!r}")
    return raw


def _read(text: str, kind: Any) -> Any:
    """Override text as its key's type reads it: a string verbatim, a number
    as Python reads it, anything else (``.nan`` too) as YAML."""
    if kind is str:
        return text
    for number in (int, float) if kind in (int, float) else ():
        try:
            return number(text)
        except ValueError:
            continue
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text  # not a value of the key's type, which its cast reports


def _keywords(raw: Any, texts: dict[str, str], section: str, keys: dict[str, Field]) -> dict:
    """The constructor arguments one section gives, by field name: the raw
    keys, then the override texts read as their keys' types."""
    raw = _mapping(raw, section)
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{section}.{key}", "unknown key")
    values = {**raw, **{key: _read(text, keys[key].type) for key, text in texts.items()}}
    for key, f in keys.items():
        if key not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{section}.{key}", "missing required key")
    return {keys[key].name: value for key, value in values.items()}


def _build(cls: type, kwargs: dict[str, Any], paths: dict[str, str]) -> Any:
    """``cls(**kwargs)``, with a failing field reported by its dotted path."""
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(paths[exc.path], exc.message) from exc


def _override(item: str, layout: dict) -> tuple[str, str, str]:
    """A ``section.key=value`` override as (section, key, value text); the
    path must name a config key."""
    key, sep, text = item.partition("=")
    if not sep:
        raise ConfigError(item, "override must look like section.key=value")
    section, dot, name = key.strip().partition(".")
    if not dot or not section or not name:
        raise ConfigError(key, "override key must be a dotted section.key path")
    if section not in layout:
        raise ConfigError(section, "unknown section")
    if name not in layout[section][1]:
        raise ConfigError(f"{section}.{name}", "unknown key")
    return section, name, text


def check_key(key: str) -> None:
    """Raise the ``ConfigError`` an override of dotted ``key`` gets for its path."""
    _override(f"{key}=", _layout())


def parse_config_data(raw: Any, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Validate a raw mapping (already loaded from YAML) into a config; each
    ``section.key=value`` override replaces one key and is checked like it."""
    raw = _mapping(raw, "<root>")
    layout = _layout()
    texts: dict[str, dict[str, str]] = {section: {} for section in layout}
    for item in overrides:
        section, key, text = _override(item, layout)
        texts[section][key] = text
    for section in raw:
        if section not in layout:
            raise ConfigError(str(section), "unknown section")
    top: dict[str, Any] = {}
    top_paths: dict[str, str] = {}
    for section, (cls, keys) in layout.items():
        kwargs = _keywords(raw.get(section), texts[section], section, keys)
        paths = {f.name: f"{section}.{key}" for key, f in keys.items()}
        if cls is None:
            top.update(kwargs)
            top_paths.update(paths)
        else:
            top[section] = _build(cls, kwargs, paths)
    return _build(ExperimentConfig, top, top_paths)


def config_to_dict(cfg: ExperimentConfig) -> dict[str, dict[str, Any]]:
    """Canonical nested-dict form, in schema order, with plain YAML types."""
    out = {}
    for section, (cls, keys) in _layout().items():
        owner = cfg if cls is None else getattr(cfg, section)
        values = {key: getattr(owner, f.name) for key, f in keys.items()}
        out[section] = {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML snapshot; ``parse`` of the output reproduces ``cfg``."""
    return yaml.safe_dump(config_to_dict(cfg), sort_keys=False)


def parse_config(path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Load a YAML config file, apply ``section.key=value`` overrides, and
    validate; the one reader of config files."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    return parse_config_data(raw, overrides)
