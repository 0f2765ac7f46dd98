import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from lss.config import (
    AnalysisConfig,
    ConfigError,
    DataConfig,
    ExperimentConfig,
    LocalConfig,
    ModelConfig,
    PartitionConfig,
    check_key,
    config_to_dict,
    parse_config,
    parse_config_data,
    serialize_config,
)

MINIMAL = """
experiment:
  master_seed: 42
output:
  dir: runs/demo
"""


def parse_text(text):
    return parse_config_data(yaml.safe_load(text))


class TestDefaults:
    def test_empty_optional_sections_get_library_defaults(self):
        cfg = parse_text(MINIMAL)
        assert cfg.local.eta == 5e-4
        assert cfg.local.batch_size == 64
        assert cfg.local.tau == 8
        assert cfg.local.num_pool_models == 4
        assert cfg.local.lambda_a == 3.0
        assert cfg.local.lambda_d == 3.0
        assert cfg.strategy == "lss"
        assert cfg.partition.alpha == 1.0
        assert cfg.data.source == "blobs"

    def test_file_parse(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(MINIMAL)
        cfg = parse_config(path)
        assert cfg.master_seed == 42
        assert cfg.output_dir == "runs/demo"
        assert parse_config(path, ["partition.alpha=0.3"]).partition.alpha == 0.3


class TestValidation:
    def test_negative_alpha_names_key_path(self):
        text = MINIMAL + "partition:\n  alpha: -1\n"
        with pytest.raises(ConfigError, match="partition.alpha"):
            parse_text(text)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="experiment.master_seed"):
            parse_text("output:\n  dir: x\n")
        with pytest.raises(ConfigError, match="output.dir"):
            parse_text("experiment:\n  master_seed: 1\n")

    def test_unknown_key_and_section(self):
        with pytest.raises(ConfigError, match="experiment.turbo"):
            parse_text(MINIMAL + "\nexperiment:\n  master_seed: 1\n  turbo: true\n")
        with pytest.raises(ConfigError, match="extras"):
            parse_text(MINIMAL + "\nextras:\n  x: 1\n")

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="experiment.rounds"):
            parse_text(MINIMAL + "\nexperiment:\n  master_seed: 1\n  rounds: '3'\n")
        with pytest.raises(ConfigError, match="analysis.zeta"):
            parse_text(MINIMAL + "\nanalysis:\n  zeta: 1\n")
        with pytest.raises(ConfigError, match="model.hidden_dims"):
            parse_text(MINIMAL + "\nmodel:\n  hidden_dims: 16\n")

    def test_bools_are_not_integers(self):
        with pytest.raises(ConfigError, match="experiment.rounds"):
            parse_text(MINIMAL + "\nexperiment:\n  master_seed: 1\n  rounds: true\n")

    def test_choice_errors(self):
        with pytest.raises(ConfigError, match="experiment.strategy"):
            parse_text(MINIMAL + "\nexperiment:\n  master_seed: 1\n  strategy: magic\n")

    def test_idx_requires_paths(self):
        with pytest.raises(ConfigError, match="images_path"):
            parse_text(MINIMAL + "\ndata:\n  source: idx\n")

    def test_fraction_budget(self):
        with pytest.raises(ConfigError, match="val_fraction"):
            parse_text(MINIMAL + "\ndata:\n  val_fraction: 0.6\n  test_fraction: 0.5\n")

    def test_local_constraints_surface_with_section(self):
        with pytest.raises(ConfigError, match="local"):
            parse_text(MINIMAL + "\nlocal:\n  eta: 0\n")


SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "partition": PartitionConfig,
    "local": LocalConfig,
    "analysis": AnalysisConfig,
}

# One out-of-range value for every checked key.
BAD_VALUES = [
    ("experiment.master_seed", -1),
    ("experiment.master_seed", 2**64),
    ("experiment.rounds", 0),
    ("experiment.strategy", "magic"),
    ("experiment.num_clients", 0),
    ("experiment.warmup_steps", -1),
    ("experiment.warmup_eta", 0.0),
    ("data.source", "csv"),
    ("data.num_classes", 1),
    ("data.per_class", 0),
    ("data.input_dim", 0),
    ("data.spread", -1.0),
    ("data.val_fraction", 1.0),
    ("data.test_fraction", -0.1),
    ("model.hidden_dims", [8, 0]),
    ("model.activation", "gelu"),
    ("partition.mode", "label_skew"),
    ("partition.alpha", 0.0),
    ("local.eta", 0.0),
    ("local.tau", -1),
    ("local.batch_size", 0),
    ("local.lambda_a", -0.1),
    ("local.lambda_d", -0.1),
    ("local.num_pool_models", 0),
    ("local.mu_prox", -1.0),
    ("local.coeff_mode", "nope"),
    ("local.dist_epsilon", 0.0),
    ("analysis.sigma_draws", 1),
    ("analysis.hessian_iters", 0),
]
FLOAT_KEYS = [key for key, bad in BAD_VALUES if isinstance(bad, float)]


def with_key(key, value):
    section, name = key.split(".")
    raw = yaml.safe_load(MINIMAL)
    raw.setdefault(section, {})[name] = value
    return raw


def construct(key, value):
    """Build the dataclass that owns ``key`` directly, with ``value``."""
    section, name = key.split(".")
    if section == "experiment":
        return ExperimentConfig(**{"master_seed": 1, "output_dir": "x", name: value})
    return SECTIONS[section](**{name: value})


class TestEveryRejectionNamesItsKey:
    @pytest.mark.parametrize("key, bad", BAD_VALUES)
    def test_parser_reports_the_dotted_key(self, key, bad):
        with pytest.raises(ConfigError) as info:
            parse_config_data(with_key(key, bad))
        assert info.value.path == key

    @pytest.mark.parametrize("key, bad", BAD_VALUES)
    def test_construction_names_the_field(self, key, bad):
        with pytest.raises(ValueError, match=rf"^{key.split('.')[1]}: "):
            construct(key, bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats(self, key, bad):
        with pytest.raises(ConfigError) as info:
            parse_config_data(with_key(key, bad))
        assert info.value.path == key
        with pytest.raises(ValueError, match=rf"^{key.split('.')[1]}: .*finite"):
            construct(key, bad)

    def test_construction_casts_to_the_declared_types(self):
        local = LocalConfig(eta=1, lambda_a=3)
        assert type(local.eta) is float and type(local.lambda_a) is float
        assert ModelConfig(hidden_dims=[8, 4]).hidden_dims == (8, 4)
        with pytest.raises(ValueError, match="^tau: expected an integer"):
            LocalConfig(tau=1.5)


# Every key with a strategy for its valid values.
POSITIVE = st.floats(min_value=0.0, exclude_min=True, max_value=1e300)
NON_NEGATIVE = st.floats(min_value=0.0, max_value=1e300)
FRACTION = st.floats(min_value=0.0, max_value=0.45)
VALID = {
    "experiment": {
        "master_seed": st.integers(0, 2**63 - 1),
        "rounds": st.integers(1, 10**6),
        "strategy": st.sampled_from(["fedavg", "fedprox", "lss"]),
        "num_clients": st.integers(1, 10**6),
        "warmup_steps": st.integers(0, 10**6),
        "warmup_eta": st.one_of(POSITIVE, st.integers(1, 10**6)),
    },
    "data": {
        "source": st.sampled_from(["blobs", "idx"]),
        "num_classes": st.integers(2, 10**6),
        "per_class": st.integers(1, 10**6),
        "input_dim": st.integers(1, 10**6),
        "spread": POSITIVE,
        "images_path": st.text(min_size=1),
        "labels_path": st.text(min_size=1),
        "val_fraction": FRACTION,
        "test_fraction": FRACTION,
    },
    "model": {
        "hidden_dims": st.lists(st.integers(1, 4096), max_size=3),
        "activation": st.sampled_from(["relu", "tanh"]),
    },
    "partition": {
        "mode": st.sampled_from(["dirichlet", "feature_shift"]),
        "alpha": POSITIVE,
    },
    "local": {
        "eta": POSITIVE,
        "tau": st.integers(0, 10**6),
        "batch_size": st.integers(1, 10**6),
        "lambda_a": st.one_of(NON_NEGATIVE, st.integers(0, 10**6)),
        "lambda_d": NON_NEGATIVE,
        "num_pool_models": st.integers(1, 10**6),
        "mu_prox": NON_NEGATIVE,
        "coeff_mode": st.sampled_from(["uniform_random", "active_only"]),
        "dist_epsilon": POSITIVE,
    },
    "analysis": {
        "zeta": st.booleans(),
        "sigma": st.booleans(),
        "sigma_draws": st.integers(2, 10**6),
        "hessian": st.booleans(),
        "hessian_iters": st.integers(1, 10**6),
        "bvcl": st.booleans(),
    },
    "output": {"dir": st.text(min_size=1)},
}

MINIMAL_SNAPSHOT = """\
experiment:
  master_seed: 42
  rounds: 1
  strategy: lss
  num_clients: 5
  warmup_steps: 0
  warmup_eta: 0.1
data:
  source: blobs
  num_classes: 10
  per_class: 300
  input_dim: 16
  spread: 0.5
  images_path: ''
  labels_path: ''
  val_fraction: 0.1
  test_fraction: 0.1
model:
  hidden_dims: []
  activation: relu
partition:
  mode: dirichlet
  alpha: 1.0
local:
  eta: 0.0005
  tau: 8
  batch_size: 64
  lambda_a: 3.0
  lambda_d: 3.0
  num_pool_models: 4
  mu_prox: 0.0
  coeff_mode: uniform_random
  dist_epsilon: 1.0e-08
analysis:
  zeta: true
  sigma: true
  sigma_draws: 32
  hessian: false
  hessian_iters: 30
  bvcl: false
output:
  dir: runs/demo
"""

README = Path(__file__).resolve().parents[1] / "README.md"


def key_lists(mapping):
    return {section: list(keys) for section, keys in mapping.items()}


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.fixed_dictionaries(
        {section: st.fixed_dictionaries(keys) for section, keys in VALID.items()}
    ))
    def test_every_key_round_trips(self, raw):
        cfg = parse_config_data(raw)
        assert key_lists(config_to_dict(cfg)) == key_lists(VALID)
        assert parse_config_data(yaml.safe_load(serialize_config(cfg))) == cfg

    def test_minimal_snapshot_bytes(self):
        assert serialize_config(parse_text(MINIMAL)) == MINIMAL_SNAPSHOT

    def test_readme_config_block_is_the_library_defaults(self):
        readme = README.read_text(encoding="utf-8")
        block = re.search(r"## Config format.*?```yaml\n(.*?)```", readme, re.S).group(1)
        raw = yaml.safe_load(block)
        cfg = parse_config_data(raw)
        assert cfg == ExperimentConfig(master_seed=cfg.master_seed, output_dir=cfg.output_dir)
        assert key_lists(raw) == key_lists(config_to_dict(cfg))

    def test_serialize_then_parse_is_identity(self):
        text = MINIMAL + """
local:
  eta: 0.05
  tau: 3
model:
  hidden_dims: [8, 4]
  activation: tanh
partition:
  mode: feature_shift
"""
        cfg = parse_text(text)
        again = parse_config_data(yaml.safe_load(serialize_config(cfg)))
        assert again == cfg

    def test_serialization_is_canonical(self):
        cfg = parse_text(MINIMAL)
        assert serialize_config(cfg) == serialize_config(
            parse_config_data(yaml.safe_load(serialize_config(cfg)))
        )


class TestOverrides:
    def test_override_values_are_yaml_typed(self):
        raw = yaml.safe_load(MINIMAL)
        overrides = ["local.lambda_a=3", "local.eta=5e-4", "analysis.bvcl=true"]
        cfg = parse_config_data(raw, overrides)
        assert cfg.local.lambda_a == 3
        assert cfg.local.eta == 5e-4
        assert cfg.analysis.bvcl is True

    def test_override_creates_missing_section(self):
        out = parse_config_data(yaml.safe_load(MINIMAL), ["partition.alpha=0.3"])
        assert out.partition.alpha == 0.3

    def test_bad_override_shapes(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_config_data({}, ["local.lambda_a"])
        with pytest.raises(ConfigError, match="dotted"):
            parse_config_data({}, ["lambda_a=3"])

    @pytest.mark.parametrize(
        "override, message",
        [
            ("partition.alpha=-1", "partition.alpha: must be > 0, got -1.0"),
            ("local.nope=3", "local.nope: unknown key"),
            ("experiment.master_seed=x", "experiment.master_seed: expected an integer, got 'x'"),
            ("data.spread=.nan", "data.spread: expected a finite number, got nan"),
            ("data.spread=-.inf", "data.spread: expected a finite number, got -inf"),
            ("local.tau=2.5", "local.tau: expected an integer, got 2.5"),
            ("analysis.bvcl=1", "analysis.bvcl: expected a boolean, got 1"),
            ("model.hidden_dims=[1,", "model.hidden_dims: expected a list of integers, got '[1,'"),
            ("output.dir=", "output.dir: must not be empty"),
            ("nope.x=1", "nope: unknown section"),
        ],
    )
    def test_file_parse_reports_a_bad_override_by_dotted_path(self, tmp_path, override, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(MINIMAL)
        with pytest.raises(ConfigError) as err:
            parse_config(path, [override])
        assert str(err.value) == message

    def test_unknown_override_key_rejected_at_parse(self):
        with pytest.raises(ConfigError, match="local.nope"):
            parse_config_data(yaml.safe_load(MINIMAL), ["local.nope=3"])

    @pytest.mark.parametrize(
        "text, overrides, message",
        [
            (MINIMAL + "data: 5\n", ["local.tau=3"], "data: expected a mapping, got 5"),
            (MINIMAL + "data: 5\n", ["data.spread=1"], "data: expected a mapping, got 5"),
            (MINIMAL + "data: 0\n", ["local.tau=3"], "data: expected a mapping, got 0"),
            (MINIMAL + "local: [1]\n", ["local.tau=3"], "local: expected a mapping, got [1]"),
            ("- 1\n- 2\n", ["local.tau=3"], "<root>: expected a mapping, got [1, 2]"),
            ("7\n", ["local.tau=3"], "<root>: expected a mapping, got 7"),
        ],
        ids=["other-section", "same-section", "falsy", "list-section", "list-root", "scalar-root"],
    )
    def test_non_mapping_gives_the_error_of_the_file_alone(self, text, overrides, message):
        raw = yaml.safe_load(text)
        with pytest.raises(ConfigError) as alone:
            parse_config_data(raw)
        with pytest.raises(ConfigError) as overridden:
            parse_config_data(raw, overrides)
        assert str(alone.value) == str(overridden.value) == message

    @pytest.mark.parametrize("key", ["output.dir", "data.images_path"])
    @pytest.mark.parametrize("text", ["runs/a #1", "2024", "yes", "~", "a: b", " x "])
    def test_string_key_keeps_the_override_text_verbatim(self, key, text):
        cfg = parse_config_data(yaml.safe_load(MINIMAL), [f"{key}={text}"])
        value = cfg.output_dir if key == "output.dir" else cfg.data.images_path
        assert value == text

    @pytest.mark.parametrize(
        "override, attr, value",
        [
            ("experiment.rounds=010", "rounds", 10),
            ("experiment.master_seed=1_000", "master_seed", 1000),
            ("experiment.warmup_eta=1e-3", "warmup_eta", 1e-3),
            ("experiment.warmup_eta=2", "warmup_eta", 2.0),
        ],
    )
    def test_number_key_reads_the_text_as_python_does(self, override, attr, value):
        cfg = parse_config_data(yaml.safe_load(MINIMAL), [override])
        assert getattr(cfg, attr) == value
        assert type(getattr(cfg, attr)) is type(value)

    def test_override_replaces_the_file_value_and_fills_a_required_key(self):
        raw = {"experiment": {"master_seed": 1, "rounds": 3}}
        cfg = parse_config_data(raw, ["experiment.rounds=4", "output.dir=runs/x"])
        assert (cfg.rounds, cfg.output_dir) == (4, "runs/x")

    def test_later_override_of_a_key_wins(self):
        cfg = parse_config_data(yaml.safe_load(MINIMAL), ["local.tau=2", "local.tau=5"])
        assert cfg.local.tau == 5

    def test_empty_output_dir_in_a_file_is_rejected(self):
        with pytest.raises(ConfigError, match="output.dir: must not be empty"):
            parse_text(MINIMAL.replace("runs/demo", '""'))


class TestCheckKey:
    def test_known_keys_pass(self):
        for key in ("experiment.rounds", "output.dir", "local.tau", "model.hidden_dims"):
            check_key(key)

    @pytest.mark.parametrize(
        "key, message",
        [
            ("tau", "tau: override key must be a dotted section.key path"),
            ("nope.x", "nope: unknown section"),
            ("local.nope", "local.nope: unknown key"),
            ("experiment.output_dir", "experiment.output_dir: unknown key"),
        ],
    )
    def test_unknown_paths_fail_as_an_override_would(self, key, message):
        with pytest.raises(ConfigError) as err:
            check_key(key)
        assert str(err.value) == message
        with pytest.raises(ConfigError) as as_override:
            parse_config_data(yaml.safe_load(MINIMAL), [f"{key}=1"])
        assert str(as_override.value) == message
