import re
import time
import warnings

import numpy as np
import pytest
import yaml

import lss.cli as cli
import lss.experiment as experiment
from lss.analysis import TheoryParams, convergence_bound, lr_choice, max_local_steps
from lss.cli import main
from lss.params import load_checkpoint
from test_data import _write_idx_pair

SMOKE = """
experiment:
  master_seed: 7
  rounds: 1
  strategy: lss
  num_clients: 2
  warmup_steps: 5
data:
  num_classes: 3
  per_class: 40
  input_dim: 4
  spread: 0.8
local:
  eta: 0.05
  tau: 1
  batch_size: 16
  num_pool_models: 2
output:
  dir: OUTDIR
"""

GOLDEN = """
experiment: {master_seed: 2024, rounds: 2, strategy: lss, num_clients: 3,
             warmup_steps: 30, warmup_eta: 0.1}
data: {num_classes: 5, per_class: 60, input_dim: 6, spread: 1.0}
model: {hidden_dims: [], activation: relu}
partition: {mode: dirichlet, alpha: 0.5}
local: {eta: 0.05, tau: 4, batch_size: 32, lambda_a: 1.0, lambda_d: 1.0,
        num_pool_models: 3}
output: {dir: OUTDIR}
"""


def write_smoke(tmp_path, out_name="run1"):
    cfg = tmp_path / "smoke.yaml"
    cfg.write_text(SMOKE.replace("OUTDIR", str(tmp_path / out_name)))
    return cfg


class TestRun:
    def test_smoke_run_writes_artifacts_quickly(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        t0 = time.perf_counter()
        assert main(["run", str(cfg)]) == 0
        assert time.perf_counter() - t0 < 5.0
        out = tmp_path / "run1"
        for name in ("rounds.csv", "diagnostics.txt", "final.lssw", "config.yaml"):
            assert (out / name).exists(), name
        assert "round 1" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        first_csv = (tmp_path / "run1" / "rounds.csv").read_bytes()
        first_ckpt = (tmp_path / "run1" / "final.lssw").read_bytes()
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "run1" / "rounds.csv").read_bytes() == first_csv
        assert (tmp_path / "run1" / "final.lssw").read_bytes() == first_ckpt

    def test_invalid_output_dir_leaves_nothing_behind(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SMOKE.replace("OUTDIR", str(blocker)))
        assert main(["run", str(cfg)]) == 1
        assert "error:" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory"
        assert not (tmp_path / "blocked.tmp").exists()

    def test_overrides_change_resolved_snapshot(self, tmp_path):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg), "--set", "local.lambda_a=1.5"]) == 0
        snapshot = (tmp_path / "run1" / "config.yaml").read_text()
        assert "lambda_a: 1.5" in snapshot

    def test_output_dir_override_is_taken_verbatim(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        out = tmp_path / "a #1"
        assert main(["run", str(cfg), "-s", f"output.dir={out}"]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")
        snapshot = yaml.safe_load((out / "config.yaml").read_text())
        assert snapshot["output"]["dir"] == str(out)
        assert not (tmp_path / "a").exists() and not (tmp_path / "run1").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(SMOKE.replace("OUTDIR", str(tmp_path / "o")) + "partition:\n  alpha: -2\n")
        assert main(["run", str(cfg)]) == 1
        assert "partition.alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override",
        ["local.eta=nan", "partition.alpha=nan", "data.spread=.nan", "local.lambda_a=.inf"],
    )
    def test_non_finite_override_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, override
    ):
        started = []
        monkeypatch.setattr(cli, "run_experiment", started.append)
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg), "--set", override]) == 1
        assert override.partition("=")[0] in capsys.readouterr().err
        assert started == []

    @pytest.mark.parametrize(
        "overrides, key",
        [
            (["data.val_fraction=0.0"], "data.val_fraction"),
            (["data.test_fraction=0.0"], "data.test_fraction"),
            (["data.val_fraction=0.5", "data.test_fraction=0.496"], "data.val_fraction"),
            (["experiment.num_clients=200"], "experiment.num_clients"),
            (
                ["experiment.num_clients=200", "partition.mode=feature_shift"],
                "experiment.num_clients",
            ),
        ],
    )
    def test_empty_split_or_client_rejected_before_warmup(
        self, tmp_path, capsys, monkeypatch, overrides, key
    ):
        started = []
        monkeypatch.setattr(experiment, "warmup_pretrain", lambda *a, **k: started.append(a))
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg), *(arg for o in overrides for arg in ("--set", o))]) == 1
        err = capsys.readouterr().err
        assert key in err and "samples" in err
        assert started == []

    def test_resolved_snapshot_reproduces_the_run(self, tmp_path):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        snapshot = tmp_path / "run1" / "config.yaml"
        assert main([
            "run", str(snapshot), "--set", f"output.dir={tmp_path / 'replay'}",
        ]) == 0
        assert (tmp_path / "replay" / "rounds.csv").read_bytes() == (
            tmp_path / "run1" / "rounds.csv"
        ).read_bytes()
        assert (tmp_path / "replay" / "final.lssw").read_bytes() == (
            tmp_path / "run1" / "final.lssw"
        ).read_bytes()


    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                [],
                "client 0 failed during round 1: soup member 1 diverged: "
                "its distance to member 0 is inf",
            ),
            (
                ["experiment.strategy=fedprox", "local.mu_prox=1"],
                "client 0 failed during round 1: operation produced non-finite entries",
            ),
            (
                ["experiment.strategy=fedprox", "local.mu_prox=1", "local.tau=8"],
                "client 0 failed during round 1: operation produced non-finite entries",
            ),
            (
                ["experiment.strategy=fedavg"],
                "round 1: update norms must be finite and non-negative: (inf, inf, inf)",
            ),
            (
                ["experiment.strategy=fedprox", "local.tau=8"],
                "round 1: update norms must be finite and non-negative: (inf, inf, inf)",
            ),
        ],
        ids=["lss", "fedprox", "fedprox-tau8", "fedavg", "fedprox-mu0-tau8"],
    )
    def test_diverged_run_prints_one_error_line(self, tmp_path, capsys, overrides, message):
        # The golden configuration at a step size that overflows in round 1.
        # LSS stops at the first soup distance and FedProx at the member's
        # non-finite weights, naming the client; FedAvg keeps every weight
        # finite, so the round's update norms catch it.  numpy's overflow
        # warnings must not reach the user before the error.
        cfg = tmp_path / "golden.yaml"
        cfg.write_text(GOLDEN.replace("OUTDIR", str(tmp_path / "out")))
        argv = ["run", str(cfg), "-s", "local.eta=1e300"]
        for item in overrides:
            argv += ["-s", item]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEval:
    def test_eval_reports_checkpoint_accuracy(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "split: test" in out

    def test_eval_rejects_empty_split(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        args = ["eval", str(ckpt), "--config", str(cfg), "--set", "data.test_fraction=0.0"]
        assert main(args) == 1
        assert "data.test_fraction" in capsys.readouterr().err

    def test_eval_rejects_more_clients_than_train_samples(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        args = ["eval", str(ckpt), "--config", str(cfg), "--set", "experiment.num_clients=200"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "experiment.num_clients" in err and "training samples" in err

    def test_eval_rejects_mismatched_model(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg), "--set", "model.hidden_dims=[8]"]) == 1
        assert "checkpoint layers [(4, 3)] do not match" in capsys.readouterr().err
        # [2] and [2, 1] both hold 19 weights on the 4-input, 3-class data
        assert main(["run", str(cfg), "--set", "model.hidden_dims=[2]"]) == 0
        capsys.readouterr()
        assert main(["eval", str(ckpt), "--config", str(cfg), "--set", "model.hidden_dims=[2,1]"]) == 1
        assert (
            "checkpoint layers [(4, 2), (2, 3)] do not match the config model's "
            "[(4, 2), (2, 1), (1, 3)]"
        ) in capsys.readouterr().err


    @pytest.mark.parametrize(
        "split, accuracy, loss",
        [("test", "0.733333", "0.727471"), ("val", "0.733333", "0.741201")],
    )
    def test_eval_of_the_golden_checkpoint_prints_its_archived_lines(
        self, tmp_path, capsys, split, accuracy, loss
    ):
        cfg = tmp_path / "golden.yaml"
        cfg.write_text(GOLDEN.replace("OUTDIR", str(tmp_path / "out")))
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "out" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg), "--split", split]) == 0
        assert capsys.readouterr().out == f"split: {split}\naccuracy: {accuracy}\nloss: {loss}\n"

    @pytest.mark.parametrize("mode", ["dirichlet", "feature_shift"])
    def test_eval_test_split_scores_the_set_the_run_scored(self, tmp_path, capsys, mode):
        cfg = write_smoke(tmp_path)
        sets = ["--set", f"partition.mode={mode}", "--set", "model.hidden_dims=[6]"]
        assert main(["run", str(cfg), *sets]) == 0
        last = (tmp_path / "run1" / "rounds.csv").read_text().splitlines()[-1].split(",")
        capsys.readouterr()
        ckpt = tmp_path / "run1" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg), *sets]) == 0
        out = capsys.readouterr().out
        assert f"accuracy: {float(last[1]):.6f}\n" in out
        assert f"loss: {float(last[2]):.6f}\n" in out


class TestIdxSource:
    def write_idx_config(self, tmp_path, labels=tuple(i % 3 for i in range(30))):
        """Four-pixel images (by default 30, labelled 0, 1, 2), as an IDX pair and a config."""
        pixels = np.random.default_rng(0).integers(0, 256, size=len(labels) * 4).tolist()
        images, labels = _write_idx_pair(tmp_path, pixels, labels)
        cfg = tmp_path / "idx.yaml"
        cfg.write_text(
            SMOKE.replace("OUTDIR", str(tmp_path / "out")).replace(
                "data:\n",
                f"data:\n  source: idx\n  images_path: {images}\n  labels_path: {labels}\n",
            )
        )
        return cfg

    def test_matching_class_count_runs_and_evaluates(self, tmp_path):
        cfg = self.write_idx_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        assert main(["eval", str(tmp_path / "out" / "final.lssw"), "--config", str(cfg)]) == 0

    def test_class_count_mismatch_rejected_before_warmup(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_idx_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        started = []
        monkeypatch.setattr(experiment, "warmup_pretrain", lambda *a, **k: started.append(a))
        ckpt = str(tmp_path / "out" / "final.lssw")
        for argv in (["run", str(cfg)], ["eval", ckpt, "--config", str(cfg)]):
            assert main([*argv, "--set", "data.num_classes=10"]) == 1
            err = capsys.readouterr().err
            assert "data.num_classes: is 10, but the IDX labels give 3 classes" in err
        assert started == []

    def test_input_dim_mismatch_rejected_before_warmup(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_idx_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        capsys.readouterr()
        started = []
        monkeypatch.setattr(experiment, "warmup_pretrain", lambda *a, **k: started.append(a))
        ckpt = str(tmp_path / "out" / "final.lssw")
        for argv in (["run", str(cfg)], ["eval", ckpt, "--config", str(cfg)]):
            assert main([*argv, "-s", "data.input_dim=16"]) == 1
            err = capsys.readouterr().err
            assert "data.input_dim: is 16, but the IDX images have 4 pixels" in err
        assert started == []


    @pytest.mark.parametrize(
        "labels, message",
        [
            ((), r"IDX image count field of \S+images\.idx is 0: it holds no images"),
            ((0,) * 30, r"IDX labels \S+labels\.idx give 1 class \(largest label \+ 1\); "
                        r"at least 2 are needed"),
        ],
        ids=["zero-images", "one-class"],
    )
    def test_degenerate_idx_pair_prints_one_error_line(self, tmp_path, capsys, labels, message):
        cfg = self.write_idx_config(tmp_path, labels)
        assert main(["run", str(cfg)]) == 1
        assert re.fullmatch(f"error: {message}\n", capsys.readouterr().err)
        assert not (tmp_path / "out").exists()


class TestSweep:
    def test_single_cell_matches_run_artifacts(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="plain")
        assert main(["run", str(cfg)]) == 0
        sweep_cfg = write_smoke(tmp_path, out_name="sweep")
        assert main(["sweep", str(sweep_cfg), "--grid", "local.tau=1"]) == 0
        cells = list((tmp_path / "sweep").glob("cell_*"))
        assert len(cells) == 1
        assert (cells[0] / "rounds.csv").read_bytes() == (
            tmp_path / "plain" / "rounds.csv"
        ).read_bytes()
        assert (tmp_path / "sweep" / "summary.csv").exists()

    def test_grid_produces_one_cell_per_value(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="sweep2")
        assert main([
            "sweep", str(cfg), "--grid", "local.lambda_a=0,1,3",
        ]) == 0
        cells = sorted((tmp_path / "sweep2").glob("cell_*"))
        assert len(cells) == 3
        summary = (tmp_path / "sweep2" / "summary.csv").read_text().splitlines()
        assert summary[0] == "cell,local.lambda_a,status,final_acc"
        assert len(summary) == 4
        assert all(line.split(",")[2] == "ok" for line in summary[1:])

    def test_failed_cell_is_recorded_and_sweep_continues(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="sweep3")
        assert main([
            "sweep", str(cfg), "--grid", "local.eta=-1,0.05",
        ]) == 1
        summary = (tmp_path / "sweep3" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3
        statuses = [line.split(",")[2] for line in summary[1:]]
        assert statuses[0].startswith("error") and statuses[1] == "ok"

    def test_invalid_base_config_exits_before_any_cell(self, tmp_path, capsys):
        # The grid would override the bad key, but the base config is checked alone.
        cfg = tmp_path / "bad_base.yaml"
        cfg.write_text(
            SMOKE.replace("OUTDIR", str(tmp_path / "bad")).replace("eta: 0.05", "eta: -1")
        )
        assert main(["sweep", str(cfg), "--grid", "local.eta=0.05,0.1"]) == 1
        assert capsys.readouterr().err == "error: local.eta: must be > 0, got -1.0\n"
        assert not (tmp_path / "bad").exists()

    def test_set_output_dir_moves_the_whole_sweep(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="unused")
        moved = tmp_path / "moved"
        self.check_sweep_root(cfg, moved, ["-s", f"output.dir={moved}"])
        assert not (tmp_path / "unused").exists()

    def test_cells_keep_a_root_that_yaml_would_cut(self, tmp_path):
        # Unquoted, "a #1" reads as "a" plus a comment in YAML.
        root = tmp_path / "a #1"
        cfg = tmp_path / "smoke.yaml"
        cfg.write_text(SMOKE.replace("OUTDIR", f'"{root}"'))
        self.check_sweep_root(cfg, root, [])
        assert not (tmp_path / "a").exists()

    def test_set_output_dir_keeps_a_root_that_yaml_would_cut(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="unused")
        root = tmp_path / "a #1"
        self.check_sweep_root(cfg, root, ["-s", f"output.dir={root}"])
        assert not (tmp_path / "a").exists() and not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("key", ["local.nope", "tau", "nope.x"])
    def test_unknown_grid_key_exits_before_any_cell(self, tmp_path, capsys, key):
        cfg = write_smoke(tmp_path, out_name="never")
        assert main(["run", str(cfg), "-s", f"{key}=1"]) == 1
        run_err = capsys.readouterr().err
        argv = ["sweep", str(cfg), "-g", "local.tau=1,2", "-g", f"{key}=1,2"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert err == run_err and err.count("\n") == 1 and err.startswith("error: ")
        assert out == ""
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "grid, message",
        [
            (["local.tau=1,2", " local.tau =3"], "local.tau: cannot be a grid axis: it is given twice"),
            (["output.dir=a,b"], "output.dir: cannot be a grid axis: it names each cell's directory"),
        ],
        ids=["repeated-key", "output-dir"],
    )
    def test_grid_axis_that_cells_would_not_run_exits_before_any_cell(
        self, tmp_path, capsys, grid, message
    ):
        cfg = write_smoke(tmp_path, out_name="never")
        argv = ["sweep", str(cfg)]
        for axis in grid:
            argv += ["-g", axis]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_slash_in_a_value_keeps_each_cell_one_directory(self, tmp_path):
        # blobs data ignores images_path, so both cells run
        cfg = write_smoke(tmp_path, out_name="sweep")
        assert main(["sweep", str(cfg), "-g", "data.images_path=x/a,/x/b"]) == 0
        root = tmp_path / "sweep"
        cells = ["cell_000_images_path=x_a", "cell_001_images_path=_x_b"]
        assert sorted(p.name for p in root.iterdir()) == [*cells, "summary.csv"]
        for cell, value in zip(cells, ["x/a", "/x/b"]):
            snapshot = yaml.safe_load((root / cell / "config.yaml").read_text())
            assert snapshot["data"]["images_path"] == value
        rows = (root / "summary.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [[cells[0], "x/a"], [cells[1], "/x/b"]]

    def test_sweep_requires_a_grid(self, tmp_path):
        cfg = write_smoke(tmp_path, out_name="never")
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", str(cfg)])
        assert exit_info.value.code == 2
        assert not (tmp_path / "never").exists()

    @staticmethod
    def check_sweep_root(cfg, root, extra):
        """A 2-cell tau sweep puts its cells and summary under ``root``."""
        assert main(["sweep", str(cfg), "--grid", "local.tau=1,2", *extra]) == 0
        cells = sorted(p.name for p in root.glob("cell_*"))
        assert cells == ["cell_000_tau=1", "cell_001_tau=2"]
        assert (root / "summary.csv").exists()
        for cell in cells:
            snapshot = yaml.safe_load((root / cell / "config.yaml").read_text())
            assert snapshot["output"]["dir"] == str(root / cell)
            assert (root / cell / "rounds.csv").exists()

    def test_tau_sweep_reproduces_rise_then_fall(self, tmp_path):
        # heterogeneous fixture, accuracy averaged over three seed cells per tau
        cfg = tmp_path / "sweep_tau.yaml"
        cfg.write_text(
            f"""
experiment:
  master_seed: 11
  rounds: 1
  strategy: fedavg
  num_clients: 5
data:
  num_classes: 10
  per_class: 300
  input_dim: 16
  spread: 1.8
partition:
  alpha: 0.1
local:
  eta: 2.2
  batch_size: 64
output:
  dir: {tmp_path / "tau_sweep"}
"""
        )
        assert main([
            "sweep", str(cfg),
            "--grid", "experiment.master_seed=11,12,13",
            "--grid", "local.tau=1,4,8,12,16",
        ]) == 0
        rows = (tmp_path / "tau_sweep" / "summary.csv").read_text().splitlines()[1:]
        by_tau = {}
        for line in rows:
            _, _, tau, status, acc = line.split(",")
            assert status == "ok"
            by_tau.setdefault(int(tau), []).append(float(acc))
        taus = sorted(by_tau)
        assert taus == [1, 4, 8, 12, 16]
        means = [np.mean(by_tau[t]) for t in taus]
        peak = int(np.argmax(means))
        assert taus[peak] not in (1, 16), means
        assert means[peak] > means[0] and means[peak] > means[-1], means


class TestBound:
    def test_prints_theory_values(self, capsys):
        assert main([
            "bound", "--beta", "1", "--sigma", "1", "--zeta", "0.5", "--c", "0.5",
            "--d", "1", "--clients", "4", "--tau", "8", "--rounds", "2",
        ]) == 0
        out = capsys.readouterr().out
        p = TheoryParams(beta=1, sigma=1, zeta=0.5, c=0.5, d=1, num_clients=4, tau=8, rounds=2)
        assert f"learning_rate: {lr_choice(p):.12g}" in out
        assert f"bound: {convergence_bound(p):.12g}" in out
        assert f"max_local_steps: {max_local_steps(p):.12g}" in out
        assert "total_grad_computations: 64" in out

    @pytest.mark.parametrize(
        "flag, value", [("--beta", "nan"), ("--beta", "inf"), ("--sigma", "-inf"), ("--d", "nan")]
    )
    def test_non_finite_constant_exits_1_naming_it(self, capsys, flag, value):
        argv = {
            "--beta": "1", "--sigma": "1", "--zeta": "0.5", "--c": "0.5", "--d": "1",
            "--clients": "4", "--tau": "8", "--rounds": "2",
        }
        argv[flag] = value
        # "--sigma=-inf": argparse would read a separate "-inf" as an option
        assert main(["bound", *(f"{k}={v}" for k, v in argv.items())]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag[2:]} must be finite, got {float(value)}\n"

    def test_checkpoint_roundtrip_through_cli_artifacts(self, tmp_path):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        params, layers = load_checkpoint(tmp_path / "run1" / "final.lssw")
        assert layers == [(4, 3)] and params.dim == 4 * 3 + 3
        assert np.all(np.isfinite(params.values))
