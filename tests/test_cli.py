import time

import numpy as np
import pytest

import lss.cli as cli
from lss.analysis import TheoryParams, convergence_bound, lr_choice, max_local_steps
from lss.cli import main
from lss.params import load_checkpoint

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


class TestEval:
    def test_eval_reports_checkpoint_accuracy(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out and "split: test" in out

    def test_eval_rejects_mismatched_model(self, tmp_path, capsys):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        ckpt = tmp_path / "run1" / "final.lssw"
        assert main(["eval", str(ckpt), "--config", str(cfg), "--set", "model.hidden_dims=[8]"]) == 1
        assert "parameters" in capsys.readouterr().err


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

    def test_checkpoint_roundtrip_through_cli_artifacts(self, tmp_path):
        cfg = write_smoke(tmp_path)
        assert main(["run", str(cfg)]) == 0
        params, shape = load_checkpoint(tmp_path / "run1" / "final.lssw")
        assert params.dim == shape.param_count()
        assert np.all(np.isfinite(params.values))
