"""Benchmark of ``lss run``: end-to-end and per-layer timings on fixed workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload lss-mid --seed 1 --seconds 40 --trace 0

Each workload runs as a real ``lss run`` in a fresh child process, again and
again for ``--seconds``, with BLAS and OpenMP pinned to one thread.  The
first child's artifacts are checked against reference computations made in
``checks.py``; every child must write the same ``rounds.csv`` and
``final.lssw`` bytes.  The last line of standard output is one JSON object
with ``correct``, ``attempted`` and ``failed`` (federated rounds) and the
metrics: the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import checks

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
GOLDEN_CSV = Path("tests") / "data" / "reference_rounds.csv"

# Per-child wall-clock limit; the largest workload takes a few seconds.
CHILD_TIMEOUT_S = 120

WORKLOADS = {
    # The reference mid-size run: per-step Python overhead dominates.
    "lss-mid": {
        "experiment": {"rounds": 4, "strategy": "lss", "num_clients": 20,
                       "warmup_steps": 50, "warmup_eta": 0.1},
        "data": {"num_classes": 10, "per_class": 600, "input_dim": 32, "spread": 1.0},
        "model": {"hidden_dims": [64], "activation": "relu"},
        "partition": {"mode": "dirichlet", "alpha": 0.3},
        "local": {"eta": 0.05, "tau": 20, "batch_size": 64, "lambda_a": 0.5,
                  "lambda_d": 0.5, "num_pool_models": 4},
        # Sigma's work depends on the seed (18-20 clients are larger than a
        # batch); a Hessian on the fixed-size eval set makes most of diag_s
        # seed-independent and long enough to time steadily.
        "analysis": {"zeta": True, "sigma": True, "hessian": True, "hessian_iters": 80},
    },
    # Wide FedProx: matmuls and 100k-long vector ops; no pool path.
    "fedprox-wide": {
        "experiment": {"rounds": 5, "strategy": "fedprox", "num_clients": 4,
                       "warmup_steps": 20, "warmup_eta": 0.1},
        "data": {"num_classes": 10, "per_class": 200, "input_dim": 128, "spread": 1.0},
        "model": {"hidden_dims": [256, 256], "activation": "relu"},
        "partition": {"mode": "feature_shift"},
        "local": {"eta": 0.05, "tau": 20, "batch_size": 64, "mu_prox": 0.01},
        "analysis": {"zeta": True, "sigma": True, "hessian": True,
                     "hessian_iters": 20, "bvcl": True},
    },
    # Many tiny clients, D=170: per-call and per-client overhead only.
    "lss-softmax-many": {
        "experiment": {"rounds": 10, "strategy": "lss", "num_clients": 100,
                       "warmup_steps": 20, "warmup_eta": 0.1},
        "data": {"num_classes": 10, "per_class": 300, "input_dim": 16, "spread": 1.0},
        "model": {"hidden_dims": [], "activation": "relu"},
        "partition": {"mode": "dirichlet", "alpha": 0.1},
        "local": {"eta": 0.05, "tau": 4, "batch_size": 64, "lambda_a": 0.5,
                  "lambda_d": 0.5, "num_pool_models": 3},
        # Only the 5-9 clients larger than a batch draw sigma minibatches; as
        # on lss-mid, the Hessian gives diag_s work that does not vary by seed.
        "analysis": {"zeta": True, "sigma": True, "hessian": True, "hessian_iters": 300},
    },
}

# The configuration of tests/test_golden.py, as a config file.
GOLDEN = {
    "experiment": {"master_seed": 2024, "rounds": 2, "strategy": "lss", "num_clients": 3,
                   "warmup_steps": 30, "warmup_eta": 0.1},
    "data": {"num_classes": 5, "per_class": 60, "input_dim": 6, "spread": 1.0},
    "model": {"hidden_dims": [], "activation": "relu"},
    "partition": {"mode": "dirichlet", "alpha": 0.5},
    "local": {"eta": 0.05, "tau": 4, "batch_size": 32, "lambda_a": 1.0, "lambda_d": 1.0,
              "num_pool_models": 3},
}

# Host-speed probe (see ``child.Probe``).  The shared host runs a process
# at a fast and a slow speed, 1.3-1.6x apart, switching every few
# milliseconds; the share of time spent slow drifts over seconds and
# minutes with other tenants' load.  Untraced children time probe chunks
# between rounds and after the run, outside every metric's timer.  Time
# metrics are scaled by PROBE_REF_MS / (median over children of the mean
# chunk time), so they read as seconds at the host speed at which a chunk
# takes PROBE_REF_MS: about its time on the reference box when the host
# is quiet.  The probe is the workload's own model shape and batch, so it
# slows down about as much as the program does.
PROBE_CALLS = {"lss-mid": 150, "fedprox-wide": 8, "lss-softmax-many": 300}
PROBE_REF_MS = {"lss-mid": 12.0, "fedprox-wide": 12.0, "lss-softmax-many": 11.5}


def workload_config(name: str, seed: int) -> dict:
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["experiment"]["master_seed"] = seed
    return cfg


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    # One BLAS thread: a second OpenBLAS thread spins beside the main one
    # and adds CPU time and run-to-run noise for no wall-time gain here.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               LSS_THREADS="1", PYTHONHASHSEED="0", PYTHONPATH=str(root / "src"))
    return env


def probe_spec(cfg: dict, calls: int) -> str:
    d, m = cfg["data"], cfg["model"]
    dims = [d["input_dim"], *m["hidden_dims"], d["num_classes"]]
    return f"{','.join(map(str, dims))}:{cfg['local']['batch_size']}:{m['activation']}:{calls}"


def run_child(root: Path, cfg: dict, out: Path, trace: bool, dump: bool,
              probe: str | None = None) -> dict:
    """Run one ``lss run`` in a fresh process; returns its timings."""
    out.mkdir(parents=True)
    cfg = dict(cfg, output={"dir": str(out / "artifacts")})
    config_path = out / "config.yaml"
    config_path.write_text(yaml.safe_dump(cfg, sort_keys=False), encoding="utf-8")
    result_path = out / "result.json"
    cmd = [sys.executable, str(CHILD), str(root / "src"), str(config_path), str(result_path)]
    if trace:
        cmd.append("--trace")
    if dump:
        cmd += ["--dump", str(out / "dump.npz")]
    if probe:
        cmd += ["--probe", probe]
    with open(out / "log.txt", "wb") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or not result_path.exists():
        return {"ok": False, "dir": out}
    res = json.loads(result_path.read_text(encoding="utf-8"))
    res.update(
        ok=True,
        dir=out,
        setup_s=res["t_first_round"] - t_spawn,
        run_s=res["t_end"] - t_spawn - res["probe_in_run_s"],
        peak_rss_mb=res["peak_rss_kb"] / 1024.0,
    )
    return res


def artifact_digest(out: Path) -> str:
    h = hashlib.sha256()
    for name in ("rounds.csv", "final.lssw"):
        h.update((out / "artifacts" / name).read_bytes())
    return h.hexdigest()


def median(children: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in children)


def metric(value: float, unit: str = "s") -> dict:
    return {"value": value, "unit": unit}


def probe_ms(untraced: list[dict]) -> float:
    return 1e3 * statistics.median(statistics.fmean(c["probe_times"]) for c in untraced)


def raw_times(untraced: list[dict]) -> dict:
    """The time metrics in seconds of this host, unscaled."""
    # Rounds are many and alike, so their pooled median resists bursts of
    # host contention better than a median of per-child sums does.
    round_times = [t for c in untraced for t in c["round_times"]]
    rounds = len(untraced[0]["round_times"])
    return {
        "setup_s": median(untraced, "setup_s"),
        "rounds_s": rounds * statistics.median(round_times),
        "diag_s": median(untraced, "diag_s"),
        "run_s": median(untraced, "run_s"),
    }


def end_to_end_metrics(untraced: list[dict], workload: str) -> dict:
    scale = PROBE_REF_MS[workload] / probe_ms(untraced)
    metrics = {name: metric(v * scale) for name, v in raw_times(untraced).items()}
    metrics["peak_rss_mb"] = metric(median(untraced, "peak_rss_mb"), "MB")
    return metrics


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics: call counts from the first traced child, times as
    medians over all of them."""
    from child import CALL_METRICS, ROUND_PHASES

    spans = traced[0]["spans"]

    def total(name: str) -> float:
        return statistics.median(c["spans"][name][1] for c in traced)

    metrics: dict = {}
    for name, unit, _ in CALL_METRICS:
        if name in spans:
            calls = spans[name][0]
            per_call = total(name) / calls * (1e6 if unit == "us" else 1e3) if calls else 0.0
            metrics[f"{name}.calls"] = metric(calls, "count")
            metrics[f"{name}.total_s"] = metric(total(name))
            metrics[f"{name}.{unit}_per_call"] = metric(per_call, unit)
    for name in [*ROUND_PHASES, "cli.artifacts_s"]:
        if name in spans:
            metrics[name] = metric(total(name))
    metrics["process.cpu_s"] = metric(median(untraced, "cpu_s"))
    metrics["host.probe_ms"] = metric(probe_ms(untraced), "ms")
    metrics["trace.overhead_s"] = metric(median(traced, "run_s") - median(untraced, "run_s"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lss" / "cli.py").is_file():
        print(f"error: no src/lss/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2

    work = BENCH_DIR / ".runs" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cfg = workload_config(args.workload, args.seed)
    rounds_per_child = cfg["experiment"]["rounds"]
    probe = probe_spec(cfg, PROBE_CALLS[args.workload])

    # Warm-up child (byte-compiles the package, fills the file cache) that
    # also replays the golden test's configuration.
    golden = run_child(root, GOLDEN, work / "golden", trace=False, dump=False)
    if not golden["ok"]:
        print(f"error: the golden-configuration run failed; see {work / 'golden'}",
              file=sys.stderr)
        return 1
    golden_file = root / GOLDEN_CSV
    golden_bytes = (work / "golden" / "artifacts" / "rounds.csv").read_bytes()
    golden_ok = not golden_file.exists() or golden_bytes == golden_file.read_bytes()
    print(f"{GOLDEN_CSV} reproduced: "
          f"{'not found' if not golden_file.exists() else 'yes' if golden_ok else 'NO'}")

    untraced: list[dict] = []
    traced: list[dict] = []
    failed_children = 0
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    while True:
        t0 = time.monotonic()
        for trace in (False, True) if args.trace else (False,):
            k = len(untraced) + len(traced) + failed_children
            child = run_child(root, cfg, work / f"c{k:03d}", trace=trace, dump=k == 0,
                              probe=None if trace else probe)
            if not child["ok"]:
                failed_children += 1
                print(f"child {k} failed; see {child['dir']}", file=sys.stderr)
            else:
                (traced if trace else untraced).append(child)
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() + longest > deadline:
            break

    children = untraced + traced
    attempted = rounds_per_child * (len(children) + failed_children)
    failed = rounds_per_child * failed_children
    fails: list[str] = [] if golden_ok else [f"{GOLDEN_CSV} not reproduced"]
    first = work / "c000"
    if not untraced or not (first / "dump.npz").exists():
        fails.append("the first child left no outputs to check")
    else:
        with np.load(first / "dump.npz") as dump:
            fails += checks.check_run(first / "artifacts", dump, cfg)
        digests = {artifact_digest(c["dir"]) for c in children}
        if len(digests) != 1:
            fails.append(f"children wrote {len(digests)} different rounds.csv/final.lssw")
    counts = {json.dumps({k: v[0] for k, v in c["spans"].items()}) for c in traced}
    if len(counts) > 1:
        fails.append("call counts differ between traced children")
    for c in traced:
        if c.get("pool_failures"):
            fails.append(f"{c['pool_failures']} of {c['pool_checks']} uploads are not "
                         "the average of their pool")
    if traced and cfg["experiment"]["strategy"] == "lss":
        if "pool_checks" in traced[0]:
            print(f"uploads checked against their pools: {traced[0]['pool_checks']} per run")
        else:
            print("pool check skipped: lss.federation.lss_local_train is absent")

    if args.trace:
        metrics = layer_metrics(traced, untraced) if traced and untraced else {}
        for name in sorted(set(traced[0]["absent"])) if traced else []:
            print(f"absent: {name}")
    else:
        metrics = end_to_end_metrics(untraced, args.workload) if untraced else {}
        if untraced:
            print(f"host speed: probe chunk {probe_ms(untraced):.4g} ms "
                  f"(scaled to {PROBE_REF_MS[args.workload]} ms)")
            for name, v in raw_times(untraced).items():
                print(f"  unscaled {name:<35} {v:.6g} s")

    for f in fails:
        print(f"check failed: {f}")
    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced runs, {failed_children} failed")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    if not fails and not failed_children:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
