"""Self-test of the benchmark's output checks and tracer.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs one small LSS experiment in a child process and shows that:
  * the checks accept its artifacts as written;
  * they reject the checkpoint with one weight perturbed;
  * they reject an aggregate when one weight of one upload is changed;
  * the pool check rejects an upload average with one weight changed;
  * the tracer reports a removed function as absent instead of failing.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import shutil
import struct
import sys
from pathlib import Path

import numpy as np

import checks
import run

PERTURBATION = 1e-6

# A small LSS run with a hidden layer and every diagnostic the checks read.
CONFIG = {
    "experiment": {"master_seed": 5, "rounds": 3, "strategy": "lss", "num_clients": 4,
                   "warmup_steps": 10, "warmup_eta": 0.1},
    "data": {"num_classes": 4, "per_class": 60, "input_dim": 6, "spread": 1.0},
    "model": {"hidden_dims": [8], "activation": "tanh"},
    "partition": {"mode": "dirichlet", "alpha": 0.5},
    "local": {"eta": 0.05, "tau": 4, "batch_size": 16, "lambda_a": 0.5, "lambda_d": 0.5,
              "num_pool_models": 3},
    "analysis": {"zeta": True, "sigma": True, "bvcl": True},
}


def perturbed_checkpoint(src: Path, dst: Path, index: int) -> None:
    raw = bytearray(src.read_bytes())
    off = 16 + 8 * index  # magic, version and dim come first
    (w,) = struct.unpack_from("<d", raw, off)
    struct.pack_into("<d", raw, off, w + PERTURBATION)
    dst.write_bytes(bytes(raw))


def tracer_reports_absent(root: Path) -> bool:
    sys.path.insert(0, str(root / "src"))
    import lss.cli  # noqa: F401  (imports every module the tracer scans)
    import lss.local_training
    import child

    del lss.local_training.interpolate
    _, absent = child.install_trace()
    return "local_training.interpolate" in absent


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "lss" / "cli.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2

    work = run.BENCH_DIR / ".runs" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    res = run.run_child(root, CONFIG, work / "c0", trace=True, dump=True)
    if not res["ok"]:
        print(f"error: the child run failed; see {work / 'c0'}", file=sys.stderr)
        return 1
    artifacts = work / "c0" / "artifacts"
    dump = dict(np.load(work / "c0" / "dump.npz"))

    results = []

    def expect(label: str, ok: bool) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}: {label}")

    fails = checks.check_run(artifacts, dump, CONFIG)
    expect(f"checks accept the run as written {fails}", not fails)
    expect("pool check accepts every upload of the traced run",
           res["pool_checks"] > 0 and res["pool_failures"] == 0)

    bad = work / "bad"
    shutil.copytree(artifacts, bad)
    perturbed_checkpoint(artifacts / "final.lssw", bad / "final.lssw", index=3)
    fails = checks.check_run(bad, dump, CONFIG)
    expect(f"checks reject a checkpoint with one weight perturbed {fails}", bool(fails))

    wrong = dict(dump, uploads=dump["uploads"].copy())
    wrong["uploads"][1, 5] += PERTURBATION
    fails = checks.check_run(artifacts, wrong, CONFIG)
    expect(f"checks reject an aggregate of uploads with one weight changed {fails}",
           any("average" in f for f in fails))

    members = list(dump["uploads"])
    upload = checks.weighted_sum(members, [1.0 / len(members)] * len(members))
    expect("pool check accepts a uniform average",
           checks.check_pool_average(upload, members) is None)
    upload[7] += PERTURBATION
    expect("pool check rejects an upload average with one weight changed",
           checks.check_pool_average(upload, members) is not None)

    expect("tracer reports a removed function as absent", tracer_reports_absent(root))

    shutil.rmtree(work, ignore_errors=True)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
