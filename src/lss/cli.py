"""Command-line experiment runner.

Verbs:
  run    execute one experiment and write its artifacts
  sweep  run a cartesian grid of config overrides
  eval   score a saved checkpoint on a dataset split
  bound  print the convergence-theory quantities for given constants

``section.key=value`` overrides take precedence over config-file keys.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import fields
from pathlib import Path

from .analysis import (
    TheoryParams,
    bvcl_diagnostics,
    convergence_bound,
    estimate_sigma,
    estimate_zeta,
    hessian_top_eig,
    lr_choice,
    max_local_steps,
    write_diagnostics,
)
from .config import ConfigError, ExperimentConfig, check_key, parse_config, serialize_config
from .data import write_partition_plan
from .experiment import (
    ExperimentResult,
    build_dataset,
    build_model_spec,
    partition_clients,
    run_experiment,
    split_experiment_data,
)
from .federation import derive_seed, write_rounds_csv
from .model import evaluate
from .params import l2_distance, load_checkpoint, save_checkpoint


def _collect_diagnostics(cfg: ExperimentConfig, result: ExperimentResult) -> dict:
    last = result.records[-1]
    entries: dict = {
        "rounds": len(result.records),
        "final_global_accuracy": last.global_test_accuracy,
        "final_global_loss": last.global_test_loss,
        "anchor_to_final_distance": l2_distance(result.final_model, result.anchor),
        "round_times_s": ";".join(
            format(r.wall_time_seconds, ".6f") for r in result.records
        ),
    }
    client_datasets = [c.data for c in result.clients]
    grads: list = []  # each client's full-batch gradient, taken by zeta for sigma
    if cfg.analysis.zeta:
        entries["zeta_hat"] = estimate_zeta(
            result.final_model, result.spec, client_datasets, grads
        )
    if cfg.analysis.sigma:
        entries["sigma_hat"] = estimate_sigma(
            result.final_model,
            result.spec,
            client_datasets,
            cfg.local.batch_size,
            cfg.analysis.sigma_draws,
            [derive_seed(cfg.master_seed, "sigma", cid) for cid in range(len(client_datasets))],
            full_grads=grads or None,
        )
    del grads  # freed before the Hessian's buffers
    if cfg.analysis.hessian:
        entries["hessian_top_eigenvalue"] = hessian_top_eig(
            result.final_model,
            result.spec,
            result.eval_data,
            cfg.analysis.hessian_iters,
            derive_seed(cfg.master_seed, "hessian"),
            batch_size=cfg.local.batch_size,
        )
    if cfg.analysis.bvcl:
        bvcl = bvcl_diagnostics(
            list(result.last_round_client_models), result.spec, result.eval_data
        )
        entries["bvcl_variance"] = bvcl.variance
        entries["bvcl_covariance"] = bvcl.covariance
        entries["bvcl_locality"] = bvcl.locality
    return entries


def _check_output_dir(out: Path) -> None:
    """Reject an output path that is, or lies under, something other than a
    directory; creates nothing."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                where = "exists" if path == out else f"lies under {path}, which exists"
                raise ConfigError("output.dir", f"{out} {where} and is not a directory")
            return


def _write_artifacts(cfg: ExperimentConfig, result: ExperimentResult) -> None:
    # Computed first: a failing or interrupted estimator replaces no file.
    diagnostics = _collect_diagnostics(cfg, result)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    def staged(name: str, writer) -> None:
        tmp = out / f".tmp.{name}"
        writer(tmp)
        os.replace(tmp, out / name)

    staged("config.yaml", lambda p: Path(p).write_text(serialize_config(cfg), encoding="utf-8"))
    staged("rounds.csv", lambda p: write_rounds_csv(result.records, p))
    staged(
        "final.lssw",
        lambda p: save_checkpoint(p, result.final_model, result.spec.layer_shapes()),
    )
    staged(
        "diagnostics.txt",
        lambda p: write_diagnostics(p, diagnostics),
    )
    staged("partition.txt", lambda p: write_partition_plan(result.plan, p))


def _run(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment and write its artifacts into ``cfg.output_dir``;
    what the artifacts need is checked before the run starts."""
    if cfg.analysis.bvcl and cfg.num_clients < 2:
        why = f"needs at least 2 clients, experiment.num_clients is {cfg.num_clients}"
        raise ConfigError("analysis.bvcl", why)
    _check_output_dir(Path(cfg.output_dir))
    result = run_experiment(cfg)
    _write_artifacts(cfg, result)
    return result


def cmd_run(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.set)
    result = _run(cfg)
    for rec in result.records:
        print(
            f"round {rec.round_index}: acc={rec.global_test_accuracy:.4f} "
            f"loss={rec.global_test_loss:.4f}"
        )
    print(f"wrote {cfg.output_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = {}  # dotted key -> values; every key is checked before any cell runs
    for item in args.grid:
        key, sep, values = item.partition("=")
        key = key.strip()
        if not sep or not values:
            raise ConfigError(item, "grid entry must look like section.key=v1,v2")
        check_key(key)
        if key in grid or key == "output.dir":
            why = "is given twice" if key in grid else "names each cell's directory"
            raise ConfigError(key, f"cannot be a grid axis: it {why}")
        grid[key] = values.split(",")
    set_keys = [item.partition("=")[0].strip() for item in args.set]
    for key in grid:
        if key in set_keys:
            raise ConfigError(key, "cannot be a grid axis: it is also given with -s")
    # The base config must be valid on its own; it also names the sweep root.
    sweep_root = Path(parse_config(args.config, args.set).output_dir)
    _check_output_dir(sweep_root)
    # Each cell's directory replaces the base's output.dir, if -s gives one.
    base = [item for item, key in zip(args.set, set_keys) if key != "output.dir"]

    keys = list(grid)
    rows = []
    for cell_idx, combo in enumerate(itertools.product(*grid.values())):
        cell_overrides = [f"{k}={v}" for k, v in zip(keys, combo)]
        # one directory per cell: a "/" in a value must not nest it
        label = "_".join(f"{k.split('.')[-1]}={v.replace('/', '_')}" for k, v in zip(keys, combo))
        cell_name = f"cell_{cell_idx:03d}_{label}"
        status, final_acc = "ok", ""
        try:
            out = f"output.dir={sweep_root / cell_name}"
            result = _run(parse_config(args.config, [*base, *cell_overrides, out]))
            final_acc = format(result.records[-1].global_test_accuracy, ".17g")
        except Exception as exc:
            status = f"error: {exc}"
        rows.append((cell_name, list(combo), status, final_acc))
        print(f"{cell_name}: {status}" + (f" acc={final_acc}" if final_acc else ""))

    sweep_root.mkdir(parents=True, exist_ok=True)
    summary = sweep_root / "summary.csv"
    with open(summary, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(["cell", *keys, "status", "final_acc"]) + "\n")
        for cell_name, combo, status, final_acc in rows:
            safe_status = status.replace(",", ";")
            fh.write(",".join([cell_name, *combo, safe_status, final_acc]) + "\n")
    print(f"wrote {summary}")
    return 0 if all(r[2] == "ok" for r in rows) else 1


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = parse_config(args.config, args.set)
    params, layers = load_checkpoint(args.checkpoint)
    base = build_dataset(cfg)
    spec = build_model_spec(cfg, base)
    if layers != spec.layer_shapes():
        raise ValueError(
            f"checkpoint layers {layers} do not match the config model's "
            f"{spec.layer_shapes()}"
        )
    train, val, test = split_experiment_data(cfg, base)
    if args.split == "test":
        # the set the run's rounds scored: under feature shift, the mixture
        # of the client domains rather than the raw test rows
        _, _, test = partition_clients(cfg, train, test)
    data = {"train": train, "val": val, "test": test}[args.split]
    acc, loss = evaluate(params, spec, data)
    print(f"split: {args.split}\naccuracy: {acc:.6f}\nloss: {loss:.6f}")
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    p = TheoryParams(**{f.name: getattr(args, f.name) for f in fields(TheoryParams)})
    print(f"learning_rate: {lr_choice(p):.12g}")
    print(f"bound: {convergence_bound(p):.12g}")
    print(f"bound_alt_first_term: {convergence_bound(p, first_term='d_squared'):.12g}")
    print(f"max_local_steps: {max_local_steps(p):.12g}")
    print(f"total_grad_computations: {p.total_grads}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lss", description="Federated-learning experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sets = argparse.ArgumentParser(add_help=False)
    sets.add_argument(
        "--set",
        "-s",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key by dotted path, e.g. local.lambda_a=3",
    )

    run_p = sub.add_parser("run", parents=[sets], help="run one experiment from a config file")
    run_p.add_argument("config", help="path to a YAML experiment config")
    run_p.add_argument(
        "--debug", action="store_true", help="on failure, raise with the traceback"
    )
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[sets], help="run a cartesian grid of overrides")
    sweep_p.add_argument("config", help="path to a YAML experiment config")
    sweep_p.add_argument(
        "--grid",
        "-g",
        action="append",
        required=True,
        metavar="KEY=V1,V2,...",
        help="grid axis as dotted key with comma-separated values",
    )
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = sub.add_parser("eval", parents=[sets], help="score a checkpoint on a dataset split")
    eval_p.add_argument("checkpoint", help="path to a .lssw checkpoint")
    eval_p.add_argument("--config", required=True, help="config describing the data")
    eval_p.add_argument("--split", default="test", choices=("train", "val", "test"))
    eval_p.set_defaults(func=cmd_eval)

    bound_p = sub.add_parser("bound", help="print convergence-theory quantities")
    bound_p.add_argument("--beta", type=float, required=True)
    bound_p.add_argument("--sigma", type=float, required=True)
    bound_p.add_argument("--zeta", type=float, required=True)
    bound_p.add_argument("--c", type=float, required=True)
    bound_p.add_argument("--d", type=float, required=True)
    bound_p.add_argument("--clients", dest="num_clients", type=int, required=True)
    bound_p.add_argument("--tau", type=int, required=True)
    bound_p.add_argument("--rounds", type=int, required=True)
    bound_p.set_defaults(func=cmd_bound)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if getattr(args, "debug", False):
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
