"""One ``lss run`` in a fresh process, timed from outside the program.

Usage: python3 child.py SRC_DIR CONFIG RESULT_JSON [--trace] [--dump NPZ] [--probe SPEC]

Without ``--trace`` the only timers sit at call boundaries that run at most
once per round or per client: ``run_round`` as ``lss.experiment`` calls it,
``run_experiment`` and the diagnostics estimators as ``lss.cli`` calls them.
With ``--trace`` every public layer function listed in ``CALL_METRICS`` is
wrapped, by name, in each ``lss`` module namespace that holds it, so a call
is timed where its caller looks it up.  A name that no longer exists is
reported absent.  No file of the program is changed.

With ``--probe`` the untraced child also times a host-speed probe after
each round and after the run, outside every timer (see ``Probe``).

Cross-process timestamps use CLOCK_MONOTONIC, the clock the parent reads
just before it starts this process.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

perf_counter = time.perf_counter


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# metric name, unit of its per-call figure, and the (module, name) pairs it
# covers.  Functions that do the same job under two names share a metric.
CALL_METRICS = [
    ("model.loss_and_grad", "us", [("lss.model", "loss_and_grad")]),
    ("model.accuracy", "us", [("lss.model", "accuracy")]),
    ("local_training.lss_regularized_grad", "us", [("lss.local_training", "lss_regularized_grad")]),
    ("local_training.interpolate", "us", [("lss.local_training", "interpolate")]),
    ("params.axpy", "us", [("lss.params", "axpy")]),
    ("params.weighted_average", "us", [("lss.params", "weighted_average")]),
    ("params.l2_distance", "us", [("lss.params", "l2_distance")]),
    ("local_training.lss_local_train", "ms", [("lss.local_training", "lss_local_train")]),
    ("local_training.fedprox_local_train", "ms", [("lss.local_training", "fedprox_local_train")]),
    ("federation.run_round", "ms", [("lss.federation", "run_round")]),
    ("federation.warmup_pretrain", "ms", [("lss.federation", "warmup_pretrain")]),
    ("data.gen_blobs", "ms", [("lss.data", "gen_blobs")]),
    ("data.split_dataset", "ms", [("lss.data", "split_dataset")]),
    (
        "data.partition",
        "ms",
        [("lss.data", "dirichlet_partition"), ("lss.data", "feature_shift_partition")],
    ),
    ("config.parse_config_data", "ms", [("lss.config", "parse_config_data")]),
    ("analysis.estimate_zeta", "ms", [("lss.analysis", "estimate_zeta")]),
    ("analysis.estimate_sigma", "ms", [("lss.analysis", "estimate_sigma")]),
    ("analysis.hessian_top_eig", "ms", [("lss.analysis", "hessian_top_eig")]),
    ("analysis.bvcl_diagnostics", "ms", [("lss.analysis", "bvcl_diagnostics")]),
]

# The artifact writers ``lss.cli`` calls; their sum is ``cli.artifacts_s``.
ARTIFACT_WRITERS = [
    ("lss.config", "serialize_config"),
    ("lss.federation", "write_rounds_csv"),
    ("lss.params", "save_checkpoint"),
    ("lss.analysis", "write_diagnostics"),
    ("lss.data", "write_partition_plan"),
]

# The calls ``run_round`` makes, by the name it looks up in
# ``lss.federation``.  They count only inside ``run_round`` and only at the
# outermost level, so ``train_client`` calling ``lss_local_train`` in the
# same namespace is timed once and the warm-up's SGD is not training.
ROUND_PHASES = {
    "federation.train_s": ["train_client", "lss_local_train", "fedprox_local_train", "sgd_local_train"],
    "federation.aggregate_s": ["weighted_average"],
    "federation.eval_s": ["accuracy", "loss_and_grad", "l2_distance"],
}

DIAGNOSTICS = ["estimate_zeta", "estimate_sigma", "hessian_top_eig", "bvcl_diagnostics"]


class Span:
    """Call count and outermost-inclusive time of one metric."""

    __slots__ = ("calls", "total", "depth", "gate")

    def __init__(self, gate: "Span | None" = None):
        self.calls = 0
        self.total = 0.0
        self.depth = 0
        self.gate = gate

    def open(self) -> bool:
        if self.gate is not None and self.gate.depth == 0:
            return False
        self.calls += 1
        self.depth += 1
        return True

    def close(self, dt: float) -> None:
        self.depth -= 1
        if self.depth == 0:
            self.total += dt


def timed(fn, spans: list[Span]):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened = [s for s in spans if s.open()]
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            for s in opened:
                s.close(dt)

    return wrapper


def install_trace() -> tuple[dict[str, Span], list[str]]:
    """Wrap every traced function in every ``lss`` namespace that holds it.

    Returns the spans by metric name and the names of absent metrics.
    """
    spans: dict[str, Span] = {}
    absent: list[str] = []
    by_function: dict[int, tuple[object, list[Span]]] = {}

    def register(metric: str, targets, span: Span) -> None:
        fns = [getattr(sys.modules.get(module), name, None) for module, name in targets]
        fns = [fn for fn in fns if callable(fn)]
        if not fns:
            absent.append(metric)
            return
        spans[metric] = span
        for fn in fns:
            by_function.setdefault(id(fn), (fn, []))[1].append(span)

    for metric, _, targets in CALL_METRICS:
        register(metric, targets, Span())
    register("cli.artifacts_s", ARTIFACT_WRITERS, Span())

    round_span = spans.get("federation.run_round")
    federation = sys.modules["lss.federation"]
    by_slot: dict[str, list[Span]] = {}
    for metric, names in ROUND_PHASES.items():
        present = [n for n in names if callable(getattr(federation, n, None))]
        if round_span is None or not present:
            absent.append(metric)
            continue
        spans[metric] = Span(gate=round_span)
        for n in present:
            by_slot.setdefault(n, []).append(spans[metric])

    modules = [m for name, m in sys.modules.items() if name == "lss" or name.startswith("lss.")]
    for module in modules:
        for name, value in list(vars(module).items()):
            fn, attached = by_function.get(id(value), (None, []))
            slot = by_slot.get(name, []) if module is federation else []
            if fn is value or slot:
                setattr(module, name, timed(value, (attached if fn is value else []) + slot))
    return spans, absent


class Probe:
    """Host-speed probe: fixed reference forward and backward passes.

    SPEC is ``DIMS:BATCH:ACTIVATION:CALLS``, for example
    ``32,64,10:64:relu:150``.  One chunk is CALLS passes of the benchmark's
    numpy reference (``checks.ref_loss_and_grad``) on fixed inputs; no change
    to the program makes it faster or slower, so its time tracks how fast the
    shared host runs this process at the moment.
    """

    def __init__(self, spec: str) -> None:
        from checks import ref_loss_and_grad

        dims, batch, self.activation, calls = spec.split(":")
        dims = [int(d) for d in dims.split(",")]
        self.layers = [(a, b, True) for a, b in zip(dims, dims[1:])]
        rng = np.random.default_rng(0)
        self.w = 0.1 * rng.standard_normal(sum(a * b + b for a, b, _ in self.layers))
        self.x = rng.standard_normal((int(batch), dims[0]))
        self.y = rng.integers(0, dims[-1], int(batch))
        self.calls = int(calls)
        self.fn = ref_loss_and_grad
        self.times: list[float] = []

    def run(self, chunks: int) -> float:
        """Time ``chunks`` chunks; returns the wall time spent, overhead included.

        A chunk is timed on this thread's CPU clock, so time spent waiting
        for the GIL or for a core, as when a helper thread of the program
        runs, does not count; a slow host does.
        """
        start = perf_counter()
        for _ in range(chunks):
            t0 = time.thread_time()
            for _ in range(self.calls):
                self.fn(self.w, self.layers, self.activation, self.x, self.y)
            self.times.append(time.thread_time() - t0)
        return perf_counter() - start


# Probe chunks after each round and after the run.
PROBE_PER_ROUND = 2
PROBE_AT_END = 4


class EndToEnd:
    """The few timers of an untraced run, plus the captured result."""

    def __init__(self, probe: Probe | None = None) -> None:
        self.probe = probe
        self.probe_in_run = 0.0
        self.first_round = None
        self.round_times: list[float] = []
        self.diag = Span()
        self.result = None

    def install(self, cli, experiment) -> None:
        run_round = experiment.run_round

        @functools.wraps(run_round)
        def round_timer(*args, **kwargs):
            if self.first_round is None:
                self.first_round = monotonic()
            t0 = perf_counter()
            try:
                return run_round(*args, **kwargs)
            finally:
                self.round_times.append(perf_counter() - t0)
                if self.probe is not None:
                    self.probe_in_run += self.probe.run(PROBE_PER_ROUND)

        experiment.run_round = round_timer

        run_experiment = cli.run_experiment

        @functools.wraps(run_experiment)
        def capture(*args, **kwargs):
            self.result = run_experiment(*args, **kwargs)
            return self.result

        cli.run_experiment = capture

        for name in DIAGNOSTICS:
            fn = getattr(cli, name, None)
            if fn is not None:
                setattr(cli, name, timed(fn, [self.diag]))


def record_pools(federation, sink: list):
    """Keep each LSS upload with the pool it was averaged from."""
    fn = getattr(federation, "lss_local_train", None)
    if fn is None:
        return False

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        final, trace = fn(*args, **kwargs)
        sink.append((final, trace.pool_members))
        return final, trace

    federation.lss_local_train = wrapper
    return True


def dump_arrays(path: str, result, loss_and_grad) -> None:
    clients = [c.data for c in result.clients]
    eval_batch = result.eval_data.as_batch()
    _, program_grad = loss_and_grad(result.final_model, result.spec, eval_batch)
    np.savez(
        path,
        eval_x=result.eval_data.features,
        eval_y=result.eval_data.labels,
        anchor=result.anchor.values,
        uploads=np.stack([m.values for m in result.last_round_client_models]),
        client_x=np.concatenate([d.features for d in clients]),
        client_y=np.concatenate([d.labels for d in clients]),
        client_sizes=np.array([d.n for d in clients]),
        program_grad=program_grad.values,
    )


def main(argv: list[str]) -> int:
    src, config, result_path = argv[:3]
    trace = "--trace" in argv
    dump = argv[argv.index("--dump") + 1] if "--dump" in argv else None
    probe = Probe(argv[argv.index("--probe") + 1]) if "--probe" in argv else None

    import lss.cli as cli
    import lss.experiment as experiment

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"lss imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    spans, absent = install_trace() if trace else ({}, [])
    pools: list = []
    pools_recorded = trace and record_pools(sys.modules["lss.federation"], pools)
    e2e = EndToEnd(probe)
    e2e.install(cli, experiment)

    rc = cli.main(["run", config])
    t_end = monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    probe_cpu = 0.0
    if probe is not None:
        probe_cpu = sum(probe.times)
        probe.run(PROBE_AT_END)

    out = {
        "rc": rc,
        "t_end": t_end,
        "t_first_round": e2e.first_round,
        "round_times": e2e.round_times,
        "diag_s": e2e.diag.total,
        "peak_rss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime - probe_cpu,
        "spans": {k: [s.calls, s.total] for k, s in spans.items()},
        "absent": absent,
        "probe_times": probe.times if probe else [],
        "probe_in_run_s": e2e.probe_in_run,
    }
    if pools_recorded:
        from checks import check_pool_average

        out["pool_checks"] = len(pools)
        out["pool_failures"] = sum(
            check_pool_average(final.values, [m.values for m in members]) is not None
            for final, members in pools
        )
    if dump and rc == 0:
        from lss.model import loss_and_grad

        dump_arrays(dump, e2e.result, loss_and_grad)
    Path(result_path).write_text(json.dumps(out), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
