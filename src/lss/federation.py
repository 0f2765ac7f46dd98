"""Broadcast / local-train / aggregate loop with deterministic seeding.

Each round every client trains from a copy of the current global model
using the chosen strategy, and the server forms the new global model as
the average of the uploads weighted by each client's sample count, as in
FedAvg.  The round's clients train through one call (``train_clients``):
in the lockstep groups of ``local_training.lockstep_groups``, each through
the step loop of one ``prepare_group`` call, in the waves of
``local_training.run_in_waves``.  The uploads are the rows of one
``(N, D)`` block: ``lss_local_train`` forms each soup upload from the
client's pool rows, and a proximal upload is the client's last row; each
is the one the client gets alone.  Uploads are aggregated and scored in
client-id order, and per-client seeds are a stable hash of (round seed,
client id), so results do not depend on the order the clients are given
in.  A round scores its uploads on their stacked rows, a chunk of clients
at a time (``model.accuracy`` on a block, and one ``vecdot`` for the
update norms), each in the bits of the upload alone.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import local_training
from .config import STRATEGIES, LocalConfig
from .data import Dataset
from .local_training import (
    fedprox_local_train,
    lockstep_groups,
    lockstep_workers,
    lss_local_train,
    prepare_group,
    run_in_waves,
)
from .model import MlpSpec, accuracy, evaluate, init_params
from .params import ParamVector, weighted_average

CSV_HEADER = "round,global_acc,global_loss,client_accs,update_norms,wall_time_s"


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from a mix of integers and strings.

    Unlike Python's salted ``hash``, this is identical across runs and
    platforms, which is what makes experiments replayable.  Integer parts
    must lie in [0, 2**64), the range their 8-byte encoding covers, so no
    two distinct integers are encoded alike.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, bool) or not isinstance(part, (int, str)):
            raise TypeError(f"seed parts must be int or str, got {type(part)}")
        if isinstance(part, int):
            if not 0 <= part < 2**64:
                raise ValueError(f"int seed parts must be in [0, 2**64), got {part}")
            h.update(b"i")
            h.update(part.to_bytes(8, "little"))
        else:
            raw = part.encode("utf-8")
            h.update(b"s")
            h.update(len(raw).to_bytes(4, "little"))
            h.update(raw)
    return int.from_bytes(h.digest(), "little")


@dataclass(frozen=True)
class RoundRecord:
    """Metrics for one communication round."""

    round_index: int
    global_test_accuracy: float
    global_test_loss: float
    per_client_pre_agg_accuracy: tuple[float, ...]
    per_client_update_norm: tuple[float, ...]
    wall_time_seconds: float

    def __post_init__(self) -> None:
        for a in (self.global_test_accuracy, *self.per_client_pre_agg_accuracy):
            if not 0.0 <= a <= 1.0:
                raise ValueError(f"accuracy out of range: {a}")
        r, norms = self.round_index, self.per_client_update_norm
        if not math.isfinite(self.global_test_loss):
            raise ValueError(f"round {r}: global test loss is {self.global_test_loss}")
        if not all(0 <= u < math.inf for u in norms):
            raise ValueError(
                f"round {r}: update norms must be finite and non-negative: {norms}"
            )


@dataclass(frozen=True)
class ClientState:
    """A client's id and its (already transformed) local dataset."""

    client_id: int
    data: Dataset


def data_proportional_weights(datasets: Sequence[Dataset]) -> tuple[float, ...]:
    """FedAvg's aggregation weights: each dataset's share of the samples."""
    sizes = np.array([d.n for d in datasets], dtype=np.float64)
    return tuple(sizes / sizes.sum())


def warmup_pretrain(
    spec: MlpSpec,
    proxy_data: Dataset,
    steps: int,
    seed: int,
    eta: float = 0.1,
    batch_size: int = 64,
) -> ParamVector:
    """Shared initialization: ``steps`` of SGD on held-out proxy data.

    ``steps == 0`` returns the raw random initialization (the cold-start
    ablation); otherwise the anchor plays the role of a pre-trained model.
    A failed warm-up raises ``RuntimeError`` naming the warm-up.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    start = init_params(spec, seed)
    if steps == 0:
        return start
    cfg = LocalConfig(eta=eta, tau=steps, batch_size=batch_size, mu_prox=0.0)
    try:
        return fedprox_local_train(start, spec, proxy_data, cfg, derive_seed(seed, "warmup"))
    except Exception as exc:
        raise RuntimeError(f"warm-up failed: {exc}") from exc


def train_clients(
    strategy: str,
    anchor: ParamVector,
    spec: MlpSpec,
    datasets: Sequence[Dataset],
    local_cfg: LocalConfig,
    seeds: Sequence[int],
) -> np.ndarray:
    """The uploads of clients training from ``anchor`` with their seeds, as
    one ``(N, D)`` block, row i client i's in the order given; ``run_round``
    has checked ``strategy``.  Row i is the upload that client i's
    ``lss_local_train`` or ``fedprox_local_train`` returns alone: each
    lockstep group of ``local_training.lockstep_groups`` runs the step loop
    of one ``prepare_group`` call, a lone client included.  A soup row holds
    the values of ``lss_local_train(..., pool)`` on the client's pool rows,
    and a proximal row is copied from the group's last member.  The groups
    train in waves of ``lockstep_workers`` (``run_in_waves``), so a failed
    group raises its error, the first in group order, after every join and
    before a later group's failure to prepare."""
    if len(seeds) != len(datasets):
        raise ValueError(f"{len(seeds)} seeds for {len(datasets)} clients")
    if strategy == "fedavg":
        # FedAvg is plain SGD: proximal SGD with the pull switched off,
        # whatever ``mu_prox`` the config carries.
        local_cfg = replace(local_cfg, mu_prox=0.0)
    soup = strategy == "lss"
    members = local_cfg.num_pool_models if soup else 1
    groups = lockstep_groups(datasets, anchor.dim, members)
    uploads = np.empty((len(datasets), anchor.dim))

    def prepare(group: list[int]) -> Callable[[], tuple[list[int], np.ndarray]]:
        group_data, group_seeds = [datasets[i] for i in group], [seeds[i] for i in group]
        train = prepare_group(anchor, spec, group_data, local_cfg, group_seeds, soup)[1]
        return lambda: (group, train())

    def finish(trained: tuple[list[int], np.ndarray]) -> None:
        group, pools = trained
        if soup:
            for j, i in enumerate(group):
                uploads[i] = lss_local_train(
                    anchor, spec, datasets[i], local_cfg, seeds[i], pools[:, j]
                )[0].values
        else:
            uploads[group] = pools[-1]

    run_in_waves(
        [partial(prepare, group) for group in groups],
        lockstep_workers(len(groups), anchor.dim), finish,
    )
    return uploads


def run_round(
    global_model: ParamVector,
    clients: Sequence[ClientState],
    spec: MlpSpec,
    local_cfg: LocalConfig,
    strategy: str,
    round_index: int,
    round_seed: int,
    eval_data: Dataset,
) -> tuple[ParamVector, RoundRecord, list[ParamVector]]:
    """One communication round; returns the new global model, its metrics,
    and the per-client uploads (in client-id order).  Clients are sorted by id
    and each upload is weighted by its sample count, so the order of
    ``clients`` does not matter.

    The uploads are scored on their stacked rows, one forward pass per chunk
    of clients whose forward blocks and differences from ``global_model``
    fit half of ``LOCKSTEP_FLOATS``; each score and update norm is bit for
    bit the one of ``accuracy`` and ``l2_distance`` on the upload alone."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    clients = sorted(clients, key=lambda c: c.client_id)
    t0 = time.perf_counter()
    seeds = [derive_seed(round_seed, c.client_id) for c in clients]
    try:
        uploads = train_clients(
            strategy, global_model, spec, [c.data for c in clients], local_cfg, seeds
        )
    except Exception as group_exc:
        # A lockstep group fails as a whole: replay the clients one at a
        # time, in id order, to name the first that fails.
        for client, seed in zip(clients, seeds):
            try:
                train_clients(strategy, global_model, spec, [client.data], local_cfg, [seed])
            except Exception as exc:
                raise RuntimeError(
                    f"client {client.client_id} failed during round {round_index}: {exc}"
                ) from exc
        # Every client trained alone without failing: the group failed.
        raise RuntimeError(
            f"lockstep training failed during round {round_index}: {group_exc}"
        ) from group_exc

    finals = [ParamVector._wrap(row) for row in uploads]
    new_global = weighted_average(finals, data_proportional_weights([c.data for c in clients]))
    global_acc, global_loss = evaluate(new_global, spec, eval_data)
    # A client's forward blocks and its difference from the global model.
    # Chunks take half the training budget, so their blocks fit in the memory
    # that the round's training has freed: at the full budget, chunks of 41
    # clients raised the peak RSS of a 100-client run at D = 170 by 0.7 MB.
    per_client = eval_data.n * sum(fo for _, fo in spec.layer_shapes()) + global_model.dim
    chunk = max(1, local_training.LOCKSTEP_FLOATS // (2 * per_client))
    diffs = np.empty((min(chunk, len(uploads)), global_model.dim))
    client_accs, norms = [], []
    for lo in range(0, len(uploads), chunk):
        rows = uploads[lo : lo + chunk]
        client_accs += accuracy(rows, spec, eval_data).tolist()
        # A norm of a diverged upload overflows to inf; RoundRecord checks it.
        with np.errstate(over="ignore", invalid="ignore"):
            diff = np.subtract(rows, global_model.values, out=diffs[: len(rows)])
            norms += np.sqrt(np.vecdot(diff, diff)).tolist()
    record = RoundRecord(
        round_index=round_index,
        global_test_accuracy=global_acc,
        global_test_loss=global_loss,
        per_client_pre_agg_accuracy=tuple(client_accs),
        per_client_update_norm=tuple(norms),
        wall_time_seconds=time.perf_counter() - t0,
    )
    return new_global, record, finals


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_rounds_csv(records: Sequence[RoundRecord], path) -> None:
    """Write the per-round metrics CSV.

    The wall_time_s column is always 0 so the file is a bit-reproducible
    artifact of the run; measured timings are reported in the diagnostics
    output instead.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                ",".join(
                    [
                        str(r.round_index),
                        _fmt(r.global_test_accuracy),
                        _fmt(r.global_test_loss),
                        ";".join(_fmt(a) for a in r.per_client_pre_agg_accuracy),
                        ";".join(_fmt(u) for u in r.per_client_update_norm),
                        "0",
                    ]
                )
                + "\n"
            )
