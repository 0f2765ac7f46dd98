"""Broadcast / local-train / aggregate loop with deterministic seeding.

Each round every client trains from a copy of the current global model
using the chosen strategy, and the server forms the new global model as
the average of the uploads weighted by each client's sample count, as in
FedAvg.  Clients train and are aggregated in client-id order, and
per-client seeds are a stable hash of (round seed, client id), so results
do not depend on the order the clients are given in.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import STRATEGIES, LocalConfig
from .data import Dataset
from .local_training import fedprox_local_train, lss_local_train
from .model import MlpSpec, accuracy, evaluate, init_params
from .params import ParamVector, l2_distance, weighted_average

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
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    start = init_params(spec, seed)
    if steps == 0:
        return start
    cfg = LocalConfig(eta=eta, tau=steps, batch_size=batch_size, mu_prox=0.0)
    return fedprox_local_train(start, spec, proxy_data, cfg, derive_seed(seed, "warmup"))


def train_client(
    strategy: str,
    anchor: ParamVector,
    spec: MlpSpec,
    data: Dataset,
    local_cfg: LocalConfig,
    seed: int,
) -> ParamVector:
    """One client's upload; ``run_round`` has checked ``strategy``."""
    if strategy == "lss":
        return lss_local_train(anchor, spec, data, local_cfg, seed)[0]
    if strategy == "fedavg":
        # FedAvg is plain SGD: proximal SGD with the pull switched off,
        # whatever ``mu_prox`` the config carries.
        local_cfg = replace(local_cfg, mu_prox=0.0)
    return fedprox_local_train(anchor, spec, data, local_cfg, seed)


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
    ``clients`` does not matter."""
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    clients = sorted(clients, key=lambda c: c.client_id)
    t0 = time.perf_counter()
    finals = []
    for client in clients:
        seed = derive_seed(round_seed, client.client_id)
        try:
            final = train_client(
                strategy, global_model, spec, client.data, local_cfg, seed
            )
        except Exception as exc:
            raise RuntimeError(
                f"client {client.client_id} failed during round {round_index}: {exc}"
            ) from exc
        finals.append(final)

    new_global = weighted_average(finals, data_proportional_weights([c.data for c in clients]))
    global_acc, global_loss = evaluate(new_global, spec, eval_data)
    client_accs = tuple(accuracy(f, spec, eval_data) for f in finals)
    norms = tuple(l2_distance(f, global_model) for f in finals)
    record = RoundRecord(
        round_index=round_index,
        global_test_accuracy=global_acc,
        global_test_loss=global_loss,
        per_client_pre_agg_accuracy=client_accs,
        per_client_update_norm=norms,
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
