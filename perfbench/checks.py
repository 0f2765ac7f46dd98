"""Output checks for benchmark runs, computed apart from the program.

Everything here uses numpy and the documented artifact formats only; it
imports nothing from ``lss``.  The reference classifier is a plain
forward/backward pass (relu or tanh hidden layers, log-softmax output), and
the checkpoint reader parses ``final.lssw`` from the byte layout given in
the project README.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

# Tolerances, fixed from float64 arithmetic: the program and the reference
# run the same operations, possibly in a different order, so results agree
# to a few ulps of the largest magnitude involved.
LOSS_RTOL = 1e-12
GRAD_RTOL = 1e-9
ZETA_RTOL = 1e-9
AVERAGE_RTOL = 1e-12


def read_lssw(path) -> tuple[np.ndarray, list[tuple[int, int, bool]]]:
    """Parse a checkpoint: magic ``LSSW``, u32 version 1, u64 dim, dim
    little-endian float64 weights, u32 layer count, then per layer u64
    fan_in, u64 fan_out, u8 has_bias.  Trailing bytes are an error."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"LSSW":
        raise ValueError(f"bad magic {raw[:4]!r}")
    version, dim = struct.unpack_from("<IQ", raw, 4)
    if version != 1:
        raise ValueError(f"unknown version {version}")
    off = 16
    weights = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).astype(np.float64)
    off += 8 * dim
    (n_layers,) = struct.unpack_from("<I", raw, off)
    off += 4
    layers = []
    for _ in range(n_layers):
        fan_in, fan_out, has_bias = struct.unpack_from("<QQB", raw, off)
        off += 17
        if has_bias not in (0, 1):
            raise ValueError(f"bad has_bias byte {has_bias}")
        layers.append((fan_in, fan_out, bool(has_bias)))
    if off != len(raw):
        raise ValueError(f"{len(raw) - off} trailing bytes")
    if sum(i * o + (o if b else 0) for i, o, b in layers) != dim:
        raise ValueError("layer triples do not account for every weight")
    return weights, layers


def _unpack(weights, layers):
    out, off = [], 0
    for fan_in, fan_out, has_bias in layers:
        w = weights[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
        off += fan_in * fan_out
        b = weights[off : off + fan_out] if has_bias else np.zeros(fan_out)
        off += fan_out if has_bias else 0
        out.append((w, b))
    return out


def _forward(weights, layers, activation, x):
    params = _unpack(weights, layers)
    inputs, pre = [x], []
    a = x
    for idx, (w, b) in enumerate(params):
        z = a @ w + b
        pre.append(z)
        if idx < len(params) - 1:
            a = np.maximum(z, 0.0) if activation == "relu" else np.tanh(z)
            inputs.append(a)
    return params, inputs, pre


def ref_accuracy(weights, layers, activation, x, y) -> float:
    _, _, pre = _forward(weights, layers, activation, x)
    return float(np.mean(np.argmax(pre[-1], axis=1) == y))


def ref_loss_and_grad(weights, layers, activation, x, y) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient with respect to the flat weights."""
    params, inputs, pre = _forward(weights, layers, activation, x)
    n = x.shape[0]
    rows = np.arange(n)
    out = pre[-1]
    shifted = out - out.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = float(-log_probs[rows, y].mean())
    delta = np.exp(log_probs)
    delta[rows, y] -= 1.0
    delta /= n
    grads = [None] * len(params)
    for idx in range(len(params) - 1, -1, -1):
        grads[idx] = (inputs[idx].T @ delta, delta.sum(axis=0))
        if idx > 0:
            back = delta @ params[idx][0].T
            z = pre[idx - 1]
            delta = back * (z > 0.0) if activation == "relu" else back * (1.0 - np.tanh(z) ** 2)
    flat = []
    for (gw, gb), (_, _, has_bias) in zip(grads, layers):
        flat.append(gw.reshape(-1))
        if has_bias:
            flat.append(gb)
    return loss, np.concatenate(flat)


def weighted_sum(vectors, weights) -> np.ndarray:
    """Left-to-right sum of weights[i] * vectors[i]."""
    acc = float(weights[0]) * vectors[0]
    for v, w in zip(vectors[1:], weights[1:]):
        acc = acc + float(w) * v
    return acc


def _close(actual, expected, rtol) -> bool:
    scale = max(1.0, float(np.max(np.abs(expected))))
    return actual.shape == expected.shape and float(np.max(np.abs(actual - expected))) <= rtol * scale


def check_pool_average(upload, members) -> str | None:
    """An LSS upload must be the uniform average of the pool it returned."""
    expected = weighted_sum(list(members), [1.0 / len(members)] * len(members))
    if not _close(np.asarray(upload), expected, AVERAGE_RTOL):
        return "upload is not the uniform average of its pool"
    return None


def read_rounds_csv(path) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def read_diagnostics(path) -> dict[str, str]:
    out = {}
    for ln in Path(path).read_text(encoding="utf-8").splitlines():
        key, _, value = ln.partition(": ")
        out[key] = value
    return out


def read_partition_sizes(path) -> list[int]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [len(ln.partition(":")[2].split()) for ln in lines if ln.startswith("client ")]


def check_run(run_dir, dump, workload: dict) -> list[str]:
    """Check one run's artifacts against reference computations.

    ``dump`` holds what the child saved after the run: the eval set, the
    anchor, the last round's uploads, the clients' data and the program's
    own ``loss_and_grad`` at the final model.  Returns the failed checks.
    """
    run_dir = Path(run_dir)
    fails: list[str] = []
    model, analysis = workload["model"], workload["analysis"]
    activation = model.get("activation", "relu")

    rounds = read_rounds_csv(run_dir / "rounds.csv")
    if len(rounds) != workload["experiment"]["rounds"]:
        fails.append(f"rounds.csv has {len(rounds)} rounds")
        return fails
    csv_acc = float(rounds[-1]["global_acc"])
    csv_loss = float(rounds[-1]["global_loss"])

    weights, layers = read_lssw(run_dir / "final.lssw")
    x, y = dump["eval_x"], dump["eval_y"]
    widths = [x.shape[1], *model.get("hidden_dims", []), workload["data"]["num_classes"]]
    if [(i, o) for i, o, _ in layers] != list(zip(widths[:-1], widths[1:])):
        fails.append(f"checkpoint layers {layers} do not match widths {widths}")
        return fails

    acc = ref_accuracy(weights, layers, activation, x, y)
    loss, grad = ref_loss_and_grad(weights, layers, activation, x, y)
    if acc != csv_acc:
        fails.append(f"final accuracy {csv_acc!r} != reference {acc!r}")
    if abs(loss - csv_loss) > LOSS_RTOL * abs(loss):
        fails.append(f"final loss {csv_loss!r} != reference {loss!r}")
    if not _close(dump["program_grad"], grad, GRAD_RTOL):
        fails.append("loss_and_grad at the final model differs from the reference gradient")

    anchor_loss, _ = ref_loss_and_grad(dump["anchor"], layers, activation, x, y)
    if not loss < anchor_loss:
        fails.append(f"final loss {loss!r} is not below the anchor's {anchor_loss!r}")
    if not acc > 1.0 / workload["data"]["num_classes"]:
        fails.append(f"final accuracy {acc!r} is not above chance")

    sizes = read_partition_sizes(run_dir / "partition.txt")
    if sizes != [int(s) for s in dump["client_sizes"]]:
        fails.append("partition.txt client sizes differ from the clients the run trained")
        return fails
    total = np.array(sizes, dtype=np.float64)
    share = total / total.sum()
    uploads = dump["uploads"]
    if len(uploads) != len(sizes):
        fails.append(f"{len(uploads)} uploads for {len(sizes)} clients")
    elif not _close(weights, weighted_sum(list(uploads), share), AVERAGE_RTOL):
        fails.append("final model is not the data-proportional average of the last uploads")

    diag = read_diagnostics(run_dir / "diagnostics.txt")
    if analysis.get("zeta", True):
        bounds = np.cumsum([0, *sizes])
        grads = [
            ref_loss_and_grad(
                weights, layers, activation,
                dump["client_x"][lo:hi], dump["client_y"][lo:hi],
            )[1]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        global_grad = weighted_sum(grads, share)
        zeta = max(float(np.linalg.norm(g - global_grad)) for g in grads)
        got = float(diag.get("zeta_hat", "nan"))
        if not abs(got - zeta) <= ZETA_RTOL * zeta:
            fails.append(f"zeta_hat {got!r} != reference {zeta!r}")
    if analysis.get("sigma", True) and not float(diag.get("sigma_hat", "nan")) >= 0.0:
        fails.append(f"sigma_hat {diag.get('sigma_hat')} is not >= 0")
    if analysis.get("bvcl", False):
        var = float(diag.get("bvcl_variance", "nan"))
        cov = float(diag.get("bvcl_covariance", "nan"))
        if not var >= 0.0:
            fails.append(f"bvcl_variance {var!r} is not >= 0")
        if not cov <= var:
            fails.append(f"bvcl_covariance {cov!r} exceeds the variance {var!r}")
    return fails
