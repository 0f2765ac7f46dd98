"""The sequential power iteration, as ``lss.analysis`` ran it before its
probes ran in lockstep: one probe at a time, one gradient per call.  It is
the test oracle for ``hessian_top_eig`` and its lockstep engine, and shares
no code with them."""

from __future__ import annotations

from typing import Callable

import numpy as np


def _fd_hvp(
    grad_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray, v: np.ndarray
) -> np.ndarray:
    eps = 1e-4 * (1.0 + float(np.linalg.norm(x))) / float(np.linalg.norm(v))
    return (grad_fn(x + eps * v) - grad_fn(x - eps * v)) / (2.0 * eps)


def top_hessian_eigenvalue_from_grad(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
    iters: int,
    rng: np.random.Generator,
) -> float:
    """Power iteration on the FD Hessian at ``x``; returns the Rayleigh quotient.

    A degenerate probe (Hessian-vector product vanishes) is reseeded once;
    a second failure raises.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    x = np.asarray(x, dtype=np.float64)
    for attempt in range(2):
        v = rng.standard_normal(x.size)
        v /= np.linalg.norm(v)
        eig = 0.0
        degenerate = False
        for _ in range(iters):
            hv = _fd_hvp(grad_fn, x, v)
            norm = float(np.linalg.norm(hv))
            if norm < 1e-30 or not np.isfinite(norm):
                degenerate = True
                break
            eig = float(np.dot(v, hv))
            v = hv / norm
        if not degenerate:
            return eig
    raise RuntimeError("power iteration degenerate: Hessian-vector product vanished")

