"""The sequential power iteration, as ``lss.analysis`` ran it before its
probes ran in lockstep: one probe at a time, one gradient per call.  It is
the test oracle for ``hessian_top_eig`` and its lockstep engine, and shares
no code with them.  ``FakeStack`` drives that engine on quadratics, with
this oracle as its one-probe reference."""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from lss import analysis


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


class FakeStack:
    """Waves of quadratic probes for ``analysis._power_iteration``, run in
    lockstep (``analysis._lockstep``) on the stacked gradients ``diags[p]
    * point``, and their one-probe oracle.  Probe
    ``vanish`` gets a zero gradient at iteration ``at`` of its first
    attempt, or of every attempt with ``twice``; probe ``blow_up`` gets an
    infinite one at iteration 0."""

    def __init__(self, diags, wave, vanish=-1, at=0, twice=False, blow_up=-1):
        self.diags, self.wave = diags, wave
        self.vanish, self.at, self.twice, self.blow_up = vanish, at, twice, blow_up
        self.waves_with_vanish = 0

    def zero(self, probe, attempt, it):
        return probe == self.vanish and it == self.at and (attempt == 1 or self.twice)

    def __call__(self, lo):
        hi = min(len(self.diags), lo + self.wave)
        points, grads = np.empty((2, 2, hi - lo, self.diags.shape[1]))
        self.waves_with_vanish += lo <= self.vanish < hi
        attempt, its = self.waves_with_vanish, [0]

        def gradients():
            np.multiply(self.diags[lo:hi], points, out=grads)
            for r in range(hi - lo):
                if self.zero(lo + r, attempt, its[0]):
                    grads[:, r] = 0.0
                if lo + r == self.blow_up:
                    grads[:, r] = np.inf
            its[0] += 1
            return grads

        return hi, partial(analysis._lockstep, points, gradients)

    def oracle(self, x, iters, rng):
        eigs = []
        for p, d in enumerate(self.diags):
            calls = [0]

            def grad_fn(point, p=p, d=d):
                # a vanishing probe's attempt 1 ends at iteration ``at``
                k, calls[0] = calls[0], calls[0] + 1
                attempt, it = (1, k // 2) if k // 2 <= self.at else (2, k // 2 - self.at - 1)
                if self.zero(p, attempt, it):
                    return np.zeros_like(point)
                if p == self.blow_up:
                    raise ValueError("diagnostic produced non-finite entries")
                return d * point

            eigs.append(top_hessian_eigenvalue_from_grad(grad_fn, x, iters, rng))
        return eigs
