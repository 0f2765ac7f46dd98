"""Fingerprint of the numeric stack the golden files are bit-level against.

The golden CSVs and diagnostics hold on x86-64 with AVX-512, where numpy's
bundled OpenBLAS runs its ``SkylakeX`` kernels and numpy dispatches up to
``X86_V4``.  Another BLAS core or SIMD target rounds differently, so a
golden mismatch is first read against this line.  Each lookup that fails
reads ``unknown``.

    python tests/fingerprint.py
"""

import ctypes
from pathlib import Path

import numpy as np


def openblas_core() -> str:
    """The core numpy's bundled OpenBLAS dispatched to, e.g. ``SkylakeX``.

    The library is already loaded by numpy, so this reads the running
    instance, ``OPENBLAS_CORETYPE`` included."""
    try:
        (lib,) = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        return corename().decode()
    except Exception:
        return "unknown"


def numpy_dispatch() -> str:
    """numpy's SIMD dispatch targets that this CPU runs, space-separated."""
    try:
        from numpy._core import _multiarray_umath as umath

        active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
        return " ".join(active) or "none"
    except Exception:
        return "unknown"


def fingerprint() -> str:
    return (
        f"numpy {np.__version__}; OpenBLAS core {openblas_core()}; "
        f"numpy dispatch {numpy_dispatch()}"
    )


def first_difference(actual: bytes, expected: bytes) -> str:
    """Where ``actual`` first departs from ``expected``, and the fingerprint."""
    got, want = actual.splitlines(), expected.splitlines()
    n = min(len(got), len(want))
    i = next((i for i in range(n) if got[i] != want[i]), n)
    end = b"<end>"
    return (
        f"first difference at line {i + 1}: expected {want[i] if i < len(want) else end!r}, "
        f"got {got[i] if i < len(got) else end!r}; numeric stack: {fingerprint()}"
    )


if __name__ == "__main__":
    print(fingerprint())
