"""Backend selection for the compute kernels.

The compiled extension (hand-written C, ``_cykernels.c``) is used when it
imports cleanly and defines every kernel; otherwise the pure-Python
implementations take over. A module left from an older build lacks the
newer kernels and counts as not built, so the two backends are never mixed.
Set the environment variable ``GENSPECTRA_KERNELS`` to ``python`` or
``compiled`` to force a backend (``compiled`` raises if the extension was
never built, or is stale).
"""

from __future__ import annotations

import os

from . import pykernels

try:
    from . import _cykernels
except ImportError:
    _cykernels = None

# What each backend module defines.
_KERNEL_NAMES = ("matmul", "jacobi_eigh", "tridiag_eigh", "cholesky_inverse")


def _compiled():
    """The compiled module when it defines every kernel, else None."""
    if _cykernels is None or not all(hasattr(_cykernels, name) for name in _KERNEL_NAMES):
        return None
    return _cykernels


def _select_backend():
    """Resolve the active backend from GENSPECTRA_KERNELS (default auto)."""
    choice = os.environ.get("GENSPECTRA_KERNELS", "auto").strip().lower()
    compiled = _compiled()
    if choice == "python":
        return "python", pykernels
    if choice == "compiled":
        if compiled is None:
            state = "is not available" if _cykernels is None else "is stale (built from an older source)"
            raise ImportError(
                f"GENSPECTRA_KERNELS=compiled, but the compiled extension {state}; "
                "rebuild it by reinstalling the package where a C compiler is available"
            )
        return "compiled", compiled
    if choice == "auto":
        if compiled is not None:
            return "compiled", compiled
        return "python", pykernels
    raise ValueError(
        f"GENSPECTRA_KERNELS must be 'python', 'compiled' or 'auto', got {choice!r}"
    )


BACKEND, _active = _select_backend()

matmul = _active.matmul
jacobi_eigh = _active.jacobi_eigh
tridiag_eigh = _active.tridiag_eigh
cholesky_inverse = _active.cholesky_inverse


def available_backends() -> dict:
    """Map backend name to its module, for benchmarks and parity tests."""
    found = {"python": pykernels}
    compiled = _compiled()
    if compiled is not None:
        found["compiled"] = compiled
    return found
