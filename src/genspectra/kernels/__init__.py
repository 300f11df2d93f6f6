"""Backend selection for the compute kernels.

The compiled extension (hand-written C, ``_cykernels.c``) is used when it
imports cleanly; otherwise the pure-Python implementations take over. Set the environment variable
``GENSPECTRA_KERNELS`` to ``python`` or ``compiled`` to force a backend
(``compiled`` raises if the extension was never built).
"""

from __future__ import annotations

import os

from . import pykernels

try:
    from . import _cykernels
except ImportError:
    _cykernels = None

def _select_backend():
    """Resolve the active backend from GENSPECTRA_KERNELS (default auto)."""
    choice = os.environ.get("GENSPECTRA_KERNELS", "auto").strip().lower()
    if choice == "python":
        return "python", pykernels
    if choice == "compiled":
        if _cykernels is None:
            raise ImportError(
                "GENSPECTRA_KERNELS=compiled, but the compiled extension is not "
                "available; reinstall the package where a C compiler is available"
            )
        return "compiled", _cykernels
    if choice == "auto":
        if _cykernels is not None:
            return "compiled", _cykernels
        return "python", pykernels
    raise ValueError(
        f"GENSPECTRA_KERNELS must be 'python', 'compiled' or 'auto', got {choice!r}"
    )


BACKEND, _active = _select_backend()

matmul = _active.matmul
jacobi_eigh = _active.jacobi_eigh


def available_backends() -> dict:
    """Map backend name to its module, for benchmarks and parity tests."""
    found = {"python": pykernels}
    if _cykernels is not None:
        found["compiled"] = _cykernels
    return found
