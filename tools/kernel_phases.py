"""Best-of-N times of ``tridiag_eigh``'s phases and of ``cholesky_inverse``, per backend.

For the pure-Python backend, ``tridiag_eigh`` is split into its four
phases, each timed on its own on the state the phase before left:
Householder reduction (``_householder``), QL eigenvalues
(``_ql_eigenvalues``), inverse iteration (``_inverse_iteration``) and the
back-transform (``_back_transform``). The compiled backend's phases run
inside one C call, so it gets the whole kernel only. Each input is a
seeded random symmetric matrix scaled as ``eigen.eig_sym`` scales it (the
largest entry in [0.5, 1)), and ``cholesky_inverse`` takes G G' / d + I
for a seeded random G, so the numbers repeat from run to run:

    python3 tools/kernel_phases.py .
    python3 tools/kernel_phases.py /path/to/other/checkout --repeats 50

Each line reads ``BACKEND D KERNEL-OR-PHASE MS``. The backends are those of
``genspectra.kernels.available_backends()`` of the checkout at SRC_ROOT:
the compiled one is there once ``setup.py build_ext --inplace`` has built
it.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

DEFAULT_DIMS = (40, 48, 56)


def _best_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e6


def _inputs(d: int, pow2_scaled):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((2, d, d))
    a, _ = pow2_scaled((g[0] + g[0].T) / 2.0)
    b = g[1] @ g[1].T / d + np.eye(d)
    return a, b


def phases(py, a: np.ndarray, rel_tol: float, max_iter: int, repeats: int) -> dict[str, float]:
    """Best-of-``repeats`` ms of each phase of ``py.tridiag_eigh(a, ...)``."""
    thresh = rel_tol * math.sqrt(float(py._sums_down((a * a).ravel(), -0.0)))
    diag, off, reflectors = py._householder(a.copy())
    w, _, converged = py._ql_eigenvalues(diag.tolist(), off.tolist(), max_iter)
    if not converged:
        raise RuntimeError("QL did not converge on the probe matrix")
    w = np.array(sorted(w))
    z, _, converged = py._inverse_iteration(diag, off, w, thresh, max_iter)
    if not converged:
        raise RuntimeError("inverse iteration did not converge on the probe matrix")
    return {
        "householder": _best_ms(lambda: py._householder(a.copy()), repeats),
        "ql": _best_ms(lambda: py._ql_eigenvalues(diag.tolist(), off.tolist(), max_iter), repeats),
        "inverse_iteration": _best_ms(
            lambda: py._inverse_iteration(diag, off, w, thresh, max_iter), repeats
        ),
        "back_transform": _best_ms(lambda: py._back_transform(reflectors, z.copy()), repeats),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_root", type=Path, help="root of the checkout whose src/genspectra runs")
    p.add_argument("--dims", type=int, nargs="+", default=DEFAULT_DIMS)
    p.add_argument("--repeats", type=int, default=20, help="calls per time; the best counts")
    args = p.parse_args(argv)

    src = (args.src_root / "src").resolve()
    sys.path.insert(0, str(src))
    from genspectra import kernels
    from genspectra.eigen import JACOBI_REL_TOL, MAX_SWEEPS
    from genspectra.linalg import _pow2_scaled

    if Path(kernels.__file__).resolve().parent.parent.parent != src:
        p.error(f"genspectra was imported from {kernels.__file__}, not from {src}")
    for name, mod in sorted(kernels.available_backends().items()):
        for d in args.dims:
            a, b = _inputs(d, _pow2_scaled)
            times = {}
            if name == "python":
                times = phases(mod, a, JACOBI_REL_TOL, MAX_SWEEPS, args.repeats)
            times["tridiag_eigh"] = _best_ms(
                lambda: mod.tridiag_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS), args.repeats
            )
            times["cholesky_inverse"] = _best_ms(lambda: mod.cholesky_inverse(b), args.repeats)
            for what, ms in times.items():
                print(f"{name} {d} {what} {ms:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
