"""Kernel probe: the two hot loops timed on their own, on every backend.

``matmul`` and ``jacobi_eigh`` run on each backend that
``genspectra.kernels.available_backends()`` reports, timed as the median
of several calls, under ``kernels.<op>.<backend>.ms``. Every backend must
reproduce the pure-Python output bit for bit (``kernels.parity`` is 1 when
it does; a mismatch stops the run). LAPACK's ``eigh`` on the same matrix
is recorded as ``ref.lapack_eigh_ms``: a ceiling for orientation, never a
target, since the package does not use LAPACK.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from genspectra.eigen import JACOBI_REL_TOL, MAX_SWEEPS
from genspectra.kernels import available_backends

PROBE_DIM = 48


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def run(seed: int, repeats: int = 5) -> dict[str, float]:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, PROBE_DIM, PROBE_DIM))
    a = (g[0] + g[0].T) / 2.0
    b = (g[1] + g[1].T) / 2.0

    out = {}
    results = {}
    for name, mod in sorted(available_backends().items()):
        out[f"kernels.matmul.{name}.ms"] = _median_ms(lambda: mod.matmul(a, b), repeats)
        out[f"kernels.jacobi_eigh.{name}.ms"] = _median_ms(
            lambda: mod.jacobi_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS), repeats
        )
        results[name] = (mod.matmul(a, b), *mod.jacobi_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS)[:2])

    ref = results["python"]
    for name, got in results.items():
        for what, x, y in zip(("matmul", "jacobi eigenvalues", "jacobi vectors"), got, ref):
            if not np.array_equal(x, y):
                raise RuntimeError(f"{what} of backend {name!r} differs from python at d={PROBE_DIM}")
    out["kernels.parity"] = 1.0
    out["ref.lapack_eigh_ms"] = _median_ms(lambda: np.linalg.eigh(a), 10 * repeats)
    return out
