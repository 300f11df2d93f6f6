"""Per-layer spans recorded from outside the package.

Each layer's public entry points are wrapped, and every module of the
package that bound the original by name is rebound to the wrapper while
the tracer is installed. ``eig_sym`` for instance is imported by name into
``pencil``, ``apps``, ``cli`` and ``rayleigh``; ``kernels.matmul`` and
``kernels.jacobi_eigh`` are looked up on the ``kernels`` module at call
time, so rebinding them there suffices. Nothing under ``src/`` changes.

Spans (request, id, parent, name, start, end, counters) stay in memory and
are written out once, at the end of the run. A span's self time is its
duration minus the durations of its direct children; calls are nested and
single-threaded, so the self times of a request add up to its root span.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# (span name, defining module, entry points)
ENTRY_POINTS = (
    ("cli.parse", "genspectra.cli", ("parse_matrix_csv", "parse_labeled_csv")),
    ("apps.fit", "genspectra.apps", ("pca_fit", "fda_fit", "kspca_fit")),
    ("apps.scatter_matrices", "genspectra.apps", ("scatter_matrices",)),
    ("apps.kernel_matrix", "genspectra.apps", ("kernel_matrix",)),
    ("pencil.solve", "genspectra.pencil", ("solve_rigorous", "solve_quick_dirty")),
    ("linalg.determinant", "genspectra.linalg", ("determinant",)),
    ("eigen.eig_sym", "genspectra.eigen", ("eig_sym",)),
    ("kernels.matmul", "genspectra.kernels", ("matmul",)),
    ("kernels.jacobi_eigh", "genspectra.kernels", ("jacobi_eigh",)),
)
ROOT_SPAN = "cli"
SPAN_NAMES = (ROOT_SPAN,) + tuple(name for name, _, _ in ENTRY_POINTS)

# Modules that implement a kernel backend define the functions rather than
# call them, so they are not rebound.
_BACKEND_MODULES = ("genspectra.kernels.pykernels", "genspectra.kernels._cykernels")


def _parse_counts(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _matmul_counts(args, result):
    # Computed from the shapes: 2mkn flops; each operand read once and the
    # product written once, 8 bytes per entry.
    (m, k), n = args[0].shape, args[1].shape[1]
    return {"flops": 2 * m * k * n, "bytes": 8 * (m * k + k * n + m * n)}


def _jacobi_counts(args, result):
    d = args[0].shape[0]
    sweeps = result[2]
    # Computed: every sweep visits all d(d-1)/2 pairs.
    return {"sweeps": sweeps, "rotations": sweeps * d * (d - 1) // 2}


# span name -> (counter names, function of (args, result) giving them)
COUNTERS = {
    "cli.parse": (("bytes",), _parse_counts),
    "kernels.matmul": (("flops", "bytes"), _matmul_counts),
    "kernels.jacobi_eigh": (("sweeps", "rotations"), _jacobi_counts),
}


class Tracer:
    """Records spans of the requests run through ``call`` while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._request = None
        self._patches = self._plan()

    def _plan(self):
        """(module, attribute, original, wrapper) for every binding to rebind."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if (name == "genspectra" or name.startswith("genspectra."))
            and name not in _BACKEND_MODULES and mod is not None
        ]
        patches = []
        for span, modname, attrs in ENTRY_POINTS:
            for attr in attrs:
                original = getattr(sys.modules[modname], attr)
                wrapper = self._wrap(span, original)
                for mod in modules:
                    for key, value in vars(mod).items():
                        if value is original:
                            patches.append((mod, key, original, wrapper))
        return patches

    def bindings(self) -> list[str]:
        """Every rebound name, as ``module.attribute``."""
        return sorted(f"{mod.__name__}.{key}" for mod, key, _, _ in self._patches)

    def install(self):
        for mod, key, _, wrapper in self._patches:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original, _ in self._patches:
            setattr(mod, key, original)

    def _wrap(self, name, fn):
        count = COUNTERS[name][1] if name in COUNTERS else None

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[sid] = [self._request, sid, parent, name, start, end, None]
            if count is not None:
                self.spans[sid][6] = count(args, result)
            return result

        return traced

    def call(self, request, fn, *args):
        """Run ``fn(*args)`` as the root span of ``request``; returns (result, ns)."""
        self._request = request
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = [request, sid, -1, ROOT_SPAN, start, end, None]
        return result, end - start

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for req, sid, parent, name, start, end, counts in self.spans:
                fh.write(json.dumps({
                    "request": req, "id": sid, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "counters": counts,
                }) + "\n")


def summarize(spans) -> tuple[dict, int]:
    """Per-request means of calls, self time and counters for every span name.

    Returns ({metric name: value}, number of requests). Raises RuntimeError
    when the self times of a request do not add up to its root span.
    """
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    totals = defaultdict(int)
    root_ns = {}
    self_by_request = defaultdict(int)
    for req, sid, parent, name, start, end, counts in spans:
        self_ns = end - start - child_ns[sid]
        self_by_request[req] += self_ns
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_ns"] += self_ns
        for key, value in (counts or {}).items():
            totals[f"{name}.{key}"] += value
        if parent < 0:
            root_ns[req] = end - start
    for req, ns in root_ns.items():
        if self_by_request[req] != ns:
            raise RuntimeError(
                f"self times of request {req} add up to {self_by_request[req]} ns, "
                f"its root span lasted {ns} ns"
            )
    n = len(root_ns)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = totals[f"{name}.calls"] / n
        out[f"{name}.self_ms"] = totals[f"{name}.self_ns"] / n / 1e6
    for name, (keys, _) in COUNTERS.items():
        for key in keys:
            out[f"{name}.{key}"] = totals[f"{name}.{key}"] / n
    return out, n
