"""Seeded inputs and request lists for the four benchmark workloads.

Each workload writes its CSV inputs into a work directory and returns the
requests it sends to ``genspectra.cli.main``. A request carries the argv
the program sees (file paths only) and, separately, the exact arrays that
were written, which only the oracle reads. The same seed always gives the
same files, byte for byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("dense-pencil", "kernel-fit", "tall-data", "small-pencils")

# Whole cycles over a workload's requests per 10 s of --seconds. A cycle
# took about 11, 3.1, 0.67 and 0.08 s at the baseline on a 2-vCPU VM, so
# a run measures about --seconds there. Fixed counts keep the sample count,
# and with it the percentile the tail latency is read at, the same in every
# run. At 24 s, kernel-fit runs 8 cycles, so that its tail (the 14th of 24
# samples) falls in the upper part of the n = 64 group of requests rather
# than between two groups, and dense-pencil runs 2, so that it measures
# about as long as the others.
CYCLES_PER_10S = {"dense-pencil": 1.0, "kernel-fit": 3.5, "tall-data": 15, "small-pencils": 125}


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what the oracle needs to judge its answer.

    ``kind`` is the CLI command; ``expect`` names the reference the oracle
    uses: ``definite`` (B positive definite), ``reciprocal`` (A positive
    definite, B indefinite: solve B x = mu A x and take 1/mu),
    ``regularized`` (B rank-deficient), or the command name for
    ``eig``/``pca``/``fda``/``kspca``/``rayleigh``.
    """

    rid: str
    argv: tuple[str, ...]
    kind: str
    expect: str
    arrays: dict
    method: str | None = None
    p: int | None = None


class InputWriter:
    """Writes CSV files into one directory and remembers their sha256."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.sha256: dict[str, str] = {}
        directory.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, text: str) -> str:
        path = self.directory / name
        data = text.encode("utf-8")
        path.write_bytes(data)
        self.sha256[name] = hashlib.sha256(data).hexdigest()
        return str(path)

    def matrix(self, name: str, m: np.ndarray) -> str:
        # repr gives the shortest string that round-trips a float64 exactly,
        # so the program parses the very values the oracle holds.
        rows = (",".join(repr(float(v)) for v in row) for row in np.atleast_2d(m))
        return self._write(name, "\n".join(rows) + "\n")

    def labeled(self, name: str, x: np.ndarray, labels: np.ndarray) -> str:
        """One sample per row (x is n x d), header row, trailing label column."""
        d = x.shape[1]
        lines = [",".join([f"f{j}" for j in range(d)] + ["label"])]
        for row, lab in zip(x, labels):
            lines.append(",".join([repr(float(v)) for v in row] + [str(int(lab))]))
        return self._write(name, "\n".join(lines) + "\n")


def _sym(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    return (g + g.T) / 2.0


def _spd(rng, d: int) -> np.ndarray:
    """I + G G'/d: eigenvalues in about [1, 5], so det(B) >= 1."""
    g = rng.standard_normal((d, d))
    m = np.eye(d) + g @ g.T / d
    return (m + m.T) / 2.0


def _psd_rank_deficient(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d - 1))
    m = g @ g.T
    return (m + m.T) / 2.0


def _indefinite(rng, d: int) -> np.ndarray:
    """Symmetric, eigenvalues of both signs and bounded away from zero."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    mags = rng.uniform(0.5, 2.0, size=d)
    signs = np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    m = (q * (mags * signs)) @ q.T
    return (m + m.T) / 2.0


def _classes(rng, n: int, d: int, k: int, spread: float):
    labels = np.arange(n) % k
    rng.shuffle(labels)
    centers = rng.standard_normal((k, d)) * spread
    x = centers[labels] + rng.standard_normal((n, d))
    return x, labels


def dense_pencil(rng, w: InputWriter) -> list[Request]:
    reqs = []
    for d in (40, 48, 56):
        a = _sym(rng, d)
        b0 = _spd(rng, d)
        a_path = w.matrix(f"a_d{d}.csv", a)
        reqs.append(Request(f"eig-d{d}", ("eig", a_path), "eig", "eig", {"a": a}))
        for s in (1e-2, 1.0, 1e2):
            b = s * b0
            b_path = w.matrix(f"b_d{d}_s{s:g}.csv", b)
            for method in ("rigorous", "quick_dirty"):
                reqs.append(Request(
                    f"geig-{method}-d{d}-s{s:g}",
                    ("geig", "--method", method, a_path, b_path),
                    "geig", "definite", {"a": a, "b": b}, method=method,
                ))
    return reqs


def kernel_fit(rng, w: InputWriter) -> list[Request]:
    reqs = []
    for n in (48, 64, 72):
        x, labels = _classes(rng, n, 8, 3, spread=1.5)
        path = w.labeled(f"kspca_n{n}.csv", x, labels)
        reqs.append(Request(
            f"kspca-n{n}", ("kspca", "-p", "2", path), "kspca", "kspca",
            {"x": x, "labels": labels}, p=2,
        ))
    return reqs


def tall_data(rng, w: InputWriter) -> list[Request]:
    x, labels = _classes(rng, 4000, 12, 3, spread=1.0)
    path = w.labeled("tall_n4000_d12.csv", x, labels)
    # pca reads every column as a feature, the label column included.
    table = np.column_stack([x, labels.astype(np.float64)])
    pca = Request("pca-n4000", ("pca", "-p", "3", path), "pca", "pca", {"x": table}, p=3)
    fda = Request("fda-n4000", ("fda", "-p", "2", path), "fda", "fda",
                  {"x": x, "labels": labels}, p=2)
    # Two pca per fda: with equal counts the median would sit exactly between
    # the two request types, which are only ~15% apart; this way it falls
    # inside the pca group and the tail inside the fda group.
    return [pca, pca, fda]


def small_pencils(rng, w: InputWriter) -> list[Request]:
    reqs = []
    for d in (2, 3, 4):
        a = _sym(rng, d)
        a_spd = _spd(rng, d)
        b_spd = _spd(rng, d)
        b_ind = _indefinite(rng, d)
        b_psd = _psd_rank_deficient(rng, d)
        u = rng.standard_normal(d)
        paths = {
            name: w.matrix(f"{name}_d{d}.csv", m)
            for name, m in (("a", a), ("aspd", a_spd), ("bspd", b_spd),
                            ("bind", b_ind), ("bpsd", b_psd))
        }
        u_path = w.matrix(f"u_d{d}.csv", u)
        cases = (
            ("quick_dirty", "a", "bspd", "definite", a, b_spd),
            ("quick_dirty", "aspd", "bind", "reciprocal", a_spd, b_ind),
            ("quick_dirty", "a", "bpsd", "regularized", a, b_psd),
            ("rigorous", "a", "bpsd", "regularized", a, b_psd),
            ("rigorous", "a", "bspd", "definite", a, b_spd),
        )
        for method, an, bn, expect, am, bm in cases:
            reqs.append(Request(
                f"geig-{method}-{an}-{bn}-d{d}",
                ("geig", "--method", method, paths[an], paths[bn]),
                "geig", expect, {"a": am, "b": bm}, method=method,
            ))
        reqs.append(Request(
            f"rayleigh-d{d}", ("rayleigh", paths["a"], u_path, "--b", paths["bspd"]),
            "rayleigh", "rayleigh", {"a": a, "b": b_spd, "u": u},
        ))
    return reqs


_BUILDERS = {
    "dense-pencil": dense_pencil,
    "kernel-fit": kernel_fit,
    "tall-data": tall_data,
    "small-pencils": small_pencils,
}


def build(name: str, seed: int, directory: Path) -> tuple[list[Request], dict[str, str]]:
    """Write the inputs of workload ``name`` and return (requests, sha256 by file).

    The request order is shuffled by the seed, and fixed from then on.
    """
    rng = np.random.default_rng(seed)
    writer = InputWriter(directory)
    reqs = _BUILDERS[name](rng, writer)
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order], writer.sha256
