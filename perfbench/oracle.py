"""Correctness oracle: judges each CLI response against LAPACK.

LAPACK (``numpy.linalg.eigh`` and ``scipy.linalg.eigh``) is used here, in
the benchmark, and nowhere in the package. The oracle checks, per response:

* the exit code (every request in the benchmark has a solution);
* the eigenvalues against the LAPACK reference of the same pencil;
* the reported ``residual`` and ``b_orthonormality`` at 1e-7, the bound of
  acceptance criterion 3, and that they match what the oracle recomputes
  from the returned vectors;
* for a rank-deficient B, that ``epsilon_used`` is positive and the
  residual recomputed against the original pencil matches the reported
  one.

``judge`` returns None for a correct response and a one-line reason
otherwise. Byte identity of repeated responses is checked by the caller.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

# Acceptance criterion 3's bound on residual and B-orthonormality.
DIAG_TOL = 1e-7
# Eigenvalues against LAPACK, relative to the largest reference magnitude;
# for a rank-deficient B, relative to the largest regularized magnitude.
EIG_TOL = 1e-10
REG_EIG_TOL = 1e-12
# A reported diagnostic against the oracle's recomputation of it.
MATCH_REL = 1e-6
MATCH_ABS = 1e-12
# An eigenvalue of B at most this share of the largest marks a null direction.
NULL_TOL = 1e-9

_METHOD = {"eig": "jacobi", "pca": "jacobi", "fda": "rigorous", "kspca": "rigorous"}


def judge(req, code: int, out: str, err: str = "") -> str | None:
    if code != 0:
        return f"exit code {code} where a solution exists: {err.strip()}"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        if req.kind == "rayleigh":
            return _check_rayleigh(req, doc)
        return _check_eigen(req, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed document: {exc!r}"


def _close(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= MATCH_ABS + MATCH_REL * abs(recomputed)


def _check_eigen(req, doc) -> str | None:
    if doc["command"] != req.kind:
        return f"command {doc['command']!r}, expected {req.kind!r}"
    diag = doc["diagnostics"]
    method = req.method if req.kind == "geig" else _METHOD[req.kind]
    if diag["method"] != method:
        return f"method {diag['method']!r}, expected {method!r}"
    eps = float(diag["epsilon_used"])
    regularized = req.expect == "regularized"
    if regularized != (eps > 0.0):
        return f"epsilon_used {eps!r} on a {'singular' if regularized else 'regular'} B"

    a, b, ref = _reference(req, eps)
    lams = np.array(doc["eigenvalues"], dtype=np.float64)
    phi = np.array(doc["vectors"], dtype=np.float64).T
    if lams.shape != ref.shape or phi.shape != (a.shape[0], ref.size):
        return f"shape: {lams.size} eigenvalues, vectors {phi.shape}, expected {ref.size}"
    finite = np.ones(ref.size, dtype=bool)
    if regularized:
        # Null directions of B carry infinite eigenvalues. Regularization
        # turns each into a huge finite one whose size hinges on how small
        # the computed null eigenvalue of B came out, so only its sign and
        # order of magnitude are checked.
        w_b = np.linalg.eigvalsh(b)
        nulls = int(np.sum(w_b <= NULL_TOL * np.max(np.abs(w_b))))
        finite[np.argsort(-np.abs(ref), kind="stable")[:nulls]] = False
        ratio = lams[~finite] / ref[~finite]
        if not np.all((ratio > 0.5) & (ratio < 2.0)):
            return f"eigenvalues of null directions {lams[~finite]} against {ref[~finite]}"
    # The regularized whitening route is accurate relative to the norm of
    # its transformed A, whose size the huge eigenvalues set.
    scale = ref if regularized else ref[finite]
    tol = REG_EIG_TOL if regularized else EIG_TOL
    gap = float(np.max(np.abs(lams[finite] - ref[finite]))) / float(np.max(np.abs(scale)))
    if not gap <= tol:
        return f"eigenvalues differ from LAPACK by {gap:.3e} (relative)"

    resid = math.sqrt(float(np.sum((a @ phi - (b @ phi) * lams) ** 2)))
    resid /= max(1.0, math.sqrt(float(np.sum(a * a))))
    borth = float(np.max(np.abs(phi.T @ b @ phi - np.eye(phi.shape[1]))))
    if not _close(diag["residual"], resid):
        return f"reported residual {diag['residual']:.3e}, recomputed {resid:.3e}"
    if not _close(diag["b_orthonormality"], borth):
        return f"reported b_orthonormality {diag['b_orthonormality']:.3e}, recomputed {borth:.3e}"
    if regularized:
        return None
    if not resid <= DIAG_TOL:
        return f"residual {resid:.3e} above {DIAG_TOL:g}"
    if req.method == "quick_dirty" and a.shape[0] <= 4:
        # The charpoly route promises unit-length vectors, not B-orthonormal ones.
        unit = float(np.max(np.abs(np.linalg.norm(phi, axis=0) - 1.0)))
        if not unit <= DIAG_TOL:
            return f"vectors deviate from unit length by {unit:.3e}"
    elif not borth <= DIAG_TOL:
        return f"b_orthonormality {borth:.3e} above {DIAG_TOL:g}"
    return None


def _reference(req, eps: float):
    """(A, B, eigenvalues in the order the CLI reports them) for a request."""
    arr = req.arrays
    if req.kind == "eig":
        a = arr["a"]
        return a, np.eye(a.shape[0]), np.linalg.eigvalsh(a)[::-1]
    if req.kind == "pca":
        xc = arr["x"] - arr["x"].mean(axis=0)
        a = xc.T @ xc
        return a, np.eye(a.shape[0]), np.linalg.eigvalsh(a)[::-1][: req.p]
    if req.kind == "fda":
        a, b = _scatters(arr["x"], arr["labels"])
    elif req.kind == "kspca":
        a, b = _kspca_pencil(arr["x"], arr["labels"])
    else:
        a, b = arr["a"], arr["b"]
    if req.expect == "reciprocal":
        # A is positive definite and B indefinite: B x = mu A x, lambda = 1/mu.
        mu = scipy.linalg.eigh(b, a, eigvals_only=True)
        return a, b, np.sort(1.0 / mu)[::-1]
    metric = b
    if eps > 0.0:
        metric = b + eps * np.eye(b.shape[0]) if req.method == "quick_dirty" else _whitened_metric(b, eps)
    ref = scipy.linalg.eigh(a, metric, eigvals_only=True)[::-1]
    return a, b, ref[: req.p] if req.p else ref


def _whitened_metric(b: np.ndarray, eps: float) -> np.ndarray:
    """Phi_B (Lambda_B^1/2 + eps)^2 Phi_B': the metric the whitening route enforces."""
    w, v = np.linalg.eigh(b)
    m = (v * (np.sqrt(np.maximum(w, 0.0)) + eps) ** 2) @ v.T
    return (m + m.T) / 2.0


def _scatters(x: np.ndarray, labels: np.ndarray):
    """Unweighted between-class and within-class scatters; x is n x d."""
    mu_t = x.mean(axis=0)
    d = x.shape[1]
    s_b = np.zeros((d, d))
    s_w = np.zeros((d, d))
    for cls in np.unique(labels):
        block = x[labels == cls]
        mu = block.mean(axis=0)
        s_b += np.outer(mu - mu_t, mu - mu_t)
        dev = block - mu
        s_w += dev.T @ dev
    return s_b, s_w


def _kspca_pencil(x: np.ndarray, labels: np.ndarray):
    """(K_x H K_y H K_x, K_x) for an rbf kernel with gamma = 1/d and delta labels."""
    n, d = x.shape
    sq = np.sum(x * x, axis=1)
    k_x = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0) / d)
    k_y = (labels[:, None] == labels[None, :]).astype(np.float64)
    h = np.eye(n) - 1.0 / n
    m = k_x @ h @ k_y @ h @ k_x
    return (m + m.T) / 2.0, (k_x + k_x.T) / 2.0


def _check_rayleigh(req, doc) -> str | None:
    if doc["command"] != "rayleigh":
        return f"command {doc['command']!r}, expected 'rayleigh'"
    a, b, u = req.arrays["a"], req.arrays["b"], req.arrays["u"]
    bu = b @ u
    lam = float(u @ a @ u) / float(u @ bu)
    expected = {
        "quotient": lam,
        "multiplier": lam,
        "residual": float(np.linalg.norm(a @ u - lam * bu)),
        "constraint_violation": abs(float(u @ bu) - 1.0),
    }
    st = doc["stationarity"]
    reported = {"quotient": doc["quotient"], **st}
    for key, want in expected.items():
        got = float(reported[key])
        if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
            return f"{key} {got!r}, LAPACK-side value {want!r}"
    return None
