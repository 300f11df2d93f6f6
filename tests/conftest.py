"""Shared helpers for the test suite.

Random matrix generators are built on top of the package's own
eigendecomposition, ``eig_sym``, so that test fixtures (orthonormal frames,
SPD matrices with chosen spectra) do not depend on an external eigensolver.
Brute-force oracles inside the tests use plain loops and, where an
independent cross-check is wanted, numpy.
"""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from genspectra import Matrix, SymMatrix, eig_sym, kernels
from genspectra.eigen import _TRIDIAG_MIN_DIM, _graded
from genspectra.pencil import _breve_pairs

REPO_ROOT = Path(__file__).resolve().parent.parent
CYKERNELS_MODULE = "genspectra.kernels._cykernels"

# Units of B that the scale-invariance tests sweep.
SCALES = [1e-6, 1e-3, 1e-2, 1.0, 1e3, 1e6]

# Exponents k of the units 2^k that the exact-scaling tests sweep: far enough
# out that squares and products of the entries overflow or underflow.
POW2_EXPS = [-540, -300, 0, 300, 515]

# ---------------------------------------------------------------------------
# acceptance reporting
#
# test_acceptance.py registers one (label, ok, detail) record per criterion
# through the ``acceptance`` fixture.  The terminal-summary hook below prints
# one PASS/FAIL line per criterion at the end of the run so the outcome is
# visible even though pytest captures per-test stdout.
# ---------------------------------------------------------------------------

_ACCEPTANCE_RECORDS = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RECORDS:
        return
    terminalreporter.section("acceptance criteria")
    for label, ok, detail in _ACCEPTANCE_RECORDS:
        status = "PASS" if ok else "FAIL"
        line = f"{status} {label}"
        if detail:
            line += f" [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def acceptance():
    """Recorder fixture: call with (label, ok, detail) and it asserts ok."""

    def record(label: str, ok: bool, detail: str = ""):
        _ACCEPTANCE_RECORDS.append((label, bool(ok), detail))
        status = "PASS" if ok else "FAIL"
        line = f"{status} {label}"
        if detail:
            line += f" [{detail}]"
        print(line)
        assert ok, line

    return record


# ---------------------------------------------------------------------------
# compiled backend
#
# The parity tests build the shipped _cykernels.c themselves, through
# setup.py into a temporary directory, so they compile it with the flags an
# install uses, and load the module by path. It is never put on the import
# path (its multi-phase init leaves sys.modules alone), so the package under
# test keeps its pure-Python backend.
# ---------------------------------------------------------------------------


def c_compiler() -> str:
    """Path of the C compiler that builds the extension; skips the test
    where there is none, or no Python.h."""
    cc = shutil.which((sysconfig.get_config_var("CC") or "cc").split()[0]) or shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    if not (Path(sysconfig.get_paths()["include"]) / "Python.h").exists():
        pytest.skip("no Python.h")
    return cc


@pytest.fixture(scope="session")
def cykernels(tmp_path_factory):
    """The compiled kernel module, built from the shipped C source."""
    c_compiler()
    out = tmp_path_factory.mktemp("cykernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    so = out / "genspectra/kernels" / ("_cykernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    # The extension is optional, so setup.py succeeds even when it fails to build.
    if build.returncode != 0 or not so.exists():
        pytest.fail(f"building _cykernels.c through setup.py failed:\n{build.stdout}{build.stderr}")
    spec = importlib.util.spec_from_file_location("_cykernels", so)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# random fixture generators
# ---------------------------------------------------------------------------


def random_sym(rng: np.random.RandomState, d: int, scale: float = 1.0) -> SymMatrix:
    """Random dense symmetric matrix with entries O(scale)."""
    g = rng.standard_normal((d, d)) * scale
    return SymMatrix((g + g.T) / 2.0)


def random_orthonormal(rng: np.random.RandomState, d: int) -> np.ndarray:
    """Orthonormal basis obtained from the package's own eigensolver.

    Eigenvectors of a random symmetric matrix form an orthonormal set, so
    this avoids depending on an external QR.
    """
    dec = eig_sym(random_sym(rng, d))
    return dec.phi.array.copy()


def low_rank_psd(d: int, r: int, seed: int) -> np.ndarray:
    """G G' with G d x r standard normal (``default_rng(seed)``), exactly
    symmetric: a PSD matrix of rank r, with d - r eigenvalues at zero."""
    g = np.random.default_rng(seed).standard_normal((d, r))
    a = g @ g.T
    return (a + a.T) / 2.0


def random_spd(
    rng: np.random.RandomState, d: int, lo: float = 1.0, hi: float = 100.0
) -> SymMatrix:
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    q = random_orthonormal(rng, d)
    lam = rng.uniform(lo, hi, size=d)
    return SymMatrix((q * lam) @ q.T)


def indefinite_pencil(d: int, seed: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) = (F' diag(mu s) F, F' diag(s) F) at d <= 4, F = I + 0.3 G.

    B is indefinite (s = +-1 alternating), and so is A (mu s has mixed
    signs), and the spectrum is real, mu = (2, 1, -1.5, 3)[:d]. At d = 3
    and 4 the points (mu_i s_i, s_i) lie in no open half-plane, so the pair
    is not definite: no cos(t) A + sin(t) B is positive definite, and the
    quick route rejects it.
    """
    mu = np.array([2.0, 1.0, -1.5, 3.0][:d])
    s = np.array([1.0, -1.0, 1.0, -1.0][:d])
    f = np.eye(d) + 0.3 * np.random.RandomState(seed).standard_normal((d, d))
    a = f.T @ ((mu * s)[:, None] * f)
    b = f.T @ (s[:, None] * f)
    return (a + a.T) / 2.0, (b + b.T) / 2.0


def angle_pencil(
    rng: np.random.Generator, d: int, c: float, degrees: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(A, B, angles) with A = F' diag(a) F, B = F' diag(b) F and cond(F) = c.

    F = X^-1 with X = U diag(geomspace(1, c, d)) V, U and V from the QR of
    Gaussians; (a_i, b_i) = r_i (cos t_i, sin t_i) with r_i uniform in
    [0.5, 2] and the angles t_i uniform over ``degrees``. The pair is
    definite exactly when the points lie in an open half-plane, that is
    when the angles leave a gap wider than 180 degrees.
    """
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    f = np.linalg.inv(u @ np.diag(np.geomspace(1.0, c, d)) @ v)
    t = rng.uniform(*degrees, size=d)
    r = rng.uniform(0.5, 2.0, size=d)
    a = f.T @ np.diag(r * np.cos(np.radians(t))) @ f
    b = f.T @ np.diag(r * np.sin(np.radians(t))) @ f
    return (a + a.T) / 2.0, (b + b.T) / 2.0, t


def definite_pencil(d: int, c: float = 100.0, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """A definite pair (A, B) with both A and B indefinite, cond(F) = c.

    ``angle_pencil`` with angles in [40, 200] degrees, which lie in an open
    half-plane, drawn from ``default_rng(seed)`` until both a and b have
    mixed signs: then neither +-A nor B is a metric, and only a rotation
    cos(t) A + sin(t) B is.
    """
    rng = np.random.default_rng(seed)
    while True:
        a, b, t = angle_pencil(rng, d, c, (40.0, 200.0))
        cos, sin = np.cos(np.radians(t)), np.sin(np.radians(t))
        if cos.min() < 0.0 < cos.max() and sin.min() < 0.0 < sin.max():
            return a, b


def random_unit(rng: np.random.RandomState, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.sqrt(v @ v)


def gram_schmidt(cols: np.ndarray, metric: np.ndarray | None = None) -> np.ndarray:
    """Orthonormalize the columns of ``cols`` in the given inner product.

    ``metric`` is an SPD matrix B; columns come out B-orthonormal
    (plain orthonormal when metric is None).  Written out longhand so the
    tests do not lean on the code under test.
    """
    d, p = cols.shape
    b = np.eye(d) if metric is None else metric
    out = np.zeros((d, p))
    for j in range(p):
        v = cols[:, j].astype(float).copy()
        for k in range(j):
            v -= (out[:, k] @ (b @ v)) * out[:, k]
        nrm = np.sqrt(v @ (b @ v))
        if nrm < 1e-12:
            raise ValueError("rank-deficient frame in test fixture")
        out[:, j] = v / nrm
    return out


def assert_diagnostics(residual, b_orth, a, b, phi, lams):
    """Check reported diagnostics against a numpy recomputation.

    ``residual`` must equal ||A Phi - B Phi diag(lams)||_F / max(1, ||A||_F)
    and ``b_orth`` must equal max|Phi' B Phi - I|; ``b=None`` is the identity.
    """
    b = np.eye(a.shape[0]) if b is None else b
    resid = a @ phi - (b @ phi) * np.asarray(lams)
    expect_resid = np.linalg.norm(resid) / max(1.0, np.linalg.norm(a))
    expect_orth = np.abs(phi.T @ b @ phi - np.eye(phi.shape[1])).max()
    assert residual == pytest.approx(expect_resid, rel=1e-6, abs=1e-12)
    assert b_orth == pytest.approx(expect_orth, rel=1e-6, abs=1e-12)


def span_gap(x: np.ndarray, y: np.ndarray) -> float:
    """max|P_x - P_y| for the orthogonal projectors onto the column spans."""
    qx, _ = np.linalg.qr(x)
    qy, _ = np.linalg.qr(y)
    return float(np.abs(qx @ qx.T - qy @ qy.T).max())


@pytest.fixture
def eigen_inputs(monkeypatch):
    """(kernel name, copy of the matrix) for each call of
    ``kernels.jacobi_eigh`` and ``kernels.tridiag_eigh``, in call order."""
    from genspectra import kernels

    seen = []
    for name in ("jacobi_eigh", "tridiag_eigh"):
        def recording(a, *args, _name=name, _kernel=getattr(kernels, name)):
            seen.append((_name, np.array(a, copy=True)))
            return _kernel(a, *args)

        monkeypatch.setattr(kernels, name, recording)
    return seen


@pytest.fixture
def factorizations(monkeypatch):
    """Dimension of the matrix of each ``kernels.cholesky_inverse`` call,
    in call order."""
    from genspectra import kernels

    seen = []

    def recording(b, _kernel=kernels.cholesky_inverse):
        seen.append(b.shape[0])
        return _kernel(b)

    monkeypatch.setattr(kernels, "cholesky_inverse", recording)
    return seen


def gram_fallback(w: np.ndarray, f: np.ndarray):
    """(Phi, Lambda) of the fits' full A_breve = (W'F)(W'F)', the Gram of
    W'F, for a whitening W and a factor F of A = F F'."""
    wf = kernels.matmul(w.T, f)
    phi, _, _, lams = _breve_pairs(kernels.matmul(wf, wf.T), w, "descending")
    return phi, lams


def kernel_calls(seen) -> list:
    """(kernel name, dimension) of each call ``eigen_inputs`` recorded."""
    return [(name, m.shape[0]) for name, m in seen]


def ungraded_kernel(d: int) -> str:
    """The kernel ``eig_sym`` takes for a d x d matrix other than a graded
    metric: Jacobi below ``_TRIDIAG_MIN_DIM``, the tridiagonal one from there up."""
    return "tridiag_eigh" if d >= _TRIDIAG_MIN_DIM else "jacobi_eigh"


def metric_kernel(b: np.ndarray) -> str:
    """The kernel ``eig_sym`` takes for the metric B: Jacobi when its diagonal
    is graded, otherwise the one ``ungraded_kernel`` names."""
    return "jacobi_eigh" if _graded(b) else ungraded_kernel(b.shape[0])


def as_matrix(rows) -> Matrix:
    return Matrix(rows)


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0
