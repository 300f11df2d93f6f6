"""Backend selection and bit-level parity between compiled and pure-Python kernels."""

import importlib
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from genspectra import kernels
from genspectra.kernels import pykernels

from conftest import CYKERNELS_C, CYKERNELS_MODULE, random_sym


def _same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_backend_reports_a_known_name():
    assert kernels.BACKEND in ("python", "compiled")


def test_available_backends_python_always_present():
    avail = kernels.available_backends()
    assert avail["python"] is pykernels
    assert set(avail) <= {"python", "compiled"}


def test_env_override_rejects_unknown_backend(monkeypatch):
    monkeypatch.setenv("GENSPECTRA_KERNELS", "fortran")
    with pytest.raises(ValueError):
        kernels._select_backend()


def test_env_override_python(monkeypatch):
    monkeypatch.setenv("GENSPECTRA_KERNELS", "python")
    name, mod = kernels._select_backend()
    assert name == "python"
    assert mod is pykernels


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def _naive_matmul(a, b):
    # independent triple-loop oracle (different loop order than the kernels)
    n, k = a.shape
    k2, m = b.shape
    out = [[0.0] * m for _ in range(n)]
    for j in range(m):
        for p in range(k):
            for i in range(n):
                out[i][j] += a[i, p] * b[p, j]
    return np.array(out)


def _loop_matmul(a, b):
    # The list-based triple loop the pure-Python backend used to be, and the
    # compiled backend still is: each entry starts at 0.0 and adds its terms
    # in k order, skipping those with a[i, k] == 0.0.
    m, inner = a.shape
    n = b.shape[1]
    al = a.tolist()
    bl = b.tolist()
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        ai = al[i]
        oi = out[i]
        for k in range(inner):
            aik = ai[k]
            if aik != 0.0:
                bk = bl[k]
                for j in range(n):
                    oi[j] += aik * bk[j]
    return np.array(out, dtype=np.float64).reshape(m, n)


def test_matmul_matches_oracle_and_numpy():
    rng = np.random.RandomState(7)
    for (n, k, m) in [(1, 1, 1), (3, 4, 2), (5, 5, 5), (2, 7, 3)]:
        a = rng.standard_normal((n, k))
        b = rng.standard_normal((k, m))
        got = kernels.matmul(a, b)
        assert np.allclose(got, _naive_matmul(a, b), rtol=0, atol=1e-12)
        assert np.allclose(got, a @ b, rtol=1e-13, atol=1e-13)


# Shapes of the fits (d x n x d covariance and scatter, the p x d x n
# projection), square products, and inner dimensions spanning several
# blocks of terms.
_PARITY_SHAPES = [
    (2, 2, 2), (3, 5, 4), (8, 8, 8), (17, 3, 9), (4, 4, 1), (72, 72, 72),
    (12, 4000, 12), (3, 13, 4000), (1, 70000, 1), (300, 2, 300),
]


def _with_zeros(rng, a, b):
    """Copies of a and b with zeros and -0.0 in a and -0.0 in b."""
    a = a.copy()
    b = b.copy()
    a[rng.random_sample(a.shape) < 0.2] = 0.0
    a[rng.random_sample(a.shape) < 0.1] = -0.0
    b[rng.random_sample(b.shape) < 0.1] = -0.0
    return a, b


def test_matmul_matches_loop_bit_for_bit():
    rng = np.random.RandomState(17)
    for (m, k, n) in _PARITY_SHAPES:
        a = rng.standard_normal((m, k)) * 10.0
        b = rng.standard_normal((k, n)) * 0.1
        for x, y in [(a, b), _with_zeros(rng, a, b)]:
            assert _same_bits(pykernels.matmul(x, y), _loop_matmul(x, y)), (m, k, n)


def test_matmul_skips_zero_terms_against_inf_and_nan():
    # 0.0 * inf is nan; the loop never forms that product.
    rng = np.random.RandomState(19)
    a = rng.standard_normal((5, 7))
    a[:, 2] = 0.0
    a[1, 2] = -0.0
    a[3, 5] = 0.0
    b = rng.standard_normal((7, 4))
    b[2] = [np.inf, -np.inf, np.nan, 1.0]
    b[5, 0] = np.nan
    got = pykernels.matmul(a, b)
    assert _same_bits(got, _loop_matmul(a, b))
    assert list(np.isnan(got[:, 0])) == [True, True, True, False, True]
    assert np.isfinite(got[:, 1:]).all()


def test_matmul_propagates_nan_in_a():
    rng = np.random.RandomState(23)
    a = rng.standard_normal((4, 6))
    a[0, 1] = np.nan
    a[2] = 0.0
    b = rng.standard_normal((6, 3))
    b[1, 2] = np.nan
    got = pykernels.matmul(a, b)
    assert _same_bits(got, _loop_matmul(a, b))
    assert np.isnan(got[0]).all()
    assert list(np.isnan(got[:, 2])) == [True, True, False, True]
    assert _same_bits(got[2], np.zeros(3))


def test_matmul_negative_zero_sums_come_out_positive():
    a = np.array([[-0.0, 1.0], [2.0, -0.0], [1.0, -1.0]])
    b = np.array([[-0.0, 3.0], [-0.0, -0.0]])
    got = pykernels.matmul(a, b)
    assert _same_bits(got, _loop_matmul(a, b))
    assert not np.signbit(got[:, 0]).any()
    assert _same_bits(pykernels.matmul(np.array([[1.0]]), np.array([[-0.0]])), np.zeros((1, 1)))


def test_matmul_overflow_and_zero_times_inf_are_silent():
    # As in the loop: inf and nan come out without a RuntimeWarning.
    a = np.array([[1e200, 0.0], [1.0, 2.0]])
    b = np.array([[1e200, 1.0], [np.inf, 3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pykernels.matmul(a, b)
    assert _same_bits(got, _loop_matmul(a, b))
    assert got[0, 0] == np.inf and got[1, 0] == np.inf


@pytest.mark.parametrize("m, k, n", [(3, 0, 2), (0, 4, 2), (3, 4, 0), (0, 0, 0)])
def test_matmul_empty_dimensions(m, k, n):
    got = pykernels.matmul(np.ones((m, k)), np.ones((k, n)))
    assert _same_bits(got, np.zeros((m, n)))
    assert got.dtype == np.float64


def test_matmul_accepts_non_contiguous_operands():
    rng = np.random.RandomState(29)
    x = rng.standard_normal((40, 9))
    y = rng.standard_normal((40, 18))[:, ::2]
    for a, b in [(x.T, x), (x, x.T), (x.T, y), (x[::3].T, x[::3])]:
        assert not (a.flags.c_contiguous and b.flags.c_contiguous)
        expect = _loop_matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
        assert _same_bits(pykernels.matmul(a, b), expect)


def test_matmul_memory_stays_within_one_block():
    # All 12 * 8000 * 12 terms would take 9.2 MB; one block holds 0.5 MB,
    # and the previous block must be gone before the next is formed.
    rng = np.random.RandomState(31)
    a = rng.standard_normal((12, 8000))
    b = rng.standard_normal((8000, 12))
    a[:, ::5] = 0.0
    tracemalloc.start()
    try:
        pykernels.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * pykernels._BLOCK_TERMS


def test_matmul_backends_bit_identical(cykernels):
    rng = np.random.RandomState(11)
    for (m, k, n) in _PARITY_SHAPES:
        a = rng.standard_normal((m, k)) * 10.0
        b = rng.standard_normal((k, n)) * 0.1
        for x, y in [(a, b), _with_zeros(rng, a, b), (np.asfortranarray(a), b)]:
            assert _same_bits(pykernels.matmul(x, y), cykernels.matmul(x, y)), (m, k, n)


# ---------------------------------------------------------------------------
# jacobi_eigh
# ---------------------------------------------------------------------------


def test_jacobi_diagonal_input_converges_in_zero_rotations():
    a = np.diag([3.0, 1.0, 2.0])
    w, v, sweeps, converged = kernels.jacobi_eigh(a, 1e-12, 100)
    assert converged
    assert sorted(w) == [1.0, 2.0, 3.0]
    assert np.allclose(np.asarray(v), np.eye(3), atol=0)


def test_jacobi_zero_and_one_by_one():
    w, v, _, ok = kernels.jacobi_eigh(np.zeros((2, 2)), 1e-12, 100)
    assert ok and list(w) == [0.0, 0.0]
    w, v, _, ok = kernels.jacobi_eigh(np.array([[4.0]]), 1e-12, 100)
    assert ok and list(w) == [4.0] and np.asarray(v)[0, 0] == 1.0


def test_jacobi_reconstructs_input():
    rng = np.random.RandomState(3)
    for d in (2, 5, 9):
        a = random_sym(rng, d).array
        w, v, sweeps, converged = kernels.jacobi_eigh(a, 1e-12, 100)
        assert converged
        v = np.asarray(v)
        w = np.asarray(w)
        recon = (v * w) @ v.T
        assert np.allclose(recon, a, atol=1e-12 * max(1.0, np.abs(a).max()) * 100)
        assert np.allclose(v.T @ v, np.eye(d), atol=1e-12)


def test_jacobi_unconverged_flag_when_sweeps_exhausted():
    rng = np.random.RandomState(5)
    a = random_sym(rng, 6).array
    _, _, sweeps, converged = kernels.jacobi_eigh(a, 1e-12, 1)
    # one sweep cannot fully converge a generic 6x6
    assert sweeps == 1
    assert not converged


def test_jacobi_backends_bit_identical(cykernels):
    rng = np.random.RandomState(13)
    for d in (2, 3, 8, 17):
        a = random_sym(rng, d, scale=3.0).array
        wp, vp, sp, cp = pykernels.jacobi_eigh(a, 1e-12, 100)
        wc, vc, sc, cc = cykernels.jacobi_eigh(a, 1e-12, 100)
        assert sp == sc
        assert cp == cc
        assert _same_bits(wp, wc)
        assert _same_bits(vp, vc)


def test_compiled_fixture_stays_off_the_import_path(cykernels):
    # The package's backend choice must not see the module the fixture built.
    assert cykernels not in sys.modules.values()
    assert cykernels is not kernels.available_backends().get("compiled")
    if kernels.BACKEND == "python":
        with pytest.raises(ImportError):
            importlib.import_module(CYKERNELS_MODULE)


def test_module_level_dispatch_matches_selected_backend():
    # the re-exported callables must come from the module reported in BACKEND
    mod = importlib.import_module(
        "genspectra.kernels._cykernels"
        if kernels.BACKEND == "compiled"
        else "genspectra.kernels.pykernels"
    )
    assert kernels.matmul is mod.matmul
    assert kernels.jacobi_eigh is mod.jacobi_eigh


# ---------------------------------------------------------------------------
# the generated C source
# ---------------------------------------------------------------------------

_PYX_MARKER = "# <<<<<<<<<<<<<<"


def _embedded_source(c_line: str) -> str:
    """The .pyx text of one line of a Cython comment block (" * <source>")."""
    text = c_line.rstrip().removesuffix(_PYX_MARKER).rstrip()
    return text[3:] if text.startswith(" * ") else text.removeprefix(" *")


def test_generated_c_embeds_the_current_pyx():
    # Cython copies the source around each statement into the C file, as a
    # comment block headed by the .pyx line number, with that line marked
    # and its neighbours as context. A .pyx edit without regenerating the C
    # file shows up here.
    pyx = CYKERNELS_C.with_suffix(".pyx").read_text().splitlines()
    header = re.compile(r'/\* "genspectra/kernels/_cykernels\.pyx":(\d+)$')
    c_lines = CYKERNELS_C.read_text().splitlines()
    checked = set()
    for pos, line in enumerate(c_lines):
        found = header.search(line.strip())
        if not found:
            continue
        block = c_lines[pos + 1:c_lines.index("*/", pos)]
        marked = [q for q, l in enumerate(block) if l.rstrip().endswith(_PYX_MARKER)]
        assert len(marked) == 1, f"C line {pos + 1}: {len(marked)} marked lines"
        first = int(found.group(1)) - marked[0]
        for q, embedded in enumerate(block):
            lineno = first + q
            assert 1 <= lineno <= len(pyx), f"C line {pos + 1} cites .pyx line {lineno}"
            assert _embedded_source(embedded) == pyx[lineno - 1].rstrip(), f".pyx line {lineno} changed"
            checked.add(lineno)
    assert len(checked) > len(pyx) // 2
