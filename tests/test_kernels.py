"""Backend selection and bit-level parity between compiled and pure-Python kernels."""

import ast
import functools
import importlib
import math
import subprocess
import sys
import sysconfig
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from genspectra import KernelSpec, LabeledDataset, Matrix, Pencil, SymMatrix, eig_sym, fda_fit, kernels, kspca_fit
from genspectra import solve_quick_dirty, solve_rigorous
from genspectra.eigen import JACOBI_REL_TOL, MAX_SWEEPS
from genspectra.kernels import pykernels

from conftest import CYKERNELS_MODULE, REPO_ROOT, c_compiler, definite_pencil, low_rank_psd, random_sym


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


def test_stale_compiled_module_counts_as_not_built(monkeypatch):
    # A module from an older build, without tridiag_eigh or cholesky_inverse,
    # would otherwise run next to the pure-Python versions of those kernels.
    stale = types.ModuleType("_cykernels")
    stale.matmul, stale.jacobi_eigh = pykernels.matmul, pykernels.jacobi_eigh
    monkeypatch.setattr(kernels, "_cykernels", stale)
    for newer in ("tridiag_eigh", "cholesky_inverse"):
        monkeypatch.setenv("GENSPECTRA_KERNELS", "auto")
        assert kernels._select_backend() == ("python", pykernels), newer
        assert "compiled" not in kernels.available_backends()
        monkeypatch.setenv("GENSPECTRA_KERNELS", "compiled")
        with pytest.raises(ImportError, match="stale.*rebuild"):
            kernels._select_backend()
        setattr(stale, newer, getattr(pykernels, newer))
    assert kernels._select_backend() == ("compiled", stale)


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
# projection, the thin K_x G, A Phi and B Phi and their transposes), square
# products, and inner dimensions spanning several blocks of terms.
_PARITY_SHAPES = [
    (2, 2, 2), (3, 5, 4), (8, 8, 8), (17, 3, 9), (4, 4, 1), (72, 72, 72),
    (12, 4000, 12), (3, 13, 4000), (1, 70000, 1), (300, 2, 300),
    (72, 72, 3), (64, 64, 2), (48, 48, 1), (3, 72, 72), (1, 48, 48), (2, 40000, 3),
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


def test_matmul_triangular_operands_match_loop_bit_for_bit():
    # The quick route's L^-1 and FDA's W = L^-T: the zero half of a takes
    # no mask against a finite b, and is masked against inf and nan in b.
    rng = np.random.RandomState(61)
    for d in (3, 9, 16, 56, 72):
        low = np.tril(rng.standard_normal((d, d)))
        b = rng.standard_normal((d, d))
        special = b.copy()
        special[d // 2, ::3] = np.inf
        special[-1, 1 % d] = np.nan
        for x in (low, low.T, np.asfortranarray(low)):
            for y in (b, special, b[:, :1], special[:, :2]):
                got, want = pykernels.matmul(x, y), _loop_matmul(np.ascontiguousarray(x), y)
                nan = np.isnan(want)
                assert np.array_equal(np.isnan(got), nan), d
                assert _same_bits(got[~nan], want[~nan]), d


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
    # A 256 x 256 output fills a block with one k: each block's sums go into
    # the running sums, so one output lives next to the block, not two.
    a = rng.standard_normal((256, 256))
    a[:, ::7] = 0.0
    tracemalloc.start()
    try:
        pykernels.matmul(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * (pykernels._BLOCK_TERMS + 256 * 256)


def test_matmul_memory_stays_within_one_block_in_the_flipped_layout():
    # n < m lays the terms out as (K, n, m); each block copies its rows of
    # a' and b, and the block with its copies stays within one block.
    rng = np.random.RandomState(47)
    a = rng.standard_normal((64, 8000))
    b = rng.standard_normal((8000, 2))
    a[:, ::5] = 0.0
    for x in (a, np.asfortranarray(a)):
        tracemalloc.start()
        try:
            pykernels.matmul(x, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * pykernels._BLOCK_TERMS


def test_matmul_small_and_einsum_products_match_loop_in_both_layouts():
    # At most _EINSUM_MIN_TERMS terms take the broadcast multiply, one more
    # k takes einsum, laid out (K, m, n) or, for n < m, (K, n, m); and a
    # last block of a few k after full ones.
    rng = np.random.RandomState(53)
    for (m, n) in [(4, 1), (1, 4), (16, 2), (2, 16), (8, 8), (1, 1)]:
        small = pykernels._EINSUM_MIN_TERMS // (m * n)
        step = pykernels._BLOCK_TERMS // (m * n + m + n)
        for k in (small, small + 1, 2 * step + 3):
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            for x, y in [(a, b), _with_zeros(rng, a, b)]:
                assert _same_bits(pykernels.matmul(x, y), _loop_matmul(x, y)), (m, k, n)


def test_pykernels_einsum_sums_no_index():
    # An einsum that drops an input index sums over it in an order of its
    # own; every one in pykernels must keep each index in its output.
    tree = ast.parse((REPO_ROOT / "src/genspectra/kernels/pykernels.py").read_text(encoding="utf-8"))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "einsum"
    ]
    assert calls
    einsums = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "einsum"]
    assert len(einsums) == len(calls), "np.einsum is used other than by a direct call"
    for call in calls:
        spec = call.args[0]
        choices = [spec.body, spec.orelse] if isinstance(spec, ast.IfExp) else [spec]
        assert all(isinstance(c, ast.Constant) and isinstance(c.value, str) for c in choices), ast.unparse(spec)
        assert "optimize" not in {kw.arg for kw in call.keywords}
        for c in choices:
            inputs, arrow, output = c.value.partition("->")
            assert arrow and "." not in c.value, c.value
            assert set(inputs.replace(",", "")) <= set(output), c.value


def test_sums_down_adds_from_start_one_slice_after_another():
    # start + terms[0] + terms[1] + ..., whatever the layout of the terms;
    # start -0.0 leaves a sum of -0.0 terms at -0.0, as the C loops that
    # start at their first term do.
    rng = np.random.RandomState(43)
    for shape in [(5,), (30, 1), (6, 3), (7, 2, 5), (40, 1, 1), (17, 9)]:
        terms = rng.standard_normal(shape) * 10.0 ** rng.randint(-8, 9, size=shape)
        terms[rng.random_sample(shape) < 0.3] = -0.0
        for start in (0.0, -0.0):
            expect = np.full(shape[1:], start)
            for t in terms:
                expect = expect + t
            for x in (terms.copy(), np.asfortranarray(terms)):
                assert _same_bits(pykernels._sums_down(x, start), expect), (shape, start)
            zeros = np.full(shape, -0.0)
            assert _same_bits(pykernels._sums_down(zeros, start), np.full(shape[1:], start))


def test_matmul_outer_axis_sums_match_loop_bit_for_bit():
    # Each block's sums run down its k axis one slice at a time; a layout
    # that puts k along memory, or a slice of a single entry, would let
    # numpy add pairwise instead.
    rng = np.random.RandomState(37)
    shapes = [(m, 23, 1) for m in range(2, 41)]  # matrix-vector
    shapes += [(1, 30, 7), (1, 9, 300), (1, 3, 1)]  # one row
    shapes += [(1, k, 1) for k in (1, 2, 9, 100, 70000)]  # one entry
    shapes += [(9, 3000, 8), (40, 100, 40), (300, 3, 301)]  # several blocks
    for (m, k, n) in shapes:
        a = rng.standard_normal((m, k)) * 10.0
        b = rng.standard_normal((k, n)) * 0.1
        operands = [
            (a, b),
            _with_zeros(rng, a, b),
            (a, np.full_like(b, -0.0)),
            (np.asfortranarray(a), np.asfortranarray(b)),
            (rng.standard_normal((k, m)).T, rng.standard_normal((n, k)).T),
        ]
        for x, y in operands:
            assert _same_bits(pykernels.matmul(x, y), _loop_matmul(x, y)), (m, k, n)


def test_matmul_backends_agree_except_where_nans_meet(cykernels):
    # Where two NaNs meet in a sum, either backend may keep either one, sign
    # and payload included; every entry is NaN in both or in neither, and
    # every other entry has the same bits.
    rng = np.random.RandomState(41)
    payload_nan = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    specials = np.array([np.inf, -np.inf, np.nan, -np.nan, payload_nan, 1e300, -1e300, 0.0, -0.0])
    for _ in range(300):
        m, k, n = rng.randint(1, 12, size=3)
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        for x in (a, b):
            spots = rng.random_sample(x.shape) < 0.15
            x[spots] = rng.choice(specials, size=int(spots.sum()))
        got, want = pykernels.matmul(a, b), cykernels.matmul(a, b)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), (m, k, n)
        assert _same_bits(got[~nan], want[~nan]), (m, k, n)


def test_matmul_backends_bit_identical(cykernels):
    rng = np.random.RandomState(11)
    for (m, k, n) in _PARITY_SHAPES:
        a = rng.standard_normal((m, k)) * 10.0
        b = rng.standard_normal((k, n)) * 0.1
        for x, y in [(a, b), _with_zeros(rng, a, b), (np.asfortranarray(a), b)]:
            assert _same_bits(pykernels.matmul(x, y), cykernels.matmul(x, y)), (m, k, n)


def test_matmul_tiles_keep_the_loop_bits(cykernels):
    # The compiled product runs 4 rows over 64-column blocks: tiles with
    # row and column remainders, and a zero a[i, k] in one row of a tile
    # facing inf and nan in b[k], which only that row may skip.
    rng = np.random.RandomState(59)
    for (m, k, n) in [(4, 9, 64), (5, 9, 65), (7, 3, 63), (8, 20, 130), (1, 5, 200), (9, 1, 1)]:
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        a[m // 2, k // 2] = 0.0
        a[0, -1] = -0.0
        b[k // 2, ::7] = np.inf
        b[-1, 3 % n] = np.nan
        want = _loop_matmul(a, b)
        for x in (a, np.asfortranarray(a)):
            got = cykernels.matmul(x, b)
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan), (m, k, n)
            assert _same_bits(got[~nan], want[~nan]), (m, k, n)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_matmul_grams_are_bit_symmetric(backend, request):
    # SymMatrix stores a Gram X X' as it is: out[i, j] and out[j, i] add
    # the same products in the same order, with the same zero terms left
    # out, in the broadcast, einsum and blocked layouts alike.
    matmul = pykernels.matmul if backend == "python" else request.getfixturevalue("cykernels").matmul
    rng = np.random.RandomState(67)
    shapes = [(m, k) for m in (2, 3, 7, 12) for k in (1, 5, 40, 4000)]  # wide
    shapes += [(m, k) for m in (20, 72, 300) for k in (1, 2, 9)]  # tall
    for (m, k) in shapes:
        x = rng.standard_normal((m, k)) * 10.0 ** rng.randint(-3, 4, size=(m, 1))
        x[rng.random_sample(x.shape) < 0.2] = 0.0
        x[rng.random_sample(x.shape) < 0.1] = -0.0
        for y in (x, np.asfortranarray(x)):
            gram = matmul(y, y.T)
            assert _same_bits(gram, gram.T), (m, k)


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
    # Every branch of a rotation, on the pure-Python kernel, so that they
    # stay tested where no C compiler is present.
    for d in _JACOBI_DIMS:
        for name, a in _jacobi_inputs(d).items():
            w, v, sweeps, converged = pykernels.jacobi_eigh(a, 1e-12, 100)
            assert converged, (d, name)
            assert np.abs((v * w) @ v.T - a).max() <= 1e-10 * np.abs(a).max(), (d, name)
            assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-12, (d, name)


def test_jacobi_unconverged_flag_when_sweeps_exhausted():
    rng = np.random.RandomState(5)
    a = random_sym(rng, 6).array
    _, _, sweeps, converged = kernels.jacobi_eigh(a, 1e-12, 1)
    # one sweep cannot fully converge a generic 6x6
    assert sweeps == 1
    assert not converged


# Odd and even sizes on both sides of d = 9 (``eigen._TRIDIAG_MIN_DIM``),
# from where eig_sym sends only a graded metric B to Jacobi.
_JACOBI_DIMS = list(range(1, 18)) + [24]


def _jacobi_inputs(d):
    """Symmetric test matrices that reach every branch of a rotation."""
    rng = np.random.RandomState(1000 + d)
    a = random_sym(rng, d, scale=3.0).array
    zero_row = a.copy()
    zero_row[d // 2] = 0.0
    zero_row[:, d // 2] = 0.0
    neg_zero = a.copy()
    mask = np.triu(rng.random_sample((d, d)) < 0.2)
    neg_zero[mask | mask.T] = -0.0
    # apq = 5e-324 next to a diagonal gap of 1 makes tau infinite; the other
    # block keeps the sweeps going, and its pairs with the first block have
    # apq == 0.0.
    denormal = np.zeros((d + 2, d + 2))
    denormal[:2, :2] = [[1.0, 5e-324], [5e-324, 2.0]]
    denormal[2:, 2:] = a
    denormal = denormal[:d, :d]
    # aqq == app gives tau = +0.0 or -0.0, by the sign of apq; both take t = 1.
    equal_diagonal = a - np.diag(np.diag(a)) + np.eye(d)
    return {
        "random": a, "1e100": a * 1e100, "1e-100": a * 1e-100,
        "zero row": zero_row, "-0.0": neg_zero,
        "diagonal": np.diag(rng.standard_normal(d)), "denormal apq": denormal,
        "equal diagonal": equal_diagonal,
    }


def _same_eigh(x, y) -> bool:
    (wx, vx, sx, cx), (wy, vy, sy, cy) = x, y
    return sx == sy and cx == cy and _same_bits(wx, wy) and _same_bits(vx, vy)


def test_jacobi_backends_bit_identical(cykernels):
    for d in (2, 3, 8, 14, 15, 16, 17, 33, 48, 72):
        for name, a in _jacobi_inputs(d).items():
            got_py = pykernels.jacobi_eigh(a, 1e-12, 100)
            got_c = cykernels.jacobi_eigh(a, 1e-12, 100)
            assert _same_eigh(got_py, got_c), (d, name)


def test_solvers_bit_identical_across_backends(cykernels, monkeypatch):
    # End to end: every kernel call of a solve or fit goes through
    # genspectra.kernels, the Cholesky factor included, so each backend
    # gives the same bits.
    rng = np.random.RandomState(77)
    solves = {}
    for d in (7, 48, 3):
        a = random_sym(rng, d)
        g = rng.standard_normal((d, d))
        spd = Pencil(a, SymMatrix(g @ g.T + d * np.eye(d)))
        rank_deficient = Pencil(a, SymMatrix(g[:, : d - 2] @ g[:, : d - 2].T))
        solves[f"quick d={d} cholesky"] = functools.partial(solve_quick_dirty, spd)
        solves[f"quick d={d} whitening"] = functools.partial(solve_quick_dirty, rank_deficient)
        solves[f"rigorous d={d} whitening"] = lambda p=spd: solve_rigorous(p)[0]
    # an indefinite B takes the congruence by A's Cholesky factor where A is
    # definite, and by a rotated metric cos(t) A + sin(t) B where A is
    # indefinite too
    definite_a = Pencil(spd.b, SymMatrix(np.diag([1.0, -0.5, 2.0])))
    solves["quick d=3 cholesky-a"] = functools.partial(solve_quick_dirty, definite_a)
    for d in (3, 7):
        rotated = Pencil(*(SymMatrix(m) for m in definite_pencil(d)))
        solves[f"quick d={d} cholesky-rotated"] = functools.partial(solve_quick_dirty, rotated)
    g7 = np.random.RandomState(79).standard_normal((7, 7))
    definite_a7 = Pencil(SymMatrix(-(g7 @ g7.T) - 7.0 * np.eye(7)), SymMatrix(np.diag([1.0, -2.0] * 3 + [3.0])))
    solves["quick d=7 cholesky-a"] = functools.partial(solve_quick_dirty, definite_a7)
    labels = tuple(int(v) for v in rng.randint(0, 3, size=40))
    ds = LabeledDataset(Matrix(rng.standard_normal((3, 40))), labels=labels)
    solves["kspca gram"] = functools.partial(kspca_fit, ds, 2)
    # any label kernel takes the c x c route through the factor of K_c
    solves["kspca rbf-label gram"] = functools.partial(kspca_fit, ds, 2, ky=KernelSpec(kind="rbf", gamma=0.7))

    # the full-path fallback: p = c needs eig(A_breve) at n = 40
    solves["kspca fallback cholesky"] = functools.partial(kspca_fit, ds, 3)
    # The c x c route never touches K_x, singular or not; the fallback
    # factors a metric that passes the Cholesky gate and decomposes any
    # other: here a repeated sample makes K_x singular at n = 40.
    fit_rng = np.random.RandomState(78)
    x = fit_rng.standard_normal((3, 40))
    x[:, -1] = x[:, 0]
    repeated = LabeledDataset(Matrix(x), labels=labels)
    solves["kspca repeated gram"] = functools.partial(kspca_fit, repeated, 2)
    solves["kspca fallback whitening"] = functools.partial(kspca_fit, repeated, 3)
    scatter = LabeledDataset(Matrix(fit_rng.standard_normal((6, 40))), labels=labels)
    solves["fda cholesky"] = functools.partial(fda_fit, scatter, 2)
    # a graded B = DHD keeps eig(B) on Jacobi at d = 24
    g = rng.standard_normal((24, 24))
    scale = np.logspace(-2.0, 2.0, 24)
    graded = Pencil(random_sym(rng, 24), SymMatrix(scale[:, None] * (np.eye(24) + g @ g.T / 24) * scale))
    solves["rigorous d=24 graded whitening"] = lambda: solve_rigorous(graded)[0]
    for d in (16, 48):
        solves[f"eig d={d}"] = functools.partial(eig_sym, random_sym(rng, d))

    for name, solve in solves.items():
        results = []
        for backend in (pykernels, cykernels):
            with monkeypatch.context() as patched:
                for kernel in kernels._KERNEL_NAMES:
                    patched.setattr(kernels, kernel, getattr(backend, kernel))
                results.append(solve())
        got_py, got_c = results
        if not name.startswith("eig"):
            assert got_py.strategy == got_c.strategy == name.split()[-1], name
        if name.startswith(("kspca", "fda")):
            phi_py, phi_c = got_py.projection, got_c.projection
        else:
            phi_py, phi_c = got_py.phi, got_c.phi
        assert _same_bits(phi_py.array, phi_c.array), name
        assert _same_bits(got_py.eigenvalues, got_c.eigenvalues), name


# ---------------------------------------------------------------------------
# cholesky_inverse
# ---------------------------------------------------------------------------


def _cholesky_inputs(d):
    """Symmetric test matrices for the Cholesky kernel, by name, and
    whether each has a pivot that is not positive."""
    rng = np.random.RandomState(4000 + d)
    g = rng.standard_normal((d, d))
    spd = g @ g.T + d * np.eye(d)
    spd = (spd + spd.T) / 2.0
    inputs = {f"{s:g}": (spd * s, False) for s in (1e-200, 1.0, 1e200)}
    # a diagonally dominant band, every entry outside it -0.0
    band = np.where(np.abs(np.subtract.outer(np.arange(d), np.arange(d))) <= 1, spd, -0.0)
    band[np.diag_indices(d)] = 4.0 * np.abs(spd).max()
    inputs["-0.0"] = (band, False)
    nan = spd.copy()
    nan[d - 1, 0] = nan[0, d - 1] = np.nan
    inputs["nan"] = (nan, True)
    first = spd.copy()
    first[0, 0] = 0.0
    inputs["pivot 0"] = (first, True)
    last = spd.copy()
    last[d - 1, d - 1] = -1.0  # the last Schur complement is below it
    inputs["pivot d-1"] = (last, True)
    return inputs


def test_cholesky_inverse_backends_bit_identical(cykernels):
    for d in range(1, 73):
        for name, (b, fails) in _cholesky_inputs(d).items():
            got_py = pykernels.cholesky_inverse(b)
            got_c = cykernels.cholesky_inverse(b)
            if fails:
                assert got_py is None and got_c is None, (d, name)
            else:
                assert _same_bits(got_py, got_c), (d, name)


# ---------------------------------------------------------------------------
# tridiag_eigh
# ---------------------------------------------------------------------------


def _tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def _tridiag_inputs(d):
    """Symmetric test matrices for the tridiagonal kernel, by name.

    The hard tridiagonal ones reach the QL and the LDL' unchanged, since
    the Householder step leaves a tridiagonal matrix as it is. At d = 21,
    50 and 84 they are W21+, Clement's matrix at n = 50 and four copies of
    W21+ glued by 1e-14.
    """
    rng = np.random.RandomState(3000 + d)
    a = random_sym(rng, d, scale=3.0).array
    tri = np.diag(rng.standard_normal(d)) + np.diag(rng.standard_normal(d - 1), 1)
    k = np.arange(1.0, d)
    # Wilkinson's W21+ (diagonal 10, 9, ..., 0, ..., 10, unit off-diagonal),
    # whose largest eigenvalues come in pairs that agree to ~1e-14
    w21 = _tridiagonal(np.abs(np.arange(-10.0, 11.0)), np.ones(20))
    glued = np.kron(np.eye(-(-d // 21)), w21)[:d, :d]
    joints = np.arange(21, d, 21)
    glued[joints - 1, joints] = glued[joints, joints - 1] = 1e-14
    # Row d // 2 decoupled: its diagonal entry is an eigenvalue, the shift
    # equals it exactly, and that LDL' pivot is exactly 0.0 until the guard
    # lifts it.
    split = rng.standard_normal(d - 1)
    split[max(d // 2 - 1, 0):d // 2 + 1] = 0.0
    inputs = {
        "random": a,
        "diagonal": np.diag(rng.standard_normal(d)),
        "tridiagonal": tri + np.triu(tri, 1).T,
        "zero": np.zeros((d, d)),
        "wilkinson": _tridiagonal(np.abs(np.arange(d) - (d - 1) / 2.0), np.ones(d - 1)),
        "glued wilkinson": glued,
        "clement": _tridiagonal(np.zeros(d), np.sqrt(k * (d - k))),
        "1-2-1": _tridiagonal(np.full(d, 2.0), np.ones(d - 1)),
        "zero diagonal": _tridiagonal(np.zeros(d), rng.standard_normal(d - 1)),
        "diagonal eigenvalue": _tridiagonal(rng.standard_normal(d), split),
    }
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    for k in (2, 4, max(d // 4, 2)):
        lam = np.repeat(np.arange(1.0, d // k + 2), k)[:d]
        cl = (q * lam) @ q.T
        inputs[f"{k}-fold"] = (cl + cl.T) / 2.0
    return inputs


def test_tridiag_backends_bit_identical(cykernels):
    cases = [(d, name, a) for d in (16, 17, 21, 33, 48, 50, 80, 84) for name, a in _tridiag_inputs(d).items()]
    # 96 zero eigenvalues, on which the QL used to run out of steps
    cases.append((128, "rank 32", low_rank_psd(128, 32, 0)))
    for d, name, a in cases:
        for max_iter in (MAX_SWEEPS, 1):
            got_py = pykernels.tridiag_eigh(a, JACOBI_REL_TOL, max_iter)
            got_c = cykernels.tridiag_eigh(a, JACOBI_REL_TOL, max_iter)
            assert _same_eigh(got_py, got_c), (d, name, max_iter)
            assert got_py[3] == (max_iter == MAX_SWEEPS or name == "zero"), (d, name)


def test_tridiag_converges_on_rank_deficient_matrices(cykernels):
    # Inside a cluster of zero eigenvalues both diagonals of T are
    # ~eps ||T||, so the local deflation test alone asked for a subdiagonal
    # below eps^2 ||T||: 5 of these 30 ran out of QL steps.
    import scipy.linalg

    for d in (128, 200):
        for seed in range(3):
            for r in (1, 2, d // 8, d // 4, d // 2):
                a = low_rank_psd(d, r, seed)
                scale = np.abs(a).max()
                ref = scipy.linalg.eigvalsh(a)
                for backend in (pykernels, cykernels):
                    w, v, _, converged = backend.tridiag_eigh(a / scale, JACOBI_REL_TOL, MAX_SWEEPS)
                    assert converged, (d, seed, r, backend.__name__)
                    assert np.abs(w * scale - ref).max() <= 1e-13 * ref[-1], (d, seed, r)
                    assert np.abs(a @ v - v * (w * scale)).max() <= 1e-12 * ref[-1], (d, seed, r)


def test_tridiag_eigenpairs_are_accurate():
    for d in (2, 3, 16, 17, 21, 24, 33, 48, 50, 64, 80, 84):
        for name, a in _tridiag_inputs(d).items():
            w, v, _, converged = pykernels.tridiag_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS)
            scale = max(np.abs(a).max(), np.finfo(float).tiny)
            assert converged, (d, name)
            assert np.all(np.diff(w) >= 0.0), (d, name)
            assert np.abs(a @ v - v * w).max() <= 1e-13 * scale, (d, name)
            assert np.abs(v.T @ v - np.eye(d)).max() <= 1e-13, (d, name)
            assert np.abs(w - np.linalg.eigvalsh(a)).max() <= 1e-13 * scale, (d, name)


def test_tridiag_clusters_get_orthogonal_vectors():
    # Without Gram-Schmidt within clusters, inverse iteration returned
    # ||Z'Z - I|| = 23 on this input.
    rng = np.random.RandomState(48)
    q = np.linalg.qr(rng.standard_normal((48, 48)))[0]
    a = (q * np.repeat([1.0, 2.0, 3.0, 4.0], 12)) @ q.T
    w, v, _, converged = pykernels.tridiag_eigh((a + a.T) / 2.0, JACOBI_REL_TOL, MAX_SWEEPS)
    assert converged
    assert np.abs(v.T @ v - np.eye(48)).max() <= 1e-13
    assert np.abs(w - np.repeat([1.0, 2.0, 3.0, 4.0], 12)).max() <= 1e-13


def test_tridiag_unconverged_flag_when_steps_exhausted():
    # QL needs more than one step for some eigenvalue of a generic matrix
    a = random_sym(np.random.RandomState(6), 20).array
    w, v, _, converged = pykernels.tridiag_eigh(a, JACOBI_REL_TOL, 1)
    assert not converged and w.shape == (20,) and v.shape == (20, 20)
    assert pykernels.tridiag_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS)[3]
    # A diagonal T needs no QL step, and inverse iteration stops after two
    # steps in a row within tolerance.
    diagonal = np.diag(np.arange(20.0))
    assert pykernels.tridiag_eigh(diagonal, JACOBI_REL_TOL, 1)[2:] == (1, False)
    assert pykernels.tridiag_eigh(diagonal, JACOBI_REL_TOL, 2)[2:] == (2, True)


@pytest.mark.parametrize("d, ql_steps", [(40, 90), (48, 111), (56, 125)])
def test_tridiag_step_counts_on_random_matrices(d, ql_steps):
    # The dimensions of the dense-pencil benchmark: the QL takes these
    # counts, and inverse iteration stops after the two steps its rule
    # allows at the least, so neither stage can slow down unnoticed.
    a = random_sym(np.random.RandomState(5000 + d), d).array
    diag, off, _ = pykernels._householder(a.copy())
    assert pykernels._ql_eigenvalues(diag.tolist(), off.tolist(), MAX_SWEEPS)[1:] == (ql_steps, True)
    assert pykernels.tridiag_eigh(a, JACOBI_REL_TOL, MAX_SWEEPS)[2:] == (ql_steps + 2, True)


def _householder_loops(a):
    """The C twin's Householder reduction on Python floats: p by sums along
    the rows, and the update row[j] - (v_i q_j + q_i v_j)."""
    m = a.tolist()
    d = len(m)
    off = [0.0] * max(d - 1, 0)
    reflectors = []
    for k in range(d - 2):
        s = d - k - 1
        v = [m[k + 1 + i][k] for i in range(s)]
        x0 = v[0]
        t = v[1] * v[1]
        for i in range(2, s):
            t += v[i] * v[i]
        if not t >= pykernels._NEGLIGIBLE:
            off[k] = x0
            continue
        sigma = x0 * x0 + t
        g = -math.sqrt(sigma) if x0 >= 0.0 else math.sqrt(sigma)
        h = sigma - x0 * g
        v[0] = x0 - g
        p = []
        for i in range(s):
            row = m[k + 1 + i]
            acc = row[k + 1] * v[0]
            for j in range(1, s):
                acc += row[k + 1 + j] * v[j]
            p.append(acc / h)
        vp = v[0] * p[0]
        for i in range(1, s):
            vp += v[i] * p[i]
        half = vp / (h + h)
        q = [p[i] - half * v[i] for i in range(s)]
        for i in range(s):
            row = m[k + 1 + i]
            for j in range(s):
                row[k + 1 + j] = row[k + 1 + j] - (v[i] * q[j] + q[i] * v[j])
        off[k] = g
        reflectors.append((k, v, h))
    if d >= 2:
        off[d - 2] = m[d - 1][d - 2]
    return [m[i][i] for i in range(d)], off, reflectors


def _factor_one_shift(dg, e, shift, tiny):
    """The C twin's LDL' of T - shift I on Python floats: pivots, multipliers."""
    n = len(dg)
    piv = [x - shift for x in dg]
    mult = [0.0] * (n - 1)
    for i in range(n):
        if abs(piv[i]) < tiny:
            piv[i] = math.copysign(tiny, piv[i])
        if i + 1 < n:
            mult[i] = e[i] / piv[i]
            piv[i + 1] = piv[i + 1] - mult[i] * e[i]
    return piv, mult


def _solve_one_shift(piv, mult, y):
    """The C twin's solve of (T - shift I) x = y from its LDL', on Python floats."""
    n = len(y)
    y = list(y)
    for i in range(n - 1):
        y[i + 1] = y[i + 1] - mult[i] * y[i]
    y[n - 1] = y[n - 1] / piv[n - 1]
    for i in range(n - 2, -1, -1):
        y[i] = y[i] / piv[i] - mult[i] * y[i + 1]
    return y


def test_start_vectors_are_the_c_hash_at_every_n(monkeypatch):
    # The C twin's start_entry on Python ints. One read-only array serves
    # every n: a smaller n after a larger one reads its leading block, and
    # a larger one makes it again.
    def entry(r, j):
        x = ((r + 1) * 0x9E3779B1 + (j + 1) * 0x85EBCA6B) & 0xFFFFFFFF
        x ^= x >> 16
        x = (x * 0x45D9F3B) & 0xFFFFFFFF
        x ^= x >> 16
        return ((x >> 11) * 2 - ((1 << 21) - 1)) / float(1 << 21)

    monkeypatch.setattr(pykernels, "_STARTS", np.empty((0, 0)))
    for n in (40, 1, 9, 57):
        z = pykernels._start_vectors(n)
        assert not z.flags.writeable
        assert _same_bits(z, [[entry(r, j) for j in range(n)] for r in range(n)]), n
    assert pykernels._STARTS.shape == (57, 57)


@pytest.mark.parametrize("d", [9, 13, 40, 48, 56, 128])
def test_tridiag_steps_match_scalar_loops_bit_for_bit(d):
    # The numpy step loops against the C twin's scalar ones, without a C
    # compiler: the Householder reduction with its u + u' update, and the
    # LDL' of every shift with its solve. d = 128 is the rank-32 input,
    # whose 96 zero eigenvalues leave columns taken as reduced.
    rng = np.random.RandomState(6000 + d)
    a = low_rank_psd(128, 32, 0) if d == 128 else random_sym(rng, d).array
    diag, off, reflectors = pykernels._householder(a.copy())
    want_diag, want_off, want_reflectors = _householder_loops(a)
    assert _same_bits(diag, want_diag) and _same_bits(off, want_off)
    assert [k for k, _, _ in reflectors] == [k for k, _, _ in want_reflectors]
    for (_, v, h), (_, want_v, want_h) in zip(reflectors, want_reflectors):
        assert _same_bits(v, want_v) and _same_bits(h, want_h)
    w, _, converged = pykernels._ql_eigenvalues(diag.tolist(), off.tolist(), MAX_SWEEPS)
    assert converged
    # Every eigenvalue, and the first diagonal entry, whose first pivot is
    # exactly 0.0 until the floor lifts it to tiny.
    shifts = np.array(sorted(w) + [diag[0]])
    tiny = pykernels._EPS * float(np.abs(diag).max())
    piv, mults = pykernels._factor_shifted(diag, off, shifts, tiny)
    z = rng.standard_normal((d, shifts.size))
    y = z.copy()
    pykernels._solve_shifted((piv, mults), y)
    mults = np.array(mults)
    for j, shift in enumerate(shifts.tolist()):
        want_piv, want_mult = _factor_one_shift(diag.tolist(), off.tolist(), shift, tiny)
        assert _same_bits(piv[:, j], want_piv) and _same_bits(mults[:, j], want_mult), j
        assert _same_bits(y[:, j], _solve_one_shift(want_piv, want_mult, z[:, j].tolist())), j
    assert piv[0, -1] == tiny


@pytest.mark.parametrize("d", list(range(2, 13)) + [19, 20, 21, 33, 48, 64])
def test_jacobi_convergence_claim_holds(d):
    # When the kernel reports convergence, the off-diagonal norm of V'AV,
    # recomputed in numpy, is below rel_tol * ||A||_F up to a roundoff slack
    # of d * eps * ||A||_F.
    rng = np.random.RandomState(2000 + d)
    a = random_sym(rng, d).array
    norm_a = np.linalg.norm(a)
    for rel_tol, max_sweeps in [(1e-4, 100), (1e-8, 100), (JACOBI_REL_TOL, 100), (JACOBI_REL_TOL, 2)]:
        w, v, sweeps, converged = pykernels.jacobi_eigh(a, rel_tol, max_sweeps)
        if not converged:
            assert sweeps == max_sweeps
            continue
        b = v.T @ a @ v
        off = np.linalg.norm(b - np.diag(np.diag(b)))
        assert off <= rel_tol * norm_a + d * np.finfo(float).eps * norm_a, (rel_tol, off)
        if rel_tol == JACOBI_REL_TOL:
            lam = np.linalg.eigvalsh(a)
            assert np.abs(np.sort(w) - lam).max() <= 1e-13 * np.abs(lam).max()


def test_compiled_source_compiles_clean_under_wall():
    # setup.py's flags plus -Wall -Werror: a work array or variable left
    # unused in the C twins fails here.
    cc = c_compiler()
    setup = ast.parse((REPO_ROOT / "setup.py").read_text())
    flags = next(
        ast.literal_eval(node.value) for node in ast.walk(setup)
        if isinstance(node, ast.keyword) and node.arg == "extra_compile_args"
    )
    build = subprocess.run(
        [cc, *flags, "-Wall", "-Werror", "-fsyntax-only", "-I", sysconfig.get_paths()["include"],
         str(REPO_ROOT / "src/genspectra/kernels/_cykernels.c")],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr


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
    for name in kernels._KERNEL_NAMES:
        assert getattr(kernels, name) is getattr(mod, name)
