"""Symmetric eigendecomposition: Jacobi path, closed-form roots, null spaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genspectra import (
    ConvergenceFailure,
    EigenvalueOverflow,
    NonFiniteEntry,
    NoNullSpace,
    SymMatrix,
    UnsupportedDimension,
    Vector,
    char_poly_eig,
    eig_sym,
    eigvec_for,
    frobenius_norm,
    identity,
    spectral_reconstruct,
)

from genspectra import eigen, kernels
from genspectra.kernels import pykernels

from conftest import POW2_EXPS, SCALES, kernel_calls, random_spd, random_sym, ungraded_kernel


# ---------------------------------------------------------------------------
# eig_sym: worked examples
# ---------------------------------------------------------------------------


def test_eig_identity():
    dec = eig_sym(identity(2))
    assert dec.eigenvalues == (1.0, 1.0)
    assert np.array_equal(dec.phi.array, np.eye(2))


def test_eig_diagonal_orders_descending():
    dec = eig_sym(SymMatrix([[3.0, 0.0], [0.0, 1.0]]))
    assert dec.eigenvalues == (3.0, 1.0)
    assert np.allclose(np.abs(dec.phi.array), np.eye(2), atol=0)


def test_eig_two_by_two_worked_example():
    # [[2,1],[1,2]]: eigenvalues 3 and 1 with eigenvectors (1,1)/sqrt2, (1,-1)/sqrt2
    dec = eig_sym(SymMatrix([[2.0, 1.0], [1.0, 2.0]]))
    assert dec.eigenvalues[0] == pytest.approx(3.0, abs=1e-12)
    assert dec.eigenvalues[1] == pytest.approx(1.0, abs=1e-12)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(dec.phi.array[:, 0], [s, s], atol=1e-12)
    assert np.allclose(np.abs(dec.phi.array[:, 1]), [s, s], atol=1e-12)


def test_eig_ascending_order():
    dec = eig_sym(SymMatrix([[3.0, 0.0], [0.0, 1.0]]), order="ascending")
    assert dec.eigenvalues == (1.0, 3.0)
    assert dec.order == "ascending"


def test_eig_rejects_unknown_order():
    with pytest.raises(ValueError):
        eig_sym(identity(2), order="sideways")


# ---------------------------------------------------------------------------
# eig_sym: invariants
# ---------------------------------------------------------------------------


def test_eig_invariants_on_random_matrices():
    rng = np.random.RandomState(21)
    for d in (2, 3, 5, 8, 12):
        a = random_sym(rng, d, scale=2.0)
        dec = eig_sym(a)
        phi = dec.phi.array
        lam = np.asarray(dec.eigenvalues)
        # unit columns
        assert np.allclose(np.sum(phi * phi, axis=0), 1.0, atol=1e-10)
        # orthonormality
        assert np.abs(phi.T @ phi - np.eye(d)).max() < 1e-8
        # diagonalization residual
        resid = np.abs(a.array @ phi - phi * lam).max()
        assert resid <= 1e-10 * max(1.0, np.abs(a.array).max()) * d
        # descending order
        assert all(lam[i] >= lam[i + 1] for i in range(d - 1))


def test_eig_trace_preserved():
    rng = np.random.RandomState(22)
    for d in (2, 4, 9):
        a = random_sym(rng, d)
        dec = eig_sym(a)
        tr = float(np.trace(a.array))
        assert abs(sum(dec.eigenvalues) - tr) <= 1e-9 * max(1.0, abs(tr))


def test_eig_gram_matrix_is_nonnegative():
    rng = np.random.RandomState(23)
    x = rng.standard_normal((5, 9))
    dec = eig_sym(SymMatrix(x @ x.T))
    assert min(dec.eigenvalues) >= -1e-9


def test_eig_sign_convention_is_deterministic():
    rng = np.random.RandomState(24)
    a = random_sym(rng, 6)
    d1 = eig_sym(a)
    d2 = eig_sym(a)
    assert np.array_equal(d1.phi.array, d2.phi.array)
    # largest-magnitude entry of every column is positive
    for j in range(6):
        col = d1.phi.array[:, j]
        assert col[int(np.argmax(np.abs(col)))] > 0.0


def test_eig_convergence_failure_when_sweeps_exhausted(monkeypatch):
    monkeypatch.setattr(eigen, "MAX_SWEEPS", 1)
    rng = np.random.RandomState(25)
    for d in (7, 20):  # Jacobi, then the tridiagonal kernel
        a = random_sym(rng, d)
        with pytest.raises(ConvergenceFailure):
            eig_sym(a)


def test_eig_invariants_through_the_tridiagonal_kernel():
    # d >= 9 takes the tridiagonal kernel (criterion 1 covers d <= 12)
    rng = np.random.RandomState(29)
    for d in (16, 17, 24, 33, 48, 64, 80):
        a = random_sym(rng, d, scale=2.0)
        dec = eig_sym(a)
        phi = dec.phi.array
        lam = np.asarray(dec.eigenvalues)
        scale = np.abs(a.array).max()
        assert np.abs(phi.T @ phi - np.eye(d)).max() <= 1e-13, d
        assert np.abs(spectral_reconstruct(dec).array - a.array).max() <= 1e-13 * scale, d
        assert np.abs(lam - np.linalg.eigvalsh(a.array)[::-1]).max() <= 1e-13 * scale, d
        assert all(lam[i] >= lam[i + 1] for i in range(d - 1))
        for j in range(d):
            assert phi[int(np.argmax(np.abs(phi[:, j]))), j] > 0.0


def test_eig_tridiagonal_kernel_on_repeated_eigenvalues():
    # four 12-fold eigenvalues at d = 48
    rng = np.random.RandomState(30)
    q = np.linalg.qr(rng.standard_normal((48, 48)))[0]
    dec = eig_sym(SymMatrix((q * np.repeat([4.0, 3.0, 2.0, 1.0], 12)) @ q.T))
    phi = dec.phi.array
    assert np.abs(phi.T @ phi - np.eye(48)).max() <= 1e-13
    assert np.abs(np.array(dec.eigenvalues) - np.repeat([4.0, 3.0, 2.0, 1.0], 12)).max() <= 1e-13


def _metric_with_diagonal(rng, diag) -> SymMatrix:
    """A symmetric matrix with the given diagonal and small off-diagonal entries."""
    d = len(diag)
    g = rng.standard_normal((d, d))
    off = 0.1 * (g + g.T) / d
    np.fill_diagonal(off, diag)
    return SymMatrix(off)


def test_metric_grading_rule_picks_the_kernel_at_every_scale(eigen_inputs):
    # a metric takes the tridiagonal kernel from _TRIDIAG_MIN_DIM up unless
    # its diagonal is graded: a zero or negative entry, or a ratio above r
    r = eigen._GRADED_RATIO
    rng = np.random.RandomState(31)
    base = np.linspace(1.0, r, 24)
    cases = {"ratio r": (base, "tridiag_eigh")}
    for name, i, value in (
        ("ratio just above r", -1, np.nextafter(r, np.inf)),
        ("zero entry", 5, 0.0),
        ("-0.0 entry", 5, -0.0),
        ("negative entry", 5, -1.0),
    ):
        diag = base.copy()
        diag[i] = value
        cases[name] = (diag, "jacobi_eigh")
    cases["ratio r just below the tridiagonal dimension"] = (base[:eigen._TRIDIAG_MIN_DIM - 1], "jacobi_eigh")
    for name, (diag, kernel) in cases.items():
        b = _metric_with_diagonal(rng, diag)
        ref = eig_sym(b, _metric=True).eigenvalues
        for k in range(-20, 21):
            eigen_inputs.clear()
            got = eig_sym(SymMatrix(b.array * 4.0**k), _metric=True).eigenvalues
            assert kernel_calls(eigen_inputs) == [(kernel, len(diag))], (name, k)
            assert got == tuple(x * 4.0**k for x in ref), (name, k)
        # the same matrix, not marked as a metric, follows the dimension alone
        eigen_inputs.clear()
        eig_sym(b)
        assert kernel_calls(eigen_inputs) == [(ungraded_kernel(len(diag)), len(diag))], name


@pytest.mark.parametrize("d", [16, 24, 40])
def test_ungraded_metric_keeps_lambda_min_within_its_condition(d, eigen_inputs):
    # B = Q diag(lambda) Q' with lambda_min = 1e-4 and the rest over
    # 0.1 .. 1: kappa(B) = 1e4, and a random Q leaves the diagonal within the
    # grading ratio. The tridiagonal kernel's relative error on lambda_min is
    # then at most d * u * kappa(B), u the unit roundoff.
    rng = np.random.RandomState(32 + d)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    lam = np.concatenate([[1e-4, 1e-3, 1e-2], np.linspace(0.1, 1.0, d - 3)])
    b = (q * lam) @ q.T
    b = SymMatrix((b + b.T) / 2.0)
    diag = np.diagonal(b.array)
    assert 0.0 < diag.min() and diag.max() <= eigen._GRADED_RATIO * diag.min()
    got = min(eig_sym(b, _metric=True).eigenvalues)
    assert kernel_calls(eigen_inputs) == [("tridiag_eigh", d)]
    ref = np.linalg.eigvalsh(b.array)
    kappa = ref[-1] / ref[0]
    assert abs(got - ref[0]) <= d * (np.finfo(float).eps / 2.0) * kappa * ref[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eig_rejects_non_finite_entries(bad):
    for d in (3, 20):
        a = np.eye(d)
        a[0, 1] = a[1, 0] = bad
        with pytest.raises(NonFiniteEntry):
            eig_sym(a)


def _scale_cases() -> dict:
    """Unit-scale inputs of eig_sym by name: Jacobi at d = 3 and 8, the
    tridiagonal kernel at d = 12, 20 and 33, and a graded metric on Jacobi at
    d = 20."""
    rng = np.random.RandomState(19)
    cases = {f"d={d}": random_sym(rng, d, scale=3.0) for d in (3, 12, 20, 33)}
    g = rng.standard_normal((20, 20))
    scale = np.logspace(-2.0, 2.0, 20)
    cases["graded metric"] = SymMatrix(scale[:, None] * (np.eye(20) + g @ g.T / 20) * scale)
    # d = 8 is drawn after d = 3 on a stream of its own, so the cases above
    # keep their matrices; Jacobi leaves it a residual of 1.24e-13 max|A|
    rng = np.random.RandomState(19)
    random_sym(rng, 3, scale=3.0)
    cases["d=8"] = random_sym(rng, 8, scale=3.0)
    return cases


def _eig_sym_at_scales() -> dict:
    """eig_sym of each case in units 2^k, k in POW2_EXPS, and 1e+-200, by (name, unit)."""
    got = {}
    for name, a in _scale_cases().items():
        for s in [2.0**k for k in POW2_EXPS] + [1e200, 1e-200]:
            b = SymMatrix(a.array * s)
            got[name, s] = eig_sym(b, _metric=name == "graded metric")
    return got


def test_eigenvalue_above_the_float_range_is_located():
    # 2 * 1.7e308 = 0.94 * 2^1025: np.ldexp overflowed to inf with a
    # RuntimeWarning, and the CLI exited 0 with Infinity and a NaN residual
    a = SymMatrix([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
    with pytest.raises(EigenvalueOverflow, match=r"2\^1025"):
        eig_sym(a)
    with pytest.raises(EigenvalueOverflow, match=r"2\^1025"):
        char_poly_eig(a)
    # the largest eigenvalue in range, 1.7e308 * 1.0
    assert eig_sym(SymMatrix([[1.7e308, 0.0], [0.0, -1.0]])).eigenvalues == (1.7e308, -1.0)


def test_eig_sym_scales_by_powers_of_two_exactly(eigen_inputs):
    # Before eig_sym scaled its input, Jacobi returned the diagonal at 2^515
    # and 2^-540, where the squares of its convergence test overflow or
    # underflow.
    got = _eig_sym_at_scales()
    assert set(kernel_calls(eigen_inputs)) == {
        ("jacobi_eigh", 3), ("jacobi_eigh", 8), ("jacobi_eigh", 20),
        ("tridiag_eigh", 12), ("tridiag_eigh", 20), ("tridiag_eigh", 33),
    }
    for name, a in _scale_cases().items():
        unit = got[name, 1.0]
        for k in POW2_EXPS:
            dec = got[name, 2.0**k]
            assert dec.eigenvalues == tuple(2.0**k * x for x in unit.eigenvalues), (name, k)
            assert np.array_equal(dec.phi.array, unit.phi.array), (name, k)
        for s in (1e200, 1e-200):
            a_s, dec = a.array * s, got[name, s]
            w, v = np.array(dec.eigenvalues), dec.phi.array
            top = np.abs(a_s).max()
            # Jacobi stops at an off-diagonal norm of JACOBI_REL_TOL ||A||_F,
            # which bounds ||A V - V W||_F, and ||A||_F <= d max|A|
            assert np.abs(a_s @ v - v * w).max() <= eigen.JACOBI_REL_TOL * len(w) * top, (name, s)
            assert np.abs(v.T @ v - np.eye(len(w))).max() <= 1e-13, (name, s)
            assert np.abs(np.sort(w) - np.linalg.eigvalsh(a_s)).max() <= 1e-13 * top, (name, s)


def test_eig_sym_scales_bit_identical_across_backends(cykernels, monkeypatch):
    results = []
    for backend in (pykernels, cykernels):
        with monkeypatch.context() as patched:
            for kernel in ("jacobi_eigh", "tridiag_eigh"):
                patched.setattr(kernels, kernel, getattr(backend, kernel))
            results.append(_eig_sym_at_scales())
    got_py, got_c = results
    for key, dec in got_py.items():
        assert np.array(dec.eigenvalues).tobytes() == np.array(got_c[key].eigenvalues).tobytes(), key
        assert dec.phi.array.tobytes() == got_c[key].phi.array.tobytes(), key


def test_spectral_reconstruct_roundtrip():
    rng = np.random.RandomState(26)
    for d in (2, 5, 10):
        a = random_sym(rng, d)
        rec = spectral_reconstruct(eig_sym(a))
        scale = max(1.0, frobenius_norm(a))
        assert np.abs(rec.array - a.array).max() <= 1e-9 * scale


def test_spectral_reconstruct_identity():
    rec = spectral_reconstruct(eig_sym(identity(3)))
    assert np.allclose(rec.array, np.eye(3), atol=1e-14)


# ---------------------------------------------------------------------------
# characteristic-polynomial route
# ---------------------------------------------------------------------------


def test_char_poly_tiny_cases():
    assert char_poly_eig(SymMatrix([[0.0]])) == [0.0]
    assert char_poly_eig(SymMatrix([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx([3.0, 1.0])


def test_char_poly_repeated_roots():
    got = char_poly_eig(SymMatrix(np.diag([5.0, 2.0, 2.0])))
    assert got == pytest.approx([5.0, 2.0, 2.0], abs=1e-12)


def test_char_poly_agrees_with_jacobi():
    rng = np.random.RandomState(27)
    for d in (2, 3, 4):
        for _ in range(10):
            a = random_sym(rng, d, scale=3.0)
            roots = char_poly_eig(a)
            lam = eig_sym(a).eigenvalues
            scale = max(1.0, max(abs(x) for x in lam))
            assert max(abs(r - l) for r, l in zip(roots, lam)) <= 1e-7 * scale


def test_char_poly_d4_with_multiplicity():
    a = SymMatrix(np.diag([7.0, 7.0, 1.0, 0.0]))
    got = char_poly_eig(a)
    assert got == pytest.approx([7.0, 7.0, 1.0, 0.0], abs=1e-9)


def test_char_poly_d4_rotated_double_root():
    # The Sturm count is monotone, so the double root is one bracket with a
    # rise of 2.
    for seed in range(200):
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))[0]
        got = char_poly_eig(SymMatrix((q * [2.0, 2.0, 5.0, 7.0]) @ q.T))
        assert len(got) == 4, seed
        assert max(abs(x - y) for x, y in zip(got, [7.0, 5.0, 2.0, 2.0])) <= 1e-10, seed


def test_char_poly_d4_repeated_root_costs_one_bisection(monkeypatch):
    count_below = eigen._count_below
    calls = []

    def counting(*args):
        calls.append(args[2])
        return count_below(*args)

    monkeypatch.setattr(eigen, "_count_below", counting)
    assert char_poly_eig(SymMatrix(2.0 * np.eye(4))) == pytest.approx([2.0] * 4, abs=1e-12)
    # one path: 2 end counts and ~48 halvings from ±||A||_F to 1e-14 relative
    assert len(calls) <= 60


def _clustered(rng, d: int, scale: float = 1.0) -> SymMatrix:
    """Q diag(w) Q' with w = scale * (1 + c * N(0, 1)), c drawn per entry from
    (0, 1e-9, 1e-6, 1e-3): eigenvalues equal or within c of each other."""
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    w = scale * (1.0 + rng.choice([0.0, 1e-9, 1e-6, 1e-3], d) * rng.standard_normal(d))
    return SymMatrix((q * w) @ q.T)


def test_char_poly_clustered_spectra():
    # Near such clusters a count on the dense A - x I used to be undefined
    # at an end of a bracket (an exactly zero leading minor), and wavered
    # over ~3e-9, which left d = 4 roots with errors up to 4e-6.
    import scipy.linalg

    for d in (3, 4):
        rng = np.random.RandomState(11)
        for i in range(1500):
            a = _clustered(rng, d)
            got = char_poly_eig(a)
            lam = scipy.linalg.eigvalsh(a.array)[::-1]
            assert len(got) == d, (d, i)
            assert np.abs(got - lam).max() <= 1e-12 * np.abs(lam).max(), (d, i)


@pytest.mark.parametrize(
    "diag", [(0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0), (2, 2, 2, 2), (7, 7, 1, 0)]
)
def test_char_poly_d4_exact_zero_pivots(diag):
    # The bisection lands exactly on eigenvalues of these, where pivots of
    # A - x I are exactly 0.0.
    got = char_poly_eig(SymMatrix(np.diag(np.array(diag, dtype=np.float64))))
    assert got == pytest.approx(sorted(diag, reverse=True), abs=1e-12 * max(diag))


def test_inertia_count_is_defined_on_exact_zero_pivots():
    # An exact 0.0 pivot counts as negative: the count just above x.
    diag, off = [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0]
    assert [eigen._count_below(diag, off, x) for x in (-1e-300, 0.0, 0.25, 0.5)] == [0, 2, 2, 4]
    # eigenvalues -0.5, 0, 0, 0.5; at x = 0 the first pivot is 0.0
    diag, off = [0.0] * 4, [0.5, 0.0, 0.0]
    assert [eigen._count_below(diag, off, x) for x in (-0.5, 0.0, 0.5)] == [1, 3, 4]


def test_char_poly_shares_no_kernel_with_eig_sym(monkeypatch):
    # eig_sym runs jacobi_eigh at these d; the oracle that checks it must
    # not reach that kernel, the tridiagonal one or the matrix product.
    def unavailable(*args):
        raise AssertionError("char_poly_eig called a kernel")

    for name in ("jacobi_eigh", "tridiag_eigh", "matmul"):
        monkeypatch.setattr(kernels, name, unavailable)
    for d, lam in [(2, [3.0, 1.0]), (3, [5.0, 2.0, -1.0]), (4, [7.0, 5.0, 2.0, 2.0])]:
        q = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0]
        got = char_poly_eig(SymMatrix((q * lam) @ q.T))
        assert np.abs(np.array(got) - lam).max() <= 1e-12 * lam[0], d


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_char_poly_scales_by_powers_of_two_exactly(d):
    a = random_sym(np.random.RandomState(190 + d), d)
    unit = char_poly_eig(a)
    assert np.abs(np.array(unit) - eig_sym(a).eigenvalues).max() <= 1e-12
    for k in POW2_EXPS:
        assert char_poly_eig(SymMatrix(a.array * 2.0**k)) == [2.0**k * x for x in unit], k


def test_char_poly_near_the_ends_of_the_float_range():
    # ||A||_F at or above 2^1023, and entries below the normal range: there
    # the scale factors 2^e and 2^-e themselves are not finite floats
    assert char_poly_eig(SymMatrix([[8e307]])) == [8e307]
    assert char_poly_eig(SymMatrix([[5e-324]])) == [5e-324]
    got = char_poly_eig(SymMatrix([[8e307, 0.0], [0.0, -8.5e307]]))
    assert got == pytest.approx([8e307, -8.5e307], rel=1e-15)
    assert char_poly_eig(SymMatrix(8e307 * np.eye(4))) == pytest.approx([8e307] * 4, rel=1e-12)


def test_char_poly_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        char_poly_eig(SymMatrix(np.eye(5)))


# ---------------------------------------------------------------------------
# eigvec_for
# ---------------------------------------------------------------------------


def test_eigvec_for_diagonal():
    v = eigvec_for(SymMatrix([[3.0, 0.0], [0.0, 1.0]]), 3.0)
    assert np.allclose(np.abs(v.array), [1.0, 0.0], atol=1e-12)


def test_eigvec_for_degenerate_eigenvalue_picks_first_basis_vector():
    v = eigvec_for(identity(2), 1.0)
    assert np.allclose(v.array, [1.0, 0.0], atol=0)


def test_eigvec_for_worked_example():
    v = eigvec_for(SymMatrix([[2.0, 1.0], [1.0, 2.0]]), 3.0)
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(v.array), [s, s], atol=1e-9)
    assert isinstance(v, Vector)


def test_eigvec_for_residual_on_random_matrix():
    rng = np.random.RandomState(28)
    a = random_sym(rng, 5)
    lam = eig_sym(a).eigenvalues[0]
    v = eigvec_for(a, lam)
    resid = np.linalg.norm(a.array @ v.array - lam * v.array)
    assert resid <= 1e-6 * max(1.0, frobenius_norm(a))
    assert v.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("k", range(3))
def test_eigvec_for_is_the_same_at_every_scale(k):
    a = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    lam = eig_sym(SymMatrix(a)).eigenvalues[k]
    unit = eigvec_for(SymMatrix(a), lam).array
    assert np.linalg.norm(a @ unit - lam * unit) <= 1e-12
    for s in SCALES + [1e-9]:
        v = eigvec_for(SymMatrix(s * a), s * lam).array
        assert min(np.linalg.norm(v - unit), np.linalg.norm(v + unit)) <= 1e-9, s


def test_eigvec_for_rejects_non_eigenvalue():
    with pytest.raises(NoNullSpace):
        eigvec_for(SymMatrix([[3.0, 0.0], [0.0, 1.0]]), 100.0)
    # 1.05 is within lam_tol of the eigenvalue 1, but its null-space
    # candidate e_1 misses by (1 - 1.05) e_1
    with pytest.raises(NoNullSpace, match="has residual 5.000e-02"):
        eigvec_for(SymMatrix([[1.0, 0.0], [0.0, 2.0]]), 1.05, lam_tol=0.1)
    # an infinite shift makes the residual NaN, which no bound accepts
    for lam in (math.inf, -math.inf):
        with pytest.raises(NoNullSpace, match="has residual nan"):
            eigvec_for(SymMatrix([[2.0, 1.0], [1.0, 3.0]]), lam)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 6))
def test_eig_reconstruction_property(seed, d):
    rng = np.random.RandomState(seed)
    a = random_sym(rng, d)
    dec = eig_sym(a)
    rec = spectral_reconstruct(dec)
    scale = max(1.0, np.abs(a.array).max())
    assert np.abs(rec.array - a.array).max() <= 1e-9 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 4), st.booleans())
def test_char_poly_matches_jacobi_property(seed, d, clustered):
    rng = np.random.RandomState(seed)
    a, tol = (_clustered(rng, d, 5.0), 1e-12) if clustered else (random_sym(rng, d, scale=5.0), 1e-7)
    roots = char_poly_eig(a)
    lam = eig_sym(a).eigenvalues
    scale = max(1.0, max(abs(x) for x in lam))
    assert max(abs(r - l) for r, l in zip(roots, lam)) <= tol * scale
