"""Dense matrix container and primitive operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genspectra import (
    DimensionMismatch,
    Matrix,
    NonFiniteEntry,
    NotSymmetric,
    SymMatrix,
    Vector,
    centering_matrix,
    determinant,
    eig_sym,
    frobenius_norm,
    identity,
    matmul,
    trace,
    transpose,
)
from genspectra.linalg import definiteness, dot

from conftest import POW2_EXPS, SCALES, random_sym


# ---------------------------------------------------------------------------
# containers and validation
# ---------------------------------------------------------------------------


def test_matrix_basic_accessors():
    m = Matrix([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert m.shape == (3, 2)
    assert m.rows == 3 and m.cols == 2
    assert m[2, 1] == 6.0
    assert np.allclose(m.col(1).array, [2.0, 4.0, 6.0])
    assert np.allclose(m.T.array, [[1, 3, 5], [2, 4, 6]])


def test_matrix_array_is_read_only():
    m = Matrix([[1.0]])
    with pytest.raises(ValueError):
        m.array[0, 0] = 2.0


def test_matrix_rejects_ragged_and_non_2d():
    with pytest.raises(DimensionMismatch):
        Matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(DimensionMismatch):
        Matrix([1.0, 2.0])


def test_matrix_rejects_non_finite():
    with pytest.raises(NonFiniteEntry):
        Matrix([[1.0, float("nan")]])
    with pytest.raises(NonFiniteEntry):
        Matrix([[float("inf")]])


def test_sym_matrix_symmetrizes_small_asymmetry():
    s = SymMatrix([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
    assert s.array[0, 1] == s.array[1, 0]
    assert s.dim == 2
    # -0.0 and +0.0 compare equal but differ in their bits: the pair is
    # symmetrized, (-0.0 + 0.0) / 2 = +0.0 on both sides
    s = SymMatrix([[1.0, -0.0], [0.0, 1.0]])
    assert not np.signbit(s.array).any()
    assert not np.signbit(SymMatrix([[1.0, 0.0], [-0.0, 1.0]]).array).any()
    # an exactly symmetric -0.0 pair is stored as it is
    signs = np.signbit(SymMatrix([[1.0, -0.0], [-0.0, 1.0]]).array)
    assert signs.tolist() == [[False, True], [True, False]]


def test_sym_matrix_stores_a_read_only_copy():
    for entries in (np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[2.0, 1.0 + 1e-12], [1.0, 3.0]])):
        s = SymMatrix(entries)
        assert not np.shares_memory(s.array, entries)
        assert not s.array.flags.writeable
        with pytest.raises(ValueError):
            s.array[0, 0] = 5.0
        entries[0, 0] = 7.0
        assert s.array[0, 0] == 2.0


def test_sym_matrix_symmetrizes_without_overflow():
    # (a + a') / 2 overflowed for entries above ~9e307
    entries = [[1.0, 1e308], [1e308, 1.0]]
    assert SymMatrix(entries).array.tolist() == entries
    assert SymMatrix([[5e-324]]).array.tolist() == [[5e-324]]
    # bit-symmetric entries above 2^1023, beside subnormal and -0.0 ones,
    # are stored with their bits
    huge = np.array([[1.7e308, -1.2e308, 5e-324], [-1.2e308, -0.0, 1.0], [5e-324, 1.0, 2.0**1023]])
    assert np.array_equal(SymMatrix(huge).array.view(np.int64), huge.view(np.int64))
    # where the sum is finite, the bits of (a + a') / 2
    arr = np.array([[1.7e308, 1e308, 3.0], [1e308 * (1 + 2e-16), -1.7e308, 1.0], [3.0 + 1e-15, 1.0, 2.0]])
    expect = (arr / 4.0 + arr.T / 4.0) * 2.0  # no sum of halves overflows
    expect[2, 0] = expect[0, 2] = (arr[2, 0] + arr[0, 2]) / 2.0
    expect[2, 1] = expect[1, 2] = (arr[2, 1] + arr[1, 2]) / 2.0
    assert np.array_equal(SymMatrix(arr).array, expect)


def test_sym_matrix_rejects_gross_asymmetry_and_non_square():
    with pytest.raises(NotSymmetric):
        SymMatrix([[1.0, 2.0], [5.0, 3.0]])
    with pytest.raises(NotSymmetric):
        SymMatrix([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]])


def test_sym_matrix_asymmetry_is_relative_to_the_largest_entry():
    # a floor of 1 on the scale accepted any asymmetry below 1e-9
    with pytest.raises(NotSymmetric):
        SymMatrix([[0.0, 1e-12], [0.0, 0.0]])
    # arr - arr.T overflowed to inf here, with a RuntimeWarning
    with pytest.raises(NotSymmetric):
        SymMatrix([[0.0, 1.7e308], [-1.7e308, 0.0]])


SYMMETRY_VERDICTS = {
    "exact": ([[1.0, 2.0], [2.0, 3.0]], True),
    "roundoff": ([[1.0, 2.0 + 1e-12], [2.0, 3.0]], True),
    "below tol": ([[1.0, 1.0 + 5e-10], [1.0, 1.0]], True),
    "above tol": ([[1.0, 1.0 + 2e-9], [1.0, 1.0]], False),
    "tiny entries": ([[0.0, 1e-12], [0.0, 0.0]], False),
    "gross": ([[1.0, 2.0], [5.0, 3.0]], False),
    "zero": ([[0.0, 0.0], [0.0, 0.0]], True),
}


@pytest.mark.parametrize("name", sorted(SYMMETRY_VERDICTS))
def test_sym_matrix_verdict_is_the_same_at_every_power_of_two(name):
    entries, symmetric = SYMMETRY_VERDICTS[name]
    for k in POW2_EXPS:
        m = np.array(entries) * 2.0**k
        if symmetric:
            assert SymMatrix(m).array[0, 1] == SymMatrix(m).array[1, 0], k
        else:
            with pytest.raises(NotSymmetric):
                SymMatrix(m)


def test_vector_norm_and_validation():
    v = Vector([3.0, 4.0])
    assert v.norm() == 5.0
    assert v.dim == 2
    with pytest.raises(DimensionMismatch):
        Vector([[1.0, 2.0]])
    with pytest.raises(NonFiniteEntry):
        Vector([float("nan")])
    with pytest.raises(DimensionMismatch):
        Vector([])


def test_vector_norm_neither_overflows_nor_underflows():
    # sqrt(v . v) read inf (with a RuntimeWarning) at 1e200 and 0.0 at 1e-200.
    assert Vector([3e200, 4e200]).norm() == pytest.approx(5e200, rel=1e-15)
    assert Vector([3e-200, 4e-200]).norm() == pytest.approx(5e-200, rel=1e-15)
    assert Vector([3.0 * 2.0**1000, 4.0 * 2.0**1000]).norm() == 5.0 * 2.0**1000
    assert Vector([0.0, -0.0]).norm() == 0.0


# ---------------------------------------------------------------------------
# matmul / transpose / trace
# ---------------------------------------------------------------------------


def test_matmul_identity_returns_operand():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(identity(2), m).array, m.array)


def test_matmul_worked_example():
    # [[1,2],[3,4]] x [[0],[1]] = [[2],[4]]
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    b = Matrix([[0.0], [1.0]])
    assert np.array_equal(matmul(a, b).array, [[2.0], [4.0]])


def test_matmul_random_vs_naive_triple_loop():
    rng = np.random.RandomState(42)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    expect = [[sum(a[i, k] * b[k, j] for k in range(4)) for j in range(2)] for i in range(3)]
    got = matmul(Matrix(a), Matrix(b)).array
    assert np.allclose(got, expect, atol=1e-13)


def test_matmul_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        matmul(Matrix([[1.0, 2.0]]), Matrix([[1.0, 2.0]]))


def test_matmul_associativity():
    rng = np.random.RandomState(0)
    a, b, c = (Matrix(rng.standard_normal((4, 4))) for _ in range(3))
    left = matmul(matmul(a, b), c).array
    right = matmul(a, matmul(b, c)).array
    scale = max(1.0, np.abs(left).max())
    assert np.abs(left - right).max() / scale < 1e-10


def test_transpose_and_trace():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(transpose(m).array, [[1.0, 3.0], [2.0, 4.0]])
    assert trace(m) == 5.0
    with pytest.raises(DimensionMismatch):
        trace(Matrix([[1.0, 2.0]]))


def test_dot():
    assert dot(Vector([1.0, 2.0]), Vector([3.0, 4.0])) == 11.0
    with pytest.raises(DimensionMismatch):
        dot(Vector([1.0]), Vector([1.0, 2.0]))


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def test_determinant_identity_and_diagonal():
    for d in (1, 2, 3, 4, 5):
        assert determinant(identity(d)) == pytest.approx(1.0, rel=1e-12)
    assert determinant(Matrix([[2.0, 0.0], [0.0, 3.0]])) == pytest.approx(6.0)


def test_determinant_matches_eigenvalue_product():
    rng = np.random.RandomState(2)
    for d in (1, 2, 3, 4, 5, 7):
        s = random_sym(rng, d)
        det = determinant(s)
        prod = 1.0
        for lam in eig_sym(s).eigenvalues:
            prod *= lam
        assert abs(det - prod) <= 1e-8 * max(1.0, abs(prod))


def test_determinant_requires_square():
    with pytest.raises(DimensionMismatch):
        determinant(Matrix([[1.0, 2.0]]))


def test_determinant_of_singular_matrix_is_exactly_zero():
    # elimination leaves a pivot of exactly 0.0
    assert determinant(Matrix([[1.0, 2.0], [2.0, 4.0]])) == 0.0


# ---------------------------------------------------------------------------
# centering matrix
# ---------------------------------------------------------------------------


def test_centering_small_cases():
    assert np.array_equal(centering_matrix(1).array, [[0.0]])
    with pytest.raises(DimensionMismatch):
        centering_matrix(0)
    with pytest.raises(DimensionMismatch):
        identity(0)
    assert np.allclose(
        centering_matrix(2).array, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15
    )


def test_centering_idempotent_and_annihilates_ones():
    h = centering_matrix(5)
    assert np.allclose(matmul(h, h).array, h.array, atol=1e-12)
    ones = Matrix([[1.0]] * 5)
    assert np.abs(matmul(h, ones).array).max() < 1e-12


def test_centering_matches_mean_subtraction():
    rng = np.random.RandomState(5)
    x = rng.standard_normal((3, 6))  # columns are samples
    h = centering_matrix(6).array
    centered = x @ h
    assert np.allclose(centered, x - x.mean(axis=1, keepdims=True), atol=1e-12)


# ---------------------------------------------------------------------------
# definiteness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", SCALES)
def test_definiteness_reads_eigenvalues_relative_to_the_largest(s):
    def verdict(*lams):
        return definiteness([s * x for x in lams])

    assert verdict(3.0, 1.0) == (False, False)
    assert verdict(1.0, 1e-13) == (False, True)
    assert verdict(1.0, -1e-11) == (False, True)  # roundoff below zero
    assert verdict(1.0, -1e-6) == (True, False)
    assert verdict(1.0, -1.0, 0.0) == (True, True)
    assert verdict(-1.0, -2.0) == (True, False)
    assert definiteness([0.0, 0.0]) == (False, True)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_frobenius_norm_scales_by_powers_of_two_without_overflow():
    # sqrt(sum(a * a)) read inf at 2^600 and 0.0 at 2^-600.
    m = np.random.RandomState(8).standard_normal((5, 3))
    unit = frobenius_norm(Matrix(m))
    assert unit == np.sqrt(np.sum(m * m))
    for k in (-600, -540, 300, 600):
        assert frobenius_norm(Matrix(m * 2.0**k)) == 2.0**k * unit, k
        assert frobenius_norm(m * 2.0**k) == 2.0**k * unit, k
    assert frobenius_norm(np.zeros((2, 2))) == 0.0


def test_frobenius_norm_equals_trace_identity():
    rng = np.random.RandomState(7)
    m = Matrix(rng.standard_normal((4, 3)))
    via_trace = trace(matmul(transpose(m), m))
    assert frobenius_norm(m) == pytest.approx(np.sqrt(via_trace), rel=1e-12)


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_matmul_matches_numpy_property(seed, n, k, m):
    rng = np.random.RandomState(seed)
    a = rng.uniform(-10, 10, size=(n, k))
    b = rng.uniform(-10, 10, size=(k, m))
    got = matmul(Matrix(a), Matrix(b)).array
    assert np.allclose(got, a @ b, rtol=1e-12, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_transpose_involution_property(seed, n):
    rng = np.random.RandomState(seed)
    m = Matrix(rng.uniform(-5, 5, size=(n, n + 1)))
    assert np.array_equal(transpose(transpose(m)).array, m.array)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5))
def test_centering_idempotence_property(seed, n):
    h = centering_matrix(n)
    hh = matmul(h, h).array
    assert np.abs(hh - h.array).max() < 1e-12
