"""Rayleigh-quotient objectives: the quotient and the four solver forms."""

import dataclasses
import math

import numpy as np
import pytest

from genspectra import (
    DegenerateDenominator,
    DimensionMismatch,
    Matrix,
    NonOrthonormalBasis,
    Pencil,
    QuadraticForm,
    SymMatrix,
    Vector,
    ZeroVector,
    check_stationarity,
    eig_sym,
    identity,
    rayleigh_quotient,
    reconstruction_objective,
    solve_form1,
    solve_form2,
    solve_form3_4,
    solve_rigorous,
)
from genspectra import kernels

from conftest import POW2_EXPS, gram_schmidt, random_spd, random_sym, random_unit


def _diag(*entries) -> SymMatrix:
    return SymMatrix(np.diag([float(e) for e in entries]))


# ---------------------------------------------------------------------------
# the quotient itself
# ---------------------------------------------------------------------------


def test_quotient_worked_examples():
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    assert rayleigh_quotient(Vector([1.0, 1.0]), a) == pytest.approx(3.0)
    assert rayleigh_quotient(Vector([1.0, -1.0]), a) == pytest.approx(1.0)
    # with a metric: u'Au / u'Bu
    assert rayleigh_quotient(
        Vector([1.0, 0.0]), _diag(4, 1), _diag(2, 1)
    ) == pytest.approx(2.0)


def test_quotient_scale_invariance():
    rng = np.random.RandomState(51)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    u = Vector(rng.standard_normal(5))
    base = rayleigh_quotient(u, a, b)
    for c in (-2.0, 0.5, 10.0):
        scaled = rayleigh_quotient(Vector(c * u.array), a, b)
        assert abs(scaled - base) <= 1e-10 * max(1.0, abs(base))
    # a power of two leaves the quotient's bits, even where u'u or u'Au
    # would under- or overflow
    plain = rayleigh_quotient(u, a)
    for k in POW2_EXPS:
        u_k = Vector(np.ldexp(u.array, k))
        assert rayleigh_quotient(u_k, a, b) == base
        assert rayleigh_quotient(u_k, a) == plain
    # the residual (A - lam B) u is formed from the quotient's scaled u, so
    # it does not underflow to 0 where it is representable
    for metric in (b, None):
        res = check_stationarity(u, a, metric).residual
        for k in (-540, -300):
            u_k = Vector(np.ldexp(u.array, k))
            assert check_stationarity(u_k, a, metric).residual == math.ldexp(res, k) > 0.0
        # u'Bu = 2^1030 m'Bm is above the float range: an inf, with no warning
        u_k = Vector(np.ldexp(u.array, 515))
        report = check_stationarity(u_k, a, metric)
        assert report.constraint_violation == math.inf
        assert report.residual == math.ldexp(res, 515)


def test_quotient_bounded_by_extreme_eigenvalues():
    rng = np.random.RandomState(52)
    a = random_sym(rng, 6)
    lam = eig_sym(a).eigenvalues
    lo, hi = min(lam), max(lam)
    span = max(1.0, hi - lo)
    for _ in range(500):
        val = rayleigh_quotient(Vector(random_unit(rng, 6)), a)
        assert lo - 1e-10 * span <= val <= hi + 1e-10 * span


def test_quotient_error_paths():
    a = identity(2)
    with pytest.raises(ZeroVector):
        rayleigh_quotient(Vector([0.0, 0.0]), a)
    with pytest.raises(DegenerateDenominator):
        rayleigh_quotient(Vector([1.0, 1.0]), a, _diag(1, -1))
    with pytest.raises(DimensionMismatch):
        rayleigh_quotient(Vector([1.0, 1.0, 1.0]), a)
    with pytest.raises(DimensionMismatch):
        rayleigh_quotient(Vector([1.0, 1.0]), a, identity(3))


# ---------------------------------------------------------------------------
# form 1: single extremal direction
# ---------------------------------------------------------------------------


def test_form1_returns_leading_pair():
    u, val = solve_form1(QuadraticForm(SymMatrix([[2.0, 1.0], [1.0, 2.0]])))
    s = 1.0 / math.sqrt(2.0)
    assert val == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(np.abs(u.array), [s, s], atol=1e-12)


def test_form1_with_metric_worked_example():
    u, val = solve_form1(QuadraticForm(_diag(4, 1), _diag(2, 1)))
    assert val == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(u.array), [1.0 / math.sqrt(2.0), 0.0], atol=1e-12)


def test_form1_minimize():
    u, val = solve_form1(QuadraticForm(_diag(5, 3, 1), direction="minimize"))
    assert val == pytest.approx(1.0)
    assert np.allclose(np.abs(u.array), [0.0, 0.0, 1.0], atol=1e-12)


def test_form1_requires_subspace_dim_one():
    with pytest.raises(DimensionMismatch):
        solve_form1(QuadraticForm(identity(2), subspace_dim=2))


def test_form1_value_beats_random_directions():
    rng = np.random.RandomState(53)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    _, best = solve_form1(QuadraticForm(a, b))
    for _ in range(500):
        val = rayleigh_quotient(Vector(random_unit(rng, 5)), a, b)
        assert val <= best + 1e-9 * max(1.0, abs(best))


def test_form1_min_equals_max_of_negated():
    rng = np.random.RandomState(54)
    a = random_sym(rng, 4)
    _, lo = solve_form1(QuadraticForm(a, direction="minimize"))
    _, hi_neg = solve_form1(QuadraticForm(SymMatrix(-a.array), direction="maximize"))
    assert abs(lo + hi_neg) <= 1e-9 * max(1.0, abs(lo))


def test_quadratic_form_validates_direction():
    with pytest.raises(ValueError):
        QuadraticForm(identity(2), direction="upward")


def test_quadratic_form_validates_dims():
    with pytest.raises(DimensionMismatch, match="share a dimension, got 2 and 3"):
        QuadraticForm(identity(2), identity(3))
    with pytest.raises(DimensionMismatch, match="subspace_dim"):
        QuadraticForm(identity(2), subspace_dim=3)


# ---------------------------------------------------------------------------
# form 2: trace over a p-frame
# ---------------------------------------------------------------------------


def test_form2_minimize_diagonal_example():
    # minimizing over a 2-frame picks the two smallest eigenvalues of
    # diag(5,3,1), reported ascending: [1, 3]
    phi, lams = solve_form2(QuadraticForm(_diag(5, 3, 1), direction="minimize"), p=2)
    assert lams == pytest.approx([1.0, 3.0])
    assert phi.shape == (3, 2)
    assert np.allclose(np.abs(phi.array), [[0, 0], [0, 1], [1, 0]], atol=1e-12)


def test_form2_maximize_descending():
    phi, lams = solve_form2(QuadraticForm(_diag(5, 3, 1)), p=2)
    assert lams == pytest.approx([5.0, 3.0])


def test_form2_trace_identity():
    rng = np.random.RandomState(55)
    a = random_sym(rng, 6)
    phi, lams = solve_form2(QuadraticForm(a), p=3)
    achieved = float(np.trace(phi.array.T @ a.array @ phi.array))
    assert achieved == pytest.approx(sum(lams), rel=1e-10, abs=1e-10)


def test_form2_frame_is_b_orthonormal():
    rng = np.random.RandomState(56)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    phi, _ = solve_form2(QuadraticForm(a, b), p=3)
    gram = phi.array.T @ b.array @ phi.array
    assert np.abs(gram - np.eye(3)).max() < 1e-7


def test_form2_with_metric_skips_the_solution_diagnostics(monkeypatch):
    # the frame is solve_rigorous's, bit for bit, without its residual and
    # B-orthonormality: A_breve's two products and Phi's one are the only matmuls
    rng = np.random.RandomState(58)
    q = QuadraticForm(random_sym(rng, 6), random_spd(rng, 6))
    for direction, order in (("maximize", "descending"), ("minimize", "ascending")):
        sol, _ = solve_rigorous(Pencil(q.a, q.b), order=order)
        calls = []
        original = kernels.matmul

        def counting(a, b):
            calls.append(a.shape)
            return original(a, b)

        monkeypatch.setattr(kernels, "matmul", counting)
        phi, lams = solve_form2(dataclasses.replace(q, direction=direction), p=4)
        monkeypatch.setattr(kernels, "matmul", original)
        assert len(calls) == 3
        assert np.array_equal(phi.array, sol.phi.array[:, :4])
        assert lams == list(sol.eigenvalues[:4])


def test_form2_beats_random_frames():
    rng = np.random.RandomState(57)
    a = random_sym(rng, 6)
    _, lams = solve_form2(QuadraticForm(a), p=2)
    best = sum(lams)
    for _ in range(200):
        frame = gram_schmidt(rng.standard_normal((6, 2)))
        val = float(np.trace(frame.T @ a.array @ frame))
        assert val <= best + 1e-9 * max(1.0, abs(best))


def test_form2_validates_p():
    with pytest.raises(DimensionMismatch):
        solve_form2(QuadraticForm(identity(3)), p=4)
    with pytest.raises(DimensionMismatch):
        solve_form2(QuadraticForm(identity(3)), p=0)


# ---------------------------------------------------------------------------
# forms 3 and 4: reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_objective_worked_example():
    # X = [[1,-1],[0,0]]: projecting onto e2 removes nothing, error = 2
    x = Matrix([[1.0, -1.0], [0.0, 0.0]])
    assert reconstruction_objective(x, Vector([0.0, 1.0])) == pytest.approx(2.0)
    # projecting onto e1 captures everything
    assert reconstruction_objective(x, Vector([1.0, 0.0])) == pytest.approx(0.0)


def test_reconstruction_objective_full_basis_is_exact():
    rng = np.random.RandomState(58)
    x = Matrix(rng.standard_normal((4, 7)))
    frame = gram_schmidt(rng.standard_normal((4, 4)))
    assert reconstruction_objective(x, Matrix(frame)) <= 1e-10


def test_reconstruction_objective_rejects_skewed_basis():
    x = Matrix(np.eye(2))
    with pytest.raises(NonOrthonormalBasis):
        reconstruction_objective(x, Matrix([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        reconstruction_objective(x, Matrix(np.eye(3)))
    with pytest.raises(DimensionMismatch):
        solve_form3_4(x, p=0)


def test_form3_4_equivalence_with_form2_on_gram_matrix():
    # minimizing reconstruction error == maximizing the projected trace of
    # XX': same subspace, compared through projectors to ignore basis choice
    rng = np.random.RandomState(59)
    x = Matrix(rng.standard_normal((5, 12)))
    phi_rec, lams = solve_form3_4(x, p=2)
    gram = SymMatrix(x.array @ x.array.T)
    phi_tr, lams_tr = solve_form2(QuadraticForm(gram), p=2)
    p_rec = phi_rec.array @ phi_rec.array.T
    p_tr = phi_tr.array @ phi_tr.array.T
    assert np.abs(p_rec - p_tr).max() < 1e-7
    assert lams == pytest.approx(lams_tr, rel=1e-9)


def test_form3_4_minimizes_reconstruction_error():
    rng = np.random.RandomState(60)
    x = Matrix(rng.standard_normal((4, 9)))
    phi, _ = solve_form3_4(x, p=2)
    best = reconstruction_objective(x, phi)
    for _ in range(200):
        frame = gram_schmidt(rng.standard_normal((4, 2)))
        assert best <= reconstruction_objective(x, Matrix(frame)) + 1e-9


def test_form3_4_eigenvalues_are_captured_energy():
    rng = np.random.RandomState(61)
    x = Matrix(rng.standard_normal((4, 9)))
    phi, lams = solve_form3_4(x, p=4)
    total = float(np.sum(x.array * x.array))
    assert sum(lams) == pytest.approx(total, rel=1e-9)
    # keeping p directions leaves exactly the discarded energy behind
    err2 = reconstruction_objective(x, Matrix(phi.array[:, :2]))
    assert err2 == pytest.approx(sum(lams[2:]), rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# stationarity audit
# ---------------------------------------------------------------------------


def test_stationarity_at_an_eigenvector():
    a = SymMatrix([[2.0, 1.0], [1.0, 2.0]])
    s = 1.0 / math.sqrt(2.0)
    rep = check_stationarity(Vector([s, s]), a)
    assert rep.multiplier == pytest.approx(3.0, abs=1e-12)
    assert rep.residual <= 1e-12
    assert rep.constraint_violation <= 1e-12


def test_stationarity_with_metric():
    a, b = _diag(4, 1), _diag(2, 1)
    rep = check_stationarity(Vector([1.0 / math.sqrt(2.0), 0.0]), a, b)
    assert rep.multiplier == pytest.approx(2.0, abs=1e-12)
    assert rep.residual <= 1e-12
    assert rep.constraint_violation <= 1e-12


def test_stationarity_flags_non_eigenvector():
    a = _diag(5, 1)
    rep = check_stationarity(Vector([1.0, 1.0]), a)
    assert rep.residual > 0.1
    assert rep.constraint_violation == pytest.approx(1.0)  # |u'u - 1| = 1


def test_stationarity_reuses_the_quotients_products(monkeypatch):
    # A u and B u, formed once for the quotient, serve the residual and
    # u'Bu too: one matmul per matrix
    rng = np.random.RandomState(63)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    u = Vector(rng.standard_normal(5))
    for metric, expected in ((b, 2), (None, 1)):
        lam = rayleigh_quotient(u, a, metric)
        calls = []
        original = kernels.matmul

        def counting(x, y):
            calls.append(x.shape)
            return original(x, y)

        monkeypatch.setattr(kernels, "matmul", counting)
        rep = check_stationarity(u, a, metric)
        monkeypatch.setattr(kernels, "matmul", original)
        assert len(calls) == expected
        assert rep.multiplier == lam


def test_form1_solution_passes_stationarity():
    rng = np.random.RandomState(62)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    u, val = solve_form1(QuadraticForm(a, b))
    rep = check_stationarity(u, a, b)
    assert rep.multiplier == pytest.approx(val, rel=1e-10, abs=1e-10)
    assert rep.residual <= 1e-7 * max(1.0, np.sqrt((a.array ** 2).sum()))
    assert rep.constraint_violation <= 1e-8
