"""Generalized eigenproblem: whitening route, quick route, residuals."""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest

from genspectra import (
    ConvergenceFailure,
    DimensionMismatch,
    EigenvalueOverflow,
    GenEigenSolution,
    IndefiniteB,
    LabeledDataset,
    Pencil,
    SingularAfterRegularization,
    SymMatrix,
    Matrix,
    default_epsilon,
    determinant,
    eig_sym,
    fda_fit,
    identity,
    kspca_fit,
    pencil_residual,
    scatter_matrices,
    solve_quick_dirty,
    solve_rigorous,
)

from genspectra import KernelSpec, kernel_matrix, kernels
from genspectra.linalg import _pow2_scaled, definiteness
from genspectra.pencil import ARC_MAX_STEPS, _fit_pairs, _preimage_pairs, _whiten_core, _whitening

from conftest import (
    POW2_EXPS,
    SCALES,
    angle_pencil,
    assert_diagnostics,
    definite_pencil,
    gram_fallback,
    indefinite_pencil,
    kernel_calls,
    metric_kernel,
    random_orthonormal,
    random_spd,
    random_sym,
    span_gap,
    ungraded_kernel,
)


def _diag(*entries) -> SymMatrix:
    return SymMatrix(np.diag([float(e) for e in entries]))


# The two verdicts of the arc search: an emptied arc, and an arc still open
# at the step cap. A pair on the boundary of the definite pairs, whose arc
# shrinks to a single angle, can end either way.
NOT_DEFINITE = "not a definite pair"
UNRESOLVED = r"a definite pair, if at all, only within an arc of width \S+, below working precision"


# ---------------------------------------------------------------------------
# container
# ---------------------------------------------------------------------------


def test_pencil_requires_matching_dims():
    with pytest.raises(DimensionMismatch):
        Pencil(identity(2), identity(3))


def test_pencil_coerces_plain_symmetric_input():
    p = Pencil(Matrix([[2.0, 1.0], [1.0, 2.0]]), identity(2))
    assert isinstance(p.a, SymMatrix)
    assert p.dim == 2


# ---------------------------------------------------------------------------
# quick and dirty: worked examples
# ---------------------------------------------------------------------------


def test_quick_identity_b_reduces_to_ordinary_problem():
    sol = solve_quick_dirty(Pencil(_diag(4, 1), identity(2)))
    assert sol.eigenvalues == pytest.approx([4.0, 1.0], abs=1e-10)
    assert sol.method == "quick_dirty"
    assert sol.epsilon_used == 0.0


def test_quick_diagonal_pencil():
    sol = solve_quick_dirty(Pencil(_diag(4, 1), _diag(2, 1)))
    assert sol.eigenvalues == pytest.approx([2.0, 1.0], abs=1e-10)


def test_quick_worked_example():
    # (A = [[2,1],[1,2]], B = 2I) has eigenvalues 1.5 and 0.5
    sol = solve_quick_dirty(Pencil(SymMatrix([[2.0, 1.0], [1.0, 2.0]]), _diag(2, 2)))
    assert sol.eigenvalues == pytest.approx([1.5, 0.5], abs=1e-10)
    assert sol.strategy == "cholesky"
    assert sol.residual < 1e-10


def test_quick_ascending_order():
    sol = solve_quick_dirty(Pencil(_diag(4, 1), identity(2)), order="ascending")
    assert sol.eigenvalues == pytest.approx([1.0, 4.0], abs=1e-10)


# ---------------------------------------------------------------------------
# rigorous: worked examples
# ---------------------------------------------------------------------------


def test_rigorous_identity_b_matches_eig_sym():
    rng = np.random.RandomState(31)
    a = random_sym(rng, 4)
    sol, inter = solve_rigorous(Pencil(a, identity(4)))
    dec = eig_sym(a)
    assert np.allclose(sol.eigenvalues, dec.eigenvalues, atol=1e-8)
    assert np.allclose(np.abs(sol.phi.array), np.abs(dec.phi.array), atol=1e-8)
    assert inter.epsilon_used == 0.0
    # whitening against I is a no-op
    assert np.allclose(inter.phi_b_breve.array, inter.phi_b.array, atol=1e-12)


def test_rigorous_diagonal_worked_example():
    # (A, B) = (diag(4,1), diag(2,1)): lambda = [2, 1], leading vector
    # (1/sqrt(2), 0) which is B-normalized rather than unit length.
    sol, _ = solve_rigorous(Pencil(_diag(4, 1), _diag(2, 1)))
    assert sol.eigenvalues == pytest.approx([2.0, 1.0], abs=1e-12)
    lead = sol.phi.array[:, 0]
    assert np.allclose(lead, [1.0 / math.sqrt(2.0), 0.0], atol=1e-12)
    b = _diag(2, 1).array
    assert lead @ b @ lead == pytest.approx(1.0, abs=1e-12)


def test_rigorous_b_orthonormality_and_diagonalization():
    rng = np.random.RandomState(32)
    for d in (2, 3, 6, 9):
        a = random_sym(rng, d)
        b = random_spd(rng, d)
        sol, _ = solve_rigorous(Pencil(a, b))
        phi = sol.phi.array
        gram = phi.T @ b.array @ phi
        assert np.abs(gram - np.eye(d)).max() < 1e-7
        lam = phi.T @ a.array @ phi
        off = lam - np.diag(np.diag(lam))
        assert np.abs(off).max() < 1e-7 * max(1.0, np.abs(lam).max())
        assert np.allclose(np.diag(lam), sol.eigenvalues, atol=1e-7 * max(1.0, np.abs(lam).max()))
        # descending by default
        ev = sol.eigenvalues
        assert all(ev[i] >= ev[i + 1] for i in range(d - 1))


def test_rigorous_stationarity_of_each_pair():
    rng = np.random.RandomState(33)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    sol, _ = solve_rigorous(Pencil(a, b))
    fro_a = np.sqrt((a.array ** 2).sum())
    for j, lam in enumerate(sol.eigenvalues):
        v = sol.phi.array[:, j]
        assert np.linalg.norm(a.array @ v - lam * (b.array @ v)) <= 1e-7 * max(1.0, fro_a)


# ---------------------------------------------------------------------------
# whitening intermediates
# ---------------------------------------------------------------------------


def test_intermediates_expose_consistent_stages():
    rng = np.random.RandomState(34)
    a = random_sym(rng, 5)
    b = random_spd(rng, 5)
    sol, inter = solve_rigorous(Pencil(a, b))
    breve = inter.phi_b_breve.array
    # the scaled basis whitens B exactly
    assert np.abs(breve.T @ b.array @ breve - np.eye(5)).max() < 1e-7
    # a_breve is the congruence-transformed A, symmetric by construction
    expect = breve.T @ a.array @ breve
    assert np.abs(inter.a_breve.array - (expect + expect.T) / 2.0).max() < 1e-9 * max(
        1.0, np.abs(expect).max()
    )
    assert np.array_equal(inter.a_breve.array, inter.a_breve.array.T)
    # the final factors multiply back together exactly: Phi's canonical
    # column signs were applied to Phi_A as well
    assert np.array_equal(sol.phi.array, kernels.matmul(breve, inter.phi_a.array))
    # lambda_a IS the solution spectrum
    assert inter.lambda_a == sol.eigenvalues
    # phi_b diagonalizes b
    phi_b = inter.phi_b.array
    assert np.abs(phi_b.T @ b.array @ phi_b - np.diag(inter.lambda_b)).max() < 1e-8 * max(
        1.0, max(inter.lambda_b)
    )


def test_effective_b_equals_b_without_regularization():
    rng = np.random.RandomState(35)
    b = random_spd(rng, 4)
    _, inter = solve_rigorous(Pencil(random_sym(rng, 4), b))
    assert inter.epsilon_used == 0.0
    assert np.abs(inter.effective_b().array - b.array).max() < 1e-9 * max(
        1.0, np.abs(b.array).max()
    )


def test_effective_b_is_the_enforced_metric_when_regularized():
    # B singular, A acting on B's null space: the eigenvalue explodes to
    # O(1/eps^2) and the residual against the original pencil is honestly
    # large, but the vectors are exactly orthonormal in effective_b.
    a = _diag(0, 1)
    b = _diag(1, 0)
    sol, inter = solve_rigorous(Pencil(a, b))
    assert sol.epsilon_used == pytest.approx(1e-5)
    assert sol.eigenvalues[0] == pytest.approx(1e10, rel=1e-6)
    assert sol.residual > 1e3  # honest: the original pencil is violated
    assert not sol.deflated
    phi = sol.phi.array
    met = inter.effective_b().array
    assert np.abs(phi.T @ met @ phi - np.eye(2)).max() < 1e-7


def test_rigorous_deflated_flag_when_null_spaces_overlap():
    a = _diag(1, 0)
    b = _diag(1, 0)
    sol, _ = solve_rigorous(Pencil(a, b))
    assert sol.deflated
    assert sol.epsilon_used == pytest.approx(1e-5)
    # the eps in the whitening factors shifts lambda by O(eps)
    assert sol.eigenvalues == pytest.approx([1.0, 0.0], abs=1e-4)
    assert sol.residual < 1e-3


def test_default_epsilon_scales_with_b():
    assert default_epsilon(identity(3)) == pytest.approx(1e-5)
    assert default_epsilon(_diag(200.0, 1.0)) == pytest.approx(200.0 * 1e-5)


def test_rigorous_explicit_epsilon_zero_on_singular_b_raises():
    with pytest.raises(SingularAfterRegularization):
        solve_rigorous(Pencil(_diag(1, 1), _diag(1, 0)), epsilon=0.0)
    # an infinite eps whitened B's null direction to W = 0, for eigenvalues
    # (0, 0) and residual 0; nan failed inside the solve
    for eps in (math.inf, math.nan):
        with pytest.raises(SingularAfterRegularization, match=f"strength {eps!r} is not positive"):
            solve_rigorous(Pencil(SymMatrix([[2.0, 1.0], [1.0, 3.0]]), _diag(1, 0)), epsilon=eps)


def test_rigorous_indefinite_b_rejected():
    with pytest.raises(IndefiniteB):
        solve_rigorous(Pencil(identity(2), _diag(1, -1)))


def test_rigorous_metric_keeps_relative_accuracy_on_graded_b(monkeypatch):
    # B = D H D with H = I + G G'/d and D log-spaced over 1e-3 .. 1e3
    # (condition ~1e12). Its diagonal spans ~1e12, far beyond the grading
    # ratio, so eig(B) stays on Jacobi, which finds lambda_min(B) to high
    # relative accuracy; the tridiagonal kernel is off by ~1e-6 on this B,
    # while A_breve takes it.
    d = 24
    rng = np.random.RandomState(240)
    g = rng.standard_normal((d, d))
    h = np.eye(d) + g @ g.T / d
    scale = np.logspace(-3.0, 3.0, d)
    calls = []
    for name in ("jacobi_eigh", "tridiag_eigh"):
        def recording(a, *args, _name=name, _kernel=getattr(kernels, name)):
            calls.append(_name)
            return _kernel(a, *args)
        monkeypatch.setattr(kernels, name, recording)
    _, inter = solve_rigorous(Pencil(random_sym(rng, d), SymMatrix(scale[:, None] * h * scale)))
    assert calls == ["jacobi_eigh", "tridiag_eigh"]  # eig(B), then eig(A_breve)
    # lambda_min(B) = 1 / lambda_max(D^-1 H^-1 D^-1), whose largest entries
    # carry it, so LAPACK gets it to roundoff
    ref = 1.0 / np.linalg.eigvalsh(np.linalg.inv(h) / scale[:, None] / scale).max()
    assert abs(min(inter.lambda_b) - ref) <= 1e-12 * ref


def _ungraded_metric(rng, d: int, kind: str) -> SymMatrix:
    """I + G G'/d, or an rbf kernel matrix with its unit diagonal."""
    if kind == "rbf":
        x = Matrix(rng.standard_normal((3, d)))
        return SymMatrix(kernel_matrix(x, x, KernelSpec(kind="rbf", gamma=0.5)).array)
    g = rng.standard_normal((d, d))
    b = np.eye(d) + g @ g.T / d
    return SymMatrix((b + b.T) / 2.0)


@pytest.mark.parametrize("kind", ["I + GG'/d", "rbf"])
@pytest.mark.parametrize("d", [16, 24, 40])
def test_rigorous_whitens_an_ungraded_metric_by_the_tridiagonal_kernel(d, kind, eigen_inputs):
    # B's diagonal is positive and within the grading ratio, so eig(B)
    # takes the tridiagonal kernel, for B and for every 4^k B alike
    rng = np.random.RandomState(250 + d)
    a, b = random_sym(rng, d), _ungraded_metric(rng, d, kind)
    sol, inter = solve_rigorous(Pencil(a, b))
    assert kernel_calls(eigen_inputs) == [("tridiag_eigh", d)] * 2  # eig(B), eig(A_breve)
    for k in range(-20, 21):
        eigen_inputs.clear()
        scaled, scaled_inter = solve_rigorous(Pencil(a, SymMatrix(b.array * 4.0**k)))
        assert kernel_calls(eigen_inputs) == [("tridiag_eigh", d)] * 2, k
        # powers of two rescale every step exactly
        assert scaled_inter.lambda_b == tuple(x * 4.0**k for x in inter.lambda_b), k
        assert scaled.eigenvalues == tuple(x / 4.0**k for x in sol.eigenvalues), k
        assert np.array_equal(scaled.phi.array, sol.phi.array / 2.0**k), k


# ---------------------------------------------------------------------------
# quick and dirty: regularization and indefinite metric
# ---------------------------------------------------------------------------


def test_quick_singular_b_reports_epsilon():
    a = SymMatrix([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0]])
    b = _diag(1, 1, 0)
    sol = solve_quick_dirty(Pencil(a, b))
    assert sol.epsilon_used == pytest.approx(1e-5)
    assert sol.deflated  # A and B share the null direction e3
    assert sol.residual < 1e-3


def test_quick_singular_b_generic_a_residual_is_honest():
    rng = np.random.RandomState(36)
    g = rng.standard_normal((3, 3))
    a = SymMatrix(g + g.T)
    b = _diag(1, 1, 0)
    sol = solve_quick_dirty(Pencil(a, b))
    assert sol.epsilon_used > 0.0
    assert not sol.deflated
    # the inflated eigenvalue violates the original pencil; say so
    assert sol.residual > 1e-3
    assert max(abs(x) for x in sol.eigenvalues) > 1e3


def test_quick_epsilon_zero_on_singular_b_raises():
    with pytest.raises(SingularAfterRegularization):
        solve_quick_dirty(Pencil(identity(2), _diag(1, 0)), epsilon=0.0)
    for eps in (math.inf, math.nan):
        with pytest.raises(SingularAfterRegularization, match=f"strength {eps!r} is not positive"):
            solve_quick_dirty(Pencil(SymMatrix([[2.0, 1.0], [1.0, 3.0]]), _diag(1, 0)), epsilon=eps)
    # -1e-5 is within the indefiniteness tolerance, and eps lifts it to 0
    with pytest.raises(SingularAfterRegularization, match=r"B \+ eps\*I is still singular"):
        solve_quick_dirty(Pencil(identity(3), _diag(1, 0, -1e-5)), epsilon=1e-5)


def test_quick_indefinite_b_real_spectrum():
    # B = diag(1,-1) is invertible but indefinite, and so is A = diag(2,-3);
    # the points (2, 1) and (-3, -1) lie in an open half-plane, so the pair
    # is definite, with lambda = 3 and 2.
    sol = solve_quick_dirty(Pencil(_diag(2, -3), _diag(1, -1)))
    assert sol.strategy == "cholesky-rotated"
    assert sol.eigenvalues == pytest.approx([3.0, 2.0], abs=1e-9)
    assert np.allclose(np.abs(sol.phi.array), [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)
    assert sol.residual < 1e-9


def test_quick_indefinite_b_repeated_root():
    # A = B = diag(1,-1): det(A - lambda B) = -(1-lambda)^2, a double root
    # at 1 whose eigenspace is all of R^2; but cos(t) A + sin(t) B =
    # (cos t + sin t) diag(1, -1) is never definite, so the pair is not
    # definite and the quick route rejects it.
    with pytest.raises(IndefiniteB, match="not a definite pair"):
        solve_quick_dirty(Pencil(_diag(1, -1), _diag(1, -1)))


def test_quick_indefinite_b_complex_spectrum_fails():
    # A = [[0,1],[1,0]], B = diag(1,-1): det(A - lambda B) = -(lambda^2+1),
    # no real eigenvalues at all, so no definite pair.
    with pytest.raises(IndefiniteB, match="not a definite pair"):
        solve_quick_dirty(Pencil(SymMatrix([[0.0, 1.0], [1.0, 0.0]]), _diag(1, -1)))


# (diag of A, diag of B, spectrum, strategy) in a random orthonormal frame Q: A = Q diag Q'.
# The "inertia" cases have a definite B, which the Cholesky congruence serves;
# the "sturm" ones are definite pairs with A and B both indefinite.
ROTATED_REPEATED_ROOTS = {
    "sturm-d3": ((2, 2, -3), (1, 1, -1), (3, 2, 2), "cholesky-rotated"),
    "sturm-d4": ((2, 2, -3, -3), (1, 1, -1, -1), (3, 3, 2, 2), "cholesky-rotated"),
    "inertia-d3": ((2, 2, 5), (1, 1, 1), (5, 2, 2), "cholesky"),
    "inertia-d4": ((2, 2, 2, 5), (1, 1, 1, 1), (5, 2, 2, 2), "cholesky"),
}


@pytest.mark.parametrize("case", sorted(ROTATED_REPEATED_ROOTS))
def test_quick_route_resolves_repeated_roots_of_rotated_pencils(case):
    # the rotation leaves each repeated root to roundoff: Jacobi rotations
    # of a nearly diagonal C
    diag_a, diag_b, expected, strategy = ROTATED_REPEATED_ROOTS[case]
    d = len(diag_a)
    for seed in range(40):
        q = random_orthonormal(np.random.RandomState(seed), d)
        a = q @ np.diag(np.array(diag_a, dtype=float)) @ q.T
        b = q @ np.diag(np.array(diag_b, dtype=float)) @ q.T
        sol = solve_quick_dirty(Pencil(SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0)))
        assert sol.strategy == strategy
        assert max(abs(x - y) for x, y in zip(sol.eigenvalues, expected)) <= 1e-10, seed
        assert sol.residual < 1e-9, seed


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("frame", ["diagonal", "rotated"])
def test_sturm_route_resolves_an_eigenvalue_of_full_multiplicity(d, frame):
    # A = s B with an indefinite B: det(A - lambda B) = det(B) (s - lambda)^d,
    # but cos(t) A + sin(t) B = (s cos t + sin t) B is never definite, so
    # the pair is not definite and the quick route rejects it
    b0 = np.diag([1.0, -2.0, 3.0, -0.5][:d])
    for seed in range(10 if frame == "rotated" else 1):
        q = random_orthonormal(np.random.RandomState(seed), d) if frame == "rotated" else np.eye(d)
        b = q @ b0 @ q.T
        b = (b + b.T) / 2.0
        for s in (2.0, -0.7, 3e4):
            with pytest.raises(IndefiniteB, match=f"{NOT_DEFINITE}|{UNRESOLVED}"):
                solve_quick_dirty(Pencil(SymMatrix(s * b), SymMatrix(b)))


def test_sturm_route_resolves_a_triple_root_at_d4():
    # A = X^-T S Lambda X^-1, B = X^-T S X^-1 with S = diag(1, -1, 1, -1):
    # the eigenvalues are Lambda's, with 2 three times, and the points
    # (s_i lambda_i, s_i) include (2, 1) and (-2, -1), so no half-plane
    # holds them: the pair is not definite, and the quick route rejects it
    lam = np.array([2.0, 2.0, 2.0, -1.0])
    s = np.array([1.0, -1.0, 1.0, -1.0])
    for seed in range(10):
        x = np.eye(4) + 0.3 * np.random.RandomState(seed).standard_normal((4, 4))
        xi = np.linalg.inv(x)
        a = xi.T @ np.diag(s * lam) @ xi
        b = xi.T @ np.diag(s) @ xi
        with pytest.raises(IndefiniteB, match=f"{NOT_DEFINITE}|{UNRESOLVED}"):
            solve_quick_dirty(Pencil(SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0)))


def test_quick_route_vectors_of_double_roots_are_orthonormal():
    # each double root has a two-dimensional eigenspace, from which the
    # vectors must come back orthonormal, not merely independent
    for seed in range(400):
        q = random_orthonormal(np.random.RandomState(seed), 4)
        a = q @ np.diag([2.0, 2.0, 5.0, 5.0]) @ q.T
        sol = solve_quick_dirty(Pencil(SymMatrix((a + a.T) / 2.0), identity(4)))
        assert sol.strategy == "cholesky"
        assert np.linalg.svd(sol.phi.array, compute_uv=False).min() >= 1.0 - 1e-10, seed
        assert sol.residual <= 1e-12, seed


def _definite_a_sweep_pencil(d: int) -> tuple[np.ndarray, np.ndarray]:
    """A = G G' + I (seed 5) and an indefinite diagonal B0: A is a metric."""
    g = np.random.RandomState(5).standard_normal((d, d))
    return g @ g.T + np.eye(d), np.diag([1.0, -0.5, 2.0, -3.0][:d])


SCALE_SWEEP_PENCILS = {"cholesky-a": _definite_a_sweep_pencil, "cholesky-rotated": definite_pencil}


def _assert_same_at_every_scale_of_b(d: int, strategy: str):
    a, b0 = SCALE_SWEEP_PENCILS[strategy](d)
    unit = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b0)))
    assert unit.strategy == strategy
    ref = np.sort(np.linalg.eigvals(np.linalg.solve(b0, a)).real)[::-1]
    top = np.max(np.abs(ref))
    assert np.max(np.abs(np.array(unit.eigenvalues) - ref)) <= 1e-10 * top
    for s in SCALES + [1e9]:
        sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(s * b0)))
        gap = np.max(np.abs(s * np.array(sol.eigenvalues) - unit.eigenvalues))
        assert gap <= 1e-10 * top, s


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cholesky_a_route_is_the_same_at_every_scale_of_b(d):
    _assert_same_at_every_scale_of_b(d, "cholesky-a")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sturm_route_is_the_same_at_every_scale_of_b(d):
    _assert_same_at_every_scale_of_b(d, "cholesky-rotated")


def _assert_scales_by_powers_of_two_exactly(d: int, strategy: str):
    a, b = SCALE_SWEEP_PENCILS[strategy](d)
    unit = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
    for k in POW2_EXPS:
        for j in POW2_EXPS:
            if abs(k - j) > 1000:  # 2^(k - j) times the eigenvalues is out of range
                continue
            sol = solve_quick_dirty(Pencil(SymMatrix(a * 2.0**k), SymMatrix(b * 2.0**j)))
            assert sol.strategy == strategy, (k, j)
            assert sol.eigenvalues == tuple(2.0 ** (k - j) * x for x in unit.eigenvalues), (k, j)
            assert np.array_equal(sol.phi.array, unit.phi.array), (k, j)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cholesky_a_route_scales_by_powers_of_two_exactly(d):
    _assert_scales_by_powers_of_two_exactly(d, "cholesky-a")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sturm_route_scales_by_powers_of_two_exactly(d):
    # the angle is chosen on A and B scaled by powers of two, the same bits
    # for every (2^k A, 2^j B)
    _assert_scales_by_powers_of_two_exactly(d, "cholesky-rotated")


@pytest.mark.parametrize("b", [(1, 1), (1, -1), (1, 2, 3, 4), (1, -1, 2, -3)])
def test_quick_zero_a_has_only_zero_eigenvalues(b):
    d = len(b)
    p = Pencil(SymMatrix(np.zeros((d, d))), _diag(*b))
    if min(b) < 0:
        # (0, B) is not a definite pair: sin(t) B is never definite
        with pytest.raises(IndefiniteB, match="not a definite pair"):
            solve_quick_dirty(p)
        return
    sol = solve_quick_dirty(p)
    assert sol.eigenvalues == (0.0,) * d
    assert abs(np.linalg.det(sol.phi.array)) > 0.5


def test_quick_large_dimension_requires_definite_b():
    rng = np.random.RandomState(37)
    a = random_sym(rng, 6)
    b = SymMatrix(np.diag([1.0, 2.0, 3.0, 4.0, 5.0, -1.0]))
    with pytest.raises(IndefiniteB):
        solve_quick_dirty(Pencil(a, b))


def test_quick_large_dimension_spd_matches_rigorous():
    rng = np.random.RandomState(38)
    a = random_sym(rng, 7)
    b = random_spd(rng, 7)
    quick = solve_quick_dirty(Pencil(a, b))
    from_rig, _ = solve_rigorous(Pencil(a, b))
    assert quick.strategy == "cholesky"
    assert_diagnostics(
        quick.residual, quick.b_orthonormality, a.array, b.array,
        quick.phi.array, quick.eigenvalues,
    )
    scale = max(1.0, max(abs(x) for x in from_rig.eigenvalues))
    diffs = [abs(q - r) for q, r in zip(quick.eigenvalues, from_rig.eigenvalues)]
    assert max(diffs) <= 1e-6 * scale


# ---------------------------------------------------------------------------
# scale invariance: B and s*B get the same verdict
# ---------------------------------------------------------------------------

ROUTES = {
    "quick_dirty": solve_quick_dirty,
    "rigorous": lambda p: solve_rigorous(p)[0],
}


def _sweep_pencil(d: int, kind: str) -> tuple[SymMatrix, np.ndarray]:
    rng = np.random.RandomState(90 + d)
    a = random_sym(rng, d)
    b0 = random_spd(rng, d) if kind == "spd" else identity(d)
    return a, b0.array


@functools.lru_cache(maxsize=None)
def _unit_scale_eigenvalues(route: str, d: int, kind: str) -> tuple[float, ...]:
    a, b0 = _sweep_pencil(d, kind)
    return ROUTES[route](Pencil(a, SymMatrix(b0))).eigenvalues


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("kind", ["spd", "identity"])
@pytest.mark.parametrize("d", [2, 10, 50])
@pytest.mark.parametrize("s", SCALES)
def test_scaled_definite_b_is_not_regularized(s, d, kind, route):
    a, b0 = _sweep_pencil(d, kind)
    sol = ROUTES[route](Pencil(a, SymMatrix(s * b0)))
    assert sol.epsilon_used == 0.0
    expected = np.array(_unit_scale_eigenvalues(route, d, kind)) / s
    gap = np.max(np.abs(np.array(sol.eigenvalues) - expected))
    assert gap <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("s", SCALES)
def test_scaled_rank_deficient_b_is_regularized(s, route):
    rng = np.random.RandomState(96)
    a = random_sym(rng, 6)
    g = rng.standard_normal((6, 3))
    b = SymMatrix(s * (g @ g.T))
    sol = ROUTES[route](Pencil(a, b))
    assert sol.epsilon_used == default_epsilon(b)


def test_quick_singular_indefinite_b_regularizes_on_sturm_route():
    # diag(1, -1, 0) is singular and indefinite; B + eps*I is indefinite
    # and invertible, and the points (2, 1 + eps), (-3, -1 + eps), (1, eps)
    # leave no gap wider than 180 degrees, so (A, B + eps*I) is not a
    # definite pair.
    with pytest.raises(IndefiniteB, match="not a definite pair"):
        solve_quick_dirty(Pencil(_diag(2, -3, 1), _diag(1, -1, 0)))


@pytest.mark.parametrize("s", SCALES)
def test_rigorous_roundoff_negative_eigenvalue_is_singular_at_every_scale(s):
    b = SymMatrix(s * np.diag([1.0, -1e-11]))
    sol, _ = solve_rigorous(Pencil(identity(2), b))
    assert sol.epsilon_used == default_epsilon(b)


@pytest.mark.parametrize("s", SCALES)
def test_rigorous_indefinite_b_rejected_at_every_scale(s):
    with pytest.raises(IndefiniteB):
        solve_rigorous(Pencil(identity(2), SymMatrix(s * np.diag([1.0, -1.0]))))


def test_quick_route_decomposes_b_once(monkeypatch):
    rng = np.random.RandomState(44)
    pencils = []
    for d in (7, 3):
        a = random_sym(rng, d)
        g = rng.standard_normal((d, d - 2))
        # regularized: B + eps*I is not decomposed
        pencils.append((a, random_spd(rng, d), SymMatrix(g @ g.T)))
    calls = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    # count calls from every package module that holds either function
    for name, original in (("eig_sym", eig_sym), ("determinant", determinant)):
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("genspectra") and (
                getattr(mod, name, None) is original
            ):
                monkeypatch.setattr(mod, name, counting(name, original))
    # the Cholesky route decomposes only C = L^-1 A L^-T; the fall-through
    # decomposes B, then the whitened A
    for a, spd, rank_deficient in pencils:
        for b, strategy, decompositions in ((spd, "cholesky", 1), (rank_deficient, "whitening", 2)):
            calls.clear()
            sol = solve_quick_dirty(Pencil(a, b))
            assert sol.strategy == strategy, a.dim
            assert (sol.epsilon_used > 0.0) == (strategy == "whitening")
            assert calls == ["eig_sym"] * decompositions, a.dim


# ---------------------------------------------------------------------------
# the quick route's congruence by A's Cholesky factor (indefinite B, definite A)
# ---------------------------------------------------------------------------


def _found_recipe_pencils(c: float):
    """300 definite pencils A = F' diag(lambda s) F, B = F' diag(s) F at d = 4.

    F = X^-1, X = U diag(geomspace(1, c, 4)) V with U, V from the QR of
    Gaussians, s = (1, 1, -1, -1) and lambda = uniform(0.5, 2) s, so A is
    positive definite, B indefinite and cond(F) = c; ``default_rng(3)``
    restarted per c.
    """
    rng = np.random.default_rng(3)
    s = np.array([1.0, 1.0, -1.0, -1.0])
    for _ in range(300):
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        f = np.linalg.inv(u @ np.diag(np.geomspace(1.0, c, 4)) @ v)
        lam = rng.uniform(0.5, 2.0, 4) * s
        a = f.T @ np.diag(lam * s) @ f
        b = f.T @ np.diag(s) @ f
        yield (a + a.T) / 2.0, (b + b.T) / 2.0


@pytest.mark.parametrize("c", [10.0, 100.0, 1000.0])
def test_cholesky_a_route_solves_ill_conditioned_definite_pencils(c):
    # The Sturm search raised ConvergenceFailure on 95 of these at c = 100,
    # and on 213 at c = 1000, where 87 more came back wrong with no error.
    import scipy.linalg

    for i, (a, b) in enumerate(_found_recipe_pencils(c)):
        sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
        assert sol.strategy == "cholesky-a", i
        ref = np.sort(scipy.linalg.eigvals(a, b).real)[::-1]
        assert np.max(np.abs(np.array(sol.eigenvalues) - ref) / np.abs(ref)) <= 1e-8, i


def _indefinite_b(rng: np.random.RandomState, d: int) -> np.ndarray:
    """Q diag(+-[1, 10]) Q' with both signs present."""
    q = random_orthonormal(rng, d)
    lam = rng.uniform(1.0, 10.0, d) * np.where(np.arange(d) % 2 == 0, 1.0, -1.0)
    b = (q * lam) @ q.T
    return (b + b.T) / 2.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("d", range(5, 13))
def test_cholesky_a_route_serves_a_definite_a_above_d4(d, sign):
    # at HEAD's d > 4 this raised IndefiniteB
    rng = np.random.RandomState(700 + d)
    a = sign * random_spd(rng, d).array
    b = _indefinite_b(rng, d)
    for order in ("descending", "ascending"):
        sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)), order=order)
        assert sol.strategy == "cholesky-a"
        assert sol.epsilon_used == 0.0
        ref = np.sort(np.linalg.eigvals(np.linalg.solve(b, a)).real)
        ref = ref[::-1] if order == "descending" else ref
        got = np.array(sol.eigenvalues)
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref)), order
        phi = sol.phi.array
        assert np.max(np.abs(phi.T @ (sign * a) @ phi - np.eye(d))) <= 1e-10, order
        assert_diagnostics(sol.residual, sol.b_orthonormality, a, b, phi, sol.eigenvalues)


@pytest.mark.parametrize("d", [5, 8])
def test_cholesky_a_route_scales_by_powers_of_two_above_d4(d):
    # lambda is exact under (2^k A, 2^j B); Phi' A Phi = I makes Phi scale by
    # 2^(-k/2), exactly for even k and to one rounding for odd k
    rng = np.random.RandomState(720 + d)
    a, b = random_spd(rng, d).array, _indefinite_b(rng, d)
    unit = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
    for k in POW2_EXPS:
        for j in POW2_EXPS:
            if abs(k - j) > 1000:
                continue
            sol = solve_quick_dirty(Pencil(SymMatrix(a * 2.0**k), SymMatrix(b * 2.0**j)))
            assert sol.strategy == "cholesky-a", (k, j)
            assert sol.eigenvalues == tuple(2.0 ** (k - j) * x for x in unit.eigenvalues), (k, j)
            want = unit.phi.array * 2.0 ** (-k / 2)
            if k % 2 == 0:
                assert np.array_equal(sol.phi.array, want), (k, j)
            else:
                assert np.max(np.abs(sol.phi.array - want)) <= 1e-15 * np.max(np.abs(want)), (k, j)


def _near_null_mu_pencil(seed: int, t: float):
    """A = Q diag(t, 1) Q', B = Q diag(1, -t) Q': mu = eig(L^-1 B L^-T) = (1/t, -t).

    |mu_min| / |mu_max| = t^2, and Jacobi finds mu_min only to roundoff of
    1/t; the pencil's eigenvalues are (t, -1/t).
    """
    q = random_orthonormal(np.random.RandomState(seed), 2)
    a, b = (q * [t, 1.0]) @ q.T, (q * [1.0, -t]) @ q.T
    return SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0)


def test_cholesky_a_route_rejects_a_b_singular_in_the_metric_of_a():
    # t = 1e-8: |mu_min| = 1e-8 is below the roundoff of ||C|| = 1e8, so
    # lambda = -1/mu_min = -1e8 has no correct digit; A's gate (cond 1e8)
    # and B's own verdict (indefinite, not singular) both pass
    for seed in range(5):
        a, b = _near_null_mu_pencil(seed, 1e-8)
        assert definiteness(eig_sym(b).eigenvalues) == (True, False)
        with pytest.raises(SingularAfterRegularization, match="metric of A"):
            solve_quick_dirty(Pencil(a, b))


def test_cholesky_a_route_resolves_mu_above_the_singular_band():
    # t = 1e-5: |mu_min| / |mu_max| = 1e-10 > SINGULAR_TOL, solved; -1/t
    # carries the roundoff of mu_min, ~eps / t^2 relative
    for seed in range(5):
        a, b = _near_null_mu_pencil(seed, 1e-5)
        sol = solve_quick_dirty(Pencil(a, b))
        assert sol.strategy == "cholesky-a"
        assert sol.eigenvalues == pytest.approx([1e-5, -1e5], rel=1e-5)


def test_cholesky_a_route_overflow_is_located():
    # lambda = 1e308 / 1e-10 is above the float range
    a, b = _diag(1e308, 1e308), _diag(1e-10, -1e-10)
    with pytest.raises(EigenvalueOverflow, match=r"2\^10[0-9][0-9]"):
        solve_quick_dirty(Pencil(a, b))


# ---------------------------------------------------------------------------
# the quick route's rotated congruence (definite pairs, A and B indefinite)
# ---------------------------------------------------------------------------


def _chordal_gap(got, ref) -> float:
    """max |x - y| / sqrt((1 + x^2)(1 + y^2)) over matched eigenvalues.

    The chordal metric of the eigenvalues of a pair (Stewart & Sun, ch. VI):
    it bounds their error by the Crawford number, and a relative error does
    not, at eigenvalues near 0 (a_i ~ 0) or far out (b_i ~ 0).
    """
    got, ref = np.asarray(got), np.asarray(ref)
    return float(np.max(np.abs(got - ref) / np.sqrt((1.0 + got**2) * (1.0 + ref**2))))


def _assert_metric_orthonormal(a: np.ndarray, b: np.ndarray, phi: np.ndarray):
    """Phi' M Phi = I for some M = c A + s B: Phi' A Phi and Phi' B Phi are
    diagonal, and their diagonals (alpha, beta) solve c alpha + s beta = 1."""
    pa, pb = phi.T @ a @ phi, phi.T @ b @ phi
    alpha, beta = np.diag(pa), np.diag(pb)
    top = max(np.max(np.abs(alpha)), np.max(np.abs(beta)))
    assert np.max(np.abs(pa - np.diag(alpha))) <= 1e-10 * top
    assert np.max(np.abs(pb - np.diag(beta))) <= 1e-10 * top
    cs = np.linalg.lstsq(np.column_stack([alpha, beta]), np.ones(len(alpha)), rcond=None)[0]
    assert np.max(np.abs(alpha * cs[0] + beta * cs[1] - 1.0)) <= 1e-10


@pytest.mark.parametrize("c", [1.0, 100.0, 1000.0])
@pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
def test_rotated_route_solves_definite_pairs(d, c):
    import scipy.linalg

    for seed in range(50):
        a, b = definite_pencil(d, c, seed)
        sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
        assert sol.strategy == "cholesky-rotated", seed
        ref = np.sort(scipy.linalg.eigvals(a, b).real)[::-1]
        assert _chordal_gap(sol.eigenvalues, ref) <= 1e-8, seed
        phi = sol.phi.array
        if d <= 4:
            assert np.max(np.abs(np.linalg.norm(phi, axis=0) - 1.0)) <= 1e-12, seed
        else:
            _assert_metric_orthonormal(a, b, phi)


@pytest.mark.parametrize("d", [3, 4, 6])
def test_quick_route_solves_exactly_the_definite_pairs(d):
    # angles over 300 degrees: a pair is definite exactly when its points
    # (a_i, b_i) lie in an open half-plane, a gap of more than 180 degrees
    # (which any two points leave, so d starts at 3)
    import scipy.linalg

    rng = np.random.default_rng(40 + d)
    verdicts = []
    for i in range(100):
        a, b, t = angle_pencil(rng, d, 100.0, (0.0, 300.0))
        t = np.sort(t)
        definite = np.max(np.diff(np.append(t, t[0] + 360.0))) > 180.0
        p = Pencil(SymMatrix(a), SymMatrix(b))
        if not definite:
            with pytest.raises(IndefiniteB, match="not a definite pair"):
                solve_quick_dirty(p)
            continue
        sol = solve_quick_dirty(p)
        verdicts.append(sol.strategy)
        ref = np.sort(scipy.linalg.eigvals(a, b).real)[::-1]
        assert _chordal_gap(sol.eigenvalues, ref) <= 1e-8, i
    assert "cholesky-rotated" in verdicts and len(verdicts) < 100


@pytest.mark.parametrize("d", [6, 12])
def test_rotated_route_scales_by_powers_of_two_above_d4(d):
    # Phi' M Phi = I in the metric of the scaled pair, which is the same for
    # every (2^k A, 2^j B), so Phi is too
    _assert_scales_by_powers_of_two_exactly(d, "cholesky-rotated")


def test_rotated_route_rejects_a_b_singular_in_the_metric_it_factors():
    # B = Q diag(1e-11, sqrt(3)/2, -1/2) Q' is indefinite, not singular: 1e-11
    # is above SINGULAR_TOL times its largest eigenvalue. A = Q diag(100,
    # -1/2, sqrt(3)/2) Q' is indefinite too, and the pair is definite. In the
    # metric M, where a_1 = 100 dominates, |mu_1| / max|mu| ~ 6e-14 is below
    # SINGULAR_TOL, and lambda_1 = 1e13 would have no correct digit.
    for seed in range(3):
        q = random_orthonormal(np.random.RandomState(seed), 3)
        a = q @ np.diag([100.0, -0.5, math.sqrt(0.75)]) @ q.T
        b = q @ np.diag([1e-11, math.sqrt(0.75), -0.5]) @ q.T
        assert definiteness(eig_sym(SymMatrix((b + b.T) / 2.0)).eigenvalues) == (True, False)
        with pytest.raises(SingularAfterRegularization, match="singular in the metric of"):
            solve_quick_dirty(Pencil(SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0)))


def test_rotated_route_fails_to_converge_where_no_definite_metric_passes_the_gate():
    # cond(F) = 1e5: the pairs are definite, but each positive definite
    # cos(t) A + sin(t) B has a condition number near 1e10, past
    # CHOLESKY_MAX_CONDITION. Where B's negative eigenvalue lies inside the
    # singular band, B is regularized to a positive definite B + eps*I instead.
    raised = 0
    for seed in range(10):
        a, b = definite_pencil(4, 1e5, seed)
        try:
            sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
        except ConvergenceFailure as exc:
            assert "positive definite at some t" in str(exc), seed
            raised += 1
        else:
            assert sol.strategy == "whitening" and sol.epsilon_used > 0.0, seed
    assert raised > 0


def test_arc_search_names_an_arc_left_open_at_its_cap():
    # definite by construction, cond(F) = 1e6: every definite metric lies in
    # an arc too narrow for the search, which stops at ARC_MAX_STEPS with
    # the arc still open and says so rather than call the pair not definite
    for seed, width in ((5, "1.4e-08"), (8, "6.0e-08")):
        a, b = definite_pencil(4, 1e6, seed)
        with pytest.raises(IndefiniteB, match=UNRESOLVED) as err:
            solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
        assert f"arc of width {width}," in str(err.value), seed
        assert NOT_DEFINITE not in str(err.value), seed
    # an emptied arc keeps the plain verdict
    with pytest.raises(IndefiniteB, match=NOT_DEFINITE) as err:
        solve_quick_dirty(Pencil(_diag(2, -4, 6), _diag(1, -2, 3)))
    assert "if at all" not in str(err.value)


@pytest.mark.parametrize("d", [3, 4])
def test_quick_route_rejects_a_non_definite_pair_with_a_real_spectrum(d):
    a, b = indefinite_pencil(d)
    with pytest.raises(IndefiniteB, match="not a definite pair"):
        solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))


def test_cholesky_a_route_makes_the_kernel_calls_it_always_made(factorizations, eigen_inputs):
    # a failed Cholesky of B, eig(B), the Cholesky of A and eig(C): the
    # arc search adds nothing where +A is a metric
    a, b = _definite_a_sweep_pencil(3)
    sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
    assert sol.strategy == "cholesky-a"
    assert factorizations == [3, 3]
    assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 3)] * 2


@pytest.mark.parametrize("d", [3, 6, 12])
def test_rotated_route_stays_within_its_cap(d, factorizations, eigen_inputs):
    # Cholesky attempts on B, +A, -A and at most ARC_MAX_STEPS angles; eig(B),
    # eig(M) at each failed angle, and eig(C)
    for seed in range(20):
        factorizations.clear()
        eigen_inputs.clear()
        a, b = definite_pencil(d, 1000.0, seed)
        assert solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b))).strategy == "cholesky-rotated"
        angles = len(factorizations) - 3
        assert 1 <= angles <= ARC_MAX_STEPS, seed
        assert len(eigen_inputs) == 2 + angles - 1, seed


# ---------------------------------------------------------------------------
# the quick route's vectors: unit length at d <= 4, B-orthonormal above
# ---------------------------------------------------------------------------


def _contract_pencils(d: int) -> dict:
    """(A, B, strategy) for each strategy of the quick route at d <= 4."""
    rng = np.random.RandomState(120 + d)
    a = random_sym(rng, d).array
    q = random_orthonormal(rng, d)
    g = rng.standard_normal((d, d - 1))
    a_def, b_ind = _definite_a_sweep_pencil(d)
    return {
        "definite": (a, random_spd(rng, d).array, "cholesky"),
        "rank-deficient": (a, g @ g.T, "whitening"),
        # lambda_min / lambda_max = 1e-10: past CHOLESKY_MAX_CONDITION, not singular
        "ill-conditioned": (a, (q * np.geomspace(1.0, 1e-10, d)) @ q.T, "whitening"),
        "definite-a": (a_def, b_ind, "cholesky-a"),
        "rotated": (*definite_pencil(d), "cholesky-rotated"),
    }


@pytest.mark.parametrize("d", [2, 3, 4])
def test_quick_route_vectors_are_unit_length_at_small_d(d):
    for name, (a, b, strategy) in _contract_pencils(d).items():
        sol = solve_quick_dirty(Pencil(SymMatrix(a), SymMatrix(b)))
        assert sol.strategy == strategy, name
        assert (sol.epsilon_used > 0.0) == (name == "rank-deficient"), name
        norms = np.linalg.norm(sol.phi.array, axis=0)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12, (name, norms)


@pytest.mark.parametrize("d", [5, 6, 7, 8])
def test_quick_cholesky_vectors_are_b_orthonormal_above_d4(d):
    rng = np.random.RandomState(130 + d)
    a = random_sym(rng, d)
    b = random_spd(rng, d)
    sol = solve_quick_dirty(Pencil(a, b))
    assert sol.strategy == "cholesky"
    phi = sol.phi.array
    assert np.max(np.abs(phi.T @ b.array @ phi - np.eye(d))) <= 1e-10
    assert_diagnostics(
        sol.residual, sol.b_orthonormality, a.array, b.array, phi, sol.eigenvalues,
    )


# ---------------------------------------------------------------------------
# the quick route's Cholesky congruence (d > 4)
# ---------------------------------------------------------------------------


def _cholesky_sweep_pencils(d: int) -> dict:
    """(A, B, deflated) at unit scale: B conditioned 1e2..1e14, rank-deficient, indefinite."""
    rng = np.random.RandomState(300 + d)
    a = random_sym(rng, d).array
    q = random_orthonormal(rng, d)
    cases = {
        f"cond {cond:.0e}": (a, (q * np.geomspace(1.0, 1.0 / cond, d)) @ q.T, False)
        for cond in (1e2, 1e5, 1e8, 1e11, 1e14)
    }
    g = rng.standard_normal((d, d - 2))
    m = rng.standard_normal((d - 2, d - 2))
    cases["rank-deficient"] = (a, g @ g.T, False)
    cases["shared null space"] = (g @ (m + m.T) @ g.T, g @ g.T, True)
    cases["indefinite"] = (a, (q * np.linspace(1.0, -1e-3, d)) @ q.T, False)
    return cases


@pytest.mark.parametrize("d", [5, 7, 12, 50])
def test_cholesky_route_only_where_b_is_definite_and_nonsingular(d):
    taken = []
    for s in SCALES:
        for name, (a, b0, deflated) in _cholesky_sweep_pencils(d).items():
            p = Pencil(SymMatrix(a), SymMatrix(s * b0))
            lam_b = eig_sym(p.b).eigenvalues
            indefinite, singular = definiteness(lam_b)
            # the verdicts of the route that decomposes B
            eps = default_epsilon(p.b) if singular else 0.0
            indefinite_after_eps = definiteness([x + eps for x in lam_b])[0]
            try:
                sol = solve_quick_dirty(p)
            except IndefiniteB:
                assert indefinite_after_eps, (s, name)
                continue
            if sol.strategy == "cholesky":
                taken.append(name)
                assert not indefinite and not singular, (s, name)
                assert sol.epsilon_used == 0.0 and not sol.deflated
                continue
            if sol.strategy == "cholesky-rotated":  # a definite pair with an indefinite B
                assert indefinite_after_eps, (s, name)
                continue
            assert sol.strategy == "whitening"
            assert not indefinite_after_eps, (s, name)
            assert sol.epsilon_used == eps, (s, name)
            assert sol.deflated == deflated, (s, name)
    # well-conditioned B takes the route at every scale, singular B never does
    assert taken.count("cond 1e+02") == taken.count("cond 1e+05") == len(SCALES)
    assert not set(taken) & {"cond 1e+14", "rank-deficient", "shared null space", "indefinite"}


def _shared_null_d6() -> tuple[np.ndarray, np.ndarray]:
    """B = G G' of rank 4 at d = 6, and A = G M G', which annihilates B's null space."""
    rng = np.random.RandomState(97)
    g = rng.standard_normal((6, 4))
    m = rng.standard_normal((4, 4))
    a = g @ (m + m.T) @ g.T
    return (a + a.T) / 2.0, g @ g.T


DEFLATION_CASES = {
    # B's only null direction is e3, and A e3 = e3 != 0
    "a-moves-null-of-b": (np.diag([0.0, 1.0, 1.0]), np.diag([1.0, 1.0, 0.0]), False),
    "shared-e3": (np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.0]), True),
    "shared-d6": (*_shared_null_d6(), True),
}
DEFLATION_SCALES = sorted(set(SCALES) | {1e-12, 1e-10, 1e-9, 1e9, 1e12})

@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("case", sorted(DEFLATION_CASES))
def test_deflated_does_not_depend_on_the_scales_of_a_and_b(case, route):
    a0, b0, expected = DEFLATION_CASES[case]
    verdicts = {}
    for s in DEFLATION_SCALES:
        for t in DEFLATION_SCALES:
            sol = ROUTES[route](Pencil(SymMatrix(t * a0), SymMatrix(s * b0)))
            assert sol.epsilon_used > 0.0
            verdicts[s, t] = sol.deflated
    assert verdicts == {key: expected for key in verdicts}


def test_quick_regularized_whitening_matches_the_regularized_pencil():
    # d = 6 takes the whitening branch; B + eps*I whitens through B's own
    # eigenvectors, so the answer is that of the pencil (A, B + eps*I)
    rng = np.random.RandomState(98)
    a = random_sym(rng, 6)
    g = rng.standard_normal((6, 4))
    b = SymMatrix(g @ g.T)
    sol = solve_quick_dirty(Pencil(a, b))
    assert sol.strategy == "whitening"
    eps = sol.epsilon_used
    assert eps == default_epsilon(b)
    chol = np.linalg.cholesky(b.array + eps * np.eye(6))
    c = np.linalg.solve(chol, np.linalg.solve(chol, a.array).T)
    ref = np.linalg.eigvalsh((c + c.T) / 2.0)[::-1]
    lams = np.array(sol.eigenvalues)
    assert np.max(np.abs(lams - ref)) <= 1e-10 * np.max(np.abs(ref))
    assert_diagnostics(
        sol.residual, sol.b_orthonormality, a.array, b.array, sol.phi.array, sol.eigenvalues,
    )


# ---------------------------------------------------------------------------
# cross-method and polynomial checks
# ---------------------------------------------------------------------------


def test_methods_agree_on_well_conditioned_pencils():
    rng = np.random.RandomState(39)
    for d in (2, 3, 4):
        for _ in range(5):
            a = random_sym(rng, d)
            b = random_spd(rng, d)  # eigenvalues in [1, 100]: condition <= 100
            quick = solve_quick_dirty(Pencil(a, b))
            rig, _ = solve_rigorous(Pencil(a, b))
            assert quick.strategy == "cholesky"
            for sol in (quick, rig):
                assert_diagnostics(
                    sol.residual, sol.b_orthonormality, a.array, b.array,
                    sol.phi.array, sol.eigenvalues,
                )
            scale = max(1.0, max(abs(x) for x in rig.eigenvalues))
            diffs = [abs(q - r) for q, r in zip(quick.eigenvalues, rig.eigenvalues)]
            assert max(diffs) <= 1e-6 * scale


def test_quick_eigenvalues_are_characteristic_roots():
    rng = np.random.RandomState(40)
    for d in (2, 3, 4):
        a = random_sym(rng, d)
        b = random_spd(rng, d, lo=1.0, hi=10.0)
        sol = solve_quick_dirty(Pencil(a, b))
        for lam in sol.eigenvalues:
            shifted = a.array - lam * b.array
            det = np.linalg.det(shifted)
            hadamard = float(np.prod(np.linalg.norm(shifted, axis=1)))
            assert abs(det) <= 1e-6 * max(1.0, hadamard)


# ---------------------------------------------------------------------------
# pencil_residual
# ---------------------------------------------------------------------------


def test_residual_zero_for_exact_solution():
    p = Pencil(_diag(4, 1), _diag(2, 1))
    sol, _ = solve_rigorous(p)
    assert pencil_residual(p, sol) < 1e-12


def test_residual_detects_perturbation():
    rng = np.random.RandomState(41)
    p = Pencil(random_sym(rng, 4), random_spd(rng, 4))
    sol, _ = solve_rigorous(p)
    noisy_phi = sol.phi.array + 1e-3 * rng.standard_normal((4, 4))
    noisy = dataclasses.replace(sol, phi=Matrix(noisy_phi))
    assert pencil_residual(p, noisy) > 1e-5
    assert pencil_residual(p, sol) < 1e-7


def test_residual_small_for_random_spd_pencil():
    rng = np.random.RandomState(42)
    p = Pencil(random_sym(rng, 8), random_spd(rng, 8))
    sol, _ = solve_rigorous(p)
    assert pencil_residual(p, sol) < 1e-7
    assert sol.residual == pytest.approx(pencil_residual(p, sol), abs=1e-15)
    assert_diagnostics(
        sol.residual, sol.b_orthonormality, p.a.array, p.b.array,
        sol.phi.array, sol.eigenvalues,
    )


def test_residual_validates_shapes():
    p = Pencil(_diag(4, 1), _diag(2, 1))
    sol, _ = solve_rigorous(p)
    p3 = Pencil(identity(3), identity(3))
    with pytest.raises(DimensionMismatch):
        pencil_residual(p3, sol)
    bad = dataclasses.replace(sol, eigenvalues=(1.0,))
    with pytest.raises(DimensionMismatch):
        pencil_residual(p, bad)


def test_solution_vectors_form_invertible_basis():
    rng = np.random.RandomState(43)
    p = Pencil(random_sym(rng, 5), random_spd(rng, 5))
    sol, _ = solve_rigorous(p)
    assert abs(np.linalg.det(sol.phi.array)) > 1e-8


# ---------------------------------------------------------------------------
# low-rank numerators A = F F' (the fits' factored path)
# ---------------------------------------------------------------------------


def _low_rank_pencil(rng, n: int, c: int, singular: bool) -> tuple[Pencil, np.ndarray]:
    """(sym(F F'), B) and F (n x c); B is rank n - 3 when ``singular``."""
    f = rng.standard_normal((n, c))
    if singular:
        g = rng.standard_normal((n, n - 3))
        b = SymMatrix((g @ g.T + (g @ g.T).T) / 2.0)
    else:
        b = random_spd(rng, n)
    a = f @ f.T
    return Pencil(SymMatrix((a + a.T) / 2.0), b), f


def _cholesky_w(b: SymMatrix) -> np.ndarray:
    """W = L^-T, the whitening the fits take where B passes the Cholesky gate."""
    return kernels.cholesky_inverse(b.array).T


def _preimage(w: np.ndarray, f: np.ndarray) -> np.ndarray:
    """G = W W'F, the preimage of F that ``_fit_pairs`` builds from a whitening W."""
    return kernels.matmul(w, kernels.matmul(w.T, f))


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_factored_pairs_match_the_full_whitening(c, singular, eigen_inputs):
    rng = np.random.RandomState(600 + 10 * c + singular)
    n = 12
    pen, f = _low_rank_pencil(rng, n, c, singular)
    sol, inter = solve_rigorous(pen)
    full_phi = sol.phi.array
    assert (inter.epsilon_used > 0.0) == singular
    for k in range(1, c):
        eigen_inputs.clear()
        phi, lams, white = _fit_pairs(f, pen.b.array, k, None)
        if singular:
            # eig(B), then the c x c Gram; no n x n A_breve
            assert white.kind == "whitening"
            assert kernel_calls(eigen_inputs) == [(metric_kernel(pen.b.array), n), ("jacobi_eigh", c)]
        else:
            # B = L L' passes the gate: the c x c Gram is the only decomposition
            assert white.kind == "cholesky"
            assert kernel_calls(eigen_inputs) == [("jacobi_eigh", c)]
            want_phi, want_lams = _preimage_pairs(_preimage(_cholesky_w(pen.b), f), f, k)
            assert np.array_equal(phi, want_phi) and lams == want_lams
        assert white.eps == inter.epsilon_used
        assert phi.shape[1] == len(lams) == k
        ref = np.array(inter.lambda_a[:k])
        assert np.abs(np.array(lams) - ref).max() <= 1e-12 * abs(ref[0])
        # Davis-Kahan: the k-span is as well determined as its eigenvalue gap
        gap = inter.lambda_a[k - 1] - inter.lambda_a[k]
        assert span_gap(phi, full_phi[:, :k]) <= 1e-12 * ref[0] / gap
        # each column keeps _whiten_core's canonical sign
        top = phi[np.argmax(np.abs(phi), axis=0), np.arange(k)]
        assert (top > 0.0).all()


def test_factored_pairs_decline_what_f_does_not_determine():
    rng = np.random.RandomState(620)
    n = 10
    breve = _whitening(random_spd(rng, n).array, None).w
    f = rng.standard_normal((n, 3))
    assert _preimage_pairs(_preimage(breve, f), f, 3) is not None
    assert _preimage_pairs(_preimage(breve, f), f, 4) is None  # wider than F
    f[:, 2] = f[:, 1]  # rank 2: the third pair lies in the null space of A_breve
    assert _preimage_pairs(_preimage(breve, f), f, 2) is not None
    assert _preimage_pairs(_preimage(breve, f), f, 3) is None
    zero = np.zeros((n, 2))
    assert _preimage_pairs(_preimage(breve, zero), zero, 1) is None


@pytest.mark.parametrize("singular", [False, True])
def test_factored_fallback_decomposes_b_once(singular, eigen_inputs):
    rng = np.random.RandomState(630 + singular)
    n, c = 11, 3
    pen, f = _low_rank_pencil(rng, n, c, singular)
    full = _whitening(pen.b.array, None) if singular else None
    w = full.w if singular else _cholesky_w(pen.b)
    for factor, k in ((f, c + 1), (f[:, [0, 0, 1]], c), (f[:, :1], 2)):
        eigen_inputs.clear()
        phi, lams, white = _fit_pairs(factor, pen.b.array, k, None)
        # B decomposed once where it fails the gate, and not at all where it
        # passes; the kernel gets B as eig_sym normalises it
        b_kernel = _pow2_scaled(pen.b.array)[0]
        assert sum(np.array_equal(m, b_kernel) for _, m in eigen_inputs) == singular
        # eig(B) where B fails the gate, then the n x n A_breve
        want = [(metric_kernel(pen.b.array), n)] * singular + [(ungraded_kernel(n), n)]
        assert [k for k in kernel_calls(eigen_inputs) if k[1] == n] == want
        # the fallback decomposes the Gram of W'F with the full whitening's
        # W, bit for bit
        want_phi, want_lams = gram_fallback(w, factor)
        assert np.array_equal(phi, want_phi) and lams == want_lams
        assert np.array_equal(white.w, w)
        assert white.eps == (full.eps if singular else 0.0)
        assert white.kind == ("whitening" if singular else "cholesky")
        # which is W' F F' W up to roundoff
        a = factor @ factor.T
        _, _, _, dense_lams = _whiten_core((a + a.T) / 2.0, w, "descending")
        assert np.abs(np.array(lams) - dense_lams).max() <= 1e-12 * dense_lams[0]


@pytest.mark.parametrize("c", [1, 3])
def test_fits_whitening_decomposes_b_past_the_cholesky_gate(c, eigen_inputs):
    # lambda_min / lambda_max = 1e-10: definite and nonsingular, so eps = 0,
    # but past CHOLESKY_MAX_CONDITION, so W comes from eig(B)
    rng = np.random.RandomState(640 + c)
    n = 10
    q = random_orthonormal(rng, n)
    b = (q * np.geomspace(1.0, 1e-10, n)) @ q.T
    f = rng.standard_normal((n, c))
    a = f @ f.T
    pen = Pencil(SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0))
    want = _whitening(pen.b.array, None)
    assert want.eps == 0.0 and not any(definiteness(want.eig_b.eigenvalues))
    for k in (c, c + 1):
        eigen_inputs.clear()
        phi, lams, white = _fit_pairs(f, pen.b.array, k, None)
        assert white.kind == "whitening" and white.eps == want.eps
        assert kernel_calls(eigen_inputs)[0] == ("jacobi_eigh", n)
        if k > c:  # F narrower than k: the n x n A_breve
            want_phi, want_lams = gram_fallback(want.w, f)
        else:
            want_phi, want_lams = _preimage_pairs(_preimage(want.w, f), f, k)
        assert np.array_equal(phi, want_phi) and lams == want_lams


@pytest.mark.parametrize("n", [16, 24, 40, 48, 56, 72])
def test_fits_cholesky_path_matches_the_whitening_path(n, eigen_inputs):
    # The fits' W = L^-T against eig(B)'s W, on the full and the factored
    # path, with B's eigenvalues spread over [1e-4, 100].
    rng = np.random.RandomState(650 + n)
    c = 3
    f = rng.standard_normal((n, c))
    b = random_spd(rng, n, lo=1e-4)
    # a factor narrower than k takes the n x n A_breve, of its own F F'
    for factor, k in ((f, 2), (f[:, :1], 2), (f[:, :1], c)):
        a = factor @ factor.T
        sol, inter = solve_rigorous(Pencil(SymMatrix((a + a.T) / 2.0), b))
        eigen_inputs.clear()
        phi, lams, white = _fit_pairs(factor, b.array, k, None)
        assert white.kind == "cholesky" and white.eps == 0.0
        b_kernel = _pow2_scaled(b.array)[0]
        assert not any(np.array_equal(m, b_kernel) for _, m in eigen_inputs)
        ref = np.array(inter.lambda_a[:k])
        assert np.abs(np.array(lams[:k]) - ref).max() <= 1e-12 * abs(ref[0])
        # the span of the pairs F F' determines, rank(F F') = width of F
        j = min(k, factor.shape[1])
        gap = inter.lambda_a[j - 1] - inter.lambda_a[j]
        assert span_gap(phi[:, :j], sol.phi.array[:, :j]) <= 1e-12 * ref[0] / gap


# ---------------------------------------------------------------------------
# what each route reports of its whitening: strategy, eps and deflated
# ---------------------------------------------------------------------------


def _record_pencil(metric: str, d: int) -> Pencil:
    """A pencil whose B is of the named kind in ``WHITENING_RECORDS``."""
    rng = np.random.RandomState(660 + d)
    q = random_orthonormal(rng, d)
    a = random_spd(rng, d).array
    lam = np.linspace(1.0, 2.0, d)
    if metric == "spd past the gate":  # kappa(B) = 1e10: past CHOLESKY_MAX_CONDITION, not singular
        lam = np.geomspace(1.0, 1e-10, d)
    elif metric.startswith("psd"):
        lam[0] = 0.0
        if metric == "psd, null for A":
            a = (q * np.append(0.0, rng.uniform(1.0, 2.0, d - 1))) @ q.T
    elif metric.startswith("indefinite"):
        lam[::2] *= -1.0
        if metric == "indefinite, -A definite":
            a = -a
        elif metric == "indefinite, arc":
            a, b = definite_pencil(d)
            return Pencil(SymMatrix(a), SymMatrix(b))
    b = (q * lam) @ q.T
    return Pencil(SymMatrix((a + a.T) / 2.0), SymMatrix((b + b.T) / 2.0))


def _record_fit(route: str, metric: str):
    """(model, B) of a fit whose denominator B is of the named kind.

    fda's B is S_W: one feature scaled by 1e-5 puts kappa(S_W) near 1e10,
    past the gate, and one constant within each class leaves S_W singular.
    kspca's B is K_x: rbf on spread samples is near I, and linear on n <= d
    samples with singular values down to 1e-5 has kappa = 1e10; linear on
    n > d is singular. Its two classes give rank 1, so p = 2 takes the
    fallback.
    """
    rng = np.random.RandomState(670)
    if route == "fda":
        labels = [i % 3 for i in range(30)]
        x = rng.standard_normal((4, 30)) + 3.0 * np.array(labels, dtype=float)
        if metric == "spd past the gate":
            x[0] *= 1e-5
        elif metric == "psd":
            x[0] = labels
        ds = LabeledDataset(Matrix(x), tuple(labels))
        return fda_fit(ds, 1), scatter_matrices(ds).s_w.array
    n = 8
    if metric == "spd":
        kx, x = KernelSpec("rbf"), 3.0 * rng.standard_normal((4, n))
    elif metric == "psd":
        kx, x = KernelSpec("linear"), rng.standard_normal((2, n))
    else:
        u, _, vt = np.linalg.svd(rng.standard_normal((12, n)), full_matrices=False)
        kx, x = KernelSpec("linear"), (u * np.geomspace(1.0, 1e-5, n)) @ vt
    ds = LabeledDataset(Matrix(x), tuple(i % 2 for i in range(n)))
    k_x = kernel_matrix(ds.x, ds.x, kx).array
    if route == "kspca gram":
        return kspca_fit(ds, 1, kx=kx), (k_x + k_x.T) / 2.0
    with pytest.warns(UserWarning, match="rank at most 1"):
        return kspca_fit(ds, 2, kx=kx), (k_x + k_x.T) / 2.0


# (route, kind of B) -> (strategy, eps > 0, deflated, eig(B) calls), or the
# error the route raises on that B; the fits report no ``deflated``. S_W and
# K_x are PSD by construction, so the fits take no indefinite B.
WHITENING_RECORDS = {
    ("rigorous", "spd"): ("whitening", False, False, 1),
    ("rigorous", "spd past the gate"): ("whitening", False, False, 1),
    ("rigorous", "psd"): ("whitening", True, False, 1),
    ("rigorous", "psd, null for A"): ("whitening", True, True, 1),
    ("rigorous", "indefinite, A definite"): IndefiniteB,
    ("rigorous", "indefinite, -A definite"): IndefiniteB,
    ("rigorous", "indefinite, arc"): IndefiniteB,
    ("quick_dirty", "spd"): ("cholesky", False, False, 0),
    ("quick_dirty", "spd past the gate"): ("whitening", False, False, 1),
    ("quick_dirty", "psd"): ("whitening", True, False, 1),
    ("quick_dirty", "psd, null for A"): ("whitening", True, True, 1),
    ("quick_dirty", "indefinite, A definite"): ("cholesky-a", False, False, 1),
    ("quick_dirty", "indefinite, -A definite"): ("cholesky-a", False, False, 1),
    ("quick_dirty", "indefinite, arc"): ("cholesky-rotated", False, False, 1),
    ("fda", "spd"): ("cholesky", False, None, 0),
    ("fda", "spd past the gate"): ("whitening", False, None, 1),
    ("fda", "psd"): ("whitening", True, None, 1),
    ("kspca gram", "spd"): ("gram", False, None, 0),
    ("kspca gram", "spd past the gate"): ("gram", False, None, 0),
    ("kspca gram", "psd"): ("gram", False, None, 0),
    ("kspca fallback", "spd"): ("cholesky", False, None, 0),
    ("kspca fallback", "spd past the gate"): ("whitening", False, None, 1),
    ("kspca fallback", "psd"): ("whitening", True, None, 1),
}


@pytest.mark.parametrize("route, metric", list(WHITENING_RECORDS))
def test_each_route_reports_how_it_whitened_b(route, metric, eigen_inputs):
    want = WHITENING_RECORDS[route, metric]
    for d in (3, 6) if route in ("rigorous", "quick_dirty") else (None,):
        eigen_inputs.clear()
        if d is None:
            got, b = _record_fit(route, metric)
            deflated = None
        else:
            p = _record_pencil(metric, d)
            b = p.b.array
            solve = solve_rigorous if route == "rigorous" else solve_quick_dirty
            if want is IndefiniteB:
                with pytest.raises(IndefiniteB):
                    solve(p)
                assert sum(np.array_equal(m, _pow2_scaled(b)[0]) for _, m in eigen_inputs) == 1
                continue
            got = solve(p)[0] if route == "rigorous" else solve(p)
            deflated = got.deflated
        # eig(B) runs at most once per solve, and not at all where B is not whitened by it
        eig_b = sum(np.array_equal(m, _pow2_scaled(b)[0]) for _, m in eigen_inputs)
        assert (got.strategy, got.epsilon_used > 0.0, deflated, eig_b) == want, d
