"""Generalized symmetric eigenproblem A phi = lambda B phi.

Two routes are provided:

* ``solve_quick_dirty`` follows the reduction to an ordinary eigenproblem
  for B^-1 A. Where B (after regularization) is positive definite it
  solves the congruence C = W' A W, W' B W = I, which shares the spectrum
  of B^-1 A: W = L^-T from a Cholesky factor B = L L' when B is well
  conditioned, else W = (B + eps*I)^-1/2 from the decomposition of B,
  with eps = 0 unless B is singular. Where B + eps*I is indefinite but A
  or -A passes the same Cholesky gate, the pencil is read as
  B phi = (1/lambda) A phi, whose metric is +-A, and the congruence is
  taken by A's factor instead (``"cholesky-a"``, Golub & Van Loan 8.7).
  Where neither does, the pencil is rejected at d > 4; at d <= 4 its
  eigenvalues are the real roots of det(A - lambda B), and its vectors
  span null spaces of A - lambda B. That root search,
  ``eigen._sturm_pairs``, lives with the other d <= 4 root searches in
  :mod:`genspectra.eigen`. Vectors are unit length at d <= 4; at d > 4
  they are B-orthonormal, or (+-A)-orthonormal on ``"cholesky-a"``.
* ``solve_rigorous`` whitens the metric: decompose B, scale its
  eigenvectors to unit metric, decompose the transformed A, and combine.
  The result is B-orthonormal (Phi' B Phi = I, Phi' A Phi = diag(lambda))
  and every intermediate is returned for inspection.

Where the quick route takes the Cholesky factor the routes share no
factorization of B, so each checks the other there; on any other B they
share the eigendecomposition of B. Where B is decomposed, that
decomposition is the only one of B, by the tridiagonal kernel from d = 16
up unless B's diagonal is graded, and by Jacobi otherwise (``eigen._Metric``,
for relative accuracy on a graded B), and both routes read off it whether
B is singular or indefinite, relative to its largest eigenvalue magnitude
(``linalg.definiteness``), so B and s*B get the same verdict for every
s > 0; the whitening factors; and, for ``deflated``, B's null
eigenvectors. The quick route takes the Cholesky factor only where that
verdict would be "definite and nonsingular" with a margin of 1000
(``CHOLESKY_MAX_CONDITION``, tested by ``_cholesky_whitening``). Both
report their residual and B-orthonormality against the original,
unregularized pencil.

The fits (``apps.fda_fit``, ``apps.kspca_fit``) whiten too, through
``_leading_whitened``: with W = L^-T where B passes that same Cholesky
gate, and with eig(B)'s Phi_B (Lambda_B^1/2 + eps I)^-1, the verdict and
eps of ``solve_rigorous``, where it fails. They keep only the leading
pairs, and their numerators have low rank, A = F F' with F n x c, so
those pairs come from the c x c Gram of W'F rather than from the n x n
A_breve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, IndefiniteB, SingularAfterRegularization
from .eigen import EigenDecomposition, _Metric, _column_signs, _sturm_pairs, eig_sym
from .linalg import (
    SINGULAR_TOL,
    Matrix,
    SymMatrix,
    _pow2_scaled,
    _pow2_unscaled,
    definiteness,
    frobenius_norm,
    null_eigenvalues,
)

# Regularization strength when B is singular, before scaling by the
# largest entry of B.
DEFAULT_EPSILON = 1e-5

# The quick route and the fits take the Cholesky factor of B only when
# trace(B) * trace(B^-1), an upper bound on lambda_max / lambda_min, is at
# most this: 1000 times inside the ratio at which ``definiteness`` calls
# B singular, so the bound's slack and the roundoff in L^-1 cannot take
# the route where the eigendecomposition would regularize or reject B.
CHOLESKY_MAX_CONDITION = 1e-3 / SINGULAR_TOL


@dataclass(frozen=True)
class Pencil:
    """A symmetric matrix pair (A, B) defining A phi = lambda B phi."""

    a: SymMatrix
    b: SymMatrix

    def __post_init__(self):
        if not isinstance(self.a, SymMatrix):
            object.__setattr__(self, "a", SymMatrix(self.a.array if isinstance(self.a, Matrix) else self.a))
        if not isinstance(self.b, SymMatrix):
            object.__setattr__(self, "b", SymMatrix(self.b.array if isinstance(self.b, Matrix) else self.b))
        if self.a.dim != self.b.dim:
            raise DimensionMismatch(
                f"pencil matrices must share a dimension, got {self.a.dim} and {self.b.dim}"
            )

    @property
    def dim(self) -> int:
        return self.a.dim


@dataclass(frozen=True)
class GenEigenSolution:
    """Solution of a pencil.

    ``phi`` holds eigenvectors in columns, matching ``eigenvalues`` by
    position. ``method`` is ``"quick_dirty"`` or ``"rigorous"``;
    ``strategy`` records how the eigenpairs were actually computed:
    ``"whitening"`` (the rigorous route, and the quick route on a positive
    definite B + eps*I that it decomposes), ``"cholesky"`` (the quick route
    on a well-conditioned B), ``"cholesky-a"`` (the quick route on an
    indefinite B + eps*I where A or -A is a well-conditioned metric) or
    ``"charpoly-sturm"`` (the quick route at d <= 4 on an indefinite
    B + eps*I where neither is). The quick route's vectors are unit
    length at d <= 4; above that the whitening and Cholesky congruences
    give B-orthonormal vectors, and ``"cholesky-a"`` gives
    (+-A)-orthonormal ones.
    ``epsilon_used`` is 0.0 unless a singular B forced regularization.
    ``residual`` is ||A Phi - B Phi diag(lambda)||_F / max(1, ||A||_F)
    and ``b_orthonormality`` is max|Phi' B Phi - I|, both against the
    original pencil. ``deflated`` flags a null direction shared by A and
    B, where the pencil does not constrain the spectrum: set when B was
    regularized and some eigenvector v of B whose eigenvalue counts as zero
    (``linalg.null_eigenvalues``) has ||A v|| <= 1e-9 ||A||_F.
    """

    phi: Matrix
    eigenvalues: tuple[float, ...]
    method: str
    epsilon_used: float
    residual: float
    b_orthonormality: float
    strategy: str
    deflated: bool


@dataclass(frozen=True)
class WhiteningIntermediates:
    """Every stage of the whitening route, for audit and testing.

    ``phi_b``/``lambda_b`` decompose B; ``phi_b_breve`` has columns scaled
    by 1 / (sqrt(lambda_b) + eps); ``a_breve`` is the transformed A whose
    decomposition ``phi_a``/``lambda_a`` completes the solution.
    """

    phi_b: Matrix
    lambda_b: tuple[float, ...]
    phi_b_breve: Matrix
    a_breve: SymMatrix
    phi_a: Matrix
    lambda_a: tuple[float, ...]
    epsilon_used: float

    def effective_b(self) -> SymMatrix:
        """The metric actually enforced: Phi_B (sqrt(Lambda_B) + eps I)^2 Phi_B'.

        Equals B (up to roundoff) when no regularization was needed; with
        eps > 0 it is the nearby nonsingular metric in which the returned
        eigenvectors are exactly orthonormal.
        """
        phi_b = self.phi_b.array
        factors = np.array(
            [(math.sqrt(max(lb, 0.0)) + self.epsilon_used) ** 2 for lb in self.lambda_b]
        )
        rec = kernels.matmul(phi_b * factors, phi_b.T)
        return SymMatrix((rec + rec.T) / 2.0)


def default_epsilon(b: SymMatrix) -> float:
    """Regularization strength for a singular B: 1e-5, scaled up with B."""
    return DEFAULT_EPSILON * max(1.0, float(np.max(np.abs(b.array))))


# ---------------------------------------------------------------------------
# rigorous route


def solve_rigorous(
    p: Pencil, epsilon: float | None = None, order: str = "descending"
) -> tuple[GenEigenSolution, WhiteningIntermediates]:
    """Solve the pencil by whitening the metric B.

    Steps: decompose B = Phi_B Lambda_B Phi_B'; form
    Phi_B_breve = Phi_B (Lambda_B^1/2 + eps I)^-1 with eps = 0 when B is
    comfortably nonsingular; decompose A_breve = Phi_B_breve' A
    Phi_B_breve; return lambda = Lambda_A and Phi = Phi_B_breve Phi_A.

    Raises ``IndefiniteB`` when B has an eigenvalue below
    ``-INDEFINITE_TOL * max|lambda_B|``. With a singular (PSD) B, one with
    an eigenvalue at or below ``SINGULAR_TOL * max|lambda_B|``, the small
    eps keeps the scaling finite, exactly the trade recorded in
    ``epsilon_used``: the constraint is then enforced in the slightly
    perturbed metric from ``effective_b``,
    Phi_B (Lambda_B^1/2 + eps I)^2 Phi_B', rather than B. That is not the
    B + eps*I of ``solve_quick_dirty``, so on a singular B the two routes
    give different eigenvalues (1/eps^2 here against 1/eps there for
    A = I, B = 0).
    """
    eig_b, phi, inter = _whitened(p, epsilon, order)
    sol = _solution(p, eig_b, phi, inter.lambda_a, "rigorous", inter.epsilon_used, "whitening")
    return sol, inter


def _whitened(
    p: Pencil, epsilon: float | None, order: str
) -> tuple[EigenDecomposition, np.ndarray, WhiteningIntermediates]:
    """The decomposition of ``solve_rigorous``, without its diagnostics.

    Returns eig(B), Phi and the intermediates; callers that measure only
    some columns of Phi (``rayleigh._extremal_pairs``) take it directly.
    """
    eig_b, eps_used, breve = _whitening(p.b, epsilon)
    phi, a_breve, phi_a, lams = _whiten_core(p.a, breve, order)
    inter = WhiteningIntermediates(
        phi_b=eig_b.phi,
        lambda_b=eig_b.eigenvalues,
        phi_b_breve=Matrix(breve),
        a_breve=a_breve,
        phi_a=Matrix(phi_a),
        lambda_a=lams,
        epsilon_used=eps_used,
    )
    return eig_b, phi, inter


def _whitening(
    b: SymMatrix, epsilon: float | None
) -> tuple[EigenDecomposition, float, np.ndarray]:
    """eig(B), the eps it needs and W = Phi_B (Lambda_B^1/2 + eps I)^-1.

    W divides by sqrt(lambda_B), which needs B's small eigenvalues to
    relative accuracy: ``eigen._Metric`` keeps eig(B) on Jacobi where B's
    diagonal is graded, and lets it take the tridiagonal kernel from d = 16
    up where the diagonal bounds the loss (``eigen.eig_sym``).
    Raises ``IndefiniteB`` on an indefinite B; eps is 0.0 unless B is
    singular (``linalg.definiteness``).
    """
    eig_b = eig_sym(_Metric(b), order="descending")
    indefinite, singular = definiteness(eig_b.eigenvalues)
    if indefinite:
        raise IndefiniteB(
            f"B has eigenvalue {min(eig_b.eigenvalues):.6e}; "
            "the metric must be positive semidefinite"
        )
    eps_used = _regularization(b, epsilon) if singular else 0.0
    # the metric Phi_B (Lambda_B^1/2 + eps I)^2 Phi_B'
    factors = [1.0 / (math.sqrt(max(x, 0.0)) + eps_used) for x in eig_b.eigenvalues]
    return eig_b, eps_used, eig_b.phi.array * np.array(factors, dtype=np.float64)


def _cholesky_whitening(b: np.ndarray) -> np.ndarray | None:
    """W = L^-T for a symmetric B = L L', or None where B fails the Cholesky gate.

    The gate: every pivot of the factorization is positive
    (``kernels.cholesky_inverse``), and trace(B) * ||L^-1||_F^2 =
    trace(B) * trace(B^-1), which bounds lambda_max / lambda_min, is at
    most ``CHOLESKY_MAX_CONDITION``. A B that passes is definite and
    nonsingular in ``linalg.definiteness``'s terms, so it needs no eps.
    """
    inv_l = kernels.cholesky_inverse(b)
    trace_b = float(np.sum(np.diag(b)))
    if inv_l is None or not trace_b * float(np.sum(inv_l * inv_l)) <= CHOLESKY_MAX_CONDITION:
        return None
    return inv_l.T


def _leading_whitened(
    p: Pencil, factor: np.ndarray | None, k: int, epsilon: float | None
) -> tuple[np.ndarray, tuple[float, ...], float, str]:
    """The leading k pairs of a whitening of B, descending, the eps used and the strategy.

    W is L^-T (``"cholesky"``) where B passes the gate of
    ``_cholesky_whitening``, with eps 0.0, and otherwise
    Phi_B (Lambda_B^1/2 + eps I)^-1 from eig(B) (``"whitening"``,
    ``_whitening``). ``factor`` is F with A = F F' (or None): the pairs
    then come from its c x c Gram (``_factored_pairs``) where F determines
    them, and from eig(A_breve) otherwise. Both are exact for any W with
    W W' = B^-1, and B is factored or decomposed once either way. Returns
    Phi (at least k columns), their eigenvalues, eps and the strategy.
    """
    eps_used, strategy = 0.0, "cholesky"
    breve = _cholesky_whitening(p.b.array)
    if breve is None:
        _, eps_used, breve = _whitening(p.b, epsilon)
        strategy = "whitening"
    found = None if factor is None else _factored_pairs(breve, factor, k)
    if found is None:
        phi, _, _, lams = _whiten_core(p.a, breve, "descending")
    else:
        phi, lams = found
    return phi, lams, eps_used, strategy


def _factored_pairs(
    breve: np.ndarray, factor: np.ndarray, k: int
) -> tuple[np.ndarray, tuple[float, ...]] | None:
    """The leading k pairs of (F F', B) from the c x c Gram of G = W' F.

    A_breve = W' F F' W = G G' shares its nonzero eigenvalues with G' G;
    for G' G u = lambda u, v = G u / sqrt(lambda) is the unit eigenvector
    of A_breve, and Phi = W v as in ``_whiten_core``. None when k exceeds
    the width c of F, or when lambda_k <= ``SINGULAR_TOL`` * lambda_1:
    then some of the k pairs lie in the null space of A_breve, which F
    does not determine.
    """
    if k > factor.shape[1]:
        return None
    g = kernels.matmul(breve.T, factor)
    gram = kernels.matmul(g.T, g)
    eig_g = eig_sym(SymMatrix((gram + gram.T) / 2.0), order="descending")
    lams = eig_g.eigenvalues[:k]
    if not lams[-1] > SINGULAR_TOL * lams[0]:
        return None
    scale = np.array([1.0 / math.sqrt(x) for x in lams], dtype=np.float64)
    v = kernels.matmul(g, eig_g.phi.array[:, :k]) * scale
    phi = kernels.matmul(breve, v)
    return phi * _column_signs(phi), lams


def _regularization(b: SymMatrix, epsilon: float | None) -> float:
    """The eps that regularizes a singular B: ``epsilon``, else the default."""
    eps = epsilon if epsilon is not None else default_epsilon(b)
    if eps <= 0.0:
        raise SingularAfterRegularization(
            "B is singular and the regularization strength is not positive"
        )
    return eps


def _whiten_core(
    a: SymMatrix, breve: np.ndarray, order: str
) -> tuple[np.ndarray, SymMatrix, np.ndarray, tuple[float, ...]]:
    """Congruence with a whitening matrix W = ``breve``, then eig(A_breve).

    W whitens the metric, W' B W = I, so A_breve = W' A W has the
    eigenvalues of the pencil. Returns Phi, A_breve, Phi_A and Lambda_A,
    with Phi == W @ Phi_A exactly: the canonical signs of Phi's columns
    are applied to Phi_A's as well.
    """
    a_breve_raw = kernels.matmul(breve.T, kernels.matmul(a.array, breve))
    a_breve = SymMatrix((a_breve_raw + a_breve_raw.T) / 2.0)

    eig_a = eig_sym(a_breve, order=order)
    phi_a = eig_a.phi.array
    phi = kernels.matmul(breve, phi_a)
    signs = _column_signs(phi)
    return phi * signs, a_breve, phi_a * signs, eig_a.eigenvalues


# ---------------------------------------------------------------------------
# quick and dirty route


def solve_quick_dirty(
    p: Pencil, epsilon: float | None = None, order: str = "descending"
) -> GenEigenSolution:
    """Solve the pencil through the reduction to B^-1 A.

    Where B (after regularization) is positive definite, the reduction is
    a congruence C = W' A W with W' B W = I, which shares the spectrum of
    B^-1 A, and Phi = W V from C = V Lambda V'. B is first factored
    B = L L' (``kernels.cholesky_inverse``), with no eigendecomposition,
    and W = L^-T (``strategy`` ``"cholesky"``) when every pivot is
    positive and trace(B) * ||L^-1||_F^2 = trace(B) * trace(B^-1), which
    bounds lambda_max / lambda_min, is at most ``CHOLESKY_MAX_CONDITION``
    (``_cholesky_whitening``).

    Any other B is decomposed once. When it is singular (an eigenvalue
    within ``[-INDEFINITE_TOL, SINGULAR_TOL] * max|lambda_B|``) the
    inverse is taken of B + eps*I instead, whose eigenvalues are
    lambda_B + eps on the same eigenvectors, and ``epsilon_used`` records
    eps. A positive definite B + eps*I gives
    W = Phi_B (Lambda_B + eps I)^-1/2 (``"whitening"``), the whitening
    core of ``solve_rigorous`` fed that decomposition. On a singular B the
    two routes therefore solve in different metrics, B + eps*I here and
    Phi_B (Lambda_B^1/2 + eps I)^2 Phi_B' there, and their eigenvalues
    differ: by about 1e-6 to 5e-3 relative for a B of rank d - 1 with
    max|B| = 1 at d = 2 to 8, and with A = I, B = 0 (d = 16) this route
    gives 1/eps = 1e5 where ``solve_rigorous`` gives 1/eps^2 = 1e10.

    An indefinite B + eps*I has no such W. Where A, or else -A, passes the
    Cholesky gate (``"cholesky-a"``, ``_reciprocal_pairs``), at every d,
    the pencil is read as (B + eps*I) phi = mu A phi with mu = 1/lambda:
    with s*A = L L', C = L^-1 (B + eps*I) L^-T = V M V', lambda = s/mu and
    Phi = L^-T V, both scaled by powers of two so that (2^k A, 2^j B)
    gives exactly 2^(k-j) lambda. ``SingularAfterRegularization`` is raised
    where some |mu| is at or below ``SINGULAR_TOL`` * max|mu|, and
    ``EigenvalueOverflow`` where a lambda is above the float range.

    Where neither +A nor -A passes, d > 4 raises ``IndefiniteB``, and for
    d <= 4 (``"charpoly-sturm"``) the eigenvalues
    are the real roots of det(A - lambda B), all within
    rho = ||A||_F / min|lambda(B + eps I)|, found by one bisection on a Sturm
    chain (``eigen._sturm_pairs``). Each root r gets a null basis of
    A - r B, with pivots at or below tol * (max|A| + |r| max|B|) taken as
    zero; a k-vector basis makes r a k-fold eigenvalue, re-solved on the
    (k-1)-th derivative of det(A - mu B).
    ``ConvergenceFailure`` is raised when no tol up to 1e-4 gives d
    directions in all (complex eigenvalues, say).

    Eigenvectors are unit length at d <= 4, on every strategy, and not
    B-orthonormal in general; that is the price of the quick route. At
    d > 4 they are the congruence's, B-orthonormal (to B + eps*I when
    regularized), or on ``"cholesky-a"`` (s*A)-orthonormal:
    Phi' (s A) Phi = I.
    """
    d = p.dim
    eig_b, eps_used, strategy = None, 0.0, "cholesky"
    breve = _cholesky_whitening(p.b.array)
    if breve is None:
        eig_b = eig_sym(_Metric(p.b), order="descending")
        _, singular = definiteness(eig_b.eigenvalues)
        eps_used = _regularization(p.b, epsilon) if singular else 0.0
        lam_reg = [x + eps_used for x in eig_b.eigenvalues]
        indefinite, singular = definiteness(lam_reg)
        if singular:
            raise SingularAfterRegularization(
                f"B + eps*I is still singular with eps = {eps_used:.3e}"
            )
        if indefinite:
            # B itself when not regularized: adding 0.0 would turn its -0.0 entries into +0.0
            b_reg = p.b.array + eps_used * np.eye(d) if eps_used else p.b.array
            found = _reciprocal_pairs(p.a.array, b_reg, order)
            if found is not None:
                phi, lams = found
                strategy = "cholesky-a"
            elif d > 4:
                raise IndefiniteB(
                    "the quick and dirty route needs a positive definite B (after "
                    "regularization) or a definite A for d > 4; smallest eigenvalue "
                    f"of B is {lam_reg[-1]:.6e}"
                )
            elif np.any(p.a.array):
                phi, lams = _sturm_pairs(p.a.array, b_reg, lam_reg, order)
                strategy = "charpoly-sturm"
            else:  # A = 0: every vector is an eigenvector for 0
                phi, lams, strategy = np.eye(d), [0.0] * d, "charpoly-sturm"
            return _solution(p, eig_b, phi, lams, "quick_dirty", eps_used, strategy)
        strategy = "whitening"
        # the metric Phi_B (Lambda_B + eps I) Phi_B' = B + eps*I
        factors = [1.0 / math.sqrt(x) for x in lam_reg]
        breve = eig_b.phi.array * np.array(factors, dtype=np.float64)
    phi, _, _, lams = _whiten_core(p.a, breve, order)
    if d <= 4:  # the unit-length contract of the small-d quick route
        phi = phi / np.sqrt(np.sum(phi * phi, axis=0))
    return _solution(p, eig_b, phi, lams, "quick_dirty", eps_used, strategy)


def _reciprocal_pairs(
    a: np.ndarray, b: np.ndarray, order: str
) -> tuple[np.ndarray, list[float]] | None:
    """(Phi, eigenvalues) of (A, B) by the Cholesky congruence of s*A, s = +1 or -1,
    or None where neither +A nor -A passes the gate of ``_cholesky_whitening``.

    A phi = lambda B phi is B phi = mu A phi with mu = 1 / lambda, and s*A
    is a definite metric for it (Golub & Van Loan, section 8.7). A and B
    are scaled once, A_s = 2^-e_a A and B_s = 2^-e_b B (``_pow2_scaled``);
    with s A_s = L L', C = L^-1 B_s L^-T = V M V' (``_whiten_core``) gives
    lambda = s 2^(e_a - e_b) / mu and Phi = L^-T V, sorted per ``order``.
    So (2^k A, 2^j B) gives exactly 2^(k-j) lambda, and the same Phi at
    d <= 4, where the columns are scaled to unit length. Above d = 4 they
    are scaled by 2^(-e_a / 2), which makes them (s*A)-orthonormal:
    Phi' (s A) Phi = I.

    Raises ``SingularAfterRegularization`` where some |mu| is at or below
    ``SINGULAR_TOL`` * max|mu|: B is then singular in A's metric, and
    1 / mu would carry a relative error of roundoff times max|mu| / |mu|,
    2e-4 or more.
    """
    d = a.shape[0]
    a_s, e_a = _pow2_scaled(a)
    for sign in (1.0, -1.0):
        breve = _cholesky_whitening(sign * a_s)
        if breve is not None:
            break
    else:
        return None
    b_s, e_b = _pow2_scaled(b)
    phi, _, _, mus = _whiten_core(SymMatrix(b_s), breve, "descending")
    mus = np.array(mus)
    size = np.abs(mus)
    if not size.min() > SINGULAR_TOL * size.max():
        raise SingularAfterRegularization(
            f"B is singular in the metric of {'' if sign > 0.0 else '-'}A: eigenvalue "
            f"mu = {mus[np.argmin(size)]:.3e} of L^-1 B L^-T against a largest "
            f"|mu| of {size.max():.3e}, so lambda = 1/mu is not resolved"
        )
    lams = sign / mus
    idx = np.argsort(-lams if order == "descending" else lams, kind="stable")
    phi = phi[:, idx]
    if d <= 4:
        phi = phi / np.sqrt(np.sum(phi * phi, axis=0))
    else:
        half, odd = divmod(e_a, 2)
        phi = np.ldexp(phi * math.sqrt(0.5) if odd else phi, -half)
    return phi, _pow2_unscaled(lams[idx], e_a - e_b).tolist()


def _solution(p, eig_b, phi, lams, method, eps_used, strategy) -> GenEigenSolution:
    """The solution document of either route, measured against the original pencil.

    ``deflated`` is read off ``eig_b``, the decomposition of B the route
    already made, and only when B was regularized (the Cholesky route
    makes none and passes None).
    """
    a_arr = p.a.array
    residual, b_orth = _diagnostics(a_arr, p.b.array, phi, lams)
    return GenEigenSolution(
        phi=Matrix(phi),
        eigenvalues=tuple(lams),
        method=method,
        epsilon_used=eps_used,
        residual=residual,
        b_orthonormality=b_orth,
        strategy=strategy,
        deflated=eps_used > 0.0 and _shares_null_direction(a_arr, eig_b),
    )


def pencil_residual(p: Pencil, sol: GenEigenSolution) -> float:
    """Relative residual ||A Phi - B Phi diag(lambda)||_F / max(1, ||A||_F)."""
    if sol.phi.rows != p.dim:
        raise DimensionMismatch(
            f"solution vectors have {sol.phi.rows} rows, pencil has dimension {p.dim}"
        )
    if sol.phi.cols != len(sol.eigenvalues):
        raise DimensionMismatch(
            f"{sol.phi.cols} vectors for {len(sol.eigenvalues)} eigenvalues"
        )
    return _diagnostics(p.a.array, p.b.array, sol.phi.array, sol.eigenvalues)[0]


# ---------------------------------------------------------------------------
# internals


def _diagnostics(a, b, phi, lams) -> tuple[float, float]:
    """Residual and B-orthonormality of the pairs (lams, columns of phi).

    Returns ||A Phi - B Phi diag(lams)||_F / max(1, ||A||_F) and
    max|Phi' B Phi - I|. ``b=None`` stands for the identity. B Phi is
    formed once and serves both numbers.
    """
    bphi = phi if b is None else kernels.matmul(b, phi)
    resid = kernels.matmul(a, phi) - bphi * np.asarray(lams, dtype=np.float64)
    residual = frobenius_norm(resid) / max(1.0, frobenius_norm(a))
    gram = kernels.matmul(phi.T, bphi)
    return residual, float(np.max(np.abs(gram - np.eye(phi.shape[1]))))


def _shares_null_direction(a: np.ndarray, eig_b: EigenDecomposition) -> bool:
    """True when a null eigenvector v of B is also null for A: ||A v|| <= 1e-9 ||A||_F.

    B's null eigenvectors are the columns of Phi_B whose eigenvalue counts
    as zero (``linalg.null_eigenvalues``); both tests are relative, so
    (t*A, s*B) gets the same answer for every t, s > 0.
    """
    phi_b = eig_b.phi.array
    fro_a = frobenius_norm(a)
    for i in null_eigenvalues(eig_b.eigenvalues):
        av = kernels.matmul(a, phi_b[:, i : i + 1])
        if frobenius_norm(av) <= 1e-9 * fro_a:
            return True
    return False
