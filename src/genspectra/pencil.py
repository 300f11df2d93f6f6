"""Generalized symmetric eigenproblem A phi = lambda B phi.

Two routes are provided:

* ``solve_quick_dirty`` follows the reduction to an ordinary eigenproblem
  for B^-1 A. Where B (after regularization) is positive definite it
  solves the congruence C = W' A W, W' B W = I, which shares the spectrum
  of B^-1 A: W = L^-T from a Cholesky factor B = L L' when B is well
  conditioned, else W = (B + eps*I)^-1/2 from the decomposition of B,
  with eps = 0 unless B is singular. Where B + eps*I is indefinite, the
  pair is solved where it is definite: some M = cos(t) A + sin(t) B passes
  the same Cholesky gate, and the congruence is taken by M's factor. t = 0
  and pi, M = +-A, are tried first (``"cholesky-a"``, Golub & Van Loan
  8.7); any other t is found by the arc algorithm (``"cholesky-rotated"``,
  Crawford & Moon 1983; Guo, Higham & Tisseur 2009). A pair with no such
  t is rejected at every d. Vectors are unit length at d <= 4; at d > 4
  they are B-orthonormal, (+-A)-orthonormal on ``"cholesky-a"`` and
  M-orthonormal on ``"cholesky-rotated"``.
* ``solve_rigorous`` whitens the metric: decompose B, scale its
  eigenvectors to unit metric, decompose the transformed A, and combine.
  The result is B-orthonormal (Phi' B Phi = I, Phi' A Phi = diag(lambda))
  and every intermediate is returned for inspection.

Where the quick route takes the Cholesky factor the routes share no
factorization of B, so each checks the other there; on any other B they
share the eigendecomposition of B. Where B is decomposed, that
decomposition is the only one of B, by the tridiagonal kernel from d = 9
up unless B's diagonal is graded, and by Jacobi otherwise (``eig_sym``'s
``_metric``, for relative accuracy on a graded B), and both routes read
off it whether B is singular or indefinite, relative to its largest
eigenvalue magnitude (``linalg.definiteness``), so B and s*B get the same
verdict for every s > 0; the whitening factors; and, for ``deflated``,
B's null eigenvectors. The quick route takes the Cholesky factor only
where that verdict would be "definite and nonsingular" with a margin of
1000 (``CHOLESKY_MAX_CONDITION``, tested by ``_cholesky_whitening``). Both
report their residual and B-orthonormality against the original,
unregularized pencil.

The fits (``apps.fda_fit``, ``apps.kspca_fit``) keep only the leading
pairs, and their numerators have low rank, A = F F' with F n x c (n x r
for kspca with any label kernel, r the rank of its c x c class kernel),
so those pairs come from a small Gram rather than from the n x n A_breve,
and ``_fit_pairs`` takes F and B, never A. Both fits take their pairs
through it, and it builds that Gram one way:
for a preimage G with F = B G, the c x c M = G'F (``_preimage_pairs``).
``apps.kspca_fit`` holds such a G, so B is never factored and a singular
B needs no eps. ``apps.fda_fit`` does not: it whitens B, with W = L^-T
where B passes that same Cholesky gate, and with eig(B)'s
Phi_B (Lambda_B^1/2 + eps I)^-1, the verdict and eps of
``solve_rigorous``, where it fails, and takes G = W W'F, Fisher's
S_W^-1 (mu_j - mu_t). Where G does not determine the pairs, both
decompose the whitened A_breve in full, formed as the Gram of W'F.

Every route reports how it treated B through one ``_Whitening`` record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceFailure, DimensionMismatch, IndefiniteB, SingularAfterRegularization
from .eigen import EigenDecomposition, _column_signs, eig_sym, spectral_reconstruct
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

# The most angles the arc search for a definite pair's metric tries
# (``_definite_angle``). Each try at least halves the arc, so what is left
# after the last is narrower than pi / 2^26 ~ 5e-8: the pair is then
# definite, if at all, only to about that fraction of its norm.
ARC_MAX_STEPS = 26


@dataclass(frozen=True)
class Pencil:
    """A symmetric matrix pair (A, B) defining A phi = lambda B phi."""

    a: SymMatrix
    b: SymMatrix

    def __post_init__(self):
        for name in ("a", "b"):
            if not isinstance(getattr(self, name), SymMatrix):
                object.__setattr__(self, name, SymMatrix(getattr(self, name)))
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
    ``"cholesky-rotated"`` (the quick route on an indefinite B + eps*I
    where neither is, but some cos(t) A + sin(t) B is). The quick route's
    vectors are unit length at d <= 4; above that the whitening and
    Cholesky congruences give B-orthonormal vectors, ``"cholesky-a"``
    (+-A)-orthonormal ones and ``"cholesky-rotated"`` ones orthonormal in
    the metric it factored.
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
        factors = [(math.sqrt(max(lb, 0.0)) + self.epsilon_used) ** 2 for lb in self.lambda_b]
        return spectral_reconstruct(EigenDecomposition(self.phi_b, tuple(factors), "descending"))


@dataclass(frozen=True)
class _Whitening:
    """How a route treated B: ``w`` with W' M W = I for its metric M (None
    on ``"gram"`` and the definite-pair congruences), ``kind`` and ``eps``,
    which it reports as ``strategy`` and ``epsilon_used``, and ``eig_b``,
    the one eig(B) it made (None if none), which ``deflated`` reads.
    """

    w: np.ndarray | None
    kind: str
    eps: float = 0.0
    eig_b: EigenDecomposition | None = None


def default_epsilon(b: SymMatrix) -> float:
    """Regularization strength for a singular B: 1e-5, scaled up with B."""
    return _regularization(b.array, None)


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
    sol, white, a_breve, phi_a = _rigorous(p, epsilon, order)
    return sol, WhiteningIntermediates(
        white.eig_b.phi, white.eig_b.eigenvalues, Matrix._wrap(white.w),
        SymMatrix._wrap(a_breve), Matrix._wrap(phi_a), sol.eigenvalues, white.eps,
    )


def _rigorous(p: Pencil, epsilon: float | None, order: str):
    """``solve_rigorous``'s solution, ``_Whitening`` record, A_breve and Phi_A."""
    white = _whitening(p.b.array, epsilon)
    phi, a_breve, phi_a, lams = _whiten_core(p.a.array, white.w, order)
    return _solution(p, phi, lams, "rigorous", white), white, a_breve, phi_a


def _whitening(b: np.ndarray, epsilon: float | None) -> _Whitening:
    """The ``"whitening"`` record: W = Phi_B (Lambda_B^1/2 + eps I)^-1, the
    eps it needs and eig(B).

    W divides by sqrt(lambda_B), which needs B's small eigenvalues to
    relative accuracy: ``eig_sym(..., _metric=True)`` keeps eig(B) on Jacobi
    where B's diagonal is graded, and lets it take the tridiagonal kernel
    from d = 9 up where the diagonal bounds the loss.
    Raises ``IndefiniteB`` on an indefinite B; eps is 0.0 unless B is
    singular (``linalg.definiteness``).
    """
    eig_b = eig_sym(SymMatrix._wrap(b), order="descending", _metric=True)
    indefinite, singular = definiteness(eig_b.eigenvalues)
    if indefinite:
        raise IndefiniteB(
            f"B has eigenvalue {min(eig_b.eigenvalues):.6e}; "
            "the metric must be positive semidefinite"
        )
    eps_used = _regularization(b, epsilon) if singular else 0.0
    # the metric Phi_B (Lambda_B^1/2 + eps I)^2 Phi_B'
    factors = [1.0 / (math.sqrt(max(x, 0.0)) + eps_used) for x in eig_b.eigenvalues]
    w = eig_b.phi.array * np.array(factors, dtype=np.float64)
    return _Whitening(w, "whitening", eps_used, eig_b)


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


def _fit_pairs(
    factor: np.ndarray,
    b: np.ndarray,
    k: int,
    epsilon: float | None,
    preimage: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[float, ...], _Whitening]:
    """The leading k pairs of (F F', B), descending, and the ``_Whitening``
    record of how B was treated.

    ``factor`` is F with A = F F', which is never formed. Given a
    ``preimage`` G with F = B G, the pairs are ``_preimage_pairs(G, F, k)``
    where that determines them (kind ``"gram"``, no W, eps 0.0): B is
    neither factored nor decomposed. Otherwise B is whitened once, by
    W = L^-T (``"cholesky"``, eps 0.0) where it passes the gate of
    ``_cholesky_whitening``, and by eig(B)'s Phi_B (Lambda_B^1/2 + eps I)^-1
    (``"whitening"``, ``_whitening``) where it fails. Without a preimage,
    G = W W'F is one (of F in the eps-perturbed metric where eps > 0), and
    the pairs come from ``_preimage_pairs`` again. Where no Gram determines
    them, they come from eig(A_breve) for A_breve = (W'F)(W'F)', the Gram
    of W'F, which is W' F F' W up to roundoff (``_breve_pairs``): one
    n x n x c and one n x c x n product, not two n^3 ones. Returns Phi (at
    least k columns), their eigenvalues and the record.
    """
    found = None if preimage is None else _preimage_pairs(preimage, factor, k)
    if found is not None:
        return found + (_Whitening(None, "gram"),)
    w = _cholesky_whitening(b)
    white = _whitening(b, epsilon) if w is None else _Whitening(w, "cholesky")
    wf = kernels.matmul(white.w.T, factor)
    if preimage is None and k <= factor.shape[1]:
        found = _preimage_pairs(kernels.matmul(white.w, wf), factor, k)
    if found is None:
        phi, _, _, lams = _breve_pairs(kernels.matmul(wf, wf.T), white.w, "descending")
        found = phi, lams
    return found + (white,)


def _preimage_pairs(
    g: np.ndarray, factor: np.ndarray, k: int
) -> tuple[np.ndarray, tuple[float, ...]] | None:
    """The leading k pairs of (F F', B) for F = B G, from the c x c M = G' F.

    For any W with W W' = B^-1 the Gram of W'F is G' B W W' B G = G' B G
    = M, and Phi = W W' F u / sqrt(lambda) = G u / sqrt(lambda), so W
    cancels: B is never factored or decomposed, and a singular B needs
    no eps. The pairs solve the unperturbed pencil, F F' Phi =
    B Phi diag(lambda) and Phi' B Phi = I, up to roundoff in M; B's
    definiteness is never tested. Each column of Phi takes the canonical
    sign of ``_whiten_core``. None when k exceeds the width c of F, or when
    lambda_k <= ``SINGULAR_TOL`` * lambda_1: then some of the k pairs lie
    in the null space of W'F F'W, which F does not determine.
    """
    if k > factor.shape[1]:
        return None
    m = kernels.matmul(g.T, factor)
    eig_m = eig_sym(SymMatrix._wrap((m + m.T) / 2.0), order="descending")
    lams = eig_m.eigenvalues[:k]
    if not lams[-1] > SINGULAR_TOL * lams[0]:
        return None
    scale = np.array([1.0 / math.sqrt(x) for x in lams], dtype=np.float64)
    phi = kernels.matmul(g, eig_m.phi.array[:, :k]) * scale
    return phi * _column_signs(phi), lams


def _regularization(b: np.ndarray, epsilon: float | None) -> float:
    """The eps that regularizes a singular B: ``epsilon``, else the default;
    one that is not positive and finite raises ``SingularAfterRegularization``."""
    eps = DEFAULT_EPSILON * max(1.0, float(np.max(np.abs(b)))) if epsilon is None else epsilon
    if not 0.0 < eps < math.inf:
        raise SingularAfterRegularization(
            f"B is singular and the regularization strength {eps!r} is not positive and finite"
        )
    return eps


def _whiten_core(
    a: np.ndarray, breve: np.ndarray, order: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...]]:
    """Congruence with a whitening matrix W = ``breve``, then eig(A_breve).

    W whitens the metric, W' B W = I, so A_breve = W' A W has the
    eigenvalues of the pencil. Returns what ``_breve_pairs`` returns for it.
    """
    return _breve_pairs(kernels.matmul(breve.T, kernels.matmul(a, breve)), breve, order)


def _breve_pairs(
    a_breve_raw: np.ndarray, breve: np.ndarray, order: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[float, ...]]:
    """Phi, A_breve, Phi_A and Lambda_A from eig(A_breve), A_breve the
    symmetrized ``a_breve_raw``, for the whitening W = ``breve``.

    Phi == W @ Phi_A exactly: the canonical signs of Phi's columns are
    applied to Phi_A's as well.
    """
    a_breve = (a_breve_raw + a_breve_raw.T) / 2.0
    eig_a = eig_sym(SymMatrix._wrap(a_breve), order=order)
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

    An indefinite B + eps*I has no such W, and the pair (A, B + eps*I) is
    solved where it is definite, by the congruence of a metric
    M = cos(t) A + sin(t) B that passes the same Cholesky gate
    (``_definite_pairs``), at every d. A and B + eps*I are first scaled by
    powers of two, and t chosen on the scaled pair, so that (2^k A, 2^j B)
    gives exactly 2^(k-j) lambda. M = A and then M = -A are tried first
    (``"cholesky-a"``): the pencil is read as (B + eps*I) phi = mu A phi
    with mu = 1/lambda. Where neither passes, the arc algorithm searches
    for t (``"cholesky-rotated"``, ``_definite_angle``), starting from the
    eigenvector of B's smallest eigenvalue, and raises ``IndefiniteB``
    where no t makes M positive definite, as for A = 0 or A = s*B, and
    ``ConvergenceFailure`` where M is positive definite at some t tried but
    passes the gate at none. ``SingularAfterRegularization`` is raised
    where B + eps*I is singular in M's metric, and ``EigenvalueOverflow``
    where a lambda is above the float range.

    Eigenvectors are unit length at d <= 4, on every strategy, and not
    B-orthonormal in general; that is the price of the quick route. At
    d > 4 they are the congruence's, B-orthonormal (to B + eps*I when
    regularized), on ``"cholesky-a"`` (s*A)-orthonormal, Phi' (s A) Phi = I,
    and on ``"cholesky-rotated"`` M-orthonormal for the scaled pair's M.
    Every branch reports through one ``_Whitening`` record and one exit.
    """
    d = p.dim
    w = _cholesky_whitening(p.b.array)
    white = _Whitening(w, "cholesky")
    if w is None:
        eig_b = eig_sym(p.b, order="descending", _metric=True)
        _, singular = definiteness(eig_b.eigenvalues)
        eps_used = _regularization(p.b.array, epsilon) if singular else 0.0
        lam_reg = [x + eps_used for x in eig_b.eigenvalues]
        indefinite, singular = definiteness(lam_reg)
        if singular:
            raise SingularAfterRegularization(
                f"B + eps*I is still singular with eps = {eps_used:.3e}"
            )
        if indefinite:
            # B itself when not regularized: adding 0.0 would turn its -0.0 entries into +0.0
            b_reg = p.b.array + eps_used * np.eye(d) if eps_used else p.b.array
            phi, lams, kind = _definite_pairs(p.a.array, b_reg, eig_b.phi.array[:, -1], order)
            white = _Whitening(None, kind, eps_used, eig_b)
        else:
            # the metric Phi_B (Lambda_B + eps I) Phi_B' = B + eps*I
            factors = [1.0 / math.sqrt(x) for x in lam_reg]
            w = eig_b.phi.array * np.array(factors, dtype=np.float64)
            white = _Whitening(w, "whitening", eps_used, eig_b)
    if white.w is not None:
        phi, _, _, lams = _whiten_core(p.a.array, white.w, order)
    if d <= 4:  # the unit-length contract of the small-d quick route
        phi = phi / np.sqrt(np.sum(phi * phi, axis=0))
    return _solution(p, phi, lams, "quick_dirty", white)


def _definite_pairs(
    a: np.ndarray, b: np.ndarray, x: np.ndarray, order: str
) -> tuple[np.ndarray, list[float], str]:
    """(Phi, eigenvalues, strategy) of (A, B), B indefinite, by the Cholesky
    congruence of a metric M = c A_s + s B_s, (c, s) = (cos t, sin t);
    ``solve_quick_dirty`` scales the columns to unit length at d <= 4.

    A and B are scaled once, A_s = 2^-e_a A and B_s = 2^-e_b B
    (``_pow2_scaled``), and t is chosen on (A_s, B_s). With M = L L',
    L^-1 A_s L^-T and L^-1 B_s L^-T share their eigenvectors V, and
    Phi = L^-T V.

    * t = 0 and then t = pi, M = +-A_s, are tried first (``"cholesky-a"``;
      Golub & Van Loan, section 8.7): L^-1 B_s L^-T = V diag(mu) V'
      (``_whiten_core``) gives lambda = c / mu.
    * Where neither passes the gate of ``_cholesky_whitening``,
      ``_definite_angle`` finds t, starting from ``x``, the eigenvector of
      B's smallest eigenvalue (``"cholesky-rotated"``). With
      N = -s A_s + c B_s, L^-1 N L^-T = V diag(nu) V' gives
      lambda = (c - s nu) / mu, where mu = s + c nu.

    Either way mu is the eigenvalue of L^-1 B_s L^-T, and
    ``SingularAfterRegularization`` is raised where some |mu| is at or below
    ``SINGULAR_TOL`` * max|mu|: B is then singular in M's metric, and
    lambda would carry a relative error of roundoff times max|mu| / |mu|,
    2e-4 or more. lambda comes back in A's and B's units by 2^(e_a - e_b),
    sorted per ``order``; so (2^k A, 2^j B) gives exactly 2^(k-j) lambda,
    and, at d <= 4, the same Phi.
    Above d = 4 the ``"cholesky-a"`` columns are scaled by 2^(-e_a / 2),
    which makes them (c*A)-orthonormal, Phi' (c A) Phi = I, and the
    ``"cholesky-rotated"`` ones are left M-orthonormal, Phi' M Phi = I.
    """
    d = a.shape[0]
    a_s, e_a = _pow2_scaled(a)
    b_s, e_b = _pow2_scaled(b)
    for c in (1.0, -1.0):
        breve = _cholesky_whitening(c * a_s)
        if breve is not None:
            s, n, strategy = 0.0, b_s, "cholesky-a"
            break
    else:
        c, s, breve = _definite_angle(a_s, b_s, x)
        n, strategy = c * b_s - s * a_s, "cholesky-rotated"
    rotated = strategy == "cholesky-rotated"
    phi, _, _, nus = _whiten_core(n, breve, "descending")
    nus = np.array(nus)
    num, mus = (c - s * nus, s + c * nus) if rotated else (c, nus)
    size = np.abs(mus)
    if not size.min() > SINGULAR_TOL * size.max():
        metric = f"{c:.6g} A_s + {s:.6g} B_s" if rotated else "A" if c > 0.0 else "-A"
        raise SingularAfterRegularization(
            f"B is singular in the metric of {metric}: eigenvalue mu = "
            f"{mus[np.argmin(size)]:.3e} of L^-1 B L^-T against a largest |mu| of "
            f"{size.max():.3e}, so lambda is not resolved"
        )
    lams = num / mus
    idx = np.argsort(-lams if order == "descending" else lams, kind="stable")
    phi = phi[:, idx]
    if d > 4 and not rotated:
        half, odd = divmod(e_a, 2)
        phi = np.ldexp(phi * math.sqrt(0.5) if odd else phi, -half)
    return phi, _pow2_unscaled(lams[idx], e_a - e_b).tolist(), strategy


def _definite_angle(
    a: np.ndarray, b: np.ndarray, x: np.ndarray
) -> tuple[float, float, np.ndarray]:
    """(cos t, sin t, W = L^-T) for an angle t at which M = cos(t) A + sin(t) B
    = L L' passes the gate of ``_cholesky_whitening``, by the arc algorithm
    (Crawford & Moon, BIT 23, 1983; Guo, Higham & Tisseur, SIMAX 31(3), 2009).

    A vector x with z = x'A x + i x'B x has x'M x = |z| cos(t - arg z), so
    every t at which M is positive definite lies in
    (arg z - pi/2, arg z + pi/2), and those t form one open arc. The search
    starts from ``x`` with x'B x < 0, which rules out t = pi/2, and tries
    the middle t of what remains of the arc. Where M fails the gate, the
    eigenvector x of its smallest eigenvalue cuts the arc to the angles
    within w = min(pi/2, |t - arg z|) of arg z: those at which x'M x is
    positive and above its value at t. Each cut removes the middle, so it
    at least halves the arc.

    The search ends where the arc empties or after ``ARC_MAX_STEPS``
    angles, when it is narrower than pi / 2^``ARC_MAX_STEPS``. Then it
    raises ``ConvergenceFailure`` if some M tried was positive definite
    (``linalg.definiteness``) but failed the gate, and otherwise
    ``IndefiniteB``: where the arc emptied, (A, B) is not a definite pair;
    where the cap ends the search with the arc still open, the pair is
    definite, if at all, only within that sliver of angles, below working
    precision. The boundary A = s B with B indefinite ends either way.
    """
    t, lo, hi, definite = math.pi / 2.0, None, None, False
    for _ in range(ARC_MAX_STEPS):
        col = x[:, None]
        xax, xbx = kernels.matmul(kernels.matmul(np.vstack([a, b]), col).reshape(2, -1), col)[:, 0]
        centre = math.atan2(xbx, xax)  # arg z
        if lo is not None:  # the turn of arg z nearest the arc
            centre += 2.0 * math.pi * round((0.5 * (lo + hi) - centre) / (2.0 * math.pi))
        w = min(math.pi / 2.0, abs(math.remainder(t - centre, 2.0 * math.pi)))
        if xax == xbx == 0.0:  # x'M x = 0 at every angle
            w = 0.0
        lo = centre - w if lo is None else max(lo, centre - w)
        hi = centre + w if hi is None else min(hi, centre + w)
        if not lo < hi:
            break
        t = 0.5 * (lo + hi)
        c, s = math.cos(t), math.sin(t)
        m = c * a + s * b
        breve = _cholesky_whitening(m)
        if breve is not None:
            return c, s, breve
        eig_m = eig_sym(SymMatrix._wrap(m), order="descending")
        definite = definite or definiteness(eig_m.eigenvalues) == (False, False)
        x = eig_m.phi.array[:, -1]
    if definite:
        raise ConvergenceFailure(
            "cos(t) A + sin(t) B is positive definite at some t, but at none of the "
            "angles tried does it pass the Cholesky gate"
        )
    if lo < hi:
        verdict = (
            f"(A, B) is a definite pair, if at all, only within an arc of width {hi - lo:.1e}, "
            "below working precision: no cos(t) A + sin(t) B tried is positive definite"
        )
    else:
        verdict = "(A, B) is not a definite pair: no cos(t) A + sin(t) B is positive definite"
    raise IndefiniteB(
        f"{verdict}, and the quick and dirty route needs one where B (after regularization) "
        "is indefinite"
    )


def _solution(p, phi, lams, method, whitening: _Whitening) -> GenEigenSolution:
    """The solution document of either route, measured against the original pencil.

    ``deflated`` is read off ``whitening.eig_b``, the decomposition of B
    the route already made, and only when B was regularized, which only a
    route that decomposed B does.
    """
    a_arr = p.a.array
    residual, b_orth = _dense_diagnostics(a_arr, p.b.array, phi, lams)
    return GenEigenSolution(
        phi=Matrix._wrap(phi),
        eigenvalues=tuple(lams),
        method=method,
        epsilon_used=whitening.eps,
        residual=residual,
        b_orthonormality=b_orth,
        strategy=whitening.kind,
        deflated=whitening.eps > 0.0 and _shares_null_direction(a_arr, whitening.eig_b),
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
    return _dense_diagnostics(p.a.array, p.b.array, sol.phi.array, sol.eigenvalues)[0]


# ---------------------------------------------------------------------------
# internals


def _diagnostics(a_phi, a_norm, b, phi, lams) -> tuple[float, float]:
    """Residual and B-orthonormality of the pairs (lams, columns of phi).

    Returns ||A Phi - B Phi diag(lams)||_F / max(1, ||A||_F) and
    max|Phi' B Phi - I| from ``a_phi`` = A Phi and ``a_norm`` = ||A||_F,
    which the caller forms: ``_dense_diagnostics`` from a stored A for
    ``_solution``, ``pencil_residual``, ``apps.pca_fit`` and
    ``apps.fda_fit``, and ``apps.kspca_fit`` from its A = F F'.
    ``b=None`` stands for the identity. B Phi is formed once and serves
    both numbers.
    """
    bphi = phi if b is None else kernels.matmul(b, phi)
    resid = a_phi - bphi * np.asarray(lams, dtype=np.float64)
    residual = frobenius_norm(resid) / max(1.0, a_norm)
    gram = kernels.matmul(phi.T, bphi)
    return residual, float(np.max(np.abs(gram - np.eye(phi.shape[1]))))


def _dense_diagnostics(a, b, phi, lams) -> tuple[float, float]:
    """``_diagnostics`` of the pairs against a stored A."""
    return _diagnostics(kernels.matmul(a, phi), frobenius_norm(a), b, phi, lams)


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
