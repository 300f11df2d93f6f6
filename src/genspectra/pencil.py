"""Generalized symmetric eigenproblem A phi = lambda B phi.

Two routes are provided:

* ``solve_quick_dirty`` follows the reduction to an ordinary eigenproblem
  for B^-1 A. For d <= 4 the eigenvalues are taken straight from the
  roots of det(A - lambda B) and eigenvectors from null spaces; for larger
  d the same answer is reached through a congruence with B^-1/2, computed
  by the same whitening core as ``solve_rigorous``. When B is singular it
  falls back to B + eps*I, whose eigenvectors are B's and whose
  eigenvalues are lambda_B + eps, and reports the eps it used.
* ``solve_rigorous`` whitens the metric: decompose B, scale its
  eigenvectors to unit metric, decompose the transformed A, and combine.
  The result is B-orthonormal (Phi' B Phi = I, Phi' A Phi = diag(lambda))
  and every intermediate is returned for inspection.

The routes share code for d > 4, so they check each other only at d <= 4.
Both eigendecompose B once, and no other decomposition of B is made. They
read off it whether B is singular or indefinite, relative to its largest
eigenvalue magnitude (``linalg.definiteness``), so B and s*B get the same
verdict for every s > 0; the whitening factors; and, for ``deflated``,
B's null eigenvectors. Both report their residual and B-orthonormality
against the original, unregularized pencil.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    IndefiniteB,
    SingularAfterRegularization,
)
from .eigen import (
    EigenDecomposition,
    _bisect_pencil_eigs,
    _column_signs,
    _fix_column_signs,
    _null_basis,
    eig_sym,
)
from .linalg import Matrix, SymMatrix, definiteness, null_eigenvalues

# Regularization strength when B is singular, before scaling by the
# largest entry of B.
DEFAULT_EPSILON = 1e-5


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
    ``strategy`` records how the eigenpairs were actually computed.
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
    perturbed metric from ``effective_b`` rather than B.
    """
    eig_b = eig_sym(p.b, order="descending")
    indefinite, singular = definiteness(eig_b.eigenvalues)
    if indefinite:
        raise IndefiniteB(
            f"B has eigenvalue {min(eig_b.eigenvalues):.6e}; "
            "the metric must be positive semidefinite"
        )
    eps_used = _regularization(p.b, epsilon) if singular else 0.0
    # the metric Phi_B (Lambda_B^1/2 + eps I)^2 Phi_B'
    factors = [1.0 / (math.sqrt(max(x, 0.0)) + eps_used) for x in eig_b.eigenvalues]
    phi, breve, a_breve, phi_a, lams = _whiten_core(p.a, eig_b, factors, order)
    inter = WhiteningIntermediates(
        phi_b=eig_b.phi,
        lambda_b=eig_b.eigenvalues,
        phi_b_breve=Matrix(breve),
        a_breve=a_breve,
        phi_a=Matrix(phi_a),
        lambda_a=lams,
        epsilon_used=eps_used,
    )
    return _solution(p, eig_b, phi, lams, "rigorous", eps_used, "whitening"), inter


def _regularization(b: SymMatrix, epsilon: float | None) -> float:
    """The eps that regularizes a singular B: ``epsilon``, else the default."""
    eps = epsilon if epsilon is not None else default_epsilon(b)
    if eps <= 0.0:
        raise SingularAfterRegularization(
            "B is singular and the regularization strength is not positive"
        )
    return eps


def _whiten_core(
    a: SymMatrix, eig_b: EigenDecomposition, factors: list[float], order: str
) -> tuple[np.ndarray, np.ndarray, SymMatrix, np.ndarray, tuple[float, ...]]:
    """Congruence with Phi_B_breve = Phi_B diag(factors), then eig(A_breve).

    Returns Phi, Phi_B_breve, A_breve, Phi_A and Lambda_A, with
    Phi == Phi_B_breve @ Phi_A exactly: the canonical signs of Phi's
    columns are applied to Phi_A's as well.
    """
    breve = eig_b.phi.array * np.array(factors, dtype=np.float64)
    a_breve_raw = kernels.matmul(breve.T, kernels.matmul(a.array, breve))
    a_breve = SymMatrix((a_breve_raw + a_breve_raw.T) / 2.0)

    eig_a = eig_sym(a_breve, order=order)
    phi_a = eig_a.phi.array
    phi = kernels.matmul(breve, phi_a)
    signs = _column_signs(phi)
    return phi * signs, breve, a_breve, phi_a * signs, eig_a.eigenvalues


# ---------------------------------------------------------------------------
# quick and dirty route


def solve_quick_dirty(
    p: Pencil, epsilon: float | None = None, order: str = "descending"
) -> GenEigenSolution:
    """Solve the pencil through the reduction to B^-1 A.

    B is decomposed once. When it is singular (an eigenvalue within
    ``[-INDEFINITE_TOL, SINGULAR_TOL] * max|lambda_B|``) the inverse is
    taken of B + eps*I instead, whose eigenvalues are lambda_B + eps on
    the same eigenvectors, and ``epsilon_used`` records eps. Eigenvectors
    are unit length but not B-orthonormal in general; that is the price of
    the quick route.

    For d <= 4 the eigenvalues are the real roots of det(A - lambda B),
    found by counting-function bisection when the (regularized) B is
    positive definite and by a Sturm-chain search when it is indefinite.
    For d > 4 a positive definite B is required and the reduction runs as
    a congruence with B^-1/2 = Phi_B (Lambda_B + eps I)^-1/2 Phi_B', which
    shares the spectrum of B^-1 A; it is the whitening core of
    ``solve_rigorous``, fed the decomposition above.
    """
    d = p.dim
    eig_b = eig_sym(p.b, order="descending")
    _, singular = definiteness(eig_b.eigenvalues)
    eps_used = _regularization(p.b, epsilon) if singular else 0.0
    lam_reg = [x + eps_used for x in eig_b.eigenvalues]
    indefinite, singular = definiteness(lam_reg)
    if singular:
        raise SingularAfterRegularization(
            f"B + eps*I is still singular with eps = {eps_used:.3e}"
        )

    if d <= 4:
        a_list = p.a.array.tolist()
        # B itself when not regularized: adding 0.0 would turn its -0.0 entries into +0.0
        b_reg = p.b.array + eps_used * np.eye(d) if eps_used else p.b.array
        breg_list = b_reg.tolist()
        if not indefinite:
            strategy = "charpoly-inertia"
            fro_a = math.sqrt(float(np.sum(p.a.array * p.a.array)))
            bound = fro_a / lam_reg[-1]
            # below 1 the pad shrinks with the bound, and so does the bisection's
            # stopping floor: s*B is solved to the same relative accuracy at every s
            pad = 1e-6 * max(1.0, bound) + min(1.0, bound)
            roots = _bisect_pencil_eigs(a_list, breg_list, d, -bound - pad, bound + pad)
        else:
            strategy = "charpoly-sturm"
            roots = _real_pencil_roots_sturm(a_list, breg_list, d)
        phi, lams = _vectors_from_roots(a_list, breg_list, roots, d, order)
    else:
        if indefinite:
            raise IndefiniteB(
                "the quick and dirty route needs a positive definite B (after regularization) "
                f"for d > 4; smallest eigenvalue is {lam_reg[-1]:.6e}"
            )
        strategy = "whitening"
        # the metric Phi_B (Lambda_B + eps I) Phi_B' = B + eps*I
        factors = [1.0 / math.sqrt(x) for x in lam_reg]
        phi, _, _, _, lams = _whiten_core(p.a, eig_b, factors, order)
    return _solution(p, eig_b, phi, lams, "quick_dirty", eps_used, strategy)


def _solution(p, eig_b, phi, lams, method, eps_used, strategy) -> GenEigenSolution:
    """The solution document of either route, measured against the original pencil.

    ``deflated`` is read off ``eig_b``, the decomposition of B the route
    already made, and only when B was regularized.
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
    fro_a = math.sqrt(float(np.sum(a * a)))
    residual = math.sqrt(float(np.sum(resid * resid))) / max(1.0, fro_a)
    gram = kernels.matmul(phi.T, bphi)
    return residual, float(np.max(np.abs(gram - np.eye(phi.shape[1]))))


def _shares_null_direction(a: np.ndarray, eig_b: EigenDecomposition) -> bool:
    """True when a null eigenvector v of B is also null for A: ||A v|| <= 1e-9 ||A||_F.

    B's null eigenvectors are the columns of Phi_B whose eigenvalue counts
    as zero (``linalg.null_eigenvalues``); both tests are relative, so
    (t*A, s*B) gets the same answer for every t, s > 0.
    """
    phi_b = eig_b.phi.array
    fro_a = math.sqrt(float(np.sum(a * a)))
    for i in null_eigenvalues(eig_b.eigenvalues):
        av = kernels.matmul(a, phi_b[:, i : i + 1])
        if math.sqrt(float(np.sum(av * av))) <= 1e-9 * fro_a:
            return True
    return False


def _vectors_from_roots(
    a: list, b_reg: list, roots_ascending: list[float], d: int, order: str
) -> tuple[np.ndarray, list[float]]:
    """Null-space eigenvectors for the root list of det(A - lambda B).

    Roots within a relative gap of 1e-8 form one cluster whose eigenspace
    is extracted in a single row reduction; the rank tolerance escalates
    gently if the space comes out thin at the first try.
    """
    clusters: list[list[float]] = []
    for r in roots_ascending:
        if clusters and abs(r - clusters[-1][-1]) <= 1e-8 * max(1.0, abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])

    pairs: list[tuple[float, list[float]]] = []
    for cluster in clusters:
        center = sum(cluster) / len(cluster)
        m = [[a[i][j] - center * b_reg[i][j] for j in range(d)] for i in range(d)]
        scale = max(1.0, max(abs(x) for row in m for x in row))
        basis: list[list[float]] = []
        for tol in (1e-10, 1e-8, 1e-6, 1e-4):
            basis = _null_basis(m, tol * scale)
            if len(basis) >= len(cluster):
                break
        if len(basis) < len(cluster):
            raise ConvergenceFailure(
                f"found {len(basis)} independent directions for eigenvalue "
                f"{center!r} of multiplicity {len(cluster)}"
            )
        for lam, vec in zip(cluster, basis):
            pairs.append((lam, vec))

    if order == "descending":
        pairs = pairs[::-1]
    lams = [lam for lam, _ in pairs]
    phi = np.array([vec for _, vec in pairs], dtype=np.float64).T
    return _fix_column_signs(phi), lams


# ---- characteristic polynomial of a pencil, d <= 4 ----


def _poly_mul(p: list[float], q: list[float]) -> list[float]:
    out = [0.0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi != 0.0:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


def _pencil_charpoly(a: list, b: list, n: int) -> list[float]:
    """Coefficients of det(A - lambda B), ascending powers, exact expansion."""
    coeffs = [0.0] * (n + 1)
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        poly = [-1.0 if inversions % 2 else 1.0]
        for i in range(n):
            poly = _poly_mul(poly, [a[i][perm[i]], -b[i][perm[i]]])
        for k, ck in enumerate(poly):
            coeffs[k] += ck
    return coeffs


def _poly_trim(p: list[float]) -> list[float]:
    scale = max((abs(c) for c in p), default=0.0)
    if scale == 0.0:
        return []
    tol = 1e-13 * scale
    out = [c if abs(c) > tol else 0.0 for c in p]
    while out and out[-1] == 0.0:
        out.pop()
    return out


def _poly_eval(p: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: list[float]) -> list[float]:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_rem(num: list[float], den: list[float]) -> list[float]:
    rem = num[:]
    dd = len(den) - 1
    lead = den[-1]
    while len(rem) - 1 >= dd and any(c != 0.0 for c in rem):
        k = len(rem) - 1 - dd
        f = rem[-1] / lead
        for i in range(len(den)):
            rem[k + i] -= f * den[i]
        rem.pop()
    return rem


def _sturm_chain(p: list[float]) -> list[list[float]]:
    chain = [_poly_trim(p)]
    dp = _poly_trim(_poly_deriv(chain[0]))
    if dp:
        chain.append(dp)
    while len(chain[-1]) > 1:
        rem = _poly_trim([-c for c in _poly_rem(chain[-2], chain[-1])])
        if not rem:
            # Nontrivial gcd: the truncated chain still counts distinct roots.
            break
        chain.append(rem)
    return chain


def _sign_variations(chain: list[list[float]], x: float) -> int:
    count = 0
    prev = 0.0
    for p in chain:
        val = _poly_eval(p, x)
        if val == 0.0:
            continue
        if prev != 0.0 and (val > 0.0) != (prev > 0.0):
            count += 1
        prev = val
    return count


def _polish_multiple_root(coeffs: list[float], r: float, mult: int) -> float:
    """Re-solve a multiple root against the (mult-1)-th derivative.

    A root of multiplicity m is a simple root of the (m-1)-th derivative.
    The original polynomial is flat around such a root (its value falls
    below roundoff in a zone of width ~ sqrt(machine eps)), which caps
    sign-based bisection there; the derivative has a clean sign change.
    """
    q = coeffs
    for _ in range(mult - 1):
        q = _poly_deriv(q)
    scale = max(1.0, abs(r))
    lo, hi = r - 1e-6 * scale, r + 1e-6 * scale
    f_lo, f_hi = _poly_eval(q, lo), _poly_eval(q, hi)
    if f_lo == 0.0 or f_hi == 0.0 or (f_lo > 0.0) == (f_hi > 0.0):
        return r  # no usable bracket: keep the Sturm estimate
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = _poly_eval(q, mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * scale:
            break
    return 0.5 * (lo + hi)


def _real_pencil_roots_sturm(a: list, b_reg: list, d: int) -> list[float]:
    """Real eigenvalues (with multiplicity) when B is indefinite.

    det(A - lambda B) keeps degree d because B is invertible here, but its
    roots need not all be real. Distinct real roots are isolated with a
    Sturm chain; each root's multiplicity is the null-space dimension of
    A - root*B. If the multiplicities cannot account for all d eigenvalues
    the pencil has complex (or defective) eigenvalues and the symmetric
    machinery cannot proceed.
    """
    coeffs = _pencil_charpoly(a, b_reg, d)
    chain = _sturm_chain(coeffs)
    lead = abs(coeffs[-1])
    bound = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead if len(coeffs) > 1 else 1.0
    lo, hi = -bound, bound

    intervals = [(lo, hi)]
    isolated: list[tuple[float, float]] = []
    while intervals:
        left, right = intervals.pop()
        n_roots = _sign_variations(chain, left) - _sign_variations(chain, right)
        if n_roots <= 0:
            continue
        if n_roots == 1:
            isolated.append((left, right))
            continue
        mid = 0.5 * (left + right)
        if _poly_eval(chain[0], mid) == 0.0:
            mid += 1e-9 * (right - left)
        intervals.append((left, mid))
        intervals.append((mid, right))

    distinct: list[float] = []
    for left, right in isolated:
        v_left = _sign_variations(chain, left)
        for _ in range(200):
            if right - left <= 1e-14 * max(1.0, abs(left), abs(right)):
                break
            mid = 0.5 * (left + right)
            if v_left - _sign_variations(chain, mid) >= 1:
                right = mid
            else:
                left = mid
        distinct.append(0.5 * (left + right))
    distinct.sort()

    roots: list[float] = []
    for r in distinct:
        m = [[a[i][j] - r * b_reg[i][j] for j in range(d)] for i in range(d)]
        scale = max(1.0, max(abs(x) for row in m for x in row))
        mult = 0
        for tol in (1e-10, 1e-8, 1e-6):
            mult = len(_null_basis(m, tol * scale))
            if mult:
                break
        if mult >= 2:
            r = _polish_multiple_root(coeffs, r, mult)
        roots.extend([r] * max(mult, 1))
    if len(roots) != d:
        raise ConvergenceFailure(
            f"only {len(roots)} of {d} eigenvalues are real; the pencil has "
            "complex or defective eigenvalues, which this solver does not handle"
        )
    return roots
