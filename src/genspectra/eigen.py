"""Symmetric eigendecomposition.

The production path, ``eig_sym``, runs one of two kernels of
:mod:`genspectra.kernels`, chosen by the dimension:

* below d = 16, a cyclic-by-row Jacobi iteration, which returns the full
  eigenvector matrix as the accumulated product of rotations. Each sweep
  visits the off-diagonal pairs in row order, one rotation at a time.
  Both kernels run the sweeps as one loop at every d, on Python lists in
  the pure-Python one and on arrays in the C one;
* from d = 16 up, Householder reduction to a tridiagonal T, implicit QL
  with Wilkinson shifts for T's eigenvalues, inverse iteration for its
  eigenvectors and the reflectors back (Golub & Van Loan, *Matrix
  Computations*, ch. 8). It does a fraction of the work of Jacobi's ~10
  sweeps: at d = 48, 10 against 150 ms in pure Python and 0.56 against
  2.3 ms compiled (one CPU of a 2-core x86_64 box, minimum of 7 runs).

The one exception is a graded metric: eig(B) in the whitening of
:mod:`genspectra.pencil` (passed as ``_Metric``) stays on Jacobi at every d
when B's diagonal is graded. Jacobi finds the small eigenvalues of a graded
positive definite B = DHD (D = diag(b_ii)^1/2, H with unit diagonal) to
high relative accuracy, an error of eps * kappa(H) (Demmel & Veselic, SIAM
J. Matrix Anal. Appl. 1992); the tridiagonal path only to eps * ||B||, a
relative error of eps * kappa(B) on lambda_min; and the whitening divides
by sqrt(lambda_B). Since kappa(B) <= kappa(H) * max b_ii / min b_ii, a B
whose diagonal is positive and spans a ratio of at most ``_GRADED_RATIO``
loses at most that factor on the tridiagonal path, and takes it from
d = 16 up. The test reads B's diagonal only, costs O(d) before any
decomposition and gives B and s*B the same kernel. Any other B, with a
wider ratio or a zero or negative diagonal entry, stays on Jacobi. On
B = DHD (H = I + GG'/d, D log-spaced over 10^+-3, condition ~1e12;
d = 16, 24, 32, three seeds each) the smallest eigenvalue of B comes out
with a relative error of 2e-16 to 2e-15 by Jacobi and 4e-8 to 4e-6 by the
tridiagonal path.

Every solve keeps its numbers in range by one rule, ``linalg._pow2_scaled``:
its input scaled by 2^-e to a largest entry in [0.5, 1), and the
eigenvalues back by 2^e (``eig_sym`` does so before either kernel). So A
and 2^k A give the same eigenvectors, and eigenvalues 2^k apart, bit for
bit where no entry is subnormal. An eigenvalue that 2^e takes above the
float range raises ``EigenvalueOverflow`` (``linalg._pow2_unscaled``).

For d <= 4 the module also holds every root search on a characteristic
polynomial. ``char_poly_eig`` solves det(A - lambda I) = 0 directly: closed
forms for d <= 3 and, for d = 4, a bisection on the number of negative
pivots of A - x I = L D L' (``_inertia_below``). That route returns
eigenvalues only and exists as an independent cross-check of the Jacobi
path. ``_sturm_pairs`` finds the real eigenvalues of a pencil (A, B) with
an indefinite B as the roots of det(A - lambda B), by a bisection on a
Sturm chain, and its vectors as null spaces of A - lambda B; the quick
route of :mod:`genspectra.pencil` calls it where neither A nor -A is
positive definite enough for its Cholesky congruence.

Their bisection, ``_roots_by_count``, is the one root finder of every
count on these paths: it halves brackets of a counting function inside
±(1 + 1e-6) down to a width of 1e-14. Every count it halves is defined at
every x: an exactly zero pivot counts as negative, a zero Sturm value is
skipped, and a zero derivative value while polishing a multiple root
counts as past it. Its callers scale the problem by powers of two so that
every root lies in [-1, 1]: after ``_pow2_scaled``, A by one at or above
||A||_F, or at or above rho = ||A||_F / min|lambda(B)| for a pencil with
nonsingular B (which bounds its real eigenvalues). So (A, B) and
(2^k A, 2^j B) are the same problem, and their eigenvalues come out
exactly 2^(k-j) apart.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceFailure, NoNullSpace, UnsupportedDimension
from .linalg import (
    Matrix,
    SymMatrix,
    Vector,
    _cofactor_det,
    _pow2_scaled,
    _pow2_unscaled,
    frobenius_norm,
)

# Jacobi stops once the off-diagonal norm falls below
# JACOBI_REL_TOL * ||A||_F, or fails after MAX_SWEEPS sweeps. The
# tridiagonal kernel takes the same two numbers as its bound on the
# residuals ||T z - lambda z|| and its cap on QL steps per eigenvalue and on
# inverse-iteration steps.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

# eig_sym takes the tridiagonal kernel from this dimension up. It costs
# less than Jacobi from d ~ 10; at 16, the d <= 13 matrices of the tall
# fits and the d <= 4 pencils keep the Jacobi path.
_TRIDIAG_MIN_DIM = 16

# The widest diagonal ratio max b_ii / min b_ii of a metric that takes the
# tridiagonal kernel (``_graded``): its relative error on lambda_min(B) is
# then within this factor of Jacobi's (see the module docstring).
_GRADED_RATIO = 10.0

_ORDERS = ("descending", "ascending")


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix.

    ``phi`` holds unit eigenvectors in its columns, ``eigenvalues[j]``
    belongs to column j, and ``order`` records the sort direction.
    """

    phi: Matrix
    eigenvalues: tuple[float, ...]
    order: str


class _Metric(SymMatrix):
    """A metric B, which ``eig_sym`` keeps on Jacobi at every d when its
    diagonal is graded (``_graded``).

    The whitening's 1 / sqrt(lambda_B) needs the small eigenvalues of B to
    relative accuracy. On B = DHD, Jacobi's relative error on them is
    eps * kappa(H), the tridiagonal kernel's eps * kappa(B), and
    kappa(B) <= kappa(H) * max b_ii / min b_ii; so an ungraded B loses at
    most ``_GRADED_RATIO`` on the tridiagonal kernel (see the module
    docstring). :mod:`genspectra.pencil` wraps B in it; the wrapper shares
    B's validated, read-only storage.
    """

    __slots__ = ()

    def __init__(self, b: SymMatrix):
        self._data = b.array


def _graded(b: np.ndarray) -> bool:
    """True unless min b_ii > 0 and max b_ii <= ``_GRADED_RATIO`` * min b_ii.

    O(d), read before any decomposition. The ratio is scale-free: B and s*B
    give the same answer (exactly so for s a power of two, whose product
    rounds nothing).
    """
    diag = np.diagonal(b)
    lo = diag.min()
    return not (lo > 0.0 and diag.max() <= _GRADED_RATIO * lo)


def eig_sym(
    a: SymMatrix,
    order: str = "descending",
    rel_tol: float = JACOBI_REL_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Below d = 16 by cyclic Jacobi, from d = 16 up through a
    Householder tridiagonal form, except for a graded metric B, which stays
    on Jacobi: one whose diagonal has a zero or negative entry, or spans a
    ratio above ``_GRADED_RATIO``. On any other B the tridiagonal kernel's
    error, eps * kappa(B), is within that ratio of Jacobi's relative bound
    eps * kappa(H), B = DHD, since kappa(B) <= kappa(H) * max b_ii / min b_ii
    (see the module docstring). ``rel_tol`` and ``max_sweeps``
    bound Jacobi's off-diagonal norm and its sweeps, or the tridiagonal
    kernel's residuals and its steps; ``ConvergenceFailure`` is raised when
    the kernel runs out of them, and ``EigenvalueOverflow`` when an
    eigenvalue is above the float range (a 2 x 2 all-ones matrix times
    1.7e308, say).

    Eigenvectors come back orthonormal with a deterministic sign: the
    largest-magnitude entry of each column is positive (first such entry
    on ties). Eigenvalues are sorted per ``order``; ties keep the kernel's
    order (Jacobi's rotation order, the tridiagonal kernel's ascending
    one), so results are reproducible bit for bit.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a.array if isinstance(a, Matrix) else a)

    if a.dim < _TRIDIAG_MIN_DIM or (isinstance(a, _Metric) and _graded(a.array)):
        name, kernel = "Jacobi iteration", kernels.jacobi_eigh
    else:
        name, kernel = "tridiagonal eigensolver", kernels.tridiag_eigh
    m, e = _pow2_scaled(a.array)
    w, v, iterations, converged = kernel(m, rel_tol, max_sweeps)
    if not converged:
        raise ConvergenceFailure(
            f"{name} did not reach tolerance after {iterations} iterations (dim {a.dim})"
        )
    w = _pow2_unscaled(w, e)

    key = -w if order == "descending" else w
    idx = np.argsort(key, kind="stable")
    w = w[idx]
    v = v[:, idx]
    v = _fix_column_signs(v)
    return EigenDecomposition(phi=Matrix(v), eigenvalues=tuple(float(x) for x in w), order=order)


def spectral_reconstruct(dec: EigenDecomposition) -> SymMatrix:
    """Rebuild ``Phi diag(lambda) Phi'`` from a decomposition."""
    phi = dec.phi.array
    scaled = phi * np.asarray(dec.eigenvalues, dtype=np.float64)
    rec = kernels.matmul(scaled, phi.T)
    return SymMatrix((rec + rec.T) / 2.0)


def char_poly_eig(a: SymMatrix) -> list[float]:
    """Eigenvalues as roots of det(A - lambda I), descending.

    Only dimensions 1 through 4 are supported: quadratic formula for
    d = 2, the trigonometric solution of the depressed cubic for d = 3,
    and bisection on the eigenvalue count for d = 4 (``_char_quartic``),
    each on A scaled by a power of two at or above ||A||_F (see the module
    docstring); repeated roots appear with their multiplicity.
    """
    d = a.dim
    if d > 4:
        raise UnsupportedDimension(
            f"characteristic-polynomial route supports d <= 4, got d = {d}"
        )
    if not np.any(a.array):
        return [0.0] * d
    m, e = _pow2_scaled(a.array)
    _, k = _pow2_scaled(frobenius_norm(m))
    m = np.ldexp(m, -k).tolist()
    roots = {1: lambda m: [m[0][0]], 2: _char_quadratic, 3: _char_cubic, 4: _char_quartic}[d](m)
    return _pow2_unscaled(roots, e + k).tolist()


def eigvec_for(a: SymMatrix, lam: float, lam_tol: float = 1e-6) -> Vector:
    """A unit eigenvector for a known eigenvalue ``lam``.

    Runs row reduction on ``A - lam I`` and reads a null-space direction
    off the echelon form; pivots at or below ``lam_tol * max|A - lam I|``
    count as zero, so ``lam`` may carry error up to roughly ``lam_tol``
    relative to that scale, and (s*A, s*lam) gives the same direction for
    every s > 0. Raises ``NoNullSpace`` when no direction satisfies the
    residual bound ``||(A - lam I) v|| <= 1e-6 * ||A||_F``.
    """
    d = a.dim
    arr = a.array
    m = [[float(arr[i, j]) - (lam if i == j else 0.0) for j in range(d)] for i in range(d)]
    scale = max((abs(x) for row in m for x in row), default=0.0)
    basis = _null_basis(m, lam_tol * scale)
    if not basis:
        raise NoNullSpace(f"{lam!r} is not an eigenvalue within tolerance {lam_tol}")
    v = basis[0]
    resid = frobenius_norm(np.array([sum(m[i][j] * v[j] for j in range(d)) for i in range(d)]))
    if resid > 1e-6 * frobenius_norm(arr):
        raise NoNullSpace(
            f"null-space candidate has residual {resid:.3e}, "
            f"so {lam!r} is not an eigenvalue"
        )
    return Vector(v)


# ---------------------------------------------------------------------------
# closed-form characteristic roots


def _char_quadratic(m: list) -> list[float]:
    a, b, c = m[0][0], m[0][1], m[1][1]
    half_sum = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    return [half_sum + disc, half_sum - disc]


def _char_cubic(m: list) -> list[float]:
    # Trigonometric solution of the characteristic cubic of a symmetric
    # 3x3 matrix: shift by the mean eigenvalue q, rescale so the roots of
    # the depressed cubic are 2*cos of equally spaced angles.
    a11, a12, a13 = m[0]
    a22, a23 = m[1][1], m[1][2]
    a33 = m[2][2]
    off = a12 * a12 + a13 * a13 + a23 * a23
    if off == 0.0:
        return sorted((a11, a22, a33), reverse=True)
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * off
    p = math.sqrt(p2 / 6.0)
    b = [[(m[i][j] - (q if i == j else 0.0)) / p for j in range(3)] for i in range(3)]
    r = _cofactor_det(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return sorted((e1, e2, e3), reverse=True)


# Roots of the d = 4 count closer than this (||A||_F is in [0.5, 1)) are
# one eigenvalue. Near a repeated eigenvalue the pivot count wavers over up
# to ~3e-9 ||A||_F (rotated 4 x 4 matrices with double and triple
# eigenvalues, 200 seeds each), where the bisection reports it as several
# roots with rises such as +1, -1 and +2.
_SAME_ROOT = 1e-7


def _char_quartic(m: list) -> list[float]:
    """The eigenvalues of the 4 x 4 ``m``, descending, from its count.

    The bisection's roots are grouped where they lie within ``_SAME_ROOT``
    of each other, and each group's rises are netted into the multiplicity
    k of one eigenvalue. A group of more than one root, or with k >= 2, is
    polished on det(A - lambda I) (``_polish_multiple_root``).
    """
    groups: list[list] = []  # [roots, net rise]
    for r, rise in _roots_by_count(lambda x: _inertia_below(m, x, 4)):
        if groups and r - groups[-1][0][-1] <= _SAME_ROOT:
            groups[-1][0].append(r)
            groups[-1][1] += rise
        else:
            groups.append([[r], rise])
    coeffs = None
    found = []
    for rs, k in groups:
        if k <= 0:
            continue
        r = rs[0]
        if len(rs) > 1 or k > 1:
            if coeffs is None:
                eye = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
                coeffs = _pencil_charpoly(m, eye, 4)
            r = _polish_multiple_root(coeffs, sum(rs) / len(rs), k)
        found += [r] * k
    return sorted(found, reverse=True)


# ---------------------------------------------------------------------------
# root finding by counts


def _roots_by_count(count) -> list[tuple[float, int]]:
    """Roots in [-1, 1] found by halving brackets of a counting function.

    ``count(x)`` is the number of roots below x, up to a constant, and is
    defined at every x. The search starts from ±(1 + 1e-6); a bracket over
    which the count rises is halved at its midpoint until its width is at
    most 1e-14, and comes back as ``(midpoint, rise)``. Brackets only split
    where the count changes, so a repeated root costs one bisection.
    Ascending pairs.
    """
    hi = 1.0 + 1e-6
    stack = [(-hi, hi, count(-hi), count(hi))]
    roots = []
    while stack:
        left, right, c_left, c_right = stack.pop()
        if c_right == c_left:
            continue
        mid = 0.5 * (left + right)
        if right - left <= 1e-14:
            roots.append((mid, c_right - c_left))
        else:
            c = count(mid)
            # the left half goes on top, so roots come out ascending
            stack += [(mid, right, c, c_right), (left, mid, c_left, c)]
    return roots


# The pivot that stands in for an exact zero in ``_inertia_below``: far below
# any pivot that roundoff leaves on the scaled matrices (entries below 1),
# while its reciprocal, 2^256, leaves the elimination's products in range.
_PIVMIN = 2.0**-256


def _inertia_below(a: list, x: float, n: int) -> int:
    """Number of eigenvalues of the symmetric ``a`` below ``x``, or just above
    ``x`` where a pivot is exactly zero.

    Counts the negative pivots of A - x I = L D L', eliminated without
    interchanges (Sylvester's law of inertia). A pivot that is exactly
    zero is taken as the tiny negative -``_PIVMIN``, as if x were a little
    larger (the pivmin rule of LAPACK's ``dstebz``), so the count is
    defined at every x.
    """
    m = [[a[i][j] - x if i == j else a[i][j] for j in range(n)] for i in range(n)]
    count = 0
    for k in range(n):
        piv = m[k][k] or -_PIVMIN
        count += piv < 0.0
        for i in range(k + 1, n):
            f = m[i][k] / piv
            row = m[i]
            for j in range(k + 1, n):
                row[j] -= f * m[k][j]
    return count


# ---------------------------------------------------------------------------
# characteristic polynomials, d <= 4


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


def _poly_eval(p: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_deriv(p: list[float]) -> list[float]:
    return [i * c for i, c in enumerate(p)][1:]


def _poly_trim(p: list[float], ref: list[float]) -> list[float]:
    """``p`` with coefficients at or below 1e-13 * max|ref| zeroed, trailing zeros dropped."""
    tol = 1e-13 * max(abs(c) for c in ref)
    out = [c if abs(c) > tol else 0.0 for c in p]
    while out and out[-1] == 0.0:
        out.pop()
    return out


def _poly_divmod(num: list[float], den: list[float]) -> tuple[list[float], list[float]]:
    """(quotient, remainder) of num / den, coefficients in ascending powers."""
    rem = num[:]
    dd = len(den) - 1
    lead = den[-1]
    quot = [0.0] * max(len(num) - dd, 0)
    while len(rem) - 1 >= dd and any(c != 0.0 for c in rem):
        k = len(rem) - 1 - dd
        f = rem[-1] / lead
        quot[k] = f
        for i in range(len(den)):
            rem[k + i] -= f * den[i]
        rem.pop()
    return quot, rem


def _sturm_chain(p: list[float]) -> list[list[float]]:
    """p, p' and the negated remainders of Euclid's algorithm.

    Each remainder is trimmed against the polynomial it was divided out of,
    so one at roundoff level ends the chain: p then has repeated roots, and
    the truncated chain still counts its distinct roots.
    """
    chain = [p, _poly_deriv(p)]
    while len(chain[-1]) > 1:
        rem = _poly_trim([-c for c in _poly_divmod(chain[-2], chain[-1])[1]], chain[-2])
        if not rem:
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


def _polish_multiple_root(coeffs: list[float], mu: float, mult: int) -> float:
    """Re-solve a root of multiplicity ``mult`` as a simple root of the
    (mult-1)-th derivative.

    The polynomial is flat around a multiple root (its value falls below
    roundoff in a zone of width ~ sqrt(machine eps)), which caps a count of
    its sign changes there; the derivative changes sign cleanly. It is
    searched on mu + 1e-6 t for t in [-1, 1], counting 1 at or past its
    root.
    """
    q = coeffs
    for _ in range(mult - 1):
        q = _poly_deriv(q)
    rising = _poly_eval(_poly_deriv(q), mu) > 0.0

    def past(t: float) -> int:
        val = _poly_eval(q, mu + 1e-6 * t)
        return int(val == 0.0 or (val > 0.0) == rising)

    found = _roots_by_count(past)
    return mu + 1e-6 * found[0][0] if len(found) == 1 else mu


# ---------------------------------------------------------------------------
# real roots of a pencil, d <= 4


def _sturm_pairs(a: np.ndarray, b: np.ndarray, lam_reg: list, order: str):
    """(Phi, eigenvalues) of (A != 0, B) at d <= 4, B indefinite with
    eigenvalues ``lam_reg`` (B is B + eps*I where the quick route regularized).

    A and B are scaled by 2^-e_a and 2^-e_b (``_pow2_scaled``), and A
    by 2^-k at or above rho = ||A||_F / min|lambda(B)|, a bound on
    every real eigenvalue: the roots mu of q(mu) = det(A - mu B) lie in
    [-1, 1], and lambda = 2^(e_a + k - e_b) mu. A Sturm chain of q that ends
    in a non-constant g ~ gcd(q, q') means repeated roots, which a count
    locates only to ~eps^(1/m) for an m-fold one; that of q / g is bisected.
    """
    d = a.shape[0]
    a, e_a = _pow2_scaled(a)
    b, e_b = _pow2_scaled(b)
    min_b = math.ldexp(min(abs(x) for x in lam_reg), -e_b)
    _, k = _pow2_scaled(frobenius_norm(a) / min_b)
    a, b = np.ldexp(a, -k).tolist(), b.tolist()
    q = _pencil_charpoly(a, b, d)
    chain = _sturm_chain(q)
    if len(chain[-1]) > 1:
        chain = _sturm_chain(_poly_divmod(q, chain[-1])[0])
    roots = [mu for mu, _ in _roots_by_count(lambda mu: -_sign_variations(chain, mu))]
    phi, mus = _pairs_at_roots(a, b, roots, d, order)
    return phi, _pow2_unscaled(mus, e_a + k - e_b).tolist()


def _pairs_at_roots(
    a: list, b: list, roots: list[float], d: int, order: str
) -> tuple[np.ndarray, list[float]]:
    """Eigenpairs at the ascending real roots of det(A - mu B), all in [-1, 1].

    Each root gets a null basis of A - r B (``_null_bases``); a k-vector
    basis makes r an eigenvalue of multiplicity k. A root with k >= 2 is
    re-solved on det(A - mu B) (``_polish_multiple_root``) before its basis
    is taken again there. The basis vectors already carry the sign rule of
    ``_column_signs`` (``_null_basis``).
    """
    bases = _null_bases(a, b, roots, d)
    if any(len(v) > 1 for _, v in bases):
        coeffs = _pencil_charpoly(a, b, d)
        roots = [_polish_multiple_root(coeffs, r, len(v)) if len(v) > 1 else r for r, v in bases]
        bases = _null_bases(a, b, roots, d)
    found = sum(len(v) for _, v in bases)
    if found != d:
        raise ConvergenceFailure(
            f"the null spaces at the {len(bases)} real roots of det(A - lambda B) "
            f"hold {found} directions for {d} eigenvalues: the pencil has complex "
            "or defective eigenvalues, which this solver does not handle, or roots "
            "too close to tell apart"
        )
    pairs = [(r, vec) for r, basis in bases for vec in basis]
    if order == "descending":
        pairs = pairs[::-1]
    lams = [lam for lam, _ in pairs]
    phi = np.array([vec for _, vec in pairs], dtype=np.float64).T
    return phi, lams


def _null_bases(
    a: list, b: list, roots: list[float], d: int
) -> list[tuple[float, list[list[float]]]]:
    """(root, null basis of A - root B) per ascending root.

    At rank tolerance tol, pivots at or below tol * (max|A| + |r| max|B|)
    count as zero, so the test scales with the pencil. tol starts at 1e-10
    and is loosened for all roots together until the bases hold d
    directions or tol reaches 1e-4.
    """
    max_a = max(abs(x) for row in a for x in row)
    max_b = max(abs(x) for row in b for x in row)
    for tol in (1e-10, 1e-8, 1e-6, 1e-4):
        bases = []
        for r in roots:
            m = [[a[i][j] - r * b[i][j] for j in range(d)] for i in range(d)]
            bases.append((r, _null_basis(m, tol * (max_a + abs(r) * max_b))))
        if sum(len(v) for _, v in bases) >= d:
            break
    return bases


# ---------------------------------------------------------------------------
# null spaces and sign conventions


def _fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip columns so each one's largest-magnitude entry is positive."""
    v = np.asarray(v, dtype=np.float64)
    return v * _column_signs(v)


def _column_signs(v: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1.0 or -1.0) that makes its largest-magnitude
    entry positive, the first such entry on ties.

    Multiplying by it negates a column exactly, so a product such as
    Phi = Phi_B_breve Phi_A stays exact when both sides take the same signs.
    """
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(top < 0.0, -1.0, 1.0)


def _null_basis(m: list, rank_tol: float) -> list[list[float]]:
    """Unit null-space basis of a square matrix via row reduction.

    Pivots with magnitude at or below ``rank_tol`` count as zero. One
    basis vector comes back per free column, each unit length with its
    largest-magnitude entry positive. Vectors after the first are
    orthogonalised against the ones before by modified Gram-Schmidt, so a
    basis of two or more vectors is orthonormal; the first is the
    echelon-form vector of the first free column. Deterministic: partial
    pivoting picks the largest pivot, earliest row on ties.
    """
    n = len(m)
    a = [row[:] for row in m]
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r == n:
            break
        piv = r
        best = abs(a[r][c])
        for i in range(r + 1, n):
            cand = abs(a[i][c])
            if cand > best:
                best = cand
                piv = i
        if best <= rank_tol:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        inv_p = 1.0 / a[r][c]
        row_r = a[r]
        for j in range(n):
            row_r[j] *= inv_p
        row_r[c] = 1.0
        for i in range(n):
            if i != r and a[i][c] != 0.0:
                f = a[i][c]
                row_i = a[i]
                for j in range(n):
                    row_i[j] -= f * row_r[j]
                row_i[c] = 0.0
        pivots.append((r, c))
        r += 1

    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        x = [0.0] * n
        x[free] = 1.0
        for pr, pc in pivots:
            x[pc] = -a[pr][free]
        for q in basis:
            dot = sum(qi * xi for qi, xi in zip(q, x))
            x = [xi - dot * qi for xi, qi in zip(x, q)]
        basis.append(_unit_positive(x))
    return basis


def _unit_positive(x: list[float]) -> list[float]:
    """x scaled to unit length, its largest-magnitude entry positive
    (the first such entry on ties)."""
    norm = math.sqrt(sum(e * e for e in x))
    x = [e / norm for e in x]
    i_max = 0
    best = abs(x[0])
    for i in range(1, len(x)):
        if abs(x[i]) > best:
            best = abs(x[i])
            i_max = i
    if x[i_max] < 0.0:
        x = [-e for e in x]
    return x
