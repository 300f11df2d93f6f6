"""Symmetric eigendecomposition.

The production path, ``eig_sym``, runs one of two kernels of
:mod:`genspectra.kernels`, chosen by the dimension:

* below d = 9, a cyclic-by-row Jacobi iteration, which returns the full
  eigenvector matrix as the accumulated product of rotations. Each sweep
  visits the off-diagonal pairs in row order, rotating each with
  |a_pq| > eps sqrt(|a_pp a_qq|), until a sweep rotates none. Both kernels
  run the sweeps as one loop at every d, on Python lists in
  the pure-Python one and on arrays in the C one;
* from d = 9 up, Householder reduction to a tridiagonal T, root-free QL
  with Wilkinson shifts for T's eigenvalues, inverse iteration on an
  unpivoted LDL' for its eigenvectors and the reflectors back (Golub &
  Van Loan, *Matrix Computations*, ch. 8). It does a fraction of the work
  of Jacobi's ~10 sweeps: at d = 48, 2.1 against 60 ms in pure Python and
  0.16 against 0.79 ms compiled (one CPU of a 2-core x86_64 box, minimum
  of 7 runs).

The one exception is a graded metric: eig(B) in the whitening of
:mod:`genspectra.pencil` (``eig_sym(b, _metric=True)``) stays on Jacobi at
every d when B's diagonal is graded. Jacobi finds the small eigenvalues of
a graded positive definite B = DHD (D = diag(b_ii)^1/2, H with unit
diagonal) to high relative accuracy, an error of eps * kappa(H) (Demmel &
Veselic, SIAM J. Matrix Anal. Appl. 1992); the tridiagonal path only to
eps * ||B||, a relative error of eps * kappa(B) on lambda_min; and the
whitening divides by sqrt(lambda_B). Since kappa(B) <= kappa(H) *
max b_ii / min b_ii, a B whose diagonal is positive and spans a ratio of
at most ``_GRADED_RATIO`` loses at most that factor on the tridiagonal
path, and takes it from d = 9 up. The test reads B's diagonal only, costs
O(d) before any decomposition and gives B and s*B the same kernel. Any
other B, with a wider ratio or a zero or negative diagonal entry, stays
on Jacobi. On B = DHD (H = I + GG'/d, D log-spaced over 10^+-3,
condition ~1e12; d = 16, 24, 32, three seeds each) the smallest
eigenvalue of B comes out with a relative error of 2e-16 to 2e-15 by
Jacobi and 4e-8 to 4e-6 by the tridiagonal path. Jacobi's per-pair rule
keeps that accuracy; the normwise ||off(B)||_F <= 1e-12 ||B||_F it replaced
left errors of up to 1.2e-6 at d = 6 (table in the README's *Backends*).

Every solve keeps its numbers in range by one rule, ``linalg._pow2_scaled``:
its input scaled by 2^-e to a largest entry in [0.5, 1), and the
eigenvalues back by 2^e (``eig_sym`` does so before either kernel). So A
and 2^k A give the same eigenvectors, and eigenvalues 2^k apart, bit for
bit where no entry is subnormal. An eigenvalue that 2^e takes above the
float range raises ``EigenvalueOverflow`` (``linalg._pow2_unscaled``).

For d <= 4 the module also holds ``char_poly_eig``, which solves
det(A - lambda I) = 0 directly: by the quadratic formula for d = 2 and, for
d = 3 and 4, by bisection on the number of eigenvalues below x of a
tridiagonal T = Q'AQ (``_householder`` of the pure-Python kernels), read
off the signs of the pivots of T - x I (a Sturm count, ``_count_below``).
It returns eigenvalues only and exists as an independent cross-check of
``eig_sym``, which takes Jacobi below d = 9 and so shares no kernel with
it there.

Its bisection, ``_roots_by_count``, halves brackets of the count inside
±(1 + 1e-6) down to a width of 1e-14, and repeats each root by the count's
rise over it. The count is monotone in x and defined at every x: an exactly
zero pivot counts as negative. A is first scaled by a power of two at or
above ||A||_F (after ``_pow2_scaled``), so that every root lies in [-1, 1];
A and 2^k A are then the same problem, and their eigenvalues come out
exactly 2^k apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceFailure, NoNullSpace, UnsupportedDimension
from .kernels.pykernels import _householder
from .linalg import (
    Matrix,
    SymMatrix,
    Vector,
    _pow2_scaled,
    _pow2_unscaled,
    frobenius_norm,
)

# The tridiagonal kernel's bound on its residuals ||T z - lambda z||,
# relative to ||A||_F (perfbench/probe.py imports it by this name), and the
# cap on its steps and on Jacobi's rotating sweeps.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

# Jacobi skips a pair (p, q) with |a_pq| <= _JACOBI_PAIR_TOL sqrt(|a_pp a_qq|).
_JACOBI_PAIR_TOL = 2.0 ** -52

# eig_sym takes the tridiagonal kernel from this dimension up. On random
# symmetric matrices it costs less than Jacobi from d = 9 in pure Python
# (the two tie at d = 8; 0.30 against 0.32 ms at 9, 0.49 against 1.55 ms
# at 15) and at every d from 3 compiled (one pinned CPU of a 2-core x86_64
# box, minimum of 7 runs). The d <= 4 pencils keep the Jacobi path.
_TRIDIAG_MIN_DIM = 9

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


def _graded(b: np.ndarray) -> bool:
    """True unless min b_ii > 0 and max b_ii <= ``_GRADED_RATIO`` * min b_ii.

    O(d), read before any decomposition. The ratio is scale-free: B and s*B
    give the same answer (exactly so for s a power of two, whose product
    rounds nothing).
    """
    diag = np.diagonal(b)
    lo = diag.min()
    return not (lo > 0.0 and diag.max() <= _GRADED_RATIO * lo)


def _check_order(order: str) -> None:
    """Raise ``ValueError`` unless ``order`` is one of ``_ORDERS``."""
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")


def eig_sym(a: SymMatrix, order: str = "descending", *, _metric=False) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix.

    Below d = 9 by cyclic Jacobi, from d = 9 up through a
    Householder tridiagonal form, except for a graded metric B, which stays
    on Jacobi: one whose diagonal has a zero or negative entry, or spans a
    ratio above ``_GRADED_RATIO``. On any other B the tridiagonal kernel's
    error, eps * kappa(B), is within that ratio of Jacobi's relative bound
    eps * kappa(H), B = DHD, since kappa(B) <= kappa(H) * max b_ii / min b_ii
    (see the module docstring). ``_metric`` marks such a B; the whitening
    of :mod:`genspectra.pencil` passes it. Jacobi stops after a sweep that
    rotates no pair; ``MAX_SWEEPS`` caps its sweeps and the tridiagonal
    kernel's steps, whose residuals ``JACOBI_REL_TOL`` bounds.
    ``ConvergenceFailure`` is raised when the kernel runs out of them, and
    ``EigenvalueOverflow`` when an eigenvalue is above the float range (a
    2 x 2 all-ones matrix times 1.7e308, say).

    Eigenvectors come back orthonormal with a deterministic sign: the
    largest-magnitude entry of each column is positive (first such entry
    on ties). Eigenvalues are sorted per ``order``; ties keep the kernel's
    order (Jacobi's rotation order, the tridiagonal kernel's ascending
    one), so results are reproducible bit for bit.
    """
    _check_order(order)
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a)

    if a.dim < _TRIDIAG_MIN_DIM or (_metric and _graded(a.array)):
        name, kernel, tol = "Jacobi iteration", kernels.jacobi_eigh, _JACOBI_PAIR_TOL
    else:
        name, kernel, tol = "tridiagonal eigensolver", kernels.tridiag_eigh, JACOBI_REL_TOL
    m, e = _pow2_scaled(a.array)
    w, v, iterations, converged = kernel(m, tol, MAX_SWEEPS)
    if not converged:
        raise ConvergenceFailure(
            f"{name} did not reach tolerance after {iterations} iterations (dim {a.dim})"
        )
    w = _pow2_unscaled(w, e)

    key = -w if order == "descending" else w
    idx = np.argsort(key, kind="stable")
    w = w[idx]
    v = v[:, idx]
    v = v * _column_signs(v)
    return EigenDecomposition(phi=Matrix._wrap(v), eigenvalues=tuple(w.tolist()), order=order)


def spectral_reconstruct(dec: EigenDecomposition) -> SymMatrix:
    """Rebuild ``Phi diag(lambda) Phi'`` from a decomposition."""
    phi = dec.phi.array
    scaled = phi * np.asarray(dec.eigenvalues, dtype=np.float64)
    rec = kernels.matmul(scaled, phi.T)
    return SymMatrix._wrap((rec + rec.T) / 2.0)


def char_poly_eig(a: SymMatrix) -> list[float]:
    """Eigenvalues as roots of det(A - lambda I), descending.

    Only dimensions 1 through 4 are supported, on A scaled by a power of
    two at or above ||A||_F (see the module docstring): the quadratic
    formula for d = 2 and, for d = 3 and 4, a bisection on the Sturm count
    of a tridiagonal T = Q'AQ (``_roots_by_count`` on ``_count_below``).
    Repeated roots appear with their multiplicity.
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
    m = np.ldexp(m, -k)
    if d <= 2:
        roots = [m[0, 0]] if d == 1 else _char_quadratic(m.tolist())
    else:
        diag, off, _ = _householder(m)
        diag, off = diag.tolist(), off.tolist()
        roots = []
        for r, rise in reversed(_roots_by_count(lambda x: _count_below(diag, off, x))):
            roots += [r] * rise
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
    v = _null_vector(m, lam_tol * scale)
    if v is None:
        raise NoNullSpace(f"{lam!r} is not an eigenvalue within tolerance {lam_tol}")
    resid = frobenius_norm(np.array([sum(m[i][j] * v[j] for j in range(d)) for i in range(d)]))
    if not resid <= 1e-6 * frobenius_norm(arr):  # a NaN residual fails too
        raise NoNullSpace(
            f"null-space candidate has residual {resid:.3e}, "
            f"so {lam!r} is not an eigenvalue"
        )
    return Vector(v)


# ---------------------------------------------------------------------------
# characteristic roots


def _char_quadratic(m: list) -> list[float]:
    a, b, c = m[0][0], m[0][1], m[1][1]
    half_sum = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    return [half_sum + disc, half_sum - disc]


def _roots_by_count(count) -> list[tuple[float, int]]:
    """Roots in [-1, 1] found by halving brackets of a counting function.

    ``count(x)`` is the number of roots below x and is defined at every x.
    The search starts from ±(1 + 1e-6); a bracket over which the count
    rises is halved at its midpoint until its width is at most 1e-14, and
    comes back as ``(midpoint, rise)``, the rise being the root's
    multiplicity. Brackets only split where the count changes, so a
    repeated root costs one bisection. Ascending pairs.
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


# The pivot that stands in for an exact zero in ``_count_below``: far below
# any pivot that roundoff leaves on the scaled matrices (entries below 1),
# while its reciprocal, 2^256, leaves the next pivot in range.
_PIVMIN = 2.0**-256


def _count_below(diag: list, off: list, x: float) -> int:
    """Number of eigenvalues of the symmetric tridiagonal (``diag``, ``off``)
    below ``x``, or just above ``x`` where a pivot is exactly zero.

    Counts the negative pivots q_i = (diag[i] - x) - off[i-1]^2 / q_(i-1) of
    T - x I = L D L' (Sylvester's law of inertia), a Sturm count that is
    monotone in x in IEEE arithmetic (Demmel, Dhillon & Ren, ETNA 1995). A
    pivot that is exactly zero is taken as the tiny negative -``_PIVMIN``,
    as if x were a little larger (the pivmin rule of LAPACK's ``dstebz``),
    so the count is defined at every x.
    """
    piv = diag[0] - x or -_PIVMIN
    count = piv < 0.0
    for a, b in zip(diag[1:], off):
        piv = (a - x) - b * b / piv or -_PIVMIN
        count += piv < 0.0
    return count


# ---------------------------------------------------------------------------
# null spaces and sign conventions


def _column_signs(v: np.ndarray) -> np.ndarray:
    """Per column, the sign (+1.0 or -1.0) that makes its largest-magnitude
    entry positive, the first such entry on ties.

    Multiplying by it negates a column exactly, so a product such as
    Phi = Phi_B_breve Phi_A stays exact when both sides take the same signs.
    """
    top = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return np.where(top < 0.0, -1.0, 1.0)


def _null_vector(m: list, rank_tol: float) -> list[float] | None:
    """A unit null vector of a square matrix via row reduction, or None.

    Pivots with magnitude at or below ``rank_tol`` count as zero
    (``_row_reduce``). The vector is the echelon-form one of the
    first free column, unit length with its largest-magnitude entry
    positive; None where no column is free.
    """
    n = len(m)
    a = [row[:] for row in m]
    pivots = _row_reduce(a, rank_tol)
    pivot_cols = {c for _, c in pivots}
    free = next((c for c in range(n) if c not in pivot_cols), None)
    if free is None:
        return None
    x = [0.0] * n
    x[free] = 1.0
    for pr, pc in pivots:
        x[pc] = -a[pr][free]
    return _unit_positive(x)


def _row_reduce(rows: list, tol: float) -> list[tuple[int, int]]:
    """Reduce the square ``rows`` in place to reduced echelon form, by
    Gauss-Jordan elimination; the (row, column) of each pivot.

    Partial pivoting takes the largest-magnitude entry at or below the
    current row, the earliest row on ties; a column whose largest is at or
    below ``tol`` has no pivot and is skipped, so the number of pivots is
    the numerical rank.
    """
    n = len(rows)
    pivots: list[tuple[int, int]] = []
    r = 0
    for c in range(n):
        if r == n:
            break
        piv = max(range(r, n), key=lambda i: abs(rows[i][c]))
        if abs(rows[piv][c]) <= tol:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        inv_p = 1.0 / rows[r][c]
        row_r = rows[r]
        for j in range(n):
            row_r[j] *= inv_p
        row_r[c] = 1.0
        for i in range(n):
            if i != r and rows[i][c] != 0.0:
                f = rows[i][c]
                row_i = rows[i]
                for j in range(n):
                    row_i[j] -= f * row_r[j]
                row_i[c] = 0.0
        pivots.append((r, c))
        r += 1
    return pivots


def _unit_positive(x: list[float]) -> list[float]:
    """x scaled to unit length, with the sign of ``_column_signs``."""
    norm = math.sqrt(sum(e * e for e in x))
    x = np.array([e / norm for e in x])
    return (x * _column_signs(x[:, None])).tolist()
