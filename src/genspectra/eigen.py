"""Symmetric eigendecomposition.

The production path is a round-robin Jacobi iteration (through
:mod:`genspectra.kernels`), which is simple, dependably accurate for the
dense symmetric matrices this package targets, and returns the full
eigenvector matrix as the accumulated product of rotations. Each round
rotates disjoint index pairs with angles taken from the matrix as it was
before the round, so a round is elementwise work: vectorised in the
pure-Python kernels and a plain loop in the hand-written C ones.

For d <= 4 the module also solves the characteristic polynomial
det(A - lambda I) = 0 directly: closed forms for d <= 3 and a bisection on
the eigenvalue-counting function for d = 4. That route returns eigenvalues
only and exists as an independent cross-check of the Jacobi path.

Its bisection, ``_roots_by_count``, is the one root finder of every count
on the d <= 4 paths, here and in :mod:`genspectra.pencil`: it halves
brackets of a counting function inside one bracket, ±rho * (1 + 1e-6)
with rho = ||A||_F / min|lambda(B)| (which bounds every real eigenvalue of
a pencil with nonsingular B), and stops at one width relative to the
bracket ends and rho. No step of it has an absolute floor, so the pencils
(A, B) and (t*A, s*B) are solved alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConvergenceFailure, NoNullSpace, UnsupportedDimension
from .linalg import Matrix, SymMatrix, Vector, _cofactor_det

# Jacobi stops once the off-diagonal norm falls below
# JACOBI_REL_TOL * ||A||_F, or fails after MAX_SWEEPS sweeps.
JACOBI_REL_TOL = 1e-12
MAX_SWEEPS = 100

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


def eig_sym(
    a: SymMatrix,
    order: str = "descending",
    rel_tol: float = JACOBI_REL_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by round-robin Jacobi.

    Eigenvectors come back orthonormal with a deterministic sign: the
    largest-magnitude entry of each column is positive (first such entry
    on ties). Eigenvalues are sorted per ``order``; ties keep the
    rotation-order position, so results are reproducible bit for bit.
    """
    if order not in _ORDERS:
        raise ValueError(f"order must be one of {_ORDERS}, got {order!r}")
    if not isinstance(a, SymMatrix):
        a = SymMatrix(a.array if isinstance(a, Matrix) else a)

    w, v, sweeps, converged = kernels.jacobi_eigh(a.array, rel_tol, max_sweeps)
    if not converged:
        raise ConvergenceFailure(
            f"Jacobi iteration did not reach tolerance after {sweeps} sweeps "
            f"(dim {a.dim})"
        )

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
    and bisection on the eigenvalue count in [-||A||_F, ||A||_F] for
    d = 4. Repeated roots appear with their multiplicity.
    """
    d = a.dim
    m = a.array.tolist()
    if d == 1:
        return [m[0][0]]
    if d == 2:
        return _char_quadratic(m)
    if d == 3:
        return _char_cubic(m)
    if d == 4:
        # the pencil bound ||A||_F / min|lambda(B)| with B = I
        bound = math.sqrt(float(np.sum(a.array * a.array)))
        if bound == 0.0:
            return [0.0] * 4
        roots = _roots_by_count(lambda x: _inertia_below(m, x, 4), bound)
        return [r for r, jump in reversed(roots) for _ in range(jump)]
    raise UnsupportedDimension(
        f"characteristic-polynomial route supports d <= 4, got d = {d}"
    )


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
    resid = math.sqrt(
        sum(sum(m[i][j] * v[j] for j in range(d)) ** 2 for i in range(d))
    )
    fro = math.sqrt(float(np.sum(arr * arr)))
    if resid > 1e-6 * fro:
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


# ---------------------------------------------------------------------------
# root finding by counts (shared with the pencil solver)

# Offsets, in bracket widths, tried in turn from a midpoint where the count
# cannot be evaluated.
_NUDGES = (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6)


def _roots_by_count(count, bound: float) -> list[tuple[float, int]]:
    """Roots in [-bound, bound] found by halving brackets of a counting function.

    ``count(x)`` is the number of roots below x, up to a constant, or None
    where it cannot be evaluated. The search starts from
    ±bound * (1 + 1e-6); a bracket over which the count rises is halved,
    trying the midpoint and then each of ``_NUDGES``, until its width is at
    most 1e-14 * max(|left|, |right|, bound), and comes back as
    ``(midpoint, rise)``. A bracket in which no nudge can be evaluated is
    taken as resolved. Brackets only split where the count changes, so a
    repeated root costs one bisection. Returns ascending pairs.
    """
    hi = bound * (1.0 + 1e-6)
    stack = [(-hi, hi, count(-hi), count(hi))]
    roots = []
    while stack:
        left, right, c_left, c_right = stack.pop()
        if c_right == c_left:
            continue
        width = right - left
        mid = 0.5 * (left + right)
        c = None
        if width > 1e-14 * max(abs(left), abs(right), bound):
            for x in (mid + nudge * width for nudge in _NUDGES):
                c = count(x)
                if c is not None:
                    break
        if c is None:
            roots.append((mid, c_right - c_left))
        else:
            # the left half goes on top, so roots come out ascending
            stack += [(x, right, c, c_right), (left, x, c_left, c)]
    return roots


def _inertia_below(a: list, x: float, n: int) -> int | None:
    """Number of eigenvalues of the symmetric ``a`` strictly below ``x``.

    Counts sign changes along the sequence of leading principal minors of
    A - x I. A minor that is exactly zero leaves the count undefined, and
    None comes back.
    """
    m = [[a[i][j] - x if i == j else a[i][j] for j in range(n)] for i in range(n)]
    count = 0
    prev = 1.0
    for k in range(1, n + 1):
        det = _cofactor_det([row[:k] for row in m[:k]])
        if det == 0.0:
            return None
        if (det > 0.0) != (prev > 0.0):
            count += 1
        prev = det
    return count


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
