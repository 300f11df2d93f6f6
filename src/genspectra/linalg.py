"""Dense real matrices and vectors, plus the shared matrix predicates.

numpy arrays are used as storage and for elementwise arithmetic only.
Everything with cubic cost (products, determinants) is written out
explicitly, either here or in :mod:`genspectra.kernels`.

Conventions used throughout the package:

* matrices are immutable once constructed and always hold finite floats;
* ``SymMatrix`` symmetrizes its input to ``(M + M') / 2`` after checking
  that the asymmetry is within tolerance, so downstream code can rely on
  exact symmetry;
* data matrices place one sample per column.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import (
    DimensionMismatch,
    EigenvalueOverflow,
    NonFiniteEntry,
    NotSymmetric,
)

# Relative asymmetry accepted by SymMatrix: max |M - M'| over
# sym_tol * max |entry|.
SYM_TOL = 1e-9

# Singularity and definiteness are decided relative to the scale of the
# matrix, so that s*M gets the same verdict as M for every s > 0. A
# symmetric matrix is numerically singular when an eigenvalue lies in
# [-INDEFINITE_TOL, SINGULAR_TOL] * max|eigenvalue|, and indefinite when its
# smallest eigenvalue lies below -INDEFINITE_TOL * max|eigenvalue|.
SINGULAR_TOL = 1e-12
INDEFINITE_TOL = 1e-9


def _as_2d(entries) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(f"not a rectangular numeric array: {exc}") from exc
    if arr.ndim != 2:
        raise DimensionMismatch(f"matrix needs 2 dimensions, got {arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatch("matrix needs at least one row and one column")
    if not np.isfinite(arr).all():
        raise NonFiniteEntry("matrix entries must be finite")
    return arr


class Matrix:
    """Immutable rows x cols matrix of finite floats."""

    __slots__ = ("_data",)

    def __init__(self, entries):
        arr = _as_2d(entries)
        arr.setflags(write=False)
        self._data = arr

    @property
    def rows(self) -> int:
        return self._data.shape[0]

    @property
    def cols(self) -> int:
        return self._data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only view of the underlying storage."""
        return self._data

    @property
    def T(self) -> "Matrix":
        return transpose(self)

    def col(self, j: int) -> "Vector":
        return Vector(self._data[:, j])

    def __getitem__(self, idx) -> float:
        return float(self._data[idx])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def __repr__(self):
        return f"{type(self).__name__}({self._data.tolist()!r})"


class SymMatrix(Matrix):
    """Square symmetric matrix; stores the symmetrized part of its input,
    (A + A') / 2, without overflow: an exactly symmetric input is stored
    unchanged.

    An input whose bits equal its transpose's is stored as it is, with no
    further pass over it: (A + A') / 2 would give the same bits. Any other
    input, a mirrored -0.0 / +0.0 pair included, fails construction with
    ``NotSymmetric`` when the asymmetry exceeds ``sym_tol * max|entry|``.
    That is measured on ``_pow2_scaled(M)``, so no difference overflows and
    2^k M gets the verdict of M.
    """

    __slots__ = ()

    def __init__(self, entries, sym_tol: float = SYM_TOL):
        arr = _as_2d(entries)
        if arr.shape[0] != arr.shape[1]:
            raise NotSymmetric(f"symmetric matrix must be square, got {arr.shape}")
        bits = arr.view(np.int64)
        if np.array_equal(bits, bits.T):
            arr.setflags(write=False)
            self._data = arr
            return
        m, e = _pow2_scaled(arr)
        top = float(np.max(np.abs(m)))
        asym = float(np.max(np.abs(m - m.T)))
        if asym > sym_tol * top:
            raise NotSymmetric(
                f"asymmetry {asym / top:.3e} relative to the largest entry "
                f"exceeds tolerance {sym_tol:.3e}"
            )
        if e < 1024:  # no sum of two entries can overflow
            sym = (arr + arr.T) / 2.0
        else:
            # where a sum overflows both entries are huge, and halving them
            # first is exact
            with np.errstate(over="ignore"):
                total = arr + arr.T
            sym = np.where(np.isfinite(total), total / 2.0, arr / 2.0 + arr.T / 2.0)
        sym.setflags(write=False)
        self._data = sym

    @property
    def dim(self) -> int:
        return self._data.shape[0]


class Vector:
    """Immutable vector of finite floats."""

    __slots__ = ("_data",)

    def __init__(self, entries):
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 1:
            raise DimensionMismatch(f"vector needs 1 dimension, got {arr.ndim}")
        if arr.shape[0] < 1:
            raise DimensionMismatch("vector needs at least one entry")
        if not np.isfinite(arr).all():
            raise NonFiniteEntry("vector entries must be finite")
        arr.setflags(write=False)
        self._data = arr

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def array(self) -> np.ndarray:
        return self._data

    def norm(self) -> float:
        """||v||, by ``frobenius_norm``: no square overflows or underflows."""
        return frobenius_norm(self._data)

    def __len__(self) -> int:
        return self.dim

    def __getitem__(self, i: int) -> float:
        return float(self._data[i])

    def __repr__(self):
        return f"Vector({self._data.tolist()!r})"


# ---------------------------------------------------------------------------
# operations


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product through the active kernel backend."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"cannot multiply {a.shape} by {b.shape}")
    return Matrix(kernels.matmul(a.array, b.array))


def transpose(a: Matrix) -> Matrix:
    return Matrix(a.array.T)


def trace(a: Matrix) -> float:
    if a.rows != a.cols:
        raise DimensionMismatch(f"trace needs a square matrix, got {a.shape}")
    return float(np.sum(np.diag(a.array)))


def _pow2_scaled(x):
    """(x * 2**-e, e) for an array or float x, the largest |entry| of the result
    in [0.5, 1), or e = 0 where x is all zero or not finite; by ``np.ldexp``."""
    e = math.frexp(float(np.abs(x).max(initial=0.0)))[1]
    return np.ldexp(x, -e), e


def _pow2_unscaled(w, e: int) -> np.ndarray:
    """``np.ldexp(w, e)``: eigenvalues w of a matrix scaled by ``_pow2_scaled``,
    back in its units. Raises ``EigenvalueOverflow``, naming the exponent, where
    one of them is above the float range."""
    m, k = math.frexp(float(np.abs(w).max(initial=0.0)))
    if k + e > 1024:
        raise EigenvalueOverflow(
            f"eigenvalue of magnitude {m:.6f} * 2^{k + e} is above the float range (2^1024)"
        )
    return np.ldexp(w, e)


def frobenius_norm(a: Matrix | np.ndarray) -> float:
    """||A||_F of a matrix or array, summed on ``_pow2_scaled(A)``: no square
    overflows or underflows, and the bits are sqrt(sum(a * a))'s where none did.
    A norm above the float range is inf."""
    m, e = _pow2_scaled(a.array if isinstance(a, Matrix) else a)
    try:
        return math.ldexp(math.sqrt(float((m * m).sum())), e)
    except OverflowError:
        return math.inf


def dot(u: Vector, v: Vector) -> float:
    if u.dim != v.dim:
        raise DimensionMismatch(f"dot of dims {u.dim} and {v.dim}")
    return float(np.dot(u.array, v.array))


# No caller in the package; kept while perfbench/tracer.py binds it by name.
def determinant(a: Matrix) -> float:
    """Determinant via LU with partial pivoting."""
    if a.rows != a.cols:
        raise DimensionMismatch(f"determinant needs a square matrix, got {a.shape}")
    return _lu_det(a.array.tolist())


def identity(n: int) -> SymMatrix:
    if n < 1:
        raise DimensionMismatch("identity needs n >= 1")
    return SymMatrix(np.eye(n))


def centering_matrix(n: int) -> SymMatrix:
    """The projector ``I - (1/n) 11'`` that removes the mean."""
    if n < 1:
        raise DimensionMismatch("centering matrix needs n >= 1")
    return SymMatrix(np.eye(n) - 1.0 / n)


def definiteness(eigenvalues) -> tuple[bool, bool]:
    """``(indefinite, singular)`` for a symmetric matrix with these eigenvalues.

    With ``top = max|eigenvalue|``: indefinite when the smallest eigenvalue
    is below ``-INDEFINITE_TOL * top``; singular when some eigenvalue lies
    in ``[-INDEFINITE_TOL * top, SINGULAR_TOL * top]``. A matrix can be
    both, e.g. diag(1, -1, 0).
    """
    top = max(abs(x) for x in eigenvalues)
    indefinite = min(eigenvalues) < -INDEFINITE_TOL * top
    return indefinite, bool(null_eigenvalues(eigenvalues))


def null_eigenvalues(eigenvalues) -> list[int]:
    """Positions of the eigenvalues that count as zero for ``definiteness``.

    Those in ``[-INDEFINITE_TOL * top, SINGULAR_TOL * top]``, with
    ``top = max|eigenvalue|``; their eigenvectors span the numerical null
    space.
    """
    top = max(abs(x) for x in eigenvalues)
    low, high = -INDEFINITE_TOL * top, SINGULAR_TOL * top
    return [i for i, x in enumerate(eigenvalues) if low <= x <= high]


# ---------------------------------------------------------------------------
# list-level helpers


def _lu_det(m: list) -> float:
    """Determinant from LU with partial pivoting; mutates its copy."""
    n = len(m)
    m = [row[:] for row in m]
    det = 1.0
    for k in range(n):
        piv = max(range(k, n), key=lambda r: abs(m[r][k]))
        if m[piv][k] == 0.0:
            return 0.0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        for r in range(k + 1, n):
            f = m[r][k] / pivot
            if f != 0.0:
                row_r = m[r]
                row_k = m[k]
                for c in range(k + 1, n):
                    row_r[c] -= f * row_k[c]
                row_r[k] = 0.0
    return det
