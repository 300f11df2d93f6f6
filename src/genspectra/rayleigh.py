"""Rayleigh-quotient optimization forms.

Every form here is a quadratic objective under a quadratic constraint, and
every one of them is solved exactly by an eigendecomposition:

* form 1: extremize u'Au subject to u'Bu = 1 (one direction);
* form 2: extremize tr(Phi'APhi) subject to Phi'BPhi = I (p directions);
* forms 3/4: minimize the reconstruction error ||X - Phi Phi' X||_F^2,
  which is form 2 on A = XX'.

``check_stationarity`` verifies the shared first-order condition
(A - lambda B) u = 0 with lambda the Rayleigh quotient at u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DegenerateDenominator,
    DimensionMismatch,
    NonOrthonormalBasis,
    ZeroVector,
)
from .eigen import eig_sym
from .linalg import Matrix, SymMatrix, Vector, _pow2_scaled
from .pencil import _whiten_core, _whitening

_DIRECTIONS = ("maximize", "minimize")

# Orthonormality slack accepted by reconstruction_objective.
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class QuadraticForm:
    """The objective u'Au (or tr(Phi'APhi)) with optional metric B.

    ``b`` is the identity when absent. ``subspace_dim`` is the number of
    directions the form ranges over; form-1 solvers require 1.
    """

    a: SymMatrix
    b: SymMatrix | None = None
    direction: str = "maximize"
    subspace_dim: int = 1

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}, got {self.direction!r}")
        if self.b is not None and self.b.dim != self.a.dim:
            raise DimensionMismatch(
                f"form matrices must share a dimension, got {self.a.dim} and {self.b.dim}"
            )
        if not 1 <= self.subspace_dim <= self.a.dim:
            raise DimensionMismatch(
                f"subspace_dim must lie in [1, {self.a.dim}], got {self.subspace_dim}"
            )


@dataclass(frozen=True)
class StationarityReport:
    """First-order-condition audit at a point u.

    ``multiplier`` is the Rayleigh quotient, ``residual`` the 2-norm of
    (A - multiplier*B) u, and ``constraint_violation`` is |u'Bu - 1|.
    """

    residual: float
    multiplier: float
    constraint_violation: float


def rayleigh_quotient(u: Vector, a: SymMatrix, b: SymMatrix | None = None) -> float:
    """The fraction u'Au / u'Bu, with B = I when absent.

    Scale-invariant in u at every scale: formed on ``_pow2_scaled(u)``, so
    u * 2^k gets the bits of u for every k. Raises ``ZeroVector`` for
    u = 0 and ``DegenerateDenominator`` when |u'Bu| < 1e-14 * ||u||^2.
    """
    return _quotient(u, a, b)[0]


def solve_form1(q: QuadraticForm) -> tuple[Vector, float]:
    """One extremal direction of u'Au subject to u'Bu = 1.

    Maximizing returns the eigenpair with the largest eigenvalue of the
    (generalized) problem, minimizing the smallest.
    """
    if q.subspace_dim != 1:
        raise DimensionMismatch(f"form 1 needs subspace_dim = 1, got {q.subspace_dim}")
    phi, lams = _extremal_pairs(q.a, q.b, 1, q.direction)
    return phi.col(0), lams[0]


def solve_form2(q: QuadraticForm, p: int) -> tuple[Matrix, list[float]]:
    """A p-dimensional extremal frame of tr(Phi'APhi) under Phi'BPhi = I.

    Maximizing returns the top p eigenpairs sorted descending; minimizing
    the bottom p sorted ascending. The achieved trace equals the sum of
    the returned eigenvalues.
    """
    if not 1 <= p <= q.a.dim:
        raise DimensionMismatch(f"p must lie in [1, {q.a.dim}], got {p}")
    return _extremal_pairs(q.a, q.b, p, q.direction)


def reconstruction_objective(x: Matrix, phi: Matrix | Vector) -> float:
    """The squared reconstruction error ||X - Phi Phi' X||_F^2.

    ``phi`` must have orthonormal columns (within 1e-8 in max norm); a
    plain vector is treated as a single column.
    """
    if isinstance(phi, Vector):
        phi = Matrix(phi.array.reshape(-1, 1))
    if phi.rows != x.rows:
        raise DimensionMismatch(
            f"basis has {phi.rows} rows but the data has {x.rows}"
        )
    parr = phi.array
    gram = kernels.matmul(parr.T, parr)
    dev = float(np.max(np.abs(gram - np.eye(phi.cols))))
    if dev > ORTHO_TOL:
        raise NonOrthonormalBasis(
            f"basis columns deviate from orthonormality by {dev:.3e}"
        )
    coords = kernels.matmul(parr.T, x.array)
    resid = x.array - kernels.matmul(parr, coords)
    return float(np.sum(resid * resid))


def solve_form3_4(x: Matrix, p: int, b: SymMatrix | None = None) -> tuple[Matrix, list[float]]:
    """Best p-dimensional reconstruction basis for the columns of X.

    Minimizing ||X - Phi Phi' X||_F^2 over orthonormal Phi is the same as
    maximizing tr(Phi' XX' Phi), so this returns the top-p (generalized)
    eigenpairs of A = XX'.
    """
    if not 1 <= p <= x.rows:
        raise DimensionMismatch(f"p must lie in [1, {x.rows}], got {p}")
    xa = x.array
    q = QuadraticForm(SymMatrix._wrap(kernels.matmul(xa, xa.T)), b)
    return _extremal_pairs(q.a, q.b, p, "maximize")


def check_stationarity(
    u: Vector, a: SymMatrix, b: SymMatrix | None = None
) -> StationarityReport:
    """Audit the first-order condition (A - lambda B) u = 0 at u.

    ``lambda`` is taken as the Rayleigh quotient at u; for a true
    (generalized) eigenvector the residual vanishes up to roundoff.
    """
    lam, den, am, bm, e = _quotient(u, a, b)
    resid = am - lam * bm
    # back in u's units: (A - lam B) u = 2^e (A - lam B) m, u'Bu = 4^e m'Bm
    return StationarityReport(
        residual=_ldexp(math.sqrt(float(np.dot(resid, resid))), e),
        multiplier=lam,
        constraint_violation=abs(_ldexp(den, 2 * e) - 1.0),
    )


# ---------------------------------------------------------------------------


def _ldexp(x: float, e: int) -> float:
    """x * 2^e, or an infinity of x's sign where that is above the float
    range; no warning either way."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def _quotient(
    u: Vector, a: SymMatrix, b: SymMatrix | None
) -> tuple[float, float, np.ndarray, np.ndarray, int]:
    """(m'Am / m'Bm, m'Bm, A m, B m, e) for m = u * 2^-e = ``_pow2_scaled(u)``,
    whose m'm >= 1/4 at every scale of u, under the checks of
    ``rayleigh_quotient``; B m is m when B is absent."""
    if u.dim != a.dim:
        raise DimensionMismatch(f"vector dim {u.dim} does not match matrix dim {a.dim}")
    if b is not None and b.dim != a.dim:
        raise DimensionMismatch(f"metric dim {b.dim} does not match matrix dim {a.dim}")
    m, e = _pow2_scaled(u.array)
    mm = float(np.dot(m, m))
    if mm == 0.0:
        raise ZeroVector("the Rayleigh quotient is undefined at u = 0")
    am = kernels.matmul(a.array, m.reshape(-1, 1)).ravel()
    bm = m if b is None else kernels.matmul(b.array, m.reshape(-1, 1)).ravel()
    den = float(np.dot(m, bm))
    if abs(den) < 1e-14 * mm:
        raise DegenerateDenominator(
            f"u'Bu / ||u||^2 = {den / mm:.3e} is degenerate (below 1e-14)"
        )
    return float(np.dot(m, am)) / den, den, am, bm, e


def _extremal_pairs(
    a: SymMatrix, b: SymMatrix | None, p: int, direction: str
) -> tuple[Matrix, list[float]]:
    order = "descending" if direction == "maximize" else "ascending"
    if b is None:
        dec = eig_sym(a, order=order)
        phi, lams = dec.phi.array, dec.eigenvalues
    else:
        # the whitening route of solve_rigorous, without the diagnostics
        # the frame would not report
        phi, _, _, lams = _whiten_core(a.array, _whitening(b.array, None).w, order)
    return Matrix._wrap(phi[:, :p]), list(lams[:p])
