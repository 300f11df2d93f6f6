"""Pure-Python compute kernels.

These are the reference implementations of the package's hot loops: dense
matrix multiplication, two symmetric eigensolvers, the cyclic Jacobi
iteration and a Householder-tridiagonal solver (``tridiag_eigh``), and the
inverse Cholesky factor of a metric (``cholesky_inverse``).
``genspectra.kernels`` swaps in the compiled twins, written by hand in C,
when they are available; both backends perform the same operations in the
same order, using only + - * / and sqrt, so results agree to the last bit
on IEEE-754 hardware. The one exception is which NaN a sum keeps where two
NaNs meet in it (its sign and payload): IEEE-754 leaves that open, and the
two backends may differ there.

``matmul`` evaluates its products and sums with numpy, one block of the
inner dimension at a time, but adds the terms of each entry strictly in
the order of the compiled loop: ``_sums_down`` reduces the outer axis of a
C-ordered block one slice after another (observed numpy behaviour, guarded
by tests; see ``_sums_down``). ``jacobi_eigh`` runs its sweeps
of rotations on Python lists at every d, one loop like the C twin's.

``tridiag_eigh`` adds its sums in the C loops' order with ``_sums_down``
(a row sum of an exactly symmetric block as its column sum); it runs the
QL iteration on Python floats and the inverse iteration as numpy
operations across all shifts at once; the C twin runs the same arithmetic
one shift at a time.

The eigensolvers do no scaling of their own: they take ``eigen.eig_sym``'s
input, scaled by a power of two so that its largest entry lies in [0.5, 1).

``cholesky_inverse`` is one elementwise numpy rank-1 update per column;
every entry it reads goes through the same operations in the C twin.
"""

from __future__ import annotations

import math

import numpy as np


# Products a[i, k] * b[k, j] that ``matmul`` holds at once: 2**16 doubles
# (512 KiB), or one k's m * n products when those are more.
_BLOCK_TERMS = 1 << 16


def _sums_down(terms: np.ndarray, start: float, out: np.ndarray | None = None) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...`` along axis 0, added left to right.

    numpy reduces the outer axis of a C-ordered array one slice at a time,
    out = out + terms[k], vectorised across the entries of a slice; it
    would sum an axis that runs along memory pairwise instead, so other
    layouts are made C-ordered first, and slices of a single entry are
    accumulated. That slice-by-slice order is how numpy behaves (seen with
    numpy 2.4), not something its documentation promises;
    ``test_sums_down_adds_from_start_one_slice_after_another`` and
    ``test_matmul_outer_axis_sums_match_loop_bit_for_bit`` fail if a numpy
    release changes it.

    ``start`` is 0.0 for the C loops' sums that start at 0.0, and -0.0 for
    those that start at their first term (-0.0 + x is x for every x). The
    sums go into ``out`` when it is given; ``terms`` may be overwritten.
    """
    if terms[0].size == 1:
        # (t0 + t1 + ...) + start differs from start + t0 + t1 + ... at
        # most in the sign of a zero result, which the trailing add sets.
        return np.add(np.add.accumulate(terms, axis=0, out=terms)[-1], start, out=out)
    terms = np.ascontiguousarray(terms)
    return np.add.reduce(terms, axis=0, out=out, initial=start)


# Overflow gives inf and 0.0 * inf gives nan silently, as in C. (As a
# decorator the errstate is built once, not on every call.)
@np.errstate(over="ignore", invalid="ignore")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two 2-D float arrays, adding each entry's terms in k order.

    ``out[i, j]`` is ``0.0 + a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + ...``
    added left to right, with the terms where ``a[i, k] == 0.0`` left out:
    the operations of the compiled triple loop, in its order. A block of k
    forms its terms as one C-ordered (K, m, n) array, and ``_sums_down``
    adds them along k onto the running sums, one k after another; ``@``,
    ``np.dot`` and ``np.sum`` would add in another order.

    Where two NaNs meet in a sum, which one comes out (its sign and
    payload) is not specified and may differ from the compiled loop's;
    an entry is NaN exactly where the loop's is, and every other entry
    has the loop's bits.

    Shapes must already be compatible; the caller validates them.
    """
    at = np.asarray(a, dtype=np.float64).T
    b = np.asarray(b, dtype=np.float64)
    inner, m = at.shape
    n = b.shape[1]
    if m * n == 0 or inner == 0:
        return np.zeros((m, n))
    step = max(1, _BLOCK_TERMS // (m * n))
    sums = None
    for k0 in range(0, inner, step):
        ak = at[k0:k0 + step]
        # C order puts k outermost, so that the sums run along it slice by
        # slice; numpy would lay the terms out like the (transposed) a.
        terms = np.multiply(ak[:, :, None], b[k0:k0 + step, None, :], order="C")
        if np.count_nonzero(ak) < ak.size:
            # The loop skips these terms; 0.0 * inf or 0.0 * nan would
            # turn its sum into nan.
            terms[ak == 0.0] = 0.0
        if sums is not None:
            np.add(sums, terms[0], out=terms[0])
        # Into the running sums, which are in terms[0] by now: one (m, n)
        # array lives next to the block.
        sums = _sums_down(terms, 0.0, out=sums)
        del terms
    return sums


def jacobi_eigh(a: np.ndarray, rel_tol: float, max_sweeps: int):
    """Cyclic-by-row Jacobi iteration on a symmetric matrix.

    A sweep visits the off-diagonal pairs (p, q), p < q, in row order
    (Golub & Van Loan, section 8.5), skipping a pair whose a_pq is 0.0.
    Each rotation rotates rows p and q of M and of V transposed, writes the
    new entries of M into columns p and q too, so M stays exactly
    symmetric, and then sets the rotated 2x2 block exactly. The sweep loop
    stops once the off-diagonal Frobenius norm drops below ``rel_tol``
    times the Frobenius norm of the input. The sweeps run on Python lists,
    M by rows and V by columns.

    Returns ``(w, v, sweeps, converged)`` where ``w`` holds the (unsorted)
    diagonal after the final sweep and the columns of ``v`` are the
    accumulated rotations, i.e. the eigenvectors in the same order.
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    acc = 0.0
    for x in a.ravel().tolist():
        acc += x * x
    thresh = rel_tol * math.sqrt(acc)
    m = a.tolist()
    # Rows of V transposed, so that V's column-pair updates run along rows
    # in the same loop as the row-pair updates of M.
    vt = np.eye(d).tolist()
    cols = range(d)
    sweeps = 0
    converged = _offdiag_norm(m, d) <= thresh
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        for p in range(d - 1):
            mp, vp = m[p], vt[p]
            for q in range(p + 1, d):
                apq = mp[q]
                if apq == 0.0:
                    continue
                mq, vq = m[q], vt[q]
                app, aqq = mp[p], mq[q]
                # t = tan of the angle that zeroes apq, the smaller root of
                # t^2 + 2 tau t - 1; apq denormal-tiny next to the diagonal
                # gap makes tau infinite, and the rotation the identity
                tau = (aqq - app) / (2.0 * apq)
                if math.isinf(tau):
                    t = 0.0
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for j in cols:
                    x = mp[j]
                    y = mq[j]
                    x, y = c * x - s * y, s * x + c * y
                    mp[j] = x
                    mq[j] = y
                    # column entries (j, p) and (j, q); at j = p, q these
                    # are the 2x2 block, which is set exactly below
                    row = m[j]
                    row[p] = x
                    row[q] = y
                    x = vp[j]
                    y = vq[j]
                    vp[j] = c * x - s * y
                    vq[j] = s * x + c * y
                mp[p] = app - t * apq
                mq[q] = aqq + t * apq
                mp[q] = 0.0
                mq[p] = 0.0
        converged = _offdiag_norm(m, d) <= thresh
    w = np.array([m[i][i] for i in range(d)], dtype=np.float64)
    return w, np.array(vt, dtype=np.float64).reshape(d, d).T.copy(), sweeps, converged


def _offdiag_norm(m: list, d: int) -> float:
    acc = 0.0
    for i in range(d - 1):
        row = m[i]
        for j in range(i + 1, d):
            acc += row[j] * row[j]
    return math.sqrt(2.0 * acc)


def cholesky_inverse(b: np.ndarray) -> np.ndarray | None:
    """L^-1 for B = L L' (Cholesky), or None when a pivot is not positive.

    Right-looking: step k takes column k of L from the pivot and column k
    of the Schur complement, subtracts its outer product from the trailing
    block, and eliminates it from the rows of L^-1 below row k. Each step
    is a few elementwise numpy row and rank-1 updates, in a fixed order,
    so L^-1 does not depend on the kernel backend.
    """
    d = b.shape[0]
    schur = np.array(b, dtype=np.float64)
    inv_l = np.eye(d)
    for k in range(d):
        pivot = schur[k, k]
        if not pivot > 0.0:
            return None
        l_kk = math.sqrt(pivot)
        col = schur[k + 1 :, k] / l_kk  # column k of L below the diagonal
        schur[k + 1 :, k + 1 :] -= col[:, None] * col
        row = inv_l[k, : k + 1]
        row /= l_kk
        inv_l[k + 1 :, : k + 1] -= col[:, None] * row
    return inv_l


# ---------------------------------------------------------------------------
# Householder reduction to tridiagonal form, QL eigenvalues, inverse iteration

# Unit roundoff of float64: the QL deflation test and the floor on the
# pivots of inverse iteration are this times a norm of T.
_EPS = 2.0 ** -52

# A column whose entries below the subdiagonal have squares summing to less
# than this (entries under 2**-450 of the largest one) is taken as reduced:
# dropping them is far below roundoff, and it keeps the reflector's h in
# the normal range.
_NEGLIGIBLE = 2.0 ** -900

# Eigenvalues of T closer than this times ||T||_1 form one cluster, whose
# inverse-iteration vectors are orthogonalised against each other (the
# rule of LAPACK dstein).
_CLUSTER_GAP = 1e-3

# Within a cluster, consecutive shifts of inverse iteration are at least
# this times eps ||T||_1 apart.
_SHIFT_SPREAD = 10.0


def tridiag_eigh(a: np.ndarray, rel_tol: float, max_iter: int):
    """Symmetric eigendecomposition through a tridiagonal form.

    The input, which must be exactly symmetric (``_householder`` sums down
    the columns what the C twin sums along the rows), is reduced to
    T = Q' A Q by d - 2 Householder reflections. The eigenvalues of T come
    from the implicit QL iteration with Wilkinson shifts, at most
    ``max_iter`` steps per eigenvalue (``_ql_eigenvalues``); its
    eigenvectors from inverse iteration with every eigenvalue as a shift,
    until each residual ||T z - lambda z|| is at most ``rel_tol`` times the
    Frobenius norm of the input, within ``max_iter`` steps
    (``_inverse_iteration``). The reflectors then carry the vectors back.

    Returns ``(w, v, iterations, converged)`` as ``jacobi_eigh`` does: ``w``
    ascending, the columns of ``v`` the eigenvectors in the same order, and
    ``iterations`` the QL steps plus the inverse-iteration steps.
    ``converged`` is False when either loop ran out of steps.
    """
    m = np.array(a, dtype=np.float64)  # a copy: _householder reduces it in place
    d = m.shape[0]
    if not np.any(m):
        return np.zeros(d), np.eye(d), 0, True
    thresh = rel_tol * math.sqrt(float(_sums_down((m * m).ravel(), -0.0)))
    diag, off, reflectors = _householder(m)
    w, steps, converged = _ql_eigenvalues(diag.tolist(), off.tolist(), max_iter)
    if not converged:
        return np.array(w), np.eye(d), steps, False
    w = np.array(sorted(w))
    z, more, converged = _inverse_iteration(diag, off, w, thresh, max_iter)
    return w, _back_transform(reflectors, z), steps + more, converged


def _householder(m: np.ndarray):
    """Reduce the symmetric ``m`` in place to tridiagonal form.

    Step k takes x = m[k+1:, k] and, unless its entries below the first are
    negligible, the reflector P = I - v v' / h with v = x - g e_1,
    g = -sign(x_0) ||x|| and h = ||x||^2 - x_0 g, which maps x to g e_1.
    The trailing block becomes P M P = M - v q' - q v' with p = M v / h and
    q = p - (v'p / 2h) v. Returns the diagonal and subdiagonal of T and the
    reflectors (k, v, h), acting on indices k + 1 .. d - 1.
    """
    d = m.shape[0]
    off = np.zeros(max(d - 1, 0))
    reflectors = []
    for k in range(d - 2):
        x = m[k + 1:, k].copy()
        x0 = float(x[0])
        t = float(_sums_down(x[1:] * x[1:], -0.0))
        if not t >= _NEGLIGIBLE:
            off[k] = x0
            continue
        sigma = x0 * x0 + t
        g = -math.sqrt(sigma) if x0 >= 0.0 else math.sqrt(sigma)
        h = sigma - x0 * g
        x[0] = x0 - g
        block = m[k + 1:, k + 1:]
        # Down the columns of the symmetric block: the C loop's sums along
        # its rows, term by term, from the first term.
        p = _sums_down(block * x[:, None], -0.0) / h
        half = float(_sums_down(x * p, -0.0)) / (h + h)
        q = p - half * x
        block -= np.multiply.outer(x, q) + np.multiply.outer(q, x)
        off[k] = g
        reflectors.append((k, x, h))
    if d >= 2:
        off[d - 2] = m[d - 1, d - 2]
    return m.diagonal().copy(), off, reflectors


def _pythag(a: float, b: float) -> float:
    """sqrt(a^2 + b^2) without overflow, from + - * / and sqrt only.

    (``math.hypot`` rounds differently from C's ``hypot``.) The QL loop
    below inlines it.
    """
    absa, absb = abs(a), abs(b)
    if absa > absb:
        r = absb / absa
        return absa * math.sqrt(1.0 + r * r)
    if absb == 0.0:
        return 0.0
    r = absa / absb
    return absb * math.sqrt(1.0 + r * r)


def _ql_eigenvalues(dg: list, e: list, max_iter: int):
    """Eigenvalues of the tridiagonal (dg, e) by implicit QL with Wilkinson shifts.

    ``tqli`` of Press et al. (after EISPACK ``tql1``), eigenvalues only:
    e[m] counts as zero once |e[m]| <= eps (|dg[m]| + |dg[m + 1]|), or once
    |e[m]| <= eps tst1 with tst1 = max_i |dg[i]| + |e[i]| + |e[i - 1]|, the
    norm of T that ``tql1`` tests against. The second test, a perturbation
    of T by at most eps ||T||, deflates inside a cluster of eigenvalues
    near zero, where both diagonals are ~eps ||T|| and the first would ask
    for |e[m]| below eps^2 ||T||. Returns (eigenvalues, steps, converged);
    not converged when one eigenvalue takes more than ``max_iter`` steps.
    """
    n = len(dg)
    e = e + [0.0]
    eps = _EPS
    # e[-1] is the trailing 0.0 at i = 0; max from 0.0 on, as the C loop
    tst1 = max(0.0, *(abs(dg[i]) + abs(e[i]) + abs(e[i - 1]) for i in range(n)))
    e_floor = eps * tst1
    sqrt = math.sqrt
    steps = 0
    for l in range(n):
        it = 0
        while True:
            m = l
            while (
                m < n - 1
                and abs(e[m]) > eps * (abs(dg[m]) + abs(dg[m + 1]))
                and abs(e[m]) > e_floor
            ):
                m += 1
            if m == l:
                break
            if it >= max_iter:
                return dg, steps, False
            it += 1
            steps += 1
            g = (dg[l + 1] - dg[l]) / (2.0 * e[l])
            r = _pythag(g, 1.0)
            g = dg[m] - dg[l] + e[l] / (g + (r if g >= 0.0 else -r))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                ei = e[i]
                f = s * ei
                b = c * ei
                # r = _pythag(f, g)
                af, ag = abs(f), abs(g)
                if af > ag:
                    t = ag / af
                    r = af * sqrt(1.0 + t * t)
                elif ag == 0.0:
                    r = 0.0
                else:
                    t = af / ag
                    r = ag * sqrt(1.0 + t * t)
                e[i + 1] = r
                if r == 0.0:
                    # underflow: deflate here and test again
                    dg[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = dg[i + 1] - p
                r = (dg[i] - g) * s + 2.0 * c * b
                p = s * r
                dg[i + 1] = g + p
                g = c * r - b
            else:
                dg[l] -= p
                e[l] = g
                e[m] = 0.0
    return dg, steps, True


def _start_vectors(n: int) -> np.ndarray:
    """The (n, n) start vectors of inverse iteration, one column per shift.

    Entry (r, j) is an odd integer in (-2^21, 2^21) from a 32-bit integer
    hash of (r + 1, j + 1), divided by 2^21: no random state, and the same
    bits in every backend.
    """
    r = np.arange(1, n + 1, dtype=np.uint64)[:, None]
    j = np.arange(1, n + 1, dtype=np.uint64)[None, :]
    low = np.uint64(0xFFFFFFFF)
    x = (r * np.uint64(0x9E3779B1) + j * np.uint64(0x85EBCA6B)) & low
    x ^= x >> np.uint64(16)
    x = (x * np.uint64(0x45D9F3B)) & low
    x ^= x >> np.uint64(16)
    odd = (x >> np.uint64(11)).astype(np.int64) * 2 - ((1 << 21) - 1)
    return odd / float(1 << 21)


# Where the pivot test picks the other branch, its quotient may divide by 0.
@np.errstate(divide="ignore", invalid="ignore")
def _factor_shifted(dg: np.ndarray, e: np.ndarray, lam: np.ndarray, tiny: float):
    """LU with partial pivoting of T - lam_j I for every shift at once (LAPACK dgttrf).

    Row i of each returned array holds that row for all shifts: the
    diagonal of U, its first and second superdiagonals, the multipliers
    and the row interchanges. Pivots smaller than ``tiny`` in magnitude
    are replaced by ``tiny`` with their sign, so U can be solved even where
    lam_j is an eigenvalue to working precision.
    """
    n, shifts = dg.shape[0], lam.shape[0]
    a = dg[:, None] - lam
    c = np.repeat(e[:, None], shifts, axis=1)
    du2 = np.zeros((max(n - 2, 0), shifts))
    mult = np.zeros((max(n - 1, 0), shifts))
    swap = np.zeros((max(n - 1, 0), shifts), dtype=bool)
    for i in range(n - 1):
        ai, ci, an, b = a[i], c[i], a[i + 1], e[i]
        sw = np.abs(ai) < abs(b)
        fact = np.where(sw, ai / b, np.where(ai != 0.0, b / ai, 0.0))
        new_an = np.where(sw, ci - fact * an, an - fact * ci)
        a[i] = np.where(sw, b, ai)
        c[i] = np.where(sw, an, ci)
        a[i + 1] = new_an
        if i < n - 2:
            cn = c[i + 1]
            du2[i] = np.where(sw, cn, 0.0)
            c[i + 1] = np.where(sw, -fact * cn, cn)
        mult[i] = fact
        swap[i] = sw
    a = np.where(np.abs(a) < tiny, np.copysign(tiny, a), a)
    return a, c, du2, mult, swap


def _solve_shifted(factors, z: np.ndarray) -> np.ndarray:
    """Solve (T - lam_j I) y_j = z_j for every column j (LAPACK dgttrs)."""
    a, c, du2, mult, swap = factors
    y = z.copy()
    n = y.shape[0]
    for i in range(n - 1):
        yi, yn, sw, f = y[i], y[i + 1], swap[i], mult[i]
        upper = np.where(sw, yn, yi)
        lower = np.where(sw, yi - f * yn, yn - f * yi)
        y[i] = upper
        y[i + 1] = lower
    y[n - 1] /= a[n - 1]
    if n >= 2:
        y[n - 2] = (y[n - 2] - c[n - 2] * y[n - 1]) / a[n - 2]
    for i in range(n - 3, -1, -1):
        y[i] = (y[i] - c[i] * y[i + 1] - du2[i] * y[i + 2]) / a[i]
    return y


def _orthonormalise(y: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> None:
    """Modified Gram-Schmidt within each cluster of columns, in place.

    Cluster c holds columns starts[c] .. starts[c] + sizes[c] - 1. Its k-th
    column loses its components along the k - 1 before it, one after
    another, and is then scaled to unit length; k-th columns of all
    clusters are treated together.
    """
    for k in range(int(sizes.max())):
        cols = starts[sizes > k] + k
        yk = y[:, cols]
        for i in range(k):
            yi = y[:, cols - (k - i)]
            yk -= _sums_down(yi * yk, -0.0) * yi
        y[:, cols] = yk / np.sqrt(_sums_down(yk * yk, -0.0))


def _residual_norms(dg: np.ndarray, e: np.ndarray, lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """||T z_j - lam_j z_j|| for every column j."""
    r = (dg[:, None] - lam) * z
    r[1:] = e[:, None] * z[:-1] + r[1:]
    r[:-1] += e[:, None] * z[1:]
    return np.sqrt(_sums_down(r * r, -0.0))


def _inverse_iteration(dg: np.ndarray, e: np.ndarray, w: np.ndarray, thresh: float, max_iter: int):
    """Eigenvectors of the tridiagonal (dg, e) for its ascending eigenvalues w.

    Every eigenvalue is a shift, and the start vectors are
    ``_start_vectors``. Eigenvalues with gaps of at most
    ``_CLUSTER_GAP * ||T||_1`` form clusters; within one, each shift is
    kept at least ``_SHIFT_SPREAD * eps * ||T||_1`` above the one before,
    so that equal eigenvalues still get distinct solves (as LAPACK dstein
    does). A step solves (T - s_j I) y_j = z_j for all j and orthonormalises
    within the clusters. The loop stops after two steps in a row whose
    residuals ||T z_j - w_j z_j|| are all at most ``thresh``: one step from
    the start vectors leaves components along the other eigenvectors of
    order eps ||T|| / gap, and the next removes them. Returns (z, steps,
    converged).
    """
    n = dg.shape[0]
    row_sums = np.abs(dg)
    row_sums[1:] = np.abs(e) + row_sums[1:]
    row_sums[:-1] = row_sums[:-1] + np.abs(e)
    norm_1 = float(row_sums.max())
    starts = np.flatnonzero(np.concatenate(([True], np.diff(w) > _CLUSTER_GAP * norm_1)))
    sizes = np.diff(np.append(starts, n))
    spread = _SHIFT_SPREAD * _EPS * norm_1
    shifts = w.tolist()
    for j in range(1, n):
        if shifts[j] - shifts[j - 1] < spread:
            shifts[j] = shifts[j - 1] + spread
    factors = _factor_shifted(dg, e, np.array(shifts), _EPS * norm_1)
    z = _start_vectors(n)
    passed = False
    for step in range(1, max_iter + 1):
        z = _solve_shifted(factors, z)
        _orthonormalise(z, starts, sizes)
        if (_residual_norms(dg, e, w, z) <= thresh).all():
            if passed:
                return z, step, True
            passed = True
        else:
            passed = False
    return z, max_iter, False


def _back_transform(reflectors, z: np.ndarray) -> np.ndarray:
    """Q z for Q = P_0 P_1 ..., applying the reflectors last to first, in place."""
    for k, v, h in reversed(reflectors):
        block = z[k + 1:]
        f = _sums_down(v[:, None] * block, -0.0) / h
        block -= np.multiply.outer(v, f)
    return z
