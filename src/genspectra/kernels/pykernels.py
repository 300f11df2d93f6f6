"""Pure-Python compute kernels.

The reference implementations of the package's hot loops: dense matrix
multiplication, the cyclic Jacobi iteration and a Householder-tridiagonal
eigensolver (``tridiag_eigh``), and the inverse Cholesky factor of a
metric. ``genspectra.kernels`` swaps in the compiled twins, written by hand
in C, when they are available; both backends perform the same operations
in the same order, using only + - * / and sqrt, so results agree to the
last bit on IEEE-754 hardware, except in which NaN a sum keeps where two
NaNs meet in it (sign and payload), which IEEE-754 leaves open.

``matmul`` forms one block of the inner dimension's products at a time
with numpy, and every entry's terms are added in the compiled loop's order
by ``_sums_down``, which reduces the outer axis of a C-ordered block one
slice after another (observed numpy behaviour, guarded by tests).
``jacobi_eigh`` runs its sweeps on Python lists, one loop like the C twin's.

``tridiag_eigh`` adds its sums in the C loops' order too (a row sum of an
exactly symmetric block as its column sum); it runs the root-free QL
iteration on Python floats, and the inverse iteration, on an unpivoted
LDL' of each shifted T, as numpy operations across all shifts at once,
where the C twin takes one shift at a time. Its step loops write with
``out=`` into work arrays that each call allocates once, so concurrent
calls share none; the Householder update subtracts u + u' with u = v q',
the C loop's v q' + q v' exactly; and the start vectors of inverse
iteration, a pure function of d, are kept read-only for each d.

The eigensolvers do no scaling of their own: they take ``eigen.eig_sym``'s
input, scaled by a power of two so that its largest entry lies in [0.5, 1).
``cholesky_inverse`` is one elementwise numpy rank-1 update per column;
every entry it reads goes through the same operations in the C twin.
"""

from __future__ import annotations

import math

import numpy as np


# Doubles that one block of ``matmul`` holds at once, its products
# a[i, k] * b[k, j] and its rows of a' and b: 2**16 (512 KiB), or one k's
# when those are more. A product whose terms alone fit takes one block,
# its rows of a' and b beside it.
_BLOCK_TERMS = 1 << 16

# Products of at most this many terms are formed by a broadcast multiply:
# there einsum's call costs more than its faster loop saves (3 x 3 x 3:
# 4.0 us by broadcast, 5.2 us by einsum).
_EINSUM_MIN_TERMS = 1 << 12


def _sums_down(terms: np.ndarray, start: float, out: np.ndarray | None = None) -> np.ndarray:
    """``start + terms[0] + terms[1] + ...`` along axis 0, added left to right.

    numpy reduces the outer axis of a C-ordered array one slice at a time,
    out = out + terms[k]; it would sum an axis that runs along memory
    pairwise, so other layouts are made C-ordered first, and slices of a
    single entry are accumulated. That order is how numpy 2.4 behaves, not
    a documented promise; ``test_sums_down_adds_from_start_one_slice_after_another``
    and ``test_matmul_outer_axis_sums_match_loop_bit_for_bit`` fail if it
    changes.

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
    the compiled loop's operations, in its order. A block of k copies its
    rows of a' and of b to contiguous form and forms its terms with
    ``np.einsum`` as one C-ordered array, k outermost and the longer output
    axis innermost: (K, m, n), or (K, n, m) when n < m, whose sums come
    back transposed. A product of at most ``_EINSUM_MIN_TERMS`` terms is
    one block, formed (K, m, n) by a broadcast multiply, as is each block
    of a product with one row or one column. ``_sums_down`` adds the terms
    along k onto the running sums; ``@``, ``np.dot`` and ``np.sum`` would
    add in another order.

    A zero term, +-0.0 (einsum writes 0.0 + a[i, k] * b[k, j], so +0.0),
    cannot change a sum, which starts at +0.0 and so is never -0.0: the
    terms of a zero a[i, k] are masked out only against an inf or nan in
    b. Where two NaNs meet in a sum, which one comes out (sign and payload)
    may differ from the loop's; an entry is NaN exactly where the loop's
    is, and every other entry has the loop's bits.

    Shapes must already be compatible; the caller validates them.
    """
    at = np.asarray(a, dtype=np.float64).T
    b = np.asarray(b, dtype=np.float64)
    inner, m = at.shape
    n = b.shape[1]
    if m * n == 0 or inner == 0:
        return np.zeros((m, n))
    if inner * m * n <= _EINSUM_MIN_TERMS:
        # One small block, k outermost in C order, so that the sums run
        # along it slice by slice.
        terms = np.multiply(at[:, :, None], b[:, None, :], order="C")
        if np.count_nonzero(at) < at.size and not np.isfinite(b).all():
            # The loop skips these terms: 0.0 * inf or nan would be nan.
            terms[at == 0.0] = 0.0
        return _sums_down(terms, 0.0)
    thin = m == 1 or n == 1
    flip = n < m and not thin
    step = inner if inner * m * n <= _BLOCK_TERMS else max(1, _BLOCK_TERMS // (m * n + m + n))
    sums = None
    for k0 in range(0, inner, step):
        if thin:
            ak = at[k0:k0 + step]
            bk = b[k0:k0 + step]
            terms = np.multiply(ak[:, :, None], bk[:, None, :], order="C")
        else:
            ak = np.ascontiguousarray(at[k0:k0 + step])
            bk = np.ascontiguousarray(b[k0:k0 + step])
            # k outermost, as above, and the long axis innermost, where
            # numpy's loops run.
            terms = np.einsum("ki,kj->kji" if flip else "ki,kj->kij", ak, bk, order="C")
        if np.count_nonzero(ak) < ak.size and not np.isfinite(bk).all():
            (terms.transpose(0, 2, 1) if flip else terms)[ak == 0.0] = 0.0
        if sums is not None:
            np.add(sums, terms[0], out=terms[0])
        # Into the running sums, which are in terms[0] by now: one output
        # array lives next to the block.
        sums = _sums_down(terms, 0.0, out=sums)
        del terms
    return np.ascontiguousarray(sums.T) if flip else sums


def jacobi_eigh(a: np.ndarray, rel_tol: float, max_sweeps: int):
    """Cyclic-by-row Jacobi iteration on a symmetric matrix.

    A sweep visits the off-diagonal pairs (p, q), p < q, in row order
    (Golub & Van Loan, section 8.5), rotating each with |a_pq| > ``rel_tol``
    * sqrt(|a_pp a_qq|) (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 1992).
    Each rotation rotates rows p and q of M and of V transposed, writes the
    new entries of M into columns p and q too, so M stays exactly
    symmetric, and then sets the rotated 2x2 block exactly. The run ends
    after a sweep that rotates nothing, or unconverged at a pair left to
    rotate after ``max_sweeps`` rotating sweeps; ``sweeps`` counts those.
    The sweeps run on Python lists, M by rows and V by columns.

    Returns ``(w, v, sweeps, converged)`` where ``w`` holds the (unsorted)
    diagonal after the final sweep and the columns of ``v`` are the
    accumulated rotations, i.e. the eigenvectors in the same order.
    """
    a = np.asarray(a, dtype=np.float64)
    d = a.shape[0]
    m = a.tolist()
    # Rows of V transposed, so that V's column-pair updates run along rows
    # in the same loop as the row-pair updates of M.
    vt = np.eye(d).tolist()
    cols = range(d)
    sweeps = 0
    while True:
        pending = False
        for p in range(d - 1):
            mp, vp = m[p], vt[p]
            for q in range(p + 1, d):
                apq = mp[q]
                mq, vq = m[q], vt[q]
                app, aqq = mp[p], mq[q]
                # an underflowing product only makes the test stricter
                if not abs(apq) > rel_tol * math.sqrt(abs(app * aqq)):
                    continue
                pending = True
                if sweeps == max_sweeps:
                    break
                # t = tan of the angle that zeroes apq, the smaller root of
                # t^2 + 2 tau t - 1; a tiny apq beside a zero a_pp a_qq makes
                # tau infinite, and the rotation the identity, which zeroes apq
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
        if not pending or sweeps == max_sweeps:
            break
        sweeps += 1
    w = np.array([m[i][i] for i in range(d)], dtype=np.float64)
    return w, np.array(vt, dtype=np.float64).reshape(d, d).T.copy(), sweeps, not pending


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
# that is far below roundoff, and keeps the reflector's h in the normal range.
_NEGLIGIBLE = 2.0 ** -900
# Eigenvalues of T closer than this times ||T||_1 form one cluster, whose
# inverse-iteration vectors are orthogonalised (the rule of LAPACK dstein).
_CLUSTER_GAP = 1e-3
# Within a cluster, consecutive shifts of inverse iteration are at least
# this times eps ||T||_1 apart.
_SHIFT_SPREAD = 10.0
# The start vectors for the largest n asked for yet (``_start_vectors``).
_STARTS = np.empty((0, 0))


def tridiag_eigh(a: np.ndarray, rel_tol: float, max_iter: int):
    """Symmetric eigendecomposition through a tridiagonal form.

    The input, which must be exactly symmetric (``_householder`` sums down
    the columns what the C twin sums along the rows), is reduced to
    T = Q' A Q by d - 2 Householder reflections. The eigenvalues of T come
    from the root-free QL iteration with Wilkinson shifts, at most
    ``max_iter`` steps per eigenvalue; its eigenvectors from inverse
    iteration with every eigenvalue as a shift, until each residual
    ||T z - lambda z|| is at most ``rel_tol`` times the Frobenius norm of
    the input, within ``max_iter`` steps. The reflectors carry them back.

    Returns ``(w, v, iterations, converged)`` as ``jacobi_eigh`` does, ``w``
    ascending and ``iterations`` the QL plus the inverse-iteration steps;
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
    The trailing block becomes P M P = M - (u + u') with p = M v / h,
    q = p - (v'p / 2h) v and u = v q': the C loop's v q' + q v' exactly,
    as v_j q_i = q_i v_j. Returns the diagonal and subdiagonal of T and the
    reflectors (k, v, h), acting on indices k + 1 .. d - 1.
    """
    d = m.shape[0]
    off = np.zeros(max(d - 1, 0))
    reflectors = []
    work = np.empty((2, d * d + d))  # each step's u, u + u', p and q, C-ordered
    for k in range(d - 2):
        x = m[k + 1:, k].copy()
        x0 = float(x[0])
        t = np.add.accumulate(np.square(x[1:])).item(-1)  # x_1^2 + x_2^2 + ...
        if not t >= _NEGLIGIBLE:
            off[k] = x0
            continue
        sigma = x0 * x0 + t
        g = -math.sqrt(sigma) if x0 >= 0.0 else math.sqrt(sigma)
        h = sigma - x0 * g
        x[0] = x0 - g
        s = d - k - 1
        u, uu = work[:, :s * s].reshape(2, s, s)
        p, q = work[:, d * d:d * d + s]
        xc, block = x[:, None], m[k + 1:, k + 1:]
        # The C loop's row sums from the first term, down the symmetric block
        np.add.reduce(np.multiply(block, xc, out=u), axis=0, out=p, initial=-0.0)
        p /= h
        half = np.add.accumulate(np.multiply(x, p, out=q), out=q).item(-1) / (h + h)
        np.subtract(p, np.multiply(x, half, out=q), out=q)
        np.multiply(xc, q, out=u)
        block -= np.add(u, u.T, out=uu)
        off[k] = g
        reflectors.append((k, x, h))
    if d >= 2:
        off[d - 2] = m[d - 1, d - 2]
    return m.diagonal().copy(), off, reflectors


def _hypot1(sigma: float) -> float:
    """sqrt(sigma^2 + 1) without overflow, from + * / and sqrt only (``math.hypot``
    rounds differently from C's ``hypot``): once per QL step, for the shift."""
    a = abs(sigma)
    if a > 1.0:
        r = 1.0 / a
        return a * math.sqrt(1.0 + r * r)
    return math.sqrt(1.0 + a * a)


def _ql_eigenvalues(dg: list, e: list, max_iter: int):
    """Eigenvalues of the tridiagonal (dg, e) by root-free QL with Wilkinson shifts.

    The Pal-Walker-Kahan form (LAPACK ``dsterf``; Parlett, *The Symmetric
    Eigenvalue Problem*, section 8.15): each step works on the squared
    subdiagonal e^2, so only its shift takes a square root. e[m] counts as
    zero once e[m]^2 <= eps^2 |dg[m] dg[m + 1]|, or once e[m]^2 <=
    (eps tst1)^2 with tst1 = max_i |dg[i]| + |e[i]| + |e[i - 1]|, EISPACK
    ``tql1``'s norm of T. The second test, a perturbation of T by at most
    eps ||T||, deflates inside a cluster of eigenvalues near zero, where
    both diagonals are ~eps ||T|| and the first would ask for |e[m]| below
    eps^2 ||T||. Returns (eigenvalues, steps, converged); not converged
    when one eigenvalue takes more than ``max_iter`` steps.
    """
    n = len(dg)
    e = e + [0.0]
    # e[-1] is the trailing 0.0 at i = 0; max from 0.0 on, as the C loop
    tst1 = max(0.0, *(abs(dg[i]) + abs(e[i]) + abs(e[i - 1]) for i in range(n)))
    e_floor = _EPS * tst1
    floor2 = e_floor * e_floor
    eps2 = _EPS * _EPS
    e2 = [x * x for x in e]
    sqrt, hypot1, last = math.sqrt, _hypot1, n - 1
    steps = 0
    for l in range(n):
        it = 0
        while True:
            m = l
            while m < last and e2[m] > eps2 * abs(dg[m] * dg[m + 1]) and e2[m] > floor2:
                m += 1
            if m == l:
                break
            if it >= max_iter:
                return dg, steps, False
            it += 1
            steps += 1
            p = dg[l]
            rte = sqrt(e2[l])
            sigma = (dg[l + 1] - p) / (2.0 * rte)
            r = hypot1(sigma)
            sigma = p - rte / (sigma + (r if sigma >= 0.0 else -r))
            # i = m - 1 from c = 1.0 and s = 0.0; e2[i] > 0.0, so r > 0.0, and c
            # underflows only where gamma^2 << e2[i], giving p = oldc * bb.
            oldgam = dg[m] - sigma
            p = oldgam * oldgam
            bb = e2[m - 1]
            r = p + bb
            c = p / r
            s = bb / r
            alpha = dg[m - 1]
            gamma = c * (alpha - sigma) - s * oldgam
            dg[m] = oldgam + (alpha - gamma)
            p = gamma * gamma / c if c != 0.0 else bb
            for i in range(m - 2, l - 1, -1):
                bb = e2[i]
                r = p + bb
                e2[i + 1] = s * r
                oldc = c
                c = p / r
                s = bb / r
                oldgam = gamma
                alpha = dg[i]
                gamma = c * (alpha - sigma) - s * oldgam
                dg[i + 1] = oldgam + (alpha - gamma)
                p = gamma * gamma / c if c != 0.0 else oldc * bb
            e2[l] = s * p
            dg[l] = sigma + gamma
            e2[m] = 0.0
    return dg, steps, True


def _start_vectors(n: int) -> np.ndarray:
    """The (n, n) start vectors of inverse iteration, one column per shift.

    Entry (r, j) is an odd integer in (-2^21, 2^21) from a 32-bit integer
    hash of (r + 1, j + 1), divided by 2^21: no random state, and the same
    bits in every backend. It does not depend on n, so every n reads the
    leading block of one shared read-only array, made again for a larger n.
    """
    global _STARTS
    starts = _STARTS
    if starts.shape[0] < n:
        r = np.arange(1, n + 1, dtype=np.uint64)[:, None]
        j = np.arange(1, n + 1, dtype=np.uint64)[None, :]
        low = np.uint64(0xFFFFFFFF)
        x = (r * np.uint64(0x9E3779B1) + j * np.uint64(0x85EBCA6B)) & low
        x ^= x >> np.uint64(16)
        x = (x * np.uint64(0x45D9F3B)) & low
        x ^= x >> np.uint64(16)
        starts = ((x >> np.uint64(11)).astype(np.int64) * 2 - ((1 << 21) - 1)) / float(1 << 21)
        starts.flags.writeable = False
        _STARTS = starts
    return starts[:n, :n]


def _factor_shifted(dg: np.ndarray, e: np.ndarray, lam: np.ndarray, tiny: float):
    """Unpivoted LDL' of T - lam_j I for every shift at once.

    L is unit lower bidiagonal with l_i = e_i / d_i, and the pivots are
    d_0 = dg_0 - lam_j, d_(i+1) = (dg_(i+1) - lam_j) - l_i e_i (the
    factorization that MRRR is built on; Dhillon & Parlett, LAA 387,
    2004). A pivot smaller than ``tiny`` in magnitude becomes ``tiny``
    with its sign before l_i divides by it, so the factors stay finite
    even where lam_j is an eigenvalue of a leading block; a NaN pivot
    fails the compare and passes through: copysign(max(|d_i|, tiny), d_i)
    leaves it, and every pivot not below ``tiny``, as it is. Returns the
    pivots, row i for all shifts, and the list of the multipliers' rows.
    """
    piv = dg[:, None] - lam
    pivs, es = list(piv), e.tolist()
    mults = list(np.empty((len(es), lam.shape[0])))
    scratch = np.empty_like(lam)
    for i, di in enumerate(pivs):
        np.copysign(np.maximum(np.abs(di, out=scratch), tiny, out=scratch), di, out=di)
        if i < len(es):
            li = np.divide(es[i], di, out=mults[i])
            np.subtract(pivs[i + 1], np.multiply(li, es[i], out=scratch), out=pivs[i + 1])
    return piv, mults


def _solve_shifted(factors, y: np.ndarray) -> None:
    """Solve (T - lam_j I) x_j = y_j for every column j from its LDL', x into y:
    forward, u_(i+1) = y_(i+1) - l_i u_i; backward, x_i = u_i / d_i - l_i x_(i+1)."""
    piv, mults = factors
    rows = list(y)
    scratch = np.empty_like(rows[0])
    for yi, yn, li in zip(rows, rows[1:], mults):
        np.subtract(yn, np.multiply(li, yi, out=scratch), out=yn)
    # every u_i / d_i at once: the forward pass has left each u_i final
    y /= piv
    for yi, yn, li in zip(rows[-2::-1], rows[:0:-1], mults[::-1]):
        np.subtract(yi, np.multiply(li, yn, out=scratch), out=yi)


def _orthonormalise(y: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> None:
    """Modified Gram-Schmidt within each cluster of columns, in place.

    Cluster c holds columns starts[c] .. starts[c] + sizes[c] - 1. Its k-th
    column loses its components along the k - 1 before it, one after
    another, and is scaled to unit length, with the k-th of every cluster.
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

    Every eigenvalue is a shift, from ``_start_vectors``. Eigenvalues with
    gaps of at most ``_CLUSTER_GAP * ||T||_1`` form clusters; within one,
    each shift is kept ``_SHIFT_SPREAD * eps * ||T||_1`` or more above the
    one before, so equal eigenvalues get distinct solves (as in LAPACK
    dstein). A step solves (T - s_j I) y_j = z_j for all j and
    orthonormalises within the clusters, until two steps in a row leave
    every residual ||T z_j - w_j z_j|| within ``thresh``: one step leaves
    components of order eps ||T|| / gap along the other eigenvectors, and
    the next removes them. Returns (z, steps, converged).
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
    z = _start_vectors(n).copy()
    passed = False
    for step in range(1, max_iter + 1):
        _solve_shifted(factors, z)
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
    work = np.empty(z.size + z.shape[1])
    f = work[z.size:]
    for k, v, h in reversed(reflectors):
        block, vc = z[k + 1:], v[:, None]
        terms = work[:block.size].reshape(block.shape)
        np.add.reduce(np.multiply(vc, block, out=terms), axis=0, out=f, initial=-0.0)
        f /= h
        block -= np.multiply(vc, f, out=terms)
    return z
