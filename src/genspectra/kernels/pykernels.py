"""Pure-Python compute kernels.

These are the reference implementations of the two hot loops in the
package: dense matrix multiplication and the round-robin Jacobi eigenvalue
iteration for symmetric matrices. ``genspectra.kernels`` swaps in the
compiled twins, written by hand in C, when they are available; both
backends perform the same operations in the same order, so results agree
to the last bit on IEEE-754 hardware.

``matmul`` evaluates its products and sums with numpy, one block of the
inner dimension at a time, but adds the terms of each entry strictly in
the order of the compiled loop. ``jacobi_eigh`` runs each round of
rotations on disjoint index pairs, which makes a round elementwise: from
``_NUMPY_ROUNDS_MIN_DIM`` up it is a few dozen numpy operations, in which
every column of M and V, and then every row of M, is updated in place
from itself and its pair partner, gathered in one ``take``; below that
the same operations run on Python lists, whose element access costs less
than numpy's fixed cost per call.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# Products a[i, k] * b[k, j] that ``matmul`` holds at once: 2**16 doubles
# (512 KiB), or one k's m * n products when those are more.
_BLOCK_TERMS = 1 << 16


# Overflow gives inf and 0.0 * inf gives nan silently, as in C. (As a
# decorator the errstate is built once, not on every call.)
@np.errstate(over="ignore", invalid="ignore")
def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply two 2-D float arrays, adding each entry's terms in k order.

    ``out[i, j]`` is ``0.0 + a[i, 0] * b[0, j] + a[i, 1] * b[1, j] + ...``
    added left to right, with the terms where ``a[i, k] == 0.0`` left out:
    the operations of the compiled triple loop, in its order. A block of k
    forms its terms as one (K, m, n) array and ``np.add.accumulate`` adds
    them along k onto the running sums, which is sequential; ``@``,
    ``np.dot`` and ``np.sum`` would add in another order.

    Shapes must already be compatible; the caller validates them.
    """
    at = np.asarray(a, dtype=np.float64).T
    b = np.asarray(b, dtype=np.float64)
    inner, m = at.shape
    n = b.shape[1]
    if m * n == 0 or inner == 0:
        return np.zeros((m, n))
    step = max(1, _BLOCK_TERMS // (m * n))
    carry = None
    for k0 in range(0, inner, step):
        ak = at[k0:k0 + step]
        terms = ak[:, :, None] * b[k0:k0 + step, None, :]
        if np.count_nonzero(ak) < ak.size:
            # The loop skips these terms; 0.0 * inf or 0.0 * nan would
            # turn its sum into nan.
            terms[ak == 0.0] = 0.0
        if carry is not None:
            np.add(carry, terms[0], out=terms[0])
        np.add.accumulate(terms, axis=0, out=terms)
        # The loop's sums start at +0.0, so they are never -0.0; the
        # accumulation starts at the first term and can be. Adding 0.0
        # changes only that case, and copies the sums out of the block,
        # which is freed before the next one is formed.
        carry = terms[-1] + 0.0
        del terms
    return carry


# Below this dimension a round of rotations runs faster on Python lists
# than as numpy operations, whose fixed cost per call dominates small
# rounds. Both forms compute the same bits; the choice changes only speed.
_NUMPY_ROUNDS_MIN_DIM = 16


# Room for the schedule of every size whose rounds run on lists; the
# cache stays bounded, since a schedule holds d^2 / 2 pairs.
@functools.lru_cache(maxsize=_NUMPY_ROUNDS_MIN_DIM)
def round_robin(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rounds of one Jacobi sweep over a d x d matrix, as pairs (p, q), p < q.

    Circle method: with n = d rounded up to even (index d is a dummy when d
    is odd), round r pairs n - 1 with r, and (r + k) mod (n - 1) with
    (r - k) mod (n - 1) for k = 1 .. n/2 - 1. The pairs within a round are
    disjoint, and each unordered pair of indices falls in exactly one of
    the n - 1 rounds; pairs with the dummy are left out.

    Cached per d and shared between callers, so it is all tuples.
    """
    p, q = _round_pairs(d)
    return tuple(tuple(zip(pr, qr)) for pr, qr in zip(p.tolist(), q.tolist()))


def _round_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """``round_robin(d)`` as two (rounds, d // 2) arrays of p and of q."""
    n = d + d % 2
    r = np.arange(n - 1)[:, None]
    # k = 0 stands for the pair (r, n - 1), which even d has first
    k = np.arange(0 if n == d else 1, n // 2)
    i, j = (r + k) % (n - 1), (r - k) % (n - 1)
    if n == d:
        j[:, 0] = n - 1
    return np.minimum(i, j), np.maximum(i, j)


def jacobi_eigh(a: np.ndarray, rel_tol: float, max_sweeps: int):
    """Round-robin Jacobi iteration on a symmetric matrix.

    A sweep visits every off-diagonal pair once, in the rounds of
    :func:`round_robin` (Brent & Luk 1985; Golub & Van Loan, section 8.5).
    Each round takes all its rotation angles from the matrix as it was
    before the round, applies the column-pair updates, then the row-pair
    updates, then sets each rotated 2x2 block exactly; V gets the same
    column-pair updates. After a sweep the upper triangle is copied onto
    the lower one. The sweep loop stops once the off-diagonal Frobenius
    norm drops below ``rel_tol`` times the Frobenius norm of the input.

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
    iterate = _iterate_lists if d < _NUMPY_ROUNDS_MIN_DIM else _iterate_numpy
    return iterate(a, thresh, max_sweeps)


def _offdiag_norm(m: list, d: int) -> float:
    acc = 0.0
    for i in range(d - 1):
        row = m[i]
        for j in range(i + 1, d):
            acc += row[j] * row[j]
    return math.sqrt(2.0 * acc)


def _tangent(app: float, aqq: float, apq: float) -> float:
    """tan of the angle that zeroes apq: the smaller root of t^2 + 2 tau t - 1."""
    if apq == 0.0:
        return 0.0
    tau = (aqq - app) / (2.0 * apq)
    if math.isinf(tau):
        # apq is denormal-tiny next to the diagonal gap; the rotation
        # degenerates to the identity.
        return 0.0
    if tau >= 0.0:
        return 1.0 / (tau + math.sqrt(1.0 + tau * tau))
    return -1.0 / (-tau + math.sqrt(1.0 + tau * tau))


def _iterate_lists(a: np.ndarray, thresh: float, max_sweeps: int):
    """The sweeps of :func:`jacobi_eigh` on lists: M by rows, V by columns."""
    d = a.shape[0]
    rounds = round_robin(d)
    m = a.tolist()
    # Rows of V transposed, so that V's column-pair updates run along rows
    # in the same loop as the row-pair updates of M.
    vt = np.eye(d).tolist()
    cols = range(d)
    sweeps = 0
    converged = _offdiag_norm(m, d) <= thresh
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        for pairs in rounds:
            rots = []
            blocks = []
            for p, q in pairs:
                app, aqq, apq = m[p][p], m[q][q], m[p][q]
                t = _tangent(app, aqq, apq)
                c = 1.0 / math.sqrt(1.0 + t * t)
                rots.append((p, q, c, t * c))
                blocks.append((p, q, app - t * apq, aqq + t * apq))
            for row in m:
                for p, q, c, s in rots:
                    x = row[p]
                    y = row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
            for p, q, c, s in rots:
                mp, mq, vp, vq = m[p], m[q], vt[p], vt[q]
                for j in cols:
                    x = mp[j]
                    y = mq[j]
                    mp[j] = c * x - s * y
                    mq[j] = s * x + c * y
                    x = vp[j]
                    y = vq[j]
                    vp[j] = c * x - s * y
                    vq[j] = s * x + c * y
            for p, q, new_pp, new_qq in blocks:
                m[p][p] = new_pp
                m[q][q] = new_qq
                m[p][q] = 0.0
                m[q][p] = 0.0
        # Column then row updates leave the two triangles apart in the last
        # bits; the angles read only the upper one.
        for i in range(1, d):
            row = m[i]
            for j in range(i):
                row[j] = m[j][i]
        converged = _offdiag_norm(m, d) <= thresh
    w = np.array([m[i][i] for i in range(d)], dtype=np.float64)
    return w, np.array(vt, dtype=np.float64).reshape(d, d).T.copy(), sweeps, converged


def _round_plan(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per round of ``round_robin(d)``: partners, slots and blocks.

    ``partners[r, i]`` is the index that i is paired with in round r,
    ``slots[r, i]`` its position in (c, c, 1.0) and (-s, s, 0.0): pair k
    puts p in slot k and q in slot h + k, h = d // 2; an unpaired index
    (odd d) keeps itself and slot 2h. ``blocks[r]`` holds the flat indices
    of app, then aqq, apq and aqp, of every pair of the round.
    """
    p, q = _round_pairs(d)
    rounds, h = p.shape
    r = np.arange(rounds)[:, None]
    partners = np.tile(np.arange(d), (rounds, 1))
    slots = np.full((rounds, d), 2 * h)
    partners[r, p], partners[r, q] = q, p
    slots[r, p], slots[r, q] = np.arange(h), np.arange(h, 2 * h)
    blocks = np.concatenate((p * (d + 1), q * (d + 1), p * d + q, q * d + p), axis=1)
    return partners, slots, blocks


# Where apq == 0.0, tau is inf or nan and the tangent is overwritten.
@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _iterate_numpy(a: np.ndarray, thresh: float, max_sweeps: int):
    """The sweeps of :func:`_iterate_lists` as elementwise numpy operations.

    Each column x of M and V is updated in place as ``cf * x + sf * y``,
    where y is its pair partner gathered in one ``take``: cf = c and
    sf = -s for a p column, cf = c and sf = s for a q column. This rounds
    exactly like ``c * x - s * y`` and ``s * x + c * y``, since a - b is
    a + (-b) and (-s) * y is -(s * y). For odd d the unpaired column is its
    own partner with cf = 1.0 and sf = 0.0, and x * 1.0 + x * 0.0 is x for
    every finite x, -0.0 included. The rows of M get the same update. Likewise
    ``1 / (|tau| + r)``, negated where tau < 0, is the list form's tangent,
    and ``np.add.accumulate`` adds the squares of the off-diagonal norm one
    after another, as the list form does.
    """
    d = a.shape[0]
    mv = np.vstack((a, np.eye(d)))  # rows of M, then rows of V
    m = mv[:d]
    flat = m.reshape(-1)
    h = d // 2
    plan = list(zip(*_round_plan(d)))
    one, zero = np.ones(1), np.zeros(1)
    lower = np.tri(d, k=-1, dtype=bool)
    upper = lower.T

    def offdiag_norm():
        squares = m[upper]  # row by row, as in _offdiag_norm
        squares *= squares
        return math.sqrt(2.0 * np.add.accumulate(squares)[-1]) if d > 1 else 0.0

    sweeps = 0
    converged = offdiag_norm() <= thresh
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        for partner, slot, block in plan:
            g = flat.take(block)
            app, aqq, apq = g[:h], g[h:2 * h], g[2 * h:3 * h]
            tau = (aqq - app) / (2.0 * apq)
            t = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            np.negative(t, out=t, where=tau < 0.0)
            t[(apq == 0.0) | np.isinf(tau)] = 0.0
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            cf = np.concatenate((c, c, one)).take(slot)
            sf = np.concatenate((-s, s, zero)).take(slot)
            y = mv.take(partner, axis=1)
            y *= sf
            mv *= cf
            mv += y
            cf = cf[:, None]
            sf = sf[:, None]
            y = m.take(partner, axis=0)
            y *= sf
            m *= cf
            m += y
            t_apq = t * apq
            flat[block[:2 * h]] = g[:2 * h] + np.concatenate((-t_apq, t_apq))
            flat[block[2 * h:]] = 0.0
        np.copyto(m, m.T.copy(), where=lower)
        converged = offdiag_norm() <= thresh
    return m.diagonal().copy(), mv[d:].copy(), sweeps, converged
