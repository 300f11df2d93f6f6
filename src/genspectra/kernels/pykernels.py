"""Pure-Python compute kernels.

These are the reference implementations of the two hot loops in the
package: dense matrix multiplication and the cyclic Jacobi eigenvalue
iteration for symmetric matrices. ``genspectra.kernels`` swaps in the
compiled Cython twins when they are available; both backends perform the
same operations in the same order, so results agree to the last bit on
IEEE-754 hardware.

``matmul`` evaluates its products and sums with numpy, one block of the
inner dimension at a time, but adds the terms of each entry strictly in
the order of the compiled loop. ``jacobi_eigh`` works on plain Python
lists: element access on nested lists is several times faster than scalar
indexing into numpy arrays, which matters for its rotation loops.
"""

from __future__ import annotations

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


def jacobi_eigh(a: np.ndarray, rel_tol: float, max_sweeps: int):
    """Cyclic Jacobi iteration on a symmetric matrix.

    Rotations visit the strict upper triangle in row-major order and zero
    one off-diagonal pair at a time. The sweep loop stops once the
    off-diagonal Frobenius norm drops below ``rel_tol`` times the Frobenius
    norm of the input.

    Returns ``(w, v, sweeps, converged)`` where ``w`` holds the (unsorted)
    diagonal after the final sweep and the columns of ``v`` are the
    accumulated rotations, i.e. the eigenvectors in the same order.
    """
    d = a.shape[0]
    m = [row[:] for row in a.tolist()]
    v = [[1.0 if i == j else 0.0 for j in range(d)] for i in range(d)]

    acc = 0.0
    for row in m:
        for x in row:
            acc += x * x
    thresh = rel_tol * math.sqrt(acc)

    sweeps = 0
    converged = _offdiag_norm(m, d) <= thresh
    while not converged and sweeps < max_sweeps:
        sweeps += 1
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = m[p][q]
                if apq == 0.0:
                    continue
                app = m[p][p]
                aqq = m[q][q]
                tau = (aqq - app) / (2.0 * apq)
                if math.isinf(tau):
                    # apq is denormal-tiny next to the diagonal gap; the
                    # rotation degenerates to the identity.
                    t = 0.0
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                m[p][p] = app - t * apq
                m[q][q] = aqq + t * apq
                m[p][q] = 0.0
                m[q][p] = 0.0
                for i in range(d):
                    if i != p and i != q:
                        aip = m[i][p]
                        aiq = m[i][q]
                        m[i][p] = c * aip - s * aiq
                        m[p][i] = m[i][p]
                        m[i][q] = s * aip + c * aiq
                        m[q][i] = m[i][q]
                for i in range(d):
                    vip = v[i][p]
                    viq = v[i][q]
                    v[i][p] = c * vip - s * viq
                    v[i][q] = s * vip + c * viq
        converged = _offdiag_norm(m, d) <= thresh

    w = np.array([m[i][i] for i in range(d)], dtype=np.float64)
    vecs = np.array(v, dtype=np.float64).reshape(d, d)
    return w, vecs, sweeps, converged


def _offdiag_norm(m, d: int) -> float:
    acc = 0.0
    for i in range(d - 1):
        row = m[i]
        for j in range(i + 1, d):
            acc += row[j] * row[j]
    return math.sqrt(2.0 * acc)
