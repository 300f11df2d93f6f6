/*
 * Compiled compute kernels: the C twins of genspectra.kernels.pykernels,
 * namely matmul, jacobi_eigh, tridiag_eigh and cholesky_inverse.
 *
 * Each loop performs the floating-point operations of its pure-Python
 * counterpart in the same order, so the two backends give the same bits;
 * only the speed differs. The matrix product is tiled for the cache, and
 * each entry of it still adds its terms in k order. The one exception is which NaN a sum keeps where
 * two NaNs meet in it (its sign and payload), which IEEE-754 leaves open:
 * numpy's vectorised adds may keep the other one. Build with
 * -ffp-contract=off, or the compiler may fuse a multiply and an add into
 * one FMA, which rounds once instead of twice.
 *
 * The eigensolvers do no scaling of their own: they take eigen.eig_sym's
 * input, scaled by a power of two so that its largest entry is in [0.5, 1).
 *
 * Arrays are made by calling numpy through the Python C API and are read
 * and written through the buffer protocol, so no numpy headers are needed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy.<name>(*args, **kwargs) as a C-contiguous writable float64 array of
 * ndim dimensions, with its buffer in *view. Steals the reference to args,
 * which may be NULL after a failed Py_BuildValue. Returns NULL with an
 * exception set on failure; otherwise the caller releases the view and the
 * array. */
static PyObject *
numpy_array(const char *name, PyObject *args, PyObject *kwargs, int ndim,
            Py_buffer *view)
{
    if (args == NULL)
        return NULL;
    PyObject *arr = NULL, *np = PyImport_ImportModule("numpy");
    if (np != NULL) {
        PyObject *fn = PyObject_GetAttrString(np, name);
        if (fn != NULL) {
            arr = PyObject_Call(fn, args, kwargs);
            Py_DECREF(fn);
        }
        Py_DECREF(np);
    }
    Py_DECREF(args);
    if (arr == NULL)
        return NULL;
    if (PyObject_GetBuffer(arr, view, PyBUF_C_CONTIGUOUS | PyBUF_WRITABLE | PyBUF_FORMAT) < 0) {
        Py_DECREF(arr);
        return NULL;
    }
    if (view->ndim != ndim || view->itemsize != sizeof(double) || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        Py_DECREF(arr);
        PyErr_Format(PyExc_ValueError, "expected a %d-D float64 array", ndim);
        return NULL;
    }
    return arr;
}

/* A fresh C-contiguous float64 copy of a 2-D array-like. */
static PyObject *
matrix_copy(PyObject *obj, Py_buffer *view)
{
    PyObject *kwargs = Py_BuildValue("{s:s}", "order", "C");
    if (kwargs == NULL)
        return NULL;
    PyObject *arr = numpy_array("array", Py_BuildValue("(Os)", obj, "float64"), kwargs, 2, view);
    Py_DECREF(kwargs);
    return arr;
}

static void
release(PyObject *arr, Py_buffer *view)
{
    if (arr != NULL) {
        PyBuffer_Release(view);
        Py_DECREF(arr);
    }
}

/* The tiled product updates MM_ROWS rows of the output over one block of
 * MM_COLS columns at a time: the 4 x 64 block of the output (2 KiB) stays
 * in L1 while the k loop streams the matching 64 columns of b past it, where
 * a row-by-row loop streams all of b once per row (Goto & van de Geijn,
 * ACM TOMS 34(3), 2008). */
#define MM_ROWS 4
#define MM_COLS 64

/* out[i, j] += a[i, k] * b[k, j] for k = 0, 1, ... in order, skipping the
 * terms where a[i, k] == 0.0: every entry gets the operations of the plain
 * triple loop, in its order, whatever the tile it falls in. The MM_ROWS
 * rows of a tile share one pass over b[k] where none of their a[i, k] is
 * zero; otherwise each row takes b[k] on its own, and a zero skips only its
 * own row. */
static void
matmul_tiled(const double *pa, const double *pb, double *po,
             Py_ssize_t m, Py_ssize_t inner, Py_ssize_t n)
{
    for (Py_ssize_t j0 = 0; j0 < n; j0 += MM_COLS) {
        Py_ssize_t nj = n - j0 < MM_COLS ? n - j0 : MM_COLS;
        for (Py_ssize_t i0 = 0; i0 < m; i0 += MM_ROWS) {
            Py_ssize_t ni = m - i0 < MM_ROWS ? m - i0 : MM_ROWS;
            const double *a = pa + i0 * inner;
            double *o = po + i0 * n + j0;
            for (Py_ssize_t k = 0; k < inner; k++) {
                const double *restrict bk = pb + k * n + j0;
                if (ni == MM_ROWS) {
                    double a0 = a[k], a1 = a[inner + k], a2 = a[2 * inner + k], a3 = a[3 * inner + k];
                    if (a0 != 0.0 && a1 != 0.0 && a2 != 0.0 && a3 != 0.0) {
                        double *restrict o0 = o, *restrict o1 = o + n;
                        double *restrict o2 = o + 2 * n, *restrict o3 = o + 3 * n;
                        for (Py_ssize_t j = 0; j < nj; j++) {
                            double bj = bk[j];
                            o0[j] += a0 * bj;
                            o1[j] += a1 * bj;
                            o2[j] += a2 * bj;
                            o3[j] += a3 * bj;
                        }
                        continue;
                    }
                }
                for (Py_ssize_t r = 0; r < ni; r++) {
                    double ark = a[r * inner + k];
                    if (ark != 0.0) {
                        double *restrict orow = o + r * n;
                        for (Py_ssize_t j = 0; j < nj; j++)
                            orow[j] += ark * bk[j];
                    }
                }
            }
        }
    }
}

PyDoc_STRVAR(matmul_doc,
"matmul($module, a, b)\n--\n\n"
"Multiply two 2-D float arrays, adding each entry's terms in k order.");

static PyObject *
matmul(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"a", "b", NULL};
    PyObject *a_in, *b_in;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OO:matmul", keywords, &a_in, &b_in))
        return NULL;
    Py_buffer a, b, out;
    PyObject *aa = NULL, *bb = NULL, *res = NULL;
    if ((aa = matrix_copy(a_in, &a)) == NULL || (bb = matrix_copy(b_in, &b)) == NULL)
        goto done;
    Py_ssize_t m = a.shape[0], inner = a.shape[1], n = b.shape[1];
    if (b.shape[0] != inner) {
        PyErr_SetString(PyExc_ValueError, "matmul: inner dimensions differ");
        goto done;
    }
    if ((res = numpy_array("zeros", Py_BuildValue("((nn))", m, n), NULL, 2, &out)) == NULL)
        goto done;
    matmul_tiled(a.buf, b.buf, out.buf, m, inner, n);
    PyBuffer_Release(&out);
done:
    release(aa, &a);
    release(bb, &b);
    return res;
}

static double
tangent(double app, double aqq, double apq)
{
    double tau = (aqq - app) / (2.0 * apq);
    if (isinf(tau))
        return 0.0;
    if (tau >= 0.0)
        return 1.0 / (tau + sqrt(1.0 + tau * tau));
    return -1.0 / (-tau + sqrt(1.0 + tau * tau));
}

PyDoc_STRVAR(jacobi_doc,
"jacobi_eigh($module, a, rel_tol, max_sweeps)\n--\n\n"
"Cyclic-by-row Jacobi iteration on a symmetric matrix.\n\n"
"Same contract as the pure-Python version: rotates a pair unless\n"
"|a_pq| <= rel_tol * sqrt(|a_pp a_qq|), ends after a sweep that rotates\n"
"nothing, and returns ``(w, v, sweeps, converged)``.");

static PyObject *
jacobi_eigh(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"a", "rel_tol", "max_sweeps", NULL};
    PyObject *a_in;
    double rel_tol;
    int max_sweeps;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Odi:jacobi_eigh", keywords,
                                     &a_in, &rel_tol, &max_sweeps))
        return NULL;
    Py_buffer mb, vb, wb;
    PyObject *mobj = NULL, *vobj = NULL, *wobj = NULL, *res = NULL;
    if ((mobj = matrix_copy(a_in, &mb)) == NULL)
        goto done;
    Py_ssize_t d = mb.shape[0];
    if (mb.shape[1] != d) {
        PyErr_SetString(PyExc_ValueError, "jacobi_eigh: the matrix is not square");
        goto done;
    }
    if ((vobj = numpy_array("eye", Py_BuildValue("(n)", d), NULL, 2, &vb)) == NULL
        || (wobj = numpy_array("zeros", Py_BuildValue("(n)", d), NULL, 1, &wb)) == NULL)
        goto done;
    /* v holds V transposed, from the identity, until it is flipped at the end. */
    double *m = mb.buf, *v = vb.buf, *w = wb.buf;

    int sweeps = 0, pending;
    for (;;) {
        pending = 0;
        for (Py_ssize_t p = 0; p < d - 1; p++) {
            double *mp = m + p * d, *vp = v + p * d;
            for (Py_ssize_t q = p + 1; q < d; q++) {
                double *mq = m + q * d, *vq = v + q * d;
                double apq = mp[q], app = mp[p], aqq = mq[q];
                if (!(fabs(apq) > rel_tol * sqrt(fabs(app * aqq))))
                    continue;
                pending = 1;
                if (sweeps == max_sweeps)
                    break;
                double t = tangent(app, aqq, apq);
                double c = 1.0 / sqrt(1.0 + t * t), s = t * c;
                for (Py_ssize_t j = 0; j < d; j++) {
                    double x = mp[j], y = mq[j];
                    double xr = c * x - s * y, yr = s * x + c * y;
                    /* also columns p and q; at j = p, q these are the 2x2
                     * block, which is set exactly below */
                    mp[j] = m[j * d + p] = xr;
                    mq[j] = m[j * d + q] = yr;
                    x = vp[j];
                    y = vq[j];
                    vp[j] = c * x - s * y;
                    vq[j] = s * x + c * y;
                }
                mp[p] = app - t * apq;
                mq[q] = aqq + t * apq;
                mp[q] = 0.0;
                mq[p] = 0.0;
            }
        }
        if (!pending || sweeps == max_sweeps)
            break;
        sweeps++;
    }
    for (Py_ssize_t i = 0; i < d; i++) {
        w[i] = m[i * d + i];
        for (Py_ssize_t j = 0; j < i; j++) {
            double vij = v[i * d + j];
            v[i * d + j] = v[j * d + i];
            v[j * d + i] = vij;
        }
    }
    res = Py_BuildValue("(OOiO)", wobj, vobj, sweeps, pending ? Py_False : Py_True);
done:
    release(mobj, &mb);
    release(vobj, &vb);
    release(wobj, &wb);
    return res;
}

/* ---- tridiag_eigh: the twin of pykernels.tridiag_eigh ------------------ */

#define TRI_EPS 0x1p-52          /* _EPS */
#define TRI_NEGLIGIBLE 0x1p-900  /* _NEGLIGIBLE */
#define TRI_CLUSTER_GAP 1e-3     /* _CLUSTER_GAP */
#define TRI_SHIFT_SPREAD 10.0    /* _SHIFT_SPREAD */

/* Householder reduction of the d x d m in place (pykernels._householder).
 * Reflector k, when taken, has h[k] > 0 and v in vs[k * d .. k * d + len);
 * h[k] == 0.0 marks a column taken as reduced. p is scratch of d doubles. */
static void
householder(double *m, Py_ssize_t d, double *dg, double *off, double *vs, double *hs,
            double *p)
{
    for (Py_ssize_t k = 0; k + 2 < d; k++) {
        Py_ssize_t len = d - k - 1;
        double *v = vs + k * d;
        for (Py_ssize_t i = 0; i < len; i++)
            v[i] = m[(k + 1 + i) * d + k];
        double x0 = v[0];
        double t = v[1] * v[1];
        for (Py_ssize_t i = 2; i < len; i++)
            t += v[i] * v[i];
        hs[k] = 0.0;
        if (!(t >= TRI_NEGLIGIBLE)) {
            off[k] = x0;
            continue;
        }
        double sigma = x0 * x0 + t;
        double g = x0 >= 0.0 ? -sqrt(sigma) : sqrt(sigma);
        double h = sigma - x0 * g;
        v[0] = x0 - g;
        double *block = m + (k + 1) * d + (k + 1);
        for (Py_ssize_t i = 0; i < len; i++) {
            const double *row = block + i * d;
            double acc = row[0] * v[0];
            for (Py_ssize_t j = 1; j < len; j++)
                acc += row[j] * v[j];
            p[i] = acc / h;
        }
        double vp = v[0] * p[0];
        for (Py_ssize_t i = 1; i < len; i++)
            vp += v[i] * p[i];
        double half = vp / (h + h);
        for (Py_ssize_t i = 0; i < len; i++)
            p[i] = p[i] - half * v[i];  /* q */
        for (Py_ssize_t i = 0; i < len; i++) {
            double *row = block + i * d;
            for (Py_ssize_t j = 0; j < len; j++)
                row[j] = row[j] - (v[i] * p[j] + p[i] * v[j]);
        }
        off[k] = g;
        hs[k] = h;
    }
    if (d >= 2)
        off[d - 2] = m[(d - 1) * d + d - 2];
    for (Py_ssize_t i = 0; i < d; i++)
        dg[i] = m[i * d + i];
}

/* sqrt(sigma^2 + 1) without overflow (pykernels._hypot1); the QL shift's. */
static double
hypot1(double sigma)
{
    double a = fabs(sigma), r;
    if (a > 1.0) {
        r = 1.0 / a;
        return a * sqrt(1.0 + r * r);
    }
    return sqrt(1.0 + a * a);
}

/* Root-free (Pal-Walker-Kahan) QL with Wilkinson shifts on (dg, e),
 * e[n - 1] == 0.0 (pykernels._ql_eigenvalues; LAPACK dsterf). e is squared
 * in place after tst1 is taken from it, so the rotation loop works on e^2
 * and takes no square root. Returns 0 when an eigenvalue takes more than
 * max_iter steps. */
static int
ql_eigenvalues(double *dg, double *e, Py_ssize_t n, int max_iter, long *steps)
{
    double tst1 = 0.0;  /* max_i |dg[i]| + |e[i]| + |e[i - 1]| */
    for (Py_ssize_t i = 0; i < n; i++) {
        double row = fabs(dg[i]) + fabs(e[i]) + (i > 0 ? fabs(e[i - 1]) : 0.0);
        if (row > tst1)
            tst1 = row;
    }
    double e_floor = TRI_EPS * tst1;
    double floor2 = e_floor * e_floor, eps2 = TRI_EPS * TRI_EPS;
    for (Py_ssize_t i = 0; i < n; i++)
        e[i] = e[i] * e[i];
    for (Py_ssize_t l = 0; l < n; l++) {
        int it = 0;
        for (;;) {
            Py_ssize_t m = l;
            while (m < n - 1 && e[m] > eps2 * fabs(dg[m] * dg[m + 1]) && e[m] > floor2)
                m++;
            if (m == l)
                break;
            if (it >= max_iter)
                return 0;
            it++;
            (*steps)++;
            double p = dg[l];
            double rte = sqrt(e[l]);
            double sigma = (dg[l + 1] - p) / (2.0 * rte);
            double r = hypot1(sigma);
            sigma = p - rte / (sigma + (sigma >= 0.0 ? r : -r));
            double c = 1.0, s = 0.0;
            double gamma = dg[m] - sigma;
            p = gamma * gamma;
            for (Py_ssize_t i = m - 1; i >= l; i--) {
                double bb = e[i];
                r = p + bb;
                if (i != m - 1)
                    e[i + 1] = s * r;
                double oldc = c;
                c = p / r;
                s = bb / r;
                double oldgam = gamma, alpha = dg[i];
                gamma = c * (alpha - sigma) - s * oldgam;
                dg[i + 1] = oldgam + (alpha - gamma);
                p = c != 0.0 ? gamma * gamma / c : oldc * bb;
            }
            e[l] = s * p;
            dg[l] = sigma + gamma;
            e[m] = 0.0;
        }
    }
    return 1;
}

/* Start vector entry (r, j), 0-based (pykernels._start_vectors). */
static double
start_entry(Py_ssize_t r, Py_ssize_t j)
{
    uint64_t x = ((uint64_t)(r + 1) * 0x9E3779B1u + (uint64_t)(j + 1) * 0x85EBCA6Bu) & 0xFFFFFFFFu;
    x ^= x >> 16;
    x = (x * 0x45D9F3Bu) & 0xFFFFFFFFu;
    x ^= x >> 16;
    int64_t odd = (int64_t)(x >> 11) * 2 - ((1 << 21) - 1);
    return (double)odd / (double)(1 << 21);
}

/* Unpivoted LDL' of T - s I (pykernels._factor_shifted, one shift): the
 * pivots piv (n) and the multipliers mult (n - 1). A pivot under tiny in
 * magnitude becomes tiny with its sign; a NaN fails the compare. */
static void
factor_shifted(const double *dg, const double *e, Py_ssize_t n, double shift, double tiny,
               double *piv, double *mult)
{
    for (Py_ssize_t i = 0; i < n; i++)
        piv[i] = dg[i] - shift;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (fabs(piv[i]) < tiny)
            piv[i] = copysign(tiny, piv[i]);
        if (i + 1 < n) {
            mult[i] = e[i] / piv[i];
            piv[i + 1] = piv[i + 1] - mult[i] * e[i];
        }
    }
}

/* Solve (T - s I) x = y from its LDL', x overwriting y
 * (pykernels._solve_shifted, one shift): one forward and one backward pass. */
static void
solve_shifted(Py_ssize_t n, const double *piv, const double *mult, double *y)
{
    for (Py_ssize_t i = 0; i + 1 < n; i++)
        y[i + 1] = y[i + 1] - mult[i] * y[i];
    y[n - 1] = y[n - 1] / piv[n - 1];
    for (Py_ssize_t i = n - 2; i >= 0; i--)
        y[i] = y[i] / piv[i] - mult[i] * y[i + 1];
}

/* Inverse iteration (pykernels._inverse_iteration). z holds vector j at
 * z + j * n. Returns 1 when converged; *steps gets the steps taken. */
static int
inverse_iteration(const double *dg, const double *e, const double *w, Py_ssize_t n,
                  double thresh, int max_iter, double *z, double *work, Py_ssize_t *starts,
                  int *steps)
{
    double *shifts = work, *piv = shifts + n, *mult = piv + n * n;
    double norm_1 = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = fabs(dg[i]);
        if (i > 0)
            t = fabs(e[i - 1]) + t;
        if (i < n - 1)
            t = t + fabs(e[i]);
        if (t > norm_1)
            norm_1 = t;
    }
    /* starts[0 .. clusters] bound the clusters of w */
    Py_ssize_t clusters = 0;
    starts[clusters++] = 0;
    for (Py_ssize_t j = 1; j < n; j++)
        if (w[j] - w[j - 1] > TRI_CLUSTER_GAP * norm_1)
            starts[clusters++] = j;
    starts[clusters] = n;
    double spread = TRI_SHIFT_SPREAD * TRI_EPS * norm_1;
    for (Py_ssize_t j = 0; j < n; j++) {
        shifts[j] = w[j];
        if (j > 0 && shifts[j] - shifts[j - 1] < spread)
            shifts[j] = shifts[j - 1] + spread;
        factor_shifted(dg, e, n, shifts[j], TRI_EPS * norm_1, piv + j * n, mult + j * n);
        for (Py_ssize_t r = 0; r < n; r++)
            z[j * n + r] = start_entry(r, j);
    }
    int passed = 0;
    for (int step = 1; step <= max_iter; step++) {
        for (Py_ssize_t j = 0; j < n; j++)
            solve_shifted(n, piv + j * n, mult + j * n, z + j * n);
        for (Py_ssize_t cl = 0; cl < clusters; cl++) {
            for (Py_ssize_t col = starts[cl]; col < starts[cl + 1]; col++) {
                double *yk = z + col * n;
                for (Py_ssize_t prev = starts[cl]; prev < col; prev++) {
                    const double *yi = z + prev * n;
                    double dot = yi[0] * yk[0];
                    for (Py_ssize_t r = 1; r < n; r++)
                        dot += yi[r] * yk[r];
                    for (Py_ssize_t r = 0; r < n; r++)
                        yk[r] = yk[r] - dot * yi[r];
                }
                double acc = yk[0] * yk[0];
                for (Py_ssize_t r = 1; r < n; r++)
                    acc += yk[r] * yk[r];
                double nrm = sqrt(acc);
                for (Py_ssize_t r = 0; r < n; r++)
                    yk[r] = yk[r] / nrm;
            }
        }
        int ok = 1;
        for (Py_ssize_t j = 0; j < n && ok; j++) {
            const double *zj = z + j * n;
            double acc = 0.0;
            for (Py_ssize_t i = 0; i < n; i++) {
                double ri = (dg[i] - w[j]) * zj[i];
                if (i > 0)
                    ri = e[i - 1] * zj[i - 1] + ri;
                if (i < n - 1)
                    ri = ri + e[i] * zj[i + 1];
                acc = i == 0 ? ri * ri : acc + ri * ri;
            }
            ok = sqrt(acc) <= thresh;
        }
        if (ok) {
            if (passed) {
                *steps = step;
                return 1;
            }
            passed = 1;
        } else {
            passed = 0;
        }
    }
    *steps = max_iter;
    return 0;
}

PyDoc_STRVAR(tridiag_doc,
"tridiag_eigh($module, a, rel_tol, max_iter)\n--\n\n"
"Symmetric eigendecomposition through a Householder tridiagonal form.\n\n"
"Same contract as the pure-Python version: returns\n"
"``(w, v, iterations, converged)``. The input must be exactly symmetric:\n"
"the Householder step sums along rows what the pure-Python one sums\n"
"down columns.");

static PyObject *
tridiag_eigh(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"a", "rel_tol", "max_iter", NULL};
    PyObject *a_in;
    double rel_tol;
    int max_iter;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "Odi:tridiag_eigh", keywords,
                                     &a_in, &rel_tol, &max_iter))
        return NULL;
    Py_buffer mb, vb, wb;
    PyObject *mobj = NULL, *vobj = NULL, *wobj = NULL, *res = NULL;
    double *work = NULL;
    Py_ssize_t *starts = NULL;
    if ((mobj = matrix_copy(a_in, &mb)) == NULL)
        goto done;
    Py_ssize_t d = mb.shape[0];
    if (mb.shape[1] != d) {
        PyErr_SetString(PyExc_ValueError, "tridiag_eigh: the matrix is not square");
        goto done;
    }
    if ((vobj = numpy_array("eye", Py_BuildValue("(n)", d), NULL, 2, &vb)) == NULL
        || (wobj = numpy_array("zeros", Py_BuildValue("(n)", d), NULL, 1, &wb)) == NULL)
        goto done;
    double *m = mb.buf, *v = vb.buf, *wout = wb.buf;
    Py_ssize_t first = 0;  /* the first nonzero entry; d * d for a zero matrix */
    while (first < d * d && m[first] == 0.0)
        first++;
    if (first == d * d) {
        res = Py_BuildValue("(OOiO)", wobj, vobj, 0, Py_True);
        goto done;
    }
    /* dg, off (+ the QL's trailing 0.0), w, hs, p: 5d; reflectors d^2; z d^2;
     * shifts d and the pivots and multipliers 2 d^2 */
    work = PyMem_Malloc(sizeof(double) * (6 * d + 4 * d * d + 1));
    starts = PyMem_Malloc(sizeof(Py_ssize_t) * (d + 1));
    if (work == NULL || starts == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *dg = work, *off = dg + d, *w = off + d, *hs = w + d, *p = hs + d,
           *vs = p + d, *z = vs + d * d, *rest = z + d * d;
    double acc = m[0] * m[0];
    for (Py_ssize_t i = 1; i < d * d; i++)
        acc += m[i] * m[i];
    double thresh = rel_tol * sqrt(acc);

    householder(m, d, dg, off, vs, hs, p);
    for (Py_ssize_t i = 0; i < d; i++)
        w[i] = dg[i];
    /* the QL works on copies: w and, past the subdiagonal, a trailing 0.0 */
    double *e = p;
    for (Py_ssize_t i = 0; i + 1 < d; i++)
        e[i] = off[i];
    e[d - 1] = 0.0;
    long steps = 0;
    if (!ql_eigenvalues(w, e, d, max_iter, &steps)) {
        for (Py_ssize_t i = 0; i < d; i++)
            wout[i] = w[i];
        res = Py_BuildValue("(OOlO)", wobj, vobj, steps, Py_False);
        goto done;
    }
    for (Py_ssize_t i = 1; i < d; i++) {  /* stable insertion sort, as sorted() */
        double x = w[i];
        Py_ssize_t j = i;
        for (; j > 0 && w[j - 1] > x; j--)
            w[j] = w[j - 1];
        w[j] = x;
    }
    int more = 0;
    int converged = inverse_iteration(dg, off, w, d, thresh, max_iter, z, rest, starts, &more);
    for (Py_ssize_t k = d - 3; k >= 0; k--) {  /* back-transform, last reflector first */
        if (hs[k] == 0.0)
            continue;
        Py_ssize_t len = d - k - 1;
        const double *vk = vs + k * d;
        for (Py_ssize_t j = 0; j < d; j++) {
            double *zj = z + j * d + k + 1;
            double dot = vk[0] * zj[0];
            for (Py_ssize_t i = 1; i < len; i++)
                dot += vk[i] * zj[i];
            double f = dot / hs[k];
            for (Py_ssize_t i = 0; i < len; i++)
                zj[i] = zj[i] - vk[i] * f;
        }
    }
    for (Py_ssize_t i = 0; i < d; i++) {
        wout[i] = w[i];
        for (Py_ssize_t j = 0; j < d; j++)
            v[i * d + j] = z[j * d + i];
    }
    res = Py_BuildValue("(OOlO)", wobj, vobj, steps + more, converged ? Py_True : Py_False);
done:
    PyMem_Free(work);
    PyMem_Free(starts);
    release(mobj, &mb);
    release(vobj, &vb);
    release(wobj, &wb);
    return res;
}

/* ---- cholesky_inverse: the twin of pykernels.cholesky_inverse ---------- */

PyDoc_STRVAR(cholesky_doc,
"cholesky_inverse($module, b)\n--\n\n"
"L^-1 for B = L L' (Cholesky), or None when a pivot is not positive.\n\n"
"Same contract as the pure-Python version. Its rank-1 updates of the\n"
"Schur complement run on the lower triangle only: the upper one is\n"
"never read.");

static PyObject *
cholesky_inverse(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"b", NULL};
    PyObject *b_in;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:cholesky_inverse", keywords, &b_in))
        return NULL;
    Py_buffer sb, lb;
    PyObject *sobj = NULL, *lobj = NULL, *res = NULL;
    double *col = NULL;
    if ((sobj = matrix_copy(b_in, &sb)) == NULL)
        goto done;
    Py_ssize_t d = sb.shape[0];
    if (sb.shape[1] != d) {
        PyErr_SetString(PyExc_ValueError, "cholesky_inverse: the matrix is not square");
        goto done;
    }
    if ((lobj = numpy_array("eye", Py_BuildValue("(n)", d), NULL, 2, &lb)) == NULL)
        goto done;
    if ((col = PyMem_Malloc(sizeof(double) * (d + 1))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *schur = sb.buf, *inv_l = lb.buf;
    for (Py_ssize_t k = 0; k < d; k++) {
        double pivot = schur[k * d + k];
        if (!(pivot > 0.0)) {
            res = Py_None;
            Py_INCREF(res);
            goto done;
        }
        double l_kk = sqrt(pivot);
        for (Py_ssize_t i = k + 1; i < d; i++)  /* column k of L below the diagonal */
            col[i] = schur[i * d + k] / l_kk;
        for (Py_ssize_t i = k + 1; i < d; i++) {
            double *si = schur + i * d;
            for (Py_ssize_t j = k + 1; j <= i; j++)
                si[j] = si[j] - col[i] * col[j];
        }
        double *row = inv_l + k * d;
        for (Py_ssize_t j = 0; j <= k; j++)
            row[j] = row[j] / l_kk;
        for (Py_ssize_t i = k + 1; i < d; i++) {
            double *li = inv_l + i * d;
            for (Py_ssize_t j = 0; j <= k; j++)
                li[j] = li[j] - col[i] * row[j];
        }
    }
    res = lobj;
    Py_INCREF(res);
done:
    PyMem_Free(col);
    release(sobj, &sb);
    release(lobj, &lb);
    return res;
}

static PyMethodDef methods[] = {
    {"matmul", (PyCFunction)(void (*)(void))matmul, METH_VARARGS | METH_KEYWORDS, matmul_doc},
    {"jacobi_eigh", (PyCFunction)(void (*)(void))jacobi_eigh, METH_VARARGS | METH_KEYWORDS, jacobi_doc},
    {"tridiag_eigh", (PyCFunction)(void (*)(void))tridiag_eigh, METH_VARARGS | METH_KEYWORDS, tridiag_doc},
    {"cholesky_inverse", (PyCFunction)(void (*)(void))cholesky_inverse, METH_VARARGS | METH_KEYWORDS, cholesky_doc},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef_Slot slots[] = {
    {0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "genspectra.kernels._cykernels",
    .m_doc = "Compiled compute kernels: C twins of genspectra.kernels.pykernels.",
    .m_size = 0,
    .m_methods = methods,
    .m_slots = slots,
};

PyMODINIT_FUNC
PyInit__cykernels(void)
{
    return PyModuleDef_Init(&module);
}
