/*
 * Compiled compute kernels: the C twins of genspectra.kernels.pykernels.
 *
 * Each loop performs the floating-point operations of its pure-Python
 * counterpart in the same order, so the two backends give the same bits;
 * only the speed differs. Build with -ffp-contract=off, or the compiler may
 * fuse a multiply and an add into one FMA, which rounds once instead of
 * twice.
 *
 * Arrays are made by calling numpy through the Python C API and are read
 * and written through the buffer protocol, so no numpy headers are needed.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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

PyDoc_STRVAR(matmul_doc,
"matmul($module, a, b)\n--\n\n"
"Multiply two 2-D float arrays with an explicit triple loop.");

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
    const double *pa = a.buf, *pb = b.buf;
    double *po = out.buf;
    for (Py_ssize_t i = 0; i < m; i++) {
        double *oi = po + i * n;
        for (Py_ssize_t k = 0; k < inner; k++) {
            double aik = pa[i * inner + k];
            if (aik != 0.0) {
                const double *bk = pb + k * n;
                for (Py_ssize_t j = 0; j < n; j++)
                    oi[j] += aik * bk[j];
            }
        }
    }
    PyBuffer_Release(&out);
done:
    release(aa, &a);
    release(bb, &b);
    return res;
}

/* The pairs (p, q), p < q, of round r of a sweep over d indices, as in
 * pykernels.round_robin; returns their count. */
static Py_ssize_t
round_pairs(Py_ssize_t d, Py_ssize_t r, Py_ssize_t *pp, Py_ssize_t *qq)
{
    Py_ssize_t n = d + d % 2, h = 0;
    if (n == d) {
        pp[h] = r;
        qq[h] = n - 1;
        h++;
    }
    for (Py_ssize_t k = 1; k < n / 2; k++) {
        Py_ssize_t i = (r + k) % (n - 1), j = (r - k + n - 1) % (n - 1);
        pp[h] = i < j ? i : j;
        qq[h] = i < j ? j : i;
        h++;
    }
    return h;
}

static double
tangent(double app, double aqq, double apq)
{
    if (apq == 0.0)
        return 0.0;
    double tau = (aqq - app) / (2.0 * apq);
    if (isinf(tau))
        return 0.0;
    if (tau >= 0.0)
        return 1.0 / (tau + sqrt(1.0 + tau * tau));
    return -1.0 / (-tau + sqrt(1.0 + tau * tau));
}

static double
offdiag_norm(const double *m, Py_ssize_t d)
{
    double acc = 0.0;
    for (Py_ssize_t i = 0; i < d - 1; i++)
        for (Py_ssize_t j = i + 1; j < d; j++)
            acc += m[i * d + j] * m[i * d + j];
    return sqrt(2.0 * acc);
}

/* One round: angles from the matrix as it was before the round, column-pair
 * updates of M, row-pair updates of M, then each 2x2 block set. V is held
 * transposed, so its column-pair updates run along contiguous rows. */
static void
rotate_round(double *m, double *vt, Py_ssize_t d, const Py_ssize_t *pp,
             const Py_ssize_t *qq, Py_ssize_t h, double *cs)
{
    double *c = cs, *s = cs + h, *new_pp = cs + 2 * h, *new_qq = cs + 3 * h;
    for (Py_ssize_t k = 0; k < h; k++) {
        double app = m[pp[k] * d + pp[k]], aqq = m[qq[k] * d + qq[k]];
        double apq = m[pp[k] * d + qq[k]];
        double t = tangent(app, aqq, apq);
        c[k] = 1.0 / sqrt(1.0 + t * t);
        s[k] = t * c[k];
        new_pp[k] = app - t * apq;
        new_qq[k] = aqq + t * apq;
    }
    for (Py_ssize_t i = 0; i < d; i++) {
        double *row = m + i * d;
        for (Py_ssize_t k = 0; k < h; k++) {
            double x = row[pp[k]], y = row[qq[k]];
            row[pp[k]] = c[k] * x - s[k] * y;
            row[qq[k]] = s[k] * x + c[k] * y;
        }
    }
    for (Py_ssize_t k = 0; k < h; k++) {
        Py_ssize_t p = pp[k], q = qq[k];
        double *mp = m + p * d, *mq = m + q * d, *vp = vt + p * d, *vq = vt + q * d;
        for (Py_ssize_t j = 0; j < d; j++) {
            double x = mp[j], y = mq[j];
            mp[j] = c[k] * x - s[k] * y;
            mq[j] = s[k] * x + c[k] * y;
        }
        for (Py_ssize_t j = 0; j < d; j++) {
            double x = vp[j], y = vq[j];
            vp[j] = c[k] * x - s[k] * y;
            vq[j] = s[k] * x + c[k] * y;
        }
        mp[p] = new_pp[k];
        mq[q] = new_qq[k];
        mp[q] = 0.0;
        mq[p] = 0.0;
    }
}

PyDoc_STRVAR(jacobi_doc,
"jacobi_eigh($module, a, rel_tol, max_sweeps)\n--\n\n"
"Round-robin Jacobi iteration on a symmetric matrix.\n\n"
"Same contract as the pure-Python version: returns\n"
"``(w, v, sweeps, converged)``.");

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
    Py_ssize_t *pairs = NULL;
    double *cs = NULL;
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
    Py_ssize_t half = (d + 1) / 2;
    pairs = PyMem_Malloc(sizeof(Py_ssize_t) * (2 * half + 1));
    cs = PyMem_Malloc(sizeof(double) * (4 * half + 1));
    if (pairs == NULL || cs == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* v holds V transposed, from the identity, until it is flipped at the end. */
    double *m = mb.buf, *v = vb.buf, *w = wb.buf;

    double acc = 0.0;
    for (Py_ssize_t i = 0; i < d * d; i++)
        acc += m[i] * m[i];
    double thresh = rel_tol * sqrt(acc);

    Py_ssize_t rounds = d + d % 2 - 1;
    int sweeps = 0;
    int converged = offdiag_norm(m, d) <= thresh;
    while (!converged && sweeps < max_sweeps) {
        sweeps++;
        for (Py_ssize_t r = 0; r < rounds; r++) {
            Py_ssize_t h = round_pairs(d, r, pairs, pairs + half);
            rotate_round(m, v, d, pairs, pairs + half, h, cs);
        }
        for (Py_ssize_t i = 1; i < d; i++)
            for (Py_ssize_t j = 0; j < i; j++)
                m[i * d + j] = m[j * d + i];
        converged = offdiag_norm(m, d) <= thresh;
    }
    for (Py_ssize_t i = 0; i < d; i++) {
        w[i] = m[i * d + i];
        for (Py_ssize_t j = 0; j < i; j++) {
            double vij = v[i * d + j];
            v[i * d + j] = v[j * d + i];
            v[j * d + i] = vij;
        }
    }
    res = Py_BuildValue("(OOiO)", wobj, vobj, sweeps, converged ? Py_True : Py_False);
done:
    PyMem_Free(pairs);
    PyMem_Free(cs);
    release(mobj, &mb);
    release(vobj, &vb);
    release(wobj, &wb);
    return res;
}

static PyMethodDef methods[] = {
    {"matmul", (PyCFunction)(void (*)(void))matmul, METH_VARARGS | METH_KEYWORDS, matmul_doc},
    {"jacobi_eigh", (PyCFunction)(void (*)(void))jacobi_eigh, METH_VARARGS | METH_KEYWORDS, jacobi_doc},
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
