"""PCA, Fisher discriminant analysis, and kernel supervised PCA."""

import json
import math
import re
import sys
import types
import warnings

import numpy as np
import pytest

from genspectra import (
    DimensionMismatch,
    InputError,
    KernelSpec,
    LabeledDataset,
    Matrix,
    MissingLabels,
    Pencil,
    ScatterPair,
    SingleClass,
    SymMatrix,
    Vector,
    covariance,
    default_epsilon,
    eig_sym,
    fda_fit,
    kernel_matrix,
    kspca_fit,
    kspca_transform,
    pca_fit,
    pca_transform,
    rayleigh_quotient,
    scatter_matrices,
    solve_rigorous,
)
from genspectra import apps, kernels
from genspectra.cli import main
from genspectra.linalg import _pow2_scaled, centering_matrix, null_eigenvalues
from genspectra.pencil import _fit_pairs, _preimage_pairs, _whitening

from conftest import (
    assert_diagnostics,
    gram_fallback,
    gram_schmidt,
    kernel_calls,
    metric_kernel,
    random_unit,
    span_gap,
    ungraded_kernel,
)


# ---------------------------------------------------------------------------
# covariance
# ---------------------------------------------------------------------------


def test_covariance_of_repeated_point_is_zero():
    x = Matrix(np.tile([[1.0], [2.0], [3.0]], (1, 5)))
    assert np.abs(covariance(x).array).max() == 0.0


def test_covariance_worked_example():
    # columns (1,0) and (-1,0): centered scatter diag(2, 0)
    x = Matrix([[1.0, -1.0], [0.0, 0.0]])
    assert np.allclose(covariance(x).array, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_covariance_matches_two_pass_oracle():
    rng = np.random.RandomState(71)
    x = rng.standard_normal((3, 50))
    mean = x.mean(axis=1)
    expect = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            expect[i, j] = sum(
                (x[i, k] - mean[i]) * (x[j, k] - mean[j]) for k in range(50)
            )
    got = covariance(Matrix(x)).array
    assert np.abs(got - expect).max() <= 1e-10 * max(1.0, np.abs(expect).max())


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def _pca_example_data() -> Matrix:
    return Matrix([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.1, -0.1]])


def test_pca_worked_example():
    model = pca_fit(_pca_example_data(), p=2)
    assert model.method == "pca"
    assert model.eigenvalues == pytest.approx([2.0, 0.02], abs=1e-12)
    assert np.allclose(np.abs(model.projection.array), np.eye(2), atol=1e-12)
    assert np.allclose(model.mean.array, [0.0, 0.0], atol=1e-15)


def test_pca_projected_variance_equals_eigenvalue():
    rng = np.random.RandomState(72)
    x = Matrix(rng.standard_normal((4, 30)))
    model = pca_fit(x, p=4)
    s = covariance(x).array
    for k, lam in enumerate(model.eigenvalues):
        u = model.projection.array[:, k]
        assert u @ s @ u == pytest.approx(lam, rel=1e-9, abs=1e-9)
    block = pca_fit(x, p=2)
    assert_diagnostics(
        block.residual, block.b_orthonormality, s, None,
        block.projection.array, block.eigenvalues,
    )


def test_pca_eigenvalue_sum_equals_total_variance():
    rng = np.random.RandomState(73)
    x = Matrix(rng.standard_normal((5, 20)))
    model = pca_fit(x, p=5)
    total = float(np.trace(covariance(x).array))
    assert sum(model.eigenvalues) == pytest.approx(total, rel=1e-9)


def test_pca_leading_direction_beats_random_directions():
    rng = np.random.RandomState(74)
    x = Matrix(rng.standard_normal((4, 25)))
    model = pca_fit(x, p=1)
    s = covariance(x).array
    lead = model.eigenvalues[0]
    for _ in range(1000):
        u = random_unit(rng, 4)
        assert u @ s @ u <= lead + 1e-9 * max(1.0, lead)


def test_pca_reconstruction_error_monotone_in_p():
    rng = np.random.RandomState(75)
    x = rng.standard_normal((5, 40))
    xm = Matrix(x)
    xc = x - x.mean(axis=1, keepdims=True)
    errors = []
    for p in range(1, 6):
        model = pca_fit(xm, p=p)
        u = model.projection.array
        errors.append(float(((xc - u @ (u.T @ xc)) ** 2).sum()))
    for a, b in zip(errors, errors[1:]):
        assert b <= a + 1e-10
    assert errors[-1] <= 1e-18


def test_pca_transform_centers_with_training_mean():
    rng = np.random.RandomState(76)
    x = Matrix(rng.standard_normal((3, 10)) + 5.0)
    model = pca_fit(x, p=3)
    # the training mean itself embeds at the origin
    mean_col = Matrix(model.mean.array.reshape(-1, 1))
    assert np.abs(pca_transform(model, mean_col).array).max() <= 1e-12
    # scores match the per-entry dot-product definition
    scores = pca_transform(model, x).array
    for k in range(3):
        for i in range(10):
            expect = float(
                model.projection.array[:, k] @ (x.array[:, i] - model.mean.array)
            )
            assert scores[k, i] == pytest.approx(expect, abs=1e-10)


def test_pca_full_rank_transform_supports_exact_reconstruction():
    rng = np.random.RandomState(77)
    x = Matrix(rng.standard_normal((4, 12)))
    model = pca_fit(x, p=4)
    scores = pca_transform(model, x).array
    recon = model.projection.array @ scores + model.mean.array.reshape(-1, 1)
    assert np.abs(recon - x.array).max() <= 1e-10


def test_pca_transform_validates_model_and_shape():
    x = _pca_example_data()
    model = pca_fit(x, p=1)
    with pytest.raises(DimensionMismatch):
        pca_transform(model, Matrix(np.zeros((3, 1))))
    fake = pca_fit(x, p=1)
    object.__setattr__(fake, "method", "fda")
    with pytest.raises(InputError):
        pca_transform(fake, x)


def test_pca_validates_p():
    with pytest.raises(DimensionMismatch):
        pca_fit(_pca_example_data(), p=3)


# ---------------------------------------------------------------------------
# scatter matrices
# ---------------------------------------------------------------------------


def test_scatter_two_singleton_classes():
    ds = LabeledDataset(
        Matrix([[1.0, -1.0], [0.0, 0.0]]), labels=(0, 1)
    )
    pair = scatter_matrices(ds)
    assert np.allclose(pair.s_b.array, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert np.abs(pair.s_w.array).max() == 0.0


def test_scatter_identical_points_within_classes():
    x = Matrix([[1.0, 1.0, 4.0, 4.0], [2.0, 2.0, 6.0, 6.0]])
    pair = scatter_matrices(LabeledDataset(x, labels=(0, 0, 1, 1)))
    assert np.abs(pair.s_w.array).max() == 0.0
    assert np.trace(pair.s_b.array) > 0.0


def test_scatter_decomposition_for_singleton_classes():
    # with one sample per class S_W = 0 and S_B equals the total scatter
    rng = np.random.RandomState(78)
    x = rng.standard_normal((3, 6))
    pair = scatter_matrices(LabeledDataset(Matrix(x), labels=tuple(range(6))))
    mu = x.mean(axis=1, keepdims=True)
    total = (x - mu) @ (x - mu).T
    got = pair.s_b.array + pair.s_w.array
    assert np.abs(got - total).max() <= 1e-9 * max(1.0, np.abs(total).max())


def test_scatter_size_weighted_decomposition():
    # for general class sizes the total scatter splits into S_W plus the
    # *size-weighted* between-class scatter; S_B itself is unweighted
    rng = np.random.RandomState(79)
    x = rng.standard_normal((3, 12))
    labels = (0,) * 5 + (1,) * 4 + (2,) * 3
    pair = scatter_matrices(LabeledDataset(Matrix(x), labels=labels))
    mu_t = x.mean(axis=1, keepdims=True)
    total = (x - mu_t) @ (x - mu_t).T
    weighted_b = np.zeros((3, 3))
    for cls, size in ((0, 5), (1, 4), (2, 3)):
        idx = [i for i, lab in enumerate(labels) if lab == cls]
        dmu = x[:, idx].mean(axis=1) - mu_t.ravel()
        weighted_b += size * np.outer(dmu, dmu)
    assert np.abs(pair.s_w.array + weighted_b - total).max() <= 1e-9 * max(
        1.0, np.abs(total).max()
    )
    # and the unweighted S_B differs from the weighted one here
    assert np.abs(pair.s_b.array - weighted_b).max() > 1e-3


def test_scatter_requires_labels_and_two_classes():
    x = Matrix(np.eye(2))
    with pytest.raises(MissingLabels):
        scatter_matrices(LabeledDataset(x))
    with pytest.raises(SingleClass):
        scatter_matrices(LabeledDataset(x, labels=(1, 1)))


def test_labeled_dataset_validates_label_count():
    with pytest.raises(DimensionMismatch):
        LabeledDataset(Matrix(np.eye(2)), labels=(1, 2, 3))


def test_scatter_pair_validates_dims():
    with pytest.raises(DimensionMismatch, match="scatter dims differ: 2 and 3"):
        ScatterPair(SymMatrix(np.eye(2)), SymMatrix(np.eye(3)))


def test_labeled_dataset_rejects_non_integer_labels():
    for labels in ((0.5, 1.7), (0, 1.5), (np.float64(2.25), 1)):
        with pytest.raises(InputError):
            LabeledDataset(Matrix(np.eye(2)), labels=labels)
    # int() raises ValueError on NaN and OverflowError on +-inf
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            LabeledDataset(Matrix(np.eye(3)), labels=(0, 1, bad))
    ds = LabeledDataset(Matrix(np.eye(2)), labels=(0.0, np.float64(3.0)))
    assert ds.labels == (0, 3)


LABELS = {
    "floats": ([0.0, 1.0, -2.0], (0, 1, -2)),
    "ints": ([0, 1, -2], (0, 1, -2)),
    "numpy scalars": ([np.float64(3.0), np.int64(-1), np.int32(2)], (3, -1, 2)),
    "2**70": ([2**70, 1, 0], (2**70, 1, 0)),
    "1e20": ([1e20, 1.0, 0.0], (10**20, 1, 0)),
    "NaN": ([0.0, float("nan"), 1.0], "nan"),
    "inf": ([0.0, float("inf"), 1.0], "inf"),
    "-inf": ([0.0, -float("inf"), 1.0], "-inf"),
    "1.5": ([0.0, 1.5, 1.0], "1.5"),
}


@pytest.mark.parametrize("name", sorted(LABELS))
def test_labeled_dataset_converts_label_arrays_as_it_converts_labels(name):
    # A float64 or int64 label array converts in one pass, yet every input
    # gives the tuple of Python ints, or the message, of the label-by-label
    # check: that message quotes the element as it came, so an array's
    # element is quoted as a numpy scalar and a list's as it stands.
    labels, want = LABELS[name]
    x = Matrix(np.eye(3))
    arrays = [np.array(labels, dtype=np.float64)]
    if all(isinstance(v, int) and abs(v) < 2**63 for v in labels):
        arrays.append(np.array(labels, dtype=np.int64))
    for given in [labels, tuple(labels)] + arrays:
        if isinstance(want, tuple):
            got = LabeledDataset(x, labels=given).labels
            assert got == want and all(type(v) is int for v in got), (name, given)
        else:
            bad = given[1]
            assert repr(bad) in (want, f"np.float64({want})")
            message = f"^labels must be integer class ids, got {re.escape(repr(bad))}$"
            with pytest.raises(InputError, match=message):
                LabeledDataset(x, labels=given)
    with pytest.raises(DimensionMismatch, match="^2 labels for 3 samples$"):
        LabeledDataset(x, labels=np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# FDA
# ---------------------------------------------------------------------------


def _two_class_data(rng, noise_e1=0.05, noise_e2=0.5, n_per=20, sep=4.0):
    """Classes separated along e1; within-class noise mostly along e2."""
    c0 = np.zeros((2, n_per))
    c0[0] = rng.standard_normal(n_per) * noise_e1
    c0[1] = rng.standard_normal(n_per) * noise_e2
    c1 = c0.copy() * 0
    c1[0] = sep + rng.standard_normal(n_per) * noise_e1
    c1[1] = rng.standard_normal(n_per) * noise_e2
    x = np.hstack([c0, c1])
    labels = (0,) * n_per + (1,) * n_per
    return LabeledDataset(Matrix(x), labels=labels)


def test_fda_finds_the_separating_direction():
    rng = np.random.RandomState(80)
    ds = _two_class_data(rng)
    model = fda_fit(ds, p=1)
    w = model.projection.array[:, 0]
    w = w / np.linalg.norm(w)
    assert abs(w[0]) > 0.999  # essentially e1
    assert model.epsilon_used == 0.0


def test_fda_eigenvalue_is_the_fisher_quotient():
    rng = np.random.RandomState(81)
    ds = _two_class_data(rng)
    model = fda_fit(ds, p=1)
    pair = scatter_matrices(ds)
    w = Vector(model.projection.array[:, 0])
    quot = rayleigh_quotient(w, pair.s_b, pair.s_w)
    assert quot == pytest.approx(model.eigenvalues[0], rel=1e-8)
    assert_diagnostics(
        model.residual, model.b_orthonormality, pair.s_b.array, pair.s_w.array,
        model.projection.array, model.eigenvalues,
    )


def test_fda_beats_random_directions():
    rng = np.random.RandomState(82)
    ds = _two_class_data(rng)
    model = fda_fit(ds, p=1)
    pair = scatter_matrices(ds)
    best = model.eigenvalues[0]
    for _ in range(1000):
        u = Vector(random_unit(rng, 2))
        assert rayleigh_quotient(u, pair.s_b, pair.s_w) <= best * (1 + 1e-9)


def test_fda_singular_within_class_scatter_regularizes():
    # within-class spread strictly along e2 makes S_W singular; the fit
    # still runs, reports its eps, and finds the separating direction
    x = np.array(
        [
            [0.0, 0.0, 0.0, 4.0, 4.0, 4.0],
            [-0.3, 0.0, 0.3, -0.3, 0.0, 0.3],
        ]
    )
    ds = LabeledDataset(Matrix(x), labels=(0, 0, 0, 1, 1, 1))
    model = fda_fit(ds, p=1)
    assert model.epsilon_used > 0.0
    w = model.projection.array[:, 0]
    assert abs(w[0]) / np.linalg.norm(w) > 0.999
    # the achieved quotient dwarfs any direction with an e2 component
    pair = scatter_matrices(ds)
    # diagnostics are honest about the original, unregularized pencil
    assert_diagnostics(
        model.residual, model.b_orthonormality, pair.s_b.array, pair.s_w.array,
        model.projection.array, model.eigenvalues,
    )
    rng = np.random.RandomState(83)
    for _ in range(200):
        u = Vector(random_unit(rng, 2))
        try:
            val = rayleigh_quotient(u, pair.s_b, pair.s_w)
        except Exception:
            continue
        assert val <= model.eigenvalues[0] * (1 + 1e-9)


def test_fda_isotropic_within_class_scatter_matches_plain_eig():
    # S_W proportional to I: the discriminant directions coincide with the
    # eigenvectors of S_B alone
    a = 0.7
    base = []
    labels = []
    for cls, mu in ((0, np.zeros(2)), (1, np.array([3.0, 1.0]))):
        for delta in (a * np.eye(2)[:, 0], -a * np.eye(2)[:, 0],
                      a * np.eye(2)[:, 1], -a * np.eye(2)[:, 1]):
            base.append(mu + delta)
            labels.append(cls)
    ds = LabeledDataset(Matrix(np.array(base).T), labels=tuple(labels))
    pair = scatter_matrices(ds)
    assert np.abs(pair.s_w.array - np.diag(np.diag(pair.s_w.array))).max() < 1e-12
    model = fda_fit(ds, p=1)
    w = model.projection.array[:, 0]
    lead = eig_sym(pair.s_b).phi.array[:, 0]
    cos = abs(w @ lead) / np.linalg.norm(w)
    assert cos == pytest.approx(1.0, abs=1e-9)


def test_fda_scale_invariance():
    rng = np.random.RandomState(84)
    ds = _two_class_data(rng)
    scaled = LabeledDataset(Matrix(10.0 * ds.x.array), labels=ds.labels)
    m1 = fda_fit(ds, p=1)
    m2 = fda_fit(scaled, p=1)
    w1 = m1.projection.array[:, 0]
    w2 = m2.projection.array[:, 0]
    p1 = np.outer(w1, w1) / (w1 @ w1)
    p2 = np.outer(w2, w2) / (w2 @ w2)
    assert np.abs(p1 - p2).max() < 1e-6
    # the quotient is invariant too: both scatters scale by 100
    assert m2.eigenvalues[0] == pytest.approx(m1.eigenvalues[0], rel=1e-6)


def test_fda_warns_beyond_class_rank():
    rng = np.random.RandomState(85)
    ds = _two_class_data(rng)  # 2 classes: rank(S_B) <= 1
    with pytest.warns(UserWarning):
        fda_fit(ds, p=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fda_fit(ds, p=1)  # no warning at or below c - 1


def test_kspca_warns_beyond_the_rank_of_its_label_kernel():
    # G = H Y R has rank at most min(c - 1, rank(K_c)), as S_B has at most c - 1
    rng = np.random.RandomState(86)
    ds = _class_data(rng, 3, 16, 8)  # kernel-fit's shape: 3 classes, n = 48
    tall = _class_data(rng, 3, 40, 12)  # tall-data's: 3 classes, d = 12
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kspca_fit(ds, 2)  # delta labels: K_c = I, rank c; p = c - 1
        fda_fit(tall, 2)
        with pytest.raises(UserWarning, match="3 classes has rank at most 2"):
            kspca_fit(ds, 3)
        with pytest.raises(UserWarning, match="3 classes has rank at most 1"):
            kspca_fit(ds, 2, ky=KernelSpec(kind="linear"))  # K_c = v v'


def test_fda_error_paths():
    x = Matrix(np.eye(2))
    with pytest.raises(MissingLabels):
        fda_fit(LabeledDataset(x), p=1)
    rng = np.random.RandomState(86)
    ds = _two_class_data(rng)
    with pytest.raises(DimensionMismatch):
        fda_fit(ds, p=5)


# ---------------------------------------------------------------------------
# kernel matrices
# ---------------------------------------------------------------------------


def test_linear_kernel_of_orthonormal_columns_is_identity():
    x = Matrix(np.eye(2))
    k = kernel_matrix(x, x, KernelSpec(kind="linear"))
    assert np.allclose(k.array, np.eye(2), atol=1e-15)


def test_linear_kernel_matches_gram_oracle():
    rng = np.random.RandomState(87)
    x = rng.standard_normal((3, 6))
    y = rng.standard_normal((3, 4))
    k = kernel_matrix(Matrix(x), Matrix(y), KernelSpec(kind="linear"))
    assert np.allclose(k.array, x.T @ y, atol=1e-12)


def test_rbf_kernel_diagonal_and_default_gamma():
    rng = np.random.RandomState(88)
    x = rng.standard_normal((3, 5))
    k = kernel_matrix(Matrix(x), Matrix(x), KernelSpec(kind="rbf")).array
    assert np.allclose(np.diag(k), 1.0, atol=1e-12)
    assert np.allclose(k, k.T, atol=1e-12)
    # default gamma is 1/d
    d01 = ((x[:, 0] - x[:, 1]) ** 2).sum()
    assert k[0, 1] == pytest.approx(math.exp(-d01 / 3.0), rel=1e-10)
    assert ((k > 0) & (k <= 1 + 1e-15)).all()


def test_rbf_kernel_respects_explicit_gamma():
    x = Matrix([[0.0, 1.0]])
    k = kernel_matrix(x, x, KernelSpec(kind="rbf", gamma=2.0)).array
    assert k[0, 1] == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_polynomial_kernel_matches_definition():
    rng = np.random.RandomState(89)
    x = rng.standard_normal((2, 4))
    k = kernel_matrix(
        Matrix(x), Matrix(x), KernelSpec(kind="polynomial", degree=3, coef0=1.0)
    ).array
    expect = (x.T @ x + 1.0) ** 3
    assert np.allclose(k, expect, rtol=1e-12)
    # degree 1 with coef0 0 degenerates to the linear kernel
    k1 = kernel_matrix(
        Matrix(x), Matrix(x), KernelSpec(kind="polynomial", degree=1, coef0=0.0)
    ).array
    assert np.allclose(k1, x.T @ x, atol=1e-12)


def test_delta_kernel_flags_exact_column_matches():
    x = Matrix([[1.0, 2.0, 1.0], [0.0, 5.0, 0.0]])
    k = kernel_matrix(x, x, KernelSpec(kind="delta")).array
    assert np.array_equal(k, [[1, 0, 1], [0, 1, 0], [1, 0, 1]])

    # duplicate columns, signed zeros and near misses against the
    # elementwise definition
    rng = np.random.RandomState(89)
    base = rng.standard_normal((3, 4))
    base[:, 1] = 0.0
    x1 = np.hstack([base, base[:, [0, 2]], -base[:, [1]], base[:, [3]] + 1e-15])
    x2 = np.hstack([base[:, [1, 3, 0]], np.nextafter(base[:, [2]], np.inf)])
    k = kernel_matrix(Matrix(x1), Matrix(x2), KernelSpec(kind="delta")).array
    expect = [
        [float(all(x1[r, i] == x2[r, j] for r in range(3))) for j in range(x2.shape[1])]
        for i in range(x1.shape[1])
    ]
    assert np.array_equal(k, expect)
    assert k[1, 0] == 1.0 and k[6, 0] == 1.0  # 0.0 and -0.0 columns match
    assert k.sum() == 5.0


def test_kernel_matrices_are_psd():
    rng = np.random.RandomState(90)
    x = Matrix(rng.standard_normal((3, 8)))
    for spec in (
        KernelSpec(kind="linear"),
        KernelSpec(kind="rbf"),
        KernelSpec(kind="rbf", gamma=3.0),
        KernelSpec(kind="polynomial", degree=2),
        KernelSpec(kind="delta"),
    ):
        k = kernel_matrix(x, x, spec).array
        lam = eig_sym(SymMatrix((k + k.T) / 2.0)).eigenvalues
        assert min(lam) >= -1e-8 * max(1.0, max(lam))


def _shifted_two_class(offset: float):
    """4 x 48 two-class data, class 1 moved by 1.5, shifted by ``offset``
    on every feature; plus 6 new columns shifted alike. Both shifted
    arrays minus ``offset`` are exact, so they give the same data at the
    origin."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 48))
    x[:, 24:] += 1.5
    new = rng.standard_normal((4, 6))
    return x + offset, new + offset, (0,) * 24 + (1,) * 24


def _rbf_from_differences(a, b, gamma):
    diff = a[:, :, None] - b[:, None, :]
    return np.exp(-gamma * np.sum(diff * diff, axis=0))


OFFSETS = (0.0, 1e3, 1e5, 1e6, 1e7, 1e8)


@pytest.mark.parametrize("offset", OFFSETS)
def test_rbf_kernel_does_not_depend_on_the_origin(offset):
    # exp(-gamma ||x - y||^2) depends only on x - y; formed as
    # ||x||^2 + ||y||^2 - 2 x'y on uncentred data it lost ~eps * offset^2
    x, new, _ = _shifted_two_class(offset)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    for a, b in ((x, x), (x, new)):
        k = kernel_matrix(Matrix(a), Matrix(b), spec).array
        assert np.abs(k - _rbf_from_differences(a, b, 0.5)).max() <= 1e-14


def test_kspca_fit_and_cli_on_far_shifted_data(tmp_path, capsys):
    # At an offset of 1e8 the uncentred rbf kernel was indefinite, and the
    # p = 2 fit (past the rank of G, so K_x is whitened) raised IndefiniteB
    offset = 1e8
    x, _, labels = _shifted_two_class(offset)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    ref = kspca_fit(LabeledDataset(Matrix(x - offset), labels=labels), 2, kx=spec)
    model = kspca_fit(LabeledDataset(Matrix(x), labels=labels), 2, kx=spec)
    lams = np.array(model.eigenvalues)
    assert np.abs(lams - ref.eigenvalues).max() <= 1e-13 * ref.eigenvalues[0]
    rows = [",".join(repr(float(v)) for v in col) + f",{lab}" for col, lab in zip(x.T, labels)]
    path = tmp_path / "shifted.csv"
    path.write_text("f1,f2,f3,f4,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert main(["kspca", "-p", "2", "--gamma", "0.5", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert np.abs(np.array(doc["eigenvalues"]) - ref.eigenvalues).max() <= 1e-13 * ref.eigenvalues[0]


@pytest.mark.parametrize("offset", [1e5, 1e8])
def test_kspca_transform_of_shifted_data_matches_the_unshifted(offset):
    # kspca_transform passes the training data first, so new data is
    # centred on the training mean; p = 1 is the one determined direction
    x, new, labels = _shifted_two_class(offset)
    spec = KernelSpec(kind="rbf", gamma=0.5)
    model = kspca_fit(LabeledDataset(Matrix(x), labels=labels), 1, kx=spec)
    ref = kspca_fit(LabeledDataset(Matrix(x - offset), labels=labels), 1, kx=spec)
    got = kspca_transform(model, Matrix(new)).array
    want = kspca_transform(ref, Matrix(new - offset)).array
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_kernel_matrix_validates_feature_dims():
    with pytest.raises(DimensionMismatch):
        kernel_matrix(Matrix(np.eye(2)), Matrix(np.eye(3)), KernelSpec(kind="linear"))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(kind="sigmoid")
    with pytest.raises(ValueError):
        KernelSpec(kind="rbf", gamma=0.0)
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial", degree=0)
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial", degree=1.5)
    with pytest.raises(ValueError, match="degree must be a positive integer"):
        KernelSpec(kind="polynomial", degree=math.inf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            KernelSpec(kind="rbf", gamma=bad)
        with pytest.raises(ValueError):
            KernelSpec(kind="polynomial", coef0=bad)
    # coef0 >= 0 keeps every kernel PSD by construction
    with pytest.raises(ValueError):
        KernelSpec(kind="polynomial", coef0=-1e-3)
    assert KernelSpec(kind="polynomial", coef0=0.0).coef0 == 0.0


# ---------------------------------------------------------------------------
# kernel supervised PCA
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["delta", "linear", "rbf", "polynomial"])
def test_label_kernel_is_the_class_kernel_spread_over_the_samples(kind):
    # labels are class ids, so K_y = Y K_c Y' bit for bit, with Y the
    # one-hot classes and K_c the kernel of the sorted class values
    labels = np.random.RandomState(96).randint(-1, 3, size=64).astype(float)
    ky = KernelSpec(kind=kind, gamma=0.7, degree=2, coef0=1.0)
    row = Matrix(labels.reshape(1, -1))
    classes = np.array(sorted(set(labels)))
    k_c = kernel_matrix(Matrix(classes.reshape(1, -1)), Matrix(classes.reshape(1, -1)), ky).array
    y = labels[:, None] == classes
    position = y.argmax(axis=1)
    assert np.array_equal(kernel_matrix(row, row, ky).array, k_c[np.ix_(position, position)])
    assert np.all(y.sum(axis=1) == 1)


def test_kspca_two_point_linear_closed_form():
    # two samples, linear kernels everywhere: the pencil is 2x2 and its
    # eigenvalues follow from the quadratic formula
    x = Matrix([[1.0, 0.0], [0.0, 2.0]])
    ds = LabeledDataset(x, labels=(1, 2))
    lin = KernelSpec(kind="linear")
    model = kspca_fit(ds, p=2, kx=lin, ky=lin)

    k_x = x.array.T @ x.array
    k_y = np.outer([1.0, 2.0], [1.0, 2.0])
    h = np.eye(2) - 0.5
    m = k_x @ h @ k_y @ h @ k_x
    # det(M - lambda K_x) = 0, expanded by hand for the 2x2 case
    a2 = np.linalg.det(k_x)
    a1 = -(m[0, 0] * k_x[1, 1] + m[1, 1] * k_x[0, 0] - 2 * m[0, 1] * k_x[0, 1])
    a0 = np.linalg.det(m)
    disc = math.sqrt(a1 * a1 - 4 * a2 * a0)
    roots = sorted([(-a1 + disc) / (2 * a2), (-a1 - disc) / (2 * a2)], reverse=True)
    assert model.eigenvalues == pytest.approx(roots, rel=1e-9)
    assert model.epsilon_used == 0.0

    theta = model.projection.array
    assert np.abs(theta.T @ k_x @ theta - np.eye(2)).max() < 1e-9


def test_kspca_distinct_labels_give_identity_label_kernel():
    rng = np.random.RandomState(91)
    x = Matrix(rng.standard_normal((3, 5)) * 2.0)
    ds = LabeledDataset(x, labels=tuple(range(5)))
    k_y = kernel_matrix(
        Matrix(np.arange(5.0).reshape(1, -1)),
        Matrix(np.arange(5.0).reshape(1, -1)),
        KernelSpec(kind="delta"),
    )
    assert np.array_equal(k_y.array, np.eye(5))
    model = kspca_fit(ds, p=2, kx=KernelSpec(kind="rbf", gamma=1.5))
    assert model.p == 2
    assert len(model.eigenvalues) == 2


def test_kspca_constraint_on_well_conditioned_kernel():
    rng = np.random.RandomState(92)
    x = Matrix(rng.standard_normal((4, 8)) * 2.0)
    ds = LabeledDataset(x, labels=(0, 0, 1, 1, 2, 2, 3, 3))
    kx = KernelSpec(kind="rbf", gamma=2.0)
    model = kspca_fit(ds, p=3, kx=kx)
    k_x = kernel_matrix(x, x, kx).array
    theta = model.projection.array
    labels_row = Matrix(np.array(ds.labels, dtype=float).reshape(1, -1))
    k_y = kernel_matrix(labels_row, labels_row, KernelSpec(kind="delta")).array
    h = centering_matrix(8).array
    m = k_x @ h @ k_y @ h @ k_x
    assert_diagnostics(
        model.residual, model.b_orthonormality, m, k_x, theta, model.eigenvalues
    )
    dev = np.abs(theta.T @ k_x @ theta - np.eye(3)).max()
    if model.epsilon_used == 0.0:
        assert dev < 1e-6
    else:
        # constraint holds in the eps-perturbed metric instead
        assert dev < 1e-2


def test_kspca_maximizes_dependence_trace():
    rng = np.random.RandomState(93)
    x = Matrix(rng.standard_normal((3, 7)) * 2.0)
    labels = (0, 1, 2, 0, 1, 2, 0)
    ds = LabeledDataset(x, labels=labels)
    kx = KernelSpec(kind="rbf", gamma=2.0)
    model = kspca_fit(ds, p=2, kx=kx)
    if model.epsilon_used > 0.0:
        pytest.skip("kernel came out numerically singular under this seed")

    k_x = kernel_matrix(x, x, kx).array
    labels_row = np.array(labels, dtype=float).reshape(1, -1)
    k_y = kernel_matrix(
        Matrix(labels_row), Matrix(labels_row), KernelSpec(kind="delta")
    ).array
    h = np.eye(7) - 1.0 / 7.0
    m = k_x @ h @ k_y @ h @ k_x

    theta = model.projection.array
    best = float(np.trace(theta.T @ m @ theta))
    for _ in range(200):
        frame = gram_schmidt(rng.standard_normal((7, 2)), metric=k_x)
        val = float(np.trace(frame.T @ m @ frame))
        assert val <= best * (1 + 1e-9) + 1e-9


def test_kspca_transform_consistency():
    rng = np.random.RandomState(94)
    x = Matrix(rng.standard_normal((3, 6)) * 1.5)
    ds = LabeledDataset(x, labels=(0, 0, 0, 1, 1, 1))
    kx = KernelSpec(kind="rbf", gamma=2.0)
    model = kspca_fit(ds, p=2, kx=kx)

    # embedding the training set reproduces Theta' K_x
    k_x = kernel_matrix(x, x, kx).array
    z_train = kspca_transform(model, x).array
    assert np.allclose(z_train, model.projection.array.T @ k_x, atol=1e-10)

    # a duplicate of a training point embeds like the original
    dup = Matrix(x.array[:, [2]])
    z_dup = kspca_transform(model, dup).array
    assert np.abs(z_dup.ravel() - z_train[:, 2]).max() <= 1e-9


def test_kspca_linear_kernel_matches_primal_projection():
    rng = np.random.RandomState(95)
    x = Matrix(rng.standard_normal((4, 4)))
    ds = LabeledDataset(x, labels=(0, 1, 0, 1))
    lin = KernelSpec(kind="linear")
    model = kspca_fit(ds, p=2, kx=lin, ky=KernelSpec(kind="delta"))

    x_new = Matrix(rng.standard_normal((4, 3)))
    dual = kspca_transform(model, x_new).array
    w = x.array @ model.projection.array  # primal directions X Theta
    primal = w.T @ x_new.array
    assert np.abs(dual - primal).max() <= 1e-9


def test_kspca_error_paths():
    x = Matrix(np.eye(3))
    with pytest.raises(MissingLabels):
        kspca_fit(LabeledDataset(x), p=1)
    ds = LabeledDataset(x, labels=(0, 1, 0))
    with pytest.raises(DimensionMismatch):
        kspca_fit(ds, p=4)
    model = kspca_fit(ds, p=1, kx=KernelSpec(kind="rbf", gamma=2.0))
    with pytest.raises(DimensionMismatch):
        kspca_transform(model, Matrix(np.eye(2)))
    with pytest.raises(InputError):
        kspca_transform(
            pca_fit(Matrix(np.eye(2)), p=1), Matrix(np.eye(2))
        )


@pytest.mark.parametrize(
    "ky", [None, KernelSpec(kind="rbf"), KernelSpec(kind="linear")], ids=["delta", "rbf", "linear"]
)
def test_kspca_single_class_raises_before_any_kernel_matrix(ky, monkeypatch):
    # one class makes H K_y H = 0 for every label kernel, as fda's S_B = 0
    def no_kernel_matrix(*args):
        raise AssertionError("kernel_matrix called")

    monkeypatch.setattr(apps, "kernel_matrix", no_kernel_matrix)
    ds = LabeledDataset(Matrix([[1.0, 1.0, 2.0]]), labels=(0, 0, 0))
    with pytest.raises(SingleClass, match="need at least 2 classes, got 1"):
        kspca_fit(ds, p=1, ky=ky)


# ---------------------------------------------------------------------------
# low-rank numerators: S_B = D D' and K_x H K_y H K_x = F F'
# ---------------------------------------------------------------------------


def _class_data(rng, c: int, per: int, d: int, repeat: bool = False) -> LabeledDataset:
    """c classes of ``per`` samples around spread-out centers; with
    ``repeat`` the last sample of each class repeats its first, which
    makes every kernel matrix exactly singular."""
    labels = np.repeat(np.arange(c), per)
    rng.shuffle(labels)
    centers = rng.standard_normal((d, c)) * 3.0
    x = centers[:, labels] + rng.standard_normal((d, labels.size))
    if repeat:
        for cls in range(c):
            idx = np.flatnonzero(labels == cls)
            x[:, idx[-1]] = x[:, idx[0]]
    return LabeledDataset(Matrix(x), labels=tuple(int(v) for v in labels))


def _fda_full(ds):
    """(pencil, Phi, intermediates) of (S_B, S_W) whitened in full."""
    pair = scatter_matrices(ds)
    pen = Pencil(pair.s_b, pair.s_w)
    sol, inter = solve_rigorous(pen)
    return pen, sol.phi.array, inter


def _kspca_full(ds, kx, ky):
    """(pencil, Phi, intermediates) of (K_x H K_y H K_x, K_x), K_y formed and whitened in full."""
    row = Matrix(np.array(ds.labels, dtype=np.float64).reshape(1, -1))
    k_x = kernel_matrix(ds.x, ds.x, kx).array
    k_y = kernel_matrix(row, row, ky).array
    h = centering_matrix(ds.n).array
    m = kernels.matmul(k_x, kernels.matmul(h @ k_y @ h, k_x))
    pen = Pencil(SymMatrix((m + m.T) / 2.0), SymMatrix((k_x + k_x.T) / 2.0))
    sol, inter = solve_rigorous(pen)
    return pen, sol.phi.array, inter


def _assert_matches_full(model, phi, inter, p):
    lams = np.array(inter.lambda_a[:p])
    assert np.abs(np.array(model.eigenvalues) - lams).max() <= 1e-12 * abs(lams[0])
    # Compare the spans in whitened coordinates W^-1 Phi, the eigenvectors
    # of A_breve: with eps > 0 the component of Phi along a null direction
    # of B that A does not see is roundoff scaled by 1/eps^2 on either path.
    # Davis-Kahan bounds the gap by the error in A_breve over the eigenvalue
    # gap; that error grows with the condition of W, up to 1/eps^2.
    scale = np.sqrt(np.maximum(inter.lambda_b, 0.0)) + inter.epsilon_used
    unwhiten = scale[:, None] * inter.phi_b.array.T
    gap = inter.lambda_a[p - 1] - inter.lambda_a[p]
    got, want = (unwhiten @ m for m in (model.projection.array, phi[:, :p]))
    assert span_gap(got, want) <= 1e-10 * lams[0] / gap
    assert model.epsilon_used == inter.epsilon_used


@pytest.fixture
def fit_pencils(monkeypatch):
    """(metric, factor, preimage) of each call the fits make to ``_fit_pairs``."""
    seen = []

    def recording(factor, b, k, epsilon, preimage=None):
        seen.append((b, factor, preimage))
        return _fit_pairs(factor, b, k, epsilon, preimage)

    monkeypatch.setattr(apps, "_fit_pairs", recording)
    return seen


def _assert_cholesky_pairs(model, fit_pencils, p, factored):
    """The fit took W = L^-T on its own metric and factor, bit for bit,
    through the c x c M = G'F of G = W W'F (``factored``) or the full
    A_breve, the Gram of W'F."""
    (b, factor, _), = fit_pencils
    w = kernels.cholesky_inverse(b).T
    if factored:
        phi, lams = _preimage_pairs(kernels.matmul(w, kernels.matmul(w.T, factor)), factor, p)
    else:
        phi, lams = gram_fallback(w, factor)
    assert model.strategy == "cholesky" and model.epsilon_used == 0.0
    assert np.array_equal(model.projection.array, phi[:, :p])
    assert model.eigenvalues == tuple(lams[:p])


def _label_factor(ds, ky):
    """G = H Y R as the fit builds it: K_c = R R', R = I for the delta
    kernel and from eig of the class kernel with its null eigenvalues
    dropped for the others, so that H K_y H = G G'."""
    classes = sorted(set(ds.labels))
    if ky.kind == "delta":
        r = np.eye(len(classes))
    else:
        row = Matrix(np.array(classes, dtype=np.float64).reshape(1, -1))
        dec = eig_sym(kernel_matrix(row, row, ky), order="descending")
        keep = [i for i in range(len(classes)) if i not in null_eigenvalues(dec.eigenvalues)]
        r = dec.phi.array[:, keep] * np.sqrt(np.array(dec.eigenvalues)[keep])
    yr = r[[classes.index(v) for v in ds.labels]]
    return yr - yr.mean(axis=0)


def _assert_gram_pairs(model, ds, kx, ky, p, factorizations, eigen_inputs):
    """The fit took its pairs from the c x c M = G' K_x G, bit for bit, and
    never whitened K_x: since both fixtures were cleared, no Cholesky
    factorization and no n x n decomposition."""
    assert factorizations == []
    assert all(m.shape[0] < ds.n for _, m in eigen_inputs)
    g = _label_factor(ds, ky)
    k_x = kernel_matrix(ds.x, ds.x, kx).array
    phi, lams = _preimage_pairs(g, kernels.matmul(k_x, g), p)
    assert model.strategy == "gram" and model.epsilon_used == 0.0
    assert np.array_equal(model.projection.array, phi)
    assert model.eigenvalues == tuple(lams)


def _assert_exact_pairs(model, ds, kx, ky, p, tol=1e-13):
    """The pairs solve the unregularized pencil (K_x H K_y H K_x, K_x), in
    numpy: eigenvalues within ``tol`` relative of eigvalsh(G' K_x G), and
    residual and max|Theta' K_x Theta - I| at most ``tol``."""
    g = _label_factor(ds, ky)
    k_x = kernel_matrix(ds.x, ds.x, kx).array
    want = np.linalg.eigvalsh(g.T @ k_x @ g)[::-1][:p]
    got = np.array(model.eigenvalues)
    assert np.all(np.abs(got - want) <= tol * want)
    h = centering_matrix(ds.n).array
    row = Matrix(np.array(ds.labels, dtype=np.float64).reshape(1, -1))
    a = k_x @ h @ kernel_matrix(row, row, ky).array @ h @ k_x
    theta = model.projection.array
    resid = np.linalg.norm(a @ theta - (k_x @ theta) * got) / max(1.0, np.linalg.norm(a))
    assert resid <= tol
    assert np.abs(theta.T @ k_x @ theta - np.eye(p)).max() <= tol


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_fda_factored_path_matches_full_pencil(c, singular, eigen_inputs, fit_pencils):
    rng = np.random.RandomState(700 + 10 * c + singular)
    # 2 samples per class in 12 features leave S_W rank n - c < d
    d, per = (12, 2) if singular else (6, 8)
    ds = _class_data(rng, c, per, d)
    pen, phi, inter = _fda_full(ds)
    assert (inter.epsilon_used > 0.0) == singular
    for p in range(1, c):
        eigen_inputs.clear()
        fit_pencils.clear()
        model = fda_fit(ds, p)
        if singular:
            # S_W, then the Gram
            assert model.strategy == "whitening"
            assert kernel_calls(eigen_inputs) == [(metric_kernel(pen.b.array), d), ("jacobi_eigh", c)]
        else:
            # S_W passes the Cholesky gate: the Gram is the only decomposition
            assert kernel_calls(eigen_inputs) == [("jacobi_eigh", c)]
            _assert_cholesky_pairs(model, fit_pencils, p, factored=True)
        _assert_matches_full(model, phi, inter, p)
        assert_diagnostics(
            model.residual, model.b_orthonormality, pen.a.array, pen.b.array,
            model.projection.array, model.eigenvalues,
        )


@pytest.mark.parametrize("singular", [False, True])
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_kspca_factored_path_matches_full_pencil(c, singular, eigen_inputs, factorizations):
    rng = np.random.RandomState(720 + 10 * c + singular)
    ds = _class_data(rng, c, 4, 3, repeat=singular)
    kx, delta = KernelSpec(kind="rbf", gamma=1.0), KernelSpec(kind="delta")
    pen, phi, inter = _kspca_full(ds, kx, delta)
    # a repeated sample makes K_x singular, and the full whitening regularizes it
    assert (inter.epsilon_used > 0.0) == singular
    for p in range(1, c):
        eigen_inputs.clear()
        factorizations.clear()
        model = kspca_fit(ds, p, kx=kx)
        # the c x c M = G' K_x G is the only decomposition, singular K_x or
        # not: the delta kernel's K_c = I takes none
        assert kernel_calls(eigen_inputs) == [("jacobi_eigh", c)]
        _assert_gram_pairs(model, ds, kx, delta, p, factorizations, eigen_inputs)
        if singular:
            # the fit solves the pencil itself, not the eps-perturbed one
            _assert_exact_pairs(model, ds, kx, delta, p)
        else:
            _assert_matches_full(model, phi, inter, p)
        # diagnostics against K_x H K_y H K_x, which F F' equals up to roundoff
        assert_diagnostics(
            model.residual, model.b_orthonormality, pen.a.array, pen.b.array,
            model.projection.array, model.eigenvalues,
        )


@pytest.mark.parametrize("n", [16, 24, 48, 64, 72])
def test_kspca_cholesky_path_matches_the_whitening_path(n, eigen_inputs, factorizations):
    # The workload's shape: 8 features, rbf K_x with the default gamma. The
    # fit takes the c x c route, with no factorization of K_x and the c x c
    # Jacobi of M as its only decomposition; the Cholesky path it replaced,
    # which the fallback and fda_fit keep, gives the same pairs on its pencil.
    rng = np.random.RandomState(730 + n)
    ds = _class_data(rng, 4, n // 4, 8)
    kx, delta = KernelSpec(kind="rbf"), KernelSpec(kind="delta")
    pen, phi, inter = _kspca_full(ds, kx, delta)
    factor = kernels.matmul(pen.b.array, _label_factor(ds, delta))
    for p in (1, 2, 3):
        eigen_inputs.clear()
        factorizations.clear()
        model = kspca_fit(ds, p)
        assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 4)]
        _assert_gram_pairs(model, ds, kx, delta, p, factorizations, eigen_inputs)
        _assert_matches_full(model, phi, inter, p)
        factorizations.clear()
        chol_phi, chol_lams, white = _fit_pairs(factor, pen.b.array, p, None)
        assert white.kind == "cholesky" and factorizations == [n]
        chol = types.SimpleNamespace(projection=Matrix(chol_phi), eigenvalues=chol_lams, epsilon_used=white.eps)
        _assert_matches_full(chol, phi, inter, p)


def test_kspca_repeated_sample_takes_the_whitening(eigen_inputs, fit_pencils):
    # A repeated sample makes K_x exactly singular. At p = c = 3 the c x c
    # route falls back (rank(H Y) = c - 1): K_x fails the Cholesky gate, and
    # the fit whitens through eig(K_x) with the default eps.
    rng = np.random.RandomState(745)
    ds = _class_data(rng, 3, 8, 5, repeat=True)
    model = kspca_fit(ds, p=3)
    # the c x c M, then eig(K_x) and the n x n A_breve
    assert kernel_calls(eigen_inputs) == [
        ("jacobi_eigh", 3), ("tridiag_eigh", 24), ("tridiag_eigh", 24),
    ]
    # the fit passed G, whose M declined; no second Gram follows it
    (b, factor, preimage), = fit_pencils
    assert preimage is not None
    white = _whitening(b, None)
    assert white.eps == default_epsilon(SymMatrix(b)) > 0.0
    assert model.strategy == "whitening" and model.epsilon_used == white.eps
    phi, lams = gram_fallback(white.w, factor)
    assert np.array_equal(model.projection.array, phi[:, :3])
    assert model.eigenvalues == tuple(lams[:3])


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("seed, per, d", [(745, 8, 5), (751, 4, 3)])
def test_kspca_singular_kernel_gives_exact_pairs(seed, per, d, p, eigen_inputs, factorizations):
    # a repeated sample makes K_x exactly singular; the c x c route needs no
    # eps there and solves the unregularized pencil to roundoff
    ds = _class_data(np.random.RandomState(seed), 3, per, d, repeat=True)
    kx, delta = KernelSpec(kind="rbf"), KernelSpec(kind="delta")
    assert _kspca_full(ds, kx, delta)[2].epsilon_used > 0.0
    eigen_inputs.clear()
    factorizations.clear()
    model = kspca_fit(ds, p)
    _assert_gram_pairs(model, ds, kx, delta, p, factorizations, eigen_inputs)
    _assert_exact_pairs(model, ds, kx, delta, p)


def test_kspca_rejects_an_indefinite_polynomial_kernel(tmp_path, capsys):
    # X'X - 5 is indefinite. K_c = R R' needs a PSD class kernel, and one
    # rule serves K_x too: a polynomial kernel with coef0 < 0 is rejected,
    # in the API and on the command line, at every p.
    ds = _class_data(np.random.RandomState(795), 3, 4, 3)
    x = ds.x.array
    assert np.linalg.eigvalsh(x.T @ x - 5.0)[0] < 0.0
    with pytest.raises(ValueError, match="coef0 must be nonnegative"):
        KernelSpec(kind="polynomial", degree=1, coef0=-5.0)
    rows = [",".join(f"{v!r}" for v in col) + f",{lab}" for col, lab in zip(x.T, ds.labels)]
    path = tmp_path / "data.csv"
    path.write_text("f1,f2,f3,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
    for kernel_flags in (["--kernel", "polynomial"], ["--kernel-y", "polynomial"]):
        with pytest.raises(SystemExit) as exc:
            main(["kspca", "-p", "1", *kernel_flags, "--degree", "1", "--coef0", "-5", str(path)])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err


def test_linear_kspca_is_exactly_scale_covariant():
    # n = 18 samples in 4 features: the linear K_x has rank 4 and is
    # singular. Scaling X by 2^k scales K_x and M = G' K_x G by 4^k exactly,
    # so the eigenvalues scale by 4^k and Theta by 2^-k, bit for bit.
    ds = _class_data(np.random.RandomState(790), 3, 6, 4)
    lin = KernelSpec(kind="linear")
    base = kspca_fit(ds, 2, kx=lin)
    lams, theta = np.array(base.eigenvalues), base.projection.array
    for k in range(-20, 21):
        scaled = LabeledDataset(Matrix(np.ldexp(ds.x.array, k)), labels=ds.labels)
        model = kspca_fit(scaled, 2, kx=lin)
        assert model.strategy == "gram" and model.epsilon_used == 0.0
        assert np.array_equal(np.array(model.eigenvalues), np.ldexp(lams, 2 * k)), k
        assert np.array_equal(model.projection.array, np.ldexp(theta, -k)), k


def test_fda_factors_the_within_class_scatter_once(factorizations, eigen_inputs):
    # S_W has no factor in S_B = D D', so fda_fit still whitens it: one
    # Cholesky factorization of S_W, passing the gate or not. Then one
    # c x c Jacobi of M = G'D, G = W W'D, and no d x d A_breve; eig(S_W)
    # comes first where S_W fails the gate.
    for per, d in ((8, 6), (2, 12)):
        ds = _class_data(np.random.RandomState(700 + per), 3, per, d)
        factorizations.clear()
        eigen_inputs.clear()
        model = fda_fit(ds, 2)
        assert factorizations == [d]
        assert model.strategy == ("cholesky" if per == 8 else "whitening")
        eig_s_w = [] if per == 8 else [(metric_kernel(scatter_matrices(ds).s_w.array), d)]
        assert kernel_calls(eigen_inputs) == eig_s_w + [("jacobi_eigh", 3)]


def test_kspca_fit_decomposes_one_kernel_matrix(eigen_inputs, factorizations, monkeypatch):
    rng = np.random.RandomState(740)
    ds = _class_data(rng, 3, 8, 5)
    calls = []
    original = apps.kernel_matrix

    def counting(*args, **kwargs):
        calls.append((args[2].kind, args[0].cols, args[1].cols))
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("genspectra") and (
            getattr(mod, "kernel_matrix", None) is original
        ):
            monkeypatch.setattr(mod, "kernel_matrix", counting)
    products = []

    def recording(a, b, _kernel=kernels.matmul):
        products.append((a.shape[0], a.shape[1], b.shape[1]))
        return _kernel(a, b)

    monkeypatch.setattr(kernels, "matmul", recording)
    model = kspca_fit(ds, p=2)
    # the n x n K_x only: K_y enters as Y R, unbuilt, and the delta
    # kernel's K_c = I needs no class kernel
    assert calls == [("rbf", 24, 24)]
    # K_x (n = 24) is neither factored nor decomposed, and K_c = I is not
    # decomposed: one c x c (M = G' K_x G)
    assert model.strategy == "gram" and factorizations == []
    assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 3)]
    # the one product with an n x n result is K_x's Gram, x'x over the 5
    # features: no F F' (n x c x n), no n^3 product
    assert [s for s in products if s[0] == s[2] == 24] == [(24, 5, 24)]
    assert not any(s == (24, 24, 24) for s in products)


def _assert_fallback(model, inter, p, eigen_inputs, fit_pencils):
    """The fit whitened in full with W = L^-T: B factored and never
    decomposed, then the n x n A_breve decomposed once."""
    (b, _, _), = fit_pencils
    n = b.shape[0]
    b_kernel = _pow2_scaled(b)[0]
    assert not any(np.array_equal(m, b_kernel) for _, m in eigen_inputs)
    assert [k for k in kernel_calls(eigen_inputs) if k[1] == n] == [(ungraded_kernel(n), n)]
    _assert_cholesky_pairs(model, fit_pencils, p, factored=False)
    # eig(B)'s whitening of the full pencil gives the same eigenvalues
    lams = np.array(inter.lambda_a[:p])
    assert np.abs(np.array(model.eigenvalues) - lams).max() <= 1e-12 * abs(lams[0])


def test_fda_falls_back_beyond_the_rank_of_d(eigen_inputs, fit_pencils):
    rng = np.random.RandomState(750)
    ds = _class_data(rng, 3, 6, 5)
    pen, phi, inter = _fda_full(ds)
    eigen_inputs.clear()
    with pytest.warns(UserWarning):
        model = fda_fit(ds, p=3)  # rank(D) <= c - 1 = 2
    _assert_fallback(model, inter, 3, eigen_inputs, fit_pencils)


def test_fda_falls_back_when_two_class_means_coincide(eigen_inputs, fit_pencils):
    # classes 0 and 1 share their mean exactly, so D has rank 1 < p = 2
    rng = np.random.RandomState(751)
    base = rng.standard_normal((4, 1))
    steps = np.array([[0.5, -0.5, 0.25, -0.25]])
    x0 = base + np.vstack([steps, -steps, steps[:, ::-1], np.zeros_like(steps)])
    x1 = base + np.vstack([-steps, steps[:, ::-1], steps, steps])
    x2 = base + 3.0 + rng.standard_normal((4, 4))
    ds = LabeledDataset(Matrix(np.hstack([x0, x1, x2])), labels=(0,) * 4 + (1,) * 4 + (2,) * 4)
    pair = scatter_matrices(ds)
    assert np.array_equal(pair.offsets.array[:, 0], pair.offsets.array[:, 1])
    pen, phi, inter = _fda_full(ds)
    eigen_inputs.clear()
    model = fda_fit(ds, p=2)
    # S_W passes the Cholesky gate; the 3 x 3 Gram shows rank 1, then the full A_breve
    assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 3), ("jacobi_eigh", 4)]
    _assert_fallback(model, inter, 2, eigen_inputs, fit_pencils)


@pytest.mark.parametrize("p", [3, 4])
def test_kspca_falls_back_at_p_of_c_or_more(p, eigen_inputs, fit_pencils):
    rng = np.random.RandomState(760)
    ds = _class_data(rng, 3, 4, 3)
    kx = KernelSpec(kind="rbf", gamma=1.0)
    pen, phi, inter = _kspca_full(ds, kx, KernelSpec(kind="delta"))
    eigen_inputs.clear()
    with pytest.warns(UserWarning):
        model = kspca_fit(ds, p, kx=kx)
    # the fit's A is F F' rather than the full product of _kspca_full
    _assert_fallback(model, inter, p, eigen_inputs, fit_pencils)


def _assert_scipy_pencil(model, ds, kx, p):
    """The pairs solve (K_x H K_y H K_x, K_x), K_y the delta kernel, formed
    in full in numpy: eigenvalues within 1e-12 of scipy's ``eigh`` relative
    to the largest, and criterion 10's bounds, max|Theta' K_x Theta - I| below
    1e-6 and ||A Theta - K_x Theta Lambda||_F below 1e-6 ||K_x||_F^2."""
    import scipy.linalg

    k_x = kernel_matrix(ds.x, ds.x, kx).array
    labels = np.array(ds.labels)
    k_y = (labels[:, None] == labels[None, :]).astype(np.float64)
    h = centering_matrix(ds.n).array
    a = k_x @ h @ k_y @ h @ k_x
    want = scipy.linalg.eigh(a, k_x, eigvals_only=True)[::-1][:p]
    got = np.array(model.eigenvalues)
    assert np.abs(got - want).max() <= 1e-12 * want[0]
    theta = model.projection.array
    assert np.abs(theta.T @ k_x @ theta - np.eye(p)).max() < 1e-6
    assert np.sqrt(((a @ theta - (k_x @ theta) * got) ** 2).sum()) < 1e-6 * (k_x**2).sum()


@pytest.mark.parametrize("c", [9, 12])
def test_kspca_delta_labels_take_r_of_identity_at_every_c(
    c, eigen_inputs, factorizations, fit_pencils
):
    # From c = 9 up eig_sym would take the tridiagonal kernel for K_c = I;
    # R = I takes no decomposition at any c, and the pairs are the pencil's.
    ds = _class_data(np.random.RandomState(810 + c), c, 4, 3)
    kx = KernelSpec(kind="rbf", gamma=1.0)
    for p in (2, c - 1):
        eigen_inputs.clear()
        factorizations.clear()
        model = kspca_fit(ds, p, kx=kx)
        # the c x c M = G' K_x G only
        assert kernel_calls(eigen_inputs) == [(ungraded_kernel(c), c)]
        _assert_gram_pairs(model, ds, kx, KernelSpec(kind="delta"), p, factorizations, eigen_inputs)
        _assert_scipy_pencil(model, ds, kx, p)
    # p = c falls back to the n x n A_breve, the Gram of W'F, with W = L^-T
    fit_pencils.clear()
    eigen_inputs.clear()
    with pytest.warns(UserWarning):
        model = kspca_fit(ds, c, kx=kx)
    assert model.strategy == "cholesky"
    _assert_cholesky_pairs(model, fit_pencils, c, factored=False)
    _assert_scipy_pencil(model, ds, kx, c)
    # its leading c - 1 directions span those of the Gram route
    gram = kspca_fit(ds, c - 1, kx=kx)
    assert span_gap(model.projection.array[:, : c - 1], gram.projection.array) <= 1e-10


def test_kspca_linear_label_kernel_is_rank_one(eigen_inputs, factorizations, fit_pencils):
    rng = np.random.RandomState(770)
    ds = _class_data(rng, 3, 5, 3)
    kx, lin = KernelSpec(kind="rbf", gamma=1.0), KernelSpec(kind="linear")
    pen, phi, inter = _kspca_full(ds, kx, lin)
    eigen_inputs.clear()
    factorizations.clear()
    model = kspca_fit(ds, 1, kx=kx, ky=lin)
    # K_c = v v' has rank 1, so F = K_x H Y R, R = +-v: the 3 x 3 K_c, then
    # the 1 x 1 M = R' Y' H K_x H Y R
    assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 3), ("jacobi_eigh", 1)]
    _assert_gram_pairs(model, ds, kx, lin, 1, factorizations, eigen_inputs)
    _assert_matches_full(model, phi, inter, 1)
    eigen_inputs.clear()
    fit_pencils.clear()
    with pytest.warns(UserWarning):
        model = kspca_fit(ds, 2, kx=kx, ky=lin)  # wider than F
    _assert_fallback(model, inter, 2, eigen_inputs, fit_pencils)


def test_kspca_rbf_label_kernel_takes_the_gram_route(eigen_inputs, factorizations):
    rng = np.random.RandomState(780)
    ds = _class_data(rng, 3, 5, 3)
    kx, ky = KernelSpec(kind="rbf", gamma=1.0), KernelSpec(kind="rbf", gamma=0.5)
    pen, phi, inter = _kspca_full(ds, kx, ky)
    eigen_inputs.clear()
    factorizations.clear()
    model = kspca_fit(ds, 2, kx=kx, ky=ky)
    # K_c, then the 3 x 3 M = G' K_x G: K_y and K_x H K_y H K_x are never formed
    assert kernel_calls(eigen_inputs) == [("jacobi_eigh", 3)] * 2
    _assert_gram_pairs(model, ds, kx, ky, 2, factorizations, eigen_inputs)
    _assert_matches_full(model, phi, inter, 2)


@pytest.mark.parametrize(
    "ky, c",
    [
        (KernelSpec(kind="rbf", gamma=0.7), 3),
        (KernelSpec(kind="rbf", gamma=0.7), 5),
        (KernelSpec(kind="polynomial", degree=2, coef0=1.0), 3),
    ],
    ids=["rbf-3", "rbf-5", "polynomial-3"],
)
def test_kspca_smooth_label_kernels_solve_the_pencil(ky, c, eigen_inputs, factorizations, fit_pencils):
    # K_c is nonsingular, so G = H Y R has rank c - 1: p <= c - 1 takes the
    # gram route with K_x neither factored nor decomposed, on a nonsingular
    # K_x and on one a repeated sample makes singular; p = c falls back
    rng = np.random.RandomState(800 + c)
    kx = KernelSpec(kind="rbf", gamma=1.0)
    ds = _class_data(rng, c, 5, 3)
    repeated = _class_data(rng, c, 5, 3, repeat=True)
    pen, phi, inter = _kspca_full(ds, kx, ky)
    assert inter.epsilon_used == 0.0 < _kspca_full(repeated, kx, ky)[2].epsilon_used
    for p in range(1, c):
        for data in (ds, repeated):
            eigen_inputs.clear()
            factorizations.clear()
            model = kspca_fit(data, p, kx=kx, ky=ky)
            assert kernel_calls(eigen_inputs) == [("jacobi_eigh", c)] * 2
            _assert_gram_pairs(model, data, kx, ky, p, factorizations, eigen_inputs)
            if data is ds:
                _assert_matches_full(model, phi, inter, p)
            else:
                _assert_exact_pairs(model, data, kx, ky, p)
    eigen_inputs.clear()
    fit_pencils.clear()
    model = kspca_fit(ds, c, kx=kx, ky=ky)
    _assert_fallback(model, inter, c, eigen_inputs, fit_pencils)
