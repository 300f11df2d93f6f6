"""Dimensionality-reduction applications built on the eigensolvers.

Three classics, each reduced to the eigenproblem it really is:

* PCA: top eigenvectors of the centered second-moment matrix S = XcXc'
  (no 1/n factor, so eigenvalues scale with the sample count);
* Fisher discriminant analysis: top generalized eigenvectors of the
  scatter pencil (S_B, S_W);
* kernel supervised PCA: top generalized eigenvectors of
  (K_x H K_y H K_x, K_x) with H the centering projector.

The numerators of the last two have a known low rank, S_B = D D' with
D = [mu_j - mu_t] and K_x H K_y H K_x = F F' with F = K_x G, G = H Y R,
Y the one-hot classes and R R' the class kernel (R = I for the delta
kernel). Both fits take their
leading pairs through one call, ``pencil._fit_pairs``, from the small
M = G'F of a preimage G of the factor, F = B G, and report the
``strategy`` and eps of the ``_Whitening`` record it returns. KSPCA holds
G = H Y R, so K_x is never factored or decomposed. FDA whitens S_W once,
by W = L^-T from S_W = L L' where S_W passes the Cholesky gate of the
quick route (``pencil._cholesky_whitening``) and by
Phi_B (Lambda_B^1/2 + eps I)^-1 from eig(S_W) otherwise, and takes
G = W W'D, Fisher's S_W^-1 (mu_j - mu_t). Each fit measures its p pairs
by a direct call: ``pencil._dense_diagnostics`` on S or (S_B, S_W), and
``pencil._diagnostics`` on KSPCA's F (F'Phi) and ||F'F||_F = ||F F'||_F,
as F F' is never formed.

Both labeled fits split the samples by one index of class positions.
S, S_W, S_B = D D' and K(X, X) are exactly symmetric. The builders wrap
them with no copy (``Matrix._wrap``), and the fits read their arrays.

Data matrices are d x n with one sample per column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DimensionMismatch, InputError, MissingLabels, SingleClass
from .eigen import eig_sym
from .linalg import Matrix, SymMatrix, Vector, frobenius_norm, null_eigenvalues
from .pencil import _dense_diagnostics, _diagnostics, _fit_pairs

_KERNEL_KINDS = ("linear", "rbf", "polynomial", "delta")


@dataclass(frozen=True)
class LabeledDataset:
    """A d x n data matrix with one sample per column, plus optional labels.

    Labels are integer class ids; a value with a fractional part, NaN or
    +-inf raises ``InputError`` rather than being truncated.
    """

    x: Matrix
    labels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.labels is not None:
            object.__setattr__(self, "labels", _class_ids(self.labels))
            if len(self.labels) != self.x.cols:
                raise DimensionMismatch(
                    f"{len(self.labels)} labels for {self.x.cols} samples"
                )

    @property
    def n(self) -> int:
        return self.x.cols

    @property
    def d(self) -> int:
        return self.x.rows


def _class_ids(labels) -> tuple[int, ...]:
    """``labels`` as ints: in one pass for a 1-D float or int array of integers
    below 2^63 in magnitude, else label by label, raising ``InputError`` on
    the first that is not one (a fraction, or NaN and +-inf, which int() rejects)."""
    if isinstance(labels, np.ndarray) and labels.ndim == 1 and labels.dtype.kind in "fi":
        if (np.abs(labels) < 2.0**63).all() and (labels == np.floor(labels)).all():  # NaN fails
            return tuple(labels.astype(np.int64).tolist())
    ids = []
    for v in labels:
        try:
            ids.append(int(v))
        except (ValueError, OverflowError):
            ids.append(None)
        if v != ids[-1]:
            raise InputError(f"labels must be integer class ids, got {v!r}")
    return tuple(ids)


@dataclass(frozen=True)
class ScatterPair:
    """Between-class and within-class scatter matrices of a labeled set.

    ``offsets`` is D, the d x c matrix whose columns are the class-mean
    offsets mu_j - mu_t in sorted class order, so that S_B = D D'.
    ``scatter_matrices`` sets it; a pair built by hand may leave it None.
    """

    s_b: SymMatrix
    s_w: SymMatrix
    offsets: Matrix | None = None

    def __post_init__(self):
        if self.s_b.dim != self.s_w.dim:
            raise DimensionMismatch(
                f"scatter dims differ: {self.s_b.dim} and {self.s_w.dim}"
            )


@dataclass(frozen=True)
class KernelSpec:
    """Kernel choice and hyperparameters.

    Kinds: ``linear``, ``rbf`` (gamma defaults to 1/d), ``polynomial``
    (degree, coef0 >= 0), and ``delta`` (1 when the two columns are
    identical, else 0; the usual label kernel for classification). gamma
    and coef0 must be finite. Every kind is PSD by construction, the
    polynomial one as a Schur power of the PSD x'y + coef0.
    """

    kind: str = "rbf"
    gamma: float | None = None
    degree: int = 3
    coef0: float = 1.0

    def __post_init__(self):
        if self.kind not in _KERNEL_KINDS:
            raise ValueError(f"kernel kind must be one of {_KERNEL_KINDS}, got {self.kind!r}")
        if self.gamma is not None and not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not (1 <= self.degree < np.inf and self.degree == int(self.degree)):
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        if not 0 <= self.coef0 < np.inf:
            raise ValueError(f"coef0 must be nonnegative and finite, got {self.coef0}")


@dataclass(frozen=True)
class EmbeddingModel:
    """A fitted projection.

    ``projection`` holds d x p directions for pca/fda or n x p dual
    coefficients for kspca; ``eigenvalues`` match its columns.
    ``residual`` and ``b_orthonormality`` measure that block against the
    pencil the fit solved, as ``GenEigenSolution`` defines them: (S, I)
    for pca, (S_B, S_W) for fda, (K_x H K_y H K_x, K_x) for kspca. kspca's
    numerator is F F', F = K_x H Y R, for every label kernel (equal to
    K_x H K_y H K_x in exact arithmetic), and is never formed: the fit
    passes ``pencil._diagnostics`` A Phi = F (F' Phi) and ||F'F||_F.
    ``strategy`` and ``epsilon_used`` are the ``kind`` and ``eps`` of the
    ``pencil._Whitening`` record of how fda and kspca treated the
    denominator: ``"gram"`` where kspca took its pairs from the r x r
    M = G' K_x G, with no whitening of K_x, and otherwise ``"cholesky"``
    (W = L^-T) or ``"whitening"`` (eig(B)); pca leaves it None. The
    remaining fields carry whatever the transform step needs: the training
    mean for pca, kernel specs and training data for kspca.
    """

    method: str
    projection: Matrix
    eigenvalues: tuple[float, ...]
    residual: float
    b_orthonormality: float
    mean: Vector | None = None
    kernel_x: KernelSpec | None = None
    kernel_y: KernelSpec | None = None
    training_x: Matrix | None = None
    epsilon_used: float = 0.0
    strategy: str | None = None

    @property
    def p(self) -> int:
        return self.projection.cols


# ---------------------------------------------------------------------------
# PCA


def covariance(x: Matrix) -> SymMatrix:
    """Centered second-moment matrix S = Xc Xc' (no 1/n normalization)."""
    xc = x.array - x.array.mean(axis=1).reshape(-1, 1)
    return SymMatrix._wrap(kernels.matmul(xc, xc.T))


def pca_fit(x: Matrix, p: int) -> EmbeddingModel:
    """Top-p principal directions of the columns of x.

    The directions are the leading eigenvectors of the centered
    second-moment matrix; the eigenvalue of direction k equals the
    projected variance u_k' S u_k.
    """
    if not 1 <= p <= x.rows:
        raise DimensionMismatch(f"p must lie in [1, {x.rows}], got {p}")
    s = covariance(x)
    dec = eig_sym(s, order="descending")
    phi, lams = dec.phi.array[:, :p], dec.eigenvalues[:p]
    return _model(
        "pca", phi, lams, _dense_diagnostics(s.array, None, phi, lams),
        mean=Vector(x.array.mean(axis=1)),
    )


def pca_transform(model: EmbeddingModel, x_new: Matrix) -> Matrix:
    """Project new columns: U' (x - training mean), giving p x m scores."""
    if model.method != "pca":
        raise InputError(f"pca_transform needs a pca model, got {model.method!r}")
    if x_new.rows != model.projection.rows:
        raise DimensionMismatch(
            f"data has {x_new.rows} features, model was fit on {model.projection.rows}"
        )
    centered = x_new.array - model.mean.array.reshape(-1, 1)
    return Matrix._wrap(kernels.matmul(model.projection.array.T, centered))


# ---------------------------------------------------------------------------
# Fisher discriminant analysis


def scatter_matrices(ds: LabeledDataset) -> ScatterPair:
    """Between-class and within-class scatters of a labeled dataset.

    S_B sums (mu_j - mu_t)(mu_j - mu_t)' over classes j (unweighted);
    S_W sums (x - mu_j)(x - mu_j)' over the samples of each class. Their
    sum differs from the total scatter only by the class-size weighting
    that S_B deliberately omits.
    """
    if ds.labels is None:
        raise MissingLabels("scatter matrices need class labels")
    classes, index = _class_index(ds.labels)
    if len(classes) < 2:
        raise SingleClass(f"need at least 2 classes, got {len(classes)}")
    xa = ds.x.array
    d = ds.d
    mu_t = xa.mean(axis=1)
    s_w = np.zeros((d, d))
    offsets = np.empty((d, len(classes)))
    # each class's samples in ascending order, as the columns of xa
    members = np.split(np.argsort(index, kind="stable"), np.cumsum(np.bincount(index))[:-1])
    for j, idx in enumerate(members):
        block = xa[:, idx]
        mu_j = block.mean(axis=1)
        offsets[:, j] = mu_j - mu_t
        dev = block - mu_j.reshape(-1, 1)
        s_w += kernels.matmul(dev, dev.T)
    return ScatterPair(
        s_b=SymMatrix._wrap(kernels.matmul(offsets, offsets.T)),
        s_w=SymMatrix._wrap(s_w),
        offsets=Matrix._wrap(offsets),
    )


def fda_fit(ds: LabeledDataset, p: int, epsilon: float | None = None) -> EmbeddingModel:
    """Top-p discriminant directions: the scatter pencil (S_B, S_W).

    Solved rigorously, so the directions satisfy w' S_W w = 1 whenever
    S_W is nonsingular; a singular S_W (e.g. within-class spread confined
    to a subspace) engages the eps regularization and the normalization
    then holds in the slightly perturbed metric, with the eps reported on
    the model. S_B has rank at most c - 1, so directions beyond that carry
    no discriminative signal; asking for them only earns a warning.

    S_B = D D' with D = ``ScatterPair.offsets`` (d x c), so the
    directions, and the record whose ``kind`` and ``eps`` the model
    reports, come from one call, ``pencil._fit_pairs``: W whitens S_W,
    W = L^-T from its Cholesky factor where S_W passes the gate of
    ``pencil._cholesky_whitening`` and Phi_B (Lambda_B^1/2 + eps I)^-1
    from eig(S_W) otherwise, so S_W is factored or decomposed once; then
    G = W W'D, the classical S_W^-1 (mu_j - mu_t), is a preimage of D, and
    the directions come from the c x c M = G'D. The fit falls back to
    eig of the d x d Gram of W'D, W' S_B W in exact arithmetic, when p > c
    or when the p-th eigenvalue of M is at most
    ``SINGULAR_TOL`` times the first (rank(D) < p): D does not determine
    those directions. Diagnostics are measured against (S_B, S_W) either
    way.
    """
    if ds.labels is None:
        raise MissingLabels("FDA needs class labels")
    if not 1 <= p <= ds.d:
        raise DimensionMismatch(f"p must lie in [1, {ds.d}], got {p}")
    c = len(set(ds.labels))
    if p > c - 1:
        warnings.warn(
            f"FDA with p = {p} directions, but the between-class scatter of "
            f"{c} classes has rank at most {c - 1}",
            stacklevel=2,
        )
    pair = scatter_matrices(ds)
    phi, lams, white = _fit_pairs(pair.offsets.array, pair.s_w.array, p, epsilon)
    phi, lams = phi[:, :p], lams[:p]
    return _model(
        "fda", phi, lams, _dense_diagnostics(pair.s_b.array, pair.s_w.array, phi, lams),
        epsilon_used=white.eps,
        strategy=white.kind,
    )


# ---------------------------------------------------------------------------
# kernels and kernel supervised PCA


def kernel_matrix(x1: Matrix, x2: Matrix, spec: KernelSpec) -> Matrix:
    """Gram matrix K[i, j] = k(column i of x1, column j of x2).

    The rbf kernel depends only on x - y, so both inputs are first
    centred on the mean of x1's columns: ||x||^2 + ||y||^2 - 2 x'y then
    does not cancel where the data sit far from the origin.
    """
    if x1.rows != x2.rows:
        raise DimensionMismatch(
            f"kernel inputs need equal feature dims, got {x1.rows} and {x2.rows}"
        )
    a1 = x1.array
    a2 = x2.array
    if spec.kind == "linear":
        return Matrix._wrap(kernels.matmul(a1.T, a2))
    if spec.kind == "polynomial":
        gram = kernels.matmul(a1.T, a2)
        return Matrix._wrap((gram + spec.coef0) ** spec.degree)
    if spec.kind == "rbf":
        gamma = spec.gamma if spec.gamma is not None else 1.0 / x1.rows
        centre = a1.mean(axis=1).reshape(-1, 1)
        a1, a2 = a1 - centre, a2 - centre
        gram = kernels.matmul(a1.T, a2)
        sq1 = np.sum(a1 * a1, axis=0).reshape(-1, 1)
        sq2 = np.sum(a2 * a2, axis=0).reshape(1, -1)
        dist_sq = np.maximum(sq1 + sq2 - 2.0 * gram, 0.0)
        return Matrix._wrap(np.exp(-gamma * dist_sq))
    # delta: exact column equality, one row at a time so memory stays O(d n)
    eq = np.empty((x1.cols, x2.cols))
    for i in range(x1.cols):
        eq[i] = np.all(a2 == a1[:, i : i + 1], axis=0)
    return Matrix._wrap(eq)


def kspca_fit(
    ds: LabeledDataset,
    p: int,
    kx: KernelSpec | None = None,
    ky: KernelSpec | None = None,
    epsilon: float | None = None,
) -> EmbeddingModel:
    """Kernel supervised PCA: top-p dual directions Theta.

    Solves the pencil (K_x H K_y H K_x, K_x), so Theta' K_x Theta = I
    holds on the returned block. ``kx`` defaults to rbf and ``ky`` to the
    delta kernel on the labels.

    Labels are class ids, so every label kernel is K_y = Y K_c Y' for the
    n x c one-hot classes Y and the c x c class kernel K_c = R R'. The
    delta kernel's K_c is I, since the class values are distinct, so R = I
    at every c, with no class kernel formed or decomposed; any other K_c is
    factored from its eig with the null eigenvalues dropped (K_c is PSD for
    every ``KernelSpec``): R is c x r, r = rank(K_c). The numerator is
    F F' with F = K_x G, G = H Y R, and neither K_y nor F F' is formed. G
    has rank at most min(c - 1, r), so directions beyond that carry no
    signal from the labels; asking for them earns a warning, as in
    ``fda_fit``. For any W with W W' = K_x^-1 the Gram of W'F is
    G' K_x G, and Phi = W W' F u / sqrt(lambda) = G u / sqrt(lambda): the
    whitening cancels. So the directions come from the r x r M = G'F
    (``pencil._fit_pairs`` with G as the preimage, whose record reads
    ``"gram"``), and K_x is neither factored nor decomposed. On a singular
    K_x, common for smooth kernels and for any repeated sample, that is
    still the unperturbed pencil: no eps is taken, and ``epsilon_used`` is
    0.0.

    The fit falls back to whitening the full pencil, as ``fda_fit`` whitens
    S_W, when p exceeds the width r of G or the p-th eigenvalue of M is at
    most ``SINGULAR_TOL`` times the first: G does not determine those
    directions. The same call then takes W = L^-T from K_x's Cholesky
    factor where K_x passes the gate of ``pencil._cholesky_whitening``,
    and Phi_B (Lambda_B^1/2 + eps I)^-1 from eig(K_x) otherwise, and the
    directions come from eig of the n x n Gram of W'F, which is W' F F' W
    in exact arithmetic; on a singular K_x the constraint then holds in the
    eps-perturbed metric (``epsilon`` overrides the default strength).
    Residual and K_x-orthonormality are measured against (F F', K_x), equal
    to the pencil above in exact arithmetic, with F F' applied as
    F (F' Phi) and its norm taken as ||F'F||_F.
    """
    if ds.labels is None:
        raise MissingLabels("kernel supervised PCA needs class labels")
    n = ds.n
    if not 1 <= p <= n:
        raise DimensionMismatch(f"p must lie in [1, {n}], got {p}")
    # one class makes H K_y H = 0: every direction has eigenvalue 0
    classes, index = _class_index(ds.labels)
    if len(classes) < 2:
        raise SingleClass(f"need at least 2 classes, got {len(classes)}")
    kx = kx if kx is not None else KernelSpec(kind="rbf")
    ky = ky if ky is not None else KernelSpec(kind="delta")

    k_x = kernel_matrix(ds.x, ds.x, kx).array
    # K_c = R R': the delta kernel's K_c is I (the class values are
    # distinct), so R = I; any other from eig(K_c) without its null set.
    if ky.kind == "delta":
        r = np.eye(len(classes))
    else:
        row = Matrix._wrap(np.array(classes, dtype=np.float64).reshape(1, -1))
        dec = eig_sym(kernel_matrix(row, row, ky), order="descending")
        null = null_eigenvalues(dec.eigenvalues)
        keep = [i for i in range(len(classes)) if i not in null]
        r = dec.phi.array[:, keep] * np.sqrt(np.array(dec.eigenvalues)[keep])
    # G = H Y R has rank at most min(c - 1, r): the centering removes one
    rank = min(len(classes) - 1, r.shape[1])
    if p > rank:
        warnings.warn(
            f"KSPCA with p = {p} directions, but the centred label kernel of "
            f"{len(classes)} classes has rank at most {rank}",
            stacklevel=2,
        )
    # G = H Y R: Y R is the row of R of each sample's class, and the
    # centering acts on the sample index, the rows of Y R
    yr = r[index]
    g = yr - yr.mean(axis=0)
    factor = kernels.matmul(k_x, g)
    phi, lams, white = _fit_pairs(factor, k_x, p, epsilon, preimage=g)
    phi, lams = phi[:, :p], lams[:p]
    a_phi = kernels.matmul(factor, kernels.matmul(factor.T, phi))
    a_norm = frobenius_norm(kernels.matmul(factor.T, factor))
    return _model(
        "kspca", phi, lams, _diagnostics(a_phi, a_norm, k_x, phi, lams),
        kernel_x=kx,
        kernel_y=ky,
        training_x=ds.x,
        epsilon_used=white.eps,
        strategy=white.kind,
    )


def kspca_transform(model: EmbeddingModel, x_new: Matrix) -> Matrix:
    """Embed new columns through the dual map: Theta' k(X_train, x_new)."""
    if model.method != "kspca":
        raise InputError(f"kspca_transform needs a kspca model, got {model.method!r}")
    if x_new.rows != model.training_x.rows:
        raise DimensionMismatch(
            f"data has {x_new.rows} features, model was fit on {model.training_x.rows}"
        )
    k_new = kernel_matrix(model.training_x, x_new, model.kernel_x)
    return Matrix._wrap(kernels.matmul(model.projection.array.T, k_new.array))


# ---------------------------------------------------------------------------


def _class_index(labels) -> tuple[list[int], np.ndarray]:
    """The sorted class values, and each sample's position among them."""
    # np.unique would import numpy.ma, ~1 MB, on the first fit; a dict
    # also takes labels beyond int64
    classes = sorted(set(labels))
    position = {v: j for j, v in enumerate(classes)}
    return classes, np.array([position[v] for v in labels], dtype=np.intp)


def _model(method, phi, lams, diagnostics, **fields) -> EmbeddingModel:
    """Model of the pairs (lams, columns of phi), with the (residual,
    B-orthonormality) the fit measured them by against its pencil."""
    residual, b_orth = diagnostics
    return EmbeddingModel(
        method=method,
        projection=Matrix._wrap(phi),
        eigenvalues=tuple(lams),
        residual=residual,
        b_orthonormality=b_orth,
        **fields,
    )
