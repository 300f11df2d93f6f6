"""End-to-end acceptance checks.

Each test exercises one advertised guarantee at its stated tolerance and
reports a PASS/FAIL line through the ``acceptance`` recorder (printed in
the terminal summary). Tolerances are asserted exactly as advertised; no
test weakens a bound to pass.
"""

import json
import math

import numpy as np
import pytest

from genspectra import (
    KernelSpec,
    LabeledDataset,
    Matrix,
    Pencil,
    QuadraticForm,
    SymMatrix,
    Vector,
    char_poly_eig,
    covariance,
    eig_sym,
    fda_fit,
    kernel_matrix,
    kspca_fit,
    pca_fit,
    pencil_residual,
    rayleigh_quotient,
    scatter_matrices,
    solve_form1,
    solve_quick_dirty,
    solve_rigorous,
)
from genspectra.cli import main, write_matrix_csv
from genspectra.linalg import centering_matrix

from conftest import gram_schmidt, random_spd, random_sym, random_unit


def test_criterion_01_eigen_round_trip(acceptance):
    rng = np.random.RandomState(1001)
    worst_recon = 0.0
    worst_orth = 0.0
    for i in range(100):
        d = 2 + i % 11  # cycles through 2..12
        a = random_sym(rng, d)
        dec = eig_sym(a)
        phi = dec.phi.array
        lam = np.asarray(dec.eigenvalues)
        recon = (phi * lam) @ phi.T
        fro_a = np.sqrt((a.array ** 2).sum())
        worst_recon = max(worst_recon, np.sqrt(((recon - a.array) ** 2).sum()) / fro_a)
        worst_orth = max(worst_orth, np.abs(phi.T @ phi - np.eye(d)).max())
    acceptance(
        "criterion 1: eigen round-trip over 100 random matrices (d in 2..12)",
        worst_recon < 1e-8 and worst_orth < 1e-8,
        f"max recon {worst_recon:.2e}, max orth dev {worst_orth:.2e}",
    )


def test_criterion_02_char_poly_oracle(acceptance):
    rng = np.random.RandomState(1002)
    worst = 0.0
    for i in range(100):
        d = 2 + i % 3  # cycles through 2, 3, 4
        a = random_sym(rng, d)
        roots = sorted(char_poly_eig(a))
        lam = sorted(eig_sym(a).eigenvalues)
        worst = max(worst, max(abs(r - l) for r, l in zip(roots, lam)))
    acceptance(
        "criterion 2: characteristic-polynomial oracle matches eig_sym (d in 2..4)",
        worst < 1e-7,
        f"max eigenvalue gap {worst:.2e}",
    )


def _hundred_pencils():
    rng = np.random.RandomState(1003)
    out = []
    for i in range(100):
        d = 2 + i % 9  # cycles through 2..10
        a = random_sym(rng, d)
        b = random_spd(rng, d, lo=1.0, hi=100.0)  # condition at most 100
        out.append(Pencil(a, b))
    return out


@pytest.fixture(scope="module")
def spd_pencils():
    return _hundred_pencils()


def test_criterion_03_generalized_residuals(acceptance, spd_pencils):
    worst_res = 0.0
    worst_borth = 0.0
    worst_diag = 0.0
    for p in spd_pencils:
        sol, _ = solve_rigorous(p)
        phi = sol.phi.array
        lam = np.asarray(sol.eigenvalues)
        fro_a = np.sqrt((p.a.array ** 2).sum())
        res = np.sqrt(((p.a.array @ phi - p.b.array @ phi * lam) ** 2).sum()) / fro_a
        worst_res = max(worst_res, res)
        worst_borth = max(
            worst_borth, np.abs(phi.T @ p.b.array @ phi - np.eye(p.dim)).max()
        )
        worst_diag = max(
            worst_diag, np.abs(phi.T @ p.a.array @ phi - np.diag(lam)).max()
        )
    acceptance(
        "criterion 3: rigorous residuals on 100 SPD pencils (d <= 10)",
        worst_res < 1e-7 and worst_borth < 1e-7 and worst_diag < 1e-7,
        f"max residual {worst_res:.2e}, B-orth {worst_borth:.2e}, diag {worst_diag:.2e}",
    )


def test_criterion_04_method_agreement(acceptance, spd_pencils):
    worst = 0.0
    for p in spd_pencils:
        quick = solve_quick_dirty(p)
        rig, _ = solve_rigorous(p)
        scale = max(1.0, max(abs(x) for x in rig.eigenvalues))
        gap = max(
            abs(q - r)
            for q, r in zip(sorted(quick.eigenvalues), sorted(rig.eigenvalues))
        )
        worst = max(worst, gap / scale)
    acceptance(
        "criterion 4: quick-and-dirty vs rigorous eigenvalues on the same pencils",
        worst < 1e-6,
        f"max relative gap {worst:.2e}",
    )


def test_criterion_04_routes_are_independent(spd_pencils):
    # At every d the quick route factors B by Cholesky and the rigorous route
    # eigendecomposes it, so criterion 4 compares two computations: their
    # eigenvalues agree to its bound. Above d = 4 they also differ in the
    # last bits; at d <= 4 an exact tie is possible (one pencil in 34 here).
    for p in spd_pencils:
        quick = solve_quick_dirty(p)
        rig, _ = solve_rigorous(p)
        assert quick.strategy == "cholesky"
        scale = max(1.0, max(abs(x) for x in rig.eigenvalues))
        gap = max(
            abs(q - r)
            for q, r in zip(sorted(quick.eigenvalues), sorted(rig.eigenvalues))
        )
        assert gap / scale < 1e-6, (p.dim, gap / scale)
        if p.dim > 4:
            assert 0.0 < gap, p.dim


def test_criterion_05_identity_metric_reduction(acceptance):
    rng = np.random.RandomState(1005)
    worst = 0.0
    for i in range(50):
        d = 2 + i % 8  # cycles through 2..9: both quick strategies covered
        a = random_sym(rng, d)
        eye = SymMatrix(np.eye(d))
        plain = eig_sym(a).eigenvalues
        quick = solve_quick_dirty(Pencil(a, eye)).eigenvalues
        rig = solve_rigorous(Pencil(a, eye))[0].eigenvalues
        worst = max(worst, max(abs(q - p) for q, p in zip(quick, plain)))
        worst = max(worst, max(abs(r - p) for r, p in zip(rig, plain)))
    acceptance(
        "criterion 5: B = I reduces both methods to eig_sym on 50 matrices",
        worst < 1e-8,
        f"max eigenvalue gap {worst:.2e}",
    )


def test_criterion_06_epsilon_hack(acceptance):
    # B has an exact zero eigenvalue. A is compatible with B's null
    # direction, so after the B + eps*I fallback the solved pencil stays
    # close to the original one.
    rng = np.random.RandomState(1006)
    g = rng.standard_normal((2, 2))
    block = g + g.T
    a = SymMatrix(
        [
            [block[0, 0], block[0, 1], 0.0],
            [block[1, 0], block[1, 1], 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    b = SymMatrix(np.diag([1.5, 1.0, 0.0]))
    p = Pencil(a, b)
    sol = solve_quick_dirty(p, epsilon=1e-5)
    res = pencil_residual(p, sol)
    acceptance(
        "criterion 6: eps-hack on singular B completes with small residual",
        sol.epsilon_used == 1e-5 and res < 1e-3,
        f"epsilon_used {sol.epsilon_used:g}, pencil residual {res:.2e}",
    )


def test_criterion_07_rayleigh_ritz_extremality(acceptance):
    rng = np.random.RandomState(1007)
    ok = True
    worst_gap = 0.0
    for i in range(50):
        d = 2 + i % 7
        a = random_sym(rng, d)
        b = random_spd(rng, d)
        u_star, lam = solve_form1(QuadraticForm(a, b))
        scale = max(1.0, abs(lam))
        for _ in range(500):
            val = rayleigh_quotient(Vector(random_unit(rng, d)), a, b)
            if val > lam + 1e-12 * scale:
                ok = False
        gap = abs(rayleigh_quotient(u_star, a, b) - lam)
        worst_gap = max(worst_gap, gap / scale)
        if gap > 1e-8 * scale:
            ok = False
    acceptance(
        "criterion 7: form-1 maximum dominates 500 random directions per pencil",
        ok,
        f"max quotient mismatch {worst_gap:.2e}",
    )


def test_criterion_08_pca_properties(acceptance):
    rng = np.random.RandomState(1008)
    x = Matrix(rng.standard_normal((6, 80)) * np.array([[3.0], [2.0], [1.5], [1.0], [0.5], [0.1]]))
    s = covariance(x).array

    top1 = pca_fit(x, p=1)
    lead = top1.eigenvalues[0]
    beats = True
    for _ in range(1000):
        u = random_unit(rng, 6)
        if u @ s @ u > lead + 1e-9 * max(1.0, lead):
            beats = False

    full = pca_fit(x, p=6)
    trace_gap = abs(sum(full.eigenvalues) - float(np.trace(s))) / max(
        1.0, float(np.trace(s))
    )

    xc = x.array - x.array.mean(axis=1, keepdims=True)
    u_full = full.projection.array
    recon_err = np.sqrt(((xc - u_full @ (u_full.T @ xc)) ** 2).sum())

    acceptance(
        "criterion 8: PCA optimality, trace identity, exact full reconstruction",
        beats and trace_gap < 1e-9 and recon_err < 1e-9,
        f"trace gap {trace_gap:.2e}, full-rank recon {recon_err:.2e}",
    )


def test_criterion_09_fda_correctness(acceptance):
    # Two classes with means exactly at +-3 e1 (noise comes in symmetric
    # pairs so the sample means are exact); within-class spread strictly
    # along e2, which makes S_W singular and engages the regularization.
    deltas = (0.25, 0.4, 0.55)
    cols = []
    labels = []
    for cls, mu in ((0, 3.0), (1, -3.0)):
        for dlt in deltas:
            cols.append([mu, dlt, 0.0])
            cols.append([mu, -dlt, 0.0])
            labels.append(cls)
            labels.append(cls)
    ds = LabeledDataset(Matrix(np.array(cols).T), labels=tuple(labels))

    model = fda_fit(ds, p=1)
    w = model.projection.array[:, 0]
    proj = np.outer(w, w) / (w @ w)
    e1 = np.zeros((3, 3))
    e1[0, 0] = 1.0
    proj_gap = np.abs(proj - e1).max()

    # The fit reports the quotient in the metric it actually enforced: the
    # raw S_W is singular (w' S_W w = 0 for the separating direction), so
    # the Fisher criterion is evaluated against the eps-regularized
    # within-class scatter the solver used.
    pair = scatter_matrices(ds)
    _, inter = solve_rigorous(
        Pencil(pair.s_b, pair.s_w), epsilon=model.epsilon_used or None
    )
    fisher = rayleigh_quotient(Vector(w), pair.s_b, inter.effective_b())
    lam = model.eigenvalues[0]
    rel_gap = abs(lam - fisher) / max(1.0, abs(lam))

    acceptance(
        "criterion 9: FDA recovers the separating direction with its quotient",
        model.epsilon_used > 0.0 and proj_gap < 1e-3 and rel_gap < 1e-8,
        f"projector gap {proj_gap:.2e}, quotient rel gap {rel_gap:.2e}",
    )


def test_criterion_10_kspca_constraints(acceptance):
    rng = np.random.RandomState(1010)
    n_per = 20
    blob0 = rng.standard_normal((2, n_per)) * 0.8
    blob1 = rng.standard_normal((2, n_per)) * 0.8 + np.array([[5.0], [5.0]])
    x = Matrix(np.hstack([blob0, blob1]))
    labels = (0,) * n_per + (1,) * n_per
    ds = LabeledDataset(x, labels=labels)

    kx = KernelSpec(kind="rbf", gamma=4.0)
    model = kspca_fit(ds, p=2, kx=kx, ky=KernelSpec(kind="delta"))
    theta = model.projection.array

    k_x = kernel_matrix(x, x, kx).array
    labels_row = np.array(labels, dtype=float).reshape(1, -1)
    k_y = kernel_matrix(
        Matrix(labels_row), Matrix(labels_row), KernelSpec(kind="delta")
    ).array
    h = centering_matrix(40).array
    m = k_x @ h @ k_y @ h @ k_x

    orth_dev = np.abs(theta.T @ k_x @ theta - np.eye(2)).max()
    raw_resid = np.sqrt(
        ((m @ theta - k_x @ theta * np.asarray(model.eigenvalues)) ** 2).sum()
    )
    resid_bound = 1e-6 * (k_x ** 2).sum()  # 1e-6 * ||K_x||_F^2

    best = float(np.trace(theta.T @ m @ theta))
    frames_ok = True
    for _ in range(200):
        frame = gram_schmidt(rng.standard_normal((40, 2)), metric=k_x)
        if float(np.trace(frame.T @ m @ frame)) > best * (1 + 1e-9) + 1e-9:
            frames_ok = False

    acceptance(
        "criterion 10: KSPCA metric constraint, residual, and trace optimality",
        model.epsilon_used == 0.0
        and orth_dev < 1e-6
        and raw_resid < resid_bound
        and frames_ok,
        f"orth dev {orth_dev:.2e}, residual {raw_resid:.2e} < {resid_bound:.2e}",
    )


def test_criterion_11_cli_determinism(acceptance, tmp_path, capsys):
    rng = np.random.RandomState(1011)

    a = random_sym(rng, 3)
    b = random_spd(rng, 3, lo=1.0, hi=5.0)
    a_path = tmp_path / "a.csv"
    b_path = tmp_path / "b.csv"
    write_matrix_csv(a, str(a_path))
    write_matrix_csv(b, str(b_path))
    u_path = tmp_path / "u.csv"
    u_path.write_text("1,0,1\n")

    data_rows = ["f1,f2,label"]
    for cls in (0, 1):
        for _ in range(6):
            pt = rng.standard_normal(2) + (0.0 if cls == 0 else 4.0)
            data_rows.append(f"{pt[0]},{pt[1]},{cls}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(data_rows) + "\n")

    invocations = [
        ["eig", str(a_path)],
        ["geig", str(a_path), str(b_path)],
        ["geig", "--method", "quick_dirty", str(a_path), str(b_path)],
        ["pca", "-p", "2", str(data_path)],
        ["fda", str(data_path)],
        ["kspca", "-p", "2", "--gamma", "2.0", str(data_path)],
        ["rayleigh", str(a_path), str(u_path)],
    ]
    deterministic = True
    for k, argv in enumerate(invocations):
        out1 = tmp_path / f"out_{k}_1.json"
        out2 = tmp_path / f"out_{k}_2.json"
        rc1 = main(argv + ["--output", str(out1)])
        rc2 = main(argv + ["--output", str(out2)])
        if rc1 != 0 or rc2 != 0:
            deterministic = False
        elif out1.read_bytes() != out2.read_bytes():
            deterministic = False

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,2\n3\n")
    capsys.readouterr()
    rc_ragged = main(["eig", str(ragged)])
    err_ragged = capsys.readouterr().err
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1,2\n3,oops\n")
    rc_bad = main(["eig", str(bad_cell)])
    err_bad = capsys.readouterr().err

    malformed_ok = (
        rc_ragged == 1
        and "row 2" in err_ragged
        and rc_bad == 1
        and "row 2" in err_bad
        and "column 2" in err_bad
    )

    acceptance(
        "criterion 11: CLI byte-identical reruns and located CSV errors",
        deterministic and malformed_ok,
        f"{len(invocations)} commands compared, malformed exit codes "
        f"({rc_ragged}, {rc_bad})",
    )
