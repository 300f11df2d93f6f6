"""Command line interface: CSV parsing, documents, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genspectra import (
    DuplicateColumn,
    EmptyFile,
    GenSpectraError,
    LabeledDataset,
    Matrix,
    MissingLabelColumn,
    NonNumericCell,
    RaggedRows,
)
from genspectra import cli
from genspectra.apps import KernelSpec, fda_fit, kspca_fit
from genspectra.cli import (
    main,
    parse_labeled_csv,
    parse_matrix_csv,
    write_matrix_csv,
)
from genspectra.linalg import SymMatrix, Vector
from genspectra.rayleigh import check_stationarity

from conftest import definite_pencil, low_rank_psd, random_sym


def _write(path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def sym2(tmp_path):
    return _write(tmp_path / "a.csv", "2,1\n1,2\n")


@pytest.fixture
def ident2(tmp_path):
    return _write(tmp_path / "b.csv", "1,0\n0,1\n")


# ---------------------------------------------------------------------------
# CSV parsing
# ---------------------------------------------------------------------------


def test_parse_matrix_plain(tmp_path):
    m = parse_matrix_csv(_write(tmp_path / "m.csv", "1,0\n0,1\n"))
    assert np.array_equal(m.array, np.eye(2))


def test_parse_matrix_header_rule(tmp_path):
    # a first row with any non-numeric cell is a header
    m = parse_matrix_csv(_write(tmp_path / "m.csv", "a,b\n1,2\n"))
    assert m.shape == (1, 2)
    assert np.array_equal(m.array, [[1.0, 2.0]])
    # an all-numeric first row is data
    m2 = parse_matrix_csv(_write(tmp_path / "m2.csv", "3,4\n1,2\n"))
    assert m2.shape == (2, 2)


def test_parse_matrix_skips_blank_lines(tmp_path):
    m = parse_matrix_csv(_write(tmp_path / "m.csv", "1,2\n\n3,4\n\n"))
    assert m.shape == (2, 2)


def test_parse_matrix_ragged_rows_are_located(tmp_path):
    with pytest.raises(RaggedRows) as err:
        parse_matrix_csv(_write(tmp_path / "m.csv", "1,2\n3\n"))
    assert "row 2" in str(err.value)


def test_parse_matrix_bad_cell_is_located(tmp_path):
    with pytest.raises(NonNumericCell) as err:
        parse_matrix_csv(_write(tmp_path / "m.csv", "1,2\n3,oops\n"))
    msg = str(err.value)
    assert "row 2" in msg and "column 2" in msg
    with pytest.raises(NonNumericCell):
        parse_matrix_csv(_write(tmp_path / "m2.csv", "1,2\n3,nan\n"))


def test_parse_matrix_empty_inputs(tmp_path):
    with pytest.raises(EmptyFile):
        parse_matrix_csv(_write(tmp_path / "m.csv", "\n\n"))
    with pytest.raises(EmptyFile):
        parse_matrix_csv(_write(tmp_path / "m2.csv", "a,b\n"))


def test_matrix_roundtrip_through_writer(tmp_path):
    rng = np.random.RandomState(101)
    m = Matrix(rng.standard_normal((4, 3)) * 1e3)
    path = tmp_path / "round.csv"
    write_matrix_csv(m, str(path))
    back = parse_matrix_csv(str(path))
    # 17 significant digits reproduce every float64 exactly
    assert np.array_equal(back.array, m.array)


def test_parse_labeled_by_header_name(tmp_path):
    path = _write(
        tmp_path / "d.csv",
        "x1,x2,label\n1,2,0\n3,4,0\n5,6,1\n7,8,1\n",
    )
    ds = parse_labeled_csv(path, "label")
    assert ds.d == 2 and ds.n == 4
    assert ds.labels == (0, 0, 1, 1)
    # samples are transposed into columns
    assert np.array_equal(ds.x.array[:, 0], [1.0, 2.0])


def test_parse_labeled_by_index_and_headerless(tmp_path):
    path = _write(tmp_path / "d.csv", "0,1,2\n0,3,4\n1,5,6\n")
    ds = parse_labeled_csv(path, "0")
    assert ds.labels == (0, 0, 1)
    assert np.array_equal(ds.x.array[:, 2], [5.0, 6.0])


def test_parse_labeled_header_with_numeric_index(tmp_path):
    path = _write(tmp_path / "d.csv", "a,b,c\n1,2,0\n3,4,1\n")
    ds = parse_labeled_csv(path, "2")
    assert ds.labels == (0, 1)


def test_parse_labeled_missing_label_column(tmp_path):
    path = _write(tmp_path / "d.csv", "a,b\n1,2\n")
    with pytest.raises(MissingLabelColumn):
        parse_labeled_csv(path, "label")
    headerless = _write(tmp_path / "d2.csv", "1,2\n3,4\n")
    with pytest.raises(MissingLabelColumn):
        parse_labeled_csv(headerless, "label")
    with pytest.raises(MissingLabelColumn):
        parse_labeled_csv(headerless, "7")


def test_parse_labeled_duplicate_header(tmp_path):
    path = _write(tmp_path / "d.csv", "x,x,label\n1,2,0\n3,4,1\n")
    with pytest.raises(DuplicateColumn):
        parse_labeled_csv(path, "label")


def test_parse_labeled_non_integer_label(tmp_path):
    path = _write(tmp_path / "d.csv", "x,label\n1,0.5\n2,1\n")
    with pytest.raises(NonNumericCell) as err:
        parse_labeled_csv(path, "label")
    assert "row 2" in str(err.value)


# ---------------------------------------------------------------------------
# CSV fast path: one np.loadtxt pass, the csv module on any doubt
# ---------------------------------------------------------------------------

_PARSE_TESTS = [
    test_parse_matrix_plain,
    test_parse_matrix_header_rule,
    test_parse_matrix_skips_blank_lines,
    test_parse_matrix_ragged_rows_are_located,
    test_parse_matrix_bad_cell_is_located,
    test_parse_matrix_empty_inputs,
    test_matrix_roundtrip_through_writer,
    test_parse_labeled_by_header_name,
    test_parse_labeled_by_index_and_headerless,
    test_parse_labeled_header_with_numeric_index,
    test_parse_labeled_missing_label_column,
    test_parse_labeled_duplicate_header,
    test_parse_labeled_non_integer_label,
]


@pytest.mark.parametrize("parse_test", _PARSE_TESTS, ids=lambda t: t.__name__)
def test_parse_tests_hold_on_the_located_path(parse_test, tmp_path, monkeypatch):
    # the tests above, with every file sent to the csv module
    monkeypatch.setattr(cli, "_fast_table", lambda path: None)
    parse_test(tmp_path)


def _outcome(parse, path, *args):
    """What a parser makes of a file: the bits and layout of its arrays
    (and the labels), or the type and message of its error."""
    try:
        got = parse(path, *args)
    except GenSpectraError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, LabeledDataset):
        return _bits(got.x) + (got.labels,)
    return _bits(got)


def _bits(m: Matrix):
    return m.shape, m.array.strides, m.array.view(np.uint64).tobytes()


def _verdict(outcome) -> str:
    return outcome[0] if isinstance(outcome[0], str) else "accepted"


def _both_paths(parse, path, *args):
    fast = _outcome(parse, path, *args)
    with mock.patch.object(cli, "_fast_table", return_value=None):
        located = _outcome(parse, path, *args)
    return fast, located


_NUMBER_FORMS = (repr, "%.17g", "%.20e", "%.25g", "%.3e")
_SPECIAL_CELLS = (
    "4.9e-324", "-4.9e-324", "2.2250738585072009e-308", "2.2250738585072014e-308",
    "0.0", "-0.0", "0", "-0", "1e-400", "-1e-400", "1e308", "1.7976931348623157e308",
    "9007199254740993",  # halfway between two doubles
    "1.00000000000000011102230246251565404236316680908203125",  # halfway
    "0.1", "+0.5", ".5", "5.", "1E+05",
)
_PADDING = ("", " ", "  ", "\t")


@st.composite
def _number_cell(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_SPECIAL_CELLS))
    x = draw(st.floats(allow_nan=False, allow_infinity=False))
    form = draw(st.sampled_from(_NUMBER_FORMS + ("%f",)))
    if form == "%f":
        text = "%.40f" % x if abs(x) < 1e22 else repr(x)
    else:
        text = form(x) if callable(form) else form % x
    if not math.isfinite(float(text)):  # %.3e rounds the largest doubles up to inf
        text = repr(x)
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    return text


@st.composite
def _csv_file(draw):
    """(text, plain): a numeric CSV in many forms; ``plain`` when the fast
    path should read it."""
    width = draw(st.integers(1, 4))
    nrows = draw(st.integers(1, 5))
    labeled = draw(st.booleans())
    plain = True
    rows = []
    for _ in range(nrows):
        cells = [draw(_number_cell()) for _ in range(width)]
        if labeled:
            k = draw(st.integers(-3, 3))
            cells[0] = draw(st.sampled_from([str(k), f"{k}.0", f"{k}e0", f"{k}.5"]))
        if draw(st.integers(0, 9)) == 0:
            # forms only float() accepts, and padding only str.strip() removes
            cells[-1] = draw(st.sampled_from(["1_0", "٣", "١.5", "\xa02\xa0"]))
            plain = plain and cells[-1] == "\xa02\xa0"
        pads = [draw(st.sampled_from(_PADDING)) for _ in range(2 * width)]
        rows.append(",".join(pads[2 * j] + c + pads[2 * j + 1] for j, c in enumerate(cells)))
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(f"c{j}" for j in range(width)))
    for row in rows:
        lines.append(row)
        extra = draw(st.sampled_from(["", "", "", "blank", "spaces", "commas"]))
        if extra:
            lines.append({"blank": "", "spaces": "  ", "commas": "," * (width - 1)}[extra])
            plain = plain and (extra == "blank" or (extra == "commas" and width == 1))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(0, "")
        plain = False
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    plain = plain and newline == "\n"
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text, plain


@settings(max_examples=300, deadline=None)
@given(_csv_file())
def test_fast_path_matches_the_located_parser_bit_for_bit(tmp_path_factory, case):
    text, plain = case
    path = tmp_path_factory.mktemp("fast") / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    path = str(path)
    matrix_fast, matrix_located = _both_paths(parse_matrix_csv, path)
    assert matrix_fast == matrix_located
    labeled_fast, labeled_located = _both_paths(parse_labeled_csv, path, "0")
    assert labeled_fast == labeled_located
    if plain:
        assert cli._fast_table(path) is not None


_AWKWARD_FILES = {
    # accepted on either path
    "underscore digits": ("1_0,2\n3,4\n", None),
    "arabic-indic digit": ("٣,2\n3,4\n", None),
    "quoted cell": ('"1.5",2\n3,4\n', None),
    "header wider than rows": ("a,b,c\n1,2\n3,4\n", None),
    # rejected with the same located message on either path
    "inf": ("1,inf\n3,4\n", NonNumericCell),
    "nan": ("1,2\nnan,4\n", NonNumericCell),
    "infinity": ("1,2\n3,-infinity\n", NonNumericCell),
    "overflow": ("1,2\n3,1e400\n", NonNumericCell),
    "trailing comma": ("1,2,\n3,4,\n", NonNumericCell),
    "comment cell": ("1,2\n# x,4\n", NonNumericCell),
    "text cell": ("1,2\n3,oops\n", NonNumericCell),
    "ragged rows": ("1,2\n3\n", RaggedRows),
    "header only": ("a,b\n", EmptyFile),
    "blank only": (" \n,\n", EmptyFile),
}

_AWKWARD_LABELED = {
    "duplicate header": ("x,x,label\n1,2,0\n3,4,1\n", "label", DuplicateColumn),
    "missing label": ("a,b\n1,2\n", "label", MissingLabelColumn),
    "index out of range": ("1,2\n3,4\n", "7", MissingLabelColumn),
    "name on a headerless file": ("1,2\n3,4\n", "label", MissingLabelColumn),
    "non-integer label": ("x,label\n1,0\n2,0.5\n", "label", NonNumericCell),
    "label only": ("label\n0\n1\n", "label", EmptyFile),
    "label as underscore digits": ("x,label\n1,1_0\n2,1\n", "label", None),
    "plain": ("x1,x2,label\n1,2,0\n3,4,1\n5,6,0\n", "label", None),
    "plain headerless": ("1,2,0\n3,4,1\n5,6,0\n", "2", None),
    "blank first line": ("\n0\n1\n", "label", MissingLabelColumn),
}


@pytest.mark.parametrize("case", sorted(_AWKWARD_FILES))
def test_fast_and_located_paths_agree_on_awkward_files(case, tmp_path):
    text, error = _AWKWARD_FILES[case]
    path = _write(tmp_path / "m.csv", text)
    fast, located = _both_paths(parse_matrix_csv, path)
    assert fast == located
    assert _verdict(fast) == (error.__name__ if error else "accepted")


@pytest.mark.parametrize("case", sorted(_AWKWARD_LABELED))
def test_fast_and_located_paths_agree_on_awkward_labeled_files(case, tmp_path):
    text, label_column, error = _AWKWARD_LABELED[case]
    path = _write(tmp_path / "d.csv", text)
    fast, located = _both_paths(parse_labeled_csv, path, label_column)
    assert fast == located
    assert _verdict(fast) == (error.__name__ if error else "accepted")


def test_located_labeled_read_reports_a_malformed_cell_first(tmp_path):
    # Every cell is parsed before the label column is chosen or a label
    # checked: in a file with several faults, the malformed cell is the
    # one reported, on either path.
    faults = _write(tmp_path / "d.csv", "x,label\n1,0.5\n2,1\n3,oops\n")
    for label_column in ("label", "missing", "7"):
        fast, located = _both_paths(parse_labeled_csv, faults, label_column)
        assert fast == located == (
            "NonNumericCell", "row 4 column 2: 'oops' is not a finite number"
        )


@pytest.mark.parametrize("text, header", [("a,b\n1,2\n3,4\n", ["a", "b"]), ("1,2\n3,4\n", None)])
def test_fast_table_drops_a_leading_bom(text, header, tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    got_header, table = cli._fast_table(str(path))
    assert got_header == header
    assert table.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    fast, located = _both_paths(parse_matrix_csv, str(path))
    assert fast == located


def test_plain_numeric_files_skip_the_csv_module(tmp_path, monkeypatch):
    def no_csv(path):
        raise AssertionError(f"{path} went through the csv module")

    monkeypatch.setattr(cli, "_read_rows", no_csv)
    plain = _write(tmp_path / "m.csv", "1,2.5\n-3e-5,4\n\n")
    assert parse_matrix_csv(plain).array.tolist() == [[1.0, 2.5], [-3e-5, 4.0]]
    # a header with one numeric name is still a header
    labeled = _write(tmp_path / "d.csv", "\ufeffx1, 2 ,label\n1,2,0\n3,4,1\n")
    ds = parse_labeled_csv(labeled, "label")
    assert ds.labels == (0, 1) and ds.x.array.tolist() == [[1.0, 3.0], [2.0, 4.0]]
    assert parse_labeled_csv(labeled, "0").labels == (1, 3)


# ---------------------------------------------------------------------------
# eig command
# ---------------------------------------------------------------------------


def test_eig_json_document(sym2, capsys):
    assert main(["eig", sym2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "eig"
    assert doc["eigenvalues"] == pytest.approx([3.0, 1.0])
    s = 1.0 / math.sqrt(2.0)
    assert doc["vectors"][0] == pytest.approx([s, s])
    assert doc["diagnostics"]["method"] == "jacobi"
    assert doc["diagnostics"]["epsilon_used"] == 0.0
    assert doc["diagnostics"]["residual"] < 1e-12
    assert doc["diagnostics"]["b_orthonormality"] < 1e-12
    assert doc["meta"] == {"dims": [2]}
    assert "runtime_ms" not in doc["meta"]


def test_eig_order_flag(sym2, capsys):
    assert main(["eig", "--order", "asc", sym2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == pytest.approx([1.0, 3.0])


def test_eig_csv_format(sym2, capsys):
    assert main(["eig", "--format", "csv", sym2]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # one eigenpair per row
    first = [float(v) for v in lines[0].split(",")]
    assert first[0] == pytest.approx(3.0)  # eigenvalue leads the row
    assert first[1:] == pytest.approx([1 / math.sqrt(2)] * 2)


def test_eig_output_file(sym2, tmp_path, capsys):
    out = tmp_path / "result.json"
    assert main(["eig", "--output", str(out), sym2]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["eigenvalues"] == pytest.approx([3.0, 1.0])


def test_eig_near_the_top_of_the_float_range(tmp_path, capsys):
    # the symmetrisation (a + a') / 2 used to overflow to inf here
    path = _write(tmp_path / "big.csv", "1.7e308,0\n0,-1.7e308\n")
    assert main(["eig", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == [1.7e308, -1.7e308]
    assert doc["diagnostics"]["residual"] == 0.0


def test_eig_rejects_asymmetric_input(tmp_path, capsys):
    path = _write(tmp_path / "bad.csv", "1,2\n9,1\n")
    assert main(["eig", path]) == 1
    assert "NotSymmetric" in capsys.readouterr().err


def test_eig_sym_tol_flag_loosens_the_check(tmp_path, capsys):
    path = _write(tmp_path / "near.csv", "1,2.0001\n2,1\n")
    assert main(["eig", path]) == 1
    capsys.readouterr()
    assert main(["eig", "--sym-tol", "0.01", path]) == 0


@pytest.mark.parametrize("command", ["eig", "fda"])
@pytest.mark.parametrize(
    "content, message",
    [
        # the csv module's field size limit is 131072 characters
        (b"label,x\n0," + b"7" * 200_000 + b"\n", "line 2: field larger than field limit"),
        (b"label,x\n0,1\n1,\xff\n", "is not UTF-8 text: byte 0xff"),
    ],
    ids=["huge-cell", "non-utf8-byte"],
)
def test_unreadable_csv_exits_1_with_one_error_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [err.strip()]
    assert err.startswith(f"error: UnreadableFile: {path}")
    assert message in err


def test_eig_missing_file(capsys):
    assert main(["eig", "/nonexistent/file.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_eig_timing_flag_adds_runtime(sym2, capsys):
    assert main(["eig", "--timing", sym2]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "runtime_ms" in doc["meta"]
    assert doc["meta"]["runtime_ms"] >= 0.0


def test_byte_identical_repeat_runs(sym2, kspca_csv, capsys):
    for argv in (["eig", sym2], ["kspca", "-p", "1", "--kernel-y", "rbf", kspca_csv]):
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second


# ---------------------------------------------------------------------------
# geig command
# ---------------------------------------------------------------------------


def test_geig_rigorous_document(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "4,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "2,0\n0,1\n")
    assert main(["geig", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "geig"
    assert doc["eigenvalues"] == pytest.approx([2.0, 1.0])
    assert doc["diagnostics"]["method"] == "rigorous"
    assert doc["vectors"][0] == pytest.approx([1 / math.sqrt(2), 0.0])
    assert doc["diagnostics"]["b_orthonormality"] < 1e-10


def test_geig_quick_dirty_method(sym2, tmp_path, capsys):
    b = _write(tmp_path / "twoi.csv", "2,0\n0,2\n")
    assert main(["geig", "--method", "quick_dirty", sym2, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == pytest.approx([1.5, 0.5])
    assert doc["diagnostics"]["method"] == "quick_dirty"


def test_geig_singular_b_reports_default_epsilon(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "1,0\n0,0\n")
    b = _write(tmp_path / "b.csv", "1,0\n0,0\n")
    assert main(["geig", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["epsilon_used"] == pytest.approx(1e-5)


def test_geig_explicit_epsilon(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "1,0\n0,0\n")
    b = _write(tmp_path / "b.csv", "1,0\n0,0\n")
    assert main(["geig", "--epsilon", "1e-3", a, b]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["epsilon_used"] == pytest.approx(1e-3)


def test_geig_indefinite_b_exits_2(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "1,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "1,0\n0,-1\n")
    assert main(["geig", a, b]) == 2
    assert "IndefiniteB" in capsys.readouterr().err


def test_geig_resid_tol_gate_exits_2(tmp_path, capsys):
    # singular B with generic A: the honest residual is large, so a tight
    # gate turns it into a numerical failure
    a = _write(tmp_path / "a.csv", "1,1\n1,2\n")
    b = _write(tmp_path / "b.csv", "1,0\n0,0\n")
    assert main(["geig", "--resid-tol", "1e-9", a, b]) == 2
    assert "ConvergenceFailure" in capsys.readouterr().err
    assert main(["geig", a, b]) == 0  # no gate: reported, not fatal


def test_rank_deficient_200_solves(tmp_path, capsys):
    # 150 zero eigenvalues: the tridiagonal kernel's QL used to run out of
    # steps on them, and every command below exited 2
    b = tmp_path / "b.csv"
    write_matrix_csv(Matrix(low_rank_psd(200, 50, 0)), str(b))
    a = tmp_path / "a.csv"
    write_matrix_csv(random_sym(np.random.RandomState(200), 200), str(a))
    for argv in (
        ["eig", str(b)],
        ["geig", "--method", "rigorous", str(a), str(b)],
        ["geig", "--method", "quick_dirty", str(a), str(b)],
    ):
        assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert len(json.loads(capsys.readouterr().out)["eigenvalues"]) == 200, argv


def test_eig_resid_tol_gate_fails_a_nan_residual(tmp_path, capsys):
    # The largest eigenvalue, 2.4e308, is above the float range. It used to
    # overflow to inf, with a NaN residual that only the gate caught; now
    # the solve fails with the eigenvalue's exponent, gate or no gate.
    a = _write(tmp_path / "a.csv", "8e307,8e307,8e307\n" * 3)
    for argv in (["eig", "--resid-tol", "1e-6", a], ["eig", a]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "EigenvalueOverflow" in err and "2^1025" in err, argv


def _scale_runs() -> dict:
    """Command lines of eig and geig at d = 3 and 20, matrices in place of paths.

    geig runs by quick_dirty on an SPD B (the Cholesky congruence), on an
    indefinite B with an SPD A (the congruence by A's Cholesky factor) and
    with an indefinite A (the rotated congruence), and by rigorous.
    """
    rng = np.random.RandomState(54)
    a3, a20 = random_sym(rng, 3, scale=3.0).array, random_sym(rng, 20, scale=3.0).array
    g3, g20 = rng.standard_normal((3, 3)), rng.standard_normal((20, 20))
    b3, b20 = g3 @ g3.T + 3.0 * np.eye(3), g20 @ g20.T + 20.0 * np.eye(20)
    return {
        "eig d=3": ["eig", a3],
        "eig d=20": ["eig", a20],
        "quick d=3": ["geig", "--method", "quick_dirty", a3, b3],
        "quick d=20": ["geig", "--method", "quick_dirty", a20, b20],
        "cholesky-a d=3": ["geig", "--method", "quick_dirty", b3, np.diag([1.0, -0.5, 2.0])],
        "rotated d=3": ["geig", "--method", "quick_dirty", *definite_pencil(3)],
        "rigorous d=3": ["geig", "--method", "rigorous", a3, b3],
        "rigorous d=20": ["geig", "--method", "rigorous", a20, b20],
    }


def _scaled_docs(tmp_path, capsys, k: int) -> dict:
    """The document of each of ``_scale_runs``, every matrix in units of 2^k."""
    docs = {}
    for name, argv in _scale_runs().items():
        for i, arg in enumerate(argv):
            if isinstance(arg, np.ndarray):
                argv[i] = str(tmp_path / f"m{i}.csv")
                write_matrix_csv(Matrix(arg * 2.0**k), argv[i])
        assert main(argv) == 0, (name, k)
        docs[name] = json.loads(capsys.readouterr().out)
    return docs


@pytest.mark.parametrize("k", [-600, -540, 540, 600])
def test_cli_solves_at_extreme_scales(tmp_path, capsys, k):
    # At 2^+-540 Jacobi returned the diagonal; at 2^600 the residual read NaN
    # for eig and 0.0 for geig, as ||A||_F overflowed, and at 2^-600 it read
    # 0.0 for eig, as the squares of the residual underflowed.
    unit, got = _scaled_docs(tmp_path, capsys, 0), _scaled_docs(tmp_path, capsys, k)
    s = 2.0**k
    for name, argv in _scale_runs().items():
        eig = argv[0] == "eig"
        want = [v * s for v in unit[name]["eigenvalues"]] if eig else unit[name]["eigenvalues"]
        assert got[name]["eigenvalues"] == want, name
        # Phi comes back in units of c = 1, or of s^-1/2 where geig's vectors
        # are B-orthonormal; then R = A Phi - B Phi Lambda scales by s c
        # exactly, and ||A||_F by s
        phi_1, phi_s = np.array(unit[name]["vectors"]), np.array(got[name]["vectors"])
        c = 2.0 ** round(math.log2(np.linalg.norm(phi_s) / np.linalg.norm(phi_1)))
        assert np.array_equal(phi_s, c * phi_1), name
        fro_a = float(np.linalg.norm(argv[-1] if eig else argv[-2]))
        resid = s * c * unit[name]["diagnostics"]["residual"] * max(1.0, fro_a) / max(1.0, s * fro_a)
        assert got[name]["diagnostics"]["residual"] == pytest.approx(resid, rel=1e-12, abs=0.0), name


def test_geig_dimension_mismatch_exits_1(sym2, tmp_path, capsys):
    b = _write(tmp_path / "b3.csv", "1,0,0\n0,1,0\n0,0,1\n")
    assert main(["geig", sym2, b]) == 1
    assert "DimensionMismatch" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# pca command
# ---------------------------------------------------------------------------


@pytest.fixture
def pca_csv(tmp_path):
    # the 4-point example whose covariance is diag(2, 0.02)
    return _write(tmp_path / "pca.csv", "1,0\n-1,0\n0,0.1\n0,-0.1\n")


def test_pca_document(pca_csv, capsys):
    assert main(["pca", "-p", "2", pca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "pca"
    assert doc["eigenvalues"] == pytest.approx([2.0, 0.02])
    assert [abs(v) for v in doc["vectors"][0]] == pytest.approx([1.0, 0.0])
    assert doc["meta"]["dims"] == [2, 4]  # d features, n samples
    assert doc["diagnostics"]["residual"] < 1e-12


def test_pca_order_asc(pca_csv, capsys):
    assert main(["pca", "-p", "2", "--order", "asc", pca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == pytest.approx([0.02, 2.0])


def test_pca_header_row_is_skipped(tmp_path, capsys):
    path = _write(tmp_path / "d.csv", "f1,f2\n1,0\n-1,0\n0,0.1\n0,-0.1\n")
    assert main(["pca", "-p", "1", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["eigenvalues"] == pytest.approx([2.0])


# ---------------------------------------------------------------------------
# fda command
# ---------------------------------------------------------------------------


@pytest.fixture
def fda_csv(tmp_path):
    # two classes split along the first feature; within-class spread on both
    rows = ["x1,x2,label"]
    rng = np.random.RandomState(103)
    for cls, shift in ((0, 0.0), (1, 5.0)):
        for _ in range(10):
            x1 = shift + 0.1 * rng.standard_normal()
            x2 = rng.standard_normal()
            rows.append(f"{x1},{x2},{cls}")
    return _write(tmp_path / "fda.csv", "\n".join(rows) + "\n")


def test_fda_document(fda_csv, capsys):
    assert main(["fda", fda_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "fda"
    assert doc["diagnostics"]["method"] == "rigorous"
    w = np.array(doc["vectors"][0])
    assert abs(w[0]) / np.linalg.norm(w) > 0.99
    assert doc["meta"]["dims"] == [2, 20]
    assert doc["diagnostics"]["residual"] < 1e-6


def test_fda_label_column_by_name_and_index(tmp_path, capsys):
    text = "cls,f1,f2\n0,0,0\n0,0.2,1\n1,5,0\n1,5.2,1\n"
    path = _write(tmp_path / "d.csv", text)
    assert main(["fda", "--label-column", "cls", path]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(["fda", "--label-column", "0", path]) == 0
    second = json.loads(capsys.readouterr().out)
    assert first["eigenvalues"] == second["eigenvalues"]


@pytest.mark.filterwarnings("ignore::UserWarning")  # the p > c-1 advisory fires first
def test_fda_single_class_exits_1(tmp_path, capsys):
    path = _write(tmp_path / "d.csv", "x,label\n1,0\n2,0\n")
    assert main(["fda", path]) == 1
    assert "SingleClass" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# kspca command
# ---------------------------------------------------------------------------


@pytest.fixture
def kspca_csv(tmp_path):
    rng = np.random.RandomState(104)
    rows = ["f1,f2,label"]
    for cls in (0, 1):
        center = np.array([0.0, 0.0]) if cls == 0 else np.array([4.0, 4.0])
        for _ in range(4):
            pt = center + rng.standard_normal(2)
            rows.append(f"{pt[0]},{pt[1]},{cls}")
    return _write(tmp_path / "kspca.csv", "\n".join(rows) + "\n")


def test_kspca_document(kspca_csv, capsys):
    assert main(["kspca", "-p", "2", "--gamma", "1.0", kspca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "kspca"
    assert len(doc["eigenvalues"]) == 2
    assert len(doc["vectors"][0]) == 8  # dual coefficients, one per sample
    assert doc["meta"]["dims"] == [2, 8]
    assert doc["diagnostics"]["method"] == "rigorous"


def test_kspca_builds_each_kernel_matrix_once(kspca_csv, capsys, monkeypatch):
    from genspectra.apps import kernel_matrix as original

    calls = []

    def counting(*args, **kwargs):
        calls.append((args[2].kind, args[0].cols, args[1].cols))
        return original(*args, **kwargs)

    # count calls from every package module that holds the function
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("genspectra") and (
            getattr(mod, "kernel_matrix", None) is original
        ):
            monkeypatch.setattr(mod, "kernel_matrix", counting)
    assert main(["kspca", "-p", "2", "--gamma", "1.0", kspca_csv]) == 0
    # the n x n K_x once; the n x n K_y is never built, and the delta
    # kernel's c x c K_c = I needs no kernel call
    assert calls == [("rbf", 8, 8)]
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["residual"] < 1e-10


def test_kspca_linear_kernel_flag(kspca_csv, capsys):
    assert main(["kspca", "--kernel", "linear", kspca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "kspca"


def test_kspca_rejects_nonpositive_gamma(kspca_csv):
    with pytest.raises(SystemExit) as exc:
        main(["kspca", "--gamma", "0", kspca_csv])
    assert exc.value.code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("eig", "--sym-tol"), ("eig", "--resid-tol"), ("geig", "--epsilon"),
        ("fda", "--epsilon"), ("kspca", "--epsilon"), ("kspca", "--gamma"),
        ("kspca", "--coef0"),
    ],
)
def test_non_finite_flag_values_are_usage_errors(command, flag, value, sym2, kspca_csv, capsys):
    files = {"eig": [sym2], "geig": [sym2, sym2], "fda": [kspca_csv], "kspca": [kspca_csv]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, f"{flag}={value}", *files])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: genspectra") and f"argument {flag}" in err


# ---------------------------------------------------------------------------
# rayleigh command
# ---------------------------------------------------------------------------


def test_rayleigh_document(sym2, tmp_path, capsys):
    u = _write(tmp_path / "u.csv", "1,1\n")
    assert main(["rayleigh", sym2, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "rayleigh"
    assert doc["quotient"] == pytest.approx(3.0)
    assert doc["stationarity"]["residual"] < 1e-12
    # (1,1) is an eigenvector but not unit-normalized
    assert doc["stationarity"]["constraint_violation"] == pytest.approx(1.0)


def test_rayleigh_with_metric_and_column_vector(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "4,0\n0,1\n")
    b = _write(tmp_path / "b.csv", "2,0\n0,1\n")
    u = _write(tmp_path / "u.csv", f"{1 / math.sqrt(2)}\n0\n")
    assert main(["rayleigh", "--b", b, a, u]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["quotient"] == pytest.approx(2.0)
    assert doc["stationarity"]["constraint_violation"] < 1e-12


def test_rayleigh_zero_vector_exits_1(sym2, tmp_path, capsys):
    u = _write(tmp_path / "u.csv", "0,0\n")
    assert main(["rayleigh", sym2, u]) == 1
    assert "ZeroVector" in capsys.readouterr().err


def test_rayleigh_matrix_as_vector_exits_1(sym2, tmp_path, capsys):
    u = _write(tmp_path / "u.csv", "1,0\n0,1\n")
    assert main(["rayleigh", sym2, u]) == 1
    assert "single row or column, got 2x2" in capsys.readouterr().err


def test_rayleigh_csv_format(sym2, tmp_path, capsys):
    u = _write(tmp_path / "u.csv", "1,1\n")
    assert main(["rayleigh", "--format", "csv", sym2, u]) == 0
    vals = [float(v) for v in capsys.readouterr().out.strip().split(",")]
    assert vals[0] == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# every flag reaches its handler: the CLI answer equals the library call
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "flags, kx, ky",
    [
        (
            ["--kernel", "polynomial", "--degree", "2", "--coef0", "0.5",
             "--kernel-y", "linear", "--gamma", "0.7"],
            KernelSpec(kind="polynomial", gamma=0.7, degree=2, coef0=0.5),
            KernelSpec(kind="linear", gamma=0.7, degree=2, coef0=0.5),
        ),
        (
            ["--kernel", "rbf", "--gamma", "0.3", "--kernel-y", "rbf"],
            KernelSpec(kind="rbf", gamma=0.3),
            KernelSpec(kind="rbf", gamma=0.3),
        ),
    ],
)
def test_kspca_kernel_flags_reach_the_fit(kspca_csv, capsys, flags, kx, ky):
    assert main(["kspca", "-p", "2", *flags, kspca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    model = kspca_fit(parse_labeled_csv(kspca_csv), 2, kx=kx, ky=ky)
    assert doc["eigenvalues"] == [float(v) for v in model.eigenvalues]
    assert doc["vectors"] == [[float(v) for v in col] for col in model.projection.array.T]
    # the flags matter: the defaults give another answer
    default = kspca_fit(parse_labeled_csv(kspca_csv), 2)
    assert doc["eigenvalues"] != [float(v) for v in default.eigenvalues]


def test_fda_epsilon_flag_is_the_epsilon_used(tmp_path, capsys):
    # the third feature repeats the first, so the within-class scatter is singular
    rng = np.random.RandomState(106)
    rows = ["f1,f2,f3,label"]
    for cls, shift in ((0, 0.0), (1, 3.0), (2, -3.0)):
        for _ in range(5):
            x1, x2 = shift + rng.standard_normal(), rng.standard_normal()
            rows.append(f"{x1!r},{x2!r},{x1!r},{cls}")
    path = _write(tmp_path / "fda.csv", "\n".join(rows) + "\n")
    assert main(["fda", "-p", "2", "--epsilon", "0.00025", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["epsilon_used"] == 0.00025
    model = fda_fit(parse_labeled_csv(path), 2, epsilon=0.00025)
    assert doc["eigenvalues"] == [float(v) for v in model.eigenvalues]


def test_kspca_epsilon_flag_is_the_epsilon_used(kspca_csv, capsys):
    # a linear kernel on 2 features has rank 2 < n = 8: K_x is singular.
    # Two classes give c = 2, so p = 2 leaves the c x c route for the
    # whitening fallback, which regularizes K_x with the flag's eps.
    assert main(["kspca", "-p", "2", "--kernel", "linear", "--epsilon", "0.0003", kspca_csv]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["epsilon_used"] == 0.0003
    model = kspca_fit(
        parse_labeled_csv(kspca_csv), 2, kx=KernelSpec(kind="linear"), epsilon=0.0003
    )
    assert doc["eigenvalues"] == [float(v) for v in model.eigenvalues]
    # p = 1 takes the c x c route, which never regularizes
    assert main(["kspca", "--kernel", "linear", "--epsilon", "0.0003", kspca_csv]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["epsilon_used"] == 0.0


def test_kspca_label_column_by_index_on_a_headerless_file(kspca_csv, tmp_path, capsys):
    # the same samples with the label moved to the front and no header row
    rows = [line.split(",") for line in Path(kspca_csv).read_text(encoding="utf-8").splitlines()[1:]]
    moved = [",".join([row[2]] + row[:2]) for row in rows]
    headerless = _write(tmp_path / "moved.csv", "\n".join(moved) + "\n")
    assert main(["kspca", "-p", "2", "--gamma", "0.5", kspca_csv]) == 0
    by_name = json.loads(capsys.readouterr().out)
    assert main(["kspca", "-p", "2", "--gamma", "0.5", "--label-column", "0", headerless]) == 0
    by_index = json.loads(capsys.readouterr().out)
    assert by_index["eigenvalues"] == by_name["eigenvalues"]
    assert by_index["vectors"] == by_name["vectors"]


def test_kspca_single_class_exits_1(tmp_path, capsys):
    path = _write(tmp_path / "d.csv", "1.0,0\n1.0,0\n2.0,0\n")
    assert main(["kspca", "-p", "1", "--label-column", "1", path]) == 1
    captured = capsys.readouterr()
    assert "SingleClass" in captured.err and captured.out == ""


def test_rayleigh_metric_flag_reaches_the_check(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "3,1,0\n1,2,0.5\n0,0.5,1\n")
    b = _write(tmp_path / "b.csv", "2,0.25,0\n0.25,1,0\n0,0,0.5\n")
    u = _write(tmp_path / "u.csv", "0.3,-0.7,1.1\n")
    assert main(["rayleigh", a, u, "--b", b]) == 0
    doc = json.loads(capsys.readouterr().out)
    report = check_stationarity(
        Vector(parse_matrix_csv(u).array[0]),
        SymMatrix(parse_matrix_csv(a).array),
        SymMatrix(parse_matrix_csv(b).array),
    )
    assert doc["quotient"] == report.multiplier
    assert doc["stationarity"] == {
        "residual": report.residual,
        "multiplier": report.multiplier,
        "constraint_violation": report.constraint_violation,
    }
    assert main(["rayleigh", a, u]) == 0  # without --b the identity metric
    assert json.loads(capsys.readouterr().out)["quotient"] != report.multiplier


def test_csv_format_to_an_output_file(tmp_path, capsys):
    a = _write(tmp_path / "a.csv", "4,1\n1,3\n")
    b = _write(tmp_path / "b.csv", "2,0\n0,1\n")
    assert main(["geig", "--format", "csv", a, b]) == 0
    stdout_text = capsys.readouterr().out
    out = tmp_path / "result.csv"
    assert main(["geig", "--format", "csv", "--output", str(out), a, b]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout_text
    assert len(stdout_text.splitlines()) == 2
    assert not stdout_text.startswith("{")


# ---------------------------------------------------------------------------
# parser behavior
# ---------------------------------------------------------------------------


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_required_argument_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["geig", "only_one_file.csv"])
    assert exc.value.code == 1


def test_invalid_flag_value_exits_1(sym2):
    with pytest.raises(SystemExit) as exc:
        main(["eig", "--order", "upward", sym2])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["pca", "-p", "0", sym2])
    assert exc.value.code == 1


_COMMAND_LINES = [
    ["eig", "m.csv"],
    ["eig", "--order", "asc", "m.csv", "--sym-tol", "1e-6"],
    ["eig", "m.csv", "--order=asc", "--sym-tol=0", "--resid-tol", "1e-9", "--timing",
     "--output", "out.json", "--format", "csv"],
    ["eig", "--", "m.csv"],
    ["geig", "--method", "quick_dirty", "a.csv", "b.csv", "--epsilon=1e-3"],
    ["geig", "a.csv", "--resid-tol=1", "b.csv", "--format=json"],
    ["pca", "-p", "2", "x.csv"],
    ["pca", "x.csv", "-p3", "--format=csv", "--output=-"],
    ["fda", "d.csv", "--label-column", "0", "--epsilon", "0", "--timing"],
    ["kspca", "--kernel=linear", "d.csv", "-p", "2", "--gamma", "0.5", "--degree", "2",
     "--coef0", "0", "--kernel-y", "rbf", "--label-column=y"],
    ["rayleigh", "a.csv", "u.csv", "--b", "b.csv", "--order", "desc"],
    ["rayleigh", "--b=b.csv", "a.csv", "u.csv", "--output", "r.json"],
]


@pytest.mark.parametrize("argv", _COMMAND_LINES, ids=" ".join)
def test_a_command_line_is_parsed_by_its_command_alone(argv, monkeypatch):
    whole = cli._parser().parse_args(argv)

    def top_level(argv=None, namespace=None):
        raise AssertionError(f"{argv} went through the top-level parser")

    monkeypatch.setattr(cli._parser(), "parse_args", top_level)
    assert vars(cli._parse(argv)) == vars(whole)


@pytest.mark.parametrize(
    "argv",
    [
        [], ["-h"], ["nope"], ["eig", "-h"], ["geig", "a.csv"],
        ["geig", "a.csv", "b.csv", "--bogus"], ["eig", "m.csv", "extra"],
        ["geig", "--method", "x", "a.csv", "b.csv"],
    ],
    ids=repr,
)
def test_help_and_usage_errors_are_the_top_level_parsers(argv, capsys):
    def outcome(run):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        got = capsys.readouterr()
        return exc.value.code, got.out, got.err

    assert outcome(main) == outcome(cli._parser().parse_args)


def test_reused_parser_answers_like_a_fresh_process(sym2, fda_csv, tmp_path, capsys, monkeypatch):
    # main() builds its parser once; every call of a sequence must print
    # what the same command line prints in a new interpreter, help and
    # usage errors included
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    singular = _write(tmp_path / "b.csv", "1,0\n0,0\n")
    sequence = [
        ["geig", "--epsilon", "0.5", sym2, singular],
        ["geig", sym2, singular],
        ["eig", "--order", "asc", sym2],
        ["eig", sym2],
        ["eig", "--format", "csv", sym2],
        ["fda", "-p", "1", fda_csv],
        ["geig", "--help"],
        ["geig", "--method", "sideways", sym2, singular],
        [],
    ]
    script = "import sys; from genspectra.cli import main; sys.exit(main(sys.argv[1:]))"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env
        )
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_repeat_runs_on_random_input_are_deterministic(tmp_path, capsys):
    rng = np.random.RandomState(105)
    a = random_sym(rng, 3)
    a_path = tmp_path / "a.csv"
    write_matrix_csv(a, str(a_path))
    main(["eig", str(a_path)])
    out1 = capsys.readouterr().out
    main(["eig", str(a_path)])
    out2 = capsys.readouterr().out
    assert out1 == out2


# ---------------------------------------------------------------------------
# JSON writer
# ---------------------------------------------------------------------------


def test_json_output_is_json_dumps_byte_for_byte(sym2, pca_csv, fda_csv, kspca_csv, tmp_path, capsys):
    # The writer lays out the float lists itself; every document must come
    # out as json.dumps(doc, indent=2) would write it. json reads back the
    # floats exactly, so dumping what it reads rebuilds that text.
    rng = np.random.RandomState(107)
    a6 = str(tmp_path / "a6.csv")
    b6 = str(tmp_path / "b6.csv")
    write_matrix_csv(random_sym(rng, 6), a6)
    g = rng.standard_normal((6, 6))
    write_matrix_csv(Matrix(g @ g.T + 6.0 * np.eye(6)), b6)
    a1 = _write(tmp_path / "a1.csv", "4\n")
    b1 = _write(tmp_path / "b1.csv", "2\n")
    u = _write(tmp_path / "u.csv", "1,2\n")
    runs = [
        ["eig", a6],
        ["eig", "--order", "asc", a6],
        ["eig", a1],
        ["geig", a6, b6],
        ["geig", "--method", "quick_dirty", a6, b6],
        ["geig", "--order", "asc", a6, b6],
        ["geig", a1, b1],
        ["geig", "--method", "quick_dirty", a1, b1],
        ["pca", "-p", "2", pca_csv],
        ["pca", "-p", "2", "--order", "asc", pca_csv],
        ["fda", fda_csv],
        ["kspca", "-p", "2", "--gamma", "1.0", kspca_csv],
        ["kspca", "-p", "2", "--order", "asc", kspca_csv],
        ["rayleigh", sym2, u],
        ["rayleigh", "--b", b1, a1, _write(tmp_path / "u1.csv", "3\n")],
    ]
    for argv in runs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


@pytest.mark.parametrize(
    "special", [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1e22, 5e-324, 1e308]
)
def test_json_writer_matches_json_dumps_on_special_floats(special, capsys):
    args = cli.make_parser().parse_args(["eig", "m.csv"])
    docs = [
        {"command": "eig", "eigenvalues": [special, 2.0], "vectors": [[1.0, -0.5], [0.25, 3.0]]},
        {"command": "eig", "eigenvalues": [1.0, 2.0], "vectors": [[1.0, -0.5], [0.25, special]]},
        {"command": "eig", "eigenvalues": [special], "vectors": [[special]]},
        {"command": "eig", "eigenvalues": [], "vectors": []},
    ]
    for doc in docs:
        doc["diagnostics"] = {"residual": special, "method": "jacobi"}
        doc["meta"] = {"dims": [len(doc["eigenvalues"])], "runtime_ms": 0.5}
        cli._write_output(doc, args)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
