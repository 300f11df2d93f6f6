"""Batch command line interface.

Reads matrices and datasets from CSV, runs a solver or application, and
emits a machine-readable result document (JSON by default, CSV on
request) with residual diagnostics. The diagnostics come from the solve
or fit itself, measured against the pencil it solved; this module only
gates and formats them.

Every CSV becomes one float64 table (``_table``), and a dataset takes its
labels from that table, going back to the file only to quote a
fractional label.

A command line that names its command first is parsed by that command's
parser alone; any other, and one that leaves arguments unrecognized, by
the top-level parser, so help texts and usage errors are argparse's own.

Commands: eig, geig, pca, fda, kspca, rayleigh. Exit codes: 0 on
success, 1 for input or configuration problems, 2 when the numerics fail
on structurally valid input.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from .apps import KernelSpec, LabeledDataset, fda_fit, kspca_fit, pca_fit
from .eigen import eig_sym
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DuplicateColumn,
    EmptyFile,
    GenSpectraError,
    MissingLabelColumn,
    NonNumericCell,
    NumericalError,
    RaggedRows,
    UnreadableFile,
)
from .linalg import SYM_TOL, Matrix, SymMatrix, Vector
from .pencil import Pencil, _dense_diagnostics, _rigorous, solve_quick_dirty
from .rayleigh import check_stationarity

_ORDER_MAP = {"desc": "descending", "asc": "ascending"}


# ---------------------------------------------------------------------------
# CSV input


def _cell_value(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _read_rows(path: str) -> list[tuple[int, list[str]]]:
    """Non-blank CSV rows with their 1-based file line numbers.

    Raises ``UnreadableFile`` on a byte that is not UTF-8 and on a file
    the csv module rejects (a field over its size limit, say).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            raw = list(reader)
        except csv.Error as exc:
            raise UnreadableFile(f"{path} line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise UnreadableFile(
                f"{path} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} ({exc.reason})"
            ) from exc
    rows = []
    for lineno, row in enumerate(raw, start=1):
        cells = [c.strip() for c in row]
        if any(cells):
            rows.append((lineno, cells))
    return rows


def _split_header(rows):
    """Apply the header rule: a first row with any non-numeric cell."""
    first = rows[0][1]
    if any(_cell_value(c) is None for c in first):
        return first, rows[1:]
    return None, rows


def _fast_table(path: str) -> tuple[list[str] | None, np.ndarray] | None:
    """(header or None, float64 table) of a plain numeric CSV, else None.

    One read and one ``np.loadtxt`` pass over the rows below the header.
    numpy converts each field with the routine behind ``float``, so the
    values are the located parser's bit for bit; forms only ``float``
    accepts (``1_0``, non-ASCII digits) make ``loadtxt`` raise. None, and
    so the located parser, on any doubt: quotes or carriage returns, a
    blank first line, a field ``loadtxt`` rejects (blank or comma-only
    lines among the rows, ragged rows, text), a non-finite value, or a
    header whose width is not the table's.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except UnicodeDecodeError:  # its position would differ from the csv reader's
        return None
    if '"' in text or "\r" in text:
        return None
    first, _, rest = text.partition("\n")
    cells = [c.strip() for c in first.split(",")]
    if not any(cells):
        return None
    header = cells if any(_cell_value(c) is None for c in cells) else None
    body = text if header is None else rest
    if not body or body.isspace():
        return None
    try:
        table = np.loadtxt(
            body.split("\n"), delimiter=",", comments=None, quotechar=None,
            dtype=np.float64, ndmin=2,
        )
    except ValueError:
        return None
    if not np.isfinite(table).all():
        return None
    if header is not None and len(header) != table.shape[1]:
        return None
    return header, table


def _located_rows(path: str):
    """(header or None, non-blank data rows) read by the csv module.

    Raises ``EmptyFile`` or a located ``RaggedRows``; cells stay text.
    """
    rows = _read_rows(path)
    if not rows:
        raise EmptyFile(f"{path} has no data rows")
    header, data_rows = _split_header(rows)
    if not data_rows:
        raise EmptyFile(f"{path} has a header but no data rows")
    _check_rectangular(data_rows)
    return header, data_rows


def _check_rectangular(data_rows):
    width = len(data_rows[0][1])
    for lineno, cells in data_rows:
        if len(cells) != width:
            raise RaggedRows(
                f"row {lineno} has {len(cells)} fields, expected {width}"
            )


def _parse_float_cell(cell: str, lineno: int, col: int) -> float:
    val = _cell_value(cell)
    if val is None or not math.isfinite(val):
        raise NonNumericCell(
            f"row {lineno} column {col + 1}: {cell!r} is not a finite number"
        )
    return val


def _table(path: str) -> tuple[list[str] | None, np.ndarray]:
    """(header or None, float64 table) of a CSV: ``_fast_table`` where it
    applies, else the csv module's non-blank data rows, each cell located."""
    fast = _fast_table(path)
    if fast is not None:
        return fast
    header, data_rows = _located_rows(path)
    table = np.array(
        [
            [_parse_float_cell(cell, lineno, j) for j, cell in enumerate(cells)]
            for lineno, cells in data_rows
        ],
        dtype=np.float64,
    )
    return header, table


def parse_matrix_csv(path: str) -> Matrix:
    """Read a rectangular numeric CSV into a Matrix (rows = file rows).

    A first row containing any non-numeric cell is treated as a header
    and skipped. Errors carry the offending row/column location.
    """
    return Matrix(_table(path)[1])


def parse_labeled_csv(path: str, label_column: str = "label") -> LabeledDataset:
    """Read a one-sample-per-row CSV with a label column.

    ``label_column`` is a header name, or a 0-based column index when
    numeric (the only option for headerless files). Labels must be
    integer class ids; the remaining columns become the d x n data
    matrix, transposed so samples sit in columns.
    """
    header, table = _table(path)
    label_idx = _label_index(header, table.shape[1], label_column)
    labels = table[:, label_idx]
    fractional = np.flatnonzero(labels != np.floor(labels))
    if fractional.size:
        # the table's rows are the csv module's data rows: name the row
        # and quote the cell as the file writes it
        lineno, cells = _located_rows(path)[1][fractional[0]]
        raise NonNumericCell(
            f"row {lineno} column {label_idx + 1}: label {cells[label_idx]!r} "
            "is not an integer class id"
        )
    if table.shape[1] == 1:
        raise EmptyFile(f"{path} has no feature columns besides the label")
    return LabeledDataset(Matrix(np.delete(table, label_idx, 1).T), labels)


def _label_index(header: list[str] | None, width: int, label_column: str) -> int:
    """The 0-based label column: a header name, else a numeric index."""
    if header is not None:
        dup = {name for name in header if header.count(name) > 1}
        if dup:
            raise DuplicateColumn(f"duplicate header names: {sorted(dup)}")
        if label_column in header:
            label_idx = header.index(label_column)
        elif _is_index(label_column):
            label_idx = int(label_column)
        else:
            raise MissingLabelColumn(
                f"no column named {label_column!r}; header has {header}"
            )
    else:
        if not _is_index(label_column):
            raise MissingLabelColumn(
                f"file has no header row, so the label column must be a "
                f"0-based index, got {label_column!r}"
            )
        label_idx = int(label_column)
    if not 0 <= label_idx < width:
        raise MissingLabelColumn(
            f"label column index {label_idx} out of range for {width} columns"
        )
    return label_idx


def _is_index(s: str) -> bool:
    try:
        int(s)
    except ValueError:
        return False
    return True


def write_matrix_csv(m: Matrix, path: str):
    """Write a matrix as plain comma-separated rows.

    Entries are serialized with 17 significant digits, enough for an
    exact float64 round trip through ``parse_matrix_csv``.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for i in range(m.rows):
            fh.write(",".join(_fmt(v) for v in m.array[i, :]) + "\n")


# ---------------------------------------------------------------------------
# result documents


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _eigen_doc(args, command, lams, phi, residual, b_orth, method, eps_used, dims):
    """Result document; fails unless ``residual`` is within ``--resid-tol`` (NaN is not)."""
    if args.resid_tol is not None and not residual <= args.resid_tol:
        raise ConvergenceFailure(
            f"residual {residual:.6e} exceeds --resid-tol {args.resid_tol:.6e}"
        )
    return {
        "command": command,
        "eigenvalues": [float(v) for v in lams],
        "vectors": phi.T.tolist(),
        "diagnostics": {
            "residual": float(residual),
            "b_orthonormality": float(b_orth),
            "method": method,
            "epsilon_used": float(eps_used),
        },
        "meta": {"dims": dims},
    }


def _fit_doc(args, command, model, method, dims):
    """Document of a fitted model, its columns in the ``--order`` requested."""
    phi, lams = model.projection.array, model.eigenvalues
    if args.order == "asc":
        phi, lams = phi[:, ::-1], lams[::-1]
    return _eigen_doc(
        args, command, lams, phi, model.residual, model.b_orthonormality,
        method, model.epsilon_used, dims,
    )


# ---------------------------------------------------------------------------
# command implementations: each reads the parsed command line


def _run_eig(args: argparse.Namespace) -> dict:
    a = SymMatrix(parse_matrix_csv(args.matrix), sym_tol=args.sym_tol)
    dec = eig_sym(a, order=_ORDER_MAP[args.order])
    phi = dec.phi.array
    residual, b_orth = _dense_diagnostics(a.array, None, phi, dec.eigenvalues)
    return _eigen_doc(
        args, "eig", dec.eigenvalues, phi, residual, b_orth, "jacobi", 0.0, [a.dim]
    )


def _run_geig(args: argparse.Namespace) -> dict:
    a = SymMatrix(parse_matrix_csv(args.a), sym_tol=args.sym_tol)
    b = SymMatrix(parse_matrix_csv(args.b), sym_tol=args.sym_tol)
    pencil = Pencil(a, b)
    order = _ORDER_MAP[args.order]
    if args.method == "quick_dirty":
        sol = solve_quick_dirty(pencil, epsilon=args.epsilon, order=order)
    else:  # solve_rigorous without the intermediates it would also build
        sol = _rigorous(pencil, args.epsilon, order)[0]
    return _eigen_doc(
        args, "geig", sol.eigenvalues, sol.phi.array, sol.residual,
        sol.b_orthonormality, sol.method, sol.epsilon_used, [pencil.dim],
    )


def _run_pca(args: argparse.Namespace) -> dict:
    x = parse_matrix_csv(args.data).T
    return _fit_doc(args, "pca", pca_fit(x, args.p), "jacobi", [x.rows, x.cols])


def _run_fda(args: argparse.Namespace) -> dict:
    ds = parse_labeled_csv(args.data, args.label_column)
    model = fda_fit(ds, args.p, epsilon=args.epsilon)
    return _fit_doc(args, "fda", model, "rigorous", [ds.d, ds.n])


def _run_kspca(args: argparse.Namespace) -> dict:
    ds = parse_labeled_csv(args.data, args.label_column)
    kx = KernelSpec(kind=args.kernel, gamma=args.gamma, degree=args.degree, coef0=args.coef0)
    ky = KernelSpec(kind=args.kernel_y, gamma=args.gamma, degree=args.degree, coef0=args.coef0)
    model = kspca_fit(ds, args.p, kx=kx, ky=ky, epsilon=args.epsilon)
    return _fit_doc(args, "kspca", model, "rigorous", [ds.d, ds.n])


def _run_rayleigh(args: argparse.Namespace) -> dict:
    a = SymMatrix(parse_matrix_csv(args.a), sym_tol=args.sym_tol)
    u = _parse_vector_csv(args.u)
    b = None if args.b is None else SymMatrix(parse_matrix_csv(args.b), sym_tol=args.sym_tol)
    report = check_stationarity(u, a, b)
    return {
        "command": "rayleigh",
        "quotient": report.multiplier,
        "stationarity": {
            "residual": report.residual,
            "multiplier": report.multiplier,
            "constraint_violation": report.constraint_violation,
        },
        "meta": {"dims": [a.dim]},
    }


def _parse_vector_csv(path: str) -> Vector:
    m = parse_matrix_csv(path)
    if 1 not in m.shape:
        raise DimensionMismatch(
            f"vector file must be a single row or column, got {m.rows}x{m.cols}"
        )
    return Vector(m.array.ravel())


# ---------------------------------------------------------------------------
# output


def _doc_to_csv(doc: dict) -> str:
    lines = []
    if "eigenvalues" in doc:
        for lam, col in zip(doc["eigenvalues"], doc["vectors"]):
            lines.append(",".join([_fmt(lam)] + [_fmt(v) for v in col]))
    else:  # rayleigh
        st = doc["stationarity"]
        lines.append(
            ",".join(
                _fmt(v)
                for v in (doc["quotient"], st["residual"], st["constraint_violation"])
            )
        )
    return "\n".join(lines) + "\n"


# ``json.dumps(x, **kw)`` is ``JSONEncoder(**kw).encode(x)``, and an encoder
# keeps nothing from one call to the next, so each is built once.
_INDENTED = json.JSONEncoder(indent=2)
_LAMS = json.JSONEncoder(separators=(",\n    ", ": "))
_COLS = json.JSONEncoder(separators=(",\n      ", ": "))


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2)``, with the float lists written by json's C encoder.

    json's indenting encoder is pure Python and visits every float; a
    result document is mostly floats, so its eigenvalues and its vector
    columns are each written by one call of the C encoder into a stub of
    the rest. That encoder runs whenever ``indent`` is None and writes each
    float as the indenting one does (``float.__repr__``, or NaN, Infinity,
    -Infinity); the line breaks go in through its item separator, and the
    brackets between columns by ``str.replace``, which no float's text can
    meet. A document without eigenvalues is the indenting encoder's; the
    CLI never writes an empty column (one entry per dimension, and d >= 1).
    """
    if not doc.get("eigenvalues"):
        return _INDENTED.encode(doc)
    stub = _INDENTED.encode({**doc, "eigenvalues": "@lams", "vectors": "@cols"})
    lams = _LAMS.encode(doc["eigenvalues"])
    cols = _COLS.encode(doc["vectors"])
    cols = cols[2:-2].replace("],\n      [", "\n    ],\n    [\n      ")
    return stub.replace('"@lams"', "[\n    " + lams[1:-1] + "\n  ]", 1).replace(
        '"@cols"', "[\n    [\n      " + cols + "\n    ]\n  ]", 1
    )


def _write_output(doc: dict, args: argparse.Namespace):
    text = _json_text(doc) + "\n" if args.format == "json" else _doc_to_csv(doc)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits with code 1 on usage errors.

    The default exit code 2 is reserved here for numerical failures.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg_float(text: str) -> float:
    val = float(text)
    if not 0 <= val < math.inf:
        raise argparse.ArgumentTypeError("must be finite and >= 0")
    return val


def _positive_float(text: str) -> float:
    val = float(text)
    if not 0 < val < math.inf:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return val


def _positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return val


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--order", choices=("desc", "asc"), default="desc",
                        help="eigenvalue sort order in the output (default desc)")
    common.add_argument("--sym-tol", type=_nonneg_float, default=SYM_TOL,
                        help="relative symmetry tolerance for input matrices "
                             f"(default {SYM_TOL:g})")
    common.add_argument("--resid-tol", type=_nonneg_float, default=None,
                        help="fail with exit code 2 unless the solution residual "
                             "is within this bound (default: no gate)")
    common.add_argument("--output", default="-",
                        help="output path, or - for standard output (default -)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--timing", action="store_true",
                        help="include runtime_ms in the output metadata "
                             "(off by default so identical runs are byte-identical)")

    eps_help = ("regularization strength used when B is singular "
                "(default 1e-5, scaled by max|B| when that exceeds 1); kspca's "
                "class-kernel route never regularizes, with any label kernel, "
                "so eps reaches only its fallback")

    parser = _Parser(
        prog="genspectra",
        description="Symmetric and generalized eigensolvers, Rayleigh-quotient "
                    "diagnostics, and the PCA / FDA / kernel-supervised-PCA "
                    "reductions, over CSV inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", parents=[common],
                           help="eigendecompose a symmetric matrix")
    p_eig.add_argument("matrix", help="CSV file holding the symmetric matrix")
    p_eig.set_defaults(run=_run_eig)

    p_geig = sub.add_parser("geig", parents=[common],
                            help="solve the generalized problem A phi = lambda B phi")
    p_geig.add_argument("a", help="CSV file holding A")
    p_geig.add_argument("b", help="CSV file holding B")
    p_geig.add_argument("--method", choices=("rigorous", "quick_dirty"),
                        default="rigorous",
                        help="solution route (default rigorous)")
    p_geig.add_argument("--epsilon", type=_nonneg_float, default=None, help=eps_help)
    p_geig.set_defaults(run=_run_geig)

    p_pca = sub.add_parser("pca", parents=[common],
                           help="principal component analysis of a sample-per-row CSV")
    p_pca.add_argument("data", help="CSV file, one sample per row")
    p_pca.add_argument("-p", type=_positive_int, default=1,
                       help="number of directions (default 1)")
    p_pca.set_defaults(run=_run_pca)

    p_fda = sub.add_parser("fda", parents=[common],
                           help="Fisher discriminant analysis of a labeled CSV")
    p_fda.add_argument("data", help="CSV file, one sample per row plus a label column")
    p_fda.add_argument("-p", type=_positive_int, default=1,
                       help="number of directions (default 1)")
    p_fda.add_argument("--label-column", default="label",
                       help="label column name, or 0-based index (default 'label')")
    p_fda.add_argument("--epsilon", type=_nonneg_float, default=None, help=eps_help)
    p_fda.set_defaults(run=_run_fda)

    p_kspca = sub.add_parser("kspca", parents=[common],
                             help="kernel supervised PCA of a labeled CSV")
    p_kspca.add_argument("data", help="CSV file, one sample per row plus a label column")
    p_kspca.add_argument("-p", type=_positive_int, default=1,
                         help="number of directions (default 1)")
    p_kspca.add_argument("--label-column", default="label",
                         help="label column name, or 0-based index (default 'label')")
    p_kspca.add_argument("--kernel", choices=("linear", "rbf", "polynomial"),
                         default="rbf", help="data kernel (default rbf)")
    p_kspca.add_argument("--gamma", type=_positive_float, default=None,
                         help="rbf width (default 1/d; 1 for the label kernel)")
    p_kspca.add_argument("--degree", type=_positive_int, default=3,
                         help="polynomial degree (default 3)")
    p_kspca.add_argument("--coef0", type=_nonneg_float, default=1.0,
                         help="polynomial offset, >= 0 so the kernel is PSD (default 1); "
                              "--kernel-y shares it with --gamma and --degree")
    p_kspca.add_argument("--kernel-y", choices=("delta", "linear", "rbf", "polynomial"),
                         default="delta",
                         help="label kernel (default delta); it shares --gamma, "
                              "--degree and --coef0 with the data kernel")
    p_kspca.add_argument("--epsilon", type=_nonneg_float, default=None, help=eps_help)
    p_kspca.set_defaults(run=_run_kspca)

    p_ray = sub.add_parser("rayleigh", parents=[common],
                           help="evaluate the Rayleigh quotient and stationarity of u")
    p_ray.add_argument("a", help="CSV file holding A")
    p_ray.add_argument("u", help="CSV file holding the vector (single row or column)")
    p_ray.add_argument("--b", dest="b", default=None,
                       help="optional CSV file holding the metric B")
    p_ray.set_defaults(run=_run_rayleigh)

    parser.commands = sub.choices  # each command's name to its parser, for _parse
    return parser


# Built on the first request rather than at import; argparse keeps no
# state from one parse to the next, so every request reuses it.
_parser = functools.lru_cache(maxsize=None)(make_parser)


def _parse(argv) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, by the named command's parser alone.

    The top-level parser's only work on such an argv is to hand the rest
    of it to that parser, so the namespace is the same. An argv that names
    no command first, or leaves arguments unrecognized, goes through the
    top-level parser, so that its help and usage errors stay its own.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command line; returns the process exit code."""
    args = _parse(argv)
    try:
        start = time.perf_counter()
        doc = args.run(args)
        if args.timing:
            doc["meta"]["runtime_ms"] = round((time.perf_counter() - start) * 1e3, 3)
        _write_output(doc, args)
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (GenSpectraError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
