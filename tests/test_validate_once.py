"""Each CLI request validates what it reads once, at the edge.

Every request of each benchmark workload (``perfbench/workloads.py``,
seed 1) runs through ``cli.main`` with the validating constructors counted:
``Matrix.__init__``, ``SymMatrix.__init__`` and ``linalg._as_2d``, the pass
that copies a table and tests it for finiteness. A CSV table is copied and
checked once, into one ``Matrix``; a matrix file read as A or B becomes one
``SymMatrix`` of that ``Matrix``, which tests its symmetry alone; a data
file becomes no ``SymMatrix``. What the package forms inside, and the
result it wraps on the way out (``Matrix._wrap``, no copy), builds none.
"""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from genspectra import cli, linalg

from conftest import REPO_ROOT

sys.path.insert(0, str(REPO_ROOT / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402

_DATA_COMMANDS = ("pca", "fda", "kspca")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_request_validates_each_input_once(workload, tmp_path, monkeypatch):
    counts = {}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(linalg.Matrix, "__init__", counting("Matrix", linalg.Matrix.__init__))
    monkeypatch.setattr(
        linalg.SymMatrix, "__init__", counting("SymMatrix", linalg.SymMatrix.__init__)
    )
    monkeypatch.setattr(linalg, "_as_2d", counting("_as_2d", linalg._as_2d))
    monkeypatch.chdir(tmp_path)
    requests, _ = build(workload, 1, tmp_path / workload)
    assert requests
    for r in requests:
        counts.clear()
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            assert cli.main(list(r.argv)) == 0, (r.rid, err.getvalue())
        files = [a for a in r.argv if a.endswith(".csv")]
        # rayleigh's u is a Vector, not a matrix
        symmetric = 0 if r.kind in _DATA_COMMANDS else len(files) - (r.kind == "rayleigh")
        want = {"Matrix": len(files), "_as_2d": len(files)}
        if symmetric:
            want["SymMatrix"] = symmetric
        assert counts == want, r.rid
