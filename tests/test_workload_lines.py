"""``tools/workload_lines.py``, the lines no benchmark request reaches."""

import os
import re
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "workload_lines.py"


def _unreached(*args: str) -> str:
    run = subprocess.run(
        [sys.executable, str(TOOL), str(REPO_ROOT), *args],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "GENSPECTRA_KERNELS": "python"},
    )
    return run.stdout


def test_small_pencils_leave_the_fits_and_the_csv_module_unreached():
    args = ("--workloads", "small-pencils", "--seeds", "1")
    out = _unreached(*args)
    assert _unreached(*args) == out
    modules, rows = {}, {}
    for line in out.splitlines():
        if line.startswith("  "):
            name, ranges = line.strip().split(": ")
            rows[module, name] = ranges
        else:
            module, missed, total = re.fullmatch(
                r"(\S+): (\d+) of (\d+) function lines unreached", line
            ).groups()
            modules[module] = int(missed), int(total)
    assert "genspectra/kernels/pykernels.py" in modules
    # geig and rayleigh requests only: no fit runs, and every file is plain
    missed, total = modules["genspectra/apps.py"]
    assert missed == total > 0
    for name in ("_read_rows", "_located_rows", "parse_labeled_csv"):
        assert ("genspectra/cli.py", name) in rows
    assert ("genspectra/eigen.py", "eigvec_for") in rows
    # while the commands they send run every line, their def lines included
    for name in ("_run_geig", "_run_rayleigh", "parse_matrix_csv"):
        assert ("genspectra/cli.py", name) not in rows
    missed, total = modules["genspectra/cli.py"]
    assert 0 < missed < total
    assert all(re.fullmatch(r"\d+(-\d+)?(, \d+(-\d+)?)*", r) for r in rows.values())
