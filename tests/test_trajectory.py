"""``tools/trajectory.py --counts``, the exact counters of a commit."""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "trajectory.py"


def _head():
    run = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
    )
    if run.returncode != 0:
        pytest.skip("not a git checkout")
    return run.stdout.strip()


def _counts(out, *revs):
    run = subprocess.run(
        [sys.executable, str(TOOL), "--counts", *revs, "--workloads", "small-pencils",
         "--seeds", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    return json.loads(out.read_text())["entries"]


def test_one_commit_one_workload(tmp_path):
    head = _head()
    out = tmp_path / "BENCH_counts.json"
    (entry,) = _counts(out, "HEAD")
    assert entry["rev"] == entry["commit"] == head
    assert len(entry["src_sha256"]) == 64 and entry["backend"] == "python"
    assert entry["seeds"] == [1] and list(entry["workloads"]) == ["small-pencils"]
    row = entry["workloads"]["small-pencils"]
    assert row["requests"] == 18
    assert row["python_calls"] > 0 and row["c_calls"] > 0
    # every small-pencils request multiplies and decomposes, by Jacobi at d <= 4
    for key in ("kernels.matmul.calls", "kernels.matmul.flops", "eigen.eig_sym.calls",
                "kernels.jacobi_eigh.sweeps", "kernels.jacobi_eigh.rotations"):
        assert row[key] > 0, key
    # the counts repeat exactly, and the same source replaces its entry; a
    # rev that cannot be exported gets an entry saying why
    entries = _counts(out, "HEAD", "no-such-rev")
    assert entries[0] == entry
    assert entries[1]["rev"] == "no-such-rev" and entries[1]["src_sha256"] is None
    assert "CalledProcessError" in entries[1]["error"]
