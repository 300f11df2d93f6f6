"""``tools/bench_pairs.py``, alternating parent/change benchmark pairs."""

import json
import shutil
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "bench_pairs.py"


def test_a_checkout_against_itself_claims_no_gain(tmp_path):
    root = tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__", "*.so", ".perfbench-out")
    for name in ("src", "perfbench"):
        shutil.copytree(REPO_ROOT / name, root / name, ignore=skip)
    shutil.copy(REPO_ROOT / "BENCHMARK.json", root)
    run = subprocess.run(
        [sys.executable, str(TOOL), str(root), str(root), "--workloads", "small-pencils",
         "--seeds", "1", "--seconds", "0.4", "--claim", "small-pencils/solves_per_s"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    runs = [line for line in lines if line.startswith("run small-pencils seed 1 ")]
    assert len(runs) == 2
    assert "parent (first): correct " in runs[0] and "change: correct " in runs[1]
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for m in metrics:
        line = [x for x in lines if x.startswith(f"small-pencils {m['name']}: parent ")]
        assert len(line) == 1 and "change won " in line[0] and " of 1 pairs; " in line[0]
    # one pair is too few to claim a gain, whatever it reads
    assert lines[-1] == "claim small-pencils/solves_per_s: not met: 1 pair(s), fewer than 10"
