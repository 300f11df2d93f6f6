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
         "--seeds", "1", "2", "--seconds", "0.4", "--claim", "small-pencils/solves_per_s"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    # each side runs first once
    runs = [line for line in lines if line.startswith("run small-pencils seed ")]
    assert len(runs) == 4
    assert runs[0].startswith("run small-pencils seed 1 parent (first): correct ")
    assert runs[1].startswith("run small-pencils seed 1 change: correct ")
    assert runs[2].startswith("run small-pencils seed 2 change (first): correct ")
    assert runs[3].startswith("run small-pencils seed 2 parent: correct ")
    metrics = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for m in metrics:
        line = [x for x in lines if x.startswith(f"small-pencils {m['name']}: parent ")]
        assert len(line) == 1 and "change won " in line[0] and " of 2 pairs; " in line[0]
    # two pairs are too few to claim a gain, whatever they read
    assert lines[-1] == "claim small-pencils/solves_per_s: not met: 2 pair(s), fewer than 10"


def test_an_odd_number_of_seeds_is_a_usage_error():
    run = subprocess.run(
        [sys.executable, str(TOOL), str(REPO_ROOT), str(REPO_ROOT), "--seeds", "1", "2", "3"],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2 and run.stdout == ""
    assert "--seeds takes an even number of seeds" in run.stderr
