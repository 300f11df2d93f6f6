"""``tools/ab_inprocess.py``, parent and change interleaved in one process."""

import re
import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "ab_inprocess.py"


def test_a_checkout_against_itself_answers_and_calls_alike():
    run = subprocess.run(
        [sys.executable, str(TOOL), str(REPO_ROOT), str(REPO_ROOT), "--workloads",
         "small-pencils", "--seeds", "1", "--cycles", "1", "--backend", "python"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "backend: parent python, change python"
    assert lines[1] == "small-pencils: responses identical: 18 requests over seeds 1"
    # the same code makes the same calls, counted exactly
    calls = re.fullmatch(
        r"small-pencils: calls per request: parent (\S+) Python, (\S+) C; "
        r"change (\S+) Python, (\S+) C", lines[2]
    ).groups()
    assert calls[:2] == calls[2:] and float(calls[0]) > 0 and float(calls[1]) > 0
    assert re.fullmatch(
        r"small-pencils: sum of per-request minima: parent \S+ ms, change \S+ ms \(\S+%\)",
        lines[3],
    )
    won = re.fullmatch(r"small-pencils: cycles won: parent (\d), change (\d) of 1", lines[4])
    assert won and int(won[1]) + int(won[2]) <= 1
    # the three requests that moved most each way, by seed and request id
    moved = {}
    for line, label in zip(lines[5:7], ("largest", "smallest")):
        head = f"small-pencils: {label} change/parent of per-request minima: "
        assert line.startswith(head), line
        moved[label] = [item.rsplit(" ", 1) for item in line[len(head):].split(", ")]
        assert len(moved[label]) == 3
        assert all(re.fullmatch(r"1 \S+", rid) and float(r) > 0 for rid, r in moved[label])
    ratios = [float(r) for _, r in moved["largest"] + moved["smallest"][::-1]]
    assert ratios == sorted(ratios, reverse=True)
    assert len(lines) == 7
