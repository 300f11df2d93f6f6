"""``tools/response_digest.py``, the byte-identity gate between two checkouts."""

import subprocess
import sys

from conftest import REPO_ROOT

TOOL = REPO_ROOT / "tools" / "response_digest.py"


def _digest(*args: str) -> str:
    run = subprocess.run(
        [sys.executable, str(TOOL), str(REPO_ROOT), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return run.stdout


def test_digest_is_the_same_on_a_rerun():
    args = ("--seeds", "1", "--workloads", "small-pencils")
    first = _digest(*args)
    head, *rows = first.splitlines()
    name, digest = head.split()
    assert name == "small-pencils" and len(digest) == 64
    # then one indented line per response: seed, request id and its digest
    assert len(rows) == 18
    for row in rows:
        assert row.startswith("  ")
        seed, rid, one = row.split()
        assert seed == "1" and rid.startswith(("geig-", "rayleigh-")) and len(one) == 64
    assert len({row.split()[1] for row in rows}) == len(rows)
    assert _digest(*args) == first
    # a different seed gives different responses, and so other digests
    other = _digest("--seeds", "2", "--workloads", "small-pencils").splitlines()
    assert other[0] != head
    assert all(a != b for a, b in zip(rows, other[1:]))
