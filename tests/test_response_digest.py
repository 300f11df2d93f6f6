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
    name, digest = first.split()
    assert name == "small-pencils" and len(digest) == 64
    assert _digest(*args) == first
    # a different seed gives different responses, and so another digest
    assert _digest("--seeds", "2", "--workloads", "small-pencils") != first
