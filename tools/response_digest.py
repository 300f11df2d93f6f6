"""One sha256 per benchmark workload over every CLI response of a checkout.

Builds every request of the four workloads (``perfbench/workloads.py`` of
this repository, imported and left as it is) for each seed, runs each one
in-process through ``genspectra.cli.main`` of the checkout at SRC_ROOT,
and hashes, in request order, its id, exit code, standard output and
standard error. The inputs are written under a temporary directory and
named by relative paths, so two checkouts see the same argv and a
response that names its input reads the same in both.

Two checkouts give byte-identical responses exactly when their digests are
equal:

    python3 tools/response_digest.py /path/to/parent > parent.txt
    python3 tools/response_digest.py . > change.txt
    diff parent.txt change.txt

The backend follows ``GENSPECTRA_KERNELS``, as in the CLI.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, build  # noqa: E402

DEFAULT_SEEDS = (1, 2, 3, *range(11, 21))


def _respond(cli_main, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def digests(cli_main, workloads, seeds) -> dict[str, str]:
    """sha256 of every response of each workload, over ``seeds`` in order.

    Runs in the current directory, where it writes the inputs.
    """
    got = {}
    for name in workloads:
        h = hashlib.sha256()
        for seed in seeds:
            reqs, _ = build(name, seed, Path(name))
            for r in reqs:
                code, out, err = _respond(cli_main, r.argv)
                for part in (f"{seed} {r.rid} {code}", out, err):
                    data = part.encode("utf-8")
                    h.update(len(data).to_bytes(8, "little") + data)
        got[name] = h.hexdigest()
    return got


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("src_root", type=Path, help="root of the checkout whose src/genspectra runs")
    p.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = p.parse_args(argv)

    src = (args.src_root / "src").resolve()
    sys.path.insert(0, str(src))
    import genspectra.cli

    if Path(genspectra.cli.__file__).resolve().parent.parent != src:
        p.error(f"genspectra was imported from {genspectra.cli.__file__}, not from {src}")
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="response-digest-") as work:
        os.chdir(work)
        try:
            got = digests(genspectra.cli.main, args.workloads, args.seeds)
        finally:
            os.chdir(home)
    for name, digest in got.items():
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
