"""One sha256 per benchmark workload over every CLI response of a checkout,
and one per response.

Builds every request of the four workloads (``perfbench/workloads.py`` of
this repository, imported and left as it is) for each seed, runs each one
in-process through ``genspectra.cli.main`` of the checkout at SRC_ROOT,
and hashes, in request order, its id, exit code, standard output and
standard error. The inputs are written under a temporary directory and
named by relative paths, so two checkouts see the same argv and a
response that names its input reads the same in both.

Each workload prints a line ``NAME DIGEST`` over all of its responses,
then one indented line ``SEED REQUEST-ID DIGEST`` per response, over the
same parts of that response alone. Two checkouts give byte-identical
responses exactly when their digests are equal, and ``diff`` names the
responses that differ:

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
import types
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


def digests(cli_main, workloads, seeds) -> dict[str, tuple[str, list[tuple[int, str, str]]]]:
    """Per workload: the sha256 of all of its responses, over ``seeds`` in
    order, and (seed, request id, sha256) of each response.

    Runs in the current directory, where it writes the inputs.
    """
    got = {}
    for name in workloads:
        h = hashlib.sha256()
        each = []
        for seed in seeds:
            reqs, _ = build(name, seed, Path(name))
            for r in reqs:
                code, out, err = _respond(cli_main, r.argv)
                one = hashlib.sha256()
                for part in (f"{seed} {r.rid} {code}", out, err):
                    data = part.encode("utf-8")
                    framed = len(data).to_bytes(8, "little") + data
                    h.update(framed)
                    one.update(framed)
                each.append((seed, r.rid, one.hexdigest()))
        got[name] = h.hexdigest(), each
    return got


def arguments(description: str, argv=None) -> tuple[argparse.Namespace, types.ModuleType]:
    """The command line shared with ``tools/workload_lines.py``, and
    ``genspectra.cli`` imported from its SRC_ROOT."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("src_root", type=Path, help="root of the checkout whose src/genspectra runs")
    p.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS)
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    args = p.parse_args(argv)

    src = (args.src_root / "src").resolve()
    sys.path.insert(0, str(src))
    import genspectra.cli

    if Path(genspectra.cli.__file__).resolve().parent.parent != src:
        p.error(f"genspectra was imported from {genspectra.cli.__file__}, not from {src}")
    return args, genspectra.cli


def digests_in_temp_dir(cli_main, workloads, seeds):
    """``digests``, with the inputs written under a temporary directory."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="response-digest-") as work:
        os.chdir(work)
        try:
            return digests(cli_main, workloads, seeds)
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    args, cli = arguments(__doc__.splitlines()[0], argv)
    got = digests_in_temp_dir(cli.main, args.workloads, args.seeds)
    for name, (digest, each) in got.items():
        print(name, digest)
        for seed, rid, one in each:
            print(f"  {seed} {rid} {one}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
