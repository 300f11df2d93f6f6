"""Committed trajectories of the benchmark's exact counters: ``BENCH_counts.json``.

    python3 tools/trajectory.py --counts f1f197b "$(git write-tree)"

Exports each REV (a commit, or a tree such as ``git write-tree`` prints for
the staged state) with ``git archive`` into a temporary directory and
measures there, per workload over ``--seeds``, on the pure-Python backend:

* the Python calls and the C calls per request inside that export's
  ``genspectra.cli.main``, counted after one warm-up pass as
  ``tools/ab_inprocess.py`` counts them;
* the per-request counters of the export's own ``perfbench/run.py
  --trace 1``: ``kernels.matmul.calls`` and ``flops``,
  ``eigen.eig_sym.calls``, and ``kernels.jacobi_eigh.sweeps`` and
  ``rotations``.

Each count depends only on the code and the requests, so it repeats exactly
from run to run and machine to machine; no time is recorded. Every REV gets
one entry in OUT (default ``BENCH_counts.json`` at the root of the
repository), keyed by the ``src_sha256`` that ``perfbench/run.py`` records
for it, which replaces an entry with the same digest. The entry names the
commit where REV is one. A REV whose package cannot be loaded or measured
gets an entry that says why, keyed by REV.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ab_inprocess import _calls, _load  # noqa: E402
from response_digest import WORKLOADS, _respond, build  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
ABOUT = (
    "Per-request counts that repeat exactly, one entry per source state (src_sha256), "
    "pure-Python backend; written by tools/trajectory.py --counts"
)
TRACED = (
    "kernels.matmul.calls", "kernels.matmul.flops", "eigen.eig_sym.calls",
    "kernels.jacobi_eigh.sweeps", "kernels.jacobi_eigh.rotations",
)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=REPO, capture_output=True, text=True, check=True, timeout=120
    ).stdout.strip()


def _export(rev: str, into: Path) -> None:
    """``git archive`` of REV, unpacked into ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "archive", rev], cwd=REPO, capture_output=True, check=True, timeout=300
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True, timeout=300)


def _src_sha256(root: Path) -> str:
    """The digest ``perfbench/run.py`` records as ``src_sha256``."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted((src / "genspectra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _traced(root: Path, workload: str, seed: int) -> tuple[dict, int]:
    """(TRACED counters per request, number of requests) of one traced run
    of the export's own ``perfbench/run.py``."""
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=900,
        env={**os.environ, "GENSPECTRA_KERNELS": "python"},
    )
    if run.returncode != 0:
        last = run.stderr.strip().splitlines()[-1:] or ["no output"]
        raise RuntimeError(
            f"perfbench/run.py {workload} seed {seed} exited {run.returncode}: {last[0]}"
        )
    record = json.loads(
        (root / ".perfbench-out" / f"{workload}-seed{seed}-trace1" / "record.json").read_text()
    )
    return {k: record["metrics"][k] for k in TRACED}, record["notes"]["traced_requests"]


def measure(rev: str, workloads, seeds, work: Path) -> dict:
    """The entry of one REV, measured on its export under ``work``."""
    root = work / "export"
    _export(rev, root)
    oid = _git("rev-parse", rev)
    entry = {"src_sha256": _src_sha256(root), "rev": oid,
             "commit": oid if _git("cat-file", "-t", oid) == "commit" else None,
             "backend": "python", "seeds": list(seeds), "workloads": {}}
    cli_main = _load(f"genspectra_{hashlib.sha256(rev.encode()).hexdigest()[:12]}", root).main
    home = os.getcwd()
    os.chdir(work)
    try:
        for name in workloads:
            argvs = []
            for seed in seeds:
                argvs += [r.argv for r in build(name, seed, Path(name) / str(seed))[0]]
            for argv in argvs:  # warm up, as ab_inprocess does before counting
                _respond(cli_main, argv)
            py, c = _calls(cli_main, argvs)
            row = {"requests": len(argvs), "python_calls": py / len(argvs),
                   "c_calls": c / len(argvs)}
            totals = dict.fromkeys(TRACED, 0.0)
            for seed in seeds:
                per_request, n = _traced(root, name, seed)
                for key in TRACED:
                    totals[key] += per_request[key] * n
            row.update({key: total / len(argvs) for key, total in totals.items()})
            entry["workloads"][name] = row
    finally:
        os.chdir(home)
    return entry


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--counts", action="store_true", required=True,
                   help="record the exact counters (the only kind so far)")
    p.add_argument("revs", nargs="+", metavar="REV", help="commit or tree to export and measure")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--out", type=Path, default=REPO / "BENCH_counts.json")
    args = p.parse_args(argv)

    os.environ["GENSPECTRA_KERNELS"] = "python"
    doc = {"about": ABOUT, "entries": []}
    if args.out.exists():
        doc = json.loads(args.out.read_text())
    for rev in args.revs:
        with tempfile.TemporaryDirectory(prefix="trajectory-") as work:
            try:
                entry = measure(rev, args.workloads, args.seeds, Path(work))
            except Exception as exc:  # noqa: BLE001 - the entry records why
                traceback.print_exc()
                entry = {"src_sha256": None, "rev": rev, "error": f"{type(exc).__name__}: {exc}"}
        key = entry["src_sha256"] or rev
        doc["entries"] = [e for e in doc["entries"] if (e["src_sha256"] or e["rev"]) != key]
        doc["entries"].append(entry)
        print(f"{rev}: {entry.get('error') or 'src ' + entry['src_sha256'][:16]}")
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
