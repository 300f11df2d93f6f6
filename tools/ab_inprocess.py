"""Parent and change in one process: same responses, per-request times
interleaved cycle by cycle, and per-request call counts.

Loads each checkout's ``src/genspectra`` under its own package name
(``genspectra_parent``, ``genspectra_change``), which works because every
import inside the package is relative, and builds the requests of each
workload and seed as ``tools/response_digest.py`` does. Then, per
workload:

* runs every request once on each side and checks that the exit codes,
  standard output and standard error are byte-identical;
* counts, with ``sys.setprofile``, the Python calls and the C calls each
  side's ``genspectra.cli.main`` makes per request. These counts depend
  only on the code and the requests, so they repeat exactly from run to
  run and machine to machine;
* runs ``--cycles`` timed cycles, each a pass of every request on one side
  and then on the other, alternating which side goes first, and prints
  each side's sum of per-request minimum times and how many cycles each
  side's pass was the faster.

    python3 tools/ab_inprocess.py /path/to/parent . --workloads kernel-fit \\
        --cycles 60 --backend python

A slow phase of the machine hits both sides alike, which separate
processes (``tools/bench_pairs.py``) do not ensure. The two packages share
one heap and one garbage collector, so memory and start-up time are not
measured here. Exits 1 when any response differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from response_digest import DEFAULT_SEEDS, WORKLOADS, _respond, build  # noqa: E402

SIDES = ("parent", "change")


def _load(alias: str, root: Path):
    """``genspectra.cli`` of the checkout at ``root``, imported as ``alias``.cli."""
    pkg = (root / "src" / "genspectra").resolve()
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{alias}.cli")


def _calls(cli_main, argvs) -> tuple[int, int]:
    """Python calls and C calls made inside ``cli_main`` over ``argvs``."""
    counts = {"call": 0, "c_call": 0}

    def hook(frame, event, arg):
        if event in counts:
            counts[event] += 1

    def counted(argv):
        sys.setprofile(hook)
        try:
            return cli_main(argv)
        finally:
            sys.setprofile(None)

    gc.collect()
    for argv in argvs:
        _respond(counted, argv)
    return counts["call"], counts["c_call"]


def _timed_pass(cli_main, argvs, best: list[float]) -> float:
    """One pass over ``argvs``: lowers ``best`` to each request's time, and
    returns the pass's total."""
    total = 0.0
    for i, argv in enumerate(argvs):
        start = time.perf_counter()
        _respond(cli_main, argv)
        took = time.perf_counter() - start
        best[i] = min(best[i], took)
        total += took
    return total


def compare(mains: dict, name: str, seeds, cycles: int) -> bool:
    """Print one workload's comparison; True when every response is the same."""
    rids, argvs = [], []
    for seed in seeds:
        reqs, _ = build(name, seed, Path(name) / str(seed))
        rids += [f"{seed} {r.rid}" for r in reqs]
        argvs += [r.argv for r in reqs]
    n = len(argvs)

    answers = {side: [_respond(mains[side], argv) for argv in argvs] for side in SIDES}
    differ = [rid for rid, p, c in zip(rids, answers["parent"], answers["change"]) if p != c]
    if differ:
        print(f"{name}: responses differ: {len(differ)} of {n}: {', '.join(differ)}")
    else:
        print(f"{name}: responses identical: {n} requests over seeds "
              f"{' '.join(map(str, seeds))}")

    calls = {side: _calls(mains[side], argvs) for side in SIDES}
    print(f"{name}: calls per request: " + "; ".join(
        f"{side} {py / n:.1f} Python, {c / n:.1f} C" for side, (py, c) in calls.items()
    ))

    best = {side: [float("inf")] * n for side in SIDES}
    won = dict.fromkeys(SIDES, 0)
    for cycle in range(cycles):
        gc.collect()
        order = SIDES if cycle % 2 == 0 else SIDES[::-1]
        total = {side: _timed_pass(mains[side], argvs, best[side]) for side in order}
        if total["parent"] != total["change"]:
            won[min(SIDES, key=total.get)] += 1
    if cycles:
        ms = {side: 1e3 * sum(best[side]) for side in SIDES}
        print(f"{name}: sum of per-request minima: parent {ms['parent']:.3f} ms, "
              f"change {ms['change']:.3f} ms ({ms['change'] / ms['parent'] - 1.0:+.1%})")
        print(f"{name}: cycles won: parent {won['parent']}, change {won['change']} "
              f"of {cycles}")
    return not differ


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root", type=Path, help="root of the parent checkout")
    p.add_argument("change_root", type=Path, help="root of the changed checkout")
    p.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    p.add_argument("--seeds", type=int, nargs="+", default=DEFAULT_SEEDS[:1])
    p.add_argument("--cycles", type=int, default=30, help="timed cycles per workload")
    p.add_argument("--backend", choices=("auto", "python", "compiled"), default="auto",
                   help="GENSPECTRA_KERNELS for both sides")
    args = p.parse_args(argv)
    if args.cycles < 0:
        p.error("--cycles must be at least 0")

    os.environ["GENSPECTRA_KERNELS"] = args.backend
    roots = dict(zip(SIDES, (args.parent_root, args.change_root)))
    mains = {side: _load(f"genspectra_{side}", roots[side]).main for side in SIDES}
    print("backend: " + ", ".join(
        f"{side} {sys.modules[f'genspectra_{side}.kernels'].BACKEND}" for side in SIDES
    ))
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="ab-inprocess-") as work:
        os.chdir(work)
        try:
            same = [compare(mains, name, args.seeds, args.cycles) for name in args.workloads]
        finally:
            os.chdir(home)
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
