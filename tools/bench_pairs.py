"""Alternating parent/change pairs of ``perfbench/run.py`` runs, read
against the bounds in ``BENCHMARK.json``.

For each workload and seed, runs the benchmark once in each checkout,
untraced, as the benchmark's own command (``BENCHMARK.json``'s
``command`` with ``--workload W --seed N --seconds S --trace 0``, in the
checkout's root), and alternates which side runs first from one seed to
the next. Both checkouts must hold the same ``perfbench/`` and
``BENCHMARK.json``, so that both sides are measured by the same code:

    python3 tools/bench_pairs.py /path/to/parent . --workloads small-pencils \\
        --seeds 11 12 13 14 15 16 17 18 19 20 --claim small-pencils/solves_per_s

Every run is printed, with its ``correct`` and ``failed``, and none is
dropped. Then, per workload and end-to-end metric, one line gives both
medians, the parent's interquartile range over its median, the share of
pairs the change won (ties count for neither side) and a verdict:

* ``worse`` where the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` where the parent's interquartile range exceeds the
  bound, unless every run of the change beats every run of the parent;
* ``within bound`` otherwise.

With ``--claim WORKLOAD/METRIC`` a last line says whether the gain is
``met``: the change won at least 9 of every 10 pairs, over at least 10
pairs, its median is the better one by more than the parent's
interquartile range, and its runs failed no larger share of requests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MIN_CLAIM_PAIRS = 10


def _benchmark_files(root: Path) -> dict[str, bytes]:
    files = sorted((root / "perfbench").glob("*.py")) + [root / "BENCHMARK.json"]
    return {str(f.relative_to(root)): f.read_bytes() for f in files}


def _run(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """The last line of one benchmark run, as JSON."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(argv)} in {root} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, spread, wins and verdict of one metric over paired runs."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    iqr = _iqr(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    bound = metric["bound"]
    separated = min(sign * c for c in change) > max(sign * p for p in parent)
    if sign * (c_med - p_med) < -bound * p_med:
        verdict = "worse"
    elif iqr > bound * p_med and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p_med, "change": c_med, "iqr": iqr, "wins": wins,
            "pairs": len(parent), "gain": sign * (c_med - p_med), "verdict": verdict}


def _failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def _claim(cmp: dict, parent_runs: list[dict], change_runs: list[dict]) -> str:
    if cmp["pairs"] < MIN_CLAIM_PAIRS:
        return f"not met: {cmp['pairs']} pair(s), fewer than {MIN_CLAIM_PAIRS}"
    if 10 * cmp["wins"] < 9 * cmp["pairs"]:
        return f"not met: the change won {cmp['wins']} of {cmp['pairs']} pairs"
    if not cmp["gain"] > cmp["iqr"]:
        return (f"not met: the medians differ by {cmp['gain']:.6g}, "
                f"not more than the parent's IQR {cmp['iqr']:.6g}")
    if _failed_share(change_runs) > _failed_share(parent_runs):
        return "not met: the change failed a larger share of requests"
    return f"met: the change won {cmp['wins']} of {cmp['pairs']} pairs"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_root", type=Path, help="root of the parent checkout")
    p.add_argument("change_root", type=Path, help="root of the changed checkout")
    p.add_argument("--workloads", nargs="+", default=None,
                   help="workloads to run (default: every one in BENCHMARK.json)")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(11, 21)),
                   help="one pair per seed (default 11-20)")
    p.add_argument("--seconds", type=float, default=None,
                   help="--seconds of each run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--claim", default=None, metavar="WORKLOAD/METRIC",
                   help="the gain to judge by the pairs rule")
    args = p.parse_args(argv)

    roots = [args.parent_root.resolve(), args.change_root.resolve()]
    if _benchmark_files(roots[0]) != _benchmark_files(roots[1]):
        p.error("the two checkouts hold different perfbench/ or BENCHMARK.json")
    spec = json.loads((roots[0] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads or names
    metrics = spec["end_to_end"]
    for w in workloads:
        if w not in names:
            p.error(f"unknown workload {w!r}; BENCHMARK.json has {names}")
    if args.claim is not None:
        claim_w, _, claim_m = args.claim.partition("/")
        if claim_w not in workloads or claim_m not in [m["name"] for m in metrics]:
            p.error(f"--claim {args.claim!r} names no workload run and end-to-end metric")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    print(f"# parent {roots[0]}\n# change {roots[1]}\n"
          f"# seconds {seconds:g}, seeds {' '.join(map(str, args.seeds))}")
    claim = None
    for w in workloads:
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                got = _run(roots[SIDES.index(side)], spec["command"], w, seed, seconds)
                runs[side].append(got)
                values = ", ".join(f"{m['name']} {got['metrics'][m['name']]['value']:.6g}"
                                   for m in metrics)
                print(f"run {w} seed {seed} {side}{' (first)' if side == order[0] else ''}: "
                      f"correct {str(got['correct']).lower()}, failed {got['failed']} "
                      f"of {got['attempted']}; {values}", flush=True)
        for m in metrics:
            cmp = _compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                for side in SIDES))
            print(f"{w} {m['name']}: parent {cmp['parent']:.6g}, change {cmp['change']:.6g} "
                  f"{m['unit']} ({cmp['change'] / cmp['parent'] - 1:+.1%}); parent IQR "
                  f"{cmp['iqr'] / cmp['parent']:.1%} of its median; change won "
                  f"{cmp['wins']} of {cmp['pairs']} pairs; {cmp['verdict']} "
                  f"(bound {m['bound']:.0%})")
            if args.claim == f"{w}/{m['name']}":
                claim = _claim(cmp, runs["parent"], runs["change"])
        print(f"{w} failed: parent {sum(r['failed'] for r in runs['parent'])} of "
              f"{sum(r['attempted'] for r in runs['parent'])}, change "
              f"{sum(r['failed'] for r in runs['change'])} of "
              f"{sum(r['attempted'] for r in runs['change'])}")
    if claim is not None:
        print(f"claim {args.claim}: {claim}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
