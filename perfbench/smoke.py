"""Smoke test of the benchmark itself.

Runs every workload for a few requests, untraced and traced, checks the
result line, the tracer's bindings and that each traced request's self
times add up to its latency. Then shows that the oracle counts a
deliberately corrupted response as failed, and that the benchmark refuses
to run without the package sources.

Usage (from the root of the repository):
    python3 perfbench/smoke.py
"""

import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SMOKE_DIR = ROOT / ".perfbench-out" / "smoke"
SEED = 7
LIMIT = 3

# Call sites that bind a traced entry point by name.
EXPECTED_BINDINGS = (
    "genspectra.pencil.eig_sym", "genspectra.apps.eig_sym", "genspectra.cli.eig_sym",
    "genspectra.rayleigh.eig_sym", "genspectra.pencil.determinant",
    "genspectra.kernels.matmul", "genspectra.kernels.jacobi_eigh",
)


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0", "--trace", str(trace), "--limit", str(LIMIT)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_workload(workload: str, trace: int):
    proc = _bench(workload, trace)
    _check(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-800:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
    _check(result["correct"] is True, f"{workload}: a wrong answer: {proc.stdout[-800:]}")
    out = ROOT / ".perfbench-out" / f"{workload}-seed{SEED}-trace{trace}"
    record = json.loads((out / "record.json").read_text())
    requests = min(LIMIT, record["notes"]["requests_per_cycle"])
    _check(result["attempted"] == requests * (1 + trace), f"{workload}: attempted {result['attempted']}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    _check(list(result["metrics"]) == names, f"{workload}: metrics {list(result['metrics'])}")
    if not trace:
        return
    missing = set(EXPECTED_BINDINGS) - set(record["notes"]["bindings"])
    _check(not missing, f"entry points not rebound: {sorted(missing)}")
    # Self times of a request add up to its traced latency.
    spans = [json.loads(line) for line in (out / "spans.jsonl").read_text().splitlines()]
    child = defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_sum = defaultdict(int)
    root = {}
    for s in spans:
        self_sum[s["request"]] += s["end_ns"] - s["start_ns"] - child[s["id"]]
        if s["parent"] < 0:
            root[s["request"]] = s["end_ns"] - s["start_ns"]
    _check(len(root) == requests and all(self_sum[r] == ns for r, ns in root.items()),
           f"{workload}: self times do not add up to the traced latency")


def check_oracle_catches_corruption():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import genspectra.cli
    import oracle
    import run
    import workloads

    reqs, _ = workloads.build("small-pencils", SEED, SMOKE_DIR / "inputs")
    req = next(r for r in reqs if r.expect == "definite" and r.method == "rigorous")
    code, out, err = run._run_one(req.argv, genspectra.cli.main)
    _check(oracle.judge(req, code, out) is None, f"genuine response judged wrong: {out}")

    doc = json.loads(out)
    doc["eigenvalues"][0] *= 1.0 + 1e-6
    bad_value = json.dumps(doc, indent=2) + "\n"
    _check(oracle.judge(req, 0, bad_value) is not None, "a perturbed eigenvalue passed the oracle")
    doc = json.loads(out)
    doc["vectors"][0][0] += 1e-3
    _check(oracle.judge(req, 0, json.dumps(doc)) is not None, "a perturbed vector passed the oracle")
    _check(oracle.judge(req, 2, "") is not None, "a refusal passed the oracle")

    # Through the benchmark loop: the first response is genuine, every later
    # one corrupted; the corrupted ones must count as failed and wrong.
    calls = []

    def corrupting_main(argv):
        calls.append(argv)
        sys.stdout.write(out if len(calls) == 1 else bad_value)
        return 0

    loop = run.Loop([req], corrupting_main)
    loop.run(1)
    loop.run(1)
    _, wrong, failed = run._judge(loop, [req])
    _check(failed == [False, True] and wrong == 1, f"corrupted rerun not counted: {failed}, {wrong}")

    # And the other way round: a corrupted first response fails every repeat.
    def corrupted_main(argv):
        sys.stdout.write(bad_value)
        return 0

    loop = run.Loop([req], corrupted_main)
    loop.run(1)
    loop.run(1)
    _, wrong, failed = run._judge(loop, [req])
    _check(failed == [True, True] and wrong == 2, f"corrupted response not counted: {failed}, {wrong}")


def check_refuses_without_sources():
    bare = SMOKE_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = _bench("small-pencils", 0, cwd=bare)
    shutil.rmtree(bare)
    _check(proc.returncode != 0 and proc.stdout == "",
           f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    from workloads import WORKLOADS

    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
            print(f"smoke: ok: {workload} trace {trace}")
    check_oracle_catches_corruption()
    print("smoke: ok: oracle counts corrupted responses as failed")
    check_refuses_without_sources()
    print("smoke: ok: refuses to run without the package sources")
    shutil.rmtree(SMOKE_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
