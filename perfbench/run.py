"""End-to-end benchmark of the genspectra batch CLI.

Runs one workload as a closed loop with a single client: each request calls
``genspectra.cli.main(argv)`` in this process, on CSV files generated from
the seed, and the next request starts when the previous one has returned.
The loop runs a fixed number of whole cycles over the workload's requests,
proportional to ``--seconds`` (workloads.CYCLES_PER_10S), so every run
sees the same request mix and the same number of samples; on a program or
machine much slower than the baseline it starts no new cycle after twice
``--seconds``. ``solves_per_s`` is read from each request's upper-quartile
latency (see ``_cycle_rate``), so that phases in which the machine runs
faster for part of a run do not move it. After
the loop, the oracle (oracle.py) judges the first response to each input
against LAPACK, and every repeated response must be byte-identical to the
first.

With ``--trace 0`` the run reports the end-to-end metrics, untraced.
With ``--trace 1`` each request runs twice in a row, untraced and then with
spans around every layer (tracer.py), and the run reports per-request layer
self times and counts, the tracing overhead and the kernel probe (probe.py).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``correct`` is false when
a response gave a wrong answer or differed from an earlier response to the
same input; ``failed`` counts those and also the requests that exited
nonzero although the input has a solution.

Usage (from the root of the repository):
    python3 perfbench/run.py --workload dense-pencil --seed 1 --seconds 16 --trace 0
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads, so the process,
# and the LAPACK oracle in it, stays single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

# Fresh interpreters timed for setup_s, before and again after the loop so
# that the median spans the machine's slow and fast phases.
SETUP_SAMPLES = (4, 4)
SETUP_CODE = (
    "import time; t = time.perf_counter(); import genspectra.cli; "
    "print(time.perf_counter() - t)"
)
# No new cycle starts after STOP_FACTOR x --seconds of measuring, nor
# after HARD_STOP_S, so a run always ends well within its time limit, even
# on a much slower program.
STOP_FACTOR = 2.0
HARD_STOP_S = 140.0


def _fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description="End-to-end benchmark of the genspectra CLI.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time at the baseline speed; sets the number of cycles")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--limit", type=int, default=None,
                   help="run only the first N requests, once (smoke tests)")
    return p.parse_args(argv)


def _run_one(argv, cli_main):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _time_one(argv, cli_main):
    start = time.perf_counter_ns()
    code, out, err = _run_one(argv, cli_main)
    return code, out, err, time.perf_counter_ns() - start


def _setup_times(samples: int) -> list[float]:
    """Wall time of ``import genspectra.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout))
    return times


def _tail(latencies):
    """Highest whole percentile with at least 10 samples beyond it (nearest rank).

    Returns (value, percentile, samples beyond); with 10 or fewer samples
    no such percentile exists and the maximum is returned as percentile 100.
    """
    s = sorted(latencies)
    n = len(s)
    if n <= 10:
        return s[-1], 100, 0
    q = 100 * (n - 10) // n
    rank = -(-q * n // 100)
    return s[rank - 1], q, n - rank


def _warm_up(reqs, cli_main):
    """Run the smallest request of each (command, method, case) once, untimed."""
    smallest = {}
    for r in reqs:
        size = sum(os.path.getsize(a) for a in r.argv if os.path.isfile(a))
        key = (r.kind, r.method, r.expect)
        if key not in smallest or size < smallest[key][0]:
            smallest[key] = (size, r)
    for _, r in smallest.values():
        _run_one(r.argv, cli_main)


class Loop:
    """Closed loop over whole cycles of the requests; keeps every response."""

    def __init__(self, reqs, cli_main, tracer=None):
        self.reqs = reqs
        self.ran = reqs  # the requests of one cycle, as run
        self.cli_main = cli_main
        self.tracer = tracer
        self.first = {}  # rid -> (code, out, err) of the first response
        self.samples = []  # (rid, traced, ns, same bytes as first)
        self.cycles = 0
        self.wall_s = 0.0

    def _record(self, r, traced, code, out, err, ns):
        first = self.first.setdefault(r.rid, (code, out, err))
        self.samples.append((r.rid, traced, ns, (code, out) == first[:2]))

    def _traced(self, r, seq):
        self.tracer.install()
        try:
            (code, out, err), ns = self.tracer.call(f"{seq}/{r.rid}", _run_one, r.argv, self.cli_main)
        finally:
            self.tracer.uninstall()
        return code, out, err, ns

    def run(self, cycles: int, limit=None, stop_s=HARD_STOP_S):
        reqs = self.reqs[:limit] if limit else self.reqs
        self.ran = reqs
        start = time.perf_counter()
        for _ in range(cycles):
            if self.cycles and time.perf_counter() - start > stop_s:
                break
            for r in reqs:
                self._record(r, False, *_time_one(r.argv, self.cli_main))
                if self.tracer is not None:
                    self._record(r, True, *self._traced(r, len(self.samples)))
            self.cycles += 1
        self.wall_s = time.perf_counter() - start


def _upper_quartile(values):
    return values[0] if len(values) == 1 else statistics.quantiles(values, n=4, method="inclusive")[2]


def _cycle_rate(loop, failed) -> float:
    """Correct responses per second of a cycle at each request's upper-quartile latency.

    Each request of a cycle takes the upper quartile of its untraced
    latencies over the run and counts as solved in the share of its
    executions that did not fail; the rate is solved requests per cycle
    over the seconds such a cycle takes. The machine this was written on
    runs in a slow state most of the time, with fast phases of seconds to
    minutes: a mean over the run moves with the share of the run they
    cover, and a median does so once they cover half of it, while the
    upper quartile stays in the slow state until they cover three
    quarters.
    """
    times, good = {}, {}
    for (rid, traced, ns, _), bad in zip(loop.samples, failed):
        if not traced:
            times.setdefault(rid, []).append(ns)
            good.setdefault(rid, []).append(not bad)
    cycle_s = sum(_upper_quartile(times[r.rid]) for r in loop.ran) / 1e9
    solved = sum(sum(good[r.rid]) / len(good[r.rid]) for r in loop.ran)
    return solved / cycle_s


def _judge(loop, reqs):
    """Oracle verdicts on first responses; returns (verdicts, wrong, failed flags)."""
    import oracle  # scipy loads here, after the loop and the peak-RSS reading

    by_id = {r.rid: r for r in reqs}
    verdicts = {rid: oracle.judge(by_id[rid], code, out, err) for rid, (code, out, err) in loop.first.items()}
    failed = []
    wrong = 0
    for rid, _, _, same in loop.samples:
        bad = verdicts[rid] is not None or not same
        # A refusal (nonzero exit) fails the request; any other failure is a wrong answer.
        refused = same and loop.first[rid][0] != 0
        wrong += bad and not refused
        failed.append(bad)
    return verdicts, wrong, failed


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "genspectra").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "genspectra" / "cli.py").is_file():
        _fail(f"no genspectra sources under {SRC.name}/ next to {Path(__file__).parent.name}/; "
              "run from the root of a checkout of the repository")
    # Run on one fixed CPU: migrations between vCPUs whose speeds differ
    # (15% on the VM this was written on) would otherwise show as noise.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))
    import numpy as np
    import genspectra.cli
    from genspectra import kernels

    import probe
    import tracer as tracing
    import workloads

    declared = _declared_metrics(args.trace)
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    reqs, sha256 = workloads.build(args.workload, args.seed, workdir / "inputs")
    cli_main = genspectra.cli.main

    setup = _setup_times(SETUP_SAMPLES[0]) if args.trace == 0 else []
    _warm_up(reqs, cli_main)
    tracer = tracing.Tracer() if args.trace else None
    cycles = max(1, round(args.seconds / 10.0 * workloads.CYCLES_PER_10S[args.workload]))
    if args.trace:
        cycles = max(1, cycles // 2)  # each request runs twice, untraced and traced
    if args.limit:
        cycles = 1
    loop = Loop(reqs, cli_main, tracer)
    loop.run(cycles, args.limit, stop_s=min(STOP_FACTOR * args.seconds, HARD_STOP_S))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        setup += _setup_times(SETUP_SAMPLES[1])

    verdicts, wrong, failed = _judge(loop, reqs)
    attempted = len(loop.samples)
    n_failed = sum(failed)
    lat_ms = [ns / 1e6 for _, traced, ns, _ in loop.samples if not traced]
    tail_ms, tail_q, tail_beyond = _tail(lat_ms)
    notes = {
        "failed_fraction": n_failed / attempted,
        "latency_tail": f"p{tail_q} of {len(lat_ms)} samples, {tail_beyond} beyond it",
        "requests_per_cycle": len(reqs),
        "cycles": loop.cycles,
        "measured_s": loop.wall_s,
        "setup_samples_s": setup,
    }

    if args.trace == 0:
        metrics = {
            "solves_per_s": _cycle_rate(loop, failed),
            "latency_p50_ms": statistics.median(lat_ms),
            "latency_tail_ms": tail_ms,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        metrics, n_traced = tracing.summarize(tracer.spans)
        traced_ns = sum(ns for _, traced, ns, _ in loop.samples if traced)
        untraced_ns = sum(ns for _, traced, ns, _ in loop.samples if not traced)
        metrics["trace.overhead"] = untraced_ns / traced_ns
        metrics.update(probe.run(args.seed))
        notes["traced_requests"] = n_traced
        notes["bindings"] = tracer.bindings()
        tracer.write(workdir / "spans.jsonl")

    missing = sorted(set(declared) - set(metrics))
    if missing:
        _fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.BACKEND,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "inputs_sha256": sha256,
    }
    failures = {rid: v for rid, v in sorted(verdicts.items()) if v is not None}
    record = {"meta": meta, "notes": notes, "failures": failures,
              "attempted": attempted, "failed": n_failed, "wrong": wrong,
              "metrics": metrics,
              "samples": [{"request": rid, "traced": traced, "ms": ns / 1e6, "failed": bad}
                          for (rid, traced, ns, _), bad in zip(loop.samples, failed)]}
    (workdir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(workdir / "inputs", ignore_errors=True)

    print(f"# workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"backend {meta['backend']}  commit {meta['commit']}  src {meta['src_sha256'][:16]}")
    print(f"# {len(reqs)} requests per cycle, {loop.cycles} cycle(s) in {loop.wall_s:.2f} s; "
          f"python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}; "
          f"record in {workdir.relative_to(ROOT)}/record.json")
    for rid, verdict in failures.items():
        print(f"# failed: {rid}: {verdict}")
    # Printed and recorded, but not bounded: failed_fraction is 0 on most
    # workloads, and the median moves with the share of a run the machine
    # spends in its slow phases (see README.md).
    print(f"{'failed_fraction':<34} {notes['failed_fraction']:.4f}  ({n_failed} of {attempted}; not bounded)")
    if args.trace == 0:
        print(f"{'latency_p50_ms':<34} {metrics['latency_p50_ms']:.6g} ms  (not bounded)")
    for name in declared:
        extra = f"  ({notes['latency_tail']})" if name == "latency_tail_ms" else ""
        print(f"{name:<34} {metrics[name]:.6g} {declared[name]}{extra}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
