"""Request-level benchmark for clarfries.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each exists): digraph-large,
digraph-stream, plane-benzenoid.

The run generates its inputs from the seed in this process, then starts one
worker process that sends one request at a time through
``clarfries.cli.main`` and checks every response.  Around the worker it
times fresh interpreters running ``import clarfries.cli`` (setup_s).  It
prints a human-readable report, then as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of separate traced passes with
``--trace 1``.  A traced run ignores ``--seconds``: it runs a fixed prefix
of the request schedule, so its counts repeat exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_inputs
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh-interpreter starts per run, half before the timed loop and half
# after it, so that one slow stretch of a shared machine skews fewer of them.
SETUP_REPEATS = 12
# A run must end within 180 s; keep a margin for set-up and reporting.
WORKER_TIMEOUT_S = 165
P90_MIN_SAMPLES = 100


def time_setup(repeats: int) -> list[float]:
    """Wall times of fresh interpreters running ``import clarfries.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import clarfries.cli"]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def percentile(latencies: list[float], p: float) -> float:
    """Linear-interpolation percentile of sorted latencies, where a failed
    request is ``math.inf`` and so ranks above every success."""
    pos = p * (len(latencies) - 1)
    lo = int(pos)
    frac = pos - lo
    a = latencies[lo]
    if frac == 0:
        return a
    b = latencies[lo + 1]
    return math.inf if math.isinf(b) else a + (b - a) * frac


def end_to_end(records, wall, requests, peak_rss_kb, setup_s) -> dict:
    ok = [r for r in records if r[2] is None]
    latencies = sorted(r[1] if r[2] is None else math.inf for r in records)

    def latency_ms(p):
        # a percentile that lands on a failure reads as the whole run
        value = percentile(latencies, p)
        return 1000 * (wall if math.isinf(value) else value)

    edges = sum(requests[r[0]]["size"] for r in ok)
    return {
        "latency_p50_ms": (latency_ms(0.5), "ms"),
        "latency_p90_ms": (latency_ms(0.9), "ms"),
        "requests_per_s": (len(ok) / wall, "1/s"),
        "edges_per_s": (edges / wall, "1/s"),
        "peak_rss_mb": (peak_rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run_digest(records) -> tuple[str, int]:
    """Digest over the first response of each distinct request, in id
    order, and the number of requests it covers."""
    first = {}
    for rid, _lat, _reason, h, _wrong in records:
        first.setdefault(rid, h)
    joined = "".join(f"{rid}:{first[rid]}\n" for rid in sorted(first))
    return hashlib.sha256(joined.encode()).hexdigest()[:16], len(first)


def report_failures(records, requests) -> list[str]:
    lines = []
    seen = set()
    for rid, _lat, reason, _h, wrong in records:
        if reason is not None and (rid, reason) not in seen:
            seen.add((rid, reason))
            what = "WRONG" if wrong else "failed"
            shape = requests[rid].get("shape", f"{requests[rid]['size']} arcs")
            lines.append(f"  {what}: {requests[rid]['argv'][0]} {shape}: {reason}")
    return lines


def run(args) -> int:
    if not (SRC / "clarfries" / "cli.py").is_file() or not (ROOT / "tests" / "fixtures.py").is_file():
        print(f"error: {ROOT} holds no clarfries sources (src/clarfries, tests/fixtures.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        spec = bench_inputs.build(args.workload, args.seed, args.scale, work)
        (work / "requests.json").write_text(json.dumps(spec), encoding="utf-8")
        setup_times = []
        if not args.trace:
            time_setup(1)  # untimed: compiles the bytecode
            setup_times = time_setup(SETUP_REPEATS // 2)
        cmd = [
            sys.executable, str(HERE / "bench_worker.py"),
            str(work / "requests.json"), str(work / "result.json"),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(OUT / f"spans-{args.workload}.jsonl"),
        ]
        try:
            subprocess.run(cmd, check=True, cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: worker ran longer than {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 2
        except subprocess.CalledProcessError as exc:
            print(f"error: worker exited with code {exc.returncode}", file=sys.stderr)
            return 2
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        if not args.trace:
            setup_times += time_setup(SETUP_REPEATS - len(setup_times))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_s = statistics.median(setup_times) if setup_times else None
    summary = report(args.workload, args.seed, args.trace, spec, result, setup_s)
    print(json.dumps(summary))
    return 0


def report(workload, seed, trace, spec, result, setup_s) -> dict:
    """Print the human-readable report of one worker result and return the
    final JSON object."""
    requests = spec["pool"]
    records = result["records"]
    failed = sum(1 for r in records if r[2] is not None)
    wrong = sum(1 for r in records if r[4])
    problems = result.get("problems", [])
    probe = result.get("probe", [])
    problems += [f"probe request {r[0]}: {r[2]}" for r in probe if r[4]]
    digest, covered = run_digest(records)

    mode = "traced" if trace else "timed"
    print(f"workload {workload} seed {seed} ({mode}, closed loop, 1 client): "
          f"{len(records)} requests in {result['wall']:.2f} s, {failed} failed, {wrong} wrong")
    print(f"  failed_ratio {failed}/{len(records)} = {failed / len(records):.4f}")
    print(f"  digest {digest} over {covered} distinct requests")
    for line in report_failures(records, requests) + [f"  PROBLEM: {p}" for p in problems]:
        print(line)
    for rid, _lat, reason, _h, _wrong in probe:
        outcome = "passed" if reason is None else reason
        print(f"  known-defect probe, run once and not counted: "
              f"{spec['probe'][rid]['argv'][0]} {spec['probe'][rid]['shape']}: {outcome}")

    if trace:
        plain = result["wall"]
        traced = statistics.mean(result["traced_walls"])
        print(f"  tracing overhead: {traced - plain:+.3f} s over {len(records)} requests "
              f"({traced:.3f} s traced vs {plain:.3f} s untraced)")
        for command, counts in sorted(result["by_command"].items()):
            n = counts.pop("requests")
            per = ", ".join(f"{k} {v / n:g}" for k, v in sorted(counts.items()))
            print(f"  per successful {command} request (n={n}): {per}")
        metrics = {name: (value, "s" if name in bench_trace.TIME_METRICS else "count")
                   for name, value in result["layers"].items()}
        metrics["trace.overhead_ratio"] = (traced / plain, "ratio")
    else:
        metrics = end_to_end(records, result["wall"], requests, result["peak_rss_kb"], setup_s)
        if len(records) < P90_MIN_SAMPLES:
            print(f"  note: latency_p90_ms rests on {len(records)} samples, fewer than "
                  f"{P90_MIN_SAMPLES}, so under 10 lie beyond it")
        print(f"  setup_s is the median of {SETUP_REPEATS} fresh interpreters, "
              "half before and half after the loop")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}  (n={len(records)})")

    return {
        "correct": wrong == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Request-level benchmark for clarfries.")
    parser.add_argument("--workload", required=True, choices=bench_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(bench_inputs.SCALES), default="full",
                        help="input sizes; 'tiny' serves the benchmark's smoke test")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
