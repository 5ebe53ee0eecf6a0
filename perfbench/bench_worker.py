"""Closed-loop request runner: one process, one request in flight.

Usage: python3 perfbench/bench_worker.py REQUESTS RESULT --seconds S --trace 0|1
       [--spans PATH]

REQUESTS is the file ``run.py`` wrote from ``bench_inputs.build``.  Each
request goes through the real entry point, ``clarfries.cli.main``, in this
process with stdout captured; the response is checked after its latency is
taken.  A failed request (exception, non-zero exit or failed check) is
recorded and the loop goes on.  RESULT receives the raw records as JSON.

With ``--trace 0`` the loop runs the pool over and over for S seconds.
With ``--trace 1`` it instead runs the first K requests of that schedule
four times: plain, traced, plain, traced.  That gives the per-layer
numbers, the tracing overhead and a check that every count repeats
exactly.  Probe requests (a known failure case) run once before either
loop; their outcome is recorded apart from the loop's records.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import resource
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from clarfries import cli  # noqa: E402

import bench_trace  # noqa: E402


def call_cli(argv: list[str]):
    """Run one request; returns ``(exit code, stdout, error)`` where
    ``error`` names an uncaught exception, else None."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        return exc.code, out.getvalue(), None
    except Exception as exc:  # counted as a failed request, never fatal
        return None, out.getvalue(), type(exc).__name__
    return code, out.getvalue(), None


def certificate_problem(cert: dict) -> str | None:
    checks = cert["checks"]
    if not checks or not all(checks.values()):
        return f"certificate checks failed: {sorted(k for k, ok in checks.items() if not ok)}"
    if Fraction(cert["value"]) != Fraction(cert["cover_cost"]):
        return "value != cover_cost"
    return None


def matching_problem(request: dict, matching: list) -> str | None:
    ends = [name for pair in matching for name in pair]
    if len(ends) != request["nodes"] or len(set(ends)) != len(ends):
        return "matching is not perfect"
    return None


def check(request: dict, code, stdout: str, error) -> str | None:
    """None when the response passes, else why it fails."""
    if error is not None:
        return f"raised {error}"
    if code != 0:
        return f"exit code {code}"
    try:
        payload = json.loads(stdout)
        kind = request["kind"]
        if kind in ("solve-digraph", "resonant"):
            return certificate_problem(payload)
        if kind == "sink-stable":
            cert = payload["certificate"]
            value = Fraction(payload["value"])
            if value != Fraction(cert["value"]):
                return "value differs from the certificate's"
            carried = sum(c["multiplicity"] * c["original_arcs"] for c in payload["circuits"])
            if carried != value:
                return "circuit family does not add up to the value"
            return certificate_problem(cert)
        if kind == "clar-fries":
            if Fraction(payload["value"]) != Fraction(payload["certificate"]["value"]):
                return "value differs from the certificate's"
            return (certificate_problem(payload["certificate"])
                    or matching_problem(request, payload["matching"]))
        faces = payload["clar_set" if kind == "clar" else "fries_set"]
        if payload["value"] != request["expect"]:
            return f"{kind} {payload['value']} != closed form {request['expect']}"
        if len(faces) != request["expect"]:
            return f"{kind} face set has {len(faces)} faces"
        return matching_problem(request, payload["matching"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed response ({type(exc).__name__}: {exc})"


def digest(code, stdout: str, error) -> str:
    return hashlib.sha256(f"{code}|{error}|{stdout}".encode()).hexdigest()


def schedule(n_pool: int):
    """Request ids in run order: the pool cyclically."""
    return itertools.cycle(range(n_pool))


class Loop:
    """Runs requests and keeps one record per request:
    ``[id, latency_s, reason, digest, wrong]``.  ``reason`` is None for a
    pass; ``wrong`` marks a response that exited 0 yet failed its check.  A
    repeat whose output differs from the first run is a failure."""

    def __init__(self, requests: list[dict], tracer=None):
        self.requests = requests
        self.tracer = tracer
        self.first: dict[int, str] = {}
        self.records: list[list] = []

    def one(self, rid: int) -> None:
        request = self.requests[rid]
        if self.tracer is not None:
            self.tracer.request = len(self.records)
        start = time.perf_counter()
        code, stdout, error = call_cli(request["argv"])
        latency = time.perf_counter() - start
        reason = check(request, code, stdout, error)
        h = digest(code, stdout, error)
        if self.first.setdefault(rid, h) != h and reason is None:
            reason = "output differs from an earlier run of the same request"
        wrong = reason is not None and error is None and code == 0
        self.records.append([rid, latency, reason, h, wrong])


def timed(requests, seconds):
    loop = Loop(requests)
    clock = time.perf_counter
    start = clock()
    for rid in schedule(len(requests)):
        if clock() - start >= seconds:
            break
        loop.one(rid)
    return loop.records, clock() - start


def fixed(requests, ids, tracer=None):
    loop = Loop(requests, tracer)
    start = time.perf_counter()
    for rid in ids:
        loop.one(rid)
    return loop.records, time.perf_counter() - start


def traced(requests, k, spans_path):
    """Plain pass (its records are the run's), then traced, plain, traced.
    The second plain pass sits between the traced ones, so a drift in
    machine speed cancels out of the tracing overhead."""
    ids = list(itertools.islice(schedule(len(requests)), k))
    plain, _ = fixed(requests, ids)
    modules = {name: m for name, m in sys.modules.items() if name.partition(".")[0] == "clarfries"}

    def traced_pass():
        tracer = bench_trace.Tracer()
        tracer.install(modules)
        try:
            records, wall = fixed(requests, ids, tracer)
        finally:
            tracer.uninstall()
        return tracer, records, wall

    t1, r1, w1 = traced_pass()
    p2, plain_wall = fixed(requests, ids)
    t2, r2, w2 = traced_pass()
    t1.write(spans_path)

    problems = []
    if t1.request_counts() != t2.request_counts():
        problems.append("counts differ between the two traced passes")
    if any([r[3] for r in rs] != [r[3] for r in plain] for rs in (r1, p2, r2)):
        problems.append("outputs differ between the passes")

    totals: dict[str, int] = defaultdict(int)
    by_command: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    per_command_requests: dict[str, int] = defaultdict(int)
    for position, counts in t1.request_counts().items():
        command = requests[ids[position]]["argv"][0]
        succeeded = r1[position][2] is None
        for key, value in counts.items():
            totals[key] += value
            if succeeded:
                by_command[command][key] += value
        if succeeded:
            per_command_requests[command] += 1

    self_times = defaultdict(float)
    for tracer in (t1, t2):
        for name, seconds in tracer.self_times().items():
            self_times[name] += seconds / 2
    return {
        "records": plain,
        "wall": plain_wall,
        "traced_walls": [w1, w2],
        "layers": bench_trace.layer_metrics(self_times, totals, len(ids)),
        "by_command": {c: {"requests": per_command_requests[c], **counts}
                       for c, counts in by_command.items()},
        "problems": problems
        + [f"traced request {r[0]}: {r[2]}" for r in r1 + r2 if r[4]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("requests")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    spec = json.loads(Path(args.requests).read_text(encoding="utf-8"))
    requests = spec["pool"]
    for request in spec["warmup"]:
        call_cli(request["argv"])
    probe, _ = fixed(spec["probe"], range(len(spec["probe"])))

    if args.trace:
        result = traced(requests, spec["trace_requests"], args.spans)
    else:
        records, wall = timed(requests, args.seconds)
        result = {"records": records, "wall": wall}
    result["probe"] = probe
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
