"""Seeded request generation for the three workloads.

Every instance is written as a JSON file before the timed loop starts, so
the program under test only ever receives files.  A request is a dict:

``argv``      the ``clarfries`` command line, input path included
``kind``      which response check applies (see ``bench_worker.check``)
``size``      input arcs (digraph) or edges (plane graph), for edges_per_s
``expect``    closed-form value for ``clar``/``fries``, else absent
``nodes``     node count of a plane graph, for the perfect-matching check

The same ``(workload, seed, scale)`` always yields byte-identical files.
Sizes that vary between requests are drawn by stratified sampling, one
per equal slice of their range, so every seed covers the whole range and
run medians stay comparable across seeds.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("digraph-large", "digraph-stream", "plane-benzenoid")

# Per scale: instance sizes and pool lengths.  "tiny" only serves the
# benchmark's own smoke test.
SCALES = {
    "full": {
        "large_nodes": 3000,
        "large_arcs": 15000,
        "large_pool": 8,
        "large_trace": 2,
        "stream_instances": 60,
        "stream_nodes": (30, 60),
        "parallelogram_sides": (2, 6, 12, 19, 26),
        "acenes": 8,
        "acene_max": 12,
        "acene_fixed": 300,
        "acene_crash": 1500,
    },
    "tiny": {
        "large_nodes": 60,
        "large_arcs": 300,
        "large_pool": 2,
        "large_trace": 2,
        "stream_instances": 6,
        "stream_nodes": (6, 12),
        "parallelogram_sides": (1, 3),
        "acenes": 2,
        "acene_max": 4,
        "acene_fixed": 8,
        "acene_crash": 1500,
    },
}


def load_benzenoid():
    """``benzenoid`` from the test fixtures, imported rather than copied."""
    spec = importlib.util.spec_from_file_location(
        "clarfries_test_fixtures", ROOT / "tests" / "fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.benzenoid


def stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in ``[lo, hi]``, one from each of ``count`` equal
    slices, in shuffled order."""
    span = hi - lo + 1
    out = []
    for i in range(count):
        a = lo + span * i // count
        b = lo + span * (i + 1) // count - 1
        out.append(rng.randint(a, max(a, b)))
    rng.shuffle(out)
    return out


def jittered(rng: random.Random, side: int) -> int:
    """``side`` moved by up to a tenth either way."""
    return rng.randint(side - side // 10, side + side // 10)


def random_arcs(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """Criterion 12's shape: a random spanning tree, then uniform extra arcs
    until there are ``m``; weakly connected by construction."""
    order = list(range(n))
    rng.shuffle(order)
    arcs = []
    for i in range(1, n):
        prev = order[rng.randrange(i)]
        arcs.append((prev, order[i]) if rng.random() < 0.5 else (order[i], prev))
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    return arcs


def fraction_weight(rng: random.Random, top: int):
    den = rng.choice((2, 3, 4))
    return f"{rng.randint(0, top * den)}/{den}"


def node_weights(rng: random.Random, names, top: int, fractional: bool) -> dict:
    if fractional:
        return {x: fraction_weight(rng, top) for x in names}
    return {x: rng.randint(0, top) for x in names}


class Writer:
    """Writes numbered instance files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.count = 0

    def write(self, data: dict) -> str:
        path = self.directory / f"in{self.count:04d}.json"
        self.count += 1
        path.write_text(json.dumps(data, separators=(",", ":")), encoding="utf-8")
        return str(path)


def digraph_request(writer, rng, command, n, m, fractional) -> dict:
    names = [f"v{i}" for i in range(n)]
    arcs = random_arcs(rng, n, m)
    data = {"nodes": names, "arcs": [[names[u], names[v]] for u, v in arcs]}
    if command == "solve-digraph":
        data["w_o"] = node_weights(rng, names, 10, fractional)
        data["w_i"] = node_weights(rng, names, 10, fractional)
    else:
        data["w"] = node_weights(rng, names, 10 if command == "resonant" else 3, fractional)
    return {
        "argv": [command, writer.write(data)],
        "kind": command,
        "size": len(arcs),
    }


def parallelogram(n: int, m: int) -> list[tuple[int, int]]:
    return [(q, r) for q in range(n) for r in range(m)]


def plane_requests(writer, rng, benzenoid, n, m, fractional) -> list[dict]:
    """``clar``, ``fries`` and weighted ``clar-fries`` on the n x m hexagon
    parallelogram (an acene when n == 1).

    Closed forms, checked on every response: Clar = min(n, m) and
    Fries = 2 min(n, m), less one when n == m.
    """
    data = benzenoid(parallelogram(n, m))
    size = len(data["edges"])
    nodes = len(data["S"]) + len(data["T"])
    path = writer.write(data)
    k = min(n, m)
    inner = [f["id"] for f in data["faces"] if f["id"] != data["outer"]]
    top = 5
    weighted = dict(data)
    weighted["w1"] = node_weights(rng, inner, top, fractional)
    weighted["w2"] = node_weights(rng, inner, top, fractional)
    base = {"size": size, "nodes": nodes, "shape": f"{n}x{m}"}
    return [
        {"argv": ["clar", path], "kind": "clar", "expect": k, **base},
        {"argv": ["fries", path], "kind": "fries", "expect": 2 * k - (n == m), **base},
        {"argv": ["clar-fries", writer.write(weighted)], "kind": "clar-fries", **base},
    ]


def build(workload: str, seed: int, scale: str, directory: Path) -> dict:
    """Generate every input of one run.

    Returns ``{"warmup": [...], "probe": [...], "pool": [...],
    "trace_requests": K}``.  The timed loop cycles through ``pool``; the
    traced run takes its first K requests.  ``probe`` requests run once,
    outside the loop, and are reported but not counted.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = SCALES[scale]
    rng = random.Random(f"{workload}/{seed}")
    writer = Writer(directory)
    probe: list[dict] = []

    if workload == "digraph-large":
        warmup = [digraph_request(writer, rng, "solve-digraph", 40, 160, False)]
        pool = [
            digraph_request(writer, rng, "solve-digraph", p["large_nodes"], p["large_arcs"], False)
            for _ in range(p["large_pool"])
        ]
        trace_requests = p["large_trace"]

    elif workload == "digraph-stream":
        commands = ("solve-digraph", "resonant", "sink-stable")
        warmup = [digraph_request(writer, rng, c, 8, 24, False) for c in commands]
        lo, hi = p["stream_nodes"]
        sizes = stratified(rng, p["stream_instances"], lo, hi)
        pool = []
        for i, n in enumerate(sizes):
            command = commands[i % 3]
            # sink-stable needs integer weights; the others alternate
            fractional = command != "sink-stable" and (i // 3) % 2 == 1
            pool.append(digraph_request(writer, rng, command, n, 4 * n, fractional))
        rng.shuffle(pool)
        trace_requests = len(pool)

    else:
        benzenoid = load_benzenoid()
        warmup = plane_requests(writer, rng, benzenoid, 1, 2, False)
        pool = []
        # One parallelogram near each point of a fixed grid of side lengths,
        # so every seed has the same spread of small, large and elongated
        # shapes.  Freely drawn sides moved the latency median by 2x and
        # the throughput by 1.5x from seed to seed, since request cost grows
        # with the area.
        sides = p["parallelogram_sides"]
        for i, a in enumerate(sides):
            for j, b in enumerate(sides):
                n, m = jittered(rng, a), jittered(rng, b)
                pool += plane_requests(writer, rng, benzenoid, n, m, (i + j) % 2 == 1)
        for i, length in enumerate(stratified(rng, p["acenes"], 2, p["acene_max"])):
            pool += plane_requests(writer, rng, benzenoid, 1, length, i % 2 == 1)
        pool += plane_requests(writer, rng, benzenoid, 1, p["acene_fixed"], True)
        rng.shuffle(pool)
        # The long acene overflows the recursive matching search today
        # (ROADMAP item 4).  It runs once per run as a probe, outside the
        # loop and its counts, and the report says how it ended.
        crash = benzenoid(parallelogram(1, p["acene_crash"]))
        probe = [{
            "argv": ["clar", writer.write(crash)],
            "kind": "clar",
            "expect": 1,
            "size": len(crash["edges"]),
            "nodes": len(crash["S"]) + len(crash["T"]),
            "shape": f"1x{p['acene_crash']}",
        }]
        trace_requests = len(pool)

    return {
        "warmup": warmup,
        "probe": probe,
        "pool": pool,
        "trace_requests": trace_requests,
    }
