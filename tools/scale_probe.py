"""Time and memory of one solve at criterion 12's shape and any size.

Usage, from the repository root:

    python3 tools/scale_probe.py N [--seed S] [--acyclic]

builds ``clarfries.oracle.sparse_instance`` with N nodes and 5N arcs
(criterion 12 is N = 10000, seed 12), or with ``--acyclic`` the same
instance with its arcs oriented along one random node order
(``clarfries.oracle.acyclic_instance``), and runs ``max_source_sink`` on it
twice: untraced, for the seconds, then under ``tracemalloc``, for the
peak of Python allocations during the solve.  The doubled graph is
cached on the digraph by the first solve, so that peak leaves it out;
the memory the instance holds, its doubled graph included, is measured
on a second build of it under ``tracemalloc``.  It prints the seconds,
the value, the instance's memory, the solve's peak and the process's
``ru_maxrss`` after the untraced solve, which includes the instance and
the interpreter.  The tests do not run it: at N = 100000 the untraced
solve alone takes 18-27 s on 2 shared cores, as their load varies, and
a solve under ``tracemalloc`` takes about four times as long as one
without.
"""

from __future__ import annotations

import argparse
import resource
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clarfries import bidirect, max_source_sink  # noqa: E402
from clarfries.oracle import acyclic_instance, sparse_instance  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nodes", type=int, help="node count N; the digraph has 5N arcs")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument(
        "--acyclic", action="store_true", help="orient every arc along one random node order"
    )
    args = parser.parse_args()
    if args.nodes < 2:
        parser.error("N must be at least 2")

    build = acyclic_instance if args.acyclic else sparse_instance
    d, w = build(args.nodes, 5 * args.nodes, args.seed)
    started = time.perf_counter()
    cert = max_source_sink(d, w)
    seconds = time.perf_counter() - started
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    copy = build(args.nodes, 5 * args.nodes, args.seed)
    bidirect(copy[0])
    instance, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del copy
    tracemalloc.start()
    max_source_sink(d, w)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    shape = "  acyclic" if args.acyclic else ""
    print(f"nodes {args.nodes}  arcs {d.arc_count}  seed {args.seed}{shape}")
    print(f"seconds          {seconds:.2f}")
    print(f"value            {cert.value}")
    print(f"instance_mb      {instance / 2**20:.1f}")
    print(f"tracemalloc_mb   {peak / 2**20:.1f}")
    print(f"ru_maxrss_mb     {maxrss_mb:.1f}")


if __name__ == "__main__":
    main()
