"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 internal invariant failure,
3 solver/oracle disagreement in verify mode.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import random
import sys

from . import jsonio, oracle, plane, sourcesink
from .errors import BudgetExceeded, InputError, InvariantError


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(str(exc)) from exc
        except (ValueError, RecursionError) as exc:
            # ValueError: undecodable bytes, or an integer literal over the
            # interpreter's int-string digit limit
            raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def _emit(obj: dict, pretty: bool) -> None:
    try:
        if pretty:
            text = json.dumps(obj, indent=2, sort_keys=False)
        else:
            text = json.dumps(obj, separators=(",", ":"))
    except ValueError as exc:
        # the interpreter's int-string digit limit, as in _load
        raise InputError(jsonio.ANSWER_TOO_LONG) from exc
    print(text)


def _within_weights(args, data, names) -> tuple:
    """Node weights of a sink-stable or resonant request: 1 inside
    ``--within`` and 0 outside, else the input's ``"w"`` map, else all 1.

    An empty ``--within`` names no pool and is an input error."""
    if args.within is None:
        if "w" in data:
            return jsonio.node_weights_from_json(data["w"], names, 0, "w")
        return (1,) * len(names)
    if not args.within.strip():
        raise InputError("--within needs at least one node name")
    pool = {name.strip(): 1 for name in args.within.split(",")}
    return jsonio.node_weights_from_json(pool, names, 0, "--within")


def cmd_solve_digraph(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    weights = jsonio.weight_pair_from_json(data, names)
    cert = sourcesink.max_source_sink(d, weights)
    _emit(jsonio.certificate_to_json(names, cert), args.pretty)
    return 0


def cmd_sink_stable(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    result = sourcesink.max_sink_stable(d, _within_weights(args, data, names))
    _emit(jsonio.sink_stable_to_json(names, result), args.pretty)
    return 0


def cmd_resonant(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    cert = sourcesink.max_resonant(d, _within_weights(args, data, names))
    payload = jsonio.certificate_to_json(names, cert)
    payload["resonant_set"] = sorted(
        names[v] for v in cert.source_set | cert.sink_set
    )
    _emit(payload, args.pretty)
    return 0


def _load_plane(path: str) -> plane.PlaneBipartiteGraph:
    return plane.parse_validate(_load(path))


def _face_number(args, solve, key: str) -> int:
    g = _load_plane(args.input)
    value, faces, matching = solve(g)
    _emit(
        {
            "value": jsonio.render_value(value),
            key: sorted(g.face_names[f] for f in faces),
            "matching": jsonio.matching_to_json(g, matching),
        },
        args.pretty,
    )
    return 0


def cmd_clar(args) -> int:
    return _face_number(args, plane.clar_number, "clar_set")


def cmd_fries(args) -> int:
    return _face_number(args, plane.fries_number, "fries_set")


def cmd_clar_fries(args) -> int:
    g = _load_plane(args.input)
    _emit(jsonio.clar_fries_to_json(g, plane.solve_clar_fries(g)), args.pretty)
    return 0


def _budget(args) -> oracle.OracleBudget:
    return oracle.OracleBudget(
        max_arcs=args.budget_arcs, max_matchings=args.budget_matchings
    )


def _verify_digraph(data, budget) -> dict:
    d, names = jsonio.digraph_from_json(data)
    weights = jsonio.weight_pair_from_json(data, names, default=1)
    cert = sourcesink.max_source_sink(d, weights)
    brute_value, _pair = oracle.brute_max_source_sink(d, weights, budget)
    return {
        "agree": cert.value == brute_value,
        "solver": jsonio.render_value(cert.value),
        "oracle": jsonio.render_value(brute_value),
    }


def _verify_plane(data, budget) -> dict:
    """Solver against oracle on the file's face weights or, when its
    ``w1`` and ``w2`` maps name no face, on the Fries weights (1 on every
    inner face in both senses), which reach both sides of the dual."""
    g = plane.parse_validate(data)
    cw = acw = None
    if not data.get("w1") and not data.get("w2"):
        cw = acw = tuple(int(f != g.outer) for f in range(len(g.face_names)))
    result = plane.solve_clar_fries(g, cw, acw)
    brute_value, _m, _cw, _acw = oracle.brute_clar_fries(g, cw, acw, budget=budget)
    return {
        "agree": result.value == brute_value,
        "solver": jsonio.render_value(result.value),
        "oracle": jsonio.render_value(brute_value),
    }


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.random < 0:
        raise InputError("--random COUNT must be nonnegative")
    if args.random:
        if budget.max_arcs < 1:
            raise InputError("--budget-arcs must be at least 1 with --random")
        rng = random.Random(args.seed)
        reports = []
        agree = True
        for _ in range(args.random):
            d = oracle.random_digraph(rng, 6, min(10, budget.max_arcs))
            weights = oracle.random_weight_pair(rng, d.node_count)
            cert = sourcesink.max_source_sink(d, weights)
            brute_value, _pair = oracle.brute_max_source_sink(d, weights, budget)
            if cert.value != brute_value:
                agree = False
                reports.append(
                    {"solver": cert.value, "oracle": brute_value, "arcs": list(d.arcs)}
                )
        payload = {"agree": agree, "instances": args.random, "seed": args.seed}
        if reports:
            payload["disagreements"] = reports
        _emit(payload, args.pretty)
        return 0 if agree else 3
    if not args.input:
        raise InputError("verify needs an input file or --random COUNT")
    data = _load(args.input)
    if isinstance(data, dict) and "S" in data and "T" in data:
        payload = _verify_plane(data, budget)
    else:
        payload = _verify_digraph(data, budget)
    _emit(payload, args.pretty)
    return 0 if payload["agree"] else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clarfries",
        description="Max-weight source-sink pairs in digraphs; Clar and Fries "
        "numbers of plane bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs_input=True):
        p = sub.add_parser(name)
        if needs_input:
            p.add_argument("input", help="path to a JSON instance")
        p.add_argument("--pretty", action="store_true", help="indent the output")
        p.set_defaults(fn=fn)
        return p

    add("solve-digraph", cmd_solve_digraph)
    p = add("sink-stable", cmd_sink_stable)
    p.add_argument("--within", help="comma-separated node names; weight 1 inside, 0 outside")
    p = add("resonant", cmd_resonant)
    p.add_argument("--within", help="comma-separated node names; weight 1 inside, 0 outside")
    add("clar", cmd_clar)
    add("fries", cmd_fries)
    add("clar-fries", cmd_clar_fries)
    p = sub.add_parser("verify")
    p.add_argument("input", nargs="?", help="path to a JSON instance")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="verify COUNT random small digraphs instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-arcs", type=int, default=14)
    p.add_argument("--budget-matchings", type=int, default=100_000)
    p.set_defaults(fn=cmd_verify)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on the
    first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with the cyclic garbage collector paused: a request
    builds many short-lived containers but no reference cycles, so
    reference counting frees all of it and the collector's passes over
    those containers are wasted work (a test checks that a request leaves
    no cyclic garbage).  The caller's collector setting is restored on
    every exit, an uncaught exception included.

    Bad input, a budget exceeded, an unreadable file and running out of
    memory exit 1 with one ``{"error": ...}`` object on stdout.
    """
    args = _shared_parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    except (InputError, BudgetExceeded, OSError) as exc:
        _emit({"error": str(exc)}, getattr(args, "pretty", False))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # an input too large for this machine is bad input too; the
        # exception's own text is empty
        _emit({"error": "out of memory"}, getattr(args, "pretty", False))
        print("error: out of memory", file=sys.stderr)
        return 1
    except InvariantError as exc:
        _emit({"error": str(exc), "kind": "internal"}, getattr(args, "pretty", False))
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
