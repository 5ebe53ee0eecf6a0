"""Command-line front end.

Exit codes: 0 success, 1 input error, 2 internal invariant failure,
3 solver/oracle disagreement in verify mode.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import jsonio, oracle, plane, sourcesink
from .digraph import Digraph
from .errors import BudgetExceeded, InputError, InvariantError
from .sourcesink import WeightPair


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(obj: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(obj, indent=2, sort_keys=False))
    else:
        print(json.dumps(obj, separators=(",", ":")))


def _require_checks(payload: dict) -> None:
    checks = payload.get("certificate", payload).get("checks", {})
    if not all(checks.values()):
        raise InvariantError(f"certificate failed checks: {checks}")


def _within_weights(args, names) -> tuple:
    chosen = args.within.split(",") if args.within else None
    if chosen is None:
        return (1,) * len(names)
    index = {name: i for i, name in enumerate(names)}
    vec = [0] * len(names)
    for name in chosen:
        name = name.strip()
        if name not in index:
            raise InputError(f"--within references unknown node {name!r}")
        vec[index[name]] = 1
    return tuple(vec)


def cmd_solve_digraph(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    weights = jsonio.weight_pair_from_json(data, names)
    cert = sourcesink.max_source_sink(d, weights)
    payload = jsonio.certificate_to_json(d, names, weights, cert)
    _require_checks(payload)
    _emit(payload, args.pretty)
    return 0


def cmd_sink_stable(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    w = _within_weights(args, names)
    if args.within is None and "w" in data:
        w = jsonio.node_weights_from_json(data["w"], names, 0, "w")
    for x in w:
        if not isinstance(x, int):
            raise InputError("sink-stable weights must be integers")
    result = sourcesink.max_sink_stable(d, w)
    weights = WeightPair.sink_only(w)
    payload = jsonio.sink_stable_to_json(d, names, weights, result)
    _require_checks(payload)
    _emit(payload, args.pretty)
    return 0


def cmd_resonant(args) -> int:
    data = _load(args.input)
    d, names = jsonio.digraph_from_json(data)
    w = _within_weights(args, names)
    if args.within is None and "w" in data:
        w = jsonio.node_weights_from_json(data["w"], names, 0, "w")
    cert = sourcesink.max_resonant(d, w)
    weights = WeightPair(w, w)
    payload = jsonio.certificate_to_json(d, names, weights, cert)
    payload["resonant_set"] = sorted(
        names[v] for v in cert.source_set | cert.sink_set
    )
    _require_checks(payload)
    _emit(payload, args.pretty)
    return 0


def _load_plane(path: str) -> plane.PlaneBipartiteGraph:
    return plane.parse_validate(_load(path))


def cmd_clar(args) -> int:
    g = _load_plane(args.input)
    value, faces, matching = plane.clar_number(g)
    _emit(
        {
            "value": jsonio.render_value(value),
            "clar_set": sorted(g.faces[f].name for f in faces),
            "matching": sorted(
                [g.node_name(g.edges[e][0]), g.node_name(g.edges[e][1])]
                for e in matching
            ),
        },
        args.pretty,
    )
    return 0


def cmd_fries(args) -> int:
    g = _load_plane(args.input)
    value, faces, matching = plane.fries_number(g)
    _emit(
        {
            "value": jsonio.render_value(value),
            "fries_set": sorted(g.faces[f].name for f in faces),
            "matching": sorted(
                [g.node_name(g.edges[e][0]), g.node_name(g.edges[e][1])]
                for e in matching
            ),
        },
        args.pretty,
    )
    return 0


def cmd_clar_fries(args) -> int:
    g = _load_plane(args.input)
    result = plane.solve_clar_fries(g)
    payload = jsonio.clar_fries_to_json(g, result)
    weights = WeightPair(tuple(g.acw_weights), tuple(g.cw_weights))
    face_names = tuple(f.name for f in g.faces)
    payload["certificate"] = jsonio.certificate_to_json(
        result.dual.digraph, face_names, weights, result.certificate
    )
    _require_checks(payload)
    _emit(payload, args.pretty)
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
    g = plane.parse_validate(data)
    result = plane.solve_clar_fries(g)
    brute_value, _m, _cw, _acw = oracle.brute_clar_fries(g, budget=budget)
    return {
        "agree": result.value == brute_value,
        "solver": jsonio.render_value(result.value),
        "oracle": jsonio.render_value(brute_value),
    }


def _random_digraph(rng: random.Random, max_nodes: int, max_arcs: int) -> Digraph:
    n = rng.randint(2, max_nodes)
    arcs = []
    for v in range(1, n):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.randint(0, max_arcs - n + 1)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    return Digraph(n, arcs)


def cmd_verify(args) -> int:
    budget = _budget(args)
    if args.random:
        rng = random.Random(args.seed)
        reports = []
        agree = True
        for _ in range(args.random):
            d = _random_digraph(rng, 6, min(10, budget.max_arcs))
            weights = WeightPair(
                tuple(rng.randint(0, 3) for _ in range(d.node_count)),
                tuple(rng.randint(0, 3) for _ in range(d.node_count)),
            )
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
    args = _shared_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, BudgetExceeded, OSError, json.JSONDecodeError) as exc:
        _emit({"error": str(exc)}, getattr(args, "pretty", False))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantError as exc:
        _emit({"error": str(exc), "kind": "internal"}, getattr(args, "pretty", False))
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
