"""Command-line front end.

Each command has a decode step and a ``cmd_*`` function.  The decode step
maps the file's JSON and the parsed arguments to what the command reads:
for a digraph command the digraph, its node names and its weights, for a
plane command the validated graph, and for ``verify`` the JSON as read.
So the JSON, the largest object of most requests, is freed before the
solve.  The decode steps call the ``jsonio`` and ``plane`` readers through
their modules, so a wrapper installed on one at run time sees the call.
The ``cmd_*`` function maps that and the arguments to the JSON
payload it answers with.  :func:`main` alone loads and decodes the file,
runs the command, writes the payload and picks the exit code: 0 success,
1 input error, 2 internal invariant failure, 3 solver/oracle disagreement
in verify mode.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import random
import sys

from . import jsonio, oracle, plane, sourcesink
from .errors import BudgetExceeded, InputError, InvariantError, brief


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


def _dumps(obj: dict, pretty: bool) -> str:
    try:
        if pretty:
            return json.dumps(obj, indent=2, sort_keys=False)
        return json.dumps(obj, separators=(",", ":"))
    except ValueError as exc:
        # the interpreter's int-string digit limit, as in _load
        raise InputError(jsonio.ANSWER_TOO_LONG) from exc


def _as_read(data, args):
    """The decoding of ``verify``: the JSON as read, or ``None`` when
    ``verify`` names no file."""
    return data


def _plane_graph(data, args) -> plane.PlaneBipartiteGraph:
    """The decoding of the plane commands: the validated graph."""
    return plane.parse_validate(data)


def _digraph_pair(data, args) -> tuple:
    """The decoding of ``solve-digraph``: the digraph, its node names and
    the weight pair of the input's ``"w_o"`` and ``"w_i"`` maps."""
    d, names, index = jsonio.digraph_from_json(data)
    return d, names, jsonio.weight_pair_from_json(data, index)


def _digraph_within(data, args) -> tuple:
    """The decoding of ``sink-stable`` and ``resonant``: the digraph, its
    node names and one weight per node, 1 inside ``--within`` and 0
    outside, else the input's ``"w"`` map, else all 1.

    An empty ``--within`` names no pool and is an input error."""
    d, names, index = jsonio.digraph_from_json(data)
    if args.within is None:
        if "w" in data:
            return d, names, jsonio.node_weights_from_json(data["w"], index, 0, "w")
        return d, names, (1,) * len(index)
    if not args.within.strip():
        raise InputError("--within needs at least one node name")
    pool = {name.strip(): 1 for name in args.within.split(",")}
    return d, names, jsonio.node_weights_from_json(pool, index, 0, "--within")


def cmd_solve_digraph(request, args) -> dict:
    d, names, weights = request
    return jsonio.certificate_to_json(names, sourcesink.max_source_sink(d, weights))


def cmd_sink_stable(request, args) -> dict:
    d, names, weights = request
    return jsonio.sink_stable_to_json(names, sourcesink.max_sink_stable(d, weights))


def cmd_resonant(request, args) -> dict:
    d, names, weights = request
    cert = sourcesink.max_resonant(d, weights)
    payload = jsonio.certificate_to_json(names, cert)
    payload["resonant_set"] = sorted(
        names[v] for v in cert.source_set | cert.sink_set
    )
    return payload


def _face_number(g, solve, key: str) -> dict:
    result = solve(g)
    return {
        "value": jsonio.render_value(result.value),
        # a Clar result's anticlockwise class is empty
        key: sorted(g.face_names[f] for f in result.cw_faces | result.acw_faces),
        "matching": jsonio.matching_to_json(g, result.matching),
    }


def cmd_clar(g, args) -> dict:
    return _face_number(g, plane.clar_number, "clar_set")


def cmd_fries(g, args) -> dict:
    return _face_number(g, plane.fries_number, "fries_set")


def cmd_clar_fries(g, args) -> dict:
    return jsonio.clar_fries_to_json(g, plane.solve_clar_fries(g))


def _agreement(solver_value, oracle_value) -> dict:
    """The answer of ``verify`` on a file."""
    return {
        "agree": solver_value == oracle_value,
        "solver": jsonio.render_value(solver_value),
        "oracle": jsonio.render_value(oracle_value),
    }


def _verify_digraph(data, max_arcs: int) -> dict:
    d, _names, index = jsonio.digraph_from_json(data)
    weights = jsonio.weight_pair_from_json(data, index, default=1)
    cert = sourcesink.max_source_sink(d, weights)
    brute_value, _pair = oracle.brute_max_source_sink(d, weights, max_arcs=max_arcs)
    return _agreement(cert.value, brute_value)


def _verify_plane(data, max_matchings: int) -> dict:
    """Solver against oracle on the file's face weights or, when its
    ``w1`` and ``w2`` maps name no face, on the Fries weights (1 on every
    inner face in both senses), which reach both sides of the dual."""
    g = plane.parse_validate(data)
    cw = acw = None
    if not data.get("w1") and not data.get("w2"):
        cw = acw = plane.inner_face_weights(g)
    result = plane.solve_clar_fries(g, cw, acw)
    brute_value, *_ = oracle.brute_clar_fries(g, cw, acw, max_matchings=max_matchings)
    return _agreement(result.value, brute_value)


def cmd_verify(data, args) -> dict:
    for option, value in (("--random COUNT", args.random), ("--budget-arcs", args.budget_arcs),
                          ("--budget-matchings", args.budget_matchings)):
        if value < 0:
            raise InputError(f"{option} must be nonnegative")
    if args.random:
        if data is not None:
            raise InputError("verify takes an input file or --random COUNT, not both")
        if args.budget_arcs < 1:
            raise InputError("--budget-arcs must be at least 1 with --random")
        rng = random.Random(args.seed)
        reports = []
        for _ in range(args.random):
            d = oracle.random_digraph(rng, 6, min(10, args.budget_arcs))
            weights = oracle.random_weight_pair(rng, d.node_count)
            cert = sourcesink.max_source_sink(d, weights)
            brute_value, _pair = oracle.brute_max_source_sink(
                d, weights, max_arcs=args.budget_arcs
            )
            if cert.value != brute_value:
                arcs = list(zip(d.tails, d.heads))
                reports.append({"solver": cert.value, "oracle": brute_value, "arcs": arcs})
        payload = {"agree": not reports, "instances": args.random, "seed": args.seed}
        if reports:
            payload["disagreements"] = reports
        return payload
    if data is None:
        raise InputError("verify needs an input file or --random COUNT")
    if isinstance(data, dict) and "S" in data and "T" in data:
        return _verify_plane(data, args.budget_matchings)
    return _verify_digraph(data, args.budget_arcs)


class _Parser(argparse.ArgumentParser):
    """A parser, and by ``add_subparsers``'s default subparsers, whose
    usage errors are input errors.  The message can repeat an argument of
    any length, so it is cut at 300 characters, which the list of commands
    fits."""

    def error(self, message):
        raise InputError(brief(f"{self.prog}: {message}", str, 300))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clarfries",
        description="Max-weight source-sink pairs in digraphs; Clar and Fries "
        "numbers of plane bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, decode):
        p = sub.add_parser(name)
        p.add_argument("input", help="path to a JSON instance")
        p.add_argument("--pretty", action="store_true", help="indent the output")
        p.set_defaults(fn=fn, decode=decode)
        return p

    add("solve-digraph", cmd_solve_digraph, _digraph_pair)
    p = add("sink-stable", cmd_sink_stable, _digraph_within)
    p.add_argument("--within", help="comma-separated node names; weight 1 inside, 0 outside")
    p = add("resonant", cmd_resonant, _digraph_within)
    p.add_argument("--within", help="comma-separated node names; weight 1 inside, 0 outside")
    add("clar", cmd_clar, _plane_graph)
    add("fries", cmd_fries, _plane_graph)
    add("clar-fries", cmd_clar_fries, _plane_graph)
    p = sub.add_parser("verify")
    p.add_argument("input", nargs="?", help="path to a JSON instance")
    p.add_argument("--pretty", action="store_true")
    p.add_argument("--random", type=int, default=0, metavar="COUNT",
                   help="verify COUNT random small digraphs instead of a file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget-arcs", type=int, default=14)
    p.add_argument("--budget-matchings", type=int, default=100_000)
    p.set_defaults(fn=cmd_verify, decode=_as_read)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built on the
    first call rather than at import."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The one I/O point of a request; exit 3 only for a ``verify`` payload
    whose ``"agree"`` is false.

    The command runs with the cyclic garbage collector paused: a request
    builds many short-lived containers but no reference cycles, so
    reference counting frees all of it and the collector's passes over
    those containers are wasted work (a test checks that a request leaves
    no cyclic garbage).  The caller's collector setting is restored on
    every exit, an uncaught exception included.

    Bad input, a command line that does not parse, a budget exceeded, an
    unreadable file and running out of memory exit 1 with one
    ``{"error": ...}`` object on stdout; ``-h`` prints the help and exits 0
    through ``SystemExit``.  Stdout is written once; a write that fails,
    as on a closed pipe, exits 1 with one ``error:`` line on stderr.
    """
    pretty = False  # a command line that does not parse gets compact output
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = _shared_parser().parse_args(argv)
        pretty = args.pretty
        # the JSON is an argument of the decode step alone, so it is freed
        # when that returns
        request = args.decode(None if args.input is None else _load(args.input), args)
        payload = args.fn(request, args)
        code = 3 if args.fn is cmd_verify and not payload["agree"] else 0
        text = _dumps(payload, pretty)
        note = None
    except (InputError, BudgetExceeded, OSError) as exc:
        code, note, text = 1, f"error: {exc}", _dumps({"error": str(exc)}, pretty)
    except MemoryError:
        # an input too large for this machine is bad input too; the
        # exception's own text is empty
        code, note, text = 1, "error: out of memory", _dumps({"error": "out of memory"}, pretty)
    except InvariantError as exc:
        code, note = 2, f"internal error: {exc}"
        text = _dumps({"error": str(exc), "kind": "internal"}, pretty)
    finally:
        if gc_was_enabled:
            gc.enable()
    try:
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write the answer: {exc}", file=sys.stderr)
        # so that the interpreter's flush of stdout at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    if note is not None:
        print(note, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
