"""JSON reading and writing for digraphs, weights, and certificates.

Node names only exist at this boundary; the solvers work on integer
indices.  Exact rationals are written as ``"p/q"`` strings and read back
from ints, strings, or decimal floats (converted via their decimal text,
so 0.1 means one tenth).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .digraph import Digraph, bidirect
from .errors import InputError
from .plane import ClarFriesResult, PlaneBipartiteGraph
from .sourcesink import (
    SinkStableResult,
    SourceSinkCertificate,
    WeightPair,
    parse_weight_value,
)


def render_value(v):
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    return v


def digraph_from_json(data) -> tuple[Digraph, tuple[str, ...]]:
    """Read ``{"nodes": [...], "arcs": [[tail, head], ...]}``."""
    if not isinstance(data, Mapping):
        raise InputError("digraph input must be a JSON object")
    if "nodes" not in data or "arcs" not in data:
        raise InputError("digraph input needs 'nodes' and 'arcs'")
    for key in ("nodes", "arcs"):
        if not isinstance(data[key], (list, tuple)):
            raise InputError(f"'{key}' must be a list")
    names = tuple(str(x) for x in data["nodes"])
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise InputError("duplicate node names")
    arcs = []
    for i, pair in enumerate(data["arcs"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"arc {i} must be a [tail, head] pair")
        u, v = pair
        # names are strings: any other endpoint, hashable or not, is unknown
        if not (isinstance(u, str) and u in index and isinstance(v, str) and v in index):
            raise InputError(f"arc {i} references an unknown node")
        arcs.append((index[u], index[v]))
    return Digraph(len(names), arcs), names


def node_weights_from_json(
    raw, names: Sequence[str], default, what: str
) -> tuple:
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise InputError(f"{what} must be a map from node name to weight")
    index = {name: i for i, name in enumerate(names)}
    vec = [default] * len(names)
    for name, value in raw.items():
        if name not in index:
            raise InputError(f"{what} references unknown node {name!r}")
        vec[index[name]] = parse_weight_value(value, f"{what}[{name}]")
    return tuple(vec)


def weight_pair_from_json(data, names: Sequence[str], default=0) -> WeightPair:
    return WeightPair(
        node_weights_from_json(data.get("w_o"), names, default, "w_o"),
        node_weights_from_json(data.get("w_i"), names, default, "w_i"),
    )


def _cover_entries(d: Digraph, names: Sequence[str], vector) -> list:
    bi = bidirect(d)
    out = []
    for j, value in enumerate(vector):
        if value:
            u, v = bi.arcs[j]
            out.append([[names[u], names[v]], render_value(value)])
    return out


def certificate_to_json(
    d: Digraph,
    names: Sequence[str],
    weights: WeightPair,
    cert: SourceSinkCertificate,
) -> dict:
    """The certificate with node names, exact values rendered, and its
    ``checks`` on ``(d, weights)``, recorded by the solver or recomputed."""
    checks = dict(cert.checks_for(d, weights))
    return {
        "value": render_value(cert.value),
        "Y_o": sorted(names[v] for v in cert.source_set),
        "Y_i": sorted(names[v] for v in cert.sink_set),
        "potential": {names[v]: cert.potential[v] for v in range(d.node_count)},
        "cover": {
            "z_o": _cover_entries(d, names, cert.cover.out_cover),
            "z_i": _cover_entries(d, names, cert.cover.in_cover),
        },
        "cover_cost": render_value(cert.cover.cost),
        "checks": checks,
    }


def sink_stable_to_json(
    d: Digraph,
    names: Sequence[str],
    weights: WeightPair,
    result: SinkStableResult,
) -> dict:
    bi = bidirect(d)
    circuits = []
    for cycle, mult in result.circuits:
        circuits.append(
            {
                "nodes": [names[bi.arcs[e][0]] for e in cycle],
                "multiplicity": mult,
                "original_arcs": sum(1 for e in cycle if e < bi.m),
            }
        )
    return {
        "value": render_value(result.value),
        "Y": sorted(names[v] for v in result.sink_set),
        "circuits": circuits,
        "certificate": certificate_to_json(d, names, weights, result.certificate),
    }


def clar_fries_to_json(g: PlaneBipartiteGraph, result: ClarFriesResult) -> dict:
    face_names = [f.name for f in g.faces]
    return {
        "value": render_value(result.value),
        "matching": sorted(
            [g.node_name(g.edges[e][0]), g.node_name(g.edges[e][1])]
            for e in result.matching
        ),
        "cw_faces": sorted(face_names[f] for f in result.cw_faces),
        "acw_faces": sorted(face_names[f] for f in result.acw_faces),
    }
