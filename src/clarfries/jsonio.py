"""JSON reading and writing for digraphs, weights, and certificates.

Node names only exist at this boundary, and must be strings; the solvers
work on integer indices.  Every weight map is read by
:func:`node_weights_from_json`, where ``null`` reads as an absent map.
Exact rationals are written as ``"p/q"`` strings and read back
from ints, strings, or decimal floats (converted via their decimal text,
so 0.1 means one tenth).  A certificate carries its digraph and weights,
so rendering one takes only the names of its digraph's nodes.
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
    _whole,
    node_weights_from_json,
)


def render_value(v):
    v = _whole(v)
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def digraph_from_json(data) -> tuple[Digraph, tuple[str, ...]]:
    """Read ``{"nodes": [...], "arcs": [[tail, head], ...]}``."""
    if not isinstance(data, Mapping):
        raise InputError("digraph input must be a JSON object")
    if "nodes" not in data or "arcs" not in data:
        raise InputError("digraph input needs 'nodes' and 'arcs'")
    for key in ("nodes", "arcs"):
        if not isinstance(data[key], (list, tuple)):
            raise InputError(f"'{key}' must be a list")
    names = tuple(data["nodes"])
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"bad node name {name!r}")
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


def weight_pair_from_json(data, names: Sequence[str], default=0) -> WeightPair:
    return WeightPair(
        node_weights_from_json(data.get("w_o"), names, default, "w_o"),
        node_weights_from_json(data.get("w_i"), names, default, "w_i"),
    )


def _cover_entries(d: Digraph, names: Sequence[str], vector, scale: int) -> list:
    """Nonzero entries of a cover vector in units of ``1/scale``, exact."""
    bi = bidirect(d)
    out = []
    for j, z in enumerate(vector):
        if z:
            u, v = bi.arcs[j]
            out.append([[names[u], names[v]], render_value(Fraction(z, scale))])
    return out


def certificate_to_json(names: Sequence[str], cert: SourceSinkCertificate) -> dict:
    """The certificate with the names of its digraph's nodes, exact values
    rendered, and its ``checks``."""
    d = cert.digraph
    return {
        "value": render_value(cert.value),
        "Y_o": sorted(names[v] for v in cert.source_set),
        "Y_i": sorted(names[v] for v in cert.sink_set),
        "potential": {names[v]: cert.potential[v] for v in range(d.node_count)},
        "cover": {
            "z_o": _cover_entries(d, names, cert.cover.out_cover, cert.cover.scale),
            "z_i": _cover_entries(d, names, cert.cover.in_cover, cert.cover.scale),
        },
        "cover_cost": render_value(cert.cover.cost),
        "checks": dict(cert.checks),
    }


def sink_stable_to_json(names: Sequence[str], result: SinkStableResult) -> dict:
    bi = bidirect(result.certificate.digraph)
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
        "certificate": certificate_to_json(names, result.certificate),
    }


def matching_to_json(g: PlaneBipartiteGraph, matching) -> list:
    """The matched edges as sorted ``[S-node, T-node]`` name pairs."""
    return sorted(
        [g.node_name(g.edges[e][0]), g.node_name(g.edges[e][1])] for e in matching
    )


def clar_fries_to_json(g: PlaneBipartiteGraph, result: ClarFriesResult) -> dict:
    """The answer with face and node names, and its certificate on the
    planar dual, whose nodes are the faces."""
    face_names = g.face_names
    return {
        "value": render_value(result.value),
        "matching": matching_to_json(g, result.matching),
        "cw_faces": sorted(face_names[f] for f in result.cw_faces),
        "acw_faces": sorted(face_names[f] for f in result.acw_faces),
        "certificate": certificate_to_json(face_names, result.certificate),
    }
