"""JSON reading and writing for digraphs, weights, and certificates.

Node names only exist at this boundary, and must be strings; the solvers
work on integer indices.  Every weight map is read by
:func:`node_weights_from_json`, against the ``{name: position}`` index
that the request's reader built for its nodes or faces, and ``null`` reads
as an absent map.  Exact rationals are written as ``"p/q"`` strings and
read back from ints, strings, or decimal floats (converted via their
decimal text, so 0.1 means one tenth).  A certificate carries its digraph
and weights, so rendering one takes only the names of its digraph's nodes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .digraph import Digraph, bidirect
from .errors import InputError, brief
from .sourcesink import WeightPair, _whole

# the interpreter's default limit on the digits of an int read from or
# written to a string
DIGIT_LIMIT = 4300

ANSWER_TOO_LONG = f"answer has an integer over the interpreter's {DIGIT_LIMIT}-digit limit"


def parse_weight_value(value, what: str) -> int | Fraction:
    """Read one weight from its JSON form: an int, a ``"p/q"`` or decimal
    string, or a float converted via its decimal text (0.1 is one tenth).

    Anything else, including NaN, infinities, a zero denominator and
    negative values, raises :class:`InputError` naming ``what``.
    """
    if isinstance(value, bool):
        raise InputError(f"{what}: booleans are not weights")
    if isinstance(value, int):
        w = value
    elif isinstance(value, (float, str)):
        text = str(value)
        p, slash, q = text.partition("/")
        try:
            if slash and text.isascii() and p.isdigit() and q.isdigit():
                # the common "p/q" form, without Fraction's text parser
                w = Fraction(int(p), int(q))
            else:
                # Fraction builds 10**exponent: hold it to the digit limit
                # the JSON reader puts on int literals
                _, e, exponent = text.lower().partition("e")
                exponent = int(exponent) if e else 0
                w = Fraction(text) if abs(exponent) <= DIGIT_LIMIT else None
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: cannot parse weight {brief(value)}") from exc
        if w is None:
            raise InputError(f"{what}: weight exponent over {DIGIT_LIMIT} in magnitude")
    else:
        raise InputError(f"{what}: cannot read weight {brief(value)}")
    if w < 0:
        raise InputError(f"{what}: weight must be nonnegative")
    return _whole(w)


def node_weights_from_json(
    raw, index: Mapping[str, int], default, what: str, item: str = "node"
) -> tuple:
    """Read ``raw``, the JSON weight map named ``what`` (name -> weight),
    into one weight per entry of ``index`` (name -> position), ``default``
    where a name is missing.

    ``null`` reads as an absent map.  ``item`` is the kind of name (node or
    face) that error messages cite.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise InputError(f"{what} must be a map from {item} name to weight")
    vec = [default] * len(index)
    for name, value in raw.items():
        if name not in index:
            raise InputError(f"{what} references unknown {item} {brief(name)}")
        try:
            vec[index[name]] = parse_weight_value(value, what)
        except InputError:
            # raise again under the weight's label, built only on failure
            parse_weight_value(value, f"{what}[{brief(name, str)}]")
    return tuple(vec)


def render_value(v):
    v = _whole(v)
    if not isinstance(v, Fraction):
        return v
    try:
        return f"{v.numerator}/{v.denominator}"
    except ValueError as exc:
        raise InputError(ANSWER_TOO_LONG) from exc


def digraph_from_json(data) -> tuple[Digraph, tuple[str, ...], dict[str, int]]:
    """Read ``{"nodes": [...], "arcs": [[tail, head], ...]}`` into the
    digraph, its node names and their index (name -> node)."""
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
            raise InputError(f"bad node name {brief(name)}")
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
    return Digraph(len(names), arcs), names, index


def weight_pair_from_json(data, index: Mapping[str, int], default=0) -> WeightPair:
    return WeightPair(
        node_weights_from_json(data.get("w_o"), index, default, "w_o"),
        node_weights_from_json(data.get("w_i"), index, default, "w_i"),
    )


def _cover_entries(d: Digraph, names: Sequence[str], vector, scale: int) -> list:
    """Nonzero entries of a cover vector in units of ``1/scale``, exact;
    at scale 1 the integer entries are their own rendering."""
    arcs = bidirect(d).arcs
    out = []
    for j, z in enumerate(vector):
        if z:
            u, v = arcs[j]
            value = z if scale == 1 else render_value(Fraction(z, scale))
            out.append([[names[u], names[v]], value])
    return out


def certificate_to_json(names: Sequence[str], cert) -> dict:
    """The :class:`~clarfries.sourcesink.SourceSinkCertificate` ``cert``
    with the names of its digraph's nodes, exact values rendered, and its
    ``checks``."""
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


def sink_stable_to_json(names: Sequence[str], result) -> dict:
    """A :class:`~clarfries.sourcesink.SinkStableResult` with node names."""
    d = result.certificate.digraph
    arcs, m = bidirect(d).arcs, d.arc_count
    circuits = []
    for cycle, mult in result.circuits:
        circuits.append(
            {
                "nodes": [names[arcs[e][0]] for e in cycle],
                "multiplicity": mult,
                "original_arcs": sum(1 for e in cycle if e < m),
            }
        )
    return {
        "value": render_value(result.value),
        "Y": sorted(names[v] for v in result.sink_set),
        "circuits": circuits,
        "certificate": certificate_to_json(names, result.certificate),
    }


def matching_to_json(g, matching) -> list:
    """The matched edges of the plane graph ``g`` as sorted
    ``[S-node, T-node]`` name pairs."""
    return sorted(
        [g.node_name(g.edges[e][0]), g.node_name(g.edges[e][1])] for e in matching
    )


def clar_fries_to_json(g, result) -> dict:
    """The :class:`~clarfries.plane.ClarFriesResult` ``result`` of ``g``
    with face and node names, and its certificate on the planar dual,
    whose nodes are the faces."""
    face_names = g.face_names
    return {
        "value": render_value(result.value),
        "matching": matching_to_json(g, result.matching),
        "cw_faces": sorted(face_names[f] for f in result.cw_faces),
        "acw_faces": sorted(face_names[f] for f in result.acw_faces),
        "certificate": certificate_to_json(face_names, result.certificate),
    }
