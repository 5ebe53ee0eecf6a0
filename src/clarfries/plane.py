"""Clar and Fries numbers of plane bipartite graphs.

The input is a 2-connected loopless plane bipartite graph with color
classes S and T, given with its faces: each face lists its boundary as a
closed walk of directed edge-sides with the face's interior on the left.
Edge ``e`` has two sides: side ``2e + 1`` walks it from S to T (``"+"`` in
the JSON) and side ``2e`` from T to S (``"-"``), so ``k ^ 1`` is the other
side of side ``k``.  :func:`parse_validate` reads the JSON in one pass
straight into these side ids and checks each fact once as it goes.

Orienting a perfect matching M toward S and all other edges toward T makes
every S-node's in-degree and every T-node's out-degree exactly 1, and a
face is M-alternating exactly when its boundary is a one-way circuit of
that orientation.  Faces whose boundary arcs all oppose the stored sides
(the face lies on the arcs' right) are called clockwise here, the others
anticlockwise.

Taking the planar dual with each dual arc crossing from the left face to
the right face of a primal arc turns the question "which faces can be made
alternating by switching to a better matching" into a maximum-weight
source-sink pair problem on the dual: clockwise faces are dual sinks,
anticlockwise faces dual sources, and reorienting the dual by the witness
potential corresponds to rerouting the matching.  Same-sense alternating
faces are automatically node-disjoint, which is what makes the clockwise
class a Clar-set and the union of both classes a Fries-set.
Every answer is a :func:`solve_clar_fries` result, which checks both
facts; the Clar and Fries numbers are its results on fixed face weights.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .digraph import Digraph, potential_drops
from .errors import InputError, InvariantError, brief
from .jsonio import node_weights_from_json
from .record import Record
from .sourcesink import Weight, WeightPair, max_source_sink


class NonBipartiteError(InputError):
    pass


class FaceBoundaryError(InputError):
    pass


class EdgeSideMismatchError(InputError):
    pass


class EulerError(InputError):
    pass


class NotTwoConnectedError(InputError):
    pass


class NoPerfectMatchingError(InputError):
    """``s_nodes`` are S-nodes with fewer T-neighbours, ``t_nodes``, than
    their own number, so no matching covers them; empty when |S| != |T|."""

    s_nodes = t_nodes = ()


class PlaneBipartiteGraph:
    """Validated plane bipartite graph with faces and per-face weights;
    only :func:`parse_validate` builds one.

    Nodes are indexed S first, then T.  ``edges[e]`` is an (S-node, T-node)
    pair.  Side ``k`` of an edge leaves node ``side_tail[k]``, ends at
    ``side_tail[k ^ 1]`` and lies on face ``side_face[k]``;
    ``boundaries[f]`` is face ``f``'s walk as a tuple of side ids.
    ``cw_weights[f]`` is collected when face ``f`` ends up
    clockwise-alternating, ``acw_weights[f]`` when anticlockwise.
    ``matching`` is the perfect matching found while validating, as a set
    of edge indices; it is the default start of :func:`solve_clar_fries`.
    """

    __slots__ = (
        "s_names",
        "t_names",
        "edges",
        "face_names",
        "boundaries",
        "outer",
        "side_face",
        "side_tail",
        "cw_weights",
        "acw_weights",
        "matching",
    )

    @property
    def node_count(self) -> int:
        return len(self.s_names) + len(self.t_names)

    @property
    def s_count(self) -> int:
        return len(self.s_names)

    def node_name(self, v: int) -> str:
        if v < len(self.s_names):
            return self.s_names[v]
        return self.t_names[v - len(self.s_names)]


def parse_validate(data) -> PlaneBipartiteGraph:
    """Build a validated plane graph from its decoded JSON object.

    One pass reads the node names, the edges and each face's boundary,
    checking each entry as it is read: names distinct nonempty strings,
    edges from S to T, and face walks closed, on known edges, with no side
    walked twice and no node repeated.  Then every side must lie on a
    face, no edge may be a bridge, the faces must lie on one surface with
    n - e + f = 2, every node must lie on an edge, and the graph must have
    a perfect matching.
    """
    if not isinstance(data, dict):
        raise InputError("plane graph input must be a JSON object")
    for key in ("S", "T", "edges", "faces", "outer"):
        if key not in data:
            raise InputError(f"missing key {key!r}")
    for key in ("S", "T", "edges", "faces"):
        if not isinstance(data[key], (list, tuple)):
            raise InputError(f"{key!r} must be a list")
    s_names = tuple(data["S"])
    names = s_names + tuple(data["T"])
    index = {}
    for name in names:
        if not isinstance(name, str) or not name:
            raise InputError(f"bad node name {brief(name)}")
        if name in index:
            raise InputError(f"duplicate node name {brief(name)}")
        index[name] = len(index)

    ns = len(s_names)
    edges = []
    side_tail = []
    for i, pair in enumerate(data["edges"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"edge {i} must be a [from, to] pair")
        u, v = pair
        # names are strings: any other endpoint, hashable or not, is unknown
        if not (isinstance(u, str) and u in index and isinstance(v, str) and v in index):
            raise InputError(f"edge {i} references unknown node")
        s, t = index[u], index[v]
        if s >= ns:
            raise NonBipartiteError(f"edge {i}: first endpoint must be an S-node")
        if t < ns:
            raise NonBipartiteError(f"edge {i}: second endpoint must be a T-node")
        edges.append((s, t))
        side_tail += (t, s)
    if not ns or ns == len(names) or not edges:
        raise InputError("graph needs nonempty S, T, and edge list")

    side_face = [-1] * len(side_tail)
    walked_from = [-1] * len(names)  # the last face whose walk left each node
    edge_count = len(edges)
    face_index: dict[str, int] = {}
    boundaries = []
    for fi, fobj in enumerate(data["faces"]):
        if not (isinstance(fobj, dict) and isinstance(fobj.get("id"), str)
                and "boundary" in fobj):
            raise InputError("each face needs a string 'id' and a 'boundary'")
        name = fobj["id"]
        if name in face_index:
            raise InputError(f"duplicate face id {brief(name)}")
        face_index[name] = fi
        if not isinstance(fobj["boundary"], (list, tuple)):
            raise InputError(f"face {brief(name)}: boundary must be a list")
        if not fobj["boundary"]:
            raise FaceBoundaryError(f"face {brief(name)} has an empty boundary")
        walk = []
        for entry in fobj["boundary"]:
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise InputError(f"face {brief(name)}: bad boundary side {brief(entry)}")
            e, sign = entry
            # a plain int, the usual entry, skips the subclass tests
            if type(e) is not int and (isinstance(e, bool) or not isinstance(e, int)):
                raise InputError(f"face {brief(name)}: edge {brief(e)} is not an edge index")
            if sign == "+":
                side = 2 * e + 1
            elif sign == "-":
                side = 2 * e
            else:
                raise InputError(f"face {brief(name)}: bad side sign {brief(sign)}")
            if not (0 <= e < edge_count):
                raise FaceBoundaryError(f"face {brief(name)} references unknown edge {brief(e)}")
            if side_face[side] >= 0:
                raise EdgeSideMismatchError(f"edge {e} walked twice in the same direction")
            side_face[side] = fi
            tail = side_tail[side]
            if walk and side_tail[walk[-1] ^ 1] != tail:
                raise FaceBoundaryError(
                    f"face {brief(name)} boundary is not a closed walk at step {len(walk) - 1}"
                )
            if walked_from[tail] == fi:
                raise FaceBoundaryError(
                    f"face {brief(name)} boundary revisits node {brief(names[tail], str)}"
                )
            walked_from[tail] = fi
            walk.append(side)
        if side_tail[walk[-1] ^ 1] != side_tail[walk[0]]:
            raise FaceBoundaryError(
                f"face {brief(name)} boundary is not a closed walk at step {len(walk) - 1}"
            )
        boundaries.append(tuple(walk))

    outer = data["outer"]
    if not (isinstance(outer, str) and outer in face_index):
        raise InputError(f"outer face {brief(outer)} not among faces")
    face_names = tuple(face_index)

    g = object.__new__(PlaneBipartiteGraph)
    g.s_names = s_names
    g.t_names = names[ns:]
    g.edges = tuple(edges)
    g.face_names = face_names
    g.boundaries = tuple(boundaries)
    g.outer = face_index[outer]
    g.side_face = side_face
    g.side_tail = side_tail
    g.cw_weights = node_weights_from_json(data.get("w1"), face_index, 0, "w1", "face")
    g.acw_weights = node_weights_from_json(data.get("w2"), face_index, 0, "w2", "face")

    for e in range(len(edges)):
        plus, minus = side_face[2 * e + 1], side_face[2 * e]
        if plus < 0 or minus < 0:
            raise EdgeSideMismatchError(
                f"edge {e} never walked {'S->T' if plus < 0 else 'T->S'}"
            )
        if plus == minus:
            raise NotTwoConnectedError(f"edge {e} is a bridge")
    _check_one_surface(g)
    if len(names) - len(edges) + len(face_names) != 2:
        raise EulerError(
            f"Euler check failed: {len(names)} - {len(edges)} "
            f"+ {len(face_names)} != 2"
        )
    _check_every_node_on_an_edge(walked_from)
    # perfect matchability is part of the input contract
    g.matching = perfect_matching(g)
    return g


def _check_one_surface(g: PlaneBipartiteGraph) -> None:
    """Reject faces that do not all lie on one surface.

    Crossing edges from face 0 must reach every face, so the planar
    dual is connected; with the Euler check the faces then tile a
    sphere.  Two plane graphs glued at two nodes pass every other
    check but fail this one.
    """
    side_face = g.side_face
    reached = bytearray(len(g.boundaries))
    reached[0] = 1
    stack = [0]
    while stack:
        for side in g.boundaries[stack.pop()]:
            f = side_face[side ^ 1]
            if not reached[f]:
                reached[f] = 1
                stack.append(f)
    if not all(reached):
        raise FaceBoundaryError("faces do not form one connected surface")


def _check_every_node_on_an_edge(walked_from: Sequence[int]) -> None:
    """Reject isolated nodes, the nodes no face walk leaves (-1 in
    ``walked_from``) once every side is walked; with the checks before it,
    this makes the graph 2-connected.

    The face walks (closed, no node repeated, each side walked once, no
    bridge) glue the faces into a closed orientable surface, connected
    by :func:`_check_one_surface`.  Its vertices are the corner cycles:
    one per node on an edge, plus one per pinch (a node whose corners
    split into several cycles), so its Euler characteristic V' - e + f
    is at most 2.  The Euler check makes n - e + f = 2, so there are at
    most as many pinches as isolated nodes.  Once every node lies on an
    edge, the surface is a sphere and no node is pinched; a plane graph
    on at least 3 nodes whose faces are all bounded by cycles is
    2-connected (Mohar and Thomassen, Graphs on Surfaces, 2001).  A
    genus-g drawing with 2g isolated nodes added, such as a torus grid
    with two, passes every other check and fails this one.
    """
    if -1 in walked_from:
        raise NotTwoConnectedError("graph is disconnected")


def perfect_matching(g: PlaneBipartiteGraph) -> frozenset[int]:
    """A perfect matching as a set of edge indices (Hopcroft-Karp).

    Deterministic: a greedy pass takes each edge, in edge order, whose
    endpoints are both free; then each phase layers the S-nodes by a
    breadth-first search from the free ones and augments along
    vertex-disjoint shortest alternating paths, found by a depth-first
    search on an explicit stack in S-node index order and adjacency (edge)
    order.  O(E sqrt(V)) time, no recursion.  Raises
    :class:`NoPerfectMatchingError` if no perfect matching exists.
    """
    ns = g.s_count
    nt = g.node_count - ns
    if ns != nt:
        raise NoPerfectMatchingError(f"|S| = {ns} != |T| = {nt}")
    edges = g.edges
    adj: list[list[int]] = [[] for _ in range(ns)]
    match_s = [-1] * ns  # S-node -> edge index
    match_t = [-1] * nt  # T-node (less ns) -> edge index
    for i, (s, t) in enumerate(edges):
        adj[s].append(i)
        t -= ns
        if match_s[s] < 0 and match_t[t] < 0:
            match_s[s] = match_t[t] = i
    free = [s for s in range(ns) if match_s[s] < 0]
    while free:
        # layer 0 holds the free S-nodes; a matched S-node sits one layer
        # past the S-node whose edge first reached its mate; the search
        # stops at the layer where a free T-node first turns up
        layer = [-1] * ns
        for s in free:
            layer[s] = 0
        last = -1
        queue = list(free)
        for s in queue:
            d = layer[s]
            if last >= 0 and d >= last:
                break
            for e in adj[s]:
                f = match_t[edges[e][1] - ns]
                if f < 0:
                    last = d
                else:
                    w = edges[f][0]
                    if layer[w] < 0:
                        layer[w] = d + 1
                        queue.append(w)
        if last < 0:
            # the S-nodes reached from the free ones see only T-nodes
            # matched to them, so more of them than of those T-nodes
            xs = sorted(queue)
            nx = sorted({edges[e][1] for s in xs for e in adj[s]})
            err = NoPerfectMatchingError(
                f"graph has no perfect matching: the {len(xs)} S-nodes "
                f"{brief([g.node_name(v) for v in xs])} have only {len(nx)} "
                f"T-neighbours {brief([g.node_name(v) for v in nx])}"
            )
            err.s_nodes, err.t_nodes = frozenset(xs), frozenset(nx)
            raise err
        pos = [0] * ns  # next adjacency entry to try, per S-node
        for root in free:
            path = [root]  # S-nodes; edge via[k] leaves path[k]
            via: list[int] = []
            while path:
                s = path[-1]
                d = layer[s]
                for i in range(pos[s], len(adj[s])):
                    e = adj[s][i]
                    f = match_t[edges[e][1] - ns]
                    if f < 0 or (d < last and layer[edges[f][0]] == d + 1):
                        pos[s] = i + 1
                        via.append(e)
                        break
                else:
                    layer[s] = -1  # dead end for the rest of this phase
                    path.pop()
                    if via:
                        via.pop()
                    continue
                if f >= 0:
                    path.append(edges[f][0])
                    continue
                for s, e in zip(path, via):
                    match_s[s] = e
                    match_t[edges[e][1] - ns] = e
                break
        free = [s for s in range(ns) if match_s[s] < 0]
    return frozenset(match_s)


def _check_perfect(g: PlaneBipartiteGraph, matching: frozenset[int]) -> None:
    hit = [0] * g.node_count
    for e in matching:
        if not (0 <= e < len(g.edges)):
            raise InputError(f"matching references unknown edge {e}")
        s, t = g.edges[e]
        hit[s] += 1
        hit[t] += 1
    if any(h != 1 for h in hit):
        raise InputError("edge set is not a perfect matching")


def orient_by_matching(g: PlaneBipartiteGraph, matching: Iterable[int]) -> Digraph:
    """Orient ``g`` by a perfect matching: matched edges point toward S, the
    rest toward T.  Arc ``i`` is edge ``i``; every S-node has in-degree
    exactly 1 and every T-node out-degree exactly 1.

    The digraph is derived from the validated ``g`` without re-validation:
    its arcs are ``g``'s edges, which join an S-node to a T-node, and ``g``
    is connected.
    """
    matching = frozenset(matching)
    _check_perfect(g, matching)
    tails = [s for s, _ in g.edges]
    heads = [t for _, t in g.edges]
    for i in matching:
        tails[i], heads[i] = heads[i], tails[i]
    return Digraph._derived(g.node_count, tuple(tails), tuple(heads))


def planar_dual(g: PlaneBipartiteGraph, matching: Iterable[int]) -> Digraph:
    """The dual of ``g`` oriented by a perfect matching: node f is face f,
    and arc i crosses edge i from the face on the oriented edge's left to
    the face on its right, where matched edges point toward S and the rest
    toward T.

    The digraph is derived from the validated ``g`` without re-validation:
    the two sides of every edge lie on different faces (``g`` has no
    bridge), and every face reaches every other across edges (the faces
    lie on one surface), so the dual is loopless and connected.
    """
    matching = frozenset(matching)
    _check_perfect(g, matching)
    # the oriented edge's left side is its S->T side, 2i + 1, unless matched
    tails = g.side_face[1::2]
    heads = g.side_face[0::2]
    for i in matching:
        tails[i], heads[i] = heads[i], tails[i]
    return Digraph._derived(len(g.face_names), tuple(tails), tuple(heads))


def alternating_faces(
    g: PlaneBipartiteGraph, matching: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Faces whose boundary is one-way under the matching orientation,
    split by sense: (clockwise, anticlockwise).

    Clockwise means every boundary arc opposes the stored side (the face
    sits on its arcs' right); anticlockwise means every arc agrees.
    """
    matching = frozenset(matching)
    _check_perfect(g, matching)
    cw = []
    acw = []
    for fi, walk in enumerate(g.boundaries):
        aligned = 0
        for side in walk:
            # the arc runs S->T (odd side) unless its edge is matched
            if (side & 1) != (side >> 1 in matching):
                aligned += 1
        if aligned == 0:
            cw.append(fi)
        elif aligned == len(walk):
            acw.append(fi)
    return frozenset(cw), frozenset(acw)


def _check_node_disjoint(g: PlaneBipartiteGraph, faces: frozenset[int]) -> None:
    seen: set[int] = set()
    for f in faces:
        for side in g.boundaries[f]:
            tail = g.side_tail[side]
            if tail in seen:
                raise InvariantError("same-sense alternating faces share a node")
            seen.add(tail)


class ClarFriesResult(Record):
    """Optimal matching with its alternating-face classes and certificate.

    ``cw_faces`` and ``acw_faces`` are each node-disjoint families of
    alternating faces under ``matching``; the pair's total weight is
    ``value`` and ``certificate`` proves it maximal over all matchings.
    The certificate's ``digraph`` is the planar dual oriented by the start
    matching, the digraph its nodes, potential and cover refer to.
    :func:`clar_number` and :func:`fries_number` answer with one too.
    """

    _fields = __slots__ = ("matching", "cw_faces", "acw_faces", "value", "certificate")


def solve_clar_fries(
    g: PlaneBipartiteGraph,
    cw_weights: Sequence[Weight] | None = None,
    acw_weights: Sequence[Weight] | None = None,
    start_matching: Iterable[int] | None = None,
) -> ClarFriesResult:
    """Maximize total face weight over all perfect matchings, where a face
    pays ``cw_weights`` if clockwise-alternating and ``acw_weights`` if
    anticlockwise-alternating.

    Weights default to the ones stored on the graph, and ``start_matching``
    to ``g.matching``.  The optimum does not depend on ``start_matching``;
    it only fixes the reference orientation.  A result whose matching is not
    perfect, or whose face classes do not alternate or share a node,
    raises :class:`InvariantError`.
    """
    cw_weights = g.cw_weights if cw_weights is None else cw_weights
    acw_weights = g.acw_weights if acw_weights is None else acw_weights
    if len(cw_weights) != len(g.face_names) or len(acw_weights) != len(g.face_names):
        raise InputError("need one weight per face")

    start = g.matching if start_matching is None else frozenset(start_matching)
    dual = planar_dual(g, start)

    # clockwise faces are exactly the sinks of the dual, so the clockwise
    # weight rides on the sink side and the anticlockwise weight on the
    # source side
    weights = WeightPair(tuple(acw_weights), tuple(cw_weights))
    cert = max_source_sink(dual, weights)

    # reorienting dual arc i flips edge i between matched and unmatched
    drops = potential_drops(dual, cert.potential)
    matching = start ^ frozenset(i for i, dr in enumerate(drops) if dr == 1)
    try:
        cw, acw = alternating_faces(g, matching)
    except InputError as exc:
        raise InvariantError("reoriented dual did not yield a perfect matching") from exc
    if not (cert.sink_set <= cw and cert.source_set <= acw):
        raise InvariantError("reported faces are not alternating in the new matching")
    _check_node_disjoint(g, cert.sink_set)
    _check_node_disjoint(g, cert.source_set)
    return ClarFriesResult(matching, cert.sink_set, cert.source_set, cert.value, cert)


def inner_face_weights(g: PlaneBipartiteGraph) -> tuple[int, ...]:
    """One weight per face: 1 on every inner face, 0 on the outer."""
    return tuple([int(f != g.outer) for f in range(len(g.face_names))])


def clar_number(g: PlaneBipartiteGraph) -> ClarFriesResult:
    """Maximum number of node-disjoint alternating inner faces over all
    perfect matchings: the solve with weight 1 on every inner face in the
    clockwise sense and 0 in the anticlockwise sense, so ``cw_faces`` is a
    Clar set and ``acw_faces`` is empty."""
    return solve_clar_fries(g, inner_face_weights(g), (0,) * len(g.face_names))


def fries_number(g: PlaneBipartiteGraph) -> ClarFriesResult:
    """Maximum number of alternating inner faces over all perfect
    matchings: the solve with weight 1 on every inner face in both senses,
    so ``cw_faces | acw_faces`` is a Fries set."""
    inner = inner_face_weights(g)
    return solve_clar_fries(g, inner, inner)
