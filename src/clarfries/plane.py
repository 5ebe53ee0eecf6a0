"""Clar and Fries numbers of plane bipartite graphs.

The input is a 2-connected loopless plane bipartite graph with color
classes S and T, given with its faces: each face lists its boundary as a
closed walk of directed edge-sides with the face's interior on the left.
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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .digraph import Digraph, potential_drops
from .errors import InputError, InvariantError
from .sourcesink import (
    SourceSinkCertificate,
    Weight,
    WeightPair,
    max_source_sink,
    node_weights_from_json,
)


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
    pass


@dataclass(frozen=True)
class Face:
    name: str
    boundary: tuple[tuple[int, bool], ...]  # (edge index, True when walked S -> T)


class PlaneBipartiteGraph:
    """Validated plane bipartite graph with faces and per-face weights.

    Nodes are indexed S first, then T.  ``edges[i]`` is an (S-node, T-node)
    pair.  ``cw_weights[f]`` is collected when face ``f`` ends up
    clockwise-alternating, ``acw_weights[f]`` when anticlockwise.
    ``matching`` is the perfect matching found while validating, as a set
    of edge indices; it is the default start of :func:`solve_clar_fries`.
    """

    __slots__ = (
        "s_names",
        "t_names",
        "edges",
        "faces",
        "outer",
        "cw_weights",
        "acw_weights",
        "matching",
        "_side_face",
    )

    def __init__(
        self,
        s_names: Sequence[str],
        t_names: Sequence[str],
        edges: Sequence[tuple[int, int]],
        faces: Sequence[Face],
        outer: int,
        cw_weights: Sequence[Weight],
        acw_weights: Sequence[Weight],
    ):
        self.s_names = tuple(s_names)
        self.t_names = tuple(t_names)
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self.outer = outer
        self.cw_weights = tuple(cw_weights)
        self.acw_weights = tuple(acw_weights)
        self._side_face = None
        self._validate()

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

    def inner_faces(self) -> frozenset[int]:
        return frozenset(f for f in range(len(self.faces)) if f != self.outer)

    # -- validation ----------------------------------------------------

    def _side_endpoints(self, edge: int, toward_t: bool) -> tuple[int, int]:
        s, t = self.edges[edge]
        return (s, t) if toward_t else (t, s)

    def _validate(self) -> None:
        ns, nt = len(self.s_names), len(self.t_names)
        if ns == 0 or nt == 0 or not self.edges:
            raise InputError("graph needs nonempty S, T, and edge list")
        for name in self.s_names + self.t_names:
            if not isinstance(name, str) or not name:
                raise InputError(f"bad node name {name!r}")
        seen = set()
        for name in self.s_names + self.t_names:
            if name in seen:
                raise InputError(f"duplicate node name {name!r}")
            seen.add(name)
        for i, (s, t) in enumerate(self.edges):
            if not (0 <= s < ns):
                raise NonBipartiteError(f"edge {i}: first endpoint must be an S-node")
            if not (ns <= t < ns + nt):
                raise NonBipartiteError(f"edge {i}: second endpoint must be a T-node")

        if len(self.cw_weights) != len(self.faces) or len(self.acw_weights) != len(self.faces):
            raise InputError("face weight vectors must have one entry per face")
        for w in self.cw_weights + self.acw_weights:
            if w < 0:
                raise InputError("face weights must be nonnegative")

        face_names = set()
        for face in self.faces:
            if face.name in face_names:
                raise InputError(f"duplicate face id {face.name!r}")
            face_names.add(face.name)
        if not (0 <= self.outer < len(self.faces)):
            raise InputError("outer face missing from face list")

        # the face on each edge side, at index 2 * edge + toward_t
        side_face = [-1] * (2 * len(self.edges))
        for fi, face in enumerate(self.faces):
            if not face.boundary:
                raise FaceBoundaryError(f"face {face.name!r} has an empty boundary")
            for e, _ in face.boundary:
                if not (0 <= e < len(self.edges)):
                    raise FaceBoundaryError(
                        f"face {face.name!r} references unknown edge {e}"
                    )
            nodes_seen = set()
            for k, (e, toward_t) in enumerate(face.boundary):
                side = 2 * e + toward_t
                if side_face[side] >= 0:
                    raise EdgeSideMismatchError(
                        f"edge {e} walked twice in the same direction"
                    )
                side_face[side] = fi
                tail, head = self._side_endpoints(e, toward_t)
                nxt = face.boundary[(k + 1) % len(face.boundary)]
                nxt_tail, _ = self._side_endpoints(*nxt)
                if head != nxt_tail:
                    raise FaceBoundaryError(
                        f"face {face.name!r} boundary is not a closed walk at step {k}"
                    )
                if tail in nodes_seen:
                    raise FaceBoundaryError(
                        f"face {face.name!r} boundary revisits node {self.node_name(tail)}"
                    )
                nodes_seen.add(tail)
        for e in range(len(self.edges)):
            for toward_t in (True, False):
                if side_face[2 * e + toward_t] < 0:
                    raise EdgeSideMismatchError(
                        f"edge {e} never walked {'S->T' if toward_t else 'T->S'}"
                    )
            if side_face[2 * e] == side_face[2 * e + 1]:
                raise NotTwoConnectedError(f"edge {e} is a bridge")
        self._side_face = side_face
        self._check_one_surface()

        if self.node_count - len(self.edges) + len(self.faces) != 2:
            raise EulerError(
                f"Euler check failed: {self.node_count} - {len(self.edges)} "
                f"+ {len(self.faces)} != 2"
            )

        self._check_every_node_on_an_edge()
        # perfect matchability is part of the input contract
        self.matching = perfect_matching(self)

    def _check_one_surface(self) -> None:
        """Reject faces that do not all lie on one surface.

        Crossing edges from face 0 must reach every face, so the planar
        dual is connected; with the Euler check the faces then tile a
        sphere.  Two plane graphs glued at two nodes pass every other
        check but fail this one.
        """
        side_face = self._side_face
        reached = bytearray(len(self.faces))
        reached[0] = 1
        stack = [0]
        while stack:
            for e, toward_t in self.faces[stack.pop()].boundary:
                f = side_face[2 * e + (not toward_t)]
                if not reached[f]:
                    reached[f] = 1
                    stack.append(f)
        if not all(reached):
            raise FaceBoundaryError("faces do not form one connected surface")

    def _check_every_node_on_an_edge(self) -> None:
        """Reject isolated nodes; with the checks before it, this makes the
        graph 2-connected.

        The face walks (closed, no node repeated, each side walked once, no
        bridge) glue the faces into a closed orientable surface, connected
        by :meth:`_check_one_surface`.  Its vertices are the corner cycles:
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
        on_edge = bytearray(self.node_count)
        for s, t in self.edges:
            on_edge[s] = on_edge[t] = 1
        if not all(on_edge):
            raise NotTwoConnectedError("graph is disconnected")


def parse_validate(data) -> PlaneBipartiteGraph:
    """Build a validated plane graph from its JSON form (dict or string)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise InputError("plane graph input must be a JSON object")
    for key in ("S", "T", "edges", "faces", "outer"):
        if key not in data:
            raise InputError(f"missing key {key!r}")
    for key in ("S", "T", "edges", "faces"):
        if not isinstance(data[key], (list, tuple)):
            raise InputError(f"{key!r} must be a list")
    s_names = list(data["S"])
    t_names = list(data["T"])
    for name in s_names + t_names:
        if not isinstance(name, str):
            raise InputError(f"bad node name {name!r}")
    # a duplicate name maps to its last index here; the constructor rejects
    # it, and rejects an edge that does not run from S to T
    index = {name: i for i, name in enumerate(s_names + t_names)}

    edges = []
    for i, pair in enumerate(data["edges"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InputError(f"edge {i} must be a [from, to] pair")
        u, v = pair
        # names are strings: any other endpoint, hashable or not, is unknown
        if not (isinstance(u, str) and u in index and isinstance(v, str) and v in index):
            raise InputError(f"edge {i} references unknown node")
        edges.append((index[u], index[v]))

    faces = []
    for fobj in data["faces"]:
        if not (isinstance(fobj, Mapping) and isinstance(fobj.get("id"), str)
                and "boundary" in fobj):
            raise InputError("each face needs a string 'id' and a 'boundary'")
        if not isinstance(fobj["boundary"], (list, tuple)):
            raise InputError(f"face {fobj['id']!r}: boundary must be a list")
        boundary = []
        for side in fobj["boundary"]:
            if not isinstance(side, (list, tuple)) or len(side) != 2:
                raise InputError(f"face {fobj['id']!r}: bad boundary side {side!r}")
            e, sign = side
            if isinstance(e, bool) or not isinstance(e, int):
                raise InputError(f"face {fobj['id']!r}: edge {e!r} is not an edge index")
            if sign not in ("+", "-"):
                raise InputError(f"face {fobj['id']!r}: bad side sign {sign!r}")
            boundary.append((e, sign == "+"))
        faces.append(Face(fobj["id"], tuple(boundary)))

    face_index = {f.name: i for i, f in enumerate(faces)}
    outer_name = data["outer"]
    if not (isinstance(outer_name, str) and outer_name in face_index):
        raise InputError(f"outer face {outer_name!r} not among faces")

    face_names = [f.name for f in faces]
    return PlaneBipartiteGraph(
        s_names,
        t_names,
        edges,
        faces,
        face_index[outer_name],
        node_weights_from_json(data.get("w1"), face_names, 0, "w1", "face"),
        node_weights_from_json(data.get("w2"), face_names, 0, "w2", "face"),
    )


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
            raise NoPerfectMatchingError("graph has no perfect matching")
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
    arcs = tuple((t, s) if i in matching else (s, t) for i, (s, t) in enumerate(g.edges))
    return Digraph._derived(g.node_count, arcs)


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
    side_face = g._side_face
    arcs = []
    for i in range(len(g.edges)):
        # the oriented edge's left side is its S->T side unless matched
        left = 2 * i + (i not in matching)
        arcs.append((side_face[left], side_face[left ^ 1]))
    return Digraph._derived(len(g.faces), tuple(arcs))


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
    for fi, face in enumerate(g.faces):
        aligned = 0
        for e, toward_t in face.boundary:
            arc_toward_t = e not in matching
            if arc_toward_t == toward_t:
                aligned += 1
        if aligned == 0:
            cw.append(fi)
        elif aligned == len(face.boundary):
            acw.append(fi)
    return frozenset(cw), frozenset(acw)


@dataclass(frozen=True)
class ClarFriesResult:
    """Optimal matching with its alternating-face classes and certificate.

    ``cw_faces`` and ``acw_faces`` are each node-disjoint families of
    alternating faces under ``matching``; the pair's total weight is
    ``value`` and ``certificate`` proves it maximal over all matchings.
    The certificate's ``digraph`` is the planar dual oriented by the start
    matching, the digraph its nodes, potential and cover refer to.
    """

    matching: frozenset[int]
    cw_faces: frozenset[int]
    acw_faces: frozenset[int]
    value: Weight
    certificate: SourceSinkCertificate


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
    it only fixes the reference orientation.
    """
    if cw_weights is None:
        cw_weights = g.cw_weights
    if acw_weights is None:
        acw_weights = g.acw_weights
    if len(cw_weights) != len(g.faces) or len(acw_weights) != len(g.faces):
        raise InputError("need one weight per face")

    if start_matching is None:
        start = g.matching
    else:
        start = frozenset(start_matching)
    dual = planar_dual(g, start)

    # clockwise faces are exactly the sinks of the dual, so the clockwise
    # weight rides on the sink side and the anticlockwise weight on the
    # source side
    weights = WeightPair(tuple(acw_weights), tuple(cw_weights))
    cert = max_source_sink(dual, weights)

    drops = potential_drops(dual, cert.potential)
    final = set()
    for i in range(len(g.edges)):
        into_s = i in start  # arc direction before reorienting
        if drops[i] == 1:
            into_s = not into_s
        if into_s:
            final.add(i)
    matching = frozenset(final)
    hit = [0] * g.node_count
    for e in matching:
        s, t = g.edges[e]
        hit[s] += 1
        hit[t] += 1
    if any(h != 1 for h in hit):
        raise InvariantError("reoriented dual did not yield a perfect matching")

    cw, acw = alternating_faces(g, matching)
    if not (cert.sink_set <= cw and cert.source_set <= acw):
        raise InvariantError("reported faces are not alternating in the new matching")
    return ClarFriesResult(matching, cert.sink_set, cert.source_set, cert.value, cert)


def _one_sided_result(
    g: PlaneBipartiteGraph, cw_only: bool
) -> tuple[Weight, frozenset[int], frozenset[int]]:
    inner = tuple(1 if f != g.outer else 0 for f in range(len(g.faces)))
    zero = (0,) * len(g.faces)
    if cw_only:
        result = solve_clar_fries(g, cw_weights=inner, acw_weights=zero)
        chosen = result.cw_faces
    else:
        result = solve_clar_fries(g, cw_weights=inner, acw_weights=inner)
        chosen = result.cw_faces | result.acw_faces
    _check_node_disjoint(g, result.cw_faces)
    _check_node_disjoint(g, result.acw_faces)
    return result.value, chosen - {g.outer}, result.matching


def _check_node_disjoint(g: PlaneBipartiteGraph, faces: frozenset[int]) -> None:
    seen: set[int] = set()
    for f in faces:
        for e, toward_t in g.faces[f].boundary:
            tail = g.edges[e][0] if toward_t else g.edges[e][1]
            if tail in seen:
                raise InvariantError("same-sense alternating faces share a node")
            seen.add(tail)


def clar_number(g: PlaneBipartiteGraph) -> tuple[Weight, frozenset[int], frozenset[int]]:
    """Maximum number of node-disjoint alternating inner faces over all
    perfect matchings: (value, face set, matching)."""
    return _one_sided_result(g, cw_only=True)


def fries_number(g: PlaneBipartiteGraph) -> tuple[Weight, frozenset[int], frozenset[int]]:
    """Maximum number of alternating inner faces over all perfect
    matchings: (value, face set, matching)."""
    return _one_sided_result(g, cw_only=False)
