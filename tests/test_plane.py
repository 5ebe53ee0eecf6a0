import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarfries import (
    Digraph,
    InputError,
    InvariantError,
    alternating_faces,
    brute_clar_fries,
    clar_number,
    enumerate_matchings,
    fries_number,
    orient_by_matching,
    parse_validate,
    perfect_matching,
    planar_dual,
    plane,
    solve_clar_fries,
)
from clarfries.plane import (
    EdgeSideMismatchError,
    EulerError,
    FaceBoundaryError,
    NonBipartiteError,
    NoPerfectMatchingError,
    NotTwoConnectedError,
)
from fixtures import (
    ANTHRACENE_CENTERS,
    BENZENE_CENTERS,
    HALL_VIOLATION,
    NAPHTHALENE_CENTERS,
    PHENANTHRENE_CENTERS,
    PYRENE_CENTERS,
    benzene,
    benzenoid,
    benzenoid_catalog,
    naphthalene,
    random_map,
    random_polyhex_centers,
    torus_grid,
)

HEXAGON = {
    "S": ["u0", "u2", "u4"],
    "T": ["u1", "u3", "u5"],
    "edges": [
        ["u0", "u1"], ["u2", "u1"], ["u2", "u3"],
        ["u4", "u3"], ["u4", "u5"], ["u0", "u5"],
    ],
    "faces": [
        {"id": "inner", "boundary": [[0, "+"], [1, "-"], [2, "+"], [3, "-"], [4, "+"], [5, "-"]]},
        {"id": "outer", "boundary": [[5, "+"], [4, "-"], [3, "+"], [2, "-"], [1, "+"], [0, "-"]]},
    ],
    "outer": "outer",
    "w1": {"inner": 5},
    "w2": {"inner": 3},
}

THETA = {
    "S": ["u", "w"],
    "T": ["m1", "m2", "m3"],
    "edges": [["u", "m1"], ["w", "m1"], ["u", "m2"], ["w", "m2"], ["u", "m3"], ["w", "m3"]],
    "faces": [
        {"id": "f0", "boundary": [[4, "+"], [5, "-"], [1, "+"], [0, "-"]]},
        {"id": "f1", "boundary": [[0, "+"], [1, "-"], [3, "+"], [2, "-"]]},
        {"id": "f2", "boundary": [[2, "+"], [3, "-"], [5, "+"], [4, "-"]]},
    ],
    "outer": "f0",
}


def test_parse_accepts_dict_and_json_string():
    g1 = parse_validate(HEXAGON)
    # the caller decodes JSON text: a string is not a plane graph object
    with pytest.raises(InputError, match="^plane graph input must be a JSON object$"):
        parse_validate(json.dumps(HEXAGON))
    assert g1.cw_weights == (5, 0)
    assert g1.acw_weights == (3, 0)
    assert g1.outer == 1 and len(g1.face_names) == 2
    assert g1.node_name(0) == "u0"


def test_parse_rejects_bad_shapes():
    for mutate in (
        lambda d: d.pop("S"),
        lambda d: d["edges"].append(["u0"]),
        lambda d: d["faces"].append({"id": "x"}),
        lambda d: d["faces"][0]["boundary"].append([0, "?"]),
        lambda d: d.update(outer="nope"),
        lambda d: d.update(w1={"ghost": 1}),
        lambda d: d.update(w1={"inner": -2}),
        lambda d: d["T"].append("u0"),
    ):
        data = json.loads(json.dumps(HEXAGON))
        mutate(data)
        with pytest.raises(InputError):
            parse_validate(data)


def test_parse_rejects_non_bipartite_edge():
    for edge in (["u0", "u2"], ["u1", "u0"]):
        data = json.loads(json.dumps(HEXAGON))
        data["edges"][0] = edge
        with pytest.raises(NonBipartiteError):
            parse_validate(data)


def test_parse_rejects_broken_walk():
    data = json.loads(json.dumps(HEXAGON))
    data["faces"][0]["boundary"][0][1] = "-"
    with pytest.raises(FaceBoundaryError):
        parse_validate(data)


def test_parse_rejects_reused_side():
    data = json.loads(json.dumps(HEXAGON))
    data["faces"][1] = dict(data["faces"][0])
    data["faces"][1]["id"] = "outer"
    with pytest.raises(EdgeSideMismatchError):
        parse_validate(data)


def test_parse_rejects_bridge():
    k2 = {
        "S": ["s1"], "T": ["t1"], "edges": [["s1", "t1"]],
        "faces": [{"id": "f0", "boundary": [[0, "+"], [0, "-"]]}],
        "outer": "f0",
    }
    with pytest.raises(NotTwoConnectedError):
        parse_validate(k2)


def test_parse_rejects_unbalanced_sides():
    with pytest.raises(NoPerfectMatchingError):
        parse_validate(THETA)


# two hexagons glued at two opposite nodes (u0 and u3): every face walk,
# the Euler count and 2-connectivity check out, but the faces form two
# spheres touching at two points, and the dual is disconnected
TWO_GLUED_HEXAGONS = {
    "S": ["u0", "u2", "u4", "v2", "v4"],
    "T": ["u1", "u3", "u5", "v1", "v5"],
    "edges": HEXAGON["edges"] + [
        ["u0", "v1"], ["v2", "v1"], ["v2", "u3"],
        ["v4", "u3"], ["v4", "v5"], ["u0", "v5"],
    ],
    "faces": HEXAGON["faces"] + [
        {"id": "inner2", "boundary": [[6, "+"], [7, "-"], [8, "+"], [9, "-"], [10, "+"], [11, "-"]]},
        {"id": "outer2", "boundary": [[11, "+"], [10, "-"], [9, "+"], [8, "-"], [7, "+"], [6, "-"]]},
    ],
    "outer": "outer",
}


def test_parse_rejects_faces_on_two_surfaces():
    with pytest.raises(FaceBoundaryError, match="one connected surface"):
        parse_validate(TWO_GLUED_HEXAGONS)


def _reference_two_connected(g):
    """The lowpoint depth-first search (Hopcroft and Tarjan, 1973) that
    validation ran before its isolated-node check, kept as a test-only
    reference: raises :class:`NotTwoConnectedError` if ``g`` is
    disconnected or, with more than two nodes, has a cut node."""
    n = g.node_count
    adj = [[] for _ in range(n)]
    for i, (s, t) in enumerate(g.edges):
        adj[s].append((t, i))
        adj[t].append((s, i))
    # iterative DFS computing lowpoints; parallel edges are distinct
    visited = [False] * n
    disc = [0] * n
    low = [0] * n
    timer = 0
    stack = [(0, -1, 0)]  # node, entry edge, adj pos
    order = []
    root_children = 0
    articulation = False
    while stack:
        v, pedge, i = stack.pop()
        if i == 0:
            visited[v] = True
            disc[v] = low[v] = timer
            timer += 1
        if i < len(adj[v]):
            stack.append((v, pedge, i + 1))
            w, e = adj[v][i]
            if e == pedge:
                continue
            if visited[w]:
                low[v] = min(low[v], disc[w])
            else:
                order.append((v, w))
                if v == 0:
                    root_children += 1
                stack.append((w, e, 0))
    # fold lowpoints back up in reverse DFS-tree order
    for v, w in reversed(order):
        low[v] = min(low[v], low[w])
        if v != 0 and low[w] >= disc[v]:
            articulation = True
    if not all(visited):
        raise NotTwoConnectedError("graph is disconnected")
    if root_children > 1:
        articulation = True
    if articulation and n > 2:
        raise NotTwoConnectedError("graph has a cut node")


def _merged(data, rng, isolated):
    """A copy of ``data`` with two S-nodes made one, which pinches the
    surface there when they share no face, and ``isolated`` nodes on no
    edge added."""
    data = json.loads(json.dumps(data))
    gone, kept = rng.sample(data["S"], 2)
    data["S"].remove(gone)
    data["edges"] = [[kept if x == gone else x for x in pair] for pair in data["edges"]]
    data["S"] += [f"x{k}" for k in range(0, isolated, 2)]
    data["T"] += [f"x{k}" for k in range(1, isolated, 2)]
    return data


def test_face_checks_imply_two_connected(monkeypatch):
    # every graph that validation accepts passes the lowpoint search: the
    # catalog, random polyhexes, random maps on any surface, and some of
    # each with two nodes merged and up to two isolated nodes added; the
    # matching search is stubbed out so graphs without a perfect matching
    # count too
    monkeypatch.setattr(plane, "perfect_matching", lambda g: frozenset())
    rng = random.Random(5150)
    inputs = [benzenoid(c) for c in (
        BENZENE_CENTERS, NAPHTHALENE_CENTERS, ANTHRACENE_CENTERS,
        PHENANTHRENE_CENTERS, PYRENE_CENTERS,
    )]
    while len(inputs) < 85:
        try:
            inputs.append(benzenoid(random_polyhex_centers(rng, rng.randint(2, 12))))
        except AssertionError:
            continue
    inputs += [random_map(rng) for _ in range(1500)]
    inputs += [
        _merged(data, rng, k)
        for data in inputs[:185] if len(data["S"]) > 1 for k in (0, 1, 2)
    ]
    outcomes = {}
    for data in inputs:
        try:
            g = parse_validate(data)
        except InputError as exc:
            outcome = str(exc) if isinstance(exc, NotTwoConnectedError) else type(exc).__name__
        else:
            _reference_two_connected(g)
            outcome = "accepted"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert outcomes["accepted"] >= 100
    # merged polyhexes with one isolated node pass the Euler check and
    # reach the isolated-node check
    assert outcomes["graph is disconnected"] >= 10


def test_torus_grid_passes_euler_only_with_two_isolated_nodes():
    with pytest.raises(NotTwoConnectedError, match="graph is disconnected"):
        parse_validate(torus_grid(4, 4, 2))
    for isolated in (0, 1, 3):
        with pytest.raises(EulerError):
            parse_validate(torus_grid(4, 4, isolated))


# two hexagons sharing only the node u0: the outer face walks around both
# and passes u0 twice
HEXAGONS_AT_A_CUT_NODE = {
    "S": ["u0", "u2", "u4", "v2", "v4"],
    "T": ["u1", "u3", "u5", "v1", "v3", "v5"],
    "edges": HEXAGON["edges"] + [
        ["u0", "v1"], ["v2", "v1"], ["v2", "v3"],
        ["v4", "v3"], ["v4", "v5"], ["u0", "v5"],
    ],
    "faces": [
        HEXAGON["faces"][0],
        {"id": "inner2", "boundary": [[6, "+"], [7, "-"], [8, "+"], [9, "-"], [10, "+"], [11, "-"]]},
        {"id": "outer", "boundary": HEXAGON["faces"][1]["boundary"] + [
            [11, "+"], [10, "-"], [9, "+"], [8, "-"], [7, "+"], [6, "-"]]},
    ],
    "outer": "outer",
}


def _hexagon_with(mutate):
    data = json.loads(json.dumps(HEXAGON))
    mutate(data)
    return data


def _set_boundary_side(side):
    def mutate(d):
        d["faces"][0]["boundary"][0] = side
    return mutate


def _rename_node(data, old, new):
    data["S"] = [new if x == old else x for x in data["S"]]
    data["edges"] = [[new if x == old else x for x in pair] for pair in data["edges"]]


def _drop_inner_face(d):
    del d["faces"][0], d["w1"], d["w2"]


# one input per check of parse_validate, each breaking that check alone,
# with the error class and message the parser reports
REJECTIONS = [
    ("{", InputError, "plane graph input must be a JSON object"),
    ([], InputError, "plane graph input must be a JSON object"),
    (_hexagon_with(lambda d: d.pop("outer")), InputError, "missing key 'outer'"),
    (_hexagon_with(lambda d: d.update(S="u0")), InputError, "'S' must be a list"),
    (_hexagon_with(lambda d: d["T"].__setitem__(0, 7)), InputError, "bad node name 7"),
    (_hexagon_with(lambda d: _rename_node(d, "u0", "")), InputError, "bad node name ''"),
    (_hexagon_with(lambda d: d["T"].append("u0")), InputError, "duplicate node name 'u0'"),
    (_hexagon_with(lambda d: d["edges"].__setitem__(0, ["u0"])), InputError,
     "edge 0 must be a [from, to] pair"),
    (_hexagon_with(lambda d: d["edges"].__setitem__(2, ["u2", 3])), InputError,
     "edge 2 references unknown node"),
    (_hexagon_with(lambda d: d.update(edges=[])), InputError,
     "graph needs nonempty S, T, and edge list"),
    (_hexagon_with(lambda d: d["edges"].__setitem__(0, ["u1", "u0"])), NonBipartiteError,
     "edge 0: first endpoint must be an S-node"),
    (_hexagon_with(lambda d: d["edges"].__setitem__(0, ["u0", "u2"])), NonBipartiteError,
     "edge 0: second endpoint must be a T-node"),
    (_hexagon_with(lambda d: d["faces"].append({"id": "x"})), InputError,
     "each face needs a string 'id' and a 'boundary'"),
    (_hexagon_with(lambda d: d["faces"][0].update(boundary="0+")), InputError,
     "face 'inner': boundary must be a list"),
    (_hexagon_with(_set_boundary_side([0])), InputError, "face 'inner': bad boundary side [0]"),
    (_hexagon_with(_set_boundary_side([True, "+"])), InputError,
     "face 'inner': edge True is not an edge index"),
    (_hexagon_with(_set_boundary_side([0, "?"])), InputError, "face 'inner': bad side sign '?'"),
    (_hexagon_with(lambda d: d.update(outer="nope")), InputError,
     "outer face 'nope' not among faces"),
    (_hexagon_with(lambda d: d.update(w1=[5])), InputError,
     "w1 must be a map from face name to weight"),
    (_hexagon_with(lambda d: d.update(w1={"ghost": 1})), InputError,
     "w1 references unknown face 'ghost'"),
    (_hexagon_with(lambda d: d.update(w2={"inner": -2})), InputError,
     "w2[inner]: weight must be nonnegative"),
    (_hexagon_with(lambda d: d.update(w2={"inner": "x"})), InputError,
     "w2[inner]: cannot parse weight 'x'"),
    (dict(THETA, faces=THETA["faces"][:2] + [dict(THETA["faces"][2], id="f1")]),
     InputError, "duplicate face id 'f1'"),
    (_hexagon_with(lambda d: d["faces"].append({"id": "x", "boundary": []})),
     FaceBoundaryError, "face 'x' has an empty boundary"),
    (_hexagon_with(lambda d: d["faces"][0]["boundary"].append([6, "+"])), FaceBoundaryError,
     "face 'inner' references unknown edge 6"),
    (_hexagon_with(_set_boundary_side([-1, "+"])), FaceBoundaryError,
     "face 'inner' references unknown edge -1"),
    (_hexagon_with(lambda d: d["faces"].__setitem__(1, dict(d["faces"][0], id="outer"))),
     EdgeSideMismatchError, "edge 0 walked twice in the same direction"),
    (_hexagon_with(_set_boundary_side([0, "-"])), FaceBoundaryError,
     "face 'inner' boundary is not a closed walk at step 0"),
    (HEXAGONS_AT_A_CUT_NODE, FaceBoundaryError, "face 'outer' boundary revisits node u0"),
    (_hexagon_with(_drop_inner_face), EdgeSideMismatchError, "edge 0 never walked S->T"),
    (_hexagon_with(lambda d: d.update(faces=d["faces"][:1], outer="inner")),
     EdgeSideMismatchError, "edge 0 never walked T->S"),
    (_hexagon_with(lambda d: d["edges"].append(["u0", "u3"])), EdgeSideMismatchError,
     "edge 6 never walked S->T"),
    ({"S": ["s1"], "T": ["t1"], "edges": [["s1", "t1"]],
      "faces": [{"id": "f0", "boundary": [[0, "+"], [0, "-"]]}], "outer": "f0"},
     NotTwoConnectedError, "edge 0 is a bridge"),
    (TWO_GLUED_HEXAGONS, FaceBoundaryError, "faces do not form one connected surface"),
    (torus_grid(4, 4, 0), EulerError, "Euler check failed: 16 - 32 + 16 != 2"),
    (torus_grid(4, 4, 2), NotTwoConnectedError, "graph is disconnected"),
    (THETA, NoPerfectMatchingError, "|S| = 2 != |T| = 3"),
    (HALL_VIOLATION, NoPerfectMatchingError,
     "graph has no perfect matching: the 3 S-nodes ['b1', 'b2', 'b3'] have only 2 "
     "T-neighbours ['y1', 'y2']"),
]


def test_each_rejection_keeps_its_class_and_message():
    got = []
    for data, _, _ in REJECTIONS:
        with pytest.raises(InputError) as info:
            parse_validate(data)
        got.append((info.type, str(info.value)))
    assert got == [(cls, message) for _, cls, message in REJECTIONS]


def test_json_string_too_deep_to_read_is_input_error():
    # a string is never decoded here; the CLI's reader turns JSON text
    # nested too deep into an input error (tests/test_cli.py)
    with pytest.raises(InputError) as info:
        parse_validate("[" * 100_000)
    assert info.type is InputError
    assert str(info.value) == "plane graph input must be a JSON object"


# --- matchings, orientation, dual ---------------------------------------------


def _reference_matching(g):
    """The recursive augmenting-path search that ``perfect_matching``
    replaced, kept as a test-only reference: S-nodes in index order, each
    with a fresh ``seen`` list, adjacency in edge order.  It recurses once
    per step of an augmenting path, so it overflows the stack on long
    acenes."""
    ns = g.s_count
    nt = g.node_count - ns
    if ns != nt:
        raise NoPerfectMatchingError(f"|S| = {ns} != |T| = {nt}")
    adj = [[] for _ in range(ns)]
    for i, (s, t) in enumerate(g.edges):
        adj[s].append((t - ns, i))
    match_t = [-1] * nt
    match_s = [-1] * ns

    def augment(s, seen):
        for t, e in adj[s]:
            if seen[t]:
                continue
            seen[t] = True
            if match_t[t] == -1 or augment(g.edges[match_t[t]][0], seen):
                match_t[t] = e
                match_s[s] = e
                return True
        return False

    for s in range(ns):
        if not augment(s, [False] * nt):
            raise NoPerfectMatchingError("graph has no perfect matching")
    return frozenset(match_s)


def _assert_perfect(g, m):
    covered = set()
    for e in m:
        u, v = g.edges[e]
        assert u not in covered and v not in covered
        covered.update((u, v))
    assert len(covered) == g.node_count


def _matching_outcome(data):
    """Whether the validated graph has a perfect matching (checked to be
    perfect), else the ``NoPerfectMatchingError`` message."""
    try:
        g = parse_validate(data)
    except NoPerfectMatchingError as exc:
        # the reference names no Hall violation after the colon
        return str(exc).split(":")[0]
    _assert_perfect(g, g.matching)
    return "perfect"


def test_perfect_matching_is_perfect():
    for g in (g for _, g in benzenoid_catalog()):
        m = perfect_matching(g)
        _assert_perfect(g, m)
        assert m == g.matching


def test_matching_agrees_with_reference_on_random_polyhexes(monkeypatch):
    rng = random.Random(4242)
    inputs = []
    while len(inputs) < 60:
        try:
            # holes (coronoids) make a second clockwise face and are skipped
            inputs.append(benzenoid(random_polyhex_centers(rng, rng.randint(2, 12))))
        except AssertionError:
            continue
    fast = [_matching_outcome(data) for data in inputs]
    monkeypatch.setattr(plane, "perfect_matching", _reference_matching)
    assert [_matching_outcome(data) for data in inputs] == fast
    # both kinds occur: polyhexes with and without a perfect matching
    assert "perfect" in fast and len(set(fast)) > 1


def test_matching_equals_reference_on_benchmark_shapes():
    # the hexagon parallelograms and acenes (1 x m) that perfbench solves;
    # their outputs stay byte-identical only if the start matching does.
    # Elsewhere the two searches may pick different perfect matchings
    # (benzene, naphthalene and anthracene among them).
    sides = (2, 6, 12, 19, 26)
    shapes = [(n, m) for n in sides for m in sides]
    shapes += [(1, m) for m in (2, 5, 8, 12, 300)]
    for n, m in shapes:
        g = parse_validate(benzenoid([(q, r) for q in range(n) for r in range(m)]))
        _assert_perfect(g, g.matching)
        assert g.matching == _reference_matching(g), (n, m)


def test_matching_on_long_acene_needs_no_recursion():
    g = parse_validate(benzenoid([(0, r) for r in range(1500)]))
    _assert_perfect(g, g.matching)
    with pytest.raises(RecursionError):
        _reference_matching(g)


def test_no_perfect_matching_is_reported(monkeypatch):
    with pytest.raises(NoPerfectMatchingError, match=r"\|S\| = 2 != \|T\| = 3"):
        parse_validate(THETA)
    with pytest.raises(NoPerfectMatchingError, match="no perfect matching"):
        parse_validate(HALL_VIOLATION)
    # every other check passes: with the matching search stubbed out the
    # graph validates, and both searches then reject it
    monkeypatch.setattr(plane, "perfect_matching", lambda g: frozenset())
    g = parse_validate(HALL_VIOLATION)
    monkeypatch.undo()
    for search in (perfect_matching, _reference_matching):
        with pytest.raises(NoPerfectMatchingError, match="no perfect matching"):
            search(g)


def _assert_hall_violation(g, exc):
    """``exc`` names S-nodes whose T-neighbours are exactly its T-nodes and
    fewer than they are."""
    ns = g.s_count
    xs, nx = exc.s_nodes, exc.t_nodes
    assert xs and all(v < ns for v in xs)
    assert {t for s, t in g.edges if s in xs} == nx
    assert len(nx) < len(xs)
    names = sorted(g.node_name(v) for v in xs)
    assert f"the {len(xs)} S-nodes {names!r} have only {len(nx)} T-neighbours" in str(exc)


def test_no_perfect_matching_names_a_hall_violation(monkeypatch):
    """The S-nodes that the last phase reaches from the free ones have
    fewer T-neighbours than their own number: on ``HALL_VIOLATION`` and on
    random bipartite graphs with |S| = |T|, where the reference search
    finds no perfect matching exactly when the error is raised.
    (``random_map``'s graphs, with at most three nodes a side, give no
    such rejection: 40,000 draws gave none.)"""
    monkeypatch.setattr(plane, "perfect_matching", lambda g: frozenset())
    graphs = [parse_validate(HALL_VIOLATION)]
    monkeypatch.undo()
    rng = random.Random(2718)
    for _ in range(400):
        k = rng.randint(1, 6)
        g = object.__new__(plane.PlaneBipartiteGraph)
        g.s_names = tuple(f"s{i}" for i in range(k))
        g.t_names = tuple(f"t{i}" for i in range(k))
        g.edges = tuple(
            (rng.randrange(k), k + rng.randrange(k)) for _ in range(rng.randint(0, 2 * k))
        )
        graphs.append(g)
    violations = 0
    for g in graphs:
        try:
            _assert_perfect(g, perfect_matching(g))
        except NoPerfectMatchingError as exc:
            _assert_hall_violation(g, exc)
            violations += 1
            with pytest.raises(NoPerfectMatchingError):
                _reference_matching(g)
        else:
            _reference_matching(g)
    assert violations > 100


def test_orientation_degrees():
    # matched edges point into S, so S nodes get exactly one entering arc
    for g in (g for _, g in benzenoid_catalog()):
        m = perfect_matching(g)
        indeg = [0] * g.node_count
        outdeg = [0] * g.node_count
        oriented = orient_by_matching(g, m)
        for u, v in zip(oriented.tails, oriented.heads):
            outdeg[u] += 1
            indeg[v] += 1
        for v in range(g.node_count):
            if v < g.s_count:
                assert indeg[v] == 1
            else:
                assert outdeg[v] == 1


def test_hexagon_dual_is_parallel():
    g = parse_validate(HEXAGON)
    assert planar_dual(g, frozenset({1, 3, 5})) == Digraph(2, [(0, 1)] * 6)
    assert planar_dual(g, frozenset({0, 2, 4})) == Digraph(2, [(1, 0)] * 6)


def test_enumerate_matchings_counts():
    counts = {"benzene": 2, "naphthalene": 3, "anthracene": 4,
              "phenanthrene": 5, "pyrene": 6}
    for name, g in benzenoid_catalog():
        seen = list(enumerate_matchings(g))
        assert len(seen) == counts[name]
        assert len(set(seen)) == len(seen)


def test_alternating_faces_naphthalene():
    g = naphthalene()
    outer = g.outer
    per_matching = []
    for m in enumerate_matchings(g):
        cw, acw = alternating_faces(g, m)
        per_matching.append((cw, acw))
    # one matching leaves both hexagons alternating with opposite senses
    both = [
        (cw, acw)
        for cw, acw in per_matching
        if len((cw | acw) - {outer}) == 2
    ]
    assert len(both) == 1
    cw, acw = both[0]
    assert len(cw - {outer}) == 1 and len(acw - {outer}) == 1


def test_same_sense_faces_are_node_disjoint():
    for g in (g for _, g in benzenoid_catalog()):
        for m in enumerate_matchings(g):
            cw, acw = alternating_faces(g, m)
            for group in (cw, acw):
                seen = set()
                for f in group:
                    nodes = set()
                    for side in g.boundaries[f]:
                        nodes.update(g.edges[side >> 1])
                    assert seen.isdisjoint(nodes)
                    seen |= nodes


# --- weighted solve -------------------------------------------------------------


def test_hexagon_calibration():
    g = parse_validate(HEXAGON)
    res = solve_clar_fries(g, cw_weights=g.cw_weights, acw_weights=g.acw_weights)
    assert res.value == 5
    assert res.cw_faces == frozenset({0})
    assert res.acw_faces == frozenset()

    swapped = solve_clar_fries(g, cw_weights=g.acw_weights, acw_weights=g.cw_weights)
    assert swapped.value == 5
    assert swapped.acw_faces == frozenset({0})


def test_solution_value_matches_alternating_weight():
    g = naphthalene()
    rng = random.Random(2)
    for _ in range(10):
        cw = [rng.randrange(0, 4) for _ in g.face_names]
        acw = [rng.randrange(0, 4) for _ in g.face_names]
        res = solve_clar_fries(g, cw_weights=cw, acw_weights=acw)
        got_cw, got_acw = alternating_faces(g, res.matching)
        assert res.cw_faces <= got_cw and res.acw_faces <= got_acw
        assert res.value == sum(cw[f] for f in res.cw_faces) + sum(
            acw[f] for f in res.acw_faces
        )
        brute_value = brute_clar_fries(g, cw, acw)[0]
        assert res.value == brute_value


def test_start_matching_does_not_change_value():
    g = naphthalene()
    cw = [1, 2, 0]
    acw = [2, 1, 0]
    values = set()
    for m in enumerate_matchings(g):
        res = solve_clar_fries(g, cw_weights=cw, acw_weights=acw, start_matching=m)
        values.add(res.value)
        assert len(res.matching) * 2 == g.node_count
    assert len(values) == 1


@st.composite
def weighted_kekulean_polyhexes(draw):
    """A catalog benzenoid or a seeded random polyhex of 2 to 7 hexagons
    with a perfect matching, and face weights 0..3 on both sides."""
    if draw(st.booleans()):
        g = draw(st.sampled_from([g for _, g in benzenoid_catalog()]))
    else:
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        size = draw(st.integers(2, 7))
        while True:
            try:
                g = parse_validate(benzenoid(random_polyhex_centers(rng, size)))
                break
            except (AssertionError, NoPerfectMatchingError):
                continue  # a coronoid, or no perfect matching
    side = st.lists(st.integers(0, 3), min_size=len(g.face_names), max_size=len(g.face_names))
    return g, draw(side), draw(side)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(weighted_kekulean_polyhexes())
def test_every_start_matching_gives_the_optimum_property(instance):
    g, cw, acw = instance
    best = brute_clar_fries(g, cw, acw)[0]
    for m in enumerate_matchings(g):
        res = solve_clar_fries(g, cw_weights=cw, acw_weights=acw, start_matching=m)
        assert res.value == best
        assert res.value == sum(cw[f] for f in res.cw_faces) + sum(acw[f] for f in res.acw_faces)


def _flip_edge_zero(d, potential):
    """Drops that reorient dual arc 0 alone, which no perfect matching
    allows: the final matching gains or loses edge 0 only."""
    return (1,) + (0,) * (d.arc_count - 1)


def test_imperfect_final_matching_is_an_invariant_error(monkeypatch):
    monkeypatch.setattr(plane, "potential_drops", _flip_edge_zero)
    for _, g in benzenoid_catalog():
        with pytest.raises(InvariantError, match="perfect matching"):
            solve_clar_fries(g)


def test_rational_weights():
    g = naphthalene()
    cw = [Fraction(1, 2), Fraction(3, 2), 0]
    acw = [Fraction(1, 3), Fraction(2, 3), 0]
    res = solve_clar_fries(g, cw_weights=cw, acw_weights=acw)
    brute_value = brute_clar_fries(g, cw, acw)[0]
    assert res.value == brute_value
    assert isinstance(res.value, (int, Fraction))


def test_weight_validation():
    g = benzene()
    with pytest.raises(InputError):
        solve_clar_fries(g, cw_weights=[1], acw_weights=[0, 0])
    with pytest.raises(InputError):
        solve_clar_fries(g, cw_weights=[-1, 0], acw_weights=[0, 0])


# --- Clar and Fries numbers -----------------------------------------------------


def test_catalog_clar_fries_numbers():
    expected = {
        "benzene": (1, 1),
        "naphthalene": (1, 2),
        "anthracene": (1, 2),
        "phenanthrene": (2, 3),
        "pyrene": (2, 3),
    }
    for name, g in benzenoid_catalog():
        clar, fries = clar_number(g), fries_number(g)
        cfaces = clar.cw_faces | clar.acw_faces
        ffaces = fries.cw_faces | fries.acw_faces
        assert (clar.value, fries.value) == expected[name], name
        assert g.outer not in cfaces and g.outer not in ffaces
        assert len(cfaces) == clar.value
        # reported matchings are perfect
        assert len(clar.matching) * 2 == g.node_count
        assert len(fries.matching) * 2 == g.node_count
        # every reported face is alternating under the reported matching
        cw, acw = alternating_faces(g, clar.matching)
        assert cfaces <= cw
        fcw, facw = alternating_faces(g, fries.matching)
        assert ffaces <= fcw | facw


def test_catalog_clar_results_have_no_anticlockwise_faces():
    """A Clar solve weighs every anticlockwise face 0, and a pair holds
    positive-weight nodes only, so the face set ``cw_faces | acw_faces``
    that ``clar`` prints is the clockwise class alone."""
    for name, g in benzenoid_catalog():
        result = clar_number(g)
        assert result.acw_faces == frozenset(), name
        assert len(result.cw_faces) == result.value, name


def test_clar_fries_match_oracle_exactly():
    for g in (g for _, g in benzenoid_catalog()):
        cw_ind = [int(f != g.outer) for f in range(len(g.face_names))]
        zero = [0] * len(g.face_names)
        assert clar_number(g).value == brute_clar_fries(g, cw_ind, zero)[0]
        assert fries_number(g).value == brute_clar_fries(g, cw_ind, cw_ind)[0]
