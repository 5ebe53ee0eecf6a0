"""Shared test fixtures: small digraphs, fused-hexagon plane graphs, torus
grids, a plane graph without a perfect matching, random maps, and the
random instance generators of ``clarfries.oracle``."""

from __future__ import annotations

import math
import random

from clarfries import Digraph, PlaneBipartiteGraph, parse_validate, solve_clar_fries
from clarfries.oracle import random_digraph, random_weight_pair  # noqa: F401

BOWTIE_NAMES = ("a1", "a2", "a3", "x", "b1", "b2", "b3")
# two directed circuits sharing only x; b1 is the unique source, a1 the sink
BOWTIE_ARCS = (
    ("x", "a1"),
    ("a2", "a1"),
    ("a3", "a2"),
    ("x", "a3"),
    ("b1", "x"),
    ("b1", "b2"),
    ("b2", "b3"),
    ("b3", "x"),
)


def bowtie() -> tuple[Digraph, tuple[str, ...]]:
    ix = {n: i for i, n in enumerate(BOWTIE_NAMES)}
    return (
        Digraph(7, [(ix[u], ix[v]) for u, v in BOWTIE_ARCS]),
        BOWTIE_NAMES,
    )


def bowtie_nodes(*names: str) -> frozenset[int]:
    ix = {n: i for i, n in enumerate(BOWTIE_NAMES)}
    return frozenset(ix[n] for n in names)


def single_arc() -> Digraph:
    return Digraph(2, [(0, 1)])


def two_cycle() -> Digraph:
    return Digraph(2, [(0, 1), (1, 0)])


def acyclic_triangle() -> Digraph:
    return Digraph(3, [(0, 1), (0, 2), (1, 2)])


def arc_pairs(d: Digraph) -> list[tuple[int, int]]:
    """The arcs of ``d`` as ``(tail, head)`` pairs, for tests that index or
    search them."""
    return list(zip(d.tails, d.heads))


def random_closed_walk(rng: random.Random, d: Digraph) -> list[int]:
    """Arc ids of a closed walk in ``d``, found by following random out-arcs
    from a random node until a node repeats.  Every node of ``d`` needs an
    out-arc, as in a doubled graph."""
    out = [[] for _ in range(d.node_count)]
    for j, (u, _) in enumerate(zip(d.tails, d.heads)):
        out[u].append(j)
    start = rng.randrange(d.node_count)
    seen = {start: 0}
    path = []
    at = start
    while True:
        j = rng.choice(out[at])
        path.append(j)
        at = d.heads[j]
        if at in seen:
            return path[seen[at]:]
        seen[at] = len(path)


# -- fused-hexagon plane graphs -----------------------------------------

def benzenoid(centers: list[tuple[int, int]]) -> dict:
    """Plane-graph JSON for a union of edge-fused unit hexagons.

    ``centers`` are axial lattice coordinates.  Faces are traced from the
    rotation system given by the drawing, with every bounded face walked
    counterclockwise, so interiors lie on the walk's left as required.
    """
    pts: dict[tuple[float, float], int] = {}
    coords: list[tuple[float, float]] = []
    edge_set = set()
    hex_corners = []
    for q, r in centers:
        cx = math.sqrt(3.0) * (q + r / 2.0)
        cy = 1.5 * r
        corners = []
        for k in range(6):
            ang = math.pi / 6 + k * math.pi / 3
            p = (round(cx + math.cos(ang), 6), round(cy + math.sin(ang), 6))
            if p not in pts:
                pts[p] = len(coords)
                coords.append(p)
            corners.append(pts[p])
        hex_corners.append(corners)
        for k in range(6):
            a, b = corners[k], corners[(k + 1) % 6]
            edge_set.add((min(a, b), max(a, b)))

    n = len(coords)
    edges = sorted(edge_set)
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    for v in range(n):
        vx, vy = coords[v]
        neighbors[v].sort(key=lambda w: math.atan2(coords[w][1] - vy, coords[w][0] - vx))

    # trace faces: next side after u->v leaves v toward the predecessor of u
    # in the counterclockwise neighbor order at v
    def next_side(u: int, v: int) -> tuple[int, int]:
        ring = neighbors[v]
        i = ring.index(u)
        return v, ring[i - 1]

    remaining = {(a, b) for a, b in edges} | {(b, a) for a, b in edges}
    traced: list[list[tuple[int, int]]] = []
    while remaining:
        start = min(remaining)
        walk = [start]
        remaining.discard(start)
        cur = next_side(*start)
        while cur != start:
            walk.append(cur)
            remaining.discard(cur)
            cur = next_side(*cur)
        traced.append(walk)

    def area(walk: list[tuple[int, int]]) -> float:
        s = 0.0
        for u, v in walk:
            s += coords[u][0] * coords[v][1] - coords[v][0] * coords[u][1]
        return s / 2.0

    outers = [i for i, w in enumerate(traced) if area(w) < 0]
    assert len(outers) == 1, "expected exactly one clockwise (outer) face"
    outer = outers[0]

    color = [None] * n
    color[0] = 0
    queue = [0]
    while queue:
        v = queue.pop()
        for w in neighbors[v]:
            if color[w] is None:
                color[w] = 1 - color[v]
                queue.append(w)
    s_nodes = [v for v in range(n) if color[v] == 0]
    t_nodes = [v for v in range(n) if color[v] == 1]
    name = {}
    for i, v in enumerate(s_nodes):
        name[v] = f"s{i}"
    for i, v in enumerate(t_nodes):
        name[v] = f"t{i}"

    edge_index = {}
    edge_list = []
    for a, b in edges:
        s, t = (a, b) if color[a] == 0 else (b, a)
        edge_index[(a, b)] = len(edge_list)
        edge_index[(b, a)] = len(edge_list)
        edge_list.append([name[s], name[t]])

    faces = []
    for i, walk in enumerate(traced):
        boundary = []
        for u, v in walk:
            e = edge_index[(u, v)]
            boundary.append([e, "+" if color[u] == 0 else "-"])
        faces.append({"id": f"f{i}", "boundary": boundary})

    return {
        "S": [name[v] for v in s_nodes],
        "T": [name[v] for v in t_nodes],
        "edges": edge_list,
        "faces": faces,
        "outer": f"f{outer}",
        "w1": {},
        "w2": {},
    }


def random_polyhex_centers(rng: random.Random, size: int) -> list[tuple[int, int]]:
    """``size`` edge-fused hexagons grown at random from one, as axial
    centers for ``benzenoid``.  Some enclose a hole (a coronoid), which
    ``benzenoid`` refuses with an ``AssertionError``."""
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))
    centers = [(0, 0)]
    while len(centers) < size:
        q, r = rng.choice(centers)
        dq, dr = rng.choice(steps)
        if (q + dq, r + dr) not in centers:
            centers.append((q + dq, r + dr))
    return centers


def torus_grid(a: int, b: int, isolated: int) -> dict:
    """Plane-graph JSON for the a x b grid drawn on a torus, plus
    ``isolated`` nodes on no edge.

    Node (i, j) joins (i + 1, j) and (i, j + 1), indices mod a and mod b,
    and each square is walked once.  Every face walk is a cycle and every
    side is walked once, but n - e + f = ``isolated``, so only two isolated
    nodes pass the Euler check.
    """
    assert a % 2 == 0 and b % 2 == 0 and a >= 4 and b >= 4

    def name(i: int, j: int) -> str:
        return f"v{i % a}_{j % b}"

    def edge(i: int, j: int, up: bool) -> int:
        # edge 2k joins node k = (i, j) to (i + 1, j), edge 2k + 1 to (i, j + 1)
        return 2 * ((i % a) * b + j % b) + up

    def side(e: int, i: int, j: int) -> list:
        # walked from (i, j); S holds the nodes with i + j even
        return [e, "+" if (i + j) % 2 == 0 else "-"]

    edges = []
    for i in range(a):
        for j in range(b):
            for k, l in ((i + 1, j), (i, j + 1)):
                pair = [name(i, j), name(k, l)]
                edges.append(pair if (i + j) % 2 == 0 else pair[::-1])
    faces = [
        {"id": f"q{i}_{j}", "boundary": [
            side(edge(i, j, False), i, j),
            side(edge(i + 1, j, True), i + 1, j),
            side(edge(i, j + 1, False), i + 1, j + 1),
            side(edge(i, j, True), i, j + 1),
        ]}
        for i in range(a) for j in range(b)
    ]
    extra = [f"x{k}" for k in range(isolated)]
    return {
        "S": [name(i, j) for i in range(a) for j in range(b) if (i + j) % 2 == 0] + extra[0::2],
        "T": [name(i, j) for i in range(a) for j in range(b) if (i + j) % 2 == 1] + extra[1::2],
        "edges": edges,
        "faces": faces,
        "outer": "q0_0",
    }


# K_{2,3} (S-nodes a1, a2) and K_{3,2} (T-nodes y1, y2) drawn side by side
# and joined by the edges a1-y1 and a2-y2: a valid plane bipartite graph
# with |S| = |T| = 5 but no perfect matching, since x1, x2, x3 only see
# a1 and a2
HALL_VIOLATION = {
    "S": ["a1", "a2", "b1", "b2", "b3"],
    "T": ["x1", "x2", "x3", "y1", "y2"],
    "edges": [
        ["a1", "x1"], ["a1", "x2"], ["a1", "x3"], ["a2", "x1"], ["a2", "x2"],
        ["a2", "x3"], ["b1", "y1"], ["b2", "y1"], ["b3", "y1"], ["b1", "y2"],
        ["b2", "y2"], ["b3", "y2"], ["a1", "y1"], ["a2", "y2"],
    ],
    "faces": [
        {"id": "q1", "boundary": [[0, "+"], [3, "-"], [4, "+"], [1, "-"]]},
        {"id": "q2", "boundary": [[1, "+"], [4, "-"], [5, "+"], [2, "-"]]},
        {"id": "mid", "boundary": [[2, "+"], [5, "-"], [13, "+"], [9, "-"], [6, "+"], [12, "-"]]},
        {"id": "r1", "boundary": [[6, "-"], [9, "+"], [10, "-"], [7, "+"]]},
        {"id": "r2", "boundary": [[7, "-"], [10, "+"], [11, "-"], [8, "+"]]},
        {"id": "out", "boundary": [[12, "+"], [8, "-"], [11, "+"], [13, "-"], [3, "+"], [0, "-"]]},
    ],
    "outer": "out",
}


def random_map(rng: random.Random) -> dict:
    """Plane-graph JSON for a random map: a small connected bipartite
    multigraph with a random rotation at each node, on whatever orientable
    surface its faces span.

    Each face is traced from a side u -> v by leaving v along the side
    after v -> u in v's rotation.
    """
    s_nodes = [f"s{i}" for i in range(rng.randint(1, 3))]
    t_nodes = [f"t{i}" for i in range(rng.randint(1, 3))]
    # two parallel edges, then each further node joined by two edges to
    # nodes placed before it, so no edge is a bridge; then up to 2 more
    edges = [["s0", "t0"], ["s0", "t0"]]
    placed = ["s0", "t0"]
    rest = s_nodes[1:] + t_nodes[1:]
    rng.shuffle(rest)
    for v in rest:
        for u in rng.choices([w for w in placed if w[0] != v[0]], k=2):
            edges.append([u, v] if v[0] == "t" else [v, u])
        placed.append(v)
    for _ in range(rng.randint(0, 2)):
        edges.append([rng.choice(s_nodes), rng.choice(t_nodes)])
    # the sides (edge, toward_t) leaving each node, in a random cyclic order
    rotation: dict[str, list[tuple[int, bool]]] = {v: [] for v in placed}
    for e, (s, t) in enumerate(edges):
        rotation[s].append((e, True))
        rotation[t].append((e, False))
    for ring in rotation.values():
        rng.shuffle(ring)

    def next_side(e: int, toward_t: bool) -> tuple[int, bool]:
        ring = rotation[edges[e][toward_t]]
        return ring[(ring.index((e, not toward_t)) + 1) % len(ring)]

    remaining = {(e, d) for e in range(len(edges)) for d in (True, False)}
    faces = []
    while remaining:
        walk = [min(remaining)]
        cur = next_side(*walk[0])
        while cur != walk[0]:
            walk.append(cur)
            cur = next_side(*cur)
        remaining.difference_update(walk)
        faces.append({"id": f"f{len(faces)}",
                      "boundary": [[e, "+" if d else "-"] for e, d in walk]})
    return {"S": s_nodes, "T": t_nodes, "edges": edges, "faces": faces, "outer": "f0"}


BENZENE_CENTERS = [(0, 0)]
NAPHTHALENE_CENTERS = [(0, 0), (1, 0)]
ANTHRACENE_CENTERS = [(0, 0), (1, 0), (2, 0)]
PHENANTHRENE_CENTERS = [(0, 0), (1, 0), (1, 1)]
PYRENE_CENTERS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def benzene() -> PlaneBipartiteGraph:
    return parse_validate(benzenoid(BENZENE_CENTERS))


def naphthalene() -> PlaneBipartiteGraph:
    return parse_validate(benzenoid(NAPHTHALENE_CENTERS))


def benzenoid_catalog() -> list[tuple[str, PlaneBipartiteGraph]]:
    return [
        ("benzene", benzene()),
        ("naphthalene", naphthalene()),
        ("anthracene", parse_validate(benzenoid(ANTHRACENE_CENTERS))),
        ("phenanthrene", parse_validate(benzenoid(PHENANTHRENE_CENTERS))),
        ("pyrene", parse_validate(benzenoid(PYRENE_CENTERS))),
    ]


def parallelogram_dual(n: int, m: int):
    """The planar dual of the n x m hexagon parallelogram with seeded
    random source and sink weights 0..3: ``(digraph, WeightPair)``."""
    g = parse_validate(benzenoid([(q, r) for q in range(n) for r in range(m)]))
    dual = solve_clar_fries(g).certificate.digraph
    return dual, random_weight_pair(random.Random(2428), dual.node_count)


def reference_instances():
    """Seeded small weighted digraphs and the 24 x 28 parallelogram dual:
    ``(digraph, WeightPair)`` pairs."""
    for seed, count, nodes, arcs in ((99, 60, 6, 10), (7, 80, 7, 12)):
        rng = random.Random(seed)
        for _ in range(count):
            d = random_digraph(rng, max_nodes=nodes, max_arcs=arcs)
            yield d, random_weight_pair(rng, d.node_count)
    yield parallelogram_dual(24, 28)


def inner_indicator(g: PlaneBipartiteGraph) -> tuple[int, ...]:
    return tuple(1 if f != g.outer else 0 for f in range(len(g.face_names)))
