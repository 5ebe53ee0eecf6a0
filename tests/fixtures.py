"""Shared test fixtures: small digraphs, fused-hexagon plane graphs, and
the random instance generators of ``clarfries.oracle``."""

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
    dual = solve_clar_fries(g).dual.digraph
    return dual, random_weight_pair(random.Random(2428), dual.node_count)


def inner_indicator(g: PlaneBipartiteGraph) -> tuple[int, ...]:
    return tuple(1 if f != g.outer else 0 for f in range(len(g.faces)))
