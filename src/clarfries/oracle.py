"""Exhaustive reference implementations for cross-checking the solvers.

Everything here enumerates: reorientations by trying every arc subset,
matchings by backtracking.  Budgets keep the blow-up honest; exceeding one
raises :class:`BudgetExceeded` rather than silently truncating.  The random
instance generators feed ``clarfries verify --random`` and the test sweeps.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

from .digraph import Digraph, sources_sinks
from .errors import BudgetExceeded, InputError
from .plane import PlaneBipartiteGraph, alternating_faces
from .record import Record
from .sourcesink import WeightPair


class OracleBudget(Record):
    _fields = __slots__ = ("max_arcs", "max_matchings")

    def __init__(self, max_arcs: int = 14, max_matchings: int = 100_000):
        super().__init__(max_arcs, max_matchings)


def random_digraph(rng: random.Random, max_nodes: int = 7, max_arcs: int = 12) -> Digraph:
    """Weakly connected by construction: a random spanning tree plus extras,
    at most ``max_arcs`` arcs in all (``max_arcs >= 1``)."""
    n = rng.randint(2, min(max_nodes, max_arcs + 1))
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


def sparse_instance(n: int, m: int, seed: int = 12) -> tuple[Digraph, WeightPair]:
    """Criterion 12's instance shape at any size: a random spanning tree on
    ``n`` nodes in shuffled order, uniform extra arcs until there are ``m``
    (``n >= 2``, ``m >= n - 1``), and source and sink weights in 0..10, all
    drawn from ``random.Random(seed)``.  The acceptance tests and
    ``tools/scale_probe.py`` build their large instances with it."""
    rng = random.Random(seed)
    arcs = []
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        prev = order[rng.randrange(i)]
        if rng.random() < 0.5:
            arcs.append((prev, order[i]))
        else:
            arcs.append((order[i], prev))
    while len(arcs) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    weights = WeightPair(
        tuple(rng.randrange(0, 11) for _ in range(n)),
        tuple(rng.randrange(0, 11) for _ in range(n)),
    )
    return Digraph(n, arcs), weights


def random_weight_pair(rng: random.Random, n: int, top: int = 3) -> WeightPair:
    return WeightPair(
        tuple(rng.randint(0, top) for _ in range(n)),
        tuple(rng.randint(0, top) for _ in range(n)),
    )


def enumerate_reorientations(
    d: Digraph, budget: OracleBudget | None = None
) -> Iterator[tuple[frozenset[int], Digraph]]:
    """Yield every (reversed arc set, reoriented digraph) reachable by
    reversing disjoint directed cuts, in increasing bitmask order.

    A subset qualifies exactly when some potential drops by 1 on it and 0
    elsewhere; since those are equality constraints, the potential is
    propagated over a spanning traversal and checked against every arc,
    which is much cheaper than a full tension solve per subset.
    """
    budget = budget or OracleBudget()
    m = d.arc_count
    if m > budget.max_arcs:
        raise BudgetExceeded(f"{m} arcs exceeds the budget of {budget.max_arcs}")
    n = d.node_count
    incidence: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    for a, (u, v) in enumerate(d.arcs):
        incidence[u].append((v, a, True))
        incidence[v].append((u, a, False))

    arcs = d.arcs
    for mask in range(1 << m):
        pot = [None] * n
        pot[0] = 0
        stack = [0]
        ok = True
        while stack and ok:
            x = stack.pop()
            px = pot[x]
            for y, a, forward in incidence[x]:
                drop = (mask >> a) & 1
                val = px + drop if forward else px - drop
                if pot[y] is None:
                    pot[y] = val
                    stack.append(y)
                elif pot[y] != val:
                    ok = False
                    break
        if not ok:
            continue
        reversed_arcs = frozenset(a for a in range(m) if (mask >> a) & 1)
        new_arcs = tuple(
            (v, u) if (mask >> a) & 1 else (u, v) for a, (u, v) in enumerate(arcs)
        )
        yield reversed_arcs, Digraph(n, new_arcs)


def brute_max_source_sink(
    d: Digraph, weights, budget: OracleBudget | None = None
) -> tuple:
    """Max over all reorientations of total source weight plus sink weight,
    with the first argmax (full source and sink sets) as witness."""
    best = None
    best_pair = None
    for _rset, dd in enumerate_reorientations(d, budget):
        so, si = sources_sinks(dd)
        value = sum(weights.source_weight[v] for v in so) + sum(
            weights.sink_weight[v] for v in si
        )
        if best is None or value > best:
            best = value
            best_pair = (so, si)
    return best, best_pair


def enumerate_matchings(
    g: PlaneBipartiteGraph, budget: OracleBudget | None = None
) -> Iterator[frozenset[int]]:
    """Yield every perfect matching as an edge-index set, duplicate-free.

    Backtracks over S-nodes in index order, trying each S-node's edges in
    edge order; deterministic.  The search keeps its path on an explicit
    stack, so graphs of any size stay within the recursion limit.
    """
    budget = budget or OracleBudget()
    ns = g.s_count
    nt = g.node_count - ns
    if ns != nt:
        raise InputError("graph cannot have a perfect matching: |S| != |T|")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(ns)]
    for i, (s, t) in enumerate(g.edges):
        adj[s].append((t - ns, i))
    used = [False] * nt
    chosen: list[int] = []  # the edge taken at each S-node before s
    pos = [0] * ns  # next adjacency entry to try, per S-node on the path
    count = 0
    s = 0
    while s >= 0:
        if s == ns:
            count += 1
            if count > budget.max_matchings:
                raise BudgetExceeded(
                    f"more than {budget.max_matchings} perfect matchings"
                )
            yield frozenset(chosen)
        else:
            row = adj[s]
            i = pos[s]
            while i < len(row) and used[row[i][0]]:
                i += 1
            if i < len(row):
                t, e = row[i]
                pos[s] = i + 1
                used[t] = True
                chosen.append(e)
                s += 1
                continue
            pos[s] = 0
        # every choice at s is spent: undo the one at s - 1
        s -= 1
        if s >= 0:
            used[g.edges[chosen.pop()][1] - ns] = False


def brute_clar_fries(
    g: PlaneBipartiteGraph,
    cw_weights: Sequence | None = None,
    acw_weights: Sequence | None = None,
    budget: OracleBudget | None = None,
) -> tuple:
    """Max over all perfect matchings of total alternating-face weight:
    (value, matching, clockwise faces, anticlockwise faces)."""
    if cw_weights is None:
        cw_weights = g.cw_weights
    if acw_weights is None:
        acw_weights = g.acw_weights
    best = None
    for matching in enumerate_matchings(g, budget):
        cw, acw = alternating_faces(g, matching)
        value = sum(cw_weights[f] for f in cw) + sum(acw_weights[f] for f in acw)
        if best is None or value > best[0]:
            best = (value, matching, cw, acw)
    if best is None:
        raise InputError("graph has no perfect matching")
    return best
