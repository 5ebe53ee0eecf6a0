"""Minimum-cost circulations with arc lower bounds and free capacities.

The instances solved here have integer lower bounds, nonnegative integer
costs, and no upper capacities.  Substituting ``x = lower + x'`` turns the
lower bounds into node excesses, which are routed from a super source to a
super sink by successive shortest augmenting paths with node potentials.
All augmentations sharing one shortest distance are batched into a single
blocking-flow computation over the tight (zero reduced cost) residual arcs,
which keeps the number of Dijkstra rounds small on large instances.

Potentials change only between Dijkstra rounds, so each round first lists
every node's tight residual slots (a slot and its reverse partner are tight
together) and its Dinic phases scan only those lists.  Each phase's
breadth-first search stops as soon as it reaches the sink's level: deeper
nodes cannot lie on a shortest augmenting path.  Both keep the scan order
of the full residual adjacency, so the augmenting paths, and hence the
returned flow and potential, do not depend on these shortcuts.

The returned node potential satisfies drop(a) <= cost(a) on every arc and
complementary slackness with the returned flow; together with feasibility
this certifies optimality, and :func:`solve` checks all three before
returning.  All arithmetic is on Python ints; ``math.inf`` marks the absence
of a capacity, never a sentinel integer.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .digraph import BiDigraph, Digraph
from .errors import InfeasibleCirculation, InputError, InvariantError

INF = math.inf


@dataclass(frozen=True)
class CirculationInstance:
    """A digraph with per-arc lower bounds and costs, both nonnegative ints."""

    digraph: Digraph
    lower: tuple[int, ...]
    cost: tuple[int, ...]

    def __post_init__(self):
        m = self.digraph.arc_count
        if len(self.lower) != m or len(self.cost) != m:
            raise InputError("lower and cost must have one entry per arc")
        for a in range(m):
            lb, c = self.lower[a], self.cost[a]
            if not isinstance(lb, int) or lb < 0:
                raise InputError(f"arc {a}: lower bound {lb!r} must be a nonnegative int")
            if not isinstance(c, int) or c < 0:
                raise InputError(f"arc {a}: cost {c!r} must be a nonnegative int")


@dataclass(frozen=True)
class McfSolution:
    """Optimal flow with a certifying potential.

    ``flow[a] >= lower[a]`` for every arc, flow is conserved at every node,
    ``objective`` is the total cost, and ``potential`` proves optimality:
    drops never exceed costs, and every arc carrying flow above its lower
    bound has a tight drop.
    """

    flow: tuple[int, ...]
    potential: tuple[int, ...]
    objective: int


def solve(instance: CirculationInstance) -> McfSolution:
    """Compute a minimum-cost circulation meeting all lower bounds.

    Raises :class:`InfeasibleCirculation` with a deficient node set when no
    circulation satisfies the lower bounds.
    """
    d = instance.digraph
    n = d.node_count
    arcs = d.arcs
    m = len(arcs)
    lower = instance.lower
    cost = instance.cost

    nn = n + 2
    src = n
    snk = n + 1

    # Paired residual slots: edge 2k is forward, 2k+1 its reverse.
    head: list[int] = []
    cap: list = []
    cst: list[int] = []
    adj: list[list[int]] = [[] for _ in range(nn)]
    ha, ca, sa = head.append, cap.append, cst.append

    for a in range(m):
        u, v = arcs[a]
        e = 2 * a
        adj[u].append(e)
        adj[v].append(e + 1)
        ha(v)
        ha(u)
        ca(INF)
        ca(0)
        c = cost[a]
        sa(c)
        sa(-c)

    excess = [0] * n
    for a in range(m):
        f = lower[a]
        if f:
            u, v = arcs[a]
            excess[u] -= f
            excess[v] += f

    total_supply = 0
    for v in range(n):
        b = excess[v]
        if b > 0:
            e = len(head)
            adj[src].append(e)
            adj[v].append(e + 1)
            ha(v)
            ha(src)
            ca(b)
            ca(0)
            sa(0)
            sa(0)
            total_supply += b
        elif b < 0:
            e = len(head)
            adj[v].append(e)
            adj[snk].append(e + 1)
            ha(snk)
            ha(v)
            ca(-b)
            ca(0)
            sa(0)
            sa(0)

    pot = [0] * nn
    sent = 0
    while sent < total_supply:
        dist, done = _dijkstra(adj, head, cap, cst, pot, src, snk, nn)
        if not done[snk]:
            reachable = frozenset(v for v in range(n) if dist[v] < INF)
            raise InfeasibleCirculation(reachable)
        bound = dist[snk]
        for v in range(nn):
            pot[v] += dist[v] if done[v] else bound
        pushed = _blocking_flow(adj, head, cap, cst, pot, src, snk, nn)
        if pushed <= 0:
            raise InvariantError("augmentation phase pushed no flow")
        sent += pushed

    flow = tuple(lower[a] + cap[2 * a + 1] for a in range(m))
    potential = tuple(pot[:n])
    objective = sum(c * f for c, f in zip(cost, flow) if f)
    _certify(d, lower, cost, flow, potential, objective)
    return McfSolution(flow, potential, objective)


def _dijkstra(adj, head, cap, cst, pot, src, snk, nn):
    """Shortest reduced-cost distances from ``src``, stopping at ``snk``.

    Nodes never settled have true distance >= dist[snk], which is all the
    potential update needs.
    """
    from heapq import heappop, heappush

    dist = [INF] * nn
    done = bytearray(nn)
    dist[src] = 0
    h = [(0, src)]
    while h:
        dv, v = heappop(h)
        if done[v]:
            continue
        done[v] = 1
        if v == snk:
            break
        pv = pot[v]
        for e in adj[v]:
            if cap[e] > 0:
                w = head[e]
                if not done[w]:
                    nd = dv + cst[e] + pv - pot[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        heappush(h, (nd, w))
    return dist, done


def _blocking_flow(adj, head, cap, cst, pot, src, snk, nn):
    """Repeated blocking flows over tight residual arcs until none remain.

    Tightness depends only on the potentials, which stay fixed for the whole
    call, so each node's tight slots are listed once, in ``adj`` order and
    whatever their residual capacity: pushing flow only changes which listed
    slots have capacity.
    """
    tight = []
    for v in range(nn):
        pv = pot[v]
        tight.append([e for e in adj[v] if cst[e] + pv == pot[head[e]]])
    total = 0
    while True:
        level = [-1] * nn
        level[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            lv = level[v]
            if lv == level[snk]:
                break  # every node at the sink's level is labelled
            lv += 1
            for e in tight[v]:
                if cap[e] > 0:
                    w = head[e]
                    if level[w] < 0:
                        level[w] = lv
                        q.append(w)
        if level[snk] < 0:
            return total
        it = [0] * nn
        path: list[int] = []
        v = src
        while True:
            if v == snk:
                aug = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                total += aug
                # retreat to the first saturated edge on the path
                keep = 0
                while keep < len(path) and cap[path[keep]] > 0:
                    keep += 1
                del path[keep:]
                v = head[path[-1]] if path else src
                continue
            a = tight[v]
            advanced = False
            i = it[v]
            la = len(a)
            lw = level[v] + 1
            while i < la:
                e = a[i]
                if cap[e] > 0 and level[head[e]] == lw:
                    it[v] = i
                    path.append(e)
                    v = head[e]
                    advanced = True
                    break
                i += 1
            if advanced:
                continue
            it[v] = la
            if v == src:
                break
            level[v] = -1  # dead end; prune from this level graph
            e = path.pop()
            v = head[e ^ 1]
            it[v] += 1


def _certify(d, lower, cost, flow, potential, objective):
    """Optimality check: primal feasible, dual feasible, objectives equal."""
    net = [0] * d.node_count
    dual = 0
    for a, (u, v) in enumerate(d.arcs):
        f = flow[a]
        if f < lower[a]:
            raise InvariantError(f"arc {a} flow {f} below lower bound {lower[a]}")
        if f:
            net[u] -= f
            net[v] += f
        slack = cost[a] - (potential[v] - potential[u])
        if slack < 0:
            raise InvariantError(f"arc {a} potential drop exceeds cost")
        if slack > 0 and f > lower[a]:
            raise InvariantError(f"arc {a} carries slack flow on a non-tight arc")
        dual += lower[a] * slack
    if any(net):
        raise InvariantError("flow is not conserved")
    if dual != objective:
        raise InvariantError(f"dual value {dual} != objective {objective}")


def decompose(b: BiDigraph, values: Sequence) -> list[tuple[tuple[int, ...], int]]:
    """Write a nonnegative integer circulation as a weighted sum of one-way
    circuits of the doubled digraph.

    Returns ``(circuit, multiplicity)`` pairs where each circuit is a tuple
    of arc indices in traversal order.  Every peeled circuit zeroes at least
    one arc, so at most as many circuits are returned as there are arcs with
    positive value.
    """
    from .digraph import is_circulation

    for z in values:
        if not isinstance(z, int):
            raise InputError("decompose needs an integer circulation")
    if not is_circulation(b, values):
        raise InputError("values do not form a circulation")

    rem = list(values)
    dg = b.digraph
    out = [list(dg.out_arcs(v)) for v in range(b.node_count)]
    ptr = [0] * b.node_count
    result: list[tuple[tuple[int, ...], int]] = []

    def next_arc(v: int) -> int | None:
        lst = out[v]
        i = ptr[v]
        while i < len(lst) and rem[lst[i]] == 0:
            i += 1
        ptr[v] = i
        return lst[i] if i < len(lst) else None

    arcs = dg.arcs
    for start_arc in range(len(arcs)):
        if rem[start_arc] == 0:
            continue
        # walk forward from here, peeling every cycle the walk closes
        path: list[int] = []
        on_path: dict[int, int] = {}  # node -> index in path of its out-arc
        v = arcs[start_arc][0]
        while True:
            if v in on_path:
                cut = on_path[v]
                cycle = tuple(path[cut:])
                mult = min(rem[e] for e in cycle)
                for e in cycle:
                    rem[e] -= mult
                result.append((cycle, mult))
                for e in path[cut:]:
                    del on_path[arcs[e][0]]
                del path[cut:]
            e = next_arc(v)
            if e is None:
                # conservation says this only happens when the walk is empty
                if path:
                    raise InvariantError("walk stalled with flow on the path")
                break
            on_path[v] = len(path)
            path.append(e)
            v = arcs[e][1]
    return result
