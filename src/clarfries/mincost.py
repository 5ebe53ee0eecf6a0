"""Minimum-cost circulations with arc lower bounds and free capacities.

The instances solved here have integer lower bounds, nonnegative integer
costs, and no upper capacities.  Substituting ``x = lower + x'`` turns the
lower bounds into node excesses, which are routed from a super source to a
super sink by successive shortest augmenting paths with node potentials.
Each round runs Dijkstra on reduced costs, then batches every augmentation
at that shortest distance into one blocking-flow computation over the tight
(zero reduced cost) residual arcs, which keeps the number of Dijkstra rounds
small on large instances.

Dijkstra keeps its queue as one list of nodes per tentative distance, plus a
heap of the distinct distances (Dial's bucket queue, CACM 1969, with a heap
over the bucket keys so that costs of any size work).  Nodes at one distance
leave in insertion order, but ties cannot change the potential: every node
closer than the sink is settled, and every other one is raised by the sink's
distance.

Potentials change only between Dijkstra rounds, so each round first lists
every node's tight residual slots (a slot and its reverse partner are tight
together) and its Dinic phases scan only those lists.  Each phase labels
every node with the fewest tight residual arcs on a path from it to the
sink, by one breadth-first search backwards from the sink that stops once
the source is labelled, and the depth-first search from the source steps
only to a node one arc closer to the sink.  Those are the arcs of the
forward level graph that lie on a shortest augmenting path, met in the same
order, so the search finds the same augmenting paths as a forward Dinic
phase without entering its dead ends.  The scan order of the full residual
adjacency is kept throughout, so the returned flow and potential do not
depend on these shortcuts.

The returned node potential satisfies drop(a) <= cost(a) on every arc and
complementary slackness with the returned flow; together with feasibility
this certifies optimality, and :func:`solve` checks all three before
returning.  All arithmetic is on Python ints; ``math.inf`` marks the absence
of a capacity, never a sentinel integer.  Augmentations leave an infinite
residual capacity unchanged: adding an int beyond the float range (about
1.8e308) to ``inf`` raises ``OverflowError``, so ``inf`` only ever meets ints
in comparisons, which Python makes exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
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

    ``instance`` needs only the fields ``digraph``, ``lower`` and ``cost``,
    with one nonnegative int per arc in each of the last two.  They are read
    unchecked: a :class:`CirculationInstance` has checked them, and
    :class:`~clarfries.sourcesink.AuxNetwork` builds them that way.

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
    potential update needs.  The queue is a bucket per tentative distance,
    with a heap of the distinct distances only, so costs of any size work.
    A node is listed again when its distance drops; the stale entry is
    skipped because the node is settled by then.
    """
    dist = [INF] * nn
    done = bytearray(nn)
    dist[src] = 0
    buckets = {0: [src]}
    keys = [0]
    while keys:
        dv = heappop(keys)
        bucket = buckets[dv]
        # A zero reduced cost appends to this bucket while it is scanned;
        # the list iterator picks those nodes up.
        for v in bucket:
            if done[v]:
                continue
            done[v] = 1
            if v == snk:
                return dist, done
            pv = dv + pot[v]
            for e in adj[v]:
                if cap[e] > 0:
                    # reduced costs are nonnegative, so a settled w keeps
                    # dist[w] <= dv <= nd
                    w = head[e]
                    nd = pv + cst[e] - pot[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        b = buckets.get(nd)
                        if b is None:
                            buckets[nd] = [w]
                            heappush(keys, nd)
                        else:
                            b.append(w)
        del buckets[dv]
    return dist, done


def _blocking_flow(adj, head, cap, cst, pot, src, snk, nn):
    """Repeated blocking flows over tight residual arcs until none remain.

    Tightness depends only on the potentials, which stay fixed for the whole
    call, so each node's tight slots are listed once, in ``adj`` order and
    whatever their residual capacity: pushing flow only changes which listed
    slots have capacity.

    ``dist[v]`` counts the fewest tight residual arcs from ``v`` to ``snk``.
    An arc ``v -> w`` of the forward level graph lies on a shortest
    ``src``-``snk`` path exactly when ``dist[w] == dist[v] - 1``, so the
    depth-first search advances on those arcs only.
    """
    tight = []
    for v in range(nn):
        pv = pot[v]
        tight.append([e for e in adj[v] if cst[e] + pv == pot[head[e]]])
    total = 0
    while True:
        dist = [-1] * nn
        dist[snk] = 0
        q = [snk]
        for w in q:  # a list grown while iterated: the queue of the search
            dw = dist[w] + 1
            for f in tight[w]:
                # f ^ 1 is the tight slot from head[f] into w
                if cap[f ^ 1] > 0:
                    v = head[f]
                    if dist[v] < 0:
                        dist[v] = dw
                        q.append(v)
            if dist[src] >= 0:
                break  # every node closer to snk than src is labelled
        if dist[src] < 0:
            return total
        it = [0] * nn
        path: list[int] = []
        v = src
        while True:
            if v == snk:
                aug = min(cap[e] for e in path)
                for e in path:
                    if cap[e] != INF:
                        cap[e] -= aug
                    if cap[e ^ 1] != INF:
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
            i = it[v]
            la = len(a)
            dw = dist[v] - 1
            while i < la:
                e = a[i]
                if cap[e] > 0 and dist[head[e]] == dw:
                    break
                i += 1
            it[v] = i
            if i < la:
                path.append(e)
                v = head[e]
                continue
            if v == src:
                break
            dist[v] = -1  # dead end: saturated since the phase's search
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
