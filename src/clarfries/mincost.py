"""Minimum-cost circulations with arc lower bounds and free capacities.

The instances solved here have integer lower bounds, nonnegative integer
costs, and no upper capacities.  Substituting ``flow = lower + x`` turns
the lower bounds into node excesses and deficits, which are cancelled by
successive shortest paths with node potentials on the residual network
itself: there is no super source or sink.  Each round runs Dijkstra on
reduced costs from every node with excess and stops at the first deficit
it settles (or reaches at the distance it is settling), raises the
potentials, and then routes as much excess as the tight (zero reduced
cost) residual arcs can carry to the deficits.  The rounds stay few on
large instances, and their number does not depend on the size of the
costs.  It does grow with the lower bounds, that is the weights, on long
acyclic digraphs: a directed path of 5000 nodes with uniform random weights
takes 21 rounds at weights 0..10, and 2477 rounds and about 100 s (2 shared
cores, CPython 3.11) at 0..10**6.  Multiplying every weight by 10**30, as
``test_work_does_not_grow_with_weight_size`` does, keeps the instance's
structure, so that test cannot see this.

The input is a digraph with one lower bound and one cost per arc, and
the digraph keeps its arcs flat: a node count and, per arc, its tail and
head, in two tuples, so the auxiliary network reaches the solver as it was
built.  The residual network is flat too: slot 2a is arc a and slot
2a + 1 its reverse, and its one state is ``x[a]``, the flow above arc a's
lower bound.  Slot 2a is always residual, since no arc has an upper
capacity, and slot 2a + 1 is residual while the arc carries flow above its
lower bound, ``x[a] > 0``.  Node lists of slots hold each node's slots in
ascending order, since arc a adds 2a to its tail's list and 2a + 1 to its
head's in one pass over the arcs.

The first round needs no Dijkstra.  It starts at zero potentials and zero
flow, where the search would find the bound 0 exactly when a path of cost-0
arcs joins an excess to a deficit, and a bound of 0 leaves the potentials
as they are.  So the first round's flow runs at once, on the tight slots
at zero potentials: those of cost 0.  Only when it moves nothing (no such
path) does the first Dijkstra run, from the unchanged state; that is also
where an instance with no feasible circulation is found.  The full
adjacency lists, which only Dijkstra reads, are built after the first
round, and only when it leaves supply.

Dijkstra keeps its queue as one list of nodes per tentative distance, plus a
heap of the distinct distances (Dial's bucket queue, CACM 1969, with a heap
over the bucket keys so that costs of any size work).  Nodes at one distance
leave in insertion order, but ties cannot change the potential: every node
closer than the first deficit is settled, and every other one is raised by
that deficit's distance.

Potentials change only between Dijkstra rounds, so each round first lists
every node's tight residual slots, in one pass over the arcs (a slot and
its reverse partner are tight together), and the round's flow scans only
those lists.  That flow is FIFO push-relabel (Goldberg and Tarjan, JACM
1988), with exact labels, the fewest tight residual arcs from each node to a
deficit, recomputed by one breadth-first search backwards from the deficits
at the start and after every 0.15 n relabels (Cherkassky and Goldberg,
Algorithmica 1997).  An excess that can reach no deficit stays where
push-relabel left it, and the next round's Dijkstra starts from there.  On
every instance the tests sweep, the potentials and deficient sets equal
those of Dinic phases run to the end of each round; the flow routed may
differ.

The returned node potential satisfies drop(a) <= cost(a) on every arc and
complementary slackness with the returned flow; together with feasibility
this certifies optimality, and :func:`solve` checks all three before
returning.  All arithmetic is on Python ints.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from itertools import count
from operator import add, mul
from typing import Sequence

from .digraph import Digraph, is_circulation
from .errors import InfeasibleCirculation, InputError, InvariantError, brief
from .record import Record

INF = math.inf

# Push-relabel recomputes exact labels after this share of n relabels.
GLOBAL_RELABEL_SHARE = 0.15


class CirculationInstance(Record):
    """A digraph with per-arc lower bounds and costs, both nonnegative ints."""

    _fields = __slots__ = ("digraph", "lower", "cost")

    def __init__(self, digraph: Digraph, lower: tuple[int, ...], cost: tuple[int, ...]):
        m = digraph.arc_count
        if len(lower) != m or len(cost) != m:
            raise InputError("lower and cost must have one entry per arc")
        for a in range(m):
            lb, c = lower[a], cost[a]
            if not isinstance(lb, int) or lb < 0:
                raise InputError(f"arc {a}: lower bound {brief(lb)} must be a nonnegative int")
            if not isinstance(c, int) or c < 0:
                raise InputError(f"arc {a}: cost {brief(c)} must be a nonnegative int")
        super().__init__(digraph, lower, cost)


class McfSolution(Record):
    """Optimal flow with a certifying potential.

    ``flow[a] >= lower[a]`` for every arc, flow is conserved at every node,
    ``objective`` is the total cost, and ``potential`` proves optimality:
    drops never exceed costs, and every arc carrying flow above its lower
    bound has a tight drop.
    """

    _fields = __slots__ = ("flow", "potential", "objective")


def solve(instance: CirculationInstance) -> McfSolution:
    """Compute a minimum-cost circulation meeting all lower bounds.

    ``instance`` needs only the fields ``digraph``, ``lower`` and ``cost``:
    one nonnegative int per arc of the digraph in the last two.  They are
    read unchecked: a :class:`CirculationInstance` checks them, and
    :class:`~clarfries.sourcesink.AuxNetwork` builds them that way.

    Raises :class:`InfeasibleCirculation` with a deficient node set when no
    circulation satisfies the lower bounds.
    """
    d = instance.digraph
    n = d.node_count
    tails = d.tails
    heads = d.heads
    lower = instance.lower
    cost = instance.cost
    m = len(tails)

    head = [0] * (2 * m)
    head[0::2] = heads
    head[1::2] = tails
    x = [0] * m  # each arc's flow above its lower bound

    excess = [0] * n
    for u, v, f in zip(tails, heads, lower):
        if f:
            excess[u] -= f
            excess[v] += f
    supply = sum(b for b in excess if b > 0)

    pot = [0] * n
    if supply:
        # the first round's flow, before any Dijkstra (see the module docstring)
        supply -= _round_flow(d, cost, pot, head, x, excess)
    if supply:
        # only Dijkstra reads the full adjacency
        adj: list[list[int]] = [[] for _ in range(n)]
        for e, u, v in zip(count(0, 2), tails, heads):
            adj[u].append(e)
            adj[v].append(e + 1)
    while supply:
        dist, bound = _dijkstra(adj, head, x, cost, pot, excess)
        if bound is None:
            raise InfeasibleCirculation(frozenset(v for v in range(n) if dist[v] < INF))
        pot = [p + (dv if dv < bound else bound) for p, dv in zip(pot, dist)]
        delivered = _round_flow(d, cost, pot, head, x, excess)
        if delivered <= 0:
            raise InvariantError("augmentation round delivered no flow")
        supply -= delivered

    flow = tuple(map(add, lower, x))
    potential = tuple(pot)
    objective = sum(map(mul, cost, flow))
    _certify(instance, flow, potential, objective)
    return McfSolution(flow, potential, objective)


def _dijkstra(adj, head, x, cost, pot, excess):
    """Shortest reduced-cost distances from the nodes with excess, stopping
    at the first node with a deficit settled.

    Returns ``(dist, bound)``, where ``bound`` is the distance of that node,
    or ``None`` when no deficit is reachable.  Every node closer than
    ``bound`` is settled, and every other node's true distance is at least
    ``bound``, which is all the potential update needs.  So the search
    also stops, with the same bound, as soon as a relaxation reaches a
    deficit at the distance being settled: every ``dist`` it leaves
    unsettled is at least that distance, or ``inf``.  The queue is a
    bucket per tentative distance, with a heap of the distinct distances
    only, so costs of any size work.  A node is listed again when its
    distance drops; the stale entry is skipped because the node is settled
    by then.
    """
    n = len(adj)
    dist = [INF] * n
    done = bytearray(n)
    roots = [v for v in range(n) if excess[v] > 0]
    for v in roots:
        dist[v] = 0
    buckets = {0: roots}
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
            if excess[v] < 0:
                return dist, dv
            pv = dv + pot[v]
            for e in adj[v]:
                if e & 1 and not x[e >> 1]:
                    continue  # a reverse slot with no flow to take back
                # reduced costs are nonnegative, so a settled w keeps
                # dist[w] <= dv <= nd
                w = head[e]
                nd = (pv - cost[e >> 1] if e & 1 else pv + cost[e >> 1]) - pot[w]
                if nd < dist[w]:
                    if nd == dv and excess[w] < 0:
                        # a deficit at the distance being settled:
                        # the bound is dv, as if it were settled
                        return dist, dv
                    dist[w] = nd
                    b = buckets.get(nd)
                    if b is None:
                        buckets[nd] = [w]
                        heappush(keys, nd)
                    else:
                        b.append(w)
        del buckets[dv]
    return dist, None


def _round_flow(d, cost, pot, head, x, excess):
    """Move excess to deficits over tight residual arcs until no node with
    excess reaches a deficit through them; return the deficit met.

    Tightness depends only on the potentials, which stay fixed for the whole
    call, so each node's tight slots are listed once, residual or not:
    pushing flow only changes which listed reverse slots are residual.  An
    arc and its reverse slot are tight together, so the lists take one pass
    over the arcs, in ascending slot order.  Push-relabel routes the flow.
    """
    tight: list[list[int]] = [[] for _ in range(d.node_count)]
    for e, u, v, c in zip(count(0, 2), d.tails, d.heads, cost):
        if pot[u] + c == pot[v]:
            tight[u].append(e)
            tight[v].append(e + 1)
    return _push_relabel(tight, head, x, excess)[0]


def _global_relabel(tight, head, x, excess):
    """Exact labels: the fewest tight residual arcs from each node to a
    deficit, ``len(tight)`` where none is reachable."""
    n = len(tight)
    label = [n] * n
    q = [v for v in range(n) if excess[v] < 0]
    for v in q:
        label[v] = 0
    for w in q:
        dw = label[w] + 1
        for f in tight[w]:
            # f ^ 1, the slot from head[f] into w, is residual
            if f & 1 or x[f >> 1]:
                v = head[f]
                if label[v] == n:
                    label[v] = dw
                    q.append(v)
    return label


def _push_relabel(tight, head, x, excess):
    """FIFO push-relabel over the tight residual arcs, from the excesses
    towards the deficits; return ``(deficit met, pushes, relabels)``, the
    counts for callers that measure the work.

    Labels start exact (:func:`_global_relabel`) and are recomputed after
    every :data:`GLOBAL_RELABEL_SHARE` times n relabels.  A node labelled
    n reaches no deficit, so its excess stays put for the next round's
    Dijkstra to start from.  A push on slot 2a adds all of it to
    ``x[a]``; a push on slot 2a + 1 takes at most ``x[a]`` off it.
    """
    n = len(tight)
    label = _global_relabel(tight, head, x, excess)
    it = [0] * n
    queue = deque(v for v in range(n) if excess[v] > 0 and label[v] < n)
    period = max(1, int(GLOBAL_RELABEL_SHARE * n))
    due = period
    delivered = pushes = relabels = 0
    while queue:
        if relabels >= due:
            label = _global_relabel(tight, head, x, excess)
            it = [0] * n
            due = relabels + period
        v = queue.popleft()
        dv = label[v]
        if dv >= n:
            continue
        ex = excess[v]
        a = tight[v]
        la = len(a)
        i = it[v]
        while True:
            dw = dv - 1
            while i < la:
                e = a[i]
                w = head[e]
                if label[w] == dw:
                    b = e >> 1
                    if e & 1:
                        delta = x[b] if x[b] < ex else ex
                        x[b] -= delta
                    else:
                        delta = ex
                        x[b] += ex
                    if delta:
                        xw = excess[w]
                        excess[w] = xw + delta
                        if xw < 0:
                            delivered += delta if delta <= -xw else -xw
                        if xw + delta > 0 >= xw:  # w turns active
                            queue.append(w)
                        pushes += 1
                        ex -= delta
                        if not ex:
                            break
                i += 1
            if not ex:
                break
            # relabel: one above the lowest residual neighbour
            relabels += 1
            dv = n
            for e in a:
                if not e & 1 or x[e >> 1]:
                    lw = label[head[e]] + 1
                    if lw < dv:
                        dv = lw
            label[v] = dv
            i = 0
            if dv >= n:
                break
        excess[v] = ex
        it[v] = i
    return delivered, pushes, relabels


def _certify(instance, flow, potential, objective):
    """Optimality check: primal feasible, dual feasible, objectives equal."""
    d = instance.digraph
    net = [0] * d.node_count
    dual = 0
    for a, u, v, low, c, f in zip(count(), d.tails, d.heads, instance.lower, instance.cost, flow):
        if f < low:
            raise InvariantError(f"arc {a} flow {f} below lower bound {low}")
        if f:
            net[u] -= f
            net[v] += f
        slack = c - (potential[v] - potential[u])
        if slack < 0:
            raise InvariantError(f"arc {a} potential drop exceeds cost")
        if slack:
            if f > low:
                raise InvariantError(f"arc {a} carries slack flow on a non-tight arc")
            dual += low * slack
    if any(net):
        raise InvariantError("flow is not conserved")
    if dual != objective:
        raise InvariantError(f"dual value {dual} != objective {objective}")


def decompose(d: Digraph, values: Sequence) -> list[tuple[tuple[int, ...], int]]:
    """Write a nonnegative integer circulation on ``d`` as a weighted sum of
    one-way circuits.

    Returns ``(circuit, multiplicity)`` pairs where each circuit is a tuple
    of arc indices in traversal order.  Every peeled circuit zeroes at least
    one arc, so at most as many circuits are returned as there are arcs with
    positive value.
    """
    for z in values:
        if not isinstance(z, int):
            raise InputError("decompose needs an integer circulation")
    if not is_circulation(d, values):
        raise InputError("values do not form a circulation")

    rem = list(values)
    out: list[list[int]] = [[] for _ in range(d.node_count)]
    for a, u in enumerate(d.tails):
        out[u].append(a)
    ptr = [0] * d.node_count
    result: list[tuple[tuple[int, ...], int]] = []

    def next_arc(v: int) -> int | None:
        lst = out[v]
        i = ptr[v]
        while i < len(lst) and rem[lst[i]] == 0:
            i += 1
        ptr[v] = i
        return lst[i] if i < len(lst) else None

    tails, heads = d.tails, d.heads
    for start_arc in range(len(tails)):
        if rem[start_arc] == 0:
            continue
        # walk forward from here, peeling every cycle the walk closes
        path: list[int] = []
        on_path: dict[int, int] = {}  # node -> index in path of its out-arc
        v = tails[start_arc]
        while True:
            if v in on_path:
                cut = on_path[v]
                cycle = tuple(path[cut:])
                mult = min(rem[e] for e in cycle)
                for e in cycle:
                    rem[e] -= mult
                result.append((cycle, mult))
                for e in path[cut:]:
                    del on_path[tails[e]]
                del path[cut:]
            e = next_arc(v)
            if e is None:
                # conservation says this only happens when the walk is empty
                if path:
                    raise InvariantError("walk stalled with flow on the path")
                break
            on_path[v] = len(path)
            path.append(e)
            v = heads[e]
    return result
