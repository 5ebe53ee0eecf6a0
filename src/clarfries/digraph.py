"""Directed multigraphs, potentials, tensions, and reorientation checks.

A reorientation of a digraph reverses some subset of arcs.  The subsets that
arise as disjoint unions of directed-cut arc sets are exactly those carrying
an integer potential whose drop (head value minus tail value) is 1 on every
reversed arc and 0 on every kept arc.  Everything in this module is built
around that correspondence: feasibility of bounded tensions, verification
that a reorientation exists, and verification that given node sets can be
made simultaneous sources and sinks.

All arithmetic is exact.  Potentials and bounds are integers (or ``None``
for an absent bound); circulation values may be integers or ``Fraction``s.

A digraph keeps its arcs flat, as the auxiliary network and
:func:`~clarfries.mincost.solve` read them: arc ``a`` runs from
``tails[a]`` to ``heads[a]``, two int tuples.  ``Digraph(n, arcs)``
checks its input in full: an int node count, int endpoints in range
(bools are rejected), no loops, weak connectivity.  Graphs derived from
one already checked skip those checks (``Digraph._derived(n, tails,
heads)``), since their validity follows from the parent's: the doubled
graph of :func:`bidirect` has the parent's nodes and its arcs plus their
reverses, so it is in range, loopless and connected exactly when the
parent is.  The derived graphs of other modules say in their docstrings
why they are valid.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .errors import InputError, InvariantError, brief
from .record import Record

Arc = tuple[int, int]


class Digraph:
    """Loopless directed multigraph on nodes ``0 .. node_count - 1``.

    Arc ``a`` runs from ``tails[a]`` to ``heads[a]``; parallel arcs are
    kept distinct.  The underlying undirected graph must be connected and
    the graph must have at least two nodes.  Treat an instance as
    read-only: its doubled graph (:func:`bidirect`) is built on first use
    and kept.
    """

    __slots__ = ("node_count", "tails", "heads", "_bi")

    def __init__(self, node_count: int, arcs: Iterable[Arc]):
        if type(node_count) is not int:
            raise InputError(f"node count {brief(node_count)} is not an integer")
        if node_count < 2:
            raise InputError(f"need at least 2 nodes, got {node_count}")
        tails = []
        heads = []
        for a, (u, v) in enumerate(arcs):
            # exact ints only: a bool is an int too, and a float names no node
            if type(u) is not int or type(v) is not int:
                raise InputError(
                    f"arc {a} endpoints ({brief(u)}, {brief(v)}) are not integers"
                )
            if not (0 <= u < node_count and 0 <= v < node_count):
                raise InputError(f"arc {a} endpoints ({brief(u)}, {brief(v)}) out of range")
            if u == v:
                raise InputError(f"arc {a} is a loop at node {u}")
            tails.append(u)
            heads.append(v)
        self.node_count = node_count
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self._bi = None
        self._check_weakly_connected()

    @classmethod
    def _derived(cls, node_count: int, tails: tuple, heads: tuple) -> "Digraph":
        """A digraph built without the checks of ``__init__``.

        Only for graphs derived from one already checked, whose validity
        follows from it: ``tails`` and ``heads`` are int tuples of one
        length, in range, without loops, joining ``node_count >= 2`` nodes.
        """
        d = object.__new__(cls)
        d.node_count = node_count
        d.tails = tails
        d.heads = heads
        d._bi = None
        return d

    def _check_weakly_connected(self) -> None:
        parent = list(range(self.node_count))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in zip(self.tails, self.heads):
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        root = find(0)
        for v in range(1, self.node_count):
            if find(v) != root:
                raise InputError("digraph is not weakly connected")

    @property
    def arc_count(self) -> int:
        return len(self.tails)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.node_count, self.tails, self.heads) == (
            other.node_count, other.tails, other.heads
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.tails, self.heads))

    def __repr__(self) -> str:
        return f"Digraph({self.node_count}, {list(zip(self.tails, self.heads))!r})"


def bidirect(d: Digraph) -> Digraph:
    """The doubled graph of ``d``: every arc plus a reverse copy.

    With ``m = d.arc_count``, arc ``j < m`` of the result is arc ``j`` of
    ``d`` and arc ``j + m`` its reverse copy: the tails are ``d.tails +
    d.heads``.  Circulations on the doubled graph charge only the original
    arcs ``j < m``.  It is built on the first call and cached on ``d``, so
    every later call returns the same read-only :class:`Digraph`; the
    doubled graph keeps no reference back to ``d``, so the two form no
    cycle for the garbage collector.
    """
    if d._bi is None:
        d._bi = Digraph._derived(d.node_count, d.tails + d.heads, d.heads + d.tails)
    return d._bi


class ArcClass(Enum):
    """Role of an arc relative to a prospective source set and sink set.

    Incorrect arcs must be reversed (they enter the source set or leave the
    sink set), correct arcs must be kept (they leave the source set or enter
    the sink set), neutral arcs are unconstrained.
    """

    CORRECT = "correct"
    INCORRECT = "incorrect"
    NEUTRAL = "neutral"


class ViolatingCircuit(Record):
    """Closed walk in the underlying undirected graph certifying that no
    feasible tension exists.

    ``steps`` lists ``(arc, forward)`` pairs; ``forward`` means the walk
    traverses the arc from tail to head.  Along the walk the lower bounds of
    the backward arcs add up to strictly more than the upper bounds of the
    forward arcs, so no potential can satisfy both.
    """

    _fields = __slots__ = ("steps",)


def potential_drops(d: Digraph, potential: Sequence[int]) -> tuple[int, ...]:
    """Per-arc drop ``potential[head] - potential[tail]``."""
    if len(potential) != d.node_count:
        raise InputError("potential length does not match node count")
    return tuple(potential[v] - potential[u] for u, v in zip(d.tails, d.heads))


def is_small_dropping(d: Digraph, potential: Sequence[int]) -> bool:
    """True when every arc drop is 0 or 1."""
    return all(dr in (0, 1) for dr in potential_drops(d, potential))


def normalize_potential(potential: Sequence[int]) -> tuple[int, ...]:
    low = min(potential)
    return tuple(p - low for p in potential)


def feasible_tension(
    d: Digraph,
    lower: Sequence[int | None],
    upper: Sequence[int | None],
) -> tuple[int, ...] | ViolatingCircuit:
    """Find an integer potential whose drop on every arc lies in
    ``[lower[a], upper[a]]``, or certify that none exists.

    ``None`` means the bound is absent.  The system is solved as difference
    constraints by Bellman-Ford relaxation from an implicit zero source:
    an upper bound gives an edge tail->head of weight ``upper[a]``, a lower
    bound an edge head->tail of weight ``-lower[a]``.  Convergence yields the
    potential (normalized to minimum value 0); a negative cycle in the
    constraint graph is returned as a :class:`ViolatingCircuit`.

    The relaxation runs at most ``node_count + 1`` full passes over the
    constraint edges, so the total work is bounded by roughly n*m edge
    relaxations.
    """
    n = d.node_count
    if len(lower) != d.arc_count or len(upper) != d.arc_count:
        raise InputError("bound vectors must have one entry per arc")
    # constraint edges: (from, to, weight, arc, forward)
    edges: list[tuple[int, int, int, int, bool]] = []
    for a, (u, v) in enumerate(zip(d.tails, d.heads)):
        lo, hi = lower[a], upper[a]
        if lo is not None and hi is not None and lo > hi:
            raise InputError(f"arc {a}: lower bound {lo} exceeds upper bound {hi}")
        if hi is not None:
            edges.append((u, v, hi, a, True))
        if lo is not None:
            edges.append((v, u, -lo, a, False))

    dist = [0] * n
    pred: list[int | None] = [None] * n
    for _ in range(n + 1):
        changed = False
        for idx, (u, v, w, _a, _f) in enumerate(edges):
            nd = dist[u] + w
            if nd < dist[v]:
                dist[v] = nd
                pred[v] = idx
                changed = True
        if not changed:
            return normalize_potential(dist)

    # Still relaxing after n+1 passes: the predecessor graph contains a
    # cycle, and every predecessor cycle has negative total weight.
    color = [0] * n  # 0 unvisited, 1 on current walk, 2 finished
    for start in range(n):
        if color[start] or pred[start] is None:
            continue
        walk: list[int] = []
        pos: dict[int, int] = {}
        cur = start
        while color[cur] == 0 and pred[cur] is not None:
            color[cur] = 1
            pos[cur] = len(walk)
            walk.append(cur)
            cur = edges[pred[cur]][0]
        if color[cur] == 1 and cur in pos:
            cycle_nodes = walk[pos[cur]:]
            # pred[v] is the edge entering v; reverse to walk forward
            step_edges = [pred[v] for v in reversed(cycle_nodes)]
            steps = tuple((edges[e][3], edges[e][4]) for e in step_edges)
            total = sum(edges[e][2] for e in step_edges)
            if total >= 0:
                raise InvariantError("extracted cycle is not negative")
            return ViolatingCircuit(steps)
        for v in walk:
            color[v] = 2
    raise InvariantError("relaxation did not converge but no cycle was found")


def verify_reorientable(
    d: Digraph,
    reverse_arcs: Iterable[int],
    fixed_arcs: Iterable[int],
) -> tuple[int, ...] | ViolatingCircuit:
    """Decide whether some reorientation of ``d`` obtained by reversing
    disjoint directed cuts reverses every arc in ``reverse_arcs`` while
    keeping every arc in ``fixed_arcs``.

    Arcs in neither set are unconstrained.  Success returns a witness
    potential with drop 1 on the reversed arcs and 0 on the fixed ones (and
    0 or 1 elsewhere); failure returns the violating circuit.
    """
    rset = frozenset(reverse_arcs)
    fset = frozenset(fixed_arcs)
    if rset & fset:
        raise InputError("reverse_arcs and fixed_arcs overlap")
    for a in rset | fset:
        if not (0 <= a < d.arc_count):
            raise InputError(f"arc index {a} out of range")
    lower = [1 if a in rset else 0 for a in range(d.arc_count)]
    upper = [0 if a in fset else 1 for a in range(d.arc_count)]
    return feasible_tension(d, lower, upper)


# The class of an arc u -> v at index 3 * role[u] + role[v] (roles as in
# node_roles): an arc entering the source set or leaving the sink set is
# incorrect, one leaving the source set or entering the sink set correct.
# None marks an arc that would be both: its ends lie in one set.
ROLE_CLASS = (
    ArcClass.NEUTRAL, ArcClass.INCORRECT, ArcClass.CORRECT,
    ArcClass.CORRECT, None, ArcClass.CORRECT,
    ArcClass.INCORRECT, ArcClass.INCORRECT, None,
)


def node_roles(d: Digraph, source_set: Iterable[int], sink_set: Iterable[int]) -> bytearray:
    """Each node's role: 1 in the source set, 2 in the sink set, else 0.

    Raises :class:`InputError` when the sets overlap or name a node out of
    range.
    """
    so = frozenset(source_set)
    si = frozenset(sink_set)
    if so & si:
        raise InputError("source set and sink set overlap")
    for v in so | si:
        if not (0 <= v < d.node_count):
            raise InputError(f"node {v} out of range")
    role = bytearray(d.node_count)
    for v in so:
        role[v] = 1
    for v in si:
        role[v] = 2
    return role


def classify_arcs(
    d: Digraph,
    source_set: Iterable[int],
    sink_set: Iterable[int],
) -> tuple[ArcClass, ...]:
    """Classify every arc relative to prospective source and sink sets.

    Requires the two sets to be disjoint and each to be stable (no arc with
    both endpoints inside); otherwise an arc would need reversing and
    keeping at once and the classification is meaningless.
    """
    role = node_roles(d, source_set, sink_set)
    classes = []
    for a, (u, v) in enumerate(zip(d.tails, d.heads)):
        cl = ROLE_CLASS[3 * role[u] + role[v]]
        if cl is None:
            raise InputError(
                f"arc {a} ({u} -> {v}) has both endpoints in the same set; "
                "source and sink sets must be stable"
            )
        classes.append(cl)
    return tuple(classes)


def verify_source_sink(
    d: Digraph,
    source_set: Iterable[int],
    sink_set: Iterable[int],
) -> tuple[int, ...] | ViolatingCircuit:
    """Decide whether some reorientation of ``d`` (by disjoint directed-cut
    reversals) turns every node of ``source_set`` into a source and every
    node of ``sink_set`` into a sink, simultaneously.

    An arc entering the source set or leaving the sink set must be reversed;
    an arc leaving the source set or entering the sink set must be kept.
    The decision then reduces to :func:`verify_reorientable`.
    """
    classes = classify_arcs(d, source_set, sink_set)
    rset = [a for a, c in enumerate(classes) if c is ArcClass.INCORRECT]
    fset = [a for a, c in enumerate(classes) if c is ArcClass.CORRECT]
    return verify_reorientable(d, rset, fset)


def apply_reorientation(d: Digraph, potential: Sequence[int]) -> Digraph:
    """Reverse exactly the arcs with potential drop 1.

    The potential must be small-dropping (every drop 0 or 1).  The result
    has the same arc indexing as ``d``.
    """
    drops = potential_drops(d, potential)
    new_arcs = []
    for u, v, dr in zip(d.tails, d.heads, drops):
        if dr == 1:
            new_arcs.append((v, u))
        elif dr == 0:
            new_arcs.append((u, v))
        else:
            raise InputError(f"potential drop {dr} on arc ({u}, {v}); need 0 or 1")
    return Digraph(d.node_count, new_arcs)


def sources_sinks(d: Digraph) -> tuple[frozenset[int], frozenset[int]]:
    """Nodes with no entering arc and nodes with no leaving arc."""
    has_in = [False] * d.node_count
    has_out = [False] * d.node_count
    for u, v in zip(d.tails, d.heads):
        has_out[u] = True
        has_in[v] = True
    so = frozenset(v for v in range(d.node_count) if not has_in[v])
    si = frozenset(v for v in range(d.node_count) if not has_out[v])
    return so, si


def is_circulation(d: Digraph, values: Sequence) -> bool:
    """True when the nonnegative arc values ``values`` conserve flow at
    every node of ``d``, exactly."""
    if len(values) != d.arc_count:
        raise InputError("circulation vector must have one entry per arc")
    net = [0] * d.node_count
    for i, (u, v, z) in enumerate(zip(d.tails, d.heads, values)):
        if z < 0:
            raise InputError(f"negative circulation value {z} on arc {i}")
        if z:
            net[u] -= z
            net[v] += z
    return not any(net)
