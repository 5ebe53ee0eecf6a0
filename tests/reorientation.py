"""Reference decision procedure for reorientations: Bellman-Ford tension
feasibility.

A reorientation of a digraph reverses some subset of arcs.  The subsets
that arise as disjoint unions of directed-cut arc sets are exactly those
carrying an integer potential whose drop (head value minus tail value) is
1 on every reversed arc and 0 on every kept arc.  This module decides
such questions directly, as difference constraints, independently of the
min-cost circulation that :mod:`clarfries.sourcesink` solves: the tests
compare the solver's pairs and the oracle's reorientations against it.
Its arc-class table (:data:`ROLE_CLASS`) states the pair rule per arc,
so the tests can hold the audit's sources-and-sinks check against it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from clarfries.digraph import Digraph, normalize_potential
from clarfries.errors import InputError, InvariantError
from clarfries.record import Record


class ViolatingCircuit(Record):
    """Closed walk in the underlying undirected graph certifying that no
    feasible tension exists.

    ``steps`` lists ``(arc, forward)`` pairs; ``forward`` means the walk
    traverses the arc from tail to head.  Along the walk the lower bounds of
    the backward arcs add up to strictly more than the upper bounds of the
    forward arcs, so no potential can satisfy both.
    """

    _fields = __slots__ = ("steps",)


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


class ArcClass(Enum):
    """Role of an arc relative to a prospective source set and sink set.

    Incorrect arcs must be reversed (they enter the source set or leave the
    sink set), correct arcs must be kept (they leave the source set or enter
    the sink set), neutral arcs are unconstrained.
    """

    CORRECT = "correct"
    INCORRECT = "incorrect"
    NEUTRAL = "neutral"


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
    range; an entry that is not an int, a bool included, is out of range.
    """
    so = frozenset(source_set)
    si = frozenset(sink_set)
    if so & si:
        raise InputError("source set and sink set overlap")
    for v in so | si:
        if type(v) is not int or not (0 <= v < d.node_count):
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
