"""Directed multigraphs, potentials and reorientations.

A reorientation of a digraph reverses some subset of arcs.  The subsets that
arise as disjoint unions of directed-cut arc sets are exactly those carrying
an integer potential whose drop (head value minus tail value) is 1 on every
reversed arc and 0 on every kept arc.  This module holds what the solver and
its audit read of that correspondence: potential drops, the reorientation a
small-dropping potential makes, and the sources and sinks of a digraph.  A
pair of disjoint node sets is a source-sink pair when, after some such
reorientation, no arc enters the source set and no arc leaves the sink
set.  The best pair is found by the min-max formula in
:mod:`clarfries.sourcesink`, whose audit checks a pair by that definition.

All arithmetic is exact.  Potentials are integers; circulation values may
be integers or ``Fraction``s.

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

from typing import Iterable, Sequence

from .errors import InputError, brief

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


def potential_drops(d: Digraph, potential: Sequence[int]) -> tuple[int, ...]:
    """Per-arc drop ``potential[head] - potential[tail]``."""
    if len(potential) != d.node_count:
        raise InputError("potential length does not match node count")
    return tuple(potential[v] - potential[u] for u, v in zip(d.tails, d.heads))


def normalize_potential(potential: Sequence[int]) -> tuple[int, ...]:
    low = min(potential)
    return tuple(p - low for p in potential)


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
