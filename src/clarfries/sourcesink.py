"""Maximum-weight source-sink pairs via minimum-cost circulations.

A source-sink pair of a digraph is a pair of disjoint node sets that some
reorientation (reversing a disjoint union of directed cuts) turns into
sources and sinks simultaneously.  Each node carries two nonnegative
weights, one collected if it becomes a source and one if it becomes a sink;
the goal is a pair of maximum total weight.

The maximum is computed on an auxiliary circulation network.  Besides the
original nodes it has an out-layer copy of every node with a positive
source weight, reached by a vertical arc carrying that weight as a lower
bound, and an in-layer copy of every node with a positive sink weight,
feeding it through a vertical arc carrying the sink weight.  Every arc
u -> w of the doubled digraph (every arc plus its reverse copy) enters the
network as the sink entry u -> in(w) when in(w) exists, as the source exit
out(u) -> w when out(u) exists, and as the direct arc u -> w when neither
does.  Arcs that exist in the original digraph cost 1, reverse copies and
verticals cost 0.  A copy of a zero weight would add nothing: its vertical
has lower bound 0 and no capacity limit, so its route costs what the
direct arc costs.  A minimum-cost circulation on this network has the pair
weight as its cost, the optimal pair falls out of the node potential, and
the flow is a circular cover certifying optimality: a pair of arc
multiplicity vectors (the source exits, and the sink entries with the
direct arcs) whose sum is a circulation, one sending enough flow out of
every node to pay its source weight, the other enough into every node to
pay its sink weight.  :func:`extract_pair` and :func:`extract_cover` read
both off the solution that :func:`mincost.solve` has certified.

Rational weights are cleared to integers once, when the
:class:`WeightPair` is built: ``source_units`` and ``sink_units`` are the
weights times ``scale``, the lcm of their denominators.  The auxiliary
network takes its lower bounds from these units, so every network is a
valid :func:`mincost.solve` input.  The cover keeps the network's integer
flows, in units of ``1/scale``, and records the scale; the audit compares
cover and weights cross-multiplied by each other's scale, so values are
exact and the checks run on ints.  Only the reported value is divided by
the scale.

Every answer is a :class:`SourceSinkCertificate` that carries the digraph
and weights it answers, so :func:`certificate_checks` audits it from the
certificate alone.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from itertools import chain, repeat
from math import lcm
from typing import Sequence

from . import mincost
from .digraph import Digraph, bidirect, normalize_potential
from .errors import InputError, InvariantError, brief
from .record import Record, set_field

Weight = int | Fraction


def _whole(x):
    """``x`` as an int when it is a whole Fraction, else ``x`` unchanged."""
    return int(x) if isinstance(x, Fraction) and x.denominator == 1 else x


def _check_weight_vector(w: Sequence, what: str) -> tuple[Weight, ...]:
    out = []
    for i, x in enumerate(w):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InputError(f"{what}[{i}] = {brief(x)}; weights must be int or Fraction")
        # a Fraction's sign is its numerator's, and a whole weight is kept as an int
        if x.numerator < 0:
            raise InputError(f"{what}[{i}] = {brief(x, str)} is negative")
        out.append(x.numerator if x.denominator == 1 else x)
    return tuple(out)


def _units(weights: tuple, scale: int) -> tuple[int, ...]:
    """``weights`` times ``scale``, which their denominators divide, as ints."""
    return tuple([x.numerator * (scale // x.denominator) for x in weights])


class WeightPair(Record):
    """Per-node source and sink weights, nonnegative and exact.

    ``scale`` is the lcm of the weights' denominators, 1 when all are ints,
    and ``source_units`` and ``sink_units`` are the weights times ``scale``,
    as ints: the weights in units of ``1/scale``.  The constructor works
    them out once.  They are not fields: they take no part in equality,
    hash or repr, and :meth:`replace` and pickling compute them again."""

    _fields = ("source_weight", "sink_weight")
    __slots__ = _fields + ("scale", "source_units", "sink_units")

    def __init__(self, source_weight: Sequence[Weight], sink_weight: Sequence[Weight]):
        source_weight = _check_weight_vector(source_weight, "source_weight")
        sink_weight = _check_weight_vector(sink_weight, "sink_weight")
        if len(source_weight) != len(sink_weight):
            raise InputError("source and sink weight vectors differ in length")
        super().__init__(source_weight, sink_weight)
        # whole weights are ints by now: only the others add a denominator
        denominators = {x.denominator for x in source_weight + sink_weight if type(x) is not int}
        scale = lcm(*denominators)
        set_field(self, "scale", scale)
        if scale == 1:
            set_field(self, "source_units", source_weight)
            set_field(self, "sink_units", sink_weight)
        else:
            set_field(self, "source_units", _units(source_weight, scale))
            set_field(self, "sink_units", _units(sink_weight, scale))

    @property
    def node_count(self) -> int:
        return len(self.source_weight)

    @property
    def integral(self) -> bool:
        return self.scale == 1

    @classmethod
    def sink_only(cls, sink_weight: Sequence[Weight]) -> "WeightPair":
        return cls((0,) * len(sink_weight), tuple(sink_weight))


class AuxNetwork:
    """Circulation network whose optimum is the best pair weight.

    Nodes 0..n-1 are the original nodes.  Node v has an out-layer copy
    ``out_node[v]`` when its source weight is positive and an in-layer copy
    ``in_node[v]`` when its sink weight is; otherwise the entry is ``None``.
    Out copies are numbered from n in node order, in copies after them.
    Arcs, in index order: for each node v the vertical ``in(v) -> v`` with
    the sink weight as lower bound and ``v -> out(v)`` with the source
    weight, for the copies that exist; then for each doubled arc
    j = (u, w) the sink entry ``u -> in(w)`` and the source exit
    ``out(u) -> w``, for the copies that exist, or the direct arc
    ``u -> w`` when neither does.  Each of them costs 1 exactly when j is
    an original arc.

    A copy with lower bound 0 would add nothing: ``u -> out(u) -> w`` and
    ``u -> in(w) -> w`` cost what ``u -> w`` costs, through a vertical with
    no capacity limit.  So every doubled arc has its route from u to w:
    through ``in(w)``, through ``out(u)``, or direct.

    ``out_arc[j]`` indexes j's source exit, whose flow is the out-cover of
    j, and ``in_arc[j]`` its sink entry or direct arc, whose flow is the
    in-cover of j; an absent arc is -1 and covers 0.  A direct arc
    may count as in-cover because its head has sink weight 0, which the
    cover need not pay.

    ``digraph``, ``lower`` and ``cost`` are the fields :func:`mincost.solve`
    reads, and every network goes to the solver unwrapped: costs are 0 or
    1, and lower bounds are the weights' units, the weights times ``scale``
    (1 for integral weights), so they are ints too.  ``digraph`` holds the
    tails and heads the constructor builds, and is derived from ``d``
    without re-validation: its node ids lie in ``0 .. node_count - 1``, no
    arc is a loop, the verticals tie every copy to its node, and every arc
    of ``d`` joins its ends through a copy or directly, so it is connected
    because ``d`` is.
    """

    __slots__ = ("digraph", "lower", "cost", "scale", "out_node", "in_node", "out_arc", "in_arc")

    def __init__(self, d: Digraph, weights: WeightPair):
        if weights.node_count != d.node_count:
            raise InputError("weight vectors must have one entry per node")
        n = d.node_count
        source, sink = weights.source_units, weights.sink_units
        out_node: list[int | None] = [None] * n
        in_node: list[int | None] = [None] * n
        node_count = n
        for copy, weight in ((out_node, source), (in_node, sink)):
            for v in range(n):
                if weight[v]:
                    copy[v] = node_count
                    node_count += 1
        tails: list[int] = []
        heads: list[int] = []
        lower: list[int] = []
        for v in range(n):
            i = in_node[v]
            if i is not None:
                tails.append(i)
                heads.append(v)
                lower.append(sink[v])
            o = out_node[v]
            if o is not None:
                tails.append(v)
                heads.append(o)
                lower.append(source[v])
        cost = [0] * len(tails)
        # typed arrays: one machine word per doubled arc, not an int object
        out_arc = array("q")
        in_arc = array("q")
        m = d.arc_count
        doubled = bidirect(d)
        # the m original arcs (cost 1) come before their reverse copies
        original = chain(repeat(1, m), repeat(0, m))
        for u, w, c in zip(doubled.tails, doubled.heads, original):
            o, i = out_node[u], in_node[w]
            if o is None or i is not None:
                # the sink entry, or the direct arc when neither copy exists
                in_arc.append(len(tails))
                tails.append(u)
                heads.append(w if i is None else i)
                cost.append(c)
            else:
                in_arc.append(-1)
            if o is not None:
                out_arc.append(len(tails))
                tails.append(o)
                heads.append(w)
                cost.append(c)
            else:
                out_arc.append(-1)
        self.digraph = Digraph._derived(node_count, tuple(tails), tuple(heads))
        self.lower = tuple(lower) + (0,) * (len(tails) - len(lower))
        self.cost = tuple(cost)
        self.scale = weights.scale
        self.out_node = out_node
        self.in_node = in_node
        self.out_arc = out_arc
        self.in_arc = in_arc


def build_aux_network(d: Digraph, weights: WeightPair) -> AuxNetwork:
    return AuxNetwork(d, weights)


class CircularCover(Record):
    """Certificate that no pair can weigh more than ``cost``.

    ``out_cover`` and ``in_cover`` assign int multiplicities to the
    doubled arc set, in units of ``1/scale``: the flows of the auxiliary
    network, whose weights are scaled by ``scale``.  ``out_cover`` sends at
    least the source weight out of every node, ``in_cover`` at least the
    sink weight into every node, their sum is a circulation, and only
    original arcs are charged.

    ``cost``, the exact cover cost ``charge`` over ``scale`` (an int when
    whole), is worked out once by the constructor.  It is not a field: it
    takes no part in equality, hash or repr, and :meth:`replace` and
    pickling compute it again.
    """

    _fields = ("out_cover", "in_cover", "scale")
    __slots__ = _fields + ("cost",)

    def __init__(self, out_cover: tuple, in_cover: tuple, scale: int = 1):
        if isinstance(scale, bool) or not isinstance(scale, int) or scale < 1:
            raise InputError(f"cover scale {brief(scale)} is not a positive int")
        if len(out_cover) != len(in_cover):
            raise InputError("cover vectors differ in length")
        if len(out_cover) % 2:
            raise InputError("cover vectors must cover the doubled arc set")
        entries = out_cover + in_cover
        if not set(map(type, entries)) <= {int}:
            raise InputError("cover multiplicities must be ints")
        if min(entries, default=0) < 0:
            raise InputError("cover multiplicities must be nonnegative")
        super().__init__(out_cover, in_cover, scale)
        set_field(self, "cost", _cover_cost(self.charge, scale))

    @classmethod
    def _derived(cls, out_cover: tuple, in_cover: tuple, scale: int) -> "CircularCover":
        """A cover built without the checks of ``__init__``.

        Only for the flows of a certified circulation of the auxiliary
        network (:func:`extract_cover`): nonnegative int entries, one pair
        per doubled arc, and the network's positive int scale.
        """
        cover = object.__new__(cls)
        Record.__init__(cover, out_cover, in_cover, scale)
        set_field(cover, "cost", _cover_cost(cover.charge, scale))
        return cover

    def combined(self) -> tuple:
        """Sum of both covers, in units of ``1/scale``."""
        return tuple(a + b for a, b in zip(self.out_cover, self.in_cover))

    @property
    def charge(self) -> int:
        """Total multiplicity on original arcs, in units of ``1/scale``."""
        m = len(self.out_cover) // 2
        return sum(self.out_cover[:m]) + sum(self.in_cover[:m])


def _cover_cost(charge: int, scale: int) -> Weight:
    """``charge`` over ``scale``, exact: an int when whole."""
    return charge if scale == 1 else _whole(Fraction(charge, scale))


class SourceSinkCertificate(Record):
    """An optimal pair together with both optimality witnesses, and the
    instance ``(digraph, weights)`` they answer.

    ``potential`` lives on the original nodes, drops only by 0 or 1 along
    arcs, and reorienting the drop-1 arcs turns ``source_set`` into sources
    and ``sink_set`` into sinks.  ``cover`` is the matching upper-bound
    certificate; its cost equals ``value``, which equals the pair's weight.
    """

    _fields = (
        "digraph", "weights", "source_set", "sink_set", "potential", "cover", "value"
    )
    __slots__ = _fields + ("_checks",)

    def __init__(self, *values):
        super().__init__(*values)
        set_field(self, "_checks", None)

    @property
    def checks(self) -> dict[str, bool]:
        """:func:`certificate_checks` of this certificate, computed on the
        first read and kept; a copy made with :meth:`replace` computes its
        own.  The checks are not a field: they take no part in equality,
        hash or repr."""
        if self._checks is None:
            set_field(self, "_checks", certificate_checks(self))
        return self._checks


def extract_pair(
    aux: AuxNetwork, solution: mincost.McfSolution
) -> tuple[frozenset[int], frozenset[int], tuple[int, ...]]:
    """Read the optimal pair off the potential of ``mincost.solve(aux)``,
    which the solver has certified cost-feasible.

    The vertical arcs absorb slack 0 or 1 apiece; a node joins the source
    set when its out-vertical is slack, the sink set when its in-vertical
    is.  A node without a copy on one side has weight 0 there and stays
    out of that set, so the pair holds positive-weight nodes only.  A
    vertical slack sum outside {0, 1} cannot come from a cost-feasible
    potential and signals a solver bug.
    """
    potential = solution.potential
    n = len(aux.out_node)
    source_set = []
    sink_set = []
    for v, (o, i) in enumerate(zip(aux.out_node, aux.in_node)):
        slack_out = 0 if o is None else potential[v] - potential[o]
        slack_in = 0 if i is None else potential[i] - potential[v]
        if slack_out + slack_in not in (0, 1):
            raise InvariantError(
                f"vertical slacks at node {v} sum to {slack_out + slack_in}"
            )
        if slack_out == 1:
            source_set.append(v)
        if slack_in == 1:
            sink_set.append(v)
    return frozenset(source_set), frozenset(sink_set), normalize_potential(potential[:n])


def extract_cover(aux: AuxNetwork, solution: mincost.McfSolution) -> CircularCover:
    """Turn the flow of ``mincost.solve(aux)`` into a circular cover: the
    source exits carry the out-cover, the sink entries and direct arcs the
    in-cover.  The solver has certified the flow a circulation meeting
    every lower bound, so the cover skips the constructor's checks; a
    charge off the objective signals a solver bug."""
    flow = solution.flow
    cover = CircularCover._derived(
        tuple([0 if a < 0 else flow[a] for a in aux.out_arc]),
        tuple([0 if a < 0 else flow[a] for a in aux.in_arc]),
        aux.scale,
    )
    if cover.charge != solution.objective:
        raise InvariantError("cover cost differs from the circulation cost")
    return cover


def certificate_checks(cert: SourceSinkCertificate) -> dict:
    """Exact validity checks for a certificate against the instance it
    carries.

    All entries must be true for a certificate produced by this module;
    they are recomputed from scratch so external consumers can audit a
    stored certificate.  The audit is one pass over the arcs and one over
    the doubled arcs.  The first reads the potential's drops and checks
    the pair by its definition: once the drop-1 arcs are reversed, no arc
    enters a node of the source set and no arc leaves a node of the sink
    set; a pair entry that is no int, a bool included, names no node and
    fails the pair's checks, and a potential entry that is no int is an
    input error.  The second sums the cover.  The cover, in units of
    ``1/cover.scale``, and the weights, in units of ``1/weights.scale``,
    are compared cross-multiplied by each other's scale, in ints, so a
    cover proves its bound whatever positive scale it states.
    """
    d, weights, cover = cert.digraph, cert.weights, cert.cover
    ws, cs = weights.scale, cover.scale
    n = d.node_count
    source_set, sink_set = cert.source_set, cert.sink_set
    checks: dict[str, bool] = {}
    checks["pair_disjoint"] = disjoint = not (source_set & sink_set)

    potential = cert.potential
    if len(potential) != n:
        raise InputError("potential length does not match node count")
    if not set(map(type, potential)) <= {int}:
        raise InputError("potential entries must be ints")
    if weights.node_count != n:
        raise InputError("weight vectors must have one entry per node")
    # which nodes an arc still enters, and which it still leaves, once the
    # drop-1 arcs are reversed; an arc that drops by neither 0 nor 1 is
    # reoriented by no cut, so it marks both of its ends both ways
    entered = bytearray(n)
    left = bytearray(n)
    small = True
    for u, v in zip(d.tails, d.heads):
        dr = potential[v] - potential[u]
        if dr == 0:
            left[u] = entered[v] = 1
        elif dr == 1:
            left[v] = entered[u] = 1
        else:
            small = False
            left[u] = entered[u] = left[v] = entered[v] = 1
    # a node id is an int, and a bool is none
    pair = source_set | sink_set
    in_range = set(map(type, pair)) <= {int} and all(0 <= v < n for v in pair)
    checks["potential_small_dropping"] = small
    checks["pair_verified"] = (
        disjoint
        and in_range
        and not any(entered[v] for v in source_set)
        and not any(left[v] for v in sink_set)
    )

    doubled = bidirect(d)
    if len(cover.out_cover) != doubled.arc_count:
        # the cover's own check keeps its vectors equal in length
        raise InputError("circulation vector must have one entry per doubled arc")
    # one pass over the doubled arcs: what each cover sends out of or into
    # each node, the net flow of their sum at each node, and whether each
    # nonzero entry is a whole multiple of the cover's scale
    out_at = [0] * n
    in_at = [0] * n
    net = [0] * n
    integral = True
    for u, v, zo, zi in zip(doubled.tails, doubled.heads, cover.out_cover, cover.in_cover):
        if zo:
            out_at[u] += zo
            net[u] -= zo
            net[v] += zo
            if zo % cs:
                integral = False
        if zi:
            in_at[v] += zi
            net[u] -= zi
            net[v] += zi
            if zi % cs:
                integral = False
    checks["cover_out"] = all(z * ws >= w * cs for z, w in zip(out_at, weights.source_units))
    checks["cover_in"] = all(z * ws >= w * cs for z, w in zip(in_at, weights.sink_units))
    checks["cover_circulation"] = not any(net)
    if weights.integral:
        checks["cover_integral"] = integral

    if in_range:
        pair_units = sum(weights.source_units[v] for v in source_set) + sum(
            weights.sink_units[v] for v in sink_set
        )
        checks["minmax_equal"] = pair_units * cs == cover.charge * ws and cert.value == cover.cost
    else:
        # a pair that names a node outside the digraph has no weight, and
        # fails pair_verified too
        checks["minmax_equal"] = False
    return checks


def max_source_sink(d: Digraph, weights: WeightPair) -> SourceSinkCertificate:
    """Maximum-weight source-sink pair with full optimality certificate.

    The returned value is exact (integer for integer weights); the
    certificate carries the witness potential and a circular cover of equal
    cost, and has passed :func:`certificate_checks`.
    """
    aux = build_aux_network(d, weights)
    solution = mincost.solve(aux)
    source_set, sink_set, potential = extract_pair(aux, solution)
    cover = extract_cover(aux, solution)
    cert = SourceSinkCertificate(d, weights, source_set, sink_set, potential, cover, cover.cost)
    failed = sorted(k for k, ok in cert.checks.items() if not ok)
    if failed:
        raise InvariantError(f"certificate failed self-checks: {failed}")
    return cert


class SinkStableResult(Record):
    """A maximum-weight sink-stable set with a circuit-family certificate.

    ``circuits`` decomposes the certifying cover into one-way circuits of
    the doubled digraph with multiplicities; every node lies on at least
    its weight's worth of circuits, and the total multiplicity-weighted
    count of original arcs equals ``value``.
    """

    _fields = __slots__ = ("sink_set", "circuits", "value", "certificate")


def max_sink_stable(d: Digraph, sink_weight: Sequence[int]) -> SinkStableResult:
    """Maximum-weight set that some reorientation turns into sinks only.

    Integer weights only: the circuit-family certificate needs an integral
    cover.
    """
    weights = WeightPair.sink_only(sink_weight)
    if not weights.integral:
        raise InputError("sink-stable weights must be integers")
    cert = max_source_sink(d, weights)
    doubled = bidirect(d)
    family = mincost.decompose(doubled, cert.cover.combined())

    m = d.arc_count
    covered = [0] * d.node_count
    arc_total = 0
    for cycle, mult in family:
        arc_total += mult * sum(1 for e in cycle if e < m)
        for e in cycle:
            covered[doubled.tails[e]] += mult
    if arc_total != cert.value:
        raise InvariantError("circuit family does not add up to the optimum")
    bad = [v for v, w in enumerate(weights.sink_weight) if covered[v] < w]
    if bad:
        raise InvariantError(f"circuit family leaves nodes under-covered: {bad}")
    return SinkStableResult(cert.sink_set, tuple(family), cert.value, cert)


def max_resonant(d: Digraph, weight: Sequence[Weight]) -> SourceSinkCertificate:
    """Maximum-weight resonant set (weighted by node, counted once).

    A resonant set is one that partitions into a source part and a sink
    part of a common reorientation; the certificate's two sets provide the
    partition and their union is the resonant set.
    """
    w = tuple(weight)
    return max_source_sink(d, WeightPair(w, w))
