"""Maximum-weight source-sink pairs via minimum-cost circulations.

A source-sink pair of a digraph is a pair of disjoint node sets that some
reorientation (reversing a disjoint union of directed cuts) turns into
sources and sinks simultaneously.  Each node carries two nonnegative
weights, one collected if it becomes a source and one if it becomes a sink;
the goal is a pair of maximum total weight.

The maximum is computed on an auxiliary circulation network with three
copies of every node: the node itself, an out-layer copy reached by a
vertical arc carrying the source weight as a lower bound, and an in-layer
copy feeding it through a vertical arc carrying the sink weight.  Every arc
u -> w of the doubled digraph (every arc plus its reverse copy) enters the
network twice, as the sink entry u -> in(w) and as the source exit
out(u) -> w.  Arcs that exist in the original digraph cost 1, reverse
copies and verticals cost 0.  A direct arc u -> w would add nothing: it is
dominated by the path u -> in(w) -> w, which costs the same through an
uncapacitated vertical.  A minimum-cost circulation on this network has
the pair weight as its cost, the optimal pair falls out of the node
potential, and the flow is a circular cover certifying optimality: a pair
of arc multiplicity vectors (the source exits and the sink entries) whose
sum is a circulation, one sending enough flow out of every node to pay its
source weight, the other enough into every node to pay its sink weight.

Rational weights are cleared to integers by a common denominator before
solving and scaled back afterwards, so all reported values are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from . import mincost
from .digraph import (
    ArcClass,
    BiDigraph,
    Digraph,
    bidirect,
    classify_arcs,
    is_circulation,
    normalize_potential,
    potential_drops,
)
from .errors import InputError, InvariantError

Weight = int | Fraction


def _check_weight_vector(w: Sequence, what: str) -> tuple[Weight, ...]:
    out = []
    for i, x in enumerate(w):
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InputError(f"{what}[{i}] = {x!r}; weights must be int or Fraction")
        if x < 0:
            raise InputError(f"{what}[{i}] = {x} is negative")
        if isinstance(x, Fraction) and x.denominator == 1:
            x = int(x)
        out.append(x)
    return tuple(out)


def parse_weight_value(value, what: str) -> Weight:
    """Read one weight from its JSON form: an int, a ``"p/q"`` or decimal
    string, or a float converted via its decimal text (0.1 is one tenth).

    Anything else, including NaN, infinities, a zero denominator and
    negative values, raises :class:`InputError` naming ``what``.
    """
    if isinstance(value, bool):
        raise InputError(f"{what}: booleans are not weights")
    if isinstance(value, int):
        w: Weight = value
    elif isinstance(value, (float, str)):
        try:
            w = Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{what}: cannot parse weight {value!r}") from exc
    else:
        raise InputError(f"{what}: cannot read weight {value!r}")
    if w < 0:
        raise InputError(f"{what}: weight must be nonnegative")
    if isinstance(w, Fraction) and w.denominator == 1:
        w = int(w)
    return w


@dataclass(frozen=True)
class WeightPair:
    """Per-node source and sink weights, nonnegative and exact."""

    source_weight: tuple[Weight, ...]
    sink_weight: tuple[Weight, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "source_weight", _check_weight_vector(self.source_weight, "source_weight")
        )
        object.__setattr__(
            self, "sink_weight", _check_weight_vector(self.sink_weight, "sink_weight")
        )
        if len(self.source_weight) != len(self.sink_weight):
            raise InputError("source and sink weight vectors differ in length")

    @property
    def node_count(self) -> int:
        return len(self.source_weight)

    @property
    def integral(self) -> bool:
        return all(isinstance(x, int) for x in self.source_weight + self.sink_weight)

    def scaled_integral(self) -> tuple["WeightPair", int]:
        """Clear denominators: returns (integer pair, scale factor)."""
        if self.integral:
            return self, 1
        denom = lcm(
            *(Fraction(x).denominator for x in self.source_weight + self.sink_weight)
        )
        return (
            WeightPair(
                tuple(int(x * denom) for x in self.source_weight),
                tuple(int(x * denom) for x in self.sink_weight),
            ),
            denom,
        )

    @classmethod
    def uniform(cls, node_count: int, value: Weight = 1) -> "WeightPair":
        return cls((value,) * node_count, (value,) * node_count)

    @classmethod
    def sink_only(cls, sink_weight: Sequence[Weight]) -> "WeightPair":
        return cls((0,) * len(sink_weight), tuple(sink_weight))

    @classmethod
    def indicator(
        cls, node_count: int, source_nodes: Iterable[int], sink_nodes: Iterable[int]
    ) -> "WeightPair":
        so = frozenset(source_nodes)
        si = frozenset(sink_nodes)
        return cls(
            tuple(1 if v in so else 0 for v in range(node_count)),
            tuple(1 if v in si else 0 for v in range(node_count)),
        )


class AuxNetwork:
    """Circulation network whose optimum is the best pair weight.

    Nodes 0..n-1 are the original nodes; ``out_node(v)`` and ``in_node(v)``
    are v's copies in the out and in layers.  Arcs, in index order: for each
    node v the vertical ``in_node(v) -> v`` with the sink weight as lower
    bound and ``v -> out_node(v)`` with the source weight; then for each
    doubled arc j = (u, w) the sink entry ``u -> in_node(w)`` and the source
    exit ``out_node(u) -> w``, each costing 1 exactly when j is an original
    arc.  No arc joins u to w directly, since ``u -> in_node(w) -> w`` costs
    the same and its vertical has no capacity limit.

    The network's digraph is derived from ``d`` without re-validation: its
    node ids lie in ``0 .. 3n - 1``, no arc joins a layer to itself, the
    verticals tie every copy to its node, and every arc of ``d`` joins its
    ends through an in-layer copy, so it is connected because ``d`` is.
    """

    __slots__ = ("digraph", "lower", "cost", "bi", "weights")

    def __init__(self, d: Digraph, weights: WeightPair):
        if weights.node_count != d.node_count:
            raise InputError("weight vectors must have one entry per node")
        n = d.node_count
        bi = bidirect(d)
        # one int object per copy, shared by all arcs at that copy
        out_id = list(range(n, 2 * n))
        in_id = list(range(2 * n, 3 * n))
        arcs: list[tuple[int, int]] = []
        lower: list[Weight] = []
        for v in range(n):
            arcs += ((in_id[v], v), (v, out_id[v]))
            lower += (weights.sink_weight[v], weights.source_weight[v])
        for u, w in bi.arcs:
            arcs += ((u, in_id[w]), (out_id[u], w))
        m = bi.m
        self.digraph = Digraph._derived(3 * n, tuple(arcs))
        self.lower = tuple(lower) + (0,) * (4 * m)
        # bi lists the m original arcs (cost 1) before their reverse copies
        self.cost = (0,) * (2 * n) + (1,) * (2 * m) + (0,) * (2 * m)
        self.bi = bi
        self.weights = weights

    @property
    def base_node_count(self) -> int:
        return self.bi.node_count

    def out_node(self, v: int) -> int:
        return self.base_node_count + v

    def in_node(self, v: int) -> int:
        return 2 * self.base_node_count + v

    def vertical_in_arc(self, v: int) -> int:
        return 2 * v

    def vertical_out_arc(self, v: int) -> int:
        return 2 * v + 1

    def sink_entry_arc(self, j: int) -> int:
        """Arc from the tail of doubled arc j into the in-layer copy of its head."""
        return 2 * self.base_node_count + 2 * j

    def source_exit_arc(self, j: int) -> int:
        """Arc from the out-layer copy of the tail of doubled arc j to its head."""
        return 2 * self.base_node_count + 2 * j + 1


def build_aux_network(d: Digraph, weights: WeightPair) -> AuxNetwork:
    return AuxNetwork(d, weights)


@dataclass(frozen=True)
class CircularCover:
    """Certificate that no pair can weigh more than ``cost``.

    ``out_cover`` and ``in_cover`` assign multiplicities to the doubled arc
    set.  ``out_cover`` sends at least the source weight out of every node,
    ``in_cover`` at least the sink weight into every node, their sum is a
    circulation, and only original arcs are charged.
    """

    out_cover: tuple
    in_cover: tuple

    def __post_init__(self):
        if len(self.out_cover) != len(self.in_cover):
            raise InputError("cover vectors differ in length")
        if len(self.out_cover) % 2:
            raise InputError("cover vectors must cover the doubled arc set")
        for x in self.out_cover + self.in_cover:
            if x < 0:
                raise InputError("cover multiplicities must be nonnegative")

    @property
    def doubled_arc_count(self) -> int:
        return len(self.out_cover)

    def combined(self) -> tuple:
        return tuple(a + b for a, b in zip(self.out_cover, self.in_cover))

    @property
    def cost(self):
        m = self.doubled_arc_count // 2
        return sum(self.out_cover[j] + self.in_cover[j] for j in range(m))

    def scaled(self, factor: Fraction) -> "CircularCover":
        def conv(x):
            if not x:
                return x
            y = x * factor
            return int(y) if isinstance(y, Fraction) and y.denominator == 1 else y

        return CircularCover(
            tuple(conv(x) for x in self.out_cover),
            tuple(conv(x) for x in self.in_cover),
        )


@dataclass(frozen=True)
class SourceSinkCertificate:
    """An optimal pair together with both optimality witnesses.

    ``potential`` lives on the original nodes, drops only by 0 or 1 along
    arcs, and reorienting the drop-1 arcs turns ``source_set`` into sources
    and ``sink_set`` into sinks.  ``cover`` is the matching upper-bound
    certificate; its cost equals ``value``, which equals the pair's weight.

    ``checks`` is the dict of :func:`certificate_checks` that the solver
    computed (all true) when it produced this certificate, and ``None`` on a
    certificate built or copied (``dataclasses.replace``) by hand.
    """

    source_set: frozenset[int]
    sink_set: frozenset[int]
    potential: tuple[int, ...]
    cover: CircularCover
    value: Weight
    checks: dict[str, bool] | None = field(
        default=None, init=False, compare=False, repr=False
    )
    # the (digraph, weights) that ``checks`` were computed against
    _checked_on: tuple | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def checks_for(self, d: Digraph, weights: WeightPair) -> dict[str, bool]:
        """:func:`certificate_checks` of this certificate on ``(d, weights)``:
        the recorded ``checks`` when they were computed on an equal instance,
        else computed afresh."""
        if self._checked_on == (d, weights):
            return self.checks
        return certificate_checks(d, weights, self)


def extract_pair(
    aux: AuxNetwork, potential: Sequence[int]
) -> tuple[frozenset[int], frozenset[int], tuple[int, ...]]:
    """Read the optimal pair off a cost-feasible potential of the network.

    The vertical arcs absorb slack 0 or 1 apiece; a node joins the source
    set when its out-vertical is slack, the sink set when its in-vertical
    is.  A vertical slack outside {0, 1} cannot come from a cost-feasible
    potential and signals a solver bug.
    """
    dg = aux.digraph
    if len(potential) != dg.node_count:
        raise InputError("potential length does not match the network")
    for a, ((u, v), c) in enumerate(zip(dg.arcs, aux.cost)):
        if potential[v] - potential[u] > c:
            raise InputError(f"potential is not cost-feasible on arc {a}")
    n = aux.base_node_count
    source_set = []
    sink_set = []
    for v in range(n):
        # out_node(v) is n + v, in_node(v) is 2n + v
        slack_out = potential[v] - potential[n + v]
        slack_in = potential[2 * n + v] - potential[v]
        if slack_out + slack_in not in (0, 1):
            raise InvariantError(
                f"vertical slacks at node {v} sum to {slack_out + slack_in}"
            )
        if slack_out == 1:
            source_set.append(v)
        if slack_in == 1:
            sink_set.append(v)
    return frozenset(source_set), frozenset(sink_set), normalize_potential(potential[:n])


def extract_cover(aux: AuxNetwork, flow: Sequence) -> CircularCover:
    """Turn a feasible circulation of the network into a circular cover:
    the source-exit arcs carry the out-cover, the sink-entry arcs the
    in-cover."""
    dg = aux.digraph
    if len(flow) != dg.arc_count:
        raise InputError("flow length does not match the network")
    net = [0] * dg.node_count
    for a, ((u, v), f, low) in enumerate(zip(dg.arcs, flow, aux.lower)):
        if f < low:
            raise InputError(f"flow on arc {a} is below its lower bound")
        if f:
            net[u] -= f
            net[v] += f
    if any(net):
        raise InputError("flow is not a circulation")

    original_cost = sum(c * f for c, f in zip(aux.cost, flow) if f)
    # Doubled arc j owns aux arcs first + 2j (sink_entry_arc) and
    # first + 2j + 1 (source_exit_arc); they fill the rest of the arc
    # list, so each stride-2 slice has one entry per j.
    first = 2 * aux.base_node_count
    cover = CircularCover(tuple(flow[first + 1::2]), tuple(flow[first::2]))
    if cover.cost != original_cost:
        raise InvariantError("cover cost differs from the circulation cost")
    return cover


def certificate_checks(d: Digraph, weights: WeightPair, cert: SourceSinkCertificate) -> dict:
    """Exact validity checks for a certificate against its instance.

    All entries must be true for a certificate produced by this module;
    they are recomputed from scratch so external consumers can audit a
    stored certificate.
    """
    checks: dict[str, bool] = {}
    checks["pair_disjoint"] = not (cert.source_set & cert.sink_set)

    drops = potential_drops(d, cert.potential)
    checks["potential_small_dropping"] = all(dr in (0, 1) for dr in drops)
    try:
        classes = classify_arcs(d, cert.source_set, cert.sink_set)
        verified = True
        for dr, cl in zip(drops, classes):
            if cl is ArcClass.INCORRECT and dr != 1:
                verified = False
            elif cl is ArcClass.CORRECT and dr != 0:
                verified = False
        checks["pair_verified"] = verified
    except InputError:
        checks["pair_verified"] = False

    bi = bidirect(d)
    out_at = [0] * d.node_count
    in_at = [0] * d.node_count
    for j, (u, v) in enumerate(bi.arcs):
        zo = cert.cover.out_cover[j]
        zi = cert.cover.in_cover[j]
        if zo:
            out_at[u] += zo
        if zi:
            in_at[v] += zi
    checks["cover_out"] = all(
        out_at[v] >= weights.source_weight[v] for v in range(d.node_count)
    )
    checks["cover_in"] = all(
        in_at[v] >= weights.sink_weight[v] for v in range(d.node_count)
    )
    checks["cover_circulation"] = is_circulation(bi, cert.cover.combined())
    if weights.integral:
        checks["cover_integral"] = all(
            isinstance(x, int) for x in cert.cover.out_cover + cert.cover.in_cover
        )

    pair_weight = sum(weights.source_weight[v] for v in cert.source_set) + sum(
        weights.sink_weight[v] for v in cert.sink_set
    )
    checks["minmax_equal"] = pair_weight == cert.value == cert.cover.cost
    return checks


def max_source_sink(d: Digraph, weights: WeightPair) -> SourceSinkCertificate:
    """Maximum-weight source-sink pair with full optimality certificate.

    The returned value is exact (integer for integer weights); the
    certificate carries the witness potential and a circular cover of equal
    cost, and has passed :func:`certificate_checks`.
    """
    scaled, denom = weights.scaled_integral()
    aux = build_aux_network(d, scaled)
    solution = mincost.solve(
        mincost.CirculationInstance(aux.digraph, aux.lower, aux.cost)
    )
    source_set, sink_set, potential = extract_pair(aux, solution.potential)
    cover = extract_cover(aux, solution.flow)
    value: Weight = solution.objective
    if denom != 1:
        cover = cover.scaled(Fraction(1, denom))
        value = Fraction(solution.objective, denom)
        if value.denominator == 1:
            value = int(value)
    cert = SourceSinkCertificate(source_set, sink_set, potential, cover, value)
    return _self_checked(d, weights, cert, "certificate")


def _self_checked(
    d: Digraph, weights: WeightPair, cert: SourceSinkCertificate, what: str
) -> SourceSinkCertificate:
    """Run :func:`certificate_checks` once, raise unless all pass, and
    record the passing dict on ``cert``."""
    checks = certificate_checks(d, weights, cert)
    if not all(checks.values()):
        failed = sorted(k for k, ok in checks.items() if not ok)
        raise InvariantError(f"{what} failed self-checks: {failed}")
    object.__setattr__(cert, "checks", checks)
    object.__setattr__(cert, "_checked_on", (d, weights))
    return cert


@dataclass(frozen=True)
class SinkStableResult:
    """A maximum-weight sink-stable set with a circuit-family certificate.

    ``circuits`` decomposes the certifying cover into one-way circuits of
    the doubled digraph with multiplicities; every node lies on at least
    its weight's worth of circuits, and the total multiplicity-weighted
    count of original arcs equals ``value``.
    """

    sink_set: frozenset[int]
    circuits: tuple[tuple[tuple[int, ...], int], ...]
    value: Weight
    certificate: SourceSinkCertificate


def max_sink_stable(d: Digraph, sink_weight: Sequence[int]) -> SinkStableResult:
    """Maximum-weight set that some reorientation turns into sinks only.

    Integer weights only: the circuit-family certificate needs an integral
    cover.
    """
    for x in sink_weight:
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError("sink-stable weights must be integers")
    weights = WeightPair.sink_only(sink_weight)
    cert = max_source_sink(d, weights)
    bi = bidirect(d)
    family = mincost.decompose(bi, cert.cover.combined())

    covered = [0] * d.node_count
    arc_total = 0
    for cycle, mult in family:
        arc_total += mult * sum(1 for e in cycle if e < bi.m)
        for e in cycle:
            covered[bi.arcs[e][0]] += mult
    if arc_total != cert.value:
        raise InvariantError("circuit family does not add up to the optimum")
    bad = [v for v in range(d.node_count) if covered[v] < sink_weight[v]]
    if bad:
        raise InvariantError(f"circuit family leaves nodes under-covered: {bad}")
    return SinkStableResult(cert.sink_set, tuple(family), cert.value, cert)


def max_resonant(d: Digraph, weight: Sequence[Weight]) -> SourceSinkCertificate:
    """Maximum-weight resonant set (weighted by node, counted once).

    A resonant set is one that partitions into a source part and a sink
    part of a common reorientation; the certificate's two sets provide the
    partition and their union is the resonant set.
    """
    w = _check_weight_vector(weight, "weight")
    return max_source_sink(d, WeightPair(w, w))


def max_cardinality_within(
    d: Digraph, source_pool: Iterable[int], sink_pool: Iterable[int]
) -> SourceSinkCertificate:
    """Largest source-sink pair with sources drawn from ``source_pool`` and
    sinks from ``sink_pool`` (disjoint pools).

    Solved with indicator weights; nodes outside the pools carry weight 0
    and are dropped from the reported pair, which keeps the certificate
    valid and the value equal to the reported pair's size.
    """
    so_pool = frozenset(source_pool)
    si_pool = frozenset(sink_pool)
    if so_pool & si_pool:
        raise InputError("source and sink pools overlap")
    for v in so_pool | si_pool:
        if not (0 <= v < d.node_count):
            raise InputError(f"node {v} out of range")
    cert = max_source_sink(d, WeightPair.indicator(d.node_count, so_pool, si_pool))
    return _restrict_pair(d, cert, so_pool, si_pool,
                          WeightPair.indicator(d.node_count, so_pool, si_pool))


def constrained_source_sink(
    d: Digraph,
    forced_sources: Iterable[int],
    allowed_sources: Iterable[int],
    forced_sinks: Iterable[int],
    allowed_sinks: Iterable[int],
) -> SourceSinkCertificate | None:
    """Best pair within allowed pools that contains all forced nodes, or
    ``None`` when no such pair exists.

    Forced nodes get a weight exceeding everything the optional nodes can
    add together (1 + total pool size), so any feasible pair containing all
    of them beats every pair missing one; the forced nodes are then in the
    optimum exactly when the constraint is satisfiable.  The certificate's
    value is under these weights, not a cardinality.
    """
    f_so = frozenset(forced_sources)
    a_so = frozenset(allowed_sources)
    f_si = frozenset(forced_sinks)
    a_si = frozenset(allowed_sinks)
    if not (f_so <= a_so and f_si <= a_si):
        raise InputError("forced nodes must lie in the allowed pools")
    if a_so & a_si:
        raise InputError("allowed pools overlap")
    for v in a_so | a_si:
        if not (0 <= v < d.node_count):
            raise InputError(f"node {v} out of range")
    big = 1 + len(a_so) + len(a_si)
    w_source = tuple(
        big if v in f_so else 1 if v in a_so else 0 for v in range(d.node_count)
    )
    w_sink = tuple(
        big if v in f_si else 1 if v in a_si else 0 for v in range(d.node_count)
    )
    weights = WeightPair(w_source, w_sink)
    cert = max_source_sink(d, weights)
    cert = _restrict_pair(d, cert, a_so, a_si, weights)
    if not (f_so <= cert.source_set and f_si <= cert.sink_set):
        return None
    return cert


def _restrict_pair(
    d: Digraph,
    cert: SourceSinkCertificate,
    source_pool: frozenset[int],
    sink_pool: frozenset[int],
    weights: WeightPair,
) -> SourceSinkCertificate:
    """Drop zero-weight nodes outside the pools from the reported pair.

    Shrinking the pair only relaxes the potential's obligations and leaves
    the pair weight unchanged, so the original witnesses still apply; the
    rebuilt certificate is re-checked to be safe.
    """
    restricted = replace(
        cert,
        source_set=cert.source_set & source_pool,
        sink_set=cert.sink_set & sink_pool,
    )
    return _self_checked(d, weights, restricted, "restricted certificate")
