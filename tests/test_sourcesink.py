import pickle
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarfries import (
    AuxNetwork,
    CirculationInstance,
    CircularCover,
    ClarFriesResult,
    Digraph,
    InputError,
    InvariantError,
    McfSolution,
    SinkStableResult,
    WeightPair,
    apply_reorientation,
    bidirect,
    build_aux_network,
    clar_number,
    fries_number,
    is_circulation,
    max_resonant,
    max_sink_stable,
    max_source_sink,
    normalize_potential,
    solve,
    solve_clar_fries,
    sources_sinks,
)
from clarfries import jsonio, sourcesink
from clarfries.digraph import potential_drops
from clarfries.jsonio import certificate_to_json
from clarfries.sourcesink import certificate_checks, extract_cover, extract_pair
from fixtures import (
    acyclic_triangle,
    arc_pairs,
    benzenoid_catalog,
    bowtie,
    bowtie_nodes,
    random_digraph,
    random_weight_pair,
    reference_instances,
    single_arc,
    two_cycle,
)
from reorientation import ArcClass, ViolatingCircuit, classify_arcs, verify_source_sink


def ones(n):
    return WeightPair((1,) * n, (1,) * n)


# --- weights ----------------------------------------------------------------


def test_weight_pair_validation():
    with pytest.raises(InputError):
        WeightPair((-1, 0), (0, 0))
    with pytest.raises(InputError):
        WeightPair((0, 0), (0,))
    with pytest.raises(InputError):
        WeightPair((True, False), (0, 0))
    w = WeightPair((Fraction(1, 3), 0), (Fraction(1, 2), 1))
    assert not w.integral
    # the aux network clears denominators: node 0's verticals, sink weight
    # before source weight, then node 1's sink vertical (its source weight
    # is 0, so it has no out copy), times the lcm 6; then an arc with none
    aux = build_aux_network(single_arc(), w)
    assert aux.scale == 6
    assert aux.lower[:4] == (3, 2, 6, 0)
    CirculationInstance(aux.digraph, aux.lower, aux.cost)


@pytest.mark.parametrize("raw", ["1e-999999999", "1E+5000", "1e-5000"])
def test_weight_exponent_over_the_digit_limit_is_input_error(raw):
    # Fraction would build 10**exponent; the largest one here would take
    # the interpreter minutes
    with pytest.raises(InputError, match=r"w_o\[a\]: weight exponent over 4300"):
        jsonio.parse_weight_value(raw, "w_o[a]")
    assert jsonio.parse_weight_value("1e-4300", "w_o[a]") == Fraction(1, 10**4300)


class _TextSpy(Fraction):
    """``Fraction`` that records every text it parses."""

    texts: list = []

    def __new__(cls, *args):
        if len(args) == 1 and isinstance(args[0], str):
            cls.texts.append(args[0])
        return super().__new__(cls, *args)


@pytest.mark.parametrize(
    "text, fast",
    [
        ("3/4", True),
        ("6/4", True),
        ("007/3", True),
        ("0/5", True),
        ("4/2", True),
        ("+3/4", False),
        (" 3/4", False),
        ("1_000/3", False),
        ("\u0663/4", False),
        ("0.25", False),
        ("1e-3", False),
    ],
)
def test_pq_weights_read_without_the_text_parser(monkeypatch, text, fast):
    """A weight ``digits/digits`` in ASCII is read as two ints; every other
    text goes through ``Fraction``'s parser.  Both give ``Fraction(text)``,
    an int when it is whole."""
    value = jsonio.parse_weight_value(text, "w_o[a]")
    assert value == Fraction(text)
    assert type(value) is (int if Fraction(text).denominator == 1 else Fraction)
    _TextSpy.texts = []
    monkeypatch.setattr(jsonio, "Fraction", _TextSpy)
    assert jsonio.parse_weight_value(text, "w_o[a]") == value
    assert _TextSpy.texts == ([] if fast else [text])


@pytest.mark.parametrize(
    "text, message",
    [
        ("3/0", "w_o[a]: cannot parse weight '3/0'"),
        ("1" * 5000 + "/3", "w_o[a]: cannot parse weight '" + "1" * 59 + "..."),
    ],
)
def test_bad_pq_weights_keep_their_error(text, message):
    with pytest.raises(InputError) as err:
        jsonio.parse_weight_value(text, "w_o[a]")
    assert str(err.value) == message


def test_weight_pair_helpers():
    w = WeightPair.sink_only((2, 0, 1))
    assert w.source_weight == (0, 0, 0)
    indicator = tuple(int(v in {1, 3}) for v in range(4))
    w = WeightPair(indicator, indicator)
    assert w.source_weight == (0, 1, 0, 1) == w.sink_weight


def test_weight_scale_is_the_lcm_of_the_denominators():
    """``scale`` is worked out once, by the constructor, and the network
    clears the weights by it."""
    pairs = [(d, w) for d, w in reference_instances()]
    pairs += [(d, w) for d, w, _ in _random_pq_instances(14, 30)]
    for d, w in pairs:
        s = lcm(*(Fraction(x).denominator for x in w.source_weight + w.sink_weight))
        assert w.scale == s == AuxNetwork(d, w).scale
        assert w.integral == (s == 1)
    assert sum(w.scale > 1 for _, w in pairs) == 30


def test_weight_scale_is_no_field():
    w = WeightPair((Fraction(1, 2), 0), (0, Fraction(1, 3)))
    assert w.scale == 6
    # replace and pickle go through the constructor, which computes it again
    assert w.replace(sink_weight=(0, Fraction(4, 2))).scale == 2
    assert w.replace(source_weight=(1, 0), sink_weight=(0, 1)).scale == 1
    copy = pickle.loads(pickle.dumps(w))
    assert copy == w and copy.scale == 6
    # equality, hash and repr read the weights only
    assert WeightPair((1, 2), (0, Fraction(4, 2))) == WeightPair((1, 2), (0, 2))
    assert hash(w) == hash(WeightPair(w.source_weight, w.sink_weight))
    assert "scale" not in repr(w)
    with pytest.raises(AttributeError):
        w.scale = 1


def _assert_units(w):
    for weights, units in ((w.source_weight, w.source_units), (w.sink_weight, w.sink_units)):
        assert units == tuple(x * w.scale for x in weights)
        assert all(type(x) is int for x in units)


def test_weight_units_are_the_weights_times_the_scale():
    """The constructor clears the weights to ints once; ``replace`` and
    pickling clear them again, and the units take no part in equality,
    hash or repr."""
    pairs = [w for _, w in reference_instances()]
    pairs += [w for _, w, _ in _random_pq_instances(14, 30)]
    for w in pairs:
        _assert_units(w)
        if w.integral:
            assert (w.source_units, w.sink_units) == (w.source_weight, w.sink_weight)
        _assert_units(pickle.loads(pickle.dumps(w)))
        _assert_units(w.replace(sink_weight=w.source_weight))
    w = WeightPair((Fraction(1, 2), 3), (0, Fraction(2, 3)))
    assert (w.source_units, w.sink_units) == ((3, 18), (0, 4))
    assert w.replace(sink_weight=(0, 1)).source_units == (1, 6)
    assert "units" not in repr(w)
    assert hash(w) == hash(WeightPair(w.source_weight, w.sink_weight))
    with pytest.raises(AttributeError):
        w.source_units = (0, 0)


def _stream_pq_request(rng, n):
    """A ``resonant`` request shaped like the benchmark's digraph stream:
    ``n`` named nodes, 4n arcs (a spanning tree plus random extras) and a
    ``"p/q"`` weight on every node, read through the JSON reader."""
    names = [f"v{i}" for i in range(n)]
    arcs = [[names[rng.randrange(v)], names[v]] for v in range(1, n)]
    while len(arcs) < 4 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append([names[u], names[v]])
    d, names, index = jsonio.digraph_from_json({"nodes": names, "arcs": arcs})
    raw = {x: f"{rng.randint(0, 30)}/{rng.choice((2, 3, 4))}" for x in names}
    return d, names, jsonio.node_weights_from_json(raw, index, 0, "w")


def test_a_pq_request_builds_no_fraction_per_node(monkeypatch):
    """After the reader, a ``"p/q"`` request does integer arithmetic: the
    solve, its audit and the rendering build one ``Fraction``, the cover's
    cost, which the certificate's value, the audit and the rendered
    ``cover_cost`` all read, however many nodes the digraph has."""
    rng = random.Random(25)
    requests = [_stream_pq_request(rng, n) for n in (30, 45, 60, 240)]
    new = Fraction.__new__
    built = []

    def counted(cls, *args, **kwargs):
        built.append(cls)
        return new(cls, *args, **kwargs)

    counts = []
    for d, names, weight in requests:
        built.clear()
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        cert = max_resonant(d, weight)
        out = certificate_to_json(names, cert)
        monkeypatch.undo()
        assert cert.weights.scale > 1 and all(out["checks"].values())
        entries = out["cover"]["z_o"] + out["cover"]["z_i"]
        assert any(isinstance(z, str) for _, z in entries)
        counts.append(len(built))
    assert counts == [1] * len(requests), counts


def test_audit_rejects_weights_without_one_entry_per_node():
    """A certificate whose weights have more or fewer entries than its
    digraph has nodes is malformed: neither passes nor crashes the audit."""
    d = Digraph(3, [(0, 1), (1, 2)])
    cert = max_source_sink(d, WeightPair((1, 0, 0), (0, 0, 1)))
    assert all(cert.checks.values())
    for weights in (WeightPair((1, 0, 0, 5), (0, 0, 1, 5)), WeightPair((1, 0), (0, 0))):
        with pytest.raises(InputError, match="^weight vectors must have one entry per node$"):
            certificate_checks(cert.replace(weights=weights))


# --- auxiliary network layout -------------------------------------------------


def test_aux_network_counts():
    d, _ = bowtie()
    aux = build_aux_network(d, ones(7))
    assert aux.digraph.node_count == 21
    assert aux.digraph.arc_count == 2 * 7 + 4 * 8 == 46

    s = single_arc()
    aux2 = build_aux_network(s, ones(2))
    assert aux2.digraph.node_count == 6
    assert aux2.digraph.arc_count == 2 * 2 + 4 * 1 == 8


def test_aux_network_bounds_and_costs():
    d = single_arc()
    w = WeightPair((2, 0), (0, 3))
    aux = build_aux_network(d, w)
    # copies only where a weight is positive: out(0) and in(1)
    assert aux.out_node == [2, None] and aux.in_node == [None, 3]
    arcs = arc_pairs(aux.digraph)
    assert aux.digraph.node_count == 4
    assert aux.lower[arcs.index((0, 2))] == 2
    assert aux.lower[arcs.index((3, 1))] == 3
    # unit cost exactly on the two images of the one original arc
    unit = {j for j, c in enumerate(aux.cost) if c == 1}
    assert unit == {aux.in_arc[0], aux.out_arc[0]}
    # layer wiring for the original arc (u, v) and its copy (v, u): the
    # copy has neither out(v) nor in(u), so it enters directly
    u, v = 0, 1
    assert arcs[aux.in_arc[0]] == (u, aux.in_node[v])
    assert arcs[aux.out_arc[0]] == (aux.out_node[u], v)
    assert arcs[aux.in_arc[1]] == (v, u) and aux.out_arc[1] == -1
    assert aux.cost[aux.in_arc[1]] == 0
    assert (u, v) not in arcs
    assert aux.digraph.arc_count == 2 + 3


def _reference_aux_network(d, weights, direct=False):
    """The aux network with all three copies of every node, as a reference:
    ``n + v`` and ``2n + v`` are v's out and in copies whatever its
    weights; the verticals of node v come first (``2n + v -> v`` with the
    sink weight, ``v -> n + v`` with the source weight), then for each
    doubled arc j = (u, w) the sink entry ``u -> 2n + w`` and the source
    exit ``n + u -> w``, after the direct arc ``u -> w`` when ``direct``.
    Weights are scaled to ints by the lcm of their denominators, as in
    :class:`AuxNetwork`."""
    n = d.node_count
    weight = weights.source_weight + weights.sink_weight
    scale = lcm(*(Fraction(x).denominator for x in weight))
    arcs, lower = [], []
    for v in range(n):
        arcs += [(2 * n + v, v), (v, n + v)]
        lower += [int(weights.sink_weight[v] * scale), int(weights.source_weight[v] * scale)]
    m = d.arc_count
    cost = [0] * (2 * n)
    for j, (u, w) in enumerate(arc_pairs(bidirect(d))):
        c = 1 if j < m else 0
        images = [(u, w)] if direct else []
        images += [(u, 2 * n + w), (n + u, w)]
        arcs += images
        lower += [0] * len(images)
        cost += [c] * len(images)
    return CirculationInstance(Digraph(3 * n, arcs), tuple(lower), tuple(cost))


def _reference_pair(weights, potential):
    """The pair read off a potential of :func:`_reference_aux_network`,
    restricted to positive-weight nodes."""
    n = len(weights.source_weight)
    source = {v for v in range(n) if potential[v] - potential[n + v] == 1}
    sink = {v for v in range(n) if potential[2 * n + v] - potential[v] == 1}
    return (
        {v for v in source if weights.source_weight[v] > 0},
        {v for v in sink if weights.sink_weight[v] > 0},
    )


def test_two_layer_network_matches_three_layer_reference():
    for d, weights in reference_instances():
        n = d.node_count
        aux = build_aux_network(d, weights)
        two = solve(CirculationInstance(aux.digraph, aux.lower, aux.cost))
        three = solve(_reference_aux_network(d, weights, direct=True))
        assert two.objective == three.objective
        assert two.potential[:n] == three.potential[:n]
        cert = max_source_sink(d, weights)
        assert (cert.source_set, cert.sink_set) == _reference_pair(weights, three.potential)
        assert cert.potential == normalize_potential(three.potential[:n])
        assert cert.value == three.objective


def test_network_matches_all_copies_reference():
    """Leaving out the copies of zero weights keeps the optimum, the
    potential on the original nodes and the positive-weight pair."""
    for d, weights in reference_instances():
        n = d.node_count
        aux = build_aux_network(d, weights)
        pruned = solve(aux)
        full = solve(_reference_aux_network(d, weights))
        assert pruned.objective == full.objective
        assert normalize_potential(pruned.potential[:n]) == normalize_potential(
            full.potential[:n]
        )
        source_set, sink_set, _ = extract_pair(aux, pruned)
        assert (source_set, sink_set) == _reference_pair(weights, full.potential)


_weights = st.one_of(
    st.integers(0, 3),
    st.fractions(min_value=0, max_value=3, max_denominator=4),
)


@st.composite
def weighted_digraphs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    d = random_digraph(random.Random(seed), max_nodes=6, max_arcs=9)
    n = d.node_count
    zero = (0,) * n
    side = st.lists(_weights, min_size=n, max_size=n).map(tuple)
    source = draw(st.one_of(st.just(zero), side))
    sink = draw(st.one_of(st.just(zero), side))
    return d, WeightPair(source, sink)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs())
def test_network_value_matches_reference_property(instance):
    d, weights = instance
    cert = max_source_sink(d, weights)
    reference = solve(_reference_aux_network(d, weights))
    scale = lcm(*(Fraction(x).denominator for x in weights.source_weight + weights.sink_weight))
    assert cert.value == Fraction(reference.objective, scale)
    assert all(cert.checks.values())


def test_sink_only_network_has_no_out_layer():
    rng = random.Random(31)
    for _ in range(40):
        d = random_digraph(rng, max_nodes=7, max_arcs=12)
        sink = tuple(rng.randint(0, 2) for _ in range(d.node_count))
        aux = build_aux_network(d, WeightPair.sink_only(sink))
        positive = sum(1 for x in sink if x > 0)
        assert aux.digraph.node_count == d.node_count + positive
        assert aux.out_node == [None] * d.node_count
        assert list(aux.out_arc) == [-1] * (2 * d.arc_count)
        assert aux.digraph.arc_count == positive + 2 * d.arc_count


def test_zero_weights_give_direct_arcs_only():
    d, _ = bowtie()
    n, m = d.node_count, d.arc_count
    weights = WeightPair((0,) * n, (0,) * n)
    aux = build_aux_network(d, weights)
    assert aux.digraph.node_count == n
    assert aux.digraph == bidirect(d)
    assert aux.digraph.arc_count == 2 * m
    assert aux.cost == (1,) * m + (0,) * m
    assert list(aux.in_arc) == list(range(2 * m))
    cert = max_source_sink(d, weights)
    assert cert.value == 0
    assert cert.source_set == cert.sink_set == frozenset()
    assert all(cert.checks.values())


def test_derived_graphs_pass_the_full_checks(monkeypatch):
    """Every digraph built without re-validation (doubled graph, planar
    dual, aux network) passes the checks of ``Digraph(n, arcs)`` and
    equals the checked build.  Every aux network builds its digraph once,
    in its constructor, and keeps no other arc store."""
    built = []
    derived = Digraph._derived.__func__

    def recording(cls, node_count, tails, heads):
        d = derived(cls, node_count, tails, heads)
        built.append(d)
        return d

    networks = []
    init = AuxNetwork.__init__

    def recording_init(aux, d, weights):
        init(aux, d, weights)
        networks.append(aux)

    monkeypatch.setattr(Digraph, "_derived", classmethod(recording))
    monkeypatch.setattr(AuxNetwork, "__init__", recording_init)
    solved = 0
    for d, weights in reference_instances():
        max_source_sink(d, weights)
        solved += 1
    # a doubled graph and an aux network, with its digraph, per digraph;
    # the 24 x 28 dual comes from a plane solve, which also built the dual
    # and a first aux network
    assert len(networks) == solved + 1
    assert len(built) == 2 * solved + 2
    catalog = [g for _, g in benzenoid_catalog()]
    for g in catalog:
        # dual, doubled dual and aux network per solve
        solve_clar_fries(g)
        clar_number(g)
        fries_number(g)
    assert len(networks) == solved + 1 + 3 * len(catalog)
    assert len(built) == 2 * solved + 2 + 9 * len(catalog)
    monkeypatch.undo()
    for d in built:
        assert type(d.tails) is tuple and type(d.heads) is tuple
        assert Digraph(d.node_count, zip(d.tails, d.heads)) == d
    aux_digraphs = {id(aux.digraph) for aux in networks}
    assert aux_digraphs <= {id(d) for d in built} and len(aux_digraphs) == len(networks)
    for aux in networks:
        assert len(aux.lower) == len(aux.cost) == aux.digraph.arc_count
        assert not hasattr(aux, "tails") and not hasattr(aux, "heads")


# --- max_source_sink ----------------------------------------------------------


def test_single_arc_instance():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    assert cert.value == 2
    assert cert.cover.cost == 2
    assert cert.source_set | cert.sink_set == {0, 1}
    assert cert.source_set.isdisjoint(cert.sink_set)
    assert all(certificate_checks(cert).values())


def test_two_cycle_has_no_pair():
    d = two_cycle()
    cert = max_source_sink(d, ones(2))
    assert cert.value == 0
    assert cert.source_set == frozenset() and cert.sink_set == frozenset()
    # the doubled arcs still need a circulation covering both weights,
    # but it can ride the free reverse copies
    assert cert.cover.cost == 0
    assert sum(cert.cover.combined()) > 0


def test_bowtie_all_ones():
    d, names = bowtie()
    cert = max_source_sink(d, ones(7))
    assert cert.value == 4
    chosen = {names[v] for v in cert.source_set | cert.sink_set}
    assert chosen == {"a2", "a3", "b1", "b2"}
    assert all(certificate_checks(cert).values())


def test_bowtie_indicator_weights():
    d, _ = bowtie()
    u = bowtie_nodes("a1", "b1", "x")
    indicator = tuple(int(v in u) for v in range(7))
    w = WeightPair(indicator, indicator)
    cert = max_source_sink(d, w)
    assert cert.value == 2
    assert cert.cover.cost == 2
    assert cert.source_set | cert.sink_set <= u


def test_rational_weights_stay_exact():
    d, _ = bowtie()
    third = Fraction(1, 3)
    w = WeightPair((third,) * 7, (third,) * 7)
    cert = max_source_sink(d, w)
    assert cert.value == Fraction(4, 3)
    assert cert.cover.cost == Fraction(4, 3)
    checks = certificate_checks(cert)
    checks.pop("cover_integral", None)  # not promised for fractional weights
    assert all(checks.values())


def _random_pq_instances(seed, count):
    """Seeded digraphs with ``"p/q"`` weights, at least one not whole, and
    the lcm of their denominators."""
    rng = random.Random(seed)
    while count:
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = WeightPair(
            *(
                tuple(Fraction(rng.randint(0, 4), rng.choice((1, 2, 3, 4, 6)))
                      for _ in range(d.node_count))
                for _ in range(2)
            )
        )
        if w.integral:
            continue
        count -= 1
        yield d, w, lcm(*(Fraction(x).denominator for x in w.source_weight + w.sink_weight))


def test_rational_cover_keeps_the_integer_units():
    for d, w, s in _random_pq_instances(12, 60):
        cert = max_source_sink(d, w)
        whole = max_source_sink(
            d,
            WeightPair(
                tuple(s * x for x in w.source_weight), tuple(s * x for x in w.sink_weight)
            ),
        )
        assert (cert.cover.scale, whole.cover.scale) == (s, 1)
        assert cert.cover.out_cover == whole.cover.out_cover
        assert cert.cover.in_cover == whole.cover.in_cover
        assert all(type(x) is int for x in cert.cover.out_cover + cert.cover.in_cover)
        assert (cert.source_set, cert.sink_set) == (whole.source_set, whole.sink_set)
        assert cert.potential == whole.potential
        assert cert.value == cert.cover.cost == Fraction(whole.value, s)


def test_doctored_cover_scale_fails_the_checks():
    tampered = 0
    for d, w, s in _random_pq_instances(13, 40):
        cert = max_source_sink(d, w)
        with pytest.raises(InputError):
            cert.cover.replace(scale=0)
        if not cert.value:
            continue  # a cover that charges nothing bounds the value by 0 at any scale
        for scale in (2 * s, s + 1):
            doctored = cert.replace(cover=cert.cover.replace(scale=scale))
            checks = certificate_checks(doctored)
            assert not (checks["cover_out"] and checks["cover_in"] and checks["minmax_equal"])
        tampered += 1
    assert tampered > 20

    # the same integral cover in units of 1/2 proves the same bound
    d, _ = bowtie()
    cert = max_source_sink(d, ones(7))
    halves = cert.cover.replace(
        out_cover=tuple(2 * x for x in cert.cover.out_cover),
        in_cover=tuple(2 * x for x in cert.cover.in_cover),
        scale=2,
    )
    assert all(certificate_checks(cert.replace(cover=halves)).values())
    odd = halves.replace(out_cover=(1,) + halves.out_cover[1:])
    assert not certificate_checks(cert.replace(cover=odd))["cover_integral"]
    # one more unit on one arc leaves its tail short and its head over
    for field in ("out_cover", "in_cover"):
        vector = getattr(cert.cover, field)
        bumped = cert.cover.replace(**{field: (vector[0] + 1,) + vector[1:]})
        checks = certificate_checks(cert.replace(cover=bumped))
        assert not checks["cover_circulation"]
        assert checks["cover_out"] and checks["cover_in"]
    # a cover of the wrong length is not a certificate of this digraph
    short = cert.cover.replace(
        out_cover=cert.cover.out_cover[:-2], in_cover=cert.cover.in_cover[:-2]
    )
    with pytest.raises(InputError, match="one entry per doubled arc"):
        certificate_checks(cert.replace(cover=short))
    for scale in (True, 1.0, -2):
        with pytest.raises(InputError):
            cert.cover.replace(scale=scale)


def test_scaling_weights_scales_value():
    d, names = bowtie()
    w = WeightPair((0, 1, 2, 0, 3, 0, 1), (1, 0, 1, 2, 0, 2, 0))
    base = max_source_sink(d, w)
    # 10**400 is past the float range: the solver's arithmetic stays on ints
    for factor in (3, 10**400):
        scaled = max_source_sink(
            d,
            WeightPair(
                tuple(factor * x for x in w.source_weight),
                tuple(factor * x for x in w.sink_weight),
            ),
        )
        assert scaled.value == factor * base.value
        assert scaled.cover.cost == factor * base.cover.cost
        assert (scaled.source_set, scaled.sink_set) == (base.source_set, base.sink_set)
        assert scaled.potential == base.potential


def test_pair_becomes_sources_and_sinks():
    rng = random.Random(11)
    for _ in range(40):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count)
        cert = max_source_sink(d, w)
        assert set(potential_drops(d, cert.potential)) <= {0, 1}
        flipped = apply_reorientation(d, cert.potential)
        srcs, snks = sources_sinks(flipped)
        assert cert.source_set <= srcs
        assert cert.sink_set <= snks
        witness = verify_source_sink(d, cert.source_set, cert.sink_set)
        assert isinstance(witness, tuple)


def test_indicator_weights_decide_a_pair():
    """Weight 1 on each node of S as a source and of T as a sink: the best
    pair reaches |S| + |T| exactly when the reference decides (S, T)
    feasible; otherwise the cover proves a smaller bound."""
    rng = random.Random(33)
    seen = set()
    for _ in range(200):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        nodes = list(range(d.node_count))
        rng.shuffle(nodes)
        k = rng.randint(0, len(nodes))
        s = frozenset(nodes[: rng.randint(0, k)])
        t = frozenset(nodes[len(s):k])
        indicator = WeightPair(
            tuple(int(v in s) for v in range(d.node_count)),
            tuple(int(v in t) for v in range(d.node_count)),
        )
        cert = max_source_sink(d, indicator)
        try:
            feasible = isinstance(verify_source_sink(d, s, t), tuple)
        except InputError:  # an arc inside S or T
            feasible = False
        assert (cert.value == len(s) + len(t)) == feasible
        assert cert.cover.cost == cert.value <= len(s) + len(t)
        seen.add(feasible)
    assert seen == {True, False}


def test_certificate_checks_catch_tampering():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    doctored = cert.replace(value=cert.value + 1)
    checks = certificate_checks(doctored)
    assert not checks["minmax_equal"]

    overlapping = cert.replace(sink_set=cert.source_set)
    checks = certificate_checks(overlapping)
    assert not all(checks.values())


def _reference_certificate_checks(cert):
    """The three-pass audit that the one-pass :func:`certificate_checks`
    replaced: potential drops, then arc classes, then the cover twice."""
    d, weights, cover = cert.digraph, cert.weights, cert.cover
    scale = cover.scale
    checks = {}
    checks["pair_disjoint"] = not (cert.source_set & cert.sink_set)
    if not all(type(p) is int for p in cert.potential):
        raise InputError("potential entries must be ints")
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
    doubled = bidirect(d)
    if len(cover.out_cover) != doubled.arc_count:
        raise InputError("circulation vector must have one entry per doubled arc")
    out_at = [0] * d.node_count
    in_at = [0] * d.node_count
    net = [0] * d.node_count
    for u, v, zo, zi in zip(doubled.tails, doubled.heads, cover.out_cover, cover.in_cover):
        if zo:
            out_at[u] += zo
            net[u] -= zo
            net[v] += zo
        if zi:
            in_at[v] += zi
            net[u] -= zi
            net[v] += zi
    checks["cover_out"] = all(z >= w * scale for z, w in zip(out_at, weights.source_weight))
    checks["cover_in"] = all(z >= w * scale for z, w in zip(in_at, weights.sink_weight))
    checks["cover_circulation"] = not any(net)
    if weights.integral:
        checks["cover_integral"] = all(
            x % scale == 0 for z in (cover.out_cover, cover.in_cover) for x in z
        )
    pair = cert.source_set | cert.sink_set
    if _in_range(pair, d.node_count):
        pair_weight = sum(weights.source_weight[v] for v in cert.source_set) + sum(
            weights.sink_weight[v] for v in cert.sink_set
        )
        checks["minmax_equal"] = pair_weight == cert.value == cover.cost
    else:
        checks["minmax_equal"] = False
    return checks


def _in_range(nodes, n):
    """Whether every entry of ``nodes`` is a node id below ``n``: an int, not a bool."""
    return all(type(v) is int and 0 <= v < n for v in nodes)


def _audit(checks, cert):
    """The checks' dict, in key order, or the type and text of what they raise."""
    try:
        return list(checks(cert).items())
    except Exception as exc:
        return type(exc), str(exc)


def _doctored_certificates(cert):
    """``cert`` and copies doctored to fail each check in its own way."""
    d, cover = cert.digraph, cert.cover
    n = d.node_count
    u, v = d.tails[0], d.heads[0]
    yield cert
    yield cert.replace(source_set=cert.source_set | {u}, sink_set=cert.sink_set | {u})
    yield cert.replace(source_set=cert.source_set | {-1})  # out of range
    yield cert.replace(sink_set=cert.sink_set | {n})  # out of range and unweighable
    yield cert.replace(source_set=frozenset({u, v}), sink_set=frozenset())  # unstable
    for node in ("a", 0.5):  # no node id
        yield cert.replace(sink_set=cert.sink_set | {node})
    for index, entry in ((u, "a"), (v, float(cert.potential[v]))):  # no int
        potential = list(cert.potential)
        potential[index] = entry
        yield cert.replace(potential=tuple(potential))
    for step in (2, -1):
        potential = list(cert.potential)
        potential[v] = potential[u] + step
        yield cert.replace(potential=tuple(potential))
    # the first arc's ends in each (none/source/sink)^2 role pair, at drop
    # 0 and at drop 1: every cell of the arc-class table
    others = (cert.source_set - {u, v}, cert.sink_set - {u, v})
    for role_u in range(3):
        for role_v in range(3):
            sets = [set(others[0]), set(others[1])]
            for node, role in ((u, role_u), (v, role_v)):
                if role:
                    sets[role - 1].add(node)
            for step in (0, 1):
                potential = list(cert.potential)
                potential[v] = potential[u] + step
                yield cert.replace(
                    source_set=frozenset(sets[0]),
                    sink_set=frozenset(sets[1]),
                    potential=tuple(potential),
                )
    doubled = cover.replace(
        out_cover=tuple(2 * x for x in cover.out_cover),
        in_cover=tuple(2 * x for x in cover.in_cover),
        scale=2 * cover.scale,
    )
    yield cert.replace(cover=doubled)
    yield cert.replace(cover=cover.replace(scale=2 * cover.scale))  # pays half the weights
    yield cert.replace(cover=doubled.replace(in_cover=(doubled.in_cover[0] + 1,) + doubled.in_cover[1:]))


def test_one_pass_audit_matches_three_pass_reference():
    """The one-pass audit gives the three-pass audit's dict, key order
    included, on the seeded sweeps and on certificates doctored to
    overlap, leave the node range, name a node that is no int, hold a
    potential entry that is no int, be unstable, drop by 2 or -1, put the
    first arc's ends in each of the nine role pairs at drop 0 and at drop
    1, or hold an entry that its scale does not divide.  Only a potential
    entry that is no int raises, an ``InputError`` from both, and a pair
    that names a node out of range fails ``pair_verified`` and
    ``minmax_equal``.  A cover entry that is no int cannot be built
    (``test_a_cover_entry_must_be_an_int``)."""
    certs = [max_source_sink(d, w) for d, w in reference_instances()]
    certs += [max_source_sink(d, w) for d, w, _ in _random_pq_instances(14, 30)]
    failed = set()
    out_of_range = raised = 0
    for cert in certs:
        n = cert.digraph.node_count
        for doctored in _doctored_certificates(cert):
            fast = _audit(certificate_checks, doctored)
            assert fast == _audit(_reference_certificate_checks, doctored)
            if fast == (InputError, "potential entries must be ints"):
                raised += 1
                continue
            checks = dict(fast)
            failed.update(k for k, ok in checks.items() if not ok)
            if not _in_range(doctored.source_set | doctored.sink_set, n):
                assert not checks["pair_verified"] and not checks["minmax_equal"]
                out_of_range += 1
    assert out_of_range == 4 * len(certs)
    assert raised == 2 * len(certs)
    assert failed == {
        "pair_disjoint", "potential_small_dropping", "pair_verified", "cover_out",
        "cover_in", "cover_circulation", "cover_integral", "minmax_equal",
    }


def test_a_pair_naming_a_node_out_of_range_fails_its_checks():
    """Node n has no weight to read and node -1 must not read node n - 1's:
    either one fails the pair's two checks, with no exception.  So does an
    entry that is no node id: a str, a float, or a bool, which would read
    node 1's."""
    cert = max_source_sink(single_arc(), WeightPair((0, 1), (1, 0)))
    assert (cert.source_set, cert.sink_set, cert.value) == ({1}, {0}, 2)
    expected = {
        "pair_disjoint": True, "potential_small_dropping": True,
        "pair_verified": False, "cover_out": True, "cover_in": True,
        "cover_circulation": True, "cover_integral": True, "minmax_equal": False,
    }
    copies = [cert.replace(sink_set=cert.sink_set | {node}) for node in (-1, 2, "a", 0.5)]
    for doctored in copies + [cert.replace(source_set=frozenset({True}))]:
        assert certificate_checks(doctored) == expected
        assert _reference_certificate_checks(doctored) == expected


def test_rendered_checks_of_a_doctored_certificate_are_recomputed():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    assert (cert.digraph, cert.weights) == (d, ones(2))
    assert cert.checks == certificate_checks(cert)
    doctored = cert.replace(value=cert.value + 1)
    rendered = certificate_to_json(("u", "v"), doctored)["checks"]
    assert rendered == certificate_checks(doctored)
    assert not rendered["minmax_equal"]
    # checks hold for the instance the certificate carries only
    other = cert.replace(weights=WeightPair((2, 0), (0, 2)))
    assert not all(certificate_to_json(("u", "v"), other)["checks"].values())


def test_a_cover_entry_must_be_an_int():
    """Cover entries are int multiplicities: a ``Fraction``, a whole one
    included, a float or a bool is refused at any scale, and the renderer
    writes every entry over the scale with ints alone."""
    cert = max_source_sink(single_arc(), WeightPair((Fraction(1, 2), 0), (0, Fraction(1, 2))))
    cover = cert.cover
    assert (cover.scale, cover.out_cover, cover.in_cover) == (2, (1, 0), (1, 2))
    out = certificate_to_json(("u", "v"), cert)
    assert out["cover"]["z_o"] == [[["u", "v"], "1/2"]]
    assert out["cover"]["z_i"] == [[["u", "v"], "1/2"], [["v", "u"], 1]]
    for scale in (1, 2):
        for entry in (1 + Fraction(1, 3), Fraction(2), 1.0, True):
            with pytest.raises(InputError, match="cover multiplicities must be ints"):
                cover.replace(out_cover=(entry, 0), scale=scale)
            with pytest.raises(InputError, match="cover multiplicities must be ints"):
                CircularCover((0, 0), (0, entry), scale)
    with pytest.raises(InputError, match="must be nonnegative"):
        cover.replace(in_cover=(1, -2))


def test_a_solved_cover_equals_its_checked_build():
    """The cover read off the certified flows skips the constructor's
    checks; the constructor builds an equal cover with the same kept cost,
    and so do ``replace`` and pickling.  The cost is an int at scale 1."""
    for d, weights in reference_instances():
        cover = max_source_sink(d, weights).cover
        checked = CircularCover(cover.out_cover, cover.in_cover, cover.scale)
        assert checked == cover
        for twin in (checked, cover.replace(), pickle.loads(pickle.dumps(cover))):
            assert twin.cost == cover.cost == Fraction(cover.charge, cover.scale)
        if cover.scale == 1:
            assert type(cover.cost) is int
    doctored = cover.replace(scale=2 * cover.scale)
    assert doctored.cost == Fraction(cover.charge, 2 * cover.scale)


def test_checks_are_computed_once_per_certificate(monkeypatch):
    cert = max_source_sink(single_arc(), ones(2)).replace()
    calls = []
    original = sourcesink.certificate_checks

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(sourcesink, "certificate_checks", counted)
    first = cert.checks
    assert cert.checks is first
    assert len(calls) == 1 and calls[0] is cert
    assert all(first.values())


def test_certificates_are_immutable_values():
    cert = max_source_sink(single_arc(), ones(2))
    twin = max_source_sink(single_arc(), ones(2))
    assert cert.checks and twin.checks is not cert.checks
    # field by field: the kept checks take no part
    assert twin == cert and hash(twin) == hash(cert)
    assert cert != cert.replace(value=cert.value + 1)
    assert WeightPair((1, 0), (0, 1)) != CircularCover((0, 1), (0, 1))
    assert pickle.loads(pickle.dumps(cert)) == cert
    assert repr(WeightPair((1, Fraction(1, 2)), (0, 0))) == (
        "WeightPair(source_weight=(1, Fraction(1, 2)), sink_weight=(0, 0))"
    )
    assert repr(cert.cover) == f"CircularCover(out_cover={cert.cover.out_cover!r}, " + (
        f"in_cover={cert.cover.in_cover!r}, scale=1)"
    )
    for record, field in ((cert, "value"), (cert.cover, "scale"), (cert.weights, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, 2)
    with pytest.raises(AttributeError):
        del cert.value
    # replace validates through the constructor
    with pytest.raises(InputError, match="differ in length"):
        cert.weights.replace(sink_weight=(1,))
    assert cert.weights.replace(sink_weight=(Fraction(2),) * 2).sink_weight == (2, 2)
    with pytest.raises(TypeError):
        cert.replace(checks={})


@pytest.mark.parametrize(
    "cls, values",
    [
        (McfSolution, ((2, 2), (0, 1), 2)),
        (SinkStableResult, (frozenset({1}), (((0, 1), 1),), 1, None)),
        (ClarFriesResult, (frozenset({0}), frozenset({1}), frozenset(), 1, None)),
        (ViolatingCircuit, (((0, True), (1, False)),)),
    ],
    ids=["McfSolution", "SinkStableResult", "ClarFriesResult", "ViolatingCircuit"],
)
def test_value_records_share_one_positional_constructor(cls, values):
    record = cls(*values)
    assert tuple(getattr(record, f) for f in cls._fields) == values
    for wrong in (values[:-1], values + (0,)):
        with pytest.raises(TypeError):
            cls(*wrong)
    assert pickle.loads(pickle.dumps(record)) == record
    assert record.replace() == record
    last = cls._fields[-1]
    changed = record.replace(**{last: "changed"})
    assert getattr(changed, last) == "changed"
    assert changed.replace(**{last: values[-1]}) == record
    with pytest.raises(TypeError):
        record.replace(no_such_field=0)


def test_extract_cover_reads_entry_and_exit_flow():
    d = single_arc()
    w = WeightPair((1, 0), (0, 1))
    aux = build_aux_network(d, w)
    # out(0) and in(1) exist; the reverse copy (1, 0) has neither out(1)
    # nor in(0), so it enters as the direct arc 1 -> 0
    arcs = arc_pairs(aux.digraph)
    out0, in1 = aux.out_node[0], aux.in_node[1]
    assert arcs[aux.out_arc[0]] == (out0, 1) and arcs[aux.in_arc[0]] == (0, in1)
    assert arcs[aux.in_arc[1]] == (1, 0) and aux.out_arc[1] == -1
    z = [0] * aux.digraph.arc_count
    # 0 -> out(0) -> 1 -> 0: the source exit of the original arc, then the
    # direct arc of its free reverse copy
    z[arcs.index((0, out0))] = 1
    z[aux.out_arc[0]] = 1
    z[aux.in_arc[1]] = 1
    # 0 -> in(1) -> 1 -> 0, twice: the sink entry of the original arc, then
    # the direct arc again
    z[aux.in_arc[0]] = 2
    z[arcs.index((in1, 1))] = 2
    z[aux.in_arc[1]] += 2
    # the cover reads the flow and the objective; the potential is unused
    objective = sum(c * f for c, f in zip(aux.cost, z))
    cover = extract_cover(aux, McfSolution(tuple(z), (0,) * aux.digraph.node_count, objective))
    # the direct arc's flow is in-cover; the absent source exit covers 0
    assert cover.out_cover == (1, 0)
    assert cover.in_cover == (2, 3)
    assert cover.cost == 3 == objective
    assert is_circulation(bidirect(d), cover.combined())


def test_solve_path_readers_keep_their_cheap_checks():
    """The extractors read a certified solution without re-checking its
    arcs, which ``mincost._certify`` has done, but a vertical slack sum
    outside {0, 1} and a cover charge off the objective still raise."""
    d = single_arc()
    aux = build_aux_network(d, ones(2))
    sol = solve(aux)
    cert = max_source_sink(d, ones(2))
    assert extract_pair(aux, sol) == (cert.source_set, cert.sink_set, cert.potential)
    assert extract_cover(aux, sol) == cert.cover
    doctored = list(sol.potential)
    doctored[aux.in_node[0]] += 2
    with pytest.raises(InvariantError):
        extract_pair(aux, sol.replace(potential=tuple(doctored)))
    with pytest.raises(InvariantError):
        extract_cover(aux, sol.replace(objective=sol.objective + 1))


# --- sink-stable and resonant variants ----------------------------------------


def test_sink_stable_bowtie():
    d, names = bowtie()
    out = max_sink_stable(d, (1,) * 7)
    assert out.value == 2
    assert {names[v] for v in out.sink_set} == {"a3", "b1"}
    total = 0
    b = bidirect(d)
    covered = [0] * 7
    for circuit, mult in out.circuits:
        originals = sum(1 for j in circuit if j < d.arc_count)
        total += mult * originals
        for j in circuit:
            covered[b.heads[j]] += mult
    assert total == out.value
    assert all(c >= 1 for c in covered)


def test_sink_stable_two_cycle_is_zero():
    out = max_sink_stable(two_cycle(), (1, 1))
    assert out.value == 0
    assert out.sink_set == frozenset()


def test_sink_stable_triangle():
    out = max_sink_stable(acyclic_triangle(), (1, 1, 1))
    assert out.value == 1


def test_sink_stable_requires_integers():
    with pytest.raises(InputError):
        max_sink_stable(two_cycle(), (Fraction(1, 2), 1))


def test_resonant_bowtie():
    d, names = bowtie()
    cert = max_resonant(d, (1,) * 7)
    assert cert.value == 4
    assert {names[v] for v in cert.source_set | cert.sink_set} == {"a2", "a3", "b1", "b2"}

    u = bowtie_nodes("a1", "b1", "x")
    within = max_resonant(d, tuple(1 if v in u else 0 for v in range(7)))
    assert within.value == 2
    assert within.source_set | within.sink_set <= u


def test_determinism():
    d, _ = bowtie()
    first = max_source_sink(d, ones(7))
    second = max_source_sink(d, ones(7))
    assert first == second
