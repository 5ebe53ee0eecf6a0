import random
from fractions import Fraction

import pytest

from clarfries import (
    CirculationInstance,
    Digraph,
    InputError,
    WeightPair,
    apply_reorientation,
    bidirect,
    build_aux_network,
    clar_number,
    constrained_source_sink,
    fries_number,
    is_circulation,
    is_small_dropping,
    max_cardinality_within,
    max_resonant,
    max_sink_stable,
    max_source_sink,
    solve,
    solve_clar_fries,
    sources_sinks,
    verify_source_sink,
)
from clarfries.jsonio import certificate_to_json
from clarfries.sourcesink import certificate_checks, extract_cover, extract_pair
from fixtures import (
    acyclic_triangle,
    benzenoid_catalog,
    bowtie,
    bowtie_nodes,
    parallelogram_dual,
    random_digraph,
    random_weight_pair,
    single_arc,
    two_cycle,
)


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
    scaled, factor = w.scaled_integral()
    assert factor == 6
    assert scaled.source_weight == (2, 0)
    assert scaled.sink_weight == (3, 6)
    assert scaled.integral


def test_weight_pair_helpers():
    w = WeightPair.uniform(3)
    assert w.source_weight == (1, 1, 1) and w.sink_weight == (1, 1, 1)
    w = WeightPair.sink_only((2, 0, 1))
    assert w.source_weight == (0, 0, 0)
    w = WeightPair.indicator(4, {1, 3}, {1, 3})
    assert w.source_weight == (0, 1, 0, 1) == w.sink_weight


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
    assert aux.lower[aux.vertical_out_arc(0)] == 2
    assert aux.lower[aux.vertical_out_arc(1)] == 0
    assert aux.lower[aux.vertical_in_arc(1)] == 3
    # unit cost exactly on the two images of the one original arc
    unit = {j for j, c in enumerate(aux.cost) if c == 1}
    assert unit == {aux.sink_entry_arc(0), aux.source_exit_arc(0)}
    # layer wiring for the original arc (u, v) and its copy (v, u)
    u, v = 0, 1
    n = 2
    assert aux.digraph.arcs[aux.sink_entry_arc(0)] == (u, 2 * n + v)
    assert aux.digraph.arcs[aux.source_exit_arc(0)] == (n + u, v)
    assert aux.digraph.arcs[aux.sink_entry_arc(1)] == (v, 2 * n + u)
    assert aux.digraph.arcs[aux.source_exit_arc(1)] == (n + v, u)
    assert (u, v) not in aux.digraph.arcs and (v, u) not in aux.digraph.arcs


def _three_layer_instance(d, weights):
    """The aux network with a middle layer, as a reference: every doubled
    arc j = (u, w) also gets a direct arc u -> w, at index 2n + 3j, ahead
    of its sink entry and source exit."""
    n = d.node_count
    arcs, lower, cost = [], [], []
    for v in range(n):
        arcs += [(2 * n + v, v), (v, n + v)]
        lower += [weights.sink_weight[v], weights.source_weight[v]]
        cost += [0, 0]
    bi = bidirect(d)
    for (u, w), c in zip(bi.arcs, bi.cost_vector()):
        arcs += [(u, w), (u, 2 * n + w), (n + u, w)]
        lower += [0, 0, 0]
        cost += [c, c, c]
    return CirculationInstance(Digraph(3 * n, arcs), tuple(lower), tuple(cost))


def _reference_instances():
    for seed, count, nodes, arcs in ((99, 60, 6, 10), (7, 80, 7, 12)):
        rng = random.Random(seed)
        for _ in range(count):
            d = random_digraph(rng, max_nodes=nodes, max_arcs=arcs)
            yield d, random_weight_pair(rng, d.node_count)
    yield parallelogram_dual(24, 28)


def test_two_layer_network_matches_three_layer_reference():
    for d, weights in _reference_instances():
        aux = build_aux_network(d, weights)
        two = solve(CirculationInstance(aux.digraph, aux.lower, aux.cost))
        three = solve(_three_layer_instance(d, weights))
        assert (two.objective, two.potential) == (three.objective, three.potential)
        cert = max_source_sink(d, weights)
        pair = (cert.source_set, cert.sink_set, cert.potential)
        assert pair == extract_pair(aux, three.potential)
        assert cert.value == three.objective


def test_derived_graphs_pass_the_full_checks(monkeypatch):
    """Every digraph built without re-validation (doubled graph, aux
    network, matching orientation, planar dual) passes the checks of
    ``Digraph(n, arcs)`` and equals the checked build."""
    built = []
    derived = Digraph._derived.__func__

    def recording(cls, node_count, arcs):
        d = derived(cls, node_count, arcs)
        built.append(d)
        return d

    monkeypatch.setattr(Digraph, "_derived", classmethod(recording))
    solved = 0
    for d, weights in _reference_instances():
        max_source_sink(d, weights)
        solved += 1
    # a doubled graph and an aux network per digraph; the 24 x 28 dual
    # comes from a plane solve, which also built the orientation, the
    # dual and a first aux network
    assert len(built) == 2 * solved + 3
    catalog = [g for _, g in benzenoid_catalog()]
    for g in catalog:
        # orientation, dual, doubled dual and aux network per solve
        solve_clar_fries(g)
        clar_number(g)
        fries_number(g)
    assert len(built) == 2 * solved + 3 + 12 * len(catalog)
    monkeypatch.undo()
    for d in built:
        assert type(d.arcs) is tuple
        assert Digraph(d.node_count, d.arcs) == d


# --- max_source_sink ----------------------------------------------------------


def test_single_arc_instance():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    assert cert.value == 2
    assert cert.cover.cost == 2
    assert cert.source_set | cert.sink_set == {0, 1}
    assert cert.source_set.isdisjoint(cert.sink_set)
    assert all(certificate_checks(d, ones(2), cert).values())


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
    assert all(certificate_checks(d, ones(7), cert).values())


def test_bowtie_indicator_weights():
    d, _ = bowtie()
    u = bowtie_nodes("a1", "b1", "x")
    w = WeightPair.indicator(7, u, u)
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
    checks = certificate_checks(d, w, cert)
    checks.pop("cover_integral", None)  # not promised for fractional weights
    assert all(checks.values())


def test_scaling_weights_scales_value():
    d, names = bowtie()
    w = WeightPair((0, 1, 2, 0, 3, 0, 1), (1, 0, 1, 2, 0, 2, 0))
    base = max_source_sink(d, w)
    tripled = max_source_sink(
        d,
        WeightPair(tuple(3 * x for x in w.source_weight), tuple(3 * x for x in w.sink_weight)),
    )
    assert tripled.value == 3 * base.value
    assert tripled.cover.cost == 3 * base.cover.cost


def test_pair_becomes_sources_and_sinks():
    rng = random.Random(11)
    for _ in range(40):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count)
        cert = max_source_sink(d, w)
        assert is_small_dropping(d, cert.potential)
        flipped = apply_reorientation(d, cert.potential)
        srcs, snks = sources_sinks(flipped)
        assert cert.source_set <= srcs
        assert cert.sink_set <= snks
        witness = verify_source_sink(d, cert.source_set, cert.sink_set)
        assert isinstance(witness, tuple)


def test_certificate_checks_catch_tampering():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    import dataclasses

    doctored = dataclasses.replace(cert, value=cert.value + 1)
    checks = certificate_checks(d, ones(2), doctored)
    assert not checks["minmax_equal"]

    overlapping = dataclasses.replace(cert, sink_set=cert.source_set)
    checks = certificate_checks(d, ones(2), overlapping)
    assert not all(checks.values())


def test_rendered_checks_of_a_doctored_certificate_are_recomputed():
    d = single_arc()
    cert = max_source_sink(d, ones(2))
    assert cert.checks == certificate_checks(d, ones(2), cert)
    import dataclasses

    doctored = dataclasses.replace(cert, value=cert.value + 1)
    assert doctored.checks is None
    rendered = certificate_to_json(d, ("u", "v"), ones(2), doctored)["checks"]
    assert rendered == certificate_checks(d, ones(2), doctored)
    assert not rendered["minmax_equal"]
    # recorded checks hold for the instance they were computed on only
    other = WeightPair((2, 0), (0, 2))
    assert not all(certificate_to_json(d, ("u", "v"), other, cert)["checks"].values())


def test_extract_cover_reads_entry_and_exit_flow():
    d = single_arc()
    w = WeightPair((1, 0), (0, 1))
    aux = build_aux_network(d, w)
    z = [0] * aux.digraph.arc_count
    # 0 -> out(0) -> 1 -> in(0) -> 0: the source exit of the original arc,
    # then the sink entry of its free reverse copy
    z[aux.vertical_out_arc(0)] = 1
    z[aux.source_exit_arc(0)] = 1
    z[aux.sink_entry_arc(1)] = 1
    z[aux.vertical_in_arc(0)] = 1
    # 0 -> in(1) -> 1 -> out(1) -> 0, twice: the sink entry of the original
    # arc, then the source exit of the reverse copy
    z[aux.sink_entry_arc(0)] = 2
    z[aux.vertical_in_arc(1)] = 2
    z[aux.vertical_out_arc(1)] = 2
    z[aux.source_exit_arc(1)] = 2
    cover = extract_cover(aux, z)
    assert cover.out_cover == (1, 2)
    assert cover.in_cover == (2, 1)
    assert cover.cost == 3 == sum(c * f for c, f in zip(aux.cost, z))
    assert is_circulation(bidirect(d), cover.combined())


def test_extract_cover_rejects_bound_violations():
    d = single_arc()
    w = WeightPair((1, 0), (0, 0))
    aux = build_aux_network(d, w)
    with pytest.raises(InputError):
        extract_cover(aux, [0] * aux.digraph.arc_count)


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
        originals = sum(1 for j in circuit if b.cost(j) == 1)
        total += mult * originals
        for j in circuit:
            covered[b.arcs[j][1]] += mult
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


def test_max_cardinality_within():
    d = acyclic_triangle()
    cert = max_cardinality_within(d, frozenset({0}), frozenset({2}))
    assert cert.value == 2
    assert cert.source_set == {0} and cert.sink_set == {2}

    d2, _ = bowtie()
    cert2 = max_cardinality_within(d2, bowtie_nodes("b1", "b2"), bowtie_nodes("a1", "a3"))
    assert cert2.source_set <= bowtie_nodes("b1", "b2")
    assert cert2.sink_set <= bowtie_nodes("a1", "a3")
    assert cert2.value == len(cert2.source_set) + len(cert2.sink_set)

    with pytest.raises(InputError):
        max_cardinality_within(d, frozenset({0, 1}), frozenset({1}))


def test_constrained_source_sink():
    d, _ = bowtie()
    cert = constrained_source_sink(
        d,
        allowed_sources=bowtie_nodes("b1", "b2", "b3"),
        allowed_sinks=bowtie_nodes("a1", "a2", "a3"),
        forced_sources=bowtie_nodes("b1"),
        forced_sinks=bowtie_nodes("a1"),
    )
    assert cert is not None
    assert bowtie_nodes("b1") <= cert.source_set
    assert bowtie_nodes("a1") <= cert.sink_set
    assert cert.source_set <= bowtie_nodes("b1", "b2", "b3")
    assert cert.sink_set <= bowtie_nodes("a1", "a2", "a3")

    # a1 as source with x as sink forces a drop of -1 somewhere: impossible
    impossible = constrained_source_sink(
        d,
        allowed_sources=bowtie_nodes("a1"),
        allowed_sinks=bowtie_nodes("x"),
        forced_sources=bowtie_nodes("a1"),
        forced_sinks=bowtie_nodes("x"),
    )
    assert impossible is None


def test_determinism():
    d, _ = bowtie()
    first = max_source_sink(d, ones(7))
    second = max_source_sink(d, ones(7))
    assert first == second
