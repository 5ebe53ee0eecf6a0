import random
from fractions import Fraction

import pytest

from clarfries import (
    Digraph,
    InputError,
    WeightPair,
    apply_reorientation,
    bidirect,
    build_aux_network,
    constrained_source_sink,
    is_circulation,
    is_small_dropping,
    max_cardinality_within,
    max_resonant,
    max_sink_stable,
    max_source_sink,
    sources_sinks,
    verify_source_sink,
)
from clarfries.jsonio import certificate_to_json
from clarfries.sourcesink import certificate_checks, extract_cover
from fixtures import (
    acyclic_triangle,
    bowtie,
    bowtie_nodes,
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
    assert aux.digraph.arc_count == 2 * 7 + 6 * 8

    s = single_arc()
    aux2 = build_aux_network(s, ones(2))
    assert aux2.digraph.node_count == 6
    assert aux2.digraph.arc_count == 10


def test_aux_network_bounds_and_costs():
    d = single_arc()
    w = WeightPair((2, 0), (0, 3))
    aux = build_aux_network(d, w)
    assert aux.lower[aux.vertical_out_arc(0)] == 2
    assert aux.lower[aux.vertical_out_arc(1)] == 0
    assert aux.lower[aux.vertical_in_arc(1)] == 3
    # unit cost exactly on the three images of the one original arc
    unit = {j for j, c in enumerate(aux.cost) if c == 1}
    assert unit == {aux.middle_arc(0), aux.sink_entry_arc(0), aux.source_exit_arc(0)}
    # layer wiring for the original arc (u, v) and its copy (v, u)
    u, v = 0, 1
    n = 2
    assert aux.digraph.arcs[aux.middle_arc(0)] == (u, v)
    assert aux.digraph.arcs[aux.sink_entry_arc(0)] == (u, 2 * n + v)
    assert aux.digraph.arcs[aux.source_exit_arc(0)] == (n + u, v)
    assert aux.digraph.arcs[aux.middle_arc(1)] == (v, u)


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


def test_extract_cover_reroutes_middle_flow():
    d = single_arc()
    w = WeightPair((0, 0), (0, 1))
    aux = build_aux_network(d, w)
    z = [0] * aux.digraph.arc_count
    z[aux.middle_arc(0)] = 1
    z[aux.middle_arc(1)] = 2
    z[aux.sink_entry_arc(0)] = 1
    z[aux.vertical_in_arc(1)] = 1
    cover = extract_cover(aux, z)
    assert cover.out_cover == (0, 0)
    assert cover.in_cover == (2, 2)
    assert cover.cost == 2  # rerouting kept the original-arc cost
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
