"""Acceptance gate: fourteen end-to-end criteria with stated budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion, and one report line, with no budget, for criterion 12's
generator at three times its size.  Each criterion asserts exact values
(no tolerances: all arithmetic is integer or Fraction) plus a wall-clock
budget where one is stated.
"""

import random
import time
from fractions import Fraction

from clarfries import (
    Digraph,
    WeightPair,
    apply_reorientation,
    bidirect,
    brute_clar_fries,
    brute_max_source_sink,
    build_aux_network,
    clar_number,
    enumerate_reorientations,
    fries_number,
    is_circulation,
    max_resonant,
    max_sink_stable,
    max_source_sink,
    parse_validate,
    potential_drops,
    solve_clar_fries,
    sources_sinks,
)
from clarfries.mincost import CirculationInstance, solve
from clarfries.oracle import sparse_instance
from fixtures import (
    benzenoid,
    benzenoid_catalog,
    bowtie,
    bowtie_nodes,
    random_closed_walk,
    random_digraph,
    random_weight_pair,
    two_cycle,
)
from test_plane import HEXAGON


def report(num, label, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {label}: {detail}"
    print(line)
    assert ok, line


def pair_weight(w, y_o, y_i):
    return sum(w.source_weight[v] for v in y_o) + sum(w.sink_weight[v] for v in y_i)


def test_criterion_01_restricted_resonant_value():
    started = time.perf_counter()
    d, _ = bowtie()
    u = bowtie_nodes("a1", "b1", "x")
    cert = max_resonant(d, tuple(1 if v in u else 0 for v in range(7)))
    elapsed = time.perf_counter() - started
    ok = cert.value == 2 and cert.cover.cost == 2 and elapsed < 1.0
    report(1, "restricted resonant on the bowtie",
           ok, f"value={cert.value} cover={cert.cover.cost} ({elapsed:.3f}s < 1s)")


def test_criterion_02_resonant_set_matches_oracle():
    d, _ = bowtie()
    w = WeightPair((1,) * 7, (1,) * 7)
    cert = max_resonant(d, (1,) * 7)
    oracle_value, _ = brute_max_source_sink(d, w)
    chosen = cert.source_set | cert.sink_set
    ok = cert.value == oracle_value == 4 and len(chosen) >= 4
    report(2, "all-ones resonant set on the bowtie",
           ok, f"value={cert.value} oracle={oracle_value} |set|={len(chosen)}")


def test_criterion_03_minmax_equality_sweep():
    started = time.perf_counter()
    rng = random.Random(20260815)
    checked = 0
    ok = True
    for _ in range(300):
        d = random_digraph(rng, max_nodes=7, max_arcs=12)
        w = random_weight_pair(rng, d.node_count, top=3)
        cert = max_source_sink(d, w)
        oracle_value, _ = brute_max_source_sink(d, w)
        if not (cert.value == oracle_value
                == pair_weight(w, cert.source_set, cert.sink_set)
                == cert.cover.cost):
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and checked == 300 and elapsed < 60.0
    report(3, "solver == oracle == pair weight == cover cost on 300 instances",
           ok, f"checked={checked} ({elapsed:.2f}s < 60s)")


def test_criterion_04_weak_duality_sweep():
    started = time.perf_counter()
    rng = random.Random(4)
    checked = 0
    ok = True
    while checked < 300:
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count, top=3)
        cert = max_source_sink(d, w)
        b = bidirect(d)
        # arbitrary feasible pair: subsets of the poles of some reorientation
        masks = [dd for _, dd in enumerate_reorientations(d)]
        flipped = rng.choice(masks)
        srcs, snks = sources_sinks(flipped)
        y_o = frozenset(v for v in srcs if rng.random() < 0.7)
        y_i = frozenset(v for v in snks if rng.random() < 0.7)
        # arbitrary feasible cover: the optimal one plus extra circulation
        extra_out = list(cert.cover.out_cover)
        for _ in range(rng.randrange(0, 3)):
            for j in random_closed_walk(rng, b):
                extra_out[j] += 1
        m = d.arc_count
        cost = sum(extra_out[:m]) + sum(cert.cover.in_cover[:m])
        if pair_weight(w, y_o, y_i) > cost:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 30.0
    report(4, "every source-sink pair weight <= every circular cover cost",
           ok, f"checked={checked} ({elapsed:.2f}s < 30s)")


def test_criterion_05_reorientation_preserves_circulation_cost():
    started = time.perf_counter()
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        b = bidirect(d)
        m = d.arc_count
        masks = [r for r, _ in enumerate_reorientations(d)]
        r = rng.choice(masks)
        z = [0] * b.arc_count
        for _ in range(rng.randrange(1, 4)):
            mult = rng.randrange(1, 3)
            for j in random_closed_walk(rng, b):
                z[j] += mult
        assert is_circulation(b, z)
        cost = sum(z[j] for j in range(m))
        cost_after = sum(z[j] for j in range(m) if j not in r)
        cost_after += sum(z[j + m] for j in range(m) if j in r)
        report_ok = cost == cost_after
        assert report_ok, (r, z)
        checked += 1
    elapsed = time.perf_counter() - started
    ok = checked == 200 and elapsed < 30.0
    report(5, "circulation cost is invariant under reorientation",
           ok, f"checked={checked} ({elapsed:.2f}s < 30s)")


def test_criterion_06_integral_weights_integral_answers():
    rng = random.Random(6)
    ok = True
    for _ in range(60):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count, top=3)
        cert = max_source_sink(d, w)
        if not isinstance(cert.value, int):
            ok = False
            break
        if not all(isinstance(x, int) for x in cert.cover.out_cover + cert.cover.in_cover):
            ok = False
            break
    report(6, "integer weights give an integer value and integer cover",
           ok, "60 instances, value and both cover vectors are ints")


def test_criterion_07_extraction_invariants():
    rng = random.Random(7)
    ok = True
    detail = "potential small-dropping, vertical slacks sum to 0 or 1, pair realized"
    for _ in range(60):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count, top=3)
        cert = max_source_sink(d, w)
        if not set(potential_drops(d, cert.potential)) <= {0, 1}:
            ok, detail = False, "potential is not small-dropping"
            break
        if not cert.source_set.isdisjoint(cert.sink_set):
            ok, detail = False, "pair overlaps"
            break
        flipped = apply_reorientation(d, cert.potential)
        srcs, snks = sources_sinks(flipped)
        if not (cert.source_set <= srcs and cert.sink_set <= snks):
            ok, detail = False, "pair not realized as sources and sinks"
            break
        aux = build_aux_network(d, w)
        sol = solve(CirculationInstance(aux.digraph, aux.lower, aux.cost))
        p = sol.potential
        for v, (o, i) in enumerate(zip(aux.out_node, aux.in_node)):
            # a node has a vertical on a side exactly when its weight there
            # is positive; a missing vertical has no slack
            if (o is not None) != (w.source_weight[v] > 0) or (i is not None) != (
                w.sink_weight[v] > 0
            ):
                ok, detail = False, f"copies of node {v} do not follow its weights"
                break
            s_out = 0 if o is None else p[v] - p[o]
            s_in = 0 if i is None else p[i] - p[v]
            if s_out not in (0, 1) or s_in not in (0, 1) or s_out + s_in > 1:
                ok, detail = False, f"vertical slack pair ({s_out},{s_in}) at node {v}"
                break
        if not ok:
            break
    report(7, "pair extraction invariants on 60 instances", ok, detail)


def test_criterion_08_sink_stable_families():
    started = time.perf_counter()
    rng = random.Random(8)
    checked = 0
    ok = True
    detail = ""
    while ok and checked < 100:
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        weight = tuple(rng.randrange(0, 4) for _ in range(d.node_count))
        out = max_sink_stable(d, weight)
        oracle_value, _ = brute_max_source_sink(d, WeightPair.sink_only(weight))
        b = bidirect(d)
        covered = [0] * d.node_count
        total = 0
        for circuit, mult in out.circuits:
            originals = sum(1 for j in circuit if j < d.arc_count)
            total += mult * originals
            for j in circuit:
                covered[b.heads[j]] += mult
        if out.value != oracle_value:
            ok, detail = False, f"value {out.value} != oracle {oracle_value}"
        elif total != out.value:
            ok, detail = False, "circuit family cost mismatch"
        elif any(covered[v] < weight[v] for v in range(d.node_count)):
            ok, detail = False, "circuit family misses a node's weight"
        checked += 1
    two = max_sink_stable(two_cycle(), (1, 1))
    elapsed = time.perf_counter() - started
    ok = ok and two.value == 0 and elapsed < 30.0
    report(8, "sink-stable values and circuit families on 100 instances",
           ok, detail or f"checked={checked}, 2-cycle=0 ({elapsed:.2f}s < 30s)")


def test_criterion_09_clar_fries_catalog():
    started = time.perf_counter()
    ok = True
    detail = []
    for name, g in benzenoid_catalog():
        cval = clar_number(g).value
        fval = fries_number(g).value
        cw_ind = [int(f != g.outer) for f in range(len(g.face_names))]
        zero = [0] * len(g.face_names)
        oc = brute_clar_fries(g, cw_ind, zero)[0]
        of = brute_clar_fries(g, cw_ind, cw_ind)[0]
        if (cval, fval) != (oc, of):
            ok = False
        detail.append(f"{name}={cval}/{fval}")
    benzene = benzenoid_catalog()[0][1]
    ok = ok and clar_number(benzene).value == 1 and fries_number(benzene).value == 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(9, "Clar/Fries equal enumeration on the whole catalog",
           ok, f"{' '.join(detail)} ({elapsed:.2f}s < 10s)")


def test_criterion_10_hexagon_calibration():
    g = parse_validate(HEXAGON)
    res = solve_clar_fries(g, cw_weights=g.cw_weights, acw_weights=g.acw_weights)
    inner = 1 - g.outer  # the hexagon has one inner face
    ok = res.value == 5 and res.cw_faces == frozenset({inner})
    report(10, "hexagon with weights (5,3) picks the clockwise sense",
           ok, f"value={res.value} cw_faces={sorted(res.cw_faces)}")


def test_criterion_11_restriction_is_not_circuitwise():
    d, _ = bowtie()
    u = bowtie_nodes("a1", "b1", "x")
    whole = max_resonant(d, tuple(1 if v in u else 0 for v in range(7)))
    # the same three nodes are fully resonant inside each circuit alone
    a_cycle = Digraph(4, [(3, 0), (1, 0), (2, 1), (3, 2)])   # x,a1,a2,a3 as 3,0,1,2
    b_cycle = Digraph(4, [(1, 0), (1, 2), (2, 3), (3, 0)])   # x,b1,b2,b3 as 0,1,2,3
    in_a = max_resonant(a_cycle, (1, 0, 0, 1)).value
    in_b = max_resonant(b_cycle, (1, 1, 0, 0)).value
    ok = whole.value == 2 < 3 and in_a == 2 and in_b == 2
    report(11, "per-circuit resonance does not lift to the whole digraph",
           ok, f"whole={whole.value} < 3, a-circuit={in_a}, b-circuit={in_b}")


def test_criterion_12_scale():
    started = time.perf_counter()
    d, w = sparse_instance(10_000, 50_000)
    cert = max_source_sink(d, w)
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0 and cert.value == cert.cover.cost > 0
    report(12, "10k nodes / 50k arcs / weights <= 10 within budget",
           ok, f"value={cert.value} |Y_o|={len(cert.source_set)} "
               f"|Y_i|={len(cert.sink_set)} ({elapsed:.2f}s < 30s)")


def test_criterion_12_report_at_three_times_the_size():
    """Criterion 12's generator at 30k nodes / 150k arcs, as a report line
    with no budget: the seconds of one solve and its value.  The
    ``tracemalloc`` peak at any size is ``tools/scale_probe.py``'s."""
    d, w = sparse_instance(30_000, 150_000)
    started = time.perf_counter()
    cert = max_source_sink(d, w)
    elapsed = time.perf_counter() - started
    assert cert.value == cert.cover.cost > 0
    print(f"report 12 30k nodes / 150k arcs (no budget): value={cert.value} "
          f"{elapsed:.2f}s")


def _timed_clar_fries(centers):
    """Clar and Fries numbers of the benzenoid on ``centers``, with the
    seconds spent validating and solving (building the JSON excluded)."""
    data = benzenoid(centers)
    started = time.perf_counter()
    g = parse_validate(data)
    clar, fries = clar_number(g).value, fries_number(g).value
    return clar, fries, time.perf_counter() - started


def test_criterion_13_long_acene():
    # the linear acene of n >= 2 hexagons has Clar number 1 and Fries 2
    clar, fries, elapsed = _timed_clar_fries([(0, r) for r in range(1500)])
    ok = (clar, fries) == (1, 2) and elapsed < 10.0
    report(13, "1500-hexagon acene has Clar 1 and Fries 2",
           ok, f"clar={clar} fries={fries} ({elapsed:.2f}s < 10s)")


def test_criterion_14_large_parallelogram():
    # the n x n hexagon parallelogram has Clar number n and Fries 2n - 1
    clar, fries, elapsed = _timed_clar_fries([(q, r) for q in range(40) for r in range(40)])
    ok = (clar, fries) == (40, 79) and elapsed < 10.0
    report(14, "40 x 40 hexagon parallelogram has Clar 40 and Fries 79",
           ok, f"clar={clar} fries={fries} ({elapsed:.2f}s < 10s)")
