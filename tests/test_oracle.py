import itertools
import random
import sys

import pytest

from clarfries import (
    BudgetExceeded,
    WeightPair,
    brute_clar_fries,
    brute_max_source_sink,
    enumerate_matchings,
    enumerate_reorientations,
    max_source_sink,
    parse_validate,
    potential_drops,
    solve_clar_fries,
    sources_sinks,
)
from clarfries.oracle import acyclic_instance, sparse_instance
from fixtures import (
    acyclic_triangle,
    benzenoid,
    benzenoid_catalog,
    bowtie,
    naphthalene,
    random_digraph,
    random_weight_pair,
)
from reorientation import ViolatingCircuit, verify_reorientable, verify_source_sink


def all_arcs(d):
    return frozenset(range(d.arc_count))


def test_triangle_reorientations():
    d = acyclic_triangle()
    found = {r: dd for r, dd in enumerate_reorientations(d)}
    assert set(found) == {frozenset(), frozenset({0, 1}), frozenset({1, 2})}
    # enumeration is exhaustive: every other arc subset is infeasible
    for subset in map(frozenset, powerset(range(3))):
        out = verify_reorientable(d, subset, all_arcs(d) - subset)
        if subset in found:
            assert not isinstance(out, ViolatingCircuit)
        else:
            assert isinstance(out, ViolatingCircuit)


def powerset(items):
    items = list(items)
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def test_reoriented_digraphs_flip_exactly_the_reported_arcs():
    d, _ = bowtie()
    for r, dd in enumerate_reorientations(d):
        for j, (u, v) in enumerate(zip(d.tails, d.heads)):
            assert (dd.tails[j], dd.heads[j]) == ((v, u) if j in r else (u, v))


def witnesses(d):
    out = {}
    for r, _ in enumerate_reorientations(d):
        pot = verify_reorientable(d, r, all_arcs(d) - r)
        assert not isinstance(pot, ViolatingCircuit)
        out[r] = pot
    return out


def test_witness_lattice_is_closed():
    # pointwise minima and maxima of witnesses stay feasible, so the
    # reorientations form a distributive lattice
    d, _ = bowtie()
    table = witnesses(d)
    masks = set(table)
    items = list(table.items())
    rng = random.Random(0)
    for _ in range(60):
        (r1, p1), (r2, p2) = rng.sample(items, 2)
        for combined in (
            tuple(map(min, p1, p2)),
            tuple(map(max, p1, p2)),
        ):
            drops = potential_drops(d, combined)
            assert set(drops) <= {0, 1}
            mask = frozenset(j for j, x in enumerate(drops) if x == 1)
            assert mask in masks


def test_reorientations_peel_into_nested_dicuts():
    d, _ = bowtie()
    for r, pot in witnesses(d).items():
        top = max(pot)
        covered = set()
        for t in range(1, top + 1):
            level = {v for v in range(d.node_count) if pot[v] >= t}
            crossing = set()
            for j, (u, v) in enumerate(zip(d.tails, d.heads)):
                assert not (u in level and v not in level)  # nothing leaves
                if v in level and u not in level:
                    crossing.add(j)
            assert crossing <= r
            assert crossing.isdisjoint(covered)
            covered |= crossing
        assert covered == r


def test_partial_peels_are_reachable_reorientations():
    d, _ = bowtie()
    table = witnesses(d)
    for r, pot in table.items():
        for t in range(max(pot) + 1):
            capped = tuple(min(x, t) for x in pot)
            drops = potential_drops(d, capped)
            partial = frozenset(j for j, x in enumerate(drops) if x == 1)
            assert partial in table


def test_reorientation_budget():
    d, _ = bowtie()
    with pytest.raises(BudgetExceeded):
        list(enumerate_reorientations(d, max_arcs=6))


def test_random_digraph_keeps_to_its_arc_budget():
    rng = random.Random(5)
    for max_arcs in (1, 2, 3, 5, 12):
        for _ in range(30):
            d = random_digraph(rng, max_nodes=7, max_arcs=max_arcs)
            assert 2 <= d.node_count <= min(7, max_arcs + 1)
            assert d.arc_count <= max_arcs


def _topological_order(d):
    """Kahn's order of the nodes of ``d``; shorter than the node count
    exactly when ``d`` has a directed cycle."""
    indegree = [0] * d.node_count
    out = [[] for _ in range(d.node_count)]
    for u, v in zip(d.tails, d.heads):
        indegree[v] += 1
        out[u].append(v)
    order = [v for v in range(d.node_count) if not indegree[v]]
    for u in order:
        for v in out[u]:
            indegree[v] -= 1
            if not indegree[v]:
                order.append(v)
    return order


def test_acyclic_instance_has_no_directed_cycle_and_solves():
    """The acyclic instance keeps ``sparse_instance``'s weights and
    underlying graph, has no directed cycle where that instance has one,
    and solves with every certificate check true."""
    d, w = acyclic_instance(1000, 5000)
    base, base_w = sparse_instance(1000, 5000)
    assert w == base_w and d.arc_count == 5000
    assert sorted(map(sorted, zip(d.tails, d.heads))) == sorted(
        map(sorted, zip(base.tails, base.heads))
    )
    assert len(_topological_order(d)) == 1000
    assert len(_topological_order(base)) < 1000
    cert = max_source_sink(d, w)
    assert cert.value > 0
    assert all(cert.checks.values())


def test_brute_pair_is_valid_and_matches_solver():
    rng = random.Random(17)
    for _ in range(30):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        w = random_weight_pair(rng, d.node_count)
        value, (y_o, y_i) = brute_max_source_sink(d, w)
        assert y_o.isdisjoint(y_i)
        assert isinstance(verify_source_sink(d, y_o, y_i), tuple)
        assert value == sum(w.source_weight[v] for v in y_o) + sum(
            w.sink_weight[v] for v in y_i
        )
        assert max_source_sink(d, w).value == value


def test_brute_witness_uses_full_source_and_sink_sets():
    d, _ = bowtie()
    value, (y_o, y_i) = brute_max_source_sink(d, WeightPair((1,) * 7, (1,) * 7))
    assert value == 4
    assert len(y_o) + len(y_i) == 4


def test_matching_budget():
    g = naphthalene()
    with pytest.raises(BudgetExceeded):
        list(enumerate_matchings(g, max_matchings=1))


def _reference_enumerate_matchings(g, max_matchings=100_000):
    """The recursive backtracking enumerator: one generator frame per
    S-node, so it overflows the recursion limit on large graphs."""
    ns = g.s_count
    adj = [[] for _ in range(ns)]
    for i, (s, t) in enumerate(g.edges):
        adj[s].append((t - ns, i))
    used = [False] * (g.node_count - ns)
    chosen = []
    count = 0

    def backtrack(s):
        nonlocal count
        if s == ns:
            count += 1
            if count > max_matchings:
                raise BudgetExceeded(f"more than {max_matchings} perfect matchings")
            yield frozenset(chosen)
            return
        for t, e in adj[s]:
            if not used[t]:
                used[t] = True
                chosen.append(e)
                yield from backtrack(s + 1)
                chosen.pop()
                used[t] = False

    yield from backtrack(0)


def _small_benzenoids():
    yield from (g for _, g in benzenoid_catalog())
    for rings in range(1, 9):
        yield parse_validate(benzenoid([(0, r) for r in range(rings)]))
        yield parse_validate(benzenoid([(r, 0) for r in range(rings)]))


def test_matchings_follow_the_recursive_reference():
    for g in _small_benzenoids():
        assert list(enumerate_matchings(g)) == list(_reference_enumerate_matchings(g))


def test_matching_budget_stops_where_the_reference_does():
    g = parse_validate(benzenoid([(0, r) for r in range(6)]))  # 7 matchings
    for cap in range(7):
        seen, ref = [], []
        with pytest.raises(BudgetExceeded):
            seen.extend(enumerate_matchings(g, max_matchings=cap))
        with pytest.raises(BudgetExceeded):
            ref.extend(_reference_enumerate_matchings(g, cap))
        assert seen == ref and len(seen) == cap


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_matchings_of_a_long_acene_need_no_recursion():
    # 401 S-nodes: the recursive reference needs a frame per S-node
    g = parse_validate(benzenoid([(0, r) for r in range(200)]))
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        with pytest.raises(RecursionError):
            list(_reference_enumerate_matchings(g))
        seen = list(enumerate_matchings(g))
    finally:
        sys.setrecursionlimit(old_limit)
    # an acene of k rings has k + 1 perfect matchings
    assert len(seen) == 201 and len(set(seen)) == 201
    assert all(len(m) * 2 == g.node_count for m in seen)


def test_brute_clar_fries_agrees_with_solver():
    g = naphthalene()
    rng = random.Random(3)
    for _ in range(8):
        cw = [rng.randrange(0, 3) for _ in g.face_names]
        acw = [rng.randrange(0, 3) for _ in g.face_names]
        value, matching, cw_set, acw_set = brute_clar_fries(g, cw, acw)
        assert value == sum(cw[f] for f in cw_set) + sum(acw[f] for f in acw_set)
        assert solve_clar_fries(g, cw_weights=cw, acw_weights=acw).value == value
        assert len(matching) * 2 == g.node_count
