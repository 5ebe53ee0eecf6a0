import itertools
import random

import pytest

from clarfries import (
    ArcClass,
    Digraph,
    InputError,
    InvariantError,
    ViolatingCircuit,
    apply_reorientation,
    bidirect,
    circulation_cost,
    classify_arcs,
    feasible_tension,
    is_circulation,
    is_small_dropping,
    normalize_potential,
    potential_drops,
    sources_sinks,
    verify_reorientable,
    verify_source_sink,
)
from fixtures import (
    acyclic_triangle,
    bowtie,
    bowtie_nodes,
    random_digraph,
    single_arc,
    two_cycle,
)


def test_digraph_rejects_bad_shapes():
    with pytest.raises(InputError):
        Digraph(1, [])
    with pytest.raises(InputError):
        Digraph(2, [(0, 0)])
    with pytest.raises(InputError):
        Digraph(2, [(0, 2)])
    with pytest.raises(InputError):
        Digraph(4, [(0, 1), (2, 3)])  # two weak components


@pytest.mark.parametrize(
    "node_count, arcs, message",
    [
        (2, [(0, 1.9)], r"arc 0 endpoints \(0, 1.9\) are not integers"),
        (2, [("0", True)], r"arc 0 endpoints \('0', True\) are not integers"),
        (3, [(0, 1), (False, 2)], r"arc 1 endpoints \(False, 2\) are not integers"),
        (2.5, [(0, 1)], r"node count 2.5 is not an integer"),
        (True, [], r"node count True is not an integer"),
    ],
)
def test_digraph_rejects_non_integer_nodes(node_count, arcs, message):
    # int() would read 1.9 as 1 and "0" as 0
    with pytest.raises(InputError, match=message):
        Digraph(node_count, arcs)
    assert Digraph(2, [[0, 1]]).arcs == ((0, 1),)


def test_digraph_allows_parallel_and_antiparallel_arcs():
    d = Digraph(2, [(0, 1), (0, 1), (1, 0)])
    assert len(d.arcs) == 3
    assert sorted(d.out_arcs(0)) == [0, 1]


def test_bidirect_layout():
    d, _ = bowtie()
    b = bidirect(d)
    assert bidirect(d) is b  # one shared doubled graph per digraph
    m = len(d.arcs)
    assert len(b.arcs) == 2 * m
    for j, (u, v) in enumerate(d.arcs):
        assert b.arcs[j] == (u, v)
        assert b.arcs[j + m] == (v, u)
        assert b.reverse(j) == j + m
        assert b.reverse(j + m) == j
        assert b.cost(j) == 1
        assert b.cost(j + m) == 0


def test_sources_sinks_bowtie():
    d, names = bowtie()
    srcs, snks = sources_sinks(d)
    assert {names[v] for v in srcs} == {"b1"}
    assert {names[v] for v in snks} == {"a1"}


def test_potential_drop_helpers():
    d = single_arc()
    assert potential_drops(d, (0, 1)) == (1,)
    assert potential_drops(d, (1, 1)) == (0,)
    assert is_small_dropping(d, (0, 1))
    assert not is_small_dropping(d, (1, 0))
    assert not is_small_dropping(d, (0, 2))
    assert normalize_potential((3, 5, 4)) == (0, 2, 1)


# --- feasible_tension ------------------------------------------------------


def brute_tension(d, lower, upper, span):
    """Search potentials directly; None when no witness exists in the box.

    With every bound in {-1, 0, 1} a feasible system has a witness of spread
    at most n - 1, so scanning the [0, span) box with span = n is complete.
    """
    n = d.node_count
    for pot in itertools.product(range(span), repeat=n):
        ok = True
        for j, (u, v) in enumerate(d.arcs):
            drop = pot[v] - pot[u]
            if lower[j] is not None and drop < lower[j]:
                ok = False
                break
            if upper[j] is not None and drop > upper[j]:
                ok = False
                break
        if ok:
            return pot
    return None


def test_tension_unconstrained_is_feasible():
    d, _ = bowtie()
    out = feasible_tension(d, [None] * 8, [None] * 8)
    assert out == (0,) * 7


def violation(steps, lower, upper):
    """Backward lower bounds minus forward upper bounds along the walk."""
    total = 0
    for arc, forward in steps:
        total += -upper[arc] if forward else lower[arc]
    return total


def test_tension_infeasible_circuit_is_violating():
    d = acyclic_triangle()
    out = feasible_tension(d, [1, 1, 1], [1, 1, 1])
    # arcs u->v and v->w demand +1 each while u->w caps the total at 1
    assert isinstance(out, ViolatingCircuit)
    assert sorted(out.arc_ids()) == [0, 1, 2]
    assert violation(out.steps, [1, 1, 1], [1, 1, 1]) > 0


def test_tension_circuit_walk_is_closed():
    d = two_cycle()
    out = feasible_tension(d, [1, 0], [1, 0])
    assert isinstance(out, ViolatingCircuit)
    # steps chain head-to-tail and return to the start
    at = None
    first = None
    for arc, forward in out.steps:
        u, v = d.arcs[arc]
        if not forward:
            u, v = v, u
        if at is None:
            first = u
        else:
            assert u == at
        at = v
    assert at == first


def test_tension_bounds_validation():
    d = single_arc()
    with pytest.raises(InputError):
        feasible_tension(d, [2], [1])
    with pytest.raises(InputError):
        feasible_tension(d, [0, 0], [1])


def test_tension_output_is_normalized():
    d, _ = bowtie()
    lower = [0] * 8
    upper = [1] * 8
    pot = feasible_tension(d, lower, upper)
    assert not isinstance(pot, ViolatingCircuit)
    assert min(pot) == 0


def test_tension_matches_brute_force():
    rng = random.Random(20260815)
    hits = misses = 0
    for _ in range(120):
        d = random_digraph(rng, max_nodes=5, max_arcs=7)
        m = len(d.arcs)
        lower = []
        upper = []
        for _ in range(m):
            lo = rng.choice([None, 0, 0, 1])
            hi = rng.choice([None, 0, 1, 1])
            if lo is not None and hi is not None and lo > hi:
                lo, hi = hi, lo
            lower.append(lo)
            upper.append(hi)
        out = feasible_tension(d, lower, upper)
        witness = brute_tension(d, lower, upper, span=d.node_count)
        if isinstance(out, ViolatingCircuit):
            assert witness is None
            bounded_lo = [0 if x is None else x for x in lower]
            bounded_hi = [10**9 if x is None else x for x in upper]
            assert violation(out.steps, bounded_lo, bounded_hi) > 0
            misses += 1
        else:
            assert witness is not None
            for j, (u, v) in enumerate(d.arcs):
                drop = out[v] - out[u]
                if lower[j] is not None:
                    assert drop >= lower[j]
                if upper[j] is not None:
                    assert drop <= upper[j]
            hits += 1
    assert hits and misses


# --- reorientation checks --------------------------------------------------


def test_classify_arcs_bowtie():
    d, names = bowtie()
    cls = classify_arcs(d, bowtie_nodes("b1"), bowtie_nodes("a1"))
    by_name = {
        (names[u], names[v]): c for (u, v), c in zip(d.arcs, cls)
    }
    assert by_name[("x", "a1")] == ArcClass.CORRECT
    assert by_name[("a2", "a1")] == ArcClass.CORRECT
    assert by_name[("b1", "x")] == ArcClass.CORRECT
    assert by_name[("b1", "b2")] == ArcClass.CORRECT
    assert by_name[("a3", "a2")] == ArcClass.NEUTRAL
    assert by_name[("b2", "b3")] == ArcClass.NEUTRAL


def test_classify_rejects_overlap_and_instability():
    d = single_arc()
    with pytest.raises(InputError):
        classify_arcs(d, frozenset({0}), frozenset({0}))
    with pytest.raises(InputError):
        # both endpoints in the source set: the arc must leave and not leave
        classify_arcs(d, frozenset({0, 1}), frozenset())


def test_verify_source_sink_cases():
    d, _ = bowtie()
    out = verify_source_sink(d, bowtie_nodes("b1"), bowtie_nodes("a1"))
    assert out == (0,) * 7  # already simultaneous source and sink

    two = two_cycle()
    bad = verify_source_sink(two, frozenset({0}), frozenset())
    assert isinstance(bad, ViolatingCircuit)
    assert sorted(bad.arc_ids()) == [0, 1]

    good = verify_source_sink(two, frozenset(), frozenset())
    assert good == (0, 0)


def test_verify_reorientable_and_apply():
    d = acyclic_triangle()
    # flipping every arc of a circuitless digraph about a single node set
    out = verify_reorientable(d, reverse_arcs=frozenset({0, 1}), fixed_arcs=frozenset({2}))
    assert not isinstance(out, ViolatingCircuit)
    drops = potential_drops(d, out)
    assert drops == (1, 1, 0)
    flipped = apply_reorientation(d, out)
    assert flipped.arcs == ((1, 0), (2, 0), (1, 2))

    bad = verify_reorientable(d, reverse_arcs=frozenset(range(d.arc_count)), fixed_arcs=frozenset())
    assert isinstance(bad, ViolatingCircuit)


def test_apply_requires_small_dropping():
    d = single_arc()
    with pytest.raises(InputError):
        apply_reorientation(d, (0, 2))


# --- circulation helpers ----------------------------------------------------


def test_circulation_predicates():
    d = acyclic_triangle()
    b = bidirect(d)
    # u->v, v->w forward plus the copy of u->w backward: a one-way circuit
    z = [0] * 6
    z[0] = z[2] = 1
    z[b.reverse(1)] = 1
    assert is_circulation(b, z)
    assert circulation_cost(b, z) == 2
    z[0] = 2
    assert not is_circulation(b, z)
    with pytest.raises(InputError):
        is_circulation(b, [-1, 0, 0, 0, 0, 0])


def test_circulations_are_orthogonal_to_drops():
    # conservation makes flow-weighted drops cancel for every potential
    rng = random.Random(4)
    for _ in range(40):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        b = bidirect(d)
        z = [0] * len(b.arcs)
        for _ in range(rng.randrange(1, 4)):
            walk = random_closed_walk(rng, b)
            for j in walk:
                z[j] += 1
        pot = [rng.randrange(0, 5) for _ in range(d.node_count)]
        total = 0
        for j, (u, v) in enumerate(b.arcs):
            total += z[j] * (pot[v] - pot[u])
        assert is_circulation(b, z)
        assert total == 0


def random_closed_walk(rng, b):
    """Arc ids of a closed walk found by walking until a node repeats."""
    n = b.node_count
    start = rng.randrange(n)
    seen = {start: 0}
    path = []
    at = start
    while True:
        j = rng.choice(b.digraph.out_arcs(at))
        path.append(j)
        at = b.arcs[j][1]
        if at in seen:
            return path[seen[at]:]
        seen[at] = len(path)
