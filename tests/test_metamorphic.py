"""Metamorphic relations: two solves of related instances must agree, with
no oracle in between.  Every transformed answer is re-audited too: all of
its certificate checks must hold."""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from clarfries import (
    Digraph,
    WeightPair,
    clar_number,
    fries_number,
    max_source_sink,
    parse_validate,
    solve_clar_fries,
)
from clarfries.oracle import acyclic_instance, sparse_instance
from clarfries.plane import NoPerfectMatchingError
from fixtures import benzenoid, random_digraph, random_polyhex_centers

_weights = st.one_of(
    st.integers(0, 5),
    st.fractions(min_value=0, max_value=5, max_denominator=4),
)


@st.composite
def weighted_digraphs(draw):
    d = random_digraph(random.Random(draw(st.integers(0, 2**32 - 1))), max_nodes=8, max_arcs=14)
    side = st.lists(_weights, min_size=d.node_count, max_size=d.node_count).map(tuple)
    return d, WeightPair(draw(side), draw(side))


def _solved(d, weights):
    cert = max_source_sink(d, weights)
    assert all(cert.checks.values()), cert.checks
    return cert


def _reversed(d, w):
    """``d`` with every arc reversed, and ``w`` with ``w_o`` and ``w_i``
    swapped."""
    return (
        Digraph(d.node_count, list(zip(d.heads, d.tails))),
        WeightPair(w.sink_weight, w.source_weight),
    )


def _scaled(w, q):
    return WeightPair(tuple(q * x for x in w.source_weight), tuple(q * x for x in w.sink_weight))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs())
def test_reversing_every_arc_and_swapping_the_weights_keeps_the_value(instance):
    """Reversing every arc turns sources into sinks and sinks into
    sources, so with ``w_o`` and ``w_i`` swapped the value stays."""
    d, w = instance
    assert _solved(*_reversed(d, w)).value == _solved(d, w).value


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs())
def test_scaling_every_weight_scales_the_value(instance):
    """Multiplying every weight by 7/3, which is no power of ten, multiplies
    the value by 7/3."""
    d, w = instance
    q = Fraction(7, 3)
    assert _solved(d, _scaled(w, q)).value == q * _solved(d, w).value


def test_reversal_and_scaling_at_criterion_12_size():
    """Both relations above at scale, every certificate fully checked: on
    criterion 12's instance (10k nodes, 50k arcs), whose value is 856,
    and on the acyclic instance of the same shape at 2k nodes and 10k
    arcs, where every node can become a source or a sink and the value is
    3115.  Reversed with the weights swapped each keeps its value, and
    with every weight times 7/3 it reads 5992/3 and 21805/3."""
    q = Fraction(7, 3)
    for name, (d, w), value in (
        ("12", sparse_instance(10_000, 50_000), 856),
        ("acyclic", acyclic_instance(2000, 10_000), 3115),
    ):
        reversed_value = _solved(*_reversed(d, w)).value
        scaled_value = _solved(d, _scaled(w, q)).value
        print(f"report {name} metamorphic: reversed {reversed_value}, x7/3 {scaled_value}")
        assert (reversed_value, scaled_value) == (value, q * value)


_choices = st.integers(0, 2**32 - 1).map(random.Random)


def _strong_components(d):
    """The strong components of ``d`` with two or more nodes, as sorted
    node lists: the nodes that reach each other both ways."""
    out = [[] for _ in range(d.node_count)]
    for u, v in zip(d.tails, d.heads):
        out[u].append(v)
    reach = []
    for s in range(d.node_count):
        seen = {s}
        stack = [s]
        while stack:
            for w in out[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        reach.append(seen)
    comps = {tuple(v for v in reach[s] if s in reach[v]) for s in range(d.node_count)}
    return sorted(c for c in comps if len(c) > 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs(), _choices)
def test_relabelling_the_nodes_and_permuting_the_arcs_keeps_the_value(instance, rng):
    d, w = instance
    perm = list(range(d.node_count))
    rng.shuffle(perm)
    arcs = [(perm[u], perm[v]) for u, v in zip(d.tails, d.heads)]
    rng.shuffle(arcs)
    inverse = sorted(range(d.node_count), key=perm.__getitem__)
    moved = WeightPair(
        tuple(w.source_weight[v] for v in inverse), tuple(w.sink_weight[v] for v in inverse)
    )
    assert _solved(Digraph(d.node_count, arcs), moved).value == _solved(d, w).value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs(), _choices)
def test_adding_a_parallel_copy_of_an_arc_keeps_the_value(instance, rng):
    d, w = instance
    arcs = list(zip(d.tails, d.heads))
    arcs.insert(rng.randrange(len(arcs) + 1), rng.choice(arcs))
    assert _solved(Digraph(d.node_count, arcs), w).value == _solved(d, w).value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs(), _choices)
def test_adding_an_arc_inside_a_strong_component_keeps_the_value(instance, rng):
    """An arc between two nodes that already reach each other closes no
    new circuit through any other node, so no source or sink changes."""
    d, w = instance
    comps = _strong_components(d)
    assume(comps)
    u, v = rng.sample(rng.choice(comps), 2)
    arcs = list(zip(d.tails, d.heads)) + [(u, v)]
    assert _solved(Digraph(d.node_count, arcs), w).value == _solved(d, w).value


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_digraphs(), _choices)
def test_zeroing_the_weights_of_a_strong_component_keeps_the_value(instance, rng):
    """A node on a directed circuit is a source or a sink in no
    reorientation, so its weights never count: the fact that lets a
    solver work on the condensation."""
    d, w = instance
    comps = _strong_components(d)
    assume(comps)
    inside = set(rng.choice(comps))

    def zero(side):
        return tuple(0 if v in inside else x for v, x in enumerate(side))

    zeroed = WeightPair(zero(w.source_weight), zero(w.sink_weight))
    assert _solved(d, zeroed).value == _solved(d, w).value


def _swap_colour_classes(data):
    """The same plane graph with S and T swapped: each edge's ends trade
    places, every boundary step's sign flips, and so ``w1`` and ``w2``
    trade places, since every arc of the matching orientation reverses
    and clockwise and anticlockwise faces trade places."""
    flip = {"+": "-", "-": "+"}
    return {
        "S": data["T"],
        "T": data["S"],
        "edges": [[t, s] for s, t in data["edges"]],
        "faces": [
            {"id": f["id"], "boundary": [[e, flip[sign]] for e, sign in f["boundary"]]}
            for f in data["faces"]
        ],
        "outer": data["outer"],
        "w1": data["w2"],
        "w2": data["w1"],
    }


@st.composite
def weighted_polyhexes(draw):
    """The JSON of a seeded random polyhex of 2 to 9 hexagons with a
    perfect matching, and face weights 0..3 in both senses, the outer face
    included."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2, 9))
    while True:
        try:
            data = benzenoid(random_polyhex_centers(rng, size))
            parse_validate(data)
            break
        except (AssertionError, NoPerfectMatchingError):
            continue  # a coronoid, or no perfect matching
    ids = [f["id"] for f in data["faces"]]
    side = st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids))
    data["w1"] = dict(zip(ids, draw(side)))
    data["w2"] = dict(zip(ids, draw(side)))
    return data


def _plane_answers(data):
    """The ``clar-fries`` value and the Clar and Fries numbers, each with
    every certificate check true."""
    g = parse_validate(data)
    results = (solve_clar_fries(g), clar_number(g), fries_number(g))
    for res in results:
        assert all(res.certificate.checks.values()), res.certificate.checks
    return tuple(res.value for res in results)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(weighted_polyhexes())
def test_swapping_the_colour_classes_keeps_the_plane_values(data):
    assert _plane_answers(_swap_colour_classes(data)) == _plane_answers(data)
