"""The paper's polyhedron as an independent check of source-sink answers,
at sizes the brute-force oracle cannot enumerate.

The convex hull of the source-sink pairs is the projection of a network
tension polyhedron, so a plain LP with no integrality finds the optimum.
The LP here lives on the input digraph alone, with no auxiliary network
and no min-cost circulation: a potential ``pi`` in ``[0, n]`` and source
and sink indicators ``s``, ``t`` in ``[0, 1]``, and on each arc
``(u, v)`` with drop ``d = pi[v] - pi[u]``::

    0 <= d <= 1,  s[v] <= d,  s[u] <= 1 - d,  t[v] <= 1 - d,  t[u] <= d

A drop of 1 reverses the arc: a source needs every arc into it reversed
and every arc out of it kept, a sink the other way round.  The objective
is the pair weight in units of ``1/scale``, so ``"p/q"`` weights enter as
ints.  HiGHS solves it in floating point, so no float enters an exact
assertion: the vertex must be integral, its objective must round to the
solver's value, and its potential, rounded, must reorient the digraph into
one whose sources and sinks weigh exactly the solver's value.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import coo_array

from clarfries import WeightPair, apply_reorientation, max_source_sink, sources_sinks
from clarfries.jsonio import parse_weight_value
from clarfries.oracle import random_digraph, random_weight_pair, sparse_instance


def lp_vertex(d, weights):
    """An optimal vertex of the direct LP, as ``(objective, x)``: the
    objective in units of ``1/weights.scale``, and ``x`` the potential
    followed by ``s`` and ``t``."""
    n = d.node_count
    rows, cols, vals, upper = [], [], [], []

    def row(bound, *terms):
        # sum of coef * x[var] <= bound
        for var, coef in terms:
            rows.append(len(upper))
            cols.append(var)
            vals.append(coef)
        upper.append(bound)

    for u, v in zip(d.tails, d.heads):
        # the drop d = pi[v] - pi[u] is the terms (v, 1), (u, -1)
        row(1, (v, 1), (u, -1))  # d <= 1
        row(0, (u, 1), (v, -1))  # 0 <= d
        row(0, (n + v, 1), (v, -1), (u, 1))  # s[v] <= d
        row(1, (n + u, 1), (v, 1), (u, -1))  # s[u] <= 1 - d
        row(1, (2 * n + v, 1), (v, 1), (u, -1))  # t[v] <= 1 - d
        row(0, (2 * n + u, 1), (v, -1), (u, 1))  # t[u] <= d
    cost = [0] * n + [-w for w in weights.source_units] + [-w for w in weights.sink_units]
    res = linprog(
        np.array(cost, dtype=float),
        A_ub=coo_array((vals, (rows, cols)), shape=(len(upper), 3 * n)),
        b_ub=np.array(upper, dtype=float),
        bounds=[(0, n)] * n + [(0, 1)] * (2 * n),
        method="highs",
    )
    assert res.status == 0, res.message
    return -res.fun, res.x


def assert_lp_matches(d, weights):
    """The LP's vertex is integral and both its objective and its rounded
    potential, re-scored exactly, give the solver's value."""
    cert = max_source_sink(d, weights)
    objective, x = lp_vertex(d, weights)
    assert round(objective) == cert.value * weights.scale, (objective, cert.value)
    assert np.max(np.abs(x - np.round(x))) < 1e-9
    potential = [round(p) for p in x[: d.node_count]]
    sources, sinks = sources_sinks(apply_reorientation(d, potential))
    score = sum(weights.source_weight[v] for v in sources) + sum(
        weights.sink_weight[v] for v in sinks
    )
    assert score == cert.value
    return cert.value


def _pq_weights(rng, n):
    """``"p/q"`` weights, read as the JSON reader reads them."""

    def side():
        return tuple(
            parse_weight_value(f"{rng.randint(0, 9)}/{rng.randint(1, 6)}", "w") for _ in range(n)
        )

    return WeightPair(side(), side())


def test_lp_gives_the_solver_value_on_random_digraphs():
    rng = random.Random(5)
    for _ in range(300):
        d = random_digraph(rng)
        assert_lp_matches(d, random_weight_pair(rng, d.node_count))


def test_lp_gives_the_solver_value_with_pq_weights():
    rng = random.Random(6)
    fractional = 0
    for _ in range(100):
        d = random_digraph(rng)
        fractional += isinstance(assert_lp_matches(d, _pq_weights(rng, d.node_count)), Fraction)
    d, _ = sparse_instance(200, 1000)
    assert isinstance(assert_lp_matches(d, _pq_weights(rng, 200)), Fraction)
    assert fractional > 50


@pytest.mark.parametrize("n, value", [(200, 14), (500, 28), (1000, 60)])
def test_lp_gives_the_solver_value_at_scale(n, value):
    """Criterion 12's generator with 5n arcs."""
    assert assert_lp_matches(*sparse_instance(n, 5 * n)) == value
