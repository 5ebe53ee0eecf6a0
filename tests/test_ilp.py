"""An exact integer program as an independent check of weighted plane
answers, at sizes the brute-force oracle cannot enumerate.

The program picks a perfect matching ``x`` and, per weighted face, a flag
``y_cw`` or ``y_acw`` that may be 1 only when the face alternates in that
sense under ``x``, and maximises the flagged weight.  HiGHS solves it in
floating point, so no float enters an assertion: its matching is
re-scored exactly with :func:`alternating_faces`, and that score must
equal the solver's certified value.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from clarfries import alternating_faces, parse_validate, solve_clar_fries
from fixtures import benzenoid


def ilp_best_matching(g, cw_weights, acw_weights) -> frozenset[int]:
    """A perfect matching of ``g`` that maximises the total weight of its
    alternating faces, by ``scipy.optimize.milp`` with no gap allowed."""
    scale = math.lcm(*(Fraction(w).denominator for w in cw_weights + acw_weights))
    m = len(g.edges)
    cost = [0] * m
    rows, cols, vals, upper = [], [], [], []

    def bound(var, e, negate):
        # y <= x_e, or y <= 1 - x_e when ``negate``
        rows.extend((len(upper), len(upper)))
        cols.extend((var, e))
        vals.extend((1, 1 if negate else -1))
        upper.append(1 if negate else 0)

    for weights, clockwise in ((cw_weights, True), (acw_weights, False)):
        for f, w in enumerate(weights):
            if not w:
                continue
            var = len(cost)
            cost.append(-int(w * scale))
            # clockwise: every side walked S->T (odd) matched, every other
            # side unmatched; anticlockwise the reverse
            for side in g.boundaries[f]:
                bound(var, side >> 1, (side & 1) != clockwise)
    flags = coo_array((vals, (rows, cols)), shape=(len(upper), len(cost)))

    node_rows, node_cols = [], []
    for e, (s, t) in enumerate(g.edges):
        node_rows += (s, t)
        node_cols += (e, e)
    one_edge_each = coo_array(
        ([1] * len(node_rows), (node_rows, node_cols)), shape=(g.node_count, len(cost))
    )

    res = milp(
        np.array(cost, dtype=float),
        constraints=[
            LinearConstraint(one_edge_each, 1, 1),
            LinearConstraint(flags, -np.inf, np.array(upper, dtype=float)),
        ],
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0, res.message
    return frozenset(e for e in range(m) if res.x[e] > 0.5)


def parallelogram(rows: int, cols: int) -> dict:
    return benzenoid([(q, r) for q in range(rows) for r in range(cols)])


def seeded_weights(data: dict, seed: int, draw) -> dict:
    rng = random.Random(seed)
    inner = [f["id"] for f in data["faces"] if f["id"] != data["outer"]]
    data["w1"] = {f: draw(rng) for f in inner}
    data["w2"] = {f: draw(rng) for f in inner}
    return data


def fries_weights(data: dict) -> dict:
    inner = {f["id"]: 1 for f in data["faces"] if f["id"] != data["outer"]}
    data["w1"] = data["w2"] = inner
    return data


INSTANCES = {
    "8x8": lambda: seeded_weights(parallelogram(8, 8), 88, lambda rng: rng.randint(0, 5)),
    "12x12": lambda: seeded_weights(parallelogram(12, 12), 1212, lambda rng: rng.randint(0, 5)),
    "20x20": lambda: seeded_weights(parallelogram(20, 20), 2020, lambda rng: rng.randint(0, 5)),
    "6x7-pq": lambda: seeded_weights(
        parallelogram(6, 7), 67, lambda rng: f"{rng.randint(0, 9)}/{rng.randint(1, 6)}"
    ),
    "acene-100-fries": lambda: fries_weights(benzenoid([(0, r) for r in range(100)])),
}


@pytest.mark.parametrize("name", list(INSTANCES))
def test_solver_value_matches_the_integer_program(name):
    g = parse_validate(INSTANCES[name]())
    result = solve_clar_fries(g)
    matching = ilp_best_matching(g, g.cw_weights, g.acw_weights)
    cw, acw = alternating_faces(g, matching)
    score = sum(g.cw_weights[f] for f in cw) + sum(g.acw_weights[f] for f in acw)
    assert score == result.value
    if name.endswith("-pq"):
        assert isinstance(result.value, Fraction)
    else:
        assert result.value > 0
