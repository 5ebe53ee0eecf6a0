import random
from collections import deque

import pytest

from clarfries import (
    AuxNetwork,
    CirculationInstance,
    Digraph,
    InfeasibleCirculation,
    InputError,
    WeightPair,
    bidirect,
    decompose,
    is_circulation,
    mincost,
    parse_validate,
    solve,
    solve_clar_fries,
)
from fixtures import acyclic_triangle, benzenoid, bowtie, random_digraph, two_cycle


def test_instance_validation():
    d = two_cycle()
    with pytest.raises(InputError):
        CirculationInstance(d, lower=(-1, 0), cost=(0, 0))
    with pytest.raises(InputError):
        CirculationInstance(d, lower=(0, 0), cost=(0, -1))
    with pytest.raises(InputError):
        CirculationInstance(d, lower=(0.5, 0), cost=(0, 0))
    with pytest.raises(InputError):
        CirculationInstance(d, lower=(0,), cost=(0, 0))


def test_zero_lower_bounds_need_no_flow():
    d, _ = bowtie()
    sol = solve(CirculationInstance(d, lower=(0,) * 8, cost=(1,) * 8))
    assert sol.objective == 0
    assert all(f == 0 for f in sol.flow)


def test_two_cycle_forced_unit_flow():
    d = two_cycle()
    sol = solve(CirculationInstance(d, lower=(1, 0), cost=(1, 0)))
    assert sol.flow == (1, 1)
    assert sol.objective == 1


def test_potential_prices_costly_arcs():
    d = two_cycle()
    sol = solve(CirculationInstance(d, lower=(1, 0), cost=(0, 1)))
    assert sol.objective == 1
    # both arcs carry flow above their lower bound, so reduced costs vanish
    pot = sol.potential
    for j, (u, v) in enumerate(d.arcs):
        if sol.flow[j] > (1, 0)[j]:
            assert (0, 1)[j] + pot[u] - pot[v] == 0


def test_infeasible_instance_yields_deficient_set():
    d = acyclic_triangle()
    with pytest.raises(InfeasibleCirculation) as err:
        solve(CirculationInstance(d, lower=(1, 0, 0), cost=(0, 0, 0)))
    cut = err.value.deficient_set
    assert cut
    # no arc leaves the set, yet more lower bound enters than leaves
    inside = set(cut)
    entering = leaving = 0
    for j, (u, v) in enumerate(d.arcs):
        assert not (u in inside and v not in inside)
        lo = (1, 0, 0)[j]
        if v in inside and u not in inside:
            entering += lo
        if u in inside and v not in inside:
            leaving += lo
    assert entering > leaving


def lp_reference(inst):
    """Independent optimum via scipy's LP solver."""
    from scipy.optimize import linprog

    d = inst.digraph
    n, m = d.node_count, d.arc_count
    a_eq = [[0] * m for _ in range(n)]
    for j, (u, v) in enumerate(d.arcs):
        a_eq[u][j] -= 1
        a_eq[v][j] += 1
    res = linprog(
        c=list(inst.cost),
        A_eq=a_eq,
        b_eq=[0] * n,
        bounds=[(lo, None) for lo in inst.lower],
        method="highs",
    )
    return res


def test_optimum_matches_lp_reference():
    rng = random.Random(99)
    solved = infeasible = 0
    for _ in range(60):
        d = random_digraph(rng, max_nodes=6, max_arcs=10)
        m = d.arc_count
        lower = tuple(rng.randrange(0, 3) for _ in range(m))
        cost = tuple(rng.randrange(0, 4) for _ in range(m))
        inst = CirculationInstance(d, lower=lower, cost=cost)
        ref = lp_reference(inst)
        try:
            sol = solve(inst)
        except InfeasibleCirculation:
            assert not ref.success
            infeasible += 1
            continue
        assert ref.success
        assert sol.objective == round(ref.fun)
        solved += 1
    assert solved and infeasible


def test_solution_certificates_hold():
    rng = random.Random(7)
    for _ in range(80):
        d = random_digraph(rng, max_nodes=7, max_arcs=12)
        m = d.arc_count
        lower = tuple(rng.randrange(0, 2) for _ in range(m))
        cost = tuple(rng.randrange(0, 3) for _ in range(m))
        try:
            sol = solve(CirculationInstance(d, lower=lower, cost=cost))
        except InfeasibleCirculation:
            continue
        balance = [0] * d.node_count
        for j, (u, v) in enumerate(d.arcs):
            assert sol.flow[j] >= lower[j]
            assert isinstance(sol.flow[j], int)
            balance[u] -= sol.flow[j]
            balance[v] += sol.flow[j]
            reduced = cost[j] + sol.potential[u] - sol.potential[v]
            assert reduced >= 0
            if sol.flow[j] > lower[j]:
                assert reduced == 0
        assert all(b == 0 for b in balance)
        assert sol.objective == sum(c * f for c, f in zip(cost, sol.flow))


def test_determinism():
    rng = random.Random(5)
    d = random_digraph(rng, max_nodes=7, max_arcs=12)
    m = d.arc_count
    lower = tuple(rng.randrange(0, 2) for _ in range(m))
    cost = tuple(rng.randrange(0, 3) for _ in range(m))
    inst = CirculationInstance(d, lower=lower, cost=cost)
    first = solve(inst)
    second = solve(inst)
    assert first.flow == second.flow
    assert first.potential == second.potential


def _reference_blocking_flow(adj, head, cap, cst, pot, src, snk, nn):
    """Full-scan blocking flow: every phase rescans every residual slot and
    recomputes its reduced cost.  Reference for the tight-list version."""
    total = 0
    while True:
        level = [-1] * nn
        level[src] = 0
        q = deque([src])
        while q:
            v = q.popleft()
            lv = level[v] + 1
            pv = pot[v]
            for e in adj[v]:
                if cap[e] > 0:
                    w = head[e]
                    if level[w] < 0 and cst[e] + pv - pot[w] == 0:
                        level[w] = lv
                        q.append(w)
        if level[snk] < 0:
            return total
        it = [0] * nn
        path = []
        v = src
        while True:
            if v == snk:
                aug = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                total += aug
                keep = 0
                while keep < len(path) and cap[path[keep]] > 0:
                    keep += 1
                del path[keep:]
                v = head[path[-1]] if path else src
                continue
            a = adj[v]
            advanced = False
            i = it[v]
            la = len(a)
            pv = pot[v]
            while i < la:
                e = a[i]
                if cap[e] > 0:
                    w = head[e]
                    if level[w] == level[v] + 1 and cst[e] + pv - pot[w] == 0:
                        it[v] = i
                        path.append(e)
                        v = w
                        advanced = True
                        break
                i += 1
            if advanced:
                continue
            it[v] = la
            if v == src:
                break
            level[v] = -1
            e = path.pop()
            v = head[e ^ 1]
            it[v] += 1


def _sweep_instances():
    """The random instances of the LP and certificate sweeps above."""
    for seed, count, nodes, arcs, lo, co in ((99, 60, 6, 10, 3, 4), (7, 80, 7, 12, 2, 3)):
        rng = random.Random(seed)
        for _ in range(count):
            d = random_digraph(rng, max_nodes=nodes, max_arcs=arcs)
            m = d.arc_count
            lower = tuple(rng.randrange(0, lo) for _ in range(m))
            cost = tuple(rng.randrange(0, co) for _ in range(m))
            yield CirculationInstance(d, lower=lower, cost=cost)


def _parallelogram_aux_instance(n, m):
    g = parse_validate(benzenoid([(q, r) for q in range(n) for r in range(m)]))
    dual = solve_clar_fries(g).dual.digraph
    rng = random.Random(2428)
    weights = WeightPair(
        tuple(rng.randint(0, 3) for _ in range(dual.node_count)),
        tuple(rng.randint(0, 3) for _ in range(dual.node_count)),
    )
    aux = AuxNetwork(dual, weights)
    return CirculationInstance(aux.digraph, aux.lower, aux.cost)


def _solve_outcome(inst):
    try:
        sol = solve(inst)
    except InfeasibleCirculation as exc:
        return exc.deficient_set
    return sol.flow, sol.potential, sol.objective


def test_blocking_flow_matches_full_scan_reference(monkeypatch):
    instances = list(_sweep_instances()) + [_parallelogram_aux_instance(24, 28)]
    fast = [_solve_outcome(inst) for inst in instances]
    monkeypatch.setattr(mincost, "_blocking_flow", _reference_blocking_flow)
    reference = [_solve_outcome(inst) for inst in instances]
    assert fast == reference


# --- circuit decomposition ---------------------------------------------------


def test_decompose_single_circuit():
    d = acyclic_triangle()
    b = bidirect(d)
    z = [0] * 6
    z[0] = z[2] = 1          # u->v, v->w
    z[b.reverse(1)] = 1      # w->u on the reverse copy
    out = decompose(b, z)
    assert len(out) == 1
    circuit, mult = out[0]
    assert mult == 1
    assert sorted(circuit) == sorted((0, 2, b.reverse(1)))


def test_decompose_validates_input():
    d = two_cycle()
    b = bidirect(d)
    with pytest.raises(InputError):
        decompose(b, [1, 0, 0, 0])
    with pytest.raises(InputError):
        decompose(b, [0.5, 0.5, 0, 0])


def test_decompose_reconstructs_random_circulations():
    rng = random.Random(31)
    for _ in range(60):
        d = random_digraph(rng, max_nodes=6, max_arcs=9)
        b = bidirect(d)
        z = [0] * b.arc_count
        for _ in range(rng.randrange(1, 5)):
            mult = rng.randrange(1, 4)
            for j in closed_walk(rng, b):
                z[j] += mult
        assert is_circulation(b, z)
        parts = decompose(b, z)
        rebuilt = [0] * b.arc_count
        for circuit, mult in parts:
            assert mult >= 1
            at = None
            first = None
            seen_nodes = set()
            for j in circuit:
                u, v = b.arcs[j]
                if at is None:
                    first = u
                else:
                    assert u == at
                assert u not in seen_nodes  # one-way circuits visit once
                seen_nodes.add(u)
                at = v
                rebuilt[j] += mult
            assert at == first
        assert rebuilt == list(z)


def closed_walk(rng, b):
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
