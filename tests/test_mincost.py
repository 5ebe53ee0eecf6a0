import random
from collections import deque
from heapq import heappop, heappush

import pytest

from clarfries import (
    AuxNetwork,
    CirculationInstance,
    Digraph,
    InfeasibleCirculation,
    InputError,
    McfSolution,
    WeightPair,
    bidirect,
    decompose,
    is_circulation,
    max_source_sink,
    mincost,
    solve,
)
from fixtures import (
    acyclic_triangle,
    bowtie,
    parallelogram_dual,
    random_closed_walk,
    random_digraph,
    reference_instances,
    two_cycle,
)


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


def test_aux_network_and_its_checked_instance_solve_alike():
    """``solve`` reads the flat arcs of an aux network and those a
    ``CirculationInstance`` derives from the same network's digraph, and
    returns the same solution from both."""
    for d, weights in reference_instances():
        aux = AuxNetwork(d, weights)
        checked = CirculationInstance(aux.digraph, aux.lower, aux.cost)
        assert (checked.node_count, list(checked.tails), list(checked.heads)) == (
            aux.node_count, aux.tails, aux.heads
        )
        assert solve(aux) == solve(checked)


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


def _reference_dijkstra(adj, head, cap, cst, pot, excess):
    """Binary-heap Dijkstra over (distance, node) pairs from every node with
    excess, stopping at the first deficit settled.  Reference for the
    bucket-queue version."""
    n = len(adj)
    dist = [mincost.INF] * n
    done = bytearray(n)
    h = []
    for v in range(n):
        if excess[v] > 0:
            dist[v] = 0
            h.append((0, v))
    while h:
        dv, v = heappop(h)
        if done[v]:
            continue
        done[v] = 1
        if excess[v] < 0:
            return dist, dv
        pv = pot[v]
        for e in adj[v]:
            if cap[e] > 0:
                w = head[e]
                if not done[w]:
                    nd = dv + cst[e] + pv - pot[w]
                    if nd < dist[w]:
                        dist[w] = nd
                        heappush(h, (nd, w))
    return dist, None


def _reference_blocking_flow(adj, head, cap, cst, pot, excess):
    """Full-scan Dinic over forward levels until no excess reaches a deficit:
    every phase rescans every residual slot and recomputes its reduced
    cost.  Reference for the tight-list phases and the push-relabel tail."""
    n = len(adj)
    total = 0
    while True:
        level = [-1] * n
        q = deque(v for v in range(n) if excess[v] > 0)
        for v in q:
            level[v] = 0
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
        # the level of the nearest deficit; deeper ones wait for a later phase
        bottom = min((level[v] for v in range(n) if excess[v] < 0 and level[v] >= 0), default=-1)
        if bottom < 0:
            return total
        it = [0] * n
        for r in range(n):
            if excess[r] <= 0 or level[r] != 0:
                continue
            path = []
            v = r
            while True:
                if level[v] == bottom and excess[v] < 0:
                    aug = min([excess[r], -excess[v]] + [cap[e] for e in path])
                    for e in path:
                        if cap[e] != mincost.INF:
                            cap[e] -= aug
                        if cap[e ^ 1] != mincost.INF:
                            cap[e ^ 1] += aug
                    excess[r] -= aug
                    excess[v] += aug
                    total += aug
                    if not excess[r]:
                        break
                    keep = 0
                    while keep < len(path) and cap[path[keep]] > 0:
                        keep += 1
                    del path[keep:]
                    v = head[path[-1]] if path else r
                    continue
                advanced = False
                if level[v] < bottom:
                    a = adj[v]
                    i = it[v]
                    pv = pot[v]
                    while i < len(a):
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
                    it[v] = i
                level[v] = -1
                if not path:
                    break
                e = path.pop()
                v = head[e ^ 1]
                it[v] += 1


def _reference_solve(inst):
    """The solver that the excess-driven one replaced: every excess enters
    from a super source and every deficit leaves to a super sink, and each
    round runs Dinic phases until no augmenting path is left.

    The super source is the only node with excess and the super sink the
    only deficit, so the reference Dijkstra and blocking flow above run on
    this network unchanged."""
    d = inst.digraph
    n = d.node_count
    arcs = d.arcs
    lower, cost = inst.lower, inst.cost
    nn = n + 2
    src, snk = n, n + 1
    head, cap, cst = [], [], []
    adj = [[] for _ in range(nn)]

    def add(u, v, capacity, c):
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((capacity, 0))
        cst.extend((c, -c))

    for (u, v), c in zip(arcs, cost):
        add(u, v, mincost.INF, c)
    balance = [0] * n
    for (u, v), f in zip(arcs, lower):
        balance[u] -= f
        balance[v] += f
    for v, b in enumerate(balance):
        if b > 0:
            add(src, v, b, 0)
        elif b < 0:
            add(v, snk, -b, 0)
    supply = sum(b for b in balance if b > 0)
    excess = [0] * n + [supply, -supply]
    pot = [0] * nn
    while excess[src]:
        dist, bound = _reference_dijkstra(adj, head, cap, cst, pot, excess)
        if bound is None:
            raise InfeasibleCirculation(frozenset(v for v in range(n) if dist[v] < mincost.INF))
        pot = [p + min(dv, bound) for p, dv in zip(pot, dist)]
        assert _reference_blocking_flow(adj, head, cap, cst, pot, excess) > 0
    flow = tuple(low + cap[2 * a + 1] for a, low in enumerate(lower))
    objective = sum(c * f for c, f in zip(cost, flow))
    mincost._certify(inst, flow, tuple(pot[:n]), objective)
    return McfSolution(flow, tuple(pot[:n]), objective)


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


def _aux_instance(d, weights):
    aux = AuxNetwork(d, weights)
    return CirculationInstance(aux.digraph, aux.lower, aux.cost)


def _huge_cost_instances():
    """Seeded instances with costs up to 10**40, some of them infeasible."""
    rng = random.Random(40)
    for _ in range(40):
        d = random_digraph(rng, max_nodes=12, max_arcs=30)
        m = d.arc_count
        lower = tuple(rng.randrange(0, 3) if rng.random() < 0.2 else 0 for _ in range(m))
        cost = tuple(rng.randrange(0, 10**40) for _ in range(m))
        yield CirculationInstance(d, lower=lower, cost=cost)


def _all_instances():
    """The sweep, the 24 x 28 parallelogram's network, the 10**40-cost
    instances and the networks of ``reference_instances``."""
    return (
        list(_sweep_instances())
        + [_aux_instance(*parallelogram_dual(24, 28))]
        + list(_huge_cost_instances())
        + [_aux_instance(d, w) for d, w in reference_instances()]
    )


def _outcome(solver, inst):
    try:
        sol = solver(inst)
    except InfeasibleCirculation as exc:
        return exc.deficient_set
    return sol.flow, sol.potential, sol.objective


def _dinic_tail(tight, head, cap, excess):
    """Dinic phases in place of push-relabel, until none pushes."""
    total = 0
    while pushed := mincost._dinic_phase(tight, head, cap, excess):
        total += pushed
    return total, 0, 0


def test_dinic_rounds_match_reference_solver(monkeypatch):
    """Without its push-relabel tail, the excess-driven solver is the super
    source and sink solver: equal flows, potentials and deficient sets."""
    instances = _all_instances()
    reference = [_outcome(_reference_solve, inst) for inst in instances]
    assert any(isinstance(out, frozenset) for out in reference)
    assert any(isinstance(out, tuple) and out[2] > 10**39 for out in reference)
    monkeypatch.setattr(mincost, "_push_relabel", _dinic_tail)
    assert [_outcome(solve, inst) for inst in instances] == reference


def _full_scan_round(instance, pot, head, cap, excess):
    """``_reference_blocking_flow`` in place of a round's flow, on the
    residual slots of ``instance`` in the solver's numbering."""
    adj = [[] for _ in range(instance.node_count)]
    cst = []
    for a, (u, v, c) in enumerate(zip(instance.tails, instance.heads, instance.cost)):
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)
        cst += (c, -c)
    return _reference_blocking_flow(adj, head, cap, cst, pot, excess)


def test_blocking_flow_matches_full_scan_reference(monkeypatch):
    instances = _all_instances()
    reference = [_outcome(_reference_solve, inst) for inst in instances]
    monkeypatch.setattr(mincost, "_round_flow", _full_scan_round)
    assert [_outcome(solve, inst) for inst in instances] == reference


def test_dijkstra_matches_heap_reference(monkeypatch):
    instances = _all_instances()
    fast = [_outcome(solve, inst) for inst in instances]
    monkeypatch.setattr(mincost, "_dijkstra", _reference_dijkstra)
    assert [_outcome(solve, inst) for inst in instances] == fast


def test_dijkstra_bound_matches_heap_reference(monkeypatch):
    """Every Dijkstra of the solves gives the heap reference's bound and
    the same ``min(dist, bound)``, the part of ``dist`` the potential
    update reads, also when it stops early at a deficit it reaches."""
    fast = mincost._dijkstra
    calls = []

    def compared(adj, head, cap, cst, pot, excess):
        dist, bound = fast(adj, head, cap, cst, pot, excess)
        ref_dist, ref_bound = _reference_dijkstra(adj, head, cap, cst, pot, excess)
        assert bound == ref_bound
        if bound is None:
            assert dist == ref_dist
        else:
            assert [min(x, bound) for x in dist] == [min(x, bound) for x in ref_dist]
            # a stop at a deficit settled leaves that deficit's distance set
            calls.append(any(x == bound for x, b in zip(dist, excess) if b < 0))
        return dist, bound

    monkeypatch.setattr(mincost, "_dijkstra", compared)
    for inst in _sweep_instances():
        _outcome(solve, inst)
    assert calls and not all(calls)


def test_push_relabel_keeps_reference_optimum():
    """Push-relabel routes each round's tail along other paths, so flows
    may differ; objectives, potentials and deficient sets may not, and
    every flow passes the optimality check."""
    changed = 0
    for inst in _all_instances():
        ref = _outcome(_reference_solve, inst)
        out = _outcome(solve, inst)
        if isinstance(ref, frozenset):
            assert out == ref
            continue
        flow, potential, objective = out
        assert (potential, objective) == ref[1:]
        mincost._certify(inst, flow, potential, objective)
        changed += flow != ref[0]
    assert changed


def _dijkstra_bounds(monkeypatch):
    """The bound of every Dijkstra search the solver runs from now on."""
    bounds = []
    inner = mincost._dijkstra

    def recorded(*args):
        dist, bound = inner(*args)
        bounds.append(bound)
        return dist, bound

    monkeypatch.setattr(mincost, "_dijkstra", recorded)
    return bounds


def test_first_round_runs_dijkstra_only_without_a_zero_cost_path(monkeypatch):
    """The first round routes flow over the cost-0 arcs before any Dijkstra.
    On the two-cycle with a free way back it finishes there; on the
    two-cycle of ``test_potential_prices_costly_arcs`` no cost-0 path
    carries flow, so the solve falls through to a Dijkstra of bound 1.
    Both answers are the reference solver's."""
    bounds = _dijkstra_bounds(monkeypatch)
    free = CirculationInstance(two_cycle(), lower=(1, 0), cost=(1, 0))
    assert _outcome(solve, free) == _outcome(_reference_solve, free)
    assert bounds == []
    costly = CirculationInstance(two_cycle(), lower=(1, 0), cost=(0, 1))
    assert _outcome(solve, costly) == _outcome(_reference_solve, costly)
    assert bounds == [1]


def test_infeasible_instance_reaches_dijkstra(monkeypatch):
    """An instance with no feasible circulation moves nothing in the first
    round, and its deficient set still comes from the first Dijkstra: the
    set the reference solver raises."""
    inst = CirculationInstance(acyclic_triangle(), lower=(1, 0, 0), cost=(0, 0, 0))
    expected = _outcome(_reference_solve, inst)
    bounds = _dijkstra_bounds(monkeypatch)
    with pytest.raises(InfeasibleCirculation) as err:
        solve(inst)
    assert bounds == [None]
    assert err.value.deficient_set == expected == frozenset({1, 2})


def _seeded_digraph(seed, n, m):
    """A random spanning tree on ``n`` nodes plus random arcs, ``m`` in all,
    with source and sink weights 0..10."""
    rng = random.Random(seed)
    arcs = []
    for v in range(1, n):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.append((u, v))
    w = WeightPair(
        tuple(rng.randrange(0, 11) for _ in range(n)),
        tuple(rng.randrange(0, 11) for _ in range(n)),
    )
    return Digraph(n, arcs), w


@pytest.mark.parametrize(
    "instance",
    [lambda: _seeded_digraph(300, 300, 1500), lambda: parallelogram_dual(12, 12)],
    ids=["digraph-300", "parallelogram-12x12"],
)
def test_work_does_not_grow_with_weight_size(monkeypatch, instance):
    """The solve is strongly polynomial: scaling every weight by 10**30
    leaves the rounds, Dijkstra searches, Dinic phases, pushes, relabels
    and global relabels as they are, and the rounds stay within 3n + 2 for
    a digraph of n nodes (costs are 0 or 1, so the nearest deficit's
    distance rises by at least 1 a round)."""
    names = ("_round_flow", "_dijkstra", "_dinic_phase", "_global_relabel", "_push_relabel")
    work = dict.fromkeys(names + ("pushes", "relabels"), 0)
    for name in names:
        inner = getattr(mincost, name)

        def counted(*args, inner=inner, name=name):
            work[name] += 1
            out = inner(*args)
            if name == "_push_relabel":
                work["pushes"] += out[1]
                work["relabels"] += out[2]
            return out

        monkeypatch.setattr(mincost, name, counted)

    def solve_counted(d, w):
        for name in work:
            work[name] = 0
        return max_source_sink(d, w), dict(work)

    d, w = instance()
    base, base_work = solve_counted(d, w)
    factor = 10**30
    scaled, scaled_work = solve_counted(
        d,
        WeightPair(
            tuple(factor * x for x in w.source_weight),
            tuple(factor * x for x in w.sink_weight),
        ),
    )
    assert 1 < base_work["_round_flow"] <= 3 * d.node_count + 2
    assert base_work["pushes"] > 0 and base_work["relabels"] > 0
    assert scaled_work == base_work
    assert base.value > 0
    assert scaled.value == factor * base.value
    assert (scaled.source_set, scaled.sink_set) == (base.source_set, base.sink_set)
    assert scaled.potential == base.potential


# --- circuit decomposition ---------------------------------------------------


def test_decompose_single_circuit():
    d = acyclic_triangle()
    b = bidirect(d)
    z = [0] * 6
    w_to_u = 1 + d.arc_count  # the reverse copy of u->w
    z[0] = z[2] = 1          # u->v, v->w
    z[w_to_u] = 1
    out = decompose(b, z)
    assert len(out) == 1
    circuit, mult = out[0]
    assert mult == 1
    assert sorted(circuit) == sorted((0, 2, w_to_u))


def test_decompose_takes_any_digraph():
    # the two-cycle is a circulation on its own arcs, with no doubling
    assert decompose(two_cycle(), [1, 1]) == [((0, 1), 1)]


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
            for j in random_closed_walk(rng, b):
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
