import heapq
import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import balcut.localflow as localflow
from balcut.errors import InternalInvariantBroken, InvalidInput
from balcut.generators import complete_graph, random_connected_graph
from balcut.graph import (
    MultiGraph,
    cut_stats,
    incident_slots,
    live_degrees,
    masked_subgraph,
)
from balcut.localflow import (
    FlowInstance,
    PairRouting,
    Preflow,
    bounded_push_relabel,
    decompose_preflow,
    route_or_cut_1pair,
)


def two_blocks_bridge(k=5):
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    edges.append((0, k))
    return MultiGraph(2 * k, edges)


def test_unit_path_flow():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    inst = FlowInstance(g, (1, 0, 0), (0, 0, 1), Fraction(1, 2))
    pf, excess, cut = bounded_push_relabel(inst)
    assert excess == 0 and cut is None
    assert abs(pf.flow[0]) == 1 and abs(pf.flow[1]) == 1
    paths = decompose_preflow(g, pf, inst)
    assert paths == [[0, 1, 2]]


def test_zero_instance():
    g = complete_graph(4)
    inst = FlowInstance(g, (0,) * 4, (0,) * 4, Fraction(1, 2))
    pf, excess, cut = bounded_push_relabel(inst)
    assert excess == 0 and cut is None
    assert all(f == 0 for f in pf.flow)
    assert decompose_preflow(g, pf, inst) == []


def test_blocked_bridge_produces_cut():
    g = two_blocks_bridge(5)
    deg = g.degrees()
    source = tuple(deg[v] if v < 5 else 0 for v in range(10))
    sink = tuple(deg[v] if v >= 5 else 0 for v in range(10))
    inst = FlowInstance(g, source, sink, Fraction(1, 2))
    pf, excess, cut = bounded_push_relabel(inst)
    # at most ceil(4/phi) = 8 of the 21 units can cross the bridge
    assert excess >= 21 - 8
    assert cut is not None
    assert cut.conductance < Fraction(1, 2)
    assert cut.side in (frozenset(range(5)), frozenset(range(5, 10)))
    assert cut.conductance == Fraction(1, 21)
    assert min(cut.vol_s, cut.vol_comp) >= excess


def test_parallel_edge_decomposition():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    inst = FlowInstance(g, (2, 0), (0, 2), Fraction(1, 2))
    pf, excess, _ = bounded_push_relabel(inst)
    assert excess == 0
    paths = decompose_preflow(g, pf, inst)
    assert sorted(paths) == [[0, 1], [0, 1]]


def test_instance_validation():
    g = complete_graph(3)
    with pytest.raises(InvalidInput):
        FlowInstance(g, (5, 0, 0), (0, 0, 5), Fraction(1, 2))  # above degree
    with pytest.raises(InvalidInput, match="^vertex 1: "):  # the first offender
        FlowInstance(g, (0, 3, 0), (0, 0, 3), Fraction(1, 2))
    with pytest.raises(InvalidInput, match="^vertex 2: "):  # a sink above degree
        FlowInstance(g, (0, 0, 0), (0, 0, 3), Fraction(1, 2))
    with pytest.raises(InvalidInput, match="nonnegative"):
        FlowInstance(g, (0, 0, 0), (0, -1, 0), Fraction(1, 2))
    with pytest.raises(InvalidInput):
        FlowInstance(g, (1, 1, 0), (0, 0, 1), Fraction(1, 2))  # sources > sinks
    with pytest.raises(InvalidInput):
        FlowInstance(g, (0, 0, 0), (0, 0, 0), Fraction(3, 2))  # phi > 1


def test_random_instances_contract():
    rng = random.Random(42)
    for trial in range(60):
        g = random_connected_graph(rng.randint(4, 12), 0.4, trial)
        deg = g.degrees()
        phi = Fraction(1, rng.randint(2, 6))
        sink = tuple(rng.randint(0, d) for d in deg)
        budget = sum(sink)
        source = [0] * g.n
        remaining = budget
        for v in range(g.n):
            if remaining <= 0:
                break
            take = rng.randint(0, min(deg[v], remaining))
            source[v] = take
            remaining -= take
        inst = FlowInstance(g, tuple(source), sink, phi)
        pf, excess, cut = bounded_push_relabel(inst)
        cap = inst.congestion_cap
        assert all(abs(f) <= cap for f in pf.flow)
        pf.validate(inst)
        if excess > 0:
            assert cut is not None
            assert cut.conductance < phi
            assert min(cut.vol_s, cut.vol_comp) >= excess
        paths = decompose_preflow(g, pf, inst)
        assert len(paths) == sum(source) - excess
        # per-pair path multiplicity never exceeds the total flow carried
        # by that pair's parallel edges
        flow_by_pair = {}
        for eid, f in enumerate(pf.flow):
            u, v = g.edges[eid]
            key = (min(u, v), max(u, v))
            flow_by_pair[key] = flow_by_pair.get(key, 0) + abs(f)
        used = {}
        for p in paths:
            for x, y in zip(p, p[1:]):
                key = (min(x, y), max(x, y))
                used[key] = used.get(key, 0) + 1
        for key, cnt in used.items():
            assert cnt <= flow_by_pair.get(key, 0)


def test_route_or_cut_1pair_single_edge():
    g = MultiGraph(2, [(0, 1)])
    res = route_or_cut_1pair(g, [0], [1], 0, Fraction(1, 4))
    assert isinstance(res, PairRouting)
    assert res.value == 1
    assert res.paths == [[0, 1]]


def test_route_or_cut_1pair_k5_barbell_contract():
    # The congestion cap 4*Delta/psi = 80 exceeds the 5 units of demand, so
    # the bridge cannot jam; whichever branch comes back must satisfy its
    # recounted bounds (here: the full routing).
    g = two_blocks_bridge(5)
    res = route_or_cut_1pair(g, list(range(5)), list(range(5, 10)), 1, Fraction(1, 4))
    if isinstance(res, PairRouting):
        assert res.value >= 5 - 1
        assert res.congestion <= 4 * g.max_degree() / Fraction(1, 4)
    else:
        assert res.sparsity <= Fraction(1, 4)
        assert min(res.size, g.n - res.size) * g.max_degree() >= 1


def test_route_or_cut_1pair_bounded_degree_bridge_cut():
    # Two degree-3 blocks of 150 vertices with one bridge: demand 150 exceeds
    # the bridge capacity ceil(4*Delta/psi) = 64, so a cut must surface.
    from balcut.generators import random_regularish_graph

    block = random_regularish_graph(150, 3, seed=5)
    edges = list(block.edges)
    edges += [(150 + u, 150 + v) for u, v in block.edges]
    edges.append((0, 150))
    g = MultiGraph(300, edges)
    res = route_or_cut_1pair(
        g, list(range(150)), list(range(150, 300)), 10, Fraction(1, 4),
        early_check_interval=5000,
    )
    assert not isinstance(res, PairRouting)
    assert res.sparsity <= Fraction(1, 4)
    assert min(res.size, 300 - res.size) * g.max_degree() >= 10


def test_route_or_cut_1pair_k8_perfect():
    g = complete_graph(8)
    res = route_or_cut_1pair(g, [0, 1, 2], [3, 4, 5], 0, Fraction(1, 3))
    assert isinstance(res, PairRouting)
    assert res.value == 3
    assert {u for u, _ in res.matching} == {0, 1, 2}
    assert {v for _, v in res.matching} <= {3, 4, 5}
    assert res.congestion <= -(-4 * g.max_degree() // Fraction(1, 3))


def test_route_or_cut_1pair_rejects_bad_inputs():
    g = complete_graph(4)
    with pytest.raises(InvalidInput):
        route_or_cut_1pair(g, [0, 1, 2], [3], 0, Fraction(1, 4))
    with pytest.raises(InvalidInput):
        route_or_cut_1pair(g, [0], [0, 1], 0, Fraction(1, 4))


def test_early_exit_cut_detection():
    g = two_blocks_bridge(6)
    res = route_or_cut_1pair(
        g, list(range(6)), list(range(6, 12)), 2, Fraction(1, 4),
        early_check_interval=50,
    )
    assert not isinstance(res, PairRouting)
    assert res.sparsity <= Fraction(1, 4)


def test_pruning_style_relaxed_instance():
    # Oversized sources (trimming charge) still yield a sub-phi level cut.
    g = two_blocks_bridge(4)
    source = [0] * g.n
    source[0] = 9
    sink = tuple(g.degrees())
    inst = FlowInstance(g, tuple(source), sink, Fraction(1, 2),
                        check_degree_caps=False)
    pf, excess, cut = bounded_push_relabel(inst)
    pf.validate(inst)
    if excess > 0:
        assert cut is not None and cut.conductance < Fraction(1, 2)


# Exact push-relabel outputs, pinned: flow, level and mass of the returned
# preflow, its excess and the cut side.  Lowest-label-first FIFO discharge
# with relabel-to-minimum is deterministic, so any change to the scan order,
# the residuals or the work count that times the early checks shows here.
# A block stranded above a gap is lifted to the height cap as a whole.

def _two_copies_bridged(block):
    edges = list(block.edges)
    edges += [(block.n + u, block.n + v) for u, v in block.edges]
    edges.append((0, block.n))
    return MultiGraph(2 * block.n, edges)


def _assert_pinned(inst, pinned, **kw):
    pf, excess, cut = bounded_push_relabel(inst, **kw)
    assert pf.flow == pinned["flow"]
    assert pf.level == pinned["level"]
    assert pf.mass == pinned["mass"]
    assert excess == pinned["excess"]
    assert (None if cut is None else sorted(cut.side)) == pinned["side"]


def test_pinned_parallel_edges_and_self_loop():
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges = k4 + [(4 + i, 4 + j) for i, j in k4]
    edges += [(0, 4), (1, 2), (5, 6), (3, 3)]
    g = MultiGraph(8, edges)
    deg = g.degrees()
    source = [d if v < 4 else 0 for v, d in enumerate(deg)]
    source[3] -= 2  # vertex 3's self-loop counts twice in its degree
    sink = tuple(d if v >= 4 else 0 for v, d in enumerate(deg))
    inst = FlowInstance(g, tuple(source), sink, Fraction(1, 2))
    _assert_pinned(inst, dict(
        flow=[-4, 0, 0, -4, 0, 0, 4, 0, 0, 0, 0, 0, 8, 0, 0, 0],
        level=[50, 50, 50, 50, 1, 0, 0, 0],
        mass=[0, 4, 0, 3, 4, 4, 0, 0],
        excess=7,
        side=[0, 1, 2, 3],
    ))


def _degree_capped_bridge():
    from balcut.generators import random_regularish_graph

    g = _two_copies_bridged(random_regularish_graph(16, 3, 5))
    deg = g.degrees()
    source = tuple(d if v < 16 else 0 for v, d in enumerate(deg))
    sink = tuple(d if v >= 16 else 0 for v, d in enumerate(deg))
    return FlowInstance(g, source, sink, Fraction(1, 4))


def test_pinned_degree_capped_early_checks():
    # The level-cut check after 250 units of work stops the run early: 42
    # units of excess are left, against 33 at quiescence (next test).
    _assert_pinned(_degree_capped_bridge(), dict(
        flow=[0] * 13 + [3] + [0] * 5 + [3] + [0] * 8 + [3] + [0] * 19 + [7],
        level=[2, 4, 3, 2, 3, 3, 2, 3, 2, 3, 3, 3, 3, 2, 3, 3, 1] + [0] * 15,
        mass=[3, 3, 3, 0] + [3] * 9 + [0, 3, 3, 4] + [0] * 14 + [3],
        excess=42,
        side=list(range(16)),
    ), early_cut_volume=8, check_interval=250)


def test_pinned_degree_capped_quiescent():
    _assert_pinned(_degree_capped_bridge(), dict(
        flow=[3, 3, 0, 0, -3, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0,
              6, 0, 0, 0, 0, -3, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, -3, -6,
              0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16],
        level=[114] * 16 + [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        mass=[3, 3, 0, 0, 0, 3, 3, 3, 3, 3, 3, 3, 3, 0, 3, 0, 4, 0, 3, 3,
              0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3],
        excess=33,
        side=list(range(16)),
    ))


def test_pinned_without_degree_caps():
    from balcut.generators import random_regularish_graph

    g = _two_copies_bridged(random_regularish_graph(8, 4, 2))
    source = [0] * g.n
    source[0], source[3] = 20, 9  # above deg = 4: a trimming-style charge
    sink = tuple(d if v >= 8 else 0 for v, d in enumerate(g.degrees()))
    inst = FlowInstance(g, tuple(source), sink, Fraction(1, 3),
                        check_degree_caps=False)
    _assert_pinned(inst, dict(
        flow=[-5, 12, -12, -8, 0, 0, -4, 0, 0, 12, 0, 0, 0, 0, 0, -12, 0, 0,
              0, -7, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12],
        level=[86] * 8 + [1, 0, 0, 0, 0, 0, 0, 1],
        mass=[0, 12, 0, 0, 0, 5, 0, 0, 5, 0, 0, 3, 0, 0, 0, 4],
        excess=17,
        side=list(range(8)),
    ))


@pytest.mark.parametrize("flow, mass, message", [
    ([9, 0, 0], [1, 0, 0, 0], "edge congestion above cap"),
    ([1, 0, 0], [0, 0, 1, 0], "mass mismatch at vertex 1"),
    ([2, 1, 0], [-1, 1, 1, 0], "negative mass at vertex 0"),
    # the first offending vertex decides which check reports
    ([2, 0, 0], [-1, 3, 0, 0], "negative mass at vertex 0"),
    ([0, 2, 0], [0, -2, 2, 0], "mass mismatch at vertex 0"),
])
def test_validate_reports_the_first_violation(flow, mass, message):
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    inst = FlowInstance(g, (1, 0, 0, 0), (0, 0, 0, 1), Fraction(1, 2))  # cap 8
    pf = Preflow(flow, [0] * 4, mass, inst.source, inst.sink)
    with pytest.raises(InternalInvariantBroken, match=f"^{message}$"):
        pf.validate(inst)


def _bridged_blocks(size, degree, seed):
    from balcut.generators import random_regularish_graph

    return _two_copies_bridged(random_regularish_graph(size, degree, seed))


_MAX_FLOW_CASES = [
    # (graph, A, B, z, psi, early check interval)
    ("regular", 100, 4, 1, 20, 30, 0, Fraction(1, 4), None),
    ("regular", 500, 3, 4, 100, 100, 5, Fraction(1, 2), 2000),
    # the bridge carries at most 64 units: max flow 64 < |A|, and a cut
    ("bridged", 150, 3, 5, 150, 150, 10, Fraction(1, 4), 5000),
    ("bridged", 100, 3, 7, 70, 70, 10, Fraction(1, 4), None),
    ("bridged", 120, 4, 2, 40, 60, 0, Fraction(1, 8), None),
]


@pytest.mark.parametrize("case", _MAX_FLOW_CASES)
def test_route_or_cut_1pair_against_networkx_max_flow(case):
    """A routing never beats the max flow from A to B under the per-edge
    cap ceil(4 Delta / psi), and a returned cut recounts to its delta."""
    nx = pytest.importorskip("networkx")
    from balcut.generators import random_regularish_graph

    kind, size, degree, seed, na, nb, z, psi, interval = case
    if kind == "regular":
        g = random_regularish_graph(size, degree, seed)
        order = random.Random(seed).sample(range(g.n), na + nb)
        a_side, b_side = order[:na], order[na:]
    else:
        g = _bridged_blocks(size, degree, seed)
        a_side, b_side = list(range(na)), list(range(size, size + nb))
    res = route_or_cut_1pair(g, a_side, b_side, z, psi,
                             early_check_interval=interval)
    cap = math.ceil(4 * g.max_degree() / psi)
    net = nx.DiGraph()
    for u, v in g.edges:
        if u != v:
            for x, y in ((u, v), (v, u)):
                old = net.get_edge_data(x, y, {"capacity": 0})["capacity"]
                net.add_edge(x, y, capacity=old + cap)
    for a in a_side:
        net.add_edge("s", a, capacity=1)
    for b in b_side:
        net.add_edge(b, "t", capacity=1)
    max_flow = nx.maximum_flow_value(net, "s", "t")
    if isinstance(res, PairRouting):
        assert len(a_side) - z <= res.value <= max_flow
        assert res.congestion <= cap
    else:
        multi = nx.MultiGraph(list(g.edges))
        assert res.delta == nx.cut_size(multi, res.side)
        assert res.sparsity <= psi


def _level_cut_reference(g, level, phi, max_level, needed_volume=0, alive=None):
    """The per-edge loop ``_best_level_cut`` used before it counted through
    ``threshold_cut_counts``, reading only ``alive`` edges when given."""
    live = [(u, v) for eid, (u, v) in enumerate(g.edges) if alive is None or alive[eid]]
    total_vol = 2 * len(live)
    diff = [0] * (max_level + 2)
    vol_at = [0] * (max_level + 2)
    for u, v in live:
        lo, hi = sorted((min(level[u], max_level + 1), min(level[v], max_level + 1)))
        if lo < hi:
            diff[lo + 1] += 1
            if hi + 1 <= max_level + 1:
                diff[hi + 1] -= 1
        vol_at[lo] += 1
        vol_at[hi] += 1
    best, delta, suffix = None, 0, total_vol
    for i in range(1, max_level + 1):
        delta += diff[i]
        suffix -= vol_at[i - 1]
        if suffix <= 0 or suffix >= total_vol:
            continue
        minvol = min(suffix, total_vol - suffix)
        if minvol < needed_volume or delta * phi.denominator >= phi.numerator * minvol:
            continue
        if (best is None or delta * best[1] < best[0] * minvol
                or (delta * best[1] == best[0] * minvol and minvol > best[1])):
            best = (delta, minvol, i)
    if best is None:
        return None
    return frozenset(v for v in range(g.n) if level[v] >= best[2]), best[2]


def test_best_level_cut_matches_the_loop_reference():
    """Random multigraphs with parallel edges and self-loops, all edges
    live, under a random or an all-dead alive mask, and with no vertex
    left at level 0."""
    from balcut.localflow import _best_level_cut

    hits = Counter()
    for variant in ("all live", "alive mask", "all dead", "no level 0"):
        rng = random.Random(11)
        for trial in range(300):
            n = rng.randint(2, 14)
            edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 30))]
            edges += edges[: rng.randint(0, 3)]  # parallel copies
            g = MultiGraph(n, edges)
            max_level = rng.randint(0, 6)
            level = [rng.randint(0, max_level + 1) for _ in range(n)]
            phi = Fraction(rng.randint(1, 4), rng.randint(4, 9))
            needed = rng.choice([0, 0, 2, 5])
            alive = None
            if variant == "alive mask":
                alive = np.array([rng.random() < 0.7 for _ in range(g.m)])
            elif variant == "all dead":
                alive = np.zeros(g.m, dtype=bool)
            elif variant == "no level 0":
                level = [rng.randint(1, max_level + 1) for _ in range(n)]
            want = _level_cut_reference(g, level, phi, max_level, needed, alive)
            raised = [v for v in range(n) if level[v] > 0]
            random.Random(trial).shuffle(raised)  # as vertices left level 0
            assert _best_level_cut(g, level, raised, phi, max_level, needed, alive) == want
            hits[variant] += want is not None
    assert hits["all live"] > 50 and hits["alive mask"] > 40, hits
    assert hits["no level 0"] > 20 and hits["all dead"] == 0, hits


def test_best_level_cut_scores_only_occupied_levels(monkeypatch):
    """Levels near 10**6, as after a gap lifts a block to the height cap:
    same answer as the loop over every threshold, counted over ranks."""
    from balcut.localflow import _best_level_cut

    real = localflow._raised_level_counts
    tops = []

    def counting(g, raised, rank, top, alive):
        tops.append(top)
        return real(g, raised, rank, top, alive)

    monkeypatch.setattr(localflow, "_raised_level_counts", counting)
    rng = random.Random(7)
    hits = 0
    for trial in range(2):
        n = rng.randint(8, 14)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        g = MultiGraph(n, edges)
        max_level = 10**6 - trial
        pool = [0, 1, 2, 3, max_level - 1, max_level, max_level + 1, 2 * 10**6]
        level = [rng.choice(pool) for _ in range(n)]
        want = _level_cut_reference(g, level, Fraction(9, 10), max_level)
        raised = [v for v in range(n) if level[v] > 0]
        assert _best_level_cut(g, level, raised, Fraction(9, 10), max_level) == want
        hits += want is not None
    assert hits >= 2
    assert max(tops) < 8  # one threshold per occupied level, not per level


class _GapFreePushRelabel(localflow._PushRelabel):
    """``_PushRelabel`` before the gap heuristic: stranded excess climbs
    one relabel at a time to the height cap."""

    def _discharge(self, v):
        inc, nbr, eu = self.inc, self.nbr, self.eu
        flow, level, mass, sink = self.flow, self.level, self.mass, self.sink
        cap, h = self.cap, self.h
        sink_v = sink[v]
        start, end = self.indptr[v], self.indptr[v + 1]
        k = self.ptr[v]
        while mass[v] > sink_v:
            if k >= end:
                new = h
                for j in range(start, end):
                    w = nbr[j]
                    if w == v:
                        continue
                    eid = inc[j]
                    res = cap - flow[eid] if eu[eid] == v else cap + flow[eid]
                    if res > 0 and level[w] + 1 < new:
                        new = level[w] + 1
                self.work += end - start + 1
                self.ptr[v] = start
                if not level[v]:
                    self.raised.append(v)
                lv = min(max(new, level[v] + 1), h)
                level[v] = lv
                if lv > self.max_level:
                    self.max_level = lv
                if lv < h:
                    self._enqueue(v, lv)
                return
            self.work += 1
            w = nbr[k]
            if level[w] == level[v] - 1:
                eid = inc[k]
                forward = eu[eid] == v
                res = cap - flow[eid] if forward else cap + flow[eid]
                if res > 0:
                    amount = min(mass[v] - sink_v, res)
                    flow[eid] += amount if forward else -amount
                    mass[v] -= amount
                    mass[w] += amount
                    if mass[w] > sink[w] and level[w] < h and not self.queued[w]:
                        self._enqueue(w, level[w])
                    continue
            k += 1
        self.ptr[v] = k


def _posed(inst):
    solver = localflow._PushRelabel(inst.g, inst.alive)
    solver.pose(inst)
    return solver


def _two_blocks(size, degree, seed, bridges):
    from balcut.generators import random_regularish_graph

    block = random_regularish_graph(size, degree, seed)
    edges = list(block.edges)
    edges += [(size + u, size + v) for u, v in block.edges]
    rng = random.Random(seed)
    edges += [(rng.randrange(size), size + rng.randrange(size))
              for _ in range(bridges)]
    return MultiGraph(2 * size, edges)


def _stranding_instance(kind, seed):
    """Block A holds more mass than the bridges can carry to block B."""
    rng = random.Random(seed)
    size = rng.choice([10, 12, 16, 20])
    bridges = {"bridged": 1, "disconnected": 0, "trimming": 2}[kind]
    g = _two_blocks(size, rng.randint(3, 4), seed, bridges)
    deg = g.degrees()
    phi = Fraction(1, rng.choice([2, 3, 4]))
    if kind == "trimming":
        # sinks everywhere, charges piled on a few vertices of A
        source = [0] * g.n
        vol_a = sum(deg[:size])
        while sum(source) < vol_a + 2 * math.ceil(4 / phi) + 1:
            source[rng.randrange(size)] += rng.randint(1, 2 * max(deg))
        return FlowInstance(g, tuple(source), tuple(deg), phi,
                            check_degree_caps=False)
    source = tuple(d if v < size else 0 for v, d in enumerate(deg))
    sink = tuple(d if v >= size else rng.randint(0, d // 2)
                 for v, d in enumerate(deg))
    return FlowInstance(g, source, sink, phi)


@pytest.mark.parametrize("kind", ["bridged", "disconnected", "trimming"])
def test_gap_heuristic_matches_the_gap_free_solver(kind, monkeypatch):
    for seed in range(6):
        inst = _stranding_instance(kind, seed)
        solver = _posed(inst)
        solver.run()
        assert solver.gaps >= 1
        # the per-level counts still match the levels below the cap
        below_cap = [x for x in solver.level if x < inst.height_cap]
        assert max(below_cap) < len(solver.count)
        assert solver.count == [below_cap.count(lvl)
                                for lvl in range(len(solver.count))]
        pf, excess, cut = bounded_push_relabel(inst)
        assert excess > 0
        with monkeypatch.context() as m:
            m.setattr(localflow, "_PushRelabel", _GapFreePushRelabel)
            ref_pf, ref_excess, ref_cut = bounded_push_relabel(inst)
        assert excess == ref_excess
        assert cut.side == ref_cut.side
        # below the gap the preflow is untouched
        below = [v for v in range(inst.g.n) if pf.level[v] < inst.height_cap]
        assert [pf.level[v] for v in below] == [ref_pf.level[v] for v in below]


def test_work_does_not_grow_with_the_height_cap():
    # Two copies of a block and no bridge: all of A's mass is stranded.
    # Without the gap rule the work grows with h (9,541 units at h = 114
    # and 150,661 at h = 1,794 on this instance).
    g = _two_blocks(16, 3, 5, bridges=0)
    deg = g.degrees()
    source = tuple(d if v < 16 else 0 for v, d in enumerate(deg))
    sink = tuple(d if v >= 16 else 0 for v, d in enumerate(deg))
    seen = set()
    for q in (4, 16, 64):
        inst = FlowInstance(g, source, sink, Fraction(1, q))
        solver = _posed(inst)
        solver.run()
        assert solver.gaps == 1
        assert solver.level[:16] == [inst.height_cap] * 16
        seen.add(solver.work)
    assert seen == {189}


def _masked_instance(seed):
    """A random multigraph, a kept vertex set and a live edge mask, with
    sources and sinks on the kept vertices only."""
    rng = random.Random(seed)
    n = rng.randint(4, 16)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 4 * n))]
    edges = [(u, v) for u, v in edges if u != v]
    edges += edges[: rng.randint(0, 4)]  # parallel copies
    g = MultiGraph(n, edges)
    keep = np.array([rng.random() < 0.8 for _ in range(n)])
    alive = np.array([rng.random() < 0.8 for _ in range(g.m)]) & keep[g.eu] & keep[g.ev]
    deg = live_degrees(g, alive).tolist()
    phi = Fraction(1, rng.choice([1, 2, 3, 4]))
    capped = rng.random() < 0.5
    sink = [d if capped else rng.randint(0, d) for d in deg]
    source = [0] * n
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(n)
        if keep[v]:
            source[v] += rng.randint(0, deg[v] if capped else 3 * deg[v])
    while sum(source) > sum(sink):
        source[source.index(max(source))] -= 1
    if capped:
        source = [min(s, d) for s, d in zip(source, deg)]
    return g, keep, alive, tuple(source), tuple(sink), phi, capped


def test_masked_instance_matches_the_live_subgraph():
    cuts = 0
    for seed in range(300):
        g, keep, alive, source, sink, phi, capped = _masked_instance(seed)
        sub, verts = masked_subgraph(g, keep, alive)
        live = np.flatnonzero(alive)  # sub's edge j is host edge live[j]
        inst = FlowInstance(g, source, sink, phi, check_degree_caps=capped, alive=alive)
        sub_inst = FlowInstance(sub, tuple(source[v] for v in verts),
                                tuple(sink[v] for v in verts), phi,
                                check_degree_caps=capped)
        assert inst.height_cap == sub_inst.height_cap
        # early checks after every discharge, so both check at the same points
        early = {"early_cut_volume": 1, "check_interval": 1} if seed % 3 == 0 else {}
        pf, excess, cut = bounded_push_relabel(inst, **early)
        sub_pf, sub_excess, sub_cut = bounded_push_relabel(sub_inst, **early)
        assert excess == sub_excess
        level, flow = np.array(pf.level), np.array(pf.flow)
        assert level[verts].tolist() == sub_pf.level
        assert not level[~keep].any()
        assert flow[live].tolist() == sub_pf.flow
        assert not flow[~alive].any()
        assert (cut is None) == (sub_cut is None)
        if cut is not None:
            cuts += 1
            assert sorted(cut.side) == sorted(verts[list(sub_cut.side)].tolist())
            assert (cut.delta, cut.vol_s, cut.vol_comp, cut.conductance) == (
                sub_cut.delta, sub_cut.vol_s, sub_cut.vol_comp, sub_cut.conductance)
    assert cuts >= 20


def test_a_solver_posed_again_runs_like_a_fresh_one():
    # One solver serves a sequence of instances on the same live edges
    # and sinks.  Each run, stopped early or not, must come out as a fresh
    # solver's, whatever the runs before it left in the solver's lists.
    seen = Counter()
    for seed in range(60):
        g, keep, alive, _, sink, phi, capped = _masked_instance(seed)
        deg = live_degrees(g, alive).tolist()
        rng = random.Random(seed)
        solver = localflow._PushRelabel(g, alive)
        for _ in range(5):
            source = [0] * g.n
            for v in rng.sample(range(g.n), rng.randint(1, g.n)):
                source[v] = rng.randint(0, deg[v] if capped else 3 * deg[v])
            while sum(source) > sum(sink):
                source[source.index(max(source))] -= 1
            inst = FlowInstance(g, source, sink, phi, check_degree_caps=capped,
                                alive=alive)
            kw = {}
            if rng.random() < 0.5:
                kw = {"early_cut_volume": 1, "check_interval": rng.randint(1, 8)}
            pf, excess, cut = bounded_push_relabel(inst, **kw)
            got = bounded_push_relabel(inst, _solver=solver, **kw)
            assert (got[0].flow, got[0].level, got[0].mass) == (pf.flow, pf.level, pf.mass)
            assert got[1:] == (excess, cut)
            seen["early stops"] += bool(kw) and any(solver.buckets.values())
            seen["raised"] += bool(solver.raised)
    assert seen["early stops"] >= 10 and seen["raised"] >= 100, seen


class _TwoPassPushRelabel(localflow._PushRelabel):
    """``_PushRelabel`` with the two-pass discharge: the scan looks for an
    admissible slot only, and the relabel reads every slot of v again."""

    def _discharge(self, v):
        inc, nbr, eu = self.inc, self.nbr, self.eu
        flow, level, mass, sink = self.flow, self.level, self.mass, self.sink
        cap, h = self.cap, self.h
        sink_v = sink[v]
        start, end = self.indptr[v], self.indptr[v + 1]
        k = self.ptr[v]
        while mass[v] > sink_v:
            if k >= end:
                # relabel to one above the lowest residual neighbor
                new = h
                for j in range(start, end):
                    w = nbr[j]
                    if w == v:
                        continue
                    eid = inc[j]
                    res = cap - flow[eid] if eu[eid] == v else cap + flow[eid]
                    if res > 0 and level[w] + 1 < new:
                        new = level[w] + 1
                self.work += end - start + 1
                self.ptr[v] = start
                old = level[v]
                if not old:
                    self.raised.append(v)
                lv = min(max(new, old + 1), h)
                level[v] = lv
                count = self.count
                count[old] -= 1
                if not count[old]:
                    self._gap(old)  # lifts v as well
                    return
                if lv > self.max_level:
                    self.max_level = lv
                if lv < h:
                    if lv == len(count):
                        count.append(1)
                    else:
                        count[lv] += 1
                    self._enqueue(v, lv)
                return
            self.work += 1
            w = nbr[k]
            if level[w] == level[v] - 1:  # never on a self-loop
                eid = inc[k]
                forward = eu[eid] == v
                res = cap - flow[eid] if forward else cap + flow[eid]
                if res > 0:
                    amount = min(mass[v] - sink_v, res)
                    flow[eid] += amount if forward else -amount
                    mass[v] -= amount
                    mass[w] += amount
                    if mass[w] > sink[w] and level[w] < h and not self.queued[w]:
                        self._enqueue(w, level[w])
                    continue
            k += 1
        self.ptr[v] = k


def _residuals(solver, v):
    """The residual of each of v's slots, zero at self-loops and dead slots."""
    out = []
    for j in range(solver.indptr[v], solver.indptr[v + 1]):
        eid = solver.inc[j]
        if solver.nbr[j] == v:
            out.append(0)
        else:
            f = solver.flow[eid]
            out.append(solver.cap - f if solver.eu[eid] == v else solver.cap + f)
    return out


def _discharges(solver):
    """``run``'s loop without its checks, one discharge at a time.  Yields,
    per discharge, whether it relabelled v after a scan resumed past v's
    first slot, and whether it relabelled v after a push saturated one of
    v's slots."""
    heap, buckets = solver.level_heap, solver.buckets
    while heap:
        lvl = heap[0]
        bucket = buckets.get(lvl)
        if not bucket:
            heapq.heappop(heap)
            if bucket is not None:
                del buckets[lvl]
            continue
        v = bucket.popleft()
        solver.queued[v] = 0
        if solver.level[v] != lvl or solver.mass[v] <= solver.sink[v]:
            continue
        old, resumed = solver.level[v], solver.ptr[v] > solver.indptr[v]
        before = _residuals(solver, v)
        solver._discharge(v)
        relabelled = solver.level[v] != old
        saturated = any(a > 0 and b == 0 for a, b in zip(before, _residuals(solver, v)))
        yield relabelled and resumed, relabelled and saturated


def _solver_state(solver):
    return dict(
        flow=solver.flow, level=solver.level, mass=solver.mass, ptr=solver.ptr,
        work=solver.work, raised=solver.raised, count=solver.count,
        max_level=solver.max_level, gaps=solver.gaps, queued=bytes(solver.queued),
        buckets={lvl: list(b) for lvl, b in solver.buckets.items()},
        level_heap=solver.level_heap,
    )


def _multigraph_instance(seed):
    """A random multigraph with self-loops and parallel edges, sinks at or
    below the degrees, and sources piled on up to three vertices."""
    rng = random.Random(seed)
    n = rng.randint(3, 20)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(n, 3 * n))]
    edges += rng.choices(edges, k=rng.randint(0, 6))  # parallel copies
    g = MultiGraph(n, edges)
    deg = g.degrees()
    sink = [rng.randint(0, d) for d in deg]
    source = [0] * n
    piles = rng.sample(range(n), rng.randint(1, 3))
    while sum(source) < sum(sink):
        source[rng.choice(piles)] += rng.randint(1, 2 * max(deg))
    while sum(source) > sum(sink):
        source[source.index(max(source))] -= 1
    return FlowInstance(g, source, sink, Fraction(1, rng.choice([1, 2])),
                        check_degree_caps=False)


def test_one_pass_discharge_matches_the_two_pass_reference():
    # The solver scores the relabel minimum on the scan and rescans only
    # the slots a resumed discharge did not pass.  Run under ``run`` with a
    # check after every discharge, it must leave the reference's state
    # after each one, stepped one discharge at a time.
    from balcut.localflow import _best_level_cut

    seen = Counter()
    for seed in range(240):
        if seed % 3 == 0:
            inst = _multigraph_instance(seed)
        elif seed % 3 == 1:
            g, _, alive, source, sink, phi, capped = _masked_instance(seed)
            inst = FlowInstance(g, source, sink, phi, check_degree_caps=capped,
                                alive=alive)
        else:
            inst = _stranding_instance(("bridged", "disconnected", "trimming")[seed % 4 % 3],
                                       seed)
        early = seed % 4 == 0
        solver, ref = _posed(inst), _TwoPassPushRelabel(inst.g, inst.alive)
        ref.pose(inst)
        steps = _discharges(ref)

        def check(state):
            step = next(steps, None)
            assert step is not None
            assert _solver_state(state) == _solver_state(ref)
            seen["discharges"] += 1
            seen["resumed relabels"] += step[0]
            seen["relabels after a saturating push"] += step[1]
            if early:
                return _best_level_cut(inst.g, state.level, state.raised, inst.phi,
                                       state.max_level, needed_volume=1, alive=inst.alive)
            return None

        hit = solver.run(early_check=check, check_interval=1)
        seen["early stops"] += hit is not None
        if hit is None:
            assert next(steps, None) is None
        seen["gaps"] += solver.gaps
    assert seen["resumed relabels"] >= 50, seen
    assert seen["relabels after a saturating push"] >= 50, seen
    assert seen["early stops"] >= 10 and seen["gaps"] >= 10, seen


def _assert_on_the_footprint(inst, pf, cut):
    """Nonzero flow and the level cut stay on R = {v : level(v) > 0}."""
    g = inst.g
    raised = np.array(pf.level) > 0
    moving = np.flatnonzero(pf.flow)
    assert (raised[g.eu[moving]] | raised[g.ev[moving]]).all()
    if cut is not None:
        assert raised[sorted(cut.side)].all()


def test_flow_and_level_cuts_stay_on_the_footprint():
    early = {"early_cut_volume": 1, "check_interval": 1}
    seen = Counter()
    for seed in range(300):
        g, keep, alive, source, sink, phi, capped = _masked_instance(seed)
        inst = FlowInstance(g, source, sink, phi, check_degree_caps=capped, alive=alive)
        for kw in ({}, early):
            pf, excess, cut = bounded_push_relabel(inst, **kw)
            _assert_on_the_footprint(inst, pf, cut)
            seen["cuts"] += cut is not None
    for kind in ("bridged", "disconnected", "trimming"):
        for seed in range(6):
            inst = _stranding_instance(kind, seed)
            for kw in ({}, early):
                pf, excess, cut = bounded_push_relabel(inst, **kw)
                _assert_on_the_footprint(inst, pf, cut)
                # stopped early: some vertex still holds excess below the cap
                seen["early stops"] += any(
                    m > s and lvl < inst.height_cap
                    for m, s, lvl in zip(pf.mass, pf.sink, pf.level))
    inst = _degree_capped_bridge()
    pf, excess, cut = bounded_push_relabel(inst, early_cut_volume=8, check_interval=250)
    _assert_on_the_footprint(inst, pf, cut)
    assert seen["cuts"] >= 40 and seen["early stops"] >= 12, seen


def test_validate_rejects_flow_on_a_dead_edge():
    g = MultiGraph(3, [(0, 1), (1, 2), (0, 2)])
    alive = np.array([True, True, False])
    inst = FlowInstance(g, (1, 0, 0), (0, 0, 1), Fraction(1, 2), alive=alive)
    pf, excess, _ = bounded_push_relabel(inst)
    assert excess == 0 and pf.flow[2] == 0
    pf.flow = [0, 0, 1]  # the unit goes over the dead edge (0, 2) instead
    pf.validate(FlowInstance(g, inst.source, inst.sink, inst.phi))  # balanced
    with pytest.raises(InternalInvariantBroken, match="dead edge"):
        pf.validate(inst)


def test_validate_catches_violations_on_and_off_the_footprint(monkeypatch):
    from balcut.generators import random_regularish_graph

    full = Counter()
    real = Preflow._recount_all_edges

    def counting(self, inst):
        full["recounts"] += 1
        return real(self, inst)

    monkeypatch.setattr(Preflow, "_recount_all_edges", counting)
    # a trimming-style charge on one vertex of a sparse masked graph
    g = random_regularish_graph(60, 4, 1)
    rng = random.Random(1)
    alive = np.array([rng.random() < 0.9 for _ in range(g.m)])
    alive[g.inc[g.indptr[0]]] = False  # a dead edge at the charged vertex
    source = np.zeros(g.n, dtype=np.int64)
    source[0] = 20
    inst = FlowInstance(g, source, live_degrees(g, alive), Fraction(1, 2),
                        check_degree_caps=False, alive=alive)
    pf, excess, _ = bounded_push_relabel(inst)
    level, mass, cap = pf.level, pf.mass, inst.congestion_cap
    assert excess == 0 and sum(lvl > 0 for lvl in level) == 3
    assert full["recounts"] == 0  # the solver's flow lies on R's edges
    # edges with both ends at level 0: a dead one, and a live one with mass
    # at an end, from which a unit can move
    flat = [eid for eid, (u, v) in enumerate(g.edges) if level[u] == level[v] == 0]
    dead = next(eid for eid in flat if not alive[eid])
    live = next(eid for eid in flat if alive[eid] and any(mass[x] for x in g.edges[eid]))
    u, v = g.edges[live]
    way = 1 if mass[u] else -1  # positive flow runs from u to v

    def injected(eid, units, move_mass):
        bad = Preflow(list(pf.flow), level, list(mass), pf.source, pf.sink)
        bad.flow[eid] += units
        if move_mass:
            tail, head = g.edges[eid]
            bad.mass[tail] -= units
            bad.mass[head] += units
        return bad

    with pytest.raises(InternalInvariantBroken, match=f"^mass mismatch at vertex {min(u, v)}$"):
        injected(live, way, False).validate(inst)
    with pytest.raises(InternalInvariantBroken, match="^edge congestion above cap$"):
        injected(live, way * (cap + 1), True).validate(inst)
    with pytest.raises(InternalInvariantBroken, match="^flow on a dead edge$"):
        injected(dead, 1, True).validate(inst)
    # one unit moved along a live edge, masses updated: still a preflow
    injected(live, way, True).validate(inst)
    assert full["recounts"] == 4
    # On R's edges the proof holds, and the recount over them catches
    # the violation before the full recount reports it.
    raised = [x for x in range(g.n) if level[x] > 0]
    touching = [eid for eid, (x, y) in enumerate(g.edges)
                if pf.flow[eid] == 0 and {x, y} & set(raised)]
    dead_at_r = next(eid for eid in touching if not alive[eid])
    with pytest.raises(InternalInvariantBroken, match="^flow on a dead edge$"):
        injected(dead_at_r, 1, True).validate(inst)
    live_at_r = next(eid for eid in touching if alive[eid])
    tail = g.edges[live_at_r][0]
    with pytest.raises(InternalInvariantBroken, match=f"^negative mass at vertex {tail}$"):
        injected(live_at_r, mass[tail] + 1, True).validate(inst)
    # one more unit down a saturated edge: only the cap is broken
    saturated = next(eid for eid, f in enumerate(pf.flow) if abs(f) == cap)
    with pytest.raises(InternalInvariantBroken, match="^edge congestion above cap$"):
        injected(saturated, pf.flow[saturated] // cap, True).validate(inst)
    # a stale unit of mass where no flow or source is: only the count of
    # nonzero masses shows it, and the full recount reports it
    idle = next(x for x in range(g.n) if not source[x] and x not in raised
                and not any(pf.flow[eid] for eid in g.inc[g.indptr[x]:g.indptr[x + 1]]))
    stale = Preflow(pf.flow, level, list(mass), pf.source, pf.sink)
    stale.mass[idle] += 1
    with pytest.raises(InternalInvariantBroken, match=f"^mass mismatch at vertex {idle}$"):
        stale.validate(inst)
    assert full["recounts"] == 8


def test_alive_mask_must_be_a_boolean_array_over_the_edges():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    args = (g, (0, 0, 0), (0, 0, 0), Fraction(1, 2))
    for bad in (np.ones(3, dtype=bool), np.ones(1, dtype=bool),
                np.ones(2, dtype=np.int64), [True, True], np.ones((2, 1), dtype=bool)):
        with pytest.raises(InvalidInput, match="alive"):
            FlowInstance(*args, alive=bad)
    FlowInstance(*args, alive=np.array([True, False]))
    # degree caps read live degrees: vertex 0 keeps no edge
    with pytest.raises(InvalidInput, match="vertex 0: source/sink exceeds its degree"):
        FlowInstance(g, (1, 0, 0), (0, 0, 1), Fraction(1, 2), alive=np.array([False, True]))


def test_non_integral_sources_and_sinks_are_rejected():
    g = complete_graph(3)
    phi = Fraction(1, 2)
    bad = [
        ([0.5, 0, 0], [1.9, 1, 0]),  # casting would store source 0, sink 1
        ((0, 0, 0), (0, 1.0, 0)),
        ((0, "1", 0), (0, 1, 1)),
        (np.array([0.5, 0, 0]), np.zeros(3, dtype=np.int64)),
        ([0, 0, np.float64(1)], [0, 1, 1]),
    ]
    for source, sink in bad:
        with pytest.raises(InvalidInput, match="^source and sink values must be integers$"):
            FlowInstance(g, source, sink, phi)
    # Python ints and bools and numpy integers of any width or signedness
    for source, sink in [
        ([True, 0, 0], [0, 0, 1]),
        ((np.int8(1), 0, 0), (np.uint64(0), np.int32(0), 1)),
        (np.array([1, 0, 0], dtype=np.uint16), np.array([False, False, True])),
    ]:
        inst = FlowInstance(g, source, sink, phi)
        assert inst.source == (1, 0, 0) and inst.sink == (0, 0, 1)
        assert inst.source_array.dtype == np.int64 == inst.sink_array.dtype


def test_instance_keeps_its_own_read_only_arrays():
    g = MultiGraph(3, [(0, 1), (1, 2)])
    source = np.array([1, 0, 0], dtype=np.int64)
    sink = np.array([0, 0, 1], dtype=np.int64)
    alive = np.array([True, True])
    inst = FlowInstance(g, source, sink, Fraction(1, 2), alive=alive)
    # sources and sinks read as Python ints, as counters and JSON need
    assert inst.source == (1, 0, 0) and inst.sink == (0, 0, 1)
    assert type(sum(inst.source)) is int and type(inst.sink[2]) is int
    # the caller's later edits do not reach the instance or its preflows
    source[0], sink[2], alive[1] = 0, 0, False
    pf, excess, cut = bounded_push_relabel(inst)
    assert (pf.flow, excess, cut) == ([1, 1], 0, None)
    for kept in (inst.source_array, inst.sink_array, inst.alive, pf.source, pf.sink):
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 1
    assert inst.source_array.tolist() == [1, 0, 0] and inst.alive.tolist() == [True, True]


def test_expander_prune_trims_on_the_host_graph(monkeypatch):
    import balcut.graph as graph
    import balcut.pruning as pruning
    from balcut.generators import random_regularish_graph

    core = random_regularish_graph(30, 6, 1)
    pendant = [(30 + u, 30 + v) for u, v in complete_graph(4).edges]
    g = MultiGraph(34, list(core.edges) + pendant + [(0, 30), (1, 31)])
    calls = Counter()

    def forbidden(*args, **kwargs):
        raise AssertionError("a trimming round rebuilt the graph")

    real_slots = MultiGraph.slots.fget

    def counting_slots(self):
        calls["slots built"] += self._slots is None
        return real_slots(self)

    real_eu_list = MultiGraph.eu_list.fget

    def counting_eu_list(self):
        calls["eu list built"] += self._eu_list is None
        return real_eu_list(self)

    real_flow = pruning.bounded_push_relabel

    def counting_flow(inst, **kw):
        calls["rounds"] += 1
        return real_flow(inst, **kw)

    monkeypatch.setattr(graph, "masked_subgraph", forbidden)
    # pruning imports no masked_subgraph now; the patch still guards it
    monkeypatch.setattr(pruning, "masked_subgraph", forbidden, raising=False)
    monkeypatch.setattr(MultiGraph, "_from_arrays", forbidden)
    monkeypatch.setattr(MultiGraph, "slots", property(counting_slots))
    monkeypatch.setattr(MultiGraph, "eu_list", property(counting_eu_list))
    monkeypatch.setattr(pruning, "bounded_push_relabel", counting_flow)
    # deleting both attachments cuts off the pendant K4, which round 1 carves
    a, b = pruning.expander_prune(g, Fraction(1, 4), [g.m - 2, g.m - 1])
    assert b == {30, 31, 32, 33}
    assert calls == {"rounds": 2, "slots built": 1, "eu list built": 1}


def _one_pass_corpus():
    """The 240 instances of the one-pass discharge test, each with the
    keywords it runs under: every fourth with an early level-cut check
    after every unit of work."""
    for seed in range(240):
        if seed % 3 == 0:
            inst = _multigraph_instance(seed)
        elif seed % 3 == 1:
            g, _, alive, source, sink, phi, capped = _masked_instance(seed)
            inst = FlowInstance(g, source, sink, phi, check_degree_caps=capped,
                                alive=alive)
        else:
            inst = _stranding_instance(("bridged", "disconnected", "trimming")[seed % 4 % 3],
                                       seed)
        yield inst, ({"early_cut_volume": 1, "check_interval": 1} if seed % 4 == 0 else {})


def _assert_labels_valid(inst, pf):
    """No live residual edge drops more than one level."""
    g, cap = inst.g, inst.congestion_cap
    level, flow = np.array(pf.level), np.array(pf.flow)
    live = g.eu != g.ev
    if inst.alive is not None:
        live &= inst.alive
    for tail, head, res in ((g.eu, g.ev, cap - flow), (g.ev, g.eu, cap + flow)):
        assert not (live & (res > 0) & (level[tail] > level[head] + 1)).any()


def _assert_flow_guarantees(inst, kw, pf, excess, cut):
    pf.validate(inst)
    _assert_labels_valid(inst, pf)
    if cut is not None:
        recount = cut_stats(inst.g, cut.side, inst.alive)
        assert recount.conductance < inst.phi
        need = kw.get("early_cut_volume") or (excess if inst.check_degree_caps else 0)
        assert min(recount.vol_s, recount.vol_comp) >= need
    elif inst.check_degree_caps:
        assert excess == 0
    if not kw:  # quiescent: all excess sits at the height cap
        assert all(m <= s or lvl == inst.height_cap
                   for m, s, lvl in zip(pf.mass, pf.sink, pf.level))
    assert len(decompose_preflow(inst.g, pf, inst)) == sum(inst.source) - excess


@pytest.fixture
def pulse_counts(monkeypatch):
    """Counts pulses and handoffs (with and without queued vertices)."""
    seen = Counter()
    pulse, load = localflow._Pulses.pulse, localflow._PushRelabel.load

    def counting_pulse(self, active):
        seen["pulses"] += 1
        return pulse(self, active)

    def counting_load(self, pulses, active):
        seen["handoffs"] += 1
        seen["handoffs with work left"] += bool(active.size)
        return load(self, pulses, active)

    monkeypatch.setattr(localflow._Pulses, "pulse", counting_pulse)
    monkeypatch.setattr(localflow._PushRelabel, "load", counting_load)
    return seen


@pytest.mark.parametrize("width", [1, 4])
def test_pulses_keep_the_flow_guarantees(width, monkeypatch, pulse_counts):
    # Pulses until fewer than ``width`` vertices hold excess, then slot by
    # slot: the preflow stays valid with valid labels, every cut recounts
    # below phi with the volume it must have, and no routed unit is lost.
    monkeypatch.setattr(localflow, "PULSE_WIDTH", width)
    seen = Counter()
    for inst, kw in _one_pass_corpus():
        pf, excess, cut = bounded_push_relabel(inst, **kw)
        _assert_flow_guarantees(inst, kw, pf, excess, cut)
        seen["cuts"] += cut is not None
        seen["early stops"] += bool(kw) and cut is not None
    test_random_instances_contract()
    for case in _MAX_FLOW_CASES:
        test_route_or_cut_1pair_against_networkx_max_flow(case)
    assert seen["cuts"] >= 100 and seen["early stops"] >= 30, seen
    assert pulse_counts["pulses"] >= 500, pulse_counts
    if width > 1:
        assert pulse_counts["handoffs with work left"] >= 40, pulse_counts


def test_the_handoff_state_matches_a_rebuild(monkeypatch):
    # Right after the handoff the slot-by-slot solver's bookkeeping must be
    # what the levels and masses imply: the per-level counts, the buckets
    # in level-then-id order, R and the top level; every pointer at its
    # first slot, and the pulses' work carried over.
    real = localflow._PushRelabel.run
    checked = Counter()

    def checking_run(self, early_check=None, check_interval=None, next_check=None):
        if self.pulses:
            level, mass, sink, h = self.level, self.mass, self.sink, self.h
            below = [lvl for lvl in level if lvl < h]
            assert self.count == [below.count(lvl) for lvl in range(max(below) + 1)]
            buckets = {}
            for v in range(len(level)):
                if mass[v] > sink[v] and level[v] < h:
                    buckets.setdefault(level[v], []).append(v)
            assert {lvl: list(b) for lvl, b in self.buckets.items()} == buckets
            assert self.level_heap == sorted(buckets)
            assert list(self.queued) == [
                int(any(v in b for b in buckets.values())) for v in range(len(level))]
            assert self.raised == [v for v, lvl in enumerate(level) if lvl > 0]
            assert self.max_level == max(level)
            assert self.ptr == self.indptr[:-1]
            assert self.work == self.pulse_work > 0
            checked["handoffs"] += 1
            checked["handoffs with work left"] += bool(buckets)
            checked["gaps"] += self.gaps
        return real(self, early_check, check_interval, next_check)

    monkeypatch.setattr(localflow._PushRelabel, "run", checking_run)
    for width in (2, 4, 8):
        monkeypatch.setattr(localflow, "PULSE_WIDTH", width)
        for inst, kw in _one_pass_corpus():
            bounded_push_relabel(inst, **kw)
    assert checked["handoffs with work left"] >= 80 and checked["gaps"] >= 50, checked


def test_pulses_find_the_slot_by_slot_cut_on_a_planted_decomposition(monkeypatch,
                                                                     pulse_counts):
    # The first matcher instance of decomposing four planted 1,000-vertex
    # expanders (the decompose_planted benchmark at seed 1): 16,003 sources
    # on the 32,006-vertex reduced graph.  It ends after two pulses, where
    # the early check returns the cut the slot-by-slot run returns.
    from balcut.driver import expander_decomposition
    from balcut.generators import planted_expander_union

    g, _ = planted_expander_union([1000] * 4, 8, [(0, 1), (1, 2), (2, 3)], 1)
    captured = []

    def capture(inst, **kw):
        captured.append((inst, kw))
        raise InvalidInput("captured")

    with monkeypatch.context() as m, pytest.raises(InvalidInput, match="captured"):
        m.setattr(localflow, "bounded_push_relabel", capture)
        expander_decomposition(g, Fraction(1, 2), 2)
    inst, kw = captured[0]
    assert len(inst._sources) == 16_003 >= localflow.PULSE_WIDTH
    pf, excess, cut = bounded_push_relabel(inst, **kw)
    assert pulse_counts == {"pulses": 2}
    _assert_flow_guarantees(inst, kw, pf, excess, cut)
    monkeypatch.setattr(localflow, "PULSE_WIDTH", inst.g.n + 1)
    ref_pf, ref_excess, ref_cut = bounded_push_relabel(inst, **kw)
    assert pulse_counts == {"pulses": 2}
    assert (excess, cut) == (ref_excess, ref_cut)
    assert len(cut.side) == 16_003


def test_pulses_of_separate_walks_do_the_discharges_work(monkeypatch):
    # While one vertex of a component holds excess, its pulses are the
    # discharges of that vertex from its first slot.  A unit walking down
    # a path or a cycle never returns to a vertex; a star's centre is the
    # only vertex of its star that holds excess, and it either spreads its
    # excess over its slots, saturating all but the last one it uses, or
    # saturates them all and climbs to the cap.  So on each such instance,
    # and on the disjoint union of those that leave no gap (one pulse then
    # discharges several vertices), both runs must agree on the flows,
    # levels, masses, gaps and the work that paces the early checks.
    from balcut.generators import cycle_graph, star_graph

    states = []
    real = localflow._run

    def capture(*args):
        state, hit = real(*args)
        states.append(state)
        return state, hit

    monkeypatch.setattr(localflow, "_run", capture)
    parts = []  # (graph, source, sink), leaving no gap
    for n in range(2, 9):
        parts.append((MultiGraph(n, [(i, i + 1) for i in range(n - 1)]),
                      [1] + [0] * (n - 1), [0] * (n - 1) + [1]))
    for n in range(3, 9):
        parts.append((cycle_graph(n), [1] + [0] * (n - 1),
                      [0] * (n // 2) + [1] + [0] * (n - n // 2 - 1)))
    for leaves in range(1, 6):
        parts.append((star_graph(leaves), [4 * leaves - 2] + [0] * leaves,
                      [0] + [7] * leaves))
    offset, edges, source, sink = 0, [], [], []
    for g, src, snk in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        source, sink, offset = source + src, sink + snk, offset + g.n
    phi = Fraction(1)  # a congestion cap of 4
    cases = [FlowInstance(g, src, snk, phi, check_degree_caps=False)
             for g, src, snk in parts]
    cases.append(FlowInstance(MultiGraph(offset, edges), source, sink, phi,
                              check_degree_caps=False))
    for leaves in range(1, 6):
        cases.append(FlowInstance(star_graph(leaves), [4 * leaves + 3] + [0] * leaves,
                                  [0] + [7] * leaves, phi, check_degree_caps=False))
    for inst in cases:
        runs = []
        for width in (1, inst.g.n + 1):
            monkeypatch.setattr(localflow, "PULSE_WIDTH", width)
            pf, excess, cut = bounded_push_relabel(inst)
            state = states[-1]
            runs.append((pf.flow, pf.level, pf.mass, excess, state.work, state.gaps))
        assert runs[0] == runs[1]
        assert states[-2].pulses > 0 == states[-1].pulses
    assert states[-1].gaps == 1  # the last star climbs to the cap


def _reference_pulse(p, active):
    """The pulse as it ran before it kept a slot view: every array gathered
    afresh from ``active``, and the relabel score gathered again over the
    slots of the vertices that keep excess."""
    g, flow, level, mass = p.g, p.flow, p.level, p.mass
    cap, h = p.cap, p.h
    slot, owner = incident_slots(g, active)
    deg = g.deg[active]
    first = np.cumsum(deg) - deg
    who = np.repeat(np.arange(len(active)), deg)
    eid = g.inc[slot]
    w = g.nbr[slot]
    if p.alive is not None:
        w = np.where(p.alive[eid], w, owner)
    forward = g.eu[eid] == owner
    lw = level[w]
    old = level[active]
    f = flow[eid]
    res = np.where(forward, cap - f, cap + f)
    adm = np.flatnonzero((lw == old[who] - 1) & (res > 0))
    excess = mass[active] - p.sink[active]
    sent = np.zeros(len(active), dtype=np.int64)
    pushes = np.zeros(len(active), dtype=np.int64)
    last = np.zeros(len(active), dtype=np.int64)
    if adm.size:
        r, by = res[adm], who[adm]
        before = np.cumsum(r) - r
        head = np.flatnonzero(np.diff(by, prepend=-1))
        before -= np.repeat(before[head], np.diff(head, append=len(by)))
        amount = np.clip(excess[by] - before, 0, r)
        moved = np.flatnonzero(amount)
        adm, by, amount = adm[moved], by[moved], amount[moved]
        flow[eid[adm]] += np.where(forward[adm], amount, -amount)
        np.add.at(mass, w[adm], amount)
        np.add.at(sent, by, amount)
        mass[active] -= sent
        pushes = np.bincount(by, minlength=len(active))
        tail = np.flatnonzero(np.diff(by, append=-1))
        last[by[tail]] = adm[tail] - first[by[tail]]
    done = sent == excess
    p.work += int(np.where(done, last + pushes, 2 * deg + 1 + pushes).sum())
    p.pulses += 1
    keep = np.flatnonzero(~done)
    if not keep.size:
        return
    own = np.flatnonzero(~done[who])
    e = eid[own]
    f = flow[e]
    score = np.where(
        (np.where(forward[own], cap - f, cap + f) > 0) & (w[own] != owner[own]),
        np.minimum(lw[own], h - 1), h - 1)
    d = deg[keep]
    low = np.full(len(keep), h - 1, dtype=np.int64)
    if score.size:
        some = d > 0
        low[some] = np.minimum.reduceat(score, (np.cumsum(d) - d)[some])
    was = old[keep]
    new = np.maximum(low, was) + 1
    level[active[keep]] = new
    below = new[new < h]
    size = max(len(p.count), int(below.max()) + 1 if below.size else 0)
    count = np.zeros(size, dtype=np.int64)
    count[:len(p.count)] = p.count
    count += np.bincount(below, minlength=size)
    count -= np.bincount(was, minlength=size)
    emptied = was[count[was] == 0]
    if emptied.size:
        gap = int(emptied.min())
        level[(level > gap) & (level < h)] = h
        count = count[:gap]
        p.max_level = h
        p.gaps += 1
    else:
        p.max_level = max(p.max_level, int(new.max()))
    p.count = count


_PULSE_ARRAYS = ("flow", "level", "mass", "count")
_PULSE_COUNTERS = ("max_level", "work", "gaps", "pulses")


@pytest.fixture
def checked_pulses(monkeypatch):
    """Runs ``_reference_pulse`` on a copy of the state beside every pulse
    and asserts the same state after both; records each pulse's active set
    and counts what the pulses met."""
    seen, actives = Counter(), []
    real = localflow._Pulses.pulse

    def checked(self, active):
        ref = SimpleNamespace(
            g=self.g, alive=self.alive, cap=self.cap, h=self.h, sink=self.sink,
            **{k: getattr(self, k).copy() for k in _PULSE_ARRAYS},
            **{k: getattr(self, k) for k in _PULSE_COUNTERS})
        who, flow, gaps = getattr(self, "who", None), self.flow.copy(), self.gaps
        real(self, active)
        _reference_pulse(ref, active)
        for k in _PULSE_ARRAYS:
            assert np.array_equal(getattr(self, k), getattr(ref, k)), k
        assert [getattr(self, k) for k in _PULSE_COUNTERS] == [
            getattr(ref, k) for k in _PULSE_COUNTERS]
        reused = self.who is who
        actives.append((active.tolist(), reused))
        g, eid = self.g, self.eid
        seen["pulses"] += 1
        seen["reused views" if reused else "rebuilt views"] += 1
        seen["alive masks"] += self.alive is not None
        seen["self-loops"] += bool((g.eu[eid] == g.ev[eid]).any())
        seen["pushes"] += not np.array_equal(self.flow, flow)
        seen["gaps"] += self.gaps > gaps

    monkeypatch.setattr(localflow._Pulses, "pulse", checked)
    return seen, actives


def test_pulses_match_the_reference_pulse(monkeypatch, checked_pulses):
    # Every pulse of the one-pass corpus, at widths 1 and 4, leaves the
    # state the reference pulse leaves: flows, levels, masses, per-level
    # counts and counters.  The pulses reuse views and rebuild them, run
    # under live-edge masks and over self-loops, and push and open gaps.
    seen, _ = checked_pulses
    for width in (1, 4):
        monkeypatch.setattr(localflow, "PULSE_WIDTH", width)
        for inst, kw in _one_pass_corpus():
            bounded_push_relabel(inst, **kw)
    assert all(seen[k] >= 20 for k in ("reused views", "rebuilt views", "alive masks",
                                        "self-loops", "pushes", "gaps")), seen


def test_a_pulse_rebuilds_the_view_for_new_members(monkeypatch, checked_pulses):
    # A unit walks down the path 0-1-2-3: vertex 0 relabels, then pushes to
    # 1, which is then the only active vertex.  The active set keeps its
    # length but changes its member, so the view must be rebuilt.
    monkeypatch.setattr(localflow, "PULSE_WIDTH", 1)
    _, actives = checked_pulses
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    inst = FlowInstance(g, [1, 0, 0, 0], [0, 0, 0, 1], Fraction(1),
                        check_degree_caps=False)
    pf, excess, cut = bounded_push_relabel(inst)
    assert excess == 0 and pf.mass == [0, 0, 0, 1]
    assert actives[:4] == [([0], False), ([0], True), ([1], False), ([1], True)]


def test_a_relabel_reads_the_residual_a_neighbour_pushed_back(monkeypatch,
                                                              checked_pulses):
    # On the path x-w-u, w pushes its 4 units to u and saturates their edge;
    # then x saturates x-w and climbs to the cap, and u relabels to 2.  In
    # the fourth pulse u pushes the units back to w, which cannot pass them
    # on and relabels in the same pulse: the edge to u is residual again
    # only after that push, so w must climb to 3, not to the cap.  The
    # residual must be patched at both ends' slots of a pushed edge.  The
    # edge y-z keeps level 1 occupied, so no gap in that pulse hides the
    # difference.
    monkeypatch.setattr(localflow, "PULSE_WIDTH", 1)
    _, actives = checked_pulses
    g = MultiGraph(6, [(0, 1), (1, 2), (3, 4)])
    inst = FlowInstance(g, [8, 4, 0, 1, 0, 0], [0, 0, 0, 0, 1, 12], Fraction(1),
                        check_degree_caps=False)
    pf, excess, cut = bounded_push_relabel(inst)
    assert [a for a, _ in actives[:4]] == [[0, 1, 3], [0, 1, 3], [0, 2], [1, 2]]
    assert pf.level[:4] == [inst.height_cap] * 3 + [1]
