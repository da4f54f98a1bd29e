import random
from fractions import Fraction

import numpy as np
import pytest

from balcut.driver import (
    ApproxCutResult,
    _best_prefix_cut,
    _best_singleton_cut,
    BalCutPruneResult,
    NoBalancedSparseCutCertificate,
    WitnessResult,
    bal_cut_prune,
    expander_decomposition,
    iterations_final_cut,
    lowest_conductance_cut,
    sparse_cut_or_expander,
    sparsest_cut,
)
from balcut.expanders import construct_expander
from balcut.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    two_triangles_bridge,
)
from balcut.graph import (
    Cut,
    MultiGraph,
    brute_force_extremum,
    cut_edge_count,
    cut_stats,
    induced_subgraph,
)
from oracles import graph_conductance, graph_sparsity, pruned_subgraph


def check_bcp(g, phi, res: BalCutPruneResult):
    vol = g.volume()
    assert res.a_side | res.b_side == frozenset(range(g.n))
    assert not (res.a_side & res.b_side)
    recount = cut_edge_count(g, res.a_side) if res.b_side else 0
    assert recount == res.cut_edges
    if res.cut_edges:
        assert res.cut_edges <= res.alpha * phi * vol
    if res.branch == "balanced":
        assert 3 * g.volume(res.a_side) >= vol
        assert 3 * g.volume(res.b_side) >= vol
    else:
        sub, _ = induced_subgraph(g, res.a_side)
        if 2 <= sub.n <= 16:
            assert graph_conductance(sub) >= phi
        assert res.certified_phi is not None and res.certified_phi > 0


def test_witness_branch_on_expander():
    g = construct_expander(64)
    res = iterations_final_cut(g, Fraction(1, 8), g.n, 1)
    assert isinstance(res, WitnessResult)
    # a generous z means the matcher never needs to cut
    assert res.psi_witness > 0
    assert res.congestion >= 1
    h = res.witness.h_graph()
    assert h.n >= g.n


def test_cut_branch_on_bounded_degree_barbell():
    from balcut.generators import random_regularish_graph

    block = random_regularish_graph(60, 3, seed=4)
    edges = list(block.edges) + [(60 + u, 60 + v) for u, v in block.edges]
    edges.append((0, 60))
    g = MultiGraph(120, edges)
    res = iterations_final_cut(g, Fraction(1, 5), 4, 1)
    if isinstance(res, Cut):
        assert res.sparsity <= Fraction(1, 5)
    else:
        assert res.psi_witness > 0  # contract allows either branch


def test_bal_cut_prune_expander_fast_path():
    g = construct_expander(12)
    res = bal_cut_prune(g, Fraction(1, 100), 1)
    assert res.branch == "pruned"
    assert not res.b_side
    assert res.certified_phi >= Fraction(1, 100)
    check_bcp(g, Fraction(1, 100), res)


def test_bal_cut_prune_barbell_balanced():
    g = barbell_graph(6, 1)
    res = bal_cut_prune(g, Fraction(1, 4), 1)
    assert res.branch == "balanced"
    assert res.cut_edges == 1
    check_bcp(g, Fraction(1, 4), res)


def test_bal_cut_prune_single_edge():
    g = MultiGraph(2, [(0, 1)])
    res = bal_cut_prune(g, Fraction(1, 2), 1)
    check_bcp(g, Fraction(1, 2), res)


def test_bal_cut_prune_corpus():
    rng = random.Random(11)
    for seed in range(40):
        n = rng.randint(4, 12)
        g = random_connected_graph(n, 0.35, 1000 + seed)
        phi = Fraction(1, rng.choice([3, 5, 10, 20]))
        res = bal_cut_prune(g, phi, 1)
        check_bcp(g, phi, res)


def test_bal_cut_prune_named_families():
    cases = [
        (cycle_graph(8), Fraction(1, 10)),
        (complete_graph(9), Fraction(1, 4)),
        (two_triangles_bridge(), Fraction(1, 8)),
        (barbell_graph(4, 3), Fraction(1, 6)),
        (MultiGraph(7, [(0, i) for i in range(1, 7)]), Fraction(1, 5)),  # star
    ]
    for g, phi in cases:
        res = bal_cut_prune(g, phi, 1)
        check_bcp(g, phi, res)


def test_bal_cut_prune_rejects_bad_params():
    g = complete_graph(4)
    from balcut.errors import InvalidInput, InvalidParam

    with pytest.raises(InvalidParam):
        bal_cut_prune(g, Fraction(3, 2), 1)
    with pytest.raises(InvalidInput):
        bal_cut_prune(MultiGraph(3, []), Fraction(1, 2), 1)


def test_bal_cut_prune_disconnected():
    g = MultiGraph(8, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (6, 7)])
    res = bal_cut_prune(g, Fraction(1, 4), 1)
    assert res.branch == "balanced"
    assert res.cut_edges == 0
    check_bcp(g, Fraction(1, 4), res)


def test_decomposition_single_expander():
    g = construct_expander(24)
    dec = expander_decomposition(g, Fraction(1, 2), 1)
    assert len(dec.clusters) == 1
    assert dec.inter_cluster_edges == 0
    assert all(c > 0 for c in dec.certificates)


def test_decomposition_keeps_an_isolated_vertex_as_a_singleton():
    # The isolated vertex is a component of its own, which the worklist
    # emits as a singleton cluster with certificate 1.
    g = MultiGraph(21, construct_expander(20).edges)
    dec = expander_decomposition(g, Fraction(1, 2), 1)
    assert dec.clusters == [list(range(20)), [20]]
    assert dec.certificates == [Fraction(224371307, 2**30), Fraction(1)]
    assert dec.inter_cluster_edges == 0


def test_decomposition_path_graph():
    from balcut.generators import path_graph

    g = path_graph(60)
    eps = Fraction(1, 3)
    dec = expander_decomposition(g, eps, 1)
    assert dec.inter_cluster_edges <= eps * g.volume()
    assert sorted(v for c in dec.clusters for v in c) == list(range(60))
    assert all(c > 0 for c in dec.certificates)


def test_decomposition_volume_identity():
    g = barbell_graph(8, 4)
    eps = Fraction(1, 3)
    dec = expander_decomposition(g, eps, 1)
    label = {}
    for ci, cluster in enumerate(dec.clusters):
        for v in cluster:
            label[v] = ci
    inter = sum(1 for u, v in g.edges if label[u] != label[v])
    assert inter == dec.inter_cluster_edges
    cluster_vols = sum(
        g.volume(c) - sum(
            1 for u, v in g.edges for w in (u, v)
            if label[u] != label[v] and w in set(c)
        )
        for c in dec.clusters
    )
    assert cluster_vols + 2 * inter == g.volume()


def test_sparse_cut_or_expander_branches():
    barbell = barbell_graph(6, 1)
    res = sparse_cut_or_expander(barbell, Fraction(1, 4), 2, 1)
    if isinstance(res, Cut):
        assert res.sparsity <= Fraction(1, 4)
        assert min(res.size, barbell.n - res.size) >= 2
    else:
        assert res.floor > 0

    g = construct_expander(14)
    res = sparse_cut_or_expander(g, Fraction(1, 50), 1, 1)
    if isinstance(res, NoBalancedSparseCutCertificate):
        # certified floor must hold against brute force on n <= 14
        psi_true = graph_sparsity(g)
        if res.min_side <= 1:
            assert psi_true >= res.floor

    res = sparse_cut_or_expander(complete_graph(8), Fraction(1, 2), 5, 1)
    assert isinstance(res, NoBalancedSparseCutCertificate)  # z > n/2


def test_sparsest_cut_exact_families():
    res = sparsest_cut(cycle_graph(8), 1)
    assert res.value == Fraction(1, 2)
    assert res.floor > 0 and res.factor >= 1

    res = sparsest_cut(complete_graph(6), 1)
    assert res.value == graph_sparsity(complete_graph(6))

    # two vertices: no sweep ordering to scan
    assert sparsest_cut(MultiGraph(2, [(0, 1)]), 1).value == 1


def test_sparsest_cut_factor_validity_on_corpus():
    worst = 0.0
    for seed in range(30):
        g = random_connected_graph(random.Random(seed).randint(4, 10), 0.4, seed)
        res = sparsest_cut(g, 1)
        optimum = graph_sparsity(g)
        assert res.floor <= optimum  # the certified floor is genuine
        assert res.value >= optimum
        if res.floor > 0:
            assert float(res.value) <= res.factor * float(optimum) + 1e-9
            worst = max(worst, res.factor)
    assert worst < 1e6


def test_lowest_conductance_families():
    res = lowest_conductance_cut(two_triangles_bridge(), 1)
    assert res.value == Fraction(1, 7)
    res = lowest_conductance_cut(complete_graph(4), 1)
    assert res.value == Fraction(2, 3)
    assert lowest_conductance_cut(MultiGraph(2, [(0, 1)]), 1).value == 1


def test_lowest_conductance_factor_validity():
    for seed in range(20):
        g = random_connected_graph(random.Random(200 + seed).randint(4, 10), 0.45, 200 + seed)
        res = lowest_conductance_cut(g, 1)
        optimum = graph_conductance(g)
        assert res.floor <= optimum
        assert res.value >= optimum
        if res.floor > 0:
            assert float(res.value) <= res.factor * float(optimum) + 1e-9


def test_determinism_of_drivers():
    g = barbell_graph(5, 2)
    r1 = bal_cut_prune(g, Fraction(1, 4), 1)
    r2 = bal_cut_prune(g, Fraction(1, 4), 1)
    assert r1.a_side == r2.a_side and r1.report == r2.report
    d1 = expander_decomposition(g, Fraction(1, 2), 1)
    d2 = expander_decomposition(g, Fraction(1, 2), 1)
    assert d1.clusters == d2.clusters


def _scan_reference(g, sides, objective):
    """The per-cut loop the O(m) scans replaced: cut_stats on every side,
    strict < on exact keys, so ties go to the first minimum."""
    best = None
    for side in sides:
        cut = cut_stats(g, side)
        key = cut.conductance if objective == "conductance" else cut.sparsity
        if best is None or key < best[0]:
            best = (key, cut)
    return best[1]


def test_prefix_and_singleton_scans_match_the_cut_stats_loop():
    rng = random.Random(7)
    for trial in range(120):
        n = rng.randint(2, 14)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 30))]
        edges += edges[: rng.randint(0, 3)]  # parallel copies
        g = MultiGraph(n, edges)
        order = np.array(rng.sample(range(n), n))
        for objective in ("conductance", "sparsity"):
            prefixes = [order[:k].tolist() for k in range(1, n)]
            assert _best_prefix_cut(g, order, objective) == _scan_reference(
                g, prefixes, objective
            )
            assert _best_singleton_cut(g, objective) == _scan_reference(
                g, [[v] for v in range(n)], objective
            )


def test_solvers_leave_the_edge_tuple_view_unbuilt():
    # Push-relabel, its preflow recount, the path decomposition, pruning,
    # the sparsest-cut game and the multi-pair router read the arrays and
    # the slot lists only; the lazy ``edges`` tuple view of the caller's
    # graph stays unbuilt.
    from balcut.generators import planted_expander_union
    from balcut.localflow import PairRouting, route_or_cut_1pair
    from balcut.pruning import expander_prune
    from balcut.routing import PairFamily, PartialRouting, route_or_cut

    planted, _ = planted_expander_union([20, 20], 6, [(0, 1)], 3)
    edges = list(planted.edges)

    g = MultiGraph(40, edges)
    res = route_or_cut_1pair(g, range(20), range(20, 40), 2, Fraction(1, 4))
    assert isinstance(res, PairRouting) and res.value >= 18
    assert g._edges is None

    g = MultiGraph(40, edges)
    a_side, b_side = expander_prune(g, Fraction(1, 4), [0, 1, 2])
    assert len(a_side) + len(b_side) == 40
    assert g._edges is None

    g = MultiGraph(40, edges)
    assert sparsest_cut(g, 1).value == Fraction(1, 20)
    assert g._edges is None

    g = MultiGraph(40, edges)
    fam = PairFamily.of([(range(0, 4), range(4, 9)), (range(20, 22), range(30, 33))])
    res = route_or_cut(g, fam, 0, 4)
    assert isinstance(res, PartialRouting) and res.value == 6
    assert g._edges is None


@pytest.mark.parametrize("phi", [Fraction(1, 16), Fraction(1, 4)])
def test_bal_cut_prune_processes_the_giant_component(phi):
    # An expander plus one separate edge: no zero-edge assembly balances
    # the volume, so the giant component is processed on its own and the
    # separate edge joins side B.
    ex = construct_expander(40)
    g = MultiGraph(42, list(ex.edges) + [(40, 41)])
    res = bal_cut_prune(g, phi, 1)
    assert res.a_side == frozenset(range(40))
    assert res.b_side == frozenset({40, 41})
    assert (res.cut_edges, res.branch) == (0, "pruned")
    assert res.report["notes"][-1] == "disconnected input: processed the giant component"
    check_bcp(g, phi, res)


def test_no_subgraph_copies_a_whole_vertex_set(monkeypatch):
    # A planted union whose decomposition plays one cut-matching game.  The
    # peels start on the graph they were given, and every subgraph taken
    # on a whole vertex set is that graph itself, not a copy.
    from balcut import cutmatch, driver, graph
    from balcut.generators import planted_expander_union

    g, _ = planted_expander_union([30, 30], 4, [(0, 1)], 1)
    seen = {"games": 0, "whole": 0, "copies": 0}
    inside_whole = []
    real_game, real_sub, real_build = (
        driver.iterations_final_cut, graph.masked_subgraph, MultiGraph._build)

    def game(*args, **kwargs):
        seen["games"] += 1
        return real_game(*args, **kwargs)

    def sub(host, keep, alive=None):
        whole = bool(keep.all()) and alive is None
        seen["whole"] += whole
        inside_whole.append(whole)
        try:
            return real_sub(host, keep, alive)
        finally:
            inside_whole.pop()

    def build(self, n, eu, ev):
        seen["copies"] += bool(inside_whole and inside_whole[-1])
        return real_build(self, n, eu, ev)

    monkeypatch.setattr(driver, "iterations_final_cut", game)
    for module in (graph, driver, cutmatch):
        monkeypatch.setattr(module, "masked_subgraph", sub)
    monkeypatch.setattr(MultiGraph, "_build", build)
    dec = expander_decomposition(g, Fraction(1, 2), 1)
    assert len(dec.clusters) == 1
    assert seen["games"] == 1 and seen["whole"] >= 5 and seen["copies"] == 0, seen


def _chained_expanders(sizes, links):
    """Disjoint construct_expander blocks of the given sizes, ids in block
    order, plus one edge per ((block, offset), (block, offset)) link."""
    edges, start = [], [0]
    for size in sizes:
        edges += [(u + start[-1], v + start[-1]) for u, v in construct_expander(size).edges]
        start.append(start[-1] + size)
    edges += [(start[i] + a, start[j] + b) for (i, a), (j, b) in links]
    return MultiGraph(start[-1], edges)


# K13 and a triangle joined by one edge, and the fake edges an injected
# game result leaves between them on the reduced graph.
_K13_TRIANGLE = MultiGraph(
    16, list(complete_graph(13).edges) + [(13, 14), (13, 15), (14, 15), (0, 13)])
_TRIANGLE_FAKES = [(13, 1), (14, 2), (13, 3)]


def _injected_game(psi_witness, games, host=_K13_TRIANGLE):
    """A first game on ``host``'s reduced graph that ends in a witness with
    four fake edges: the three of _TRIANGLE_FAKES, and one joining two hat
    vertices of vertex 4's cluster, which vanishes when clusters contract.
    Later games run."""
    from balcut.cutmatch import Witness

    first = host.indptr  # v's first hat vertex: its first slot
    real_game = iterations_final_cut

    def game(sub, psi, z, r):
        games.append(sub.n)
        if len(games) > 1:
            return real_game(sub, psi, z, r)
        w = Witness(sub, sub.n)
        hat_pairs = [(int(first[u]), int(first[v])) for u, v in _TRIANGLE_FAKES]
        w.add_round(hat_pairs + [(int(first[4]), int(first[4]) + 1)], {})
        return WitnessResult(w, psi_witness, 1, len(w.fake_edges), 1)

    return game


def test_witness_case_prunes_contracted_fake_edges(monkeypatch):
    # Pruning the three contracted fake edges cuts the triangle off, and
    # K13 is the certified core.
    from balcut import driver
    from balcut.graph import with_edges

    g, fakes, body = _K13_TRIANGLE, _TRIANGLE_FAKES, complete_graph(13)
    games = []

    pruned = []
    real_prune = driver.expander_prune

    def prune(h, phi, deleted):
        out = real_prune(h, phi, deleted)
        pruned.append((h, phi, list(deleted), out))
        return out

    monkeypatch.setattr(driver, "iterations_final_cut",
                        _injected_game(Fraction(1, 4), games))
    monkeypatch.setattr(driver, "expander_prune", prune)
    phi = Fraction(1, 2)
    res = bal_cut_prune(g, phi, 1)

    assert games == [g.volume()]
    [(h, phi_prune, deleted, (a, b))] = pruned
    contracted = with_edges(g, fakes)
    assert list(zip(h.eu.tolist(), h.ev.tolist())) == list(
        zip(contracted.eu.tolist(), contracted.ev.tolist()))
    assert phi_prune == Fraction(1, 4) and deleted == [g.m, g.m + 1, g.m + 2]
    assert graph_conductance(h) >= phi_prune  # the pruning premise holds
    k = len(deleted)
    assert b == frozenset({13, 14, 15})
    boundary = sum(1 for eid, (u, v) in enumerate(h.edges)
                   if eid not in deleted and (u in a) != (v in a))
    assert boundary <= 4 * k
    assert h.volume(b) * phi_prune <= 8 * k
    sub, _ = pruned_subgraph(h, deleted, a)
    assert graph_conductance(sub) >= phi_prune / 6

    assert (res.branch, res.b_side, res.cut_edges) == ("pruned", b, 1)
    assert res.certified_phi == graph_conductance(body) == Fraction(7, 12)
    assert res.report["witness_fakes"] == 4
    assert res.report["witness_psi"] == "1/4"
    assert "corrections" not in res.report
    check_bcp(g, phi, res)


def test_witness_case_notes_a_fake_edge_budget_overrun(monkeypatch):
    # At witness sparsity 1/8 the three fake edges exceed the pruning
    # budget ceil(phi * m / 10) = 2.  The note says so, nothing is pruned,
    # and the oracle's correction peels the triangle; the next game runs on
    # K13 alone and certifies it.
    from balcut import driver

    games = []
    monkeypatch.setattr(driver, "iterations_final_cut",
                        _injected_game(Fraction(1, 8), games))
    phi = Fraction(1, 2)
    res = bal_cut_prune(_K13_TRIANGLE, phi, 1)
    assert res.report["notes"] == [
        "fake-edge pruning unavailable: k=3 deleted edges exceed ceil(phi*m/10)=2"]
    assert res.report["corrections"] == 1
    assert games == [_K13_TRIANGLE.volume(), _K13_TRIANGLE.volume(range(13))]
    assert (res.branch, res.b_side, res.cut_edges) == ("pruned", frozenset({13, 14, 15}), 1)
    check_bcp(_K13_TRIANGLE, phi, res)


# K13 with the edge (13, 14) hung off vertex 0.  With _TRIANGLE_FAKES the
# contracted graph has conductance 21/41, above the pruning phi of 1/4, yet
# expander_prune's trimming leaves excess that no level cut explains.
_K13_K2 = MultiGraph(15, list(complete_graph(13).edges) + [(13, 14), (0, 13)])


def test_witness_case_notes_a_pruning_precondition_failure(monkeypatch):
    # The note names the failure, nothing is pruned, and the oracle's
    # correction peels the pendant edge; the next game certifies K13.
    from balcut import driver
    from balcut.graph import with_edges

    assert graph_conductance(with_edges(_K13_K2, _TRIANGLE_FAKES)) == Fraction(21, 41)
    games = []
    monkeypatch.setattr(driver, "iterations_final_cut",
                        _injected_game(Fraction(1, 4), games, _K13_K2))
    phi = Fraction(1, 2)
    res = bal_cut_prune(_K13_K2, phi, 1)
    [note] = res.report["notes"]
    assert note.startswith("fake-edge pruning unavailable: trimming left excess 5 ")
    assert res.report["corrections"] == 1
    assert games == [_K13_K2.volume(), _K13_K2.volume(range(13))]
    assert (res.branch, res.b_side, res.cut_edges) == ("pruned", frozenset({13, 14}), 1)
    assert res.certified_phi == Fraction(7, 12)
    check_bcp(_K13_K2, phi, res)


def test_bal_cut_prune_peels_the_smallest_component(monkeypatch):
    # Blocks M, L, R of 40, 60 and 30 vertices, with M joined to L and to
    # R by one edge each.  M's ids come first, so the first game's halves
    # put M in A and its mass is stuck behind its two edges: the game cuts
    # M off.  That leaves L and R apart, and the peel takes R, the smaller.
    from balcut import driver

    g = _chained_expanders([40, 60, 30], [((0, 0), (1, 0)), ((0, 1), (2, 0))])
    labelled = []
    real_labels = driver.component_labels

    def labels(sub):
        k, label = real_labels(sub)
        labelled.append(k)
        return k, label

    monkeypatch.setattr(driver, "component_labels", labels)
    phi = Fraction(1, 16)
    res = bal_cut_prune(g, phi, 1)
    assert labelled == [2]
    assert res.branch == "balanced" and res.cut_edges == 1
    assert res.b_side == frozenset(range(40, 100))  # L, the larger side's rest
    check_bcp(g, phi, res)


def test_decomposition_keeps_a_pruned_core_and_recurses_on_b(monkeypatch):
    # Expanders on 160 and 70 vertices joined by one edge: bal_cut_prune
    # cuts the smaller one off, then certifies the larger as a pruned core
    # with a nonempty B, which the decomposition takes up as a new cluster.
    from balcut import driver

    g = _chained_expanders([160, 70], [((0, 0), (1, 0))])
    results = []
    real_bcp = driver.bal_cut_prune

    def bcp(sub, phi, r):
        res = real_bcp(sub, phi, r)
        results.append((res.branch, len(res.b_side)))
        return res

    monkeypatch.setattr(driver, "bal_cut_prune", bcp)
    dec = expander_decomposition(g, Fraction(1), 1)
    assert results[0] == ("pruned", 70)
    assert dec.clusters == [list(range(160)), list(range(160, 230))]
    assert dec.inter_cluster_edges == 1
    assert all(c > 0 for c in dec.certificates)


def test_sparse_cut_or_expander_returns_the_game_cut():
    # Three 60-vertex blocks on a path of bridges: at psi = 1 the game's
    # matcher cuts one end block off, and sparsest_cut keeps that cut.
    from balcut.generators import planted_expander_union

    g, label = planted_expander_union([60] * 3, 4, [(0, 1), (1, 2)], 1)
    cut = sparse_cut_or_expander(g, Fraction(1), 1, 1)
    assert isinstance(cut, Cut)
    assert (cut.delta, min(cut.size, g.n - cut.size)) == (1, 60)
    assert cut.sparsity == Fraction(1, 60)
    small = cut.side if cut.size == 60 else frozenset(range(g.n)) - cut.side
    assert len({label[v] for v in small}) == 1
    assert sparsest_cut(g, 1).value == Fraction(1, 60)


@pytest.mark.parametrize("extra", [[(4, 5), (5, 6), (4, 6)], [(4, 5)]])
def test_approximation_drivers_cut_a_component_of_a_disconnected_input(extra):
    # K4 plus a triangle or a single edge (with vertex 6 then isolated).
    g = MultiGraph(7, list(complete_graph(4).edges) + extra)
    side = frozenset({4, 5, 6}) if len(extra) == 3 else frozenset({6})
    for res, value in ((sparsest_cut(g, 1), "sparsity"),
                       (lowest_conductance_cut(g, 1), "conductance")):
        assert res.report == {"note": "disconnected: component cut"}
        assert res.cut.side == side and res.cut.delta == 0
        assert res.value == getattr(res.cut, value) == 0
        assert (res.floor, res.factor) == (0, 1.0)
