import math
import random
from fractions import Fraction

import pytest

from balcut import cutmatch
from balcut.cutmatch import (
    BalancedCutMove,
    CertifiedSubset,
    GameResult,
    Witness,
    cmg_drive,
    cut_or_certify,
    extract_expander,
    walk_potential,
)
from balcut.errors import (
    DiagnosticTooLarge,
    InvalidInput,
    InvalidParam,
    RoundCapExceeded,
)
from balcut.expanders import construct_expander
from balcut.generators import random_regularish_graph
from balcut.graph import MultiGraph, cut_edge_count, graph_sparsity


def union_of_matchings(n, k, seed):
    rng = random.Random(seed)
    edges = []
    for _ in range(k):
        perm = list(range(n))
        rng.shuffle(perm)
        edges += [(perm[i], perm[i + 1]) for i in range(0, n, 2)]
    return MultiGraph(n, edges)


def check_move(g, res):
    n = g.n
    if isinstance(res, BalancedCutMove):
        assert len(res.a_side) >= -(-n // 4)
        assert len(res.b_side) >= -(-n // 4)
        assert res.a_side | res.b_side == frozenset(range(n))
        assert not (res.a_side & res.b_side)
        assert cut_edge_count(g, res.a_side) == res.crossing
        assert res.crossing <= max(1, n // 100)
    else:
        assert isinstance(res, CertifiedSubset)
        assert 2 * len(res.side) >= n
        assert res.psi > 0
        if len(res.side) <= 14 and len(res.side) >= 2:
            sub_psi = graph_sparsity(
                __import__("balcut.graph", fromlist=["induced_subgraph"])
                .induced_subgraph(g, res.side)[0]
            )
            assert sub_psi >= res.psi


def test_trivial_graphs():
    assert isinstance(cut_or_certify(MultiGraph(1, []), 1), CertifiedSubset)
    res = cut_or_certify(MultiGraph(2, [(0, 1)]), 1)
    assert isinstance(res, CertifiedSubset)


def test_cut_or_certify_rejects_r_below_one():
    with pytest.raises(InvalidParam):
        cut_or_certify(construct_expander(24), 0)


def test_expander_hosts_certify():
    for n in (24, 40, 64):
        g = construct_expander(n)
        res = cut_or_certify(g, 1)
        assert isinstance(res, CertifiedSubset)
        check_move(g, res)


def test_bridged_blocks_get_balanced_cut():
    edges = []
    for i in range(16):
        for j in range(i + 1, 16):
            edges.append((i, j))
            edges.append((16 + i, 16 + j))
    edges.append((0, 16))
    g = MultiGraph(32, edges)
    res = cut_or_certify(g, 1)
    assert isinstance(res, BalancedCutMove)
    assert res.crossing == 1
    check_move(g, res)


def test_empty_and_matching_witnesses():
    g = MultiGraph(20, [])
    res = cut_or_certify(g, 1)
    assert isinstance(res, BalancedCutMove) and res.crossing == 0
    check_move(g, res)

    g = MultiGraph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    res = cut_or_certify(g, 1)
    assert isinstance(res, BalancedCutMove) and res.crossing == 0
    check_move(g, res)


def test_weak_witnesses_resolve_honestly():
    for k in (1, 2, 3, 5, 8):
        g = union_of_matchings(64, k, seed=k)
        res = cut_or_certify(g, 1)
        check_move(g, res)


def test_machinery_path_forced(monkeypatch):
    # Two degree-3 blocks with three parallel bridges at n=400: no single
    # bridge exists, the budget is 4, and the embedding machinery must find
    # the 3-edge balanced cut.
    block = random_regularish_graph(200, 3, seed=2)
    edges = list(block.edges) + [(200 + u, 200 + v) for u, v in block.edges]
    edges += [(0, 200), (1, 201), (2, 202)]
    g = MultiGraph(400, edges)
    monkeypatch.setattr(cutmatch, "MACHINERY_FLOOR", 300)
    res = cut_or_certify(g, 1)
    assert isinstance(res, BalancedCutMove)
    assert res.crossing == 3
    check_move(g, res)


def test_recursive_step_runs(monkeypatch):
    # A 10x20 grid is bridgeless with a weak spectral gap, so neither the
    # Cheeger gate nor a bridge answers; n=200 >= N0^2 = 25 sends r=2 into
    # the q=2 recursion of the cut player.
    edges = []
    for x in range(10):
        for y in range(20):
            v = x * 20 + y
            if x < 9:
                edges.append((v, v + 20))
            if y < 19:
                edges.append((v, v + 1))
    g = MultiGraph(200, edges)
    calls = []
    real_attempt = cutmatch._rec_attempt

    def spy(*args, **kwargs):
        calls.append(1)
        return real_attempt(*args, **kwargs)

    monkeypatch.setattr(cutmatch, "_rec_attempt", spy)
    monkeypatch.setattr(cutmatch, "N0", 5)
    monkeypatch.setattr(cutmatch, "MACHINERY_FLOOR", 200)
    res = cut_or_certify(g, 2)
    assert calls
    assert isinstance(res, CertifiedSubset)
    assert res.detail == "extracted"
    assert res.psi == Fraction(12465013, 27487790694400)
    assert res.side == frozenset(range(200))


def test_extract_expander_trivial_identity():
    g = construct_expander(12)
    w = Witness(g, g.n)
    # witness = host itself: identity embedding, congestion 1, no fakes
    pairs = list(g.edges)
    w.add_round(pairs, {e: [e[0], e[1]] for e in pairs})
    psi = graph_sparsity(g)
    a, b, cert = extract_expander(g, w, psi)
    assert a == frozenset(range(g.n))
    assert b == frozenset()
    assert cert > 0


def test_extract_expander_with_one_fake():
    g = construct_expander(12)
    w = Witness(g, g.n)
    pairs = list(g.edges)
    path_of = {e: [e[0], e[1]] for e in pairs}
    w.add_round(pairs, path_of)
    w.add_round([(0, 5)], {})  # one fake edge
    psi = graph_sparsity(g)
    a, b, cert = extract_expander(g, w, psi)
    assert len(a) >= 2 * g.n // 3
    assert cert > 0
    from balcut.graph import graph_conductance, induced_subgraph

    sub, _ = induced_subgraph(g, a)
    if 2 <= sub.n <= 16:
        assert graph_conductance(sub) >= cert


# ---------------------------------------------------------------------------
# the game driver
# ---------------------------------------------------------------------------


def perfect_matcher(g):
    """A toy matcher that pairs the halves by index (all fake-free only
    when the host is complete; otherwise pads with fakes)."""
    adjacency = {frozenset(e) for e in g.edges}

    def matcher(a_half, b_half, rnd, final):
        out = {}
        for a, b in zip(a_half, b_half):
            if frozenset((a, b)) in adjacency:
                out[(a, b)] = [a, b]
            else:
                out[(a, b)] = None
        return out

    return matcher


def test_cmg_drive_n2():
    g = MultiGraph(2, [(0, 1)])
    res = cmg_drive(g, lambda h: cut_or_certify(h, 1), perfect_matcher(g), 10)
    assert isinstance(res, GameResult)
    assert res.rounds <= 10


def test_cmg_drive_terminates_on_complete_host():
    g = MultiGraph(16, [(i, j) for i in range(16) for j in range(i + 1, 16)])
    cap = math.ceil(10 * math.log2(16))
    res = cmg_drive(g, lambda h: cut_or_certify(h, 1), perfect_matcher(g), cap)
    assert isinstance(res, GameResult)
    assert res.rounds <= cap
    assert res.certified.psi > 0


def test_cmg_drive_round_cap():
    # An empty witness on 8 vertices cannot certify in the very first round,
    # so a cap of 1 must fire (with the round trace attached).
    g = MultiGraph(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    with pytest.raises(RoundCapExceeded) as exc:
        cmg_drive(g, lambda h: cut_or_certify(h, 1), perfect_matcher(g), 1)
    assert isinstance(exc.value.trace, list)


def test_walk_potential_basics():
    trace = walk_potential([], 4)
    assert trace == [0.0]
    rounds = [[(0, 1), (2, 3)]]
    trace = walk_potential(rounds, 4)
    assert trace[0] == 0.0
    assert trace[1] == pytest.approx(4 * math.log(2), abs=1e-9)


def test_walk_potential_monotone_and_capped():
    rng = random.Random(5)
    n = 16
    rounds = []
    for _ in range(12):
        perm = list(range(n))
        rng.shuffle(perm)
        rounds.append([(perm[i], perm[i + 1]) for i in range(0, n, 2)])
    trace = walk_potential(rounds, n)
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
    assert all(t <= n * math.log(n) + 1e-9 for t in trace)


def test_walk_potential_guards():
    with pytest.raises(DiagnosticTooLarge):
        walk_potential([], 1024)
    with pytest.raises(InvalidInput):
        walk_potential([[(0, 1), (1, 2)]], 4)  # vertex 1 matched twice
