import math
import random
from fractions import Fraction

import numpy as np
import pytest

from balcut import cutmatch, spectral
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
    DiagnosticFailure,
    DiagnosticTooLarge,
    InvalidInput,
    InvalidParam,
    PreconditionViolated,
    RoundCapExceeded,
)
from balcut.expanders import construct_expander
from balcut.generators import complete_graph, cycle_graph, random_regularish_graph
from balcut.graph import (
    MultiGraph,
    connected_components,
    cut_edge_count,
    cut_stats,
    induced_subgraph,
)
from balcut.spectral import certified_floor
from oracles import graph_conductance, graph_sparsity


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


def test_base_step_routes_then_extracts(monkeypatch):
    # At r=1 the forced 10x20 grid goes through the base step.  At the
    # first ell the multi-pair router peels a cut of the first matching that
    # is over the budget; at the second it routes all 11 matchings of the
    # explicit expander.  Extraction is tried once and misses its budget,
    # and the fake-edge count already sits at its floor, so the measured
    # fallback certifies the grid.
    g = MultiGraph(200, [(v, v + d) for v in range(200)
                         for d, ok in ((20, v < 180), (1, v % 20 < 19)) if ok])
    routed, extracted = [], []
    real_route, real_extract = cutmatch.route_or_cut, cutmatch._try_extract

    def route_spy(host, fam, z, ell):
        out = real_route(host, fam, z, ell)
        routed.append((ell, type(out).__name__))
        return out

    def extract_spy(*args):
        extracted.append(real_extract(*args))
        return extracted[-1]

    monkeypatch.setattr(cutmatch, "route_or_cut", route_spy)
    monkeypatch.setattr(cutmatch, "_try_extract", extract_spy)
    monkeypatch.setattr(cutmatch, "N0", 5)
    monkeypatch.setattr(cutmatch, "MACHINERY_FLOOR", 200)
    res = cut_or_certify(g, 1)
    assert routed == [(20, "Cut")] + [(40, "PartialRouting")] * 11
    assert extracted == [None]
    assert isinstance(res, CertifiedSubset)
    assert res.detail == "fallback-measured"
    assert res.psi == Fraction(114595, 33554432)
    assert res.side == frozenset(range(200))


def _routing_stub(monkeypatch, outcome):
    """Replace the multi-pair router by one that records each ell and
    answers with ``outcome``: an exception class to raise, or a cut."""
    ells = []

    def stub(host, fam, z, ell):
        ells.append(ell)
        if isinstance(outcome, type):
            raise outcome("stub")
        return outcome

    monkeypatch.setattr(cutmatch, "route_or_cut", stub)
    return ells


_STOP_HOST = cycle_graph(20)
_STOP_CUT = cut_stats(_STOP_HOST, range(12))  # 2 crossing edges
_STOP_CASES = [
    (DiagnosticFailure, 2, None),  # a stuck router
    (_STOP_CUT, 1, None),  # a host cut over the budget
    (_STOP_CUT, 2, (frozenset(range(12, 20)), 2)),  # within it: its small side
]


@pytest.mark.parametrize("outcome, budget, want", _STOP_CASES)
def test_base_step_stop_protocol(monkeypatch, outcome, budget, want):
    # A stuck attempt moves on to the next ell, and the ladder runs out
    # after ELL_ATTEMPTS of them; a cut within the budget is the answer.
    ells = _routing_stub(monkeypatch, outcome)
    ladder = list(cutmatch._ell_ladder(_STOP_HOST.n))
    assert len(ladder) == cutmatch.ELL_ATTEMPTS
    assert cutmatch._base_step(_STOP_HOST, budget) == want
    assert ells == (ladder if want is None else ladder[:1])


@pytest.mark.parametrize("outcome, budget, want", _STOP_CASES)
def test_rec_attempt_stop_protocol(monkeypatch, outcome, budget, want):
    # The first round of the two block games ends the attempt.
    ells = _routing_stub(monkeypatch, outcome)
    blocks = [list(range(10)), list(range(10, 20))]
    assert cutmatch._rec_attempt(_STOP_HOST, 1, blocks, [], 1, 7, budget) == want
    assert ells == [7]


def test_stuck_remainder_runs_lanczos_once_per_call(monkeypatch):
    """The fallback certificate reuses the floor the spectral gate measured
    on the same remainder; nothing is kept between calls."""
    sizes = []
    real = spectral.lambda2_normalized

    def spy(g):
        sizes.append(g.n)
        return real(g)

    monkeypatch.setattr(spectral, "lambda2_normalized", spy)
    g = cycle_graph(300)
    res = cut_or_certify(g, 1)
    assert res == CertifiedSubset(
        frozenset(range(300)), Fraction(7359, 67108864), "fallback-measured"
    )
    assert sizes == [300]
    assert cut_or_certify(g, 1) == res
    assert sizes == [300, 300]


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
    from balcut.graph import induced_subgraph

    sub, _ = induced_subgraph(g, a)
    if 2 <= sub.n <= 16:
        assert graph_conductance(sub) >= cert


def test_try_extract_declines_a_pruning_precondition_failure():
    # K13 with the edge (13, 14) hung off vertex 0, and three fake edges:
    # at psi = 13/4 the pruning runs at phi = psi / Delta = 1/4 on a host of
    # conductance 21/41 and still raises, and extraction declines.
    g = MultiGraph(15, list(complete_graph(13).edges) + [(13, 14), (0, 13)])
    w = Witness(g, g.n)
    w.add_round([(13, 1), (14, 2)], {})
    w.add_round([(13, 3)], {})
    with pytest.raises(PreconditionViolated):
        extract_expander(g, w, Fraction(13, 4))
    assert cutmatch._try_extract(g, w, Fraction(13, 4)) is None


# ---------------------------------------------------------------------------
# the game driver
# ---------------------------------------------------------------------------


def perfect_matcher(g):
    """A toy matcher that routes the halves' index-aligned pairs that are
    host edges (all of them only when the host is complete); the game pads
    the rest with fake edges."""
    adjacency = {frozenset(e) for e in g.edges}

    def matcher(a_real, b_real):
        return {(a, b): [a, b] for a, b in zip(a_real, b_real)
                if frozenset((a, b)) in adjacency}

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


def test_odd_host_game_hides_the_padding_vertex(monkeypatch):
    # K7 plays on 8 vertices, 7 the padding vertex.  Every index-aligned
    # pair of real vertices is a host edge, so the only fake edges are the
    # padding vertex's, one per round that it is matched in.
    g = complete_graph(7)
    seen, padded = [], []
    routed = perfect_matcher(g)

    def matcher(a_real, b_real):
        seen.extend(a_real + b_real)
        return routed(a_real, b_real)

    real_padded = cutmatch._padded

    def padded_spy(a_ids, b_ids, matched):
        padded.append((a_ids, real_padded(a_ids, b_ids, matched)))
        return padded[-1][1]

    monkeypatch.setattr(cutmatch, "_padded", padded_spy)
    res = cmg_drive(g, lambda h: cut_or_certify(h, 1), matcher, 10)
    assert isinstance(res, GameResult)
    w = res.witness
    assert seen and max(seen) < g.n
    assert [pairs for _, pairs in padded] == w.rounds
    for a_ids, pairs in padded:
        assert sorted(u for u, _ in pairs) == sorted(a_ids)
    assert w.host_fake_edges == []
    assert w.fake_edges and all(g.n in e for e in w.fake_edges)
    assert len(w.fake_edges) == sum(any(g.n in e for e in rnd) for rnd in w.rounds)


def _old_game_halves(a_side, b_side, n):
    """cmg_drive's halving rule, as it was written there."""
    small, big = sorted((sorted(a_side), sorted(b_side)), key=len)
    need = n // 2 - len(small)
    return small + big[:need], big[need:]


def _old_block_halves(a_side, b_side):
    """_rec_attempt's halving rule, as it was written there."""
    a, b = sorted(a_side), sorted(b_side)
    if len(a) > len(b):
        a, b = b, a
    while len(a) < len(b):
        a.append(b.pop(0))
    return a, b


def test_halves_match_both_old_rules():
    rng = random.Random(3)
    ties = 0
    for trial in range(300):
        n = 2 * rng.randint(2, 20)
        quarter = -(-n // 4)
        k = n // 2 if trial % 3 == 0 else rng.randint(quarter, n - quarter)
        ties += 2 * k == n
        a_side = frozenset(rng.sample(range(n), k))
        b_side = frozenset(range(n)) - a_side
        got = cutmatch._halves(a_side, b_side, n)
        assert got == _old_game_halves(a_side, b_side, n)
        assert got == _old_block_halves(a_side, b_side)
        assert len(got[0]) == len(got[1]) == n // 2
    assert ties >= 100


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


# ---------------------------------------------------------------------------
# The component peel on arrays against the set-based peel it replaced
# ---------------------------------------------------------------------------


def _reference_peel_components(comps, acc_size, quarter, n):
    """Batch smallest components, never letting the peel pass 3n/4."""
    by_size = sorted(comps, key=len)
    largest = by_size[-1]
    if 4 * len(largest) > 3 * n:
        return None  # giant component; caller peels the rest and recurses
    remainder = sum(len(c) for c in comps)
    took = []
    total = acc_size
    for comp in by_size:
        if total >= quarter:
            break
        if len(took) + len(comp) == remainder:
            break  # never consume the whole remainder
        took.extend(comp)
        total += len(comp)
    return took


def _reference_cut_or_certify(g, r):
    """cut_or_certify's peel over Python sets and component lists."""
    n = g.n
    if n <= 2:
        return CertifiedSubset(
            frozenset(range(n)), certified_floor(g, "sparsity"), "trivial"
        )
    quarter = -(-n // 4)
    budget = max(1, n // 100)
    acc = set()
    current = sorted(range(n))
    edges_cut = 0
    while len(acc) < quarter:
        cur_g, idx = induced_subgraph(g, current)
        comps = connected_components(cur_g)
        if len(comps) > 1:
            took = _reference_peel_components(comps, len(acc), quarter, n)
            if took is None:
                for comp in sorted(comps, key=len)[:-1]:
                    acc.update(idx[v] for v in comp)
            else:
                acc.update(idx[v] for v in took)
            current = sorted(set(range(n)) - acc)
            continue
        step = cutmatch._expander_step(cur_g, r, budget - edges_cut,
                                       quarter - len(acc))
        if isinstance(step, CertifiedSubset):
            side = frozenset(idx[v] for v in step.side)
            return CertifiedSubset(side, step.psi, step.detail)
        if step is None:
            return CertifiedSubset(
                frozenset(current), certified_floor(cur_g, "sparsity"),
                "fallback-measured",
            )
        x_local, delta = step
        acc.update(idx[v] for v in x_local)
        edges_cut += delta
        current = sorted(set(range(n)) - acc)
    return BalancedCutMove(frozenset(acc), frozenset(range(n)) - acc,
                           cut_edge_count(g, acc))


def components_graph(sizes, seed):
    """Components of the given sizes on shuffled vertex ids: each a random
    tree plus random extra edges, parallel copies among them."""
    rng = random.Random(seed)
    n = sum(sizes)
    perm = list(range(n))
    rng.shuffle(perm)
    edges = []
    at = 0
    for size in sizes:
        verts = perm[at:at + size]
        at += size
        for i in range(1, size):
            edges.append((verts[rng.randrange(i)], verts[i]))
        for _ in range(rng.randrange(size)):
            u, v = rng.sample(verts, 2)
            edges += [(u, v)] * rng.choice((1, 1, 2))
    rng.shuffle(edges)
    return MultiGraph(n, edges)


# (component sizes, what the case exercises)
PEEL_CASES = [
    ([1] * 3, "edgeless, trivial below four vertices"),
    ([1] * 5, "edgeless"),
    ([1] * 40, "edgeless"),
    ([1] * 4 + [9, 2], "isolated vertices"),
    ([30, 2, 1, 1, 3], "giant component over 3n/4"),
    ([13, 1, 1, 1], "giant component with singletons"),
    ([12, 1, 1, 1, 1], "exactly 3n/4: not giant"),
    ([3] * 8, "ties in size"),
    ([2] * 6 + [5, 5], "ties in size"),
    ([2, 2, 12], "peel lands exactly on the quarter"),
    ([1, 3, 6, 6], "peel lands exactly on the quarter"),
    ([4, 4, 4, 4], "quarter reached by the first component"),
    ([20, 20], "two halves"),
    ([17, 3], "a connected remainder left for the expander step"),
    ([40], "connected"),
]


@pytest.mark.parametrize("sizes,_what", PEEL_CASES)
def test_array_peel_matches_the_set_peel(sizes, _what):
    for seed in range(4):
        g = components_graph(sizes, seed)
        for r in (1, 2):
            assert cut_or_certify(g, r) == _reference_cut_or_certify(g, r), (sizes, seed)


def test_array_peel_matches_the_set_peel_on_random_profiles():
    rng = random.Random(7)
    for case in range(60):
        n = rng.randrange(3, 48)
        sizes = []
        while sum(sizes) < n:
            sizes.append(rng.choice((1, 1, 2, 3, rng.randrange(1, n + 1))))
        sizes[-1] -= sum(sizes) - n
        sizes = [s for s in sizes if s]
        g = components_graph(sizes, case)
        assert cut_or_certify(g, 1) == _reference_cut_or_certify(g, 1), sizes


def test_peel_components_matches_the_list_peel_after_earlier_peels():
    # The remainder left after acc_size vertices were peeled, split into
    # components in shuffled vertex order.
    rng = random.Random(3)
    for case in range(600):
        sizes = [rng.choice((1, 1, 2, 3, rng.randrange(1, 40)))
                 for _ in range(rng.randrange(2, 9))]
        rem = sum(sizes)
        acc_size = rng.randrange(-(-rem // 3))
        n = rem + acc_size
        quarter = -(-n // 4)
        assert acc_size < quarter
        owner = [i for i, size in enumerate(sizes) for _ in range(size)]
        rng.shuffle(owner)
        first = list(dict.fromkeys(owner))  # components by first vertex
        label = np.array([first.index(c) for c in owner])
        comps = [np.flatnonzero(label == i).tolist() for i in range(len(sizes))]
        want = _reference_peel_components(comps, acc_size, quarter, n)
        if want is None:
            want = [v for comp in sorted(comps, key=len)[:-1] for v in comp]
        got = cutmatch._peel_components(label, len(sizes), acc_size, quarter, n)
        assert np.flatnonzero(got).tolist() == sorted(want), (sizes, acc_size)


def test_edgeless_witness_builds_no_subgraph(monkeypatch):
    # The game's round-0 witness has no edges: the cut player peels a
    # quarter of its singletons off the graph it was given.
    built = []
    real = MultiGraph._build

    def spy(self, n, eu, ev):
        built.append(n)
        return real(self, n, eu, ev)

    g = MultiGraph(40, [])
    monkeypatch.setattr(MultiGraph, "_build", spy)
    res = cut_or_certify(g, 1)
    assert built == []
    assert res == BalancedCutMove(frozenset(range(10)), frozenset(range(10, 40)), 0)
