import random
from collections import Counter

import pytest

from balcut.errors import InvalidInput
from balcut.generators import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
)
from balcut.graph import MultiGraph, cut_edge_count, cut_stats
from balcut.reduce import (
    is_canonical,
    lift_cut,
    make_canonical,
    project_cut,
    reduce_degree,
)


def crossing_type2(r, side):
    side = set(side)
    count = 0
    for eid in r.type2_map:
        u, v = r.hat_g.edges[eid]
        if (u in side) != (v in side):
            count += 1
    return count


def test_single_edge():
    r = reduce_degree(MultiGraph(2, [(0, 1)]))
    assert r.hat_g.n == 2
    assert r.hat_g.m == 1
    assert [len(c) for c in r.clusters] == [1, 1]
    assert list(r.edge_kind) == [2]


def test_star_reduction():
    r = reduce_degree(star_graph(3))
    assert r.hat_g.n == 6
    assert len(r.clusters[0]) == 3
    assert all(len(r.clusters[v]) == 1 for v in (1, 2, 3))
    # center cluster is K3, plus 3 type-2 edges
    assert sum(1 for k in r.edge_kind if k == 1) == 3
    assert sum(1 for k in r.edge_kind if k == 2) == 3
    assert r.hat_g.max_degree() == 3


def test_cycle_reduction():
    r = reduce_degree(cycle_graph(8))
    assert r.hat_g.n == 16
    assert all(len(c) == 2 for c in r.clusters)
    assert r.hat_g.max_degree() <= 3


def test_reduction_structure_random():
    for seed in range(500):
        g = random_connected_graph(9, 0.4, seed)
        r = reduce_degree(g)
        assert r.hat_g.n == 2 * g.m
        assert r.hat_g.max_degree() <= 10
        assert sorted(r.type2_map) == sorted(set(r.type2_map))
        assert len(r.type2_map) == g.m


def test_reduce_rejects_self_loops_and_empty():
    with pytest.raises(InvalidInput):
        reduce_degree(MultiGraph(2, [(0, 0)]))
    with pytest.raises(InvalidInput):
        reduce_degree(MultiGraph(3, []))


def test_round_trip_cut_statistics():
    for seed in range(20):
        g = random_connected_graph(8, 0.4, seed)
        r = reduce_degree(g)
        side = frozenset(v for v in range(g.n) if v % 2 == 0)
        a_hat = lift_cut(r, side)
        b_hat = frozenset(range(r.hat_g.n)) - a_hat
        orig_a, orig_b = project_cut(r, a_hat, b_hat)
        assert orig_a == side
        c = cut_stats(g, side)
        assert c.vol_s == len(a_hat)
        assert c.vol_comp == len(b_hat)
        assert c.delta == crossing_type2(r, a_hat)
        assert c.delta == cut_edge_count(g, side)


def test_project_degenerate_full_side():
    g = cycle_graph(4)
    r = reduce_degree(g)
    all_hat = frozenset(range(r.hat_g.n))
    orig_a, orig_b = project_cut(r, all_hat, frozenset())
    assert orig_a == frozenset(range(4))
    assert orig_b == frozenset()


def _is_canonical_reference(r, vertices):
    """``is_canonical`` as a walk over every cluster's members."""
    members = set(vertices)
    for cluster in r.clusters:
        if not cluster:
            continue
        inside = sum(1 for u in cluster if u in members)
        if inside not in (0, len(cluster)):
            return False
    return True


def test_is_canonical_matches_the_set_loop():
    # Random multigraphs whose isolated vertices (empty clusters) fall at
    # the ends and in the middle; canonical sets, sets that split a few
    # clusters, and ids outside V(hat_g), which lie in no cluster.
    rng = random.Random(7)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        g = MultiGraph(n, edges)
        r = reduce_degree(g)
        n_hat = r.hat_g.n
        seen["empty clusters"] += sum(not c for c in r.clusters)
        for _ in range(6):
            members = set(lift_cut(r, [v for v in range(n) if rng.random() < 0.5]))
            for _ in range(rng.choice([0, 0, 1, 2])):
                members ^= {rng.randrange(n_hat)}
            members |= {rng.choice([-3, -1, n_hat, n_hat + 5, 10**12])
                        for _ in range(rng.randint(0, 2))}
            want = _is_canonical_reference(r, members)
            assert is_canonical(r, members) == want
            assert is_canonical(r, sorted(members) * 2) == want  # repeated ids
            seen[want] += 1
        assert is_canonical(r, range(-2, n_hat + 2))
        assert is_canonical(r, ())
    assert seen[True] >= 200 and seen[False] >= 200 and seen["empty clusters"] >= 50, seen


def test_make_canonical_identity_on_canonical_cut():
    g = cycle_graph(8)
    r = reduce_degree(g)
    a = lift_cut(r, {0, 1, 2, 3})
    b = frozenset(range(r.hat_g.n)) - a
    a2, b2 = make_canonical(r, range(r.hat_g.n), a, b)
    assert a2 == a and b2 == b


def test_make_canonical_majority_moves_center():
    g = star_graph(3)
    r = reduce_degree(g)
    center = list(r.clusters[0])
    # Put 2 of the 3 center slots in A: the whole cluster must end in A.
    a = set(center[:2])
    b = set(range(r.hat_g.n)) - a
    a2, b2 = make_canonical(r, range(r.hat_g.n), a, b)
    assert set(center) <= a2
    assert is_canonical(r, a2) and is_canonical(r, b2)


def test_make_canonical_blowup_and_balance():
    # On sparse cuts the output keeps at least half of each side, and the
    # cut-edge count grows by at most 1 + 1/alpha0 with per-size floors.
    from balcut.reduce import canonical_blowup_constant

    for seed in range(25):
        g = random_connected_graph(10, 0.35, seed)
        r = reduce_degree(g)
        n_hat = r.hat_g.n
        base = lift_cut(r, {v for v in range(g.n) if v < g.n // 2})
        # Perturb: split one big cluster by moving one slot across.
        big = max(range(g.n), key=lambda v: len(r.clusters[v]))
        slot = r.clusters[big][0]
        a = set(base)
        if slot in a:
            a.discard(slot)
        else:
            a.add(slot)
        if not a or len(a) == n_hat:
            continue
        b = set(range(n_hat)) - a
        before = cut_edge_count(r.hat_g, a)
        a2, b2 = make_canonical(r, range(n_hat), a, b)
        after = cut_edge_count(r.hat_g, a2)
        psi_in = cut_stats(r.hat_g, a).sparsity
        assert is_canonical(r, a2)
        blowup = canonical_blowup_constant(r)
        assert after <= blowup * max(before, 1)
        if psi_in <= 1 / (2 * blowup):
            assert len(a2) >= len(a) / 2
            assert len(b2) >= len(b) / 2


def test_make_canonical_rejects_non_canonical_host():
    g = star_graph(3)
    r = reduce_degree(g)
    host = list(range(r.hat_g.n - 1))  # chops the last singleton cluster? no:
    # remove one slot of the center cluster instead
    host = [u for u in range(r.hat_g.n) if u != r.clusters[0][0]]
    with pytest.raises(InvalidInput):
        make_canonical(r, host, host[:2], host[2:])


def _make_canonical_reference(r, host, a_side, b_side):
    """``make_canonical``'s resolution as a walk over every cluster."""
    host_set, a, b = set(host), set(a_side), set(b_side)
    for cluster in r.clusters:
        if not cluster or cluster[0] not in host_set:
            continue
        in_a = [u for u in cluster if u in a]
        if 0 < len(in_a) < len(cluster):
            in_b = [u for u in cluster if u in b]
            if len(in_a) >= len(in_b):
                a.update(in_b)
                b.difference_update(in_b)
            else:
                b.update(in_a)
                a.difference_update(in_a)
    return frozenset(a), frozenset(b)


def _project_cut_reference(r, a_side):
    """``project_cut``'s mapping as a walk over every cluster."""
    a = set(a_side)
    orig_a, orig_b = set(), set()
    for v, cluster in enumerate(r.clusters):
        if cluster and cluster[0] in a:
            orig_a.add(v)
        else:
            orig_b.add(v)
    return frozenset(orig_a), frozenset(orig_b)


def test_make_canonical_and_project_cut_match_the_set_loops():
    # Random multigraphs with isolated vertices (empty clusters); hosts
    # that are canonical unions of clusters plus ids outside V(hat_g),
    # split by random sides that cut clusters, tie some of them exactly,
    # and leave others whole.
    rng = random.Random(11)
    seen = Counter()
    outside = [-3, -1, 10**12]
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        r = reduce_degree(MultiGraph(n, edges))
        n_hat = r.hat_g.n
        seen["empty clusters"] += sum(not c for c in r.clusters)
        for _ in range(6):
            host = set(lift_cut(r, [v for v in range(n) if rng.random() < 0.7]))
            host |= set(rng.sample(outside + [n_hat, n_hat + 5], rng.randint(0, 2)))
            a = {u for u in host if rng.random() < 0.5}
            for v in range(n):  # some clusters split exactly in half
                cluster = r.clusters[v]
                if len(cluster) % 2 == 0 and cluster and cluster[0] in host \
                        and rng.random() < 0.3:
                    a -= set(cluster)
                    a |= set(rng.sample(list(cluster), len(cluster) // 2))
                    seen["ties"] += 1
            b = host - a
            want = _make_canonical_reference(r, host, a, b)
            got = make_canonical(r, sorted(host), a, b)
            assert got == want
            seen["moved"] += got[0] != frozenset(a)
            # project a canonical partition of V(hat_g); ids outside it on
            # the A side stand in for the vertices B leaves out
            a_can = set(lift_cut(r, [v for v in range(n) if rng.random() < 0.5]))
            b_can = set(range(n_hat)) - a_can
            stray = rng.sample(outside, rng.randint(0, min(2, len(b_can))))
            b_can -= set(rng.sample(sorted(b_can), len(stray)))
            a_can |= set(stray)
            assert project_cut(r, a_can, b_can) == _project_cut_reference(r, a_can)
    assert seen["empty clusters"] >= 50 and seen["ties"] >= 50 and seen["moved"] >= 100, seen
