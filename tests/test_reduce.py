import random
from collections import Counter
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest

from balcut.errors import InvalidInput
from balcut.expanders import construct_expander, expander_sparsity_floor
from balcut.generators import (
    complete_graph,
    cycle_graph,
    random_connected_graph,
    star_graph,
)
from balcut.graph import MultiGraph, cut_edge_count, cut_stats, is_connected
from balcut.reduce import (
    is_canonical,
    lift_cut,
    make_canonical,
    project_cut,
    reduce_degree,
)


def clusters(r):
    """Each original vertex's hat vertices, as ranges."""
    return [range(a, b) for a, b in pairwise(r.indptr.tolist())]


def mask(n, ids):
    """Boolean mask over range(n) of the ids inside it."""
    out = np.zeros(n, dtype=bool)
    out[[u for u in ids if 0 <= u < n]] = True
    return out


def ids(m):
    return frozenset(np.flatnonzero(m).tolist())


def type2_edges(r):
    """The hat edges that are images of original edges, the last ones."""
    return r.hat_g.edges[r.hat_g.m - r.hat_g.n // 2:]


def crossing_type2(r, side):
    return sum(1 for u, v in type2_edges(r) if side[u] != side[v])


def test_single_edge():
    r = reduce_degree(MultiGraph(2, [(0, 1)]))
    assert r.hat_g.n == 2
    assert r.hat_g.m == 1
    assert [len(c) for c in clusters(r)] == [1, 1]
    assert type2_edges(r) == r.hat_g.edges


def test_star_reduction():
    r = reduce_degree(star_graph(3))
    assert r.hat_g.n == 6
    assert len(clusters(r)[0]) == 3
    assert all(len(clusters(r)[v]) == 1 for v in (1, 2, 3))
    # center cluster is K3, plus 3 type-2 edges
    assert r.hat_g.m == 6 and len(type2_edges(r)) == 3
    assert r.hat_g.max_degree() == 3


def test_cycle_reduction():
    r = reduce_degree(cycle_graph(8))
    assert r.hat_g.n == 16
    assert all(len(c) == 2 for c in clusters(r))
    assert r.hat_g.max_degree() <= 3


def test_reduction_structure_random():
    for seed in range(500):
        g = random_connected_graph(9, 0.4, seed)
        r = reduce_degree(g)
        assert r.hat_g.n == 2 * g.m
        assert r.hat_g.max_degree() <= 10
        # type-2 edge e joins the clusters of original edge e's endpoints
        type2 = np.array(type2_edges(r))
        assert len(type2) == g.m
        assert (r.owner[type2] == np.stack([g.eu, g.ev], axis=1)).all()


def test_cluster_expanders_are_connected():
    # bal_cut_prune skips labelling the reduced graph's components on its
    # first pass: each cluster is a connected construct_expander(deg v).
    # Built uncached, so the 3,000 graphs are not all kept.
    build = construct_expander.__wrapped__
    assert all(is_connected(build(d)) for d in range(1, 3001))


def test_reduced_graph_of_a_connected_multigraph_is_connected():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 30)
        edges = [(rng.randrange(v), v) for v in range(1, n)]  # a spanning tree
        edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 2 * n))]
        edges += [edges[rng.randrange(len(edges))] for _ in range(rng.randint(0, n))]
        edges += [(0, rng.randrange(1, n)) for _ in range(rng.choice([0, 12, 40]))]
        g = MultiGraph(n, edges)
        assert is_connected(g) and is_connected(reduce_degree(g).hat_g)


def _hat_edges_reference(g):
    """(hat_u, hat_v) of the reduction as row arithmetic over one table of
    every degree's expander edges: the per-edge-row indexing that the
    per-size broadcast of ``reduce_degree`` replaced."""
    deg, indptr = g.deg, g.indptr
    total = int(indptr[-1])
    owner = np.repeat(np.arange(g.n), deg)
    slot = 2 * g.inc + (owner != g.eu[g.inc])
    pos = np.empty(total, dtype=np.int64)
    pos[slot] = np.arange(total)
    sizes = np.unique(deg[deg > 0])
    inners = [construct_expander(d) for d in sizes.tolist()]
    table_u = np.concatenate([h.eu for h in inners])
    table_v = np.concatenate([h.ev for h in inners])
    inner_m = np.zeros(int(deg.max()) + 1, dtype=np.int64)
    inner_m[sizes] = [h.m for h in inners]
    inner_at = np.zeros_like(inner_m)
    inner_at[sizes] = np.cumsum(inner_m[sizes]) - inner_m[sizes]
    count = inner_m[deg]
    vertex = np.repeat(np.arange(g.n), count)
    row = inner_at[deg[vertex]] + np.arange(len(vertex)) - (np.cumsum(count) - count)[vertex]
    shift = indptr[vertex]
    return (np.concatenate([table_u[row] + shift, pos[0::2]]),
            np.concatenate([table_v[row] + shift, pos[1::2]]))


def test_reduce_degree_matches_the_row_arithmetic_reference():
    rng = random.Random(11)
    for seed in range(60):
        n = rng.randint(4, 60)
        core = n - 2  # n - 2 becomes a leaf, n - 1 stays isolated
        edges = [(rng.randrange(v), v) for v in range(1, core)]
        hub = rng.randrange(core)  # many distinct degrees: a hub
        edges += [(hub, v) for v in rng.sample(range(core), rng.randint(0, core))
                  if v != hub]
        edges += [edges[rng.randrange(len(edges))] for _ in range(rng.randint(0, n))]
        edges.append((rng.randrange(core), n - 2))
        rng.shuffle(edges)
        g = MultiGraph(n, edges)
        assert 1 in g.deg and 0 in g.deg
        hat_u, hat_v = _hat_edges_reference(g)
        r = reduce_degree(g)
        assert r.hat_g.eu.tolist() == hat_u.tolist(), seed
        assert r.hat_g.ev.tolist() == hat_v.tolist(), seed


def test_mask_api_rejects_wrong_shape_and_dtype():
    g = cycle_graph(4)
    r = reduce_degree(g)
    n_hat = r.hat_g.n
    full = np.ones(n_hat, dtype=bool)
    for bad in (np.ones(n_hat + 1, dtype=bool), np.ones(n_hat, dtype=np.int64),
                np.ones((n_hat, 1), dtype=bool), list(full)):
        for call in (lambda m: is_canonical(r, m),
                     lambda m: make_canonical(r, full, m),
                     lambda m: make_canonical(r, m, full),
                     lambda m: project_cut(r, m)):
            with pytest.raises(InvalidInput, match="boolean mask"):
                call(bad)
    with pytest.raises(InvalidInput, match="boolean mask"):
        lift_cut(r, np.ones(g.n + 1, dtype=bool))
    with pytest.raises(InvalidInput, match="a_side is not canonical"):
        project_cut(r, mask(n_hat, [0]))
    with pytest.raises(InvalidInput, match="a_side must lie in the host set"):
        make_canonical(r, mask(n_hat, [0, 1]), mask(n_hat, [2]))


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
        a_hat = lift_cut(r, mask(g.n, side))
        orig_a = project_cut(r, a_hat)
        assert ids(orig_a) == side
        c = cut_stats(g, side)
        assert c.vol_s == np.count_nonzero(a_hat)
        assert c.vol_comp == np.count_nonzero(~a_hat)
        assert c.delta == crossing_type2(r, a_hat)
        assert c.delta == cut_edge_count(g, side)


def test_project_degenerate_full_side():
    g = cycle_graph(4)
    r = reduce_degree(g)
    orig_a = project_cut(r, np.ones(r.hat_g.n, dtype=bool))
    assert ids(orig_a) == frozenset(range(4))
    assert ids(~orig_a) == frozenset()


def _is_canonical_reference(r, vertices):
    """``is_canonical`` as a walk over every cluster's members."""
    members = set(vertices)
    for cluster in clusters(r):
        if not cluster:
            continue
        inside = sum(1 for u in cluster if u in members)
        if inside not in (0, len(cluster)):
            return False
    return True


def test_is_canonical_matches_the_set_loop():
    # Random multigraphs whose isolated vertices (empty clusters) fall at
    # the ends and in the middle; canonical sets, sets that split a few
    # clusters, and ids outside V(hat_g), which lie in no cluster: the
    # reference sees them, the mask cannot hold them.
    rng = random.Random(7)
    seen = Counter()
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        g = MultiGraph(n, edges)
        r = reduce_degree(g)
        n_hat = r.hat_g.n
        seen["empty clusters"] += sum(not c for c in clusters(r))
        for _ in range(6):
            members = set(ids(lift_cut(r, mask(n, [v for v in range(n)
                                                   if rng.random() < 0.5]))))
            for _ in range(rng.choice([0, 0, 1, 2])):
                members ^= {rng.randrange(n_hat)}
            members |= {rng.choice([-3, -1, n_hat, n_hat + 5, 10**12])
                        for _ in range(rng.randint(0, 2))}
            want = _is_canonical_reference(r, members)
            assert is_canonical(r, mask(n_hat, members)) == want
            seen[want] += 1
        assert is_canonical(r, np.ones(n_hat, dtype=bool))
        assert is_canonical(r, np.zeros(n_hat, dtype=bool))
    assert seen[True] >= 200 and seen[False] >= 200 and seen["empty clusters"] >= 50, seen


def test_make_canonical_identity_on_canonical_cut():
    g = cycle_graph(8)
    r = reduce_degree(g)
    a = lift_cut(r, mask(g.n, {0, 1, 2, 3}))
    a2 = make_canonical(r, np.ones(r.hat_g.n, dtype=bool), a)
    assert (a2 == a).all()


def test_make_canonical_majority_moves_center():
    g = star_graph(3)
    r = reduce_degree(g)
    center = list(clusters(r)[0])
    # Put 2 of the 3 center slots in A: the whole cluster must end in A.
    a = mask(r.hat_g.n, center[:2])
    a2 = make_canonical(r, np.ones(r.hat_g.n, dtype=bool), a)
    assert a2[center].all()
    assert is_canonical(r, a2) and is_canonical(r, ~a2)


def canonical_blowup_constant(r):
    """The bound 1 + 1/alpha0 on the make_canonical edge blowup, from the
    weakest sparsity floor among the cluster sizes present."""
    sizes = {len(c) for c in clusters(r) if len(c) >= 2}
    if not sizes:
        return Fraction(1)
    return 1 + 1 / min(expander_sparsity_floor(s) for s in sizes)


def test_make_canonical_blowup_and_balance():
    # On sparse cuts the output keeps at least half of each side, and the
    # cut-edge count grows by at most 1 + 1/alpha0 with per-size floors.
    for seed in range(25):
        g = random_connected_graph(10, 0.35, seed)
        r = reduce_degree(g)
        n_hat = r.hat_g.n
        base = lift_cut(r, mask(g.n, {v for v in range(g.n) if v < g.n // 2}))
        # Perturb: split one big cluster by moving one slot across.
        big = max(range(g.n), key=lambda v: len(clusters(r)[v]))
        slot = clusters(r)[big][0]
        a = base.copy()
        a[slot] = not a[slot]
        if not a.any() or a.all():
            continue
        before = cut_edge_count(r.hat_g, ids(a))
        a2 = make_canonical(r, np.ones(n_hat, dtype=bool), a)
        after = cut_edge_count(r.hat_g, ids(a2))
        psi_in = cut_stats(r.hat_g, ids(a)).sparsity
        assert is_canonical(r, a2)
        blowup = canonical_blowup_constant(r)
        assert after <= blowup * max(before, 1)
        if psi_in <= 1 / (2 * blowup):
            assert np.count_nonzero(a2) >= np.count_nonzero(a) / 2
            assert np.count_nonzero(~a2) >= np.count_nonzero(~a) / 2


def test_make_canonical_rejects_non_canonical_host():
    g = star_graph(3)
    r = reduce_degree(g)
    # remove one slot of the center cluster
    host = [u for u in range(r.hat_g.n) if u != clusters(r)[0][0]]
    with pytest.raises(InvalidInput, match="host vertex set is not canonical"):
        make_canonical(r, mask(r.hat_g.n, host), mask(r.hat_g.n, host[:2]))


def _make_canonical_reference(r, host, a_side, b_side):
    """``make_canonical``'s resolution as a walk over every cluster."""
    host_set, a, b = set(host), set(a_side), set(b_side)
    for cluster in clusters(r):
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
    for v, cluster in enumerate(clusters(r)):
        if cluster and cluster[0] in a:
            orig_a.add(v)
        else:
            orig_b.add(v)
    return frozenset(orig_a), frozenset(orig_b)


def test_make_canonical_and_project_cut_match_the_set_loops():
    # Random multigraphs with isolated vertices (empty clusters); hosts
    # that are canonical unions of clusters plus ids outside V(hat_g),
    # split by random sides that cut clusters, tie some of them exactly,
    # and leave others whole.  The references see the outside ids; the
    # masks cannot hold them, so the results are compared inside V(hat_g).
    rng = random.Random(11)
    seen = Counter()
    outside = [-3, -1, 10**12]
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        r = reduce_degree(MultiGraph(n, edges))
        n_hat = r.hat_g.n
        seen["empty clusters"] += sum(not c for c in clusters(r))
        inside = ids(np.ones(n_hat, dtype=bool))
        for _ in range(6):
            host = set(ids(lift_cut(r, mask(n, [v for v in range(n)
                                                if rng.random() < 0.7]))))
            host |= set(rng.sample(outside + [n_hat, n_hat + 5], rng.randint(0, 2)))
            a = {u for u in host if rng.random() < 0.5}
            for v in range(n):  # some clusters split exactly in half
                cluster = clusters(r)[v]
                if len(cluster) % 2 == 0 and cluster and cluster[0] in host \
                        and rng.random() < 0.3:
                    a -= set(cluster)
                    a |= set(rng.sample(list(cluster), len(cluster) // 2))
                    seen["ties"] += 1
            b = host - a
            want = _make_canonical_reference(r, host, a, b)
            host_mask = mask(n_hat, host)
            got = make_canonical(r, host_mask, mask(n_hat, a))
            assert (ids(got), ids(host_mask & ~got)) == (want[0] & inside, want[1] & inside)
            seen["moved"] += ids(got) != frozenset(a) & inside
            # project a canonical partition of V(hat_g), with ids outside it
            # on the A side
            a_can = set(ids(lift_cut(r, mask(n, [v for v in range(n)
                                                 if rng.random() < 0.5]))))
            b_can = set(range(n_hat)) - a_can
            stray = rng.sample(outside, rng.randint(0, min(2, len(b_can))))
            b_can -= set(rng.sample(sorted(b_can), len(stray)))
            a_can |= set(stray)
            got = project_cut(r, mask(n_hat, a_can))
            assert (ids(got), ids(~got)) == _project_cut_reference(r, a_can)
    assert seen["empty clusters"] >= 50 and seen["ties"] >= 50 and seen["moved"] >= 100, seen
