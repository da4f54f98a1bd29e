import random
from fractions import Fraction

import numpy as np
import pytest

from balcut.errors import CompositionError, DegreeTooHigh, InvalidParam
from balcut.expanders import (
    TORUS_SPARSITY,
    _check_composition,
    construct_expander,
    expander_sparsity_floor,
    gabber_galil,
    partition_into_matchings,
)
from balcut.generators import complete_graph, planted_expander_union, random_regularish_graph
from balcut.graph import MultiGraph, brute_force_extremum, is_connected
from balcut.spectral import lambda2_normalized
from oracles import graph_sparsity


def test_gabber_galil_structure():
    g = gabber_galil(3)
    assert g.n == 9
    assert g.max_degree() <= 8
    assert not g.has_self_loops
    assert is_connected(g)


def test_gabber_galil_regression_constants():
    for k, stored in TORUS_SPARSITY.items():
        assert graph_sparsity(gabber_galil(k)) == stored


def test_gabber_galil_cheeger_positive():
    for k in (5, 6, 7, 8):
        assert lambda2_normalized(gabber_galil(k)) / 2 > 0


def test_gabber_galil_rejects_small_k():
    with pytest.raises(InvalidParam):
        gabber_galil(1)


def test_construct_expander_trivial_sizes():
    h1 = construct_expander(1)
    assert h1.n == 1 and h1.m == 0
    h9 = construct_expander(9)
    assert h9.n == 9 and h9.max_degree() == 8 and h9.m == 36


def test_construct_expander_pendant_case():
    h = construct_expander(10)
    assert h.n == 10
    assert h.max_degree() <= 9
    assert graph_sparsity(h) > 0


@pytest.mark.parametrize("n", [2, 5, 13, 17, 64, 100, 257, 500])
def test_construct_expander_structure(n):
    h = construct_expander(n)
    assert h.n == n
    assert h.max_degree() <= 9
    assert is_connected(h)


def test_per_size_floor_is_certified():
    for n in range(2, 17):
        assert expander_sparsity_floor(n) <= graph_sparsity(construct_expander(n))
    for n in (20, 40, 77):
        floor = float(expander_sparsity_floor(n))
        assert 0 < floor <= lambda2_normalized(construct_expander(n)) / 2 + 1e-9


def test_every_cluster_expander_has_sparsity_above_a_quarter():
    # bal_cut_prune relies on this: its canonicalized cut sides are never
    # empty, since a cut with Psi <= psi <= 1/4 cannot lie within half of
    # every cluster.  Exact up to the oracle limit.  Up to 64 vertices,
    # Fiedler's bound |E(S, V-S)| >= lambda2(L) |S| |V-S| / n gives
    # Psi >= lambda2(L) / 2 for the combinatorial Laplacian L.  From 65 on
    # the torus side is at least 8, and Gabber-Galil's lambda <= 5 sqrt(2)
    # (the torus's edge expansion is at least (8 - 5 sqrt(2)) / 2) proves
    # it with the pendants counted; see CHANGES.md.
    for d in range(2, 17):
        assert graph_sparsity(construct_expander(d)) >= 1
    for d in range(17, 65):
        h = construct_expander(d)
        lap = np.diag(h.deg.astype(float))
        np.add.at(lap, (h.eu, h.ev), -1.0)
        np.add.at(lap, (h.ev, h.eu), -1.0)
        assert np.linalg.eigvalsh(lap)[1] / 2 > 0.3, d


def test_pendant_matching_halves_sparsity_at_worst():
    # A pendant cut always has sparsity exactly 1, so the halving guarantee
    # only applies to the capped base sparsity min(psi, 2): above that, the
    # pendant cut itself is the floor.
    for base_n in (4, 6, 8, 10, 12):
        base = construct_expander(base_n)
        psi_base = min(graph_sparsity(base), Fraction(2))
        for extra in (1, 2, base_n // 2):
            edges = list(base.edges) + [(j, base.n + j) for j in range(extra)]
            aug = MultiGraph(base.n + extra, edges)
            if aug.n > 16:
                continue
            assert graph_sparsity(aug) >= psi_base / 2


def test_partition_into_matchings_cases():
    single = MultiGraph(2, [(0, 1)])
    assert len(partition_into_matchings(single)) == 1

    k4 = complete_graph(4)
    ms = partition_into_matchings(k4)
    assert len(ms) <= 5
    assert sorted(e for m in ms for e in m) == list(range(6))

    g3 = gabber_galil(3)
    ms = partition_into_matchings(g3)
    assert len(ms) <= 17
    assert sorted(e for m in ms for e in m) == list(range(g3.m))
    for m in ms:
        touched = [v for e in m for v in g3.edges[e]]
        assert len(touched) == len(set(touched))


def test_partition_rejects_high_degree():
    with pytest.raises(DegreeTooHigh):
        partition_into_matchings(complete_graph(11))


def test_compose_sparsity_bound():
    # Psi(composed) >= psi * psi' / (16 * Delta * gamma^2) with measured
    # inputs: two K7 blocks glued along a single core edge by the identity
    # matching, the shape the cut player's psi_comp bound rests on.
    core = MultiGraph(2, [(0, 1)])
    k7 = complete_graph(7)
    matching = [(i, i) for i in range(7)]
    _check_composition(core, [7, 7], {0: matching})
    edges = list(k7.edges) + [(u + 7, v + 7) for u, v in k7.edges]
    edges += [(u, v + 7) for u, v in matching]
    composed = MultiGraph(14, edges)
    psi = graph_sparsity(k7)
    psi_core = graph_sparsity(core)
    gamma = Fraction(1)
    bound = psi * psi_core / (16 * core.max_degree() * gamma * gamma)
    assert graph_sparsity(composed) >= bound


def test_compose_rejects_bad_matchings():
    core = MultiGraph(2, [(0, 1)])
    with pytest.raises(CompositionError):
        _check_composition(core, [4, 4], {0: [(0, 0), (0, 1)]})  # repeated left endpoint
    with pytest.raises(CompositionError):
        _check_composition(core, [4, 4], {0: [(0, 9)]})  # endpoint outside block
    with pytest.raises(CompositionError):
        _check_composition(core, [4], {0: []})  # block count mismatch


def test_check_composition_rejects_what_compose_rejects():
    core = MultiGraph(2, [(0, 1)])
    bad = [
        (core, [4, 4], {}),  # no matching for the core edge
        # more pairs than the block the core edge does not touch
        (MultiGraph(3, [(0, 1)]), [4, 4, 1], {0: [(0, 0), (1, 1)]}),
        (MultiGraph(2, [(0, 0)]), [4, 4], {0: []}),  # self-loop in the core
    ]
    for c, sizes, matchings in bad:
        with pytest.raises(CompositionError):
            _check_composition(c, sizes, matchings)
    _check_composition(core, [4, 4], {0: [(i, i) for i in range(4)]})


# ---------------------------------------------------------------------------
# The array builders against the edge-tuple loops they replaced
# ---------------------------------------------------------------------------


def ref_gabber_galil(k):
    edges = []
    for x in range(k):
        for y in range(k):
            u = x * k + y
            for nx, ny in (
                ((x + 2 * y) % k, y),
                ((x - 2 * y) % k, y),
                ((x + 2 * y + 1) % k, y),
                ((x - 2 * y - 1) % k, y),
                (x, (y + 2 * x) % k),
                (x, (y - 2 * x) % k),
                (x, (y + 2 * x + 1) % k),
                (x, (y - 2 * x - 1) % k),
            ):
                v = nx * k + ny
                if u < v:
                    edges.append((u, v))
    return MultiGraph(k * k, edges)


def ref_construct_expander(n):
    if n <= 9:
        return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    k = 1
    while k * k < n:
        k += 1
    base = ref_gabber_galil(k - 1)
    edges = list(base.edges)
    edges.extend((j, base.n + j) for j in range(n - (k - 1) ** 2))
    return MultiGraph(n, edges)


def ref_random_regularish_graph(n, d, seed):
    rng = random.Random(seed)
    edges = []
    verts = list(range(n))
    for _ in range(d):
        rng.shuffle(verts)
        for i in range(0, n, 2):
            edges.append((verts[i], verts[i + 1]))
    return MultiGraph(n, edges)


def ref_planted_expander_union(block_sizes, degree, bridges, seed):
    offsets = []
    total = 0
    for size in block_sizes:
        offsets.append(total)
        total += size
    edges = []
    labels = [0] * total
    for bi, size in enumerate(block_sizes):
        block = ref_random_regularish_graph(size, degree, seed + 7 * bi)
        off = offsets[bi]
        edges.extend((off + u, off + v) for u, v in block.edges)
        for v in range(size):
            labels[off + v] = bi
    rng = random.Random(seed + 999)
    for a, b in bridges:
        u = offsets[a] + rng.randrange(block_sizes[a])
        v = offsets[b] + rng.randrange(block_sizes[b])
        edges.append((u, v))
    return MultiGraph(total, edges), labels


def assert_same_graph(g, ref):
    assert g.n == ref.n
    assert g.eu.dtype == g.ev.dtype == np.int64
    assert np.array_equal(g.eu, ref.eu) and np.array_equal(g.ev, ref.ev)


def test_gabber_galil_matches_the_loop():
    for k in list(range(2, 61)) + [199]:
        assert_same_graph(gabber_galil(k), ref_gabber_galil(k))


def test_construct_expander_matches_the_loop():
    for n in list(range(1, 601)) + [2048, 40000]:
        assert_same_graph(construct_expander(n), ref_construct_expander(n))


def test_random_regularish_graph_matches_the_loop():
    for n, d, seed in [(2, 1, 0), (2, 3, 5), (10, 0, 1), (0, 4, 2), (40, 6, 3),
                       (1000, 8, 11), (20000, 16, 1)]:
        assert_same_graph(
            random_regularish_graph(n, d, seed), ref_random_regularish_graph(n, d, seed)
        )
    for n, d in [(3, 2), (-2, 2), (4, -1)]:
        with pytest.raises(InvalidParam):
            random_regularish_graph(n, d, 0)


def test_planted_expander_union_matches_the_loop():
    cases = [
        ([20, 20], 6, [(0, 1)], 3),
        ([1000] * 4, 8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], 1),
        ([200, 200], 8, [(0, 1)], 11),
        ([6, 10, 4], 3, [(2, 0), (1, 1), (0, 2), (0, 2)], 7),
        ([8], 2, [], 0),
    ]
    for args in cases:
        g, labels = planted_expander_union(*args)
        ref, ref_labels = ref_planted_expander_union(*args)
        assert_same_graph(g, ref)
        assert type(labels) is list and labels == ref_labels
        assert all(type(b) is int for b in labels)


def test_builders_leave_the_tuple_path_unused(monkeypatch):
    # The builders write endpoint arrays: neither the validating
    # constructor nor the lazy ``edges`` tuple view is touched.
    def forbidden(*args, **kwargs):
        raise AssertionError("edge tuple path used")

    monkeypatch.setattr(MultiGraph, "__init__", forbidden)
    monkeypatch.setattr(MultiGraph, "edges", property(forbidden))
    construct_expander.cache_clear()
    try:
        for k in (2, 5, 13):
            assert gabber_galil(k).n == k * k
        for n in (1, 2, 9, 10, 17, 100, 2048):
            assert construct_expander(n).n == n
        assert random_regularish_graph(100, 4, 2).m == 200
        g, labels = planted_expander_union([20, 30], 4, [(0, 1), (1, 0)], 5)
        assert g.m == 102 and len(labels) == 50
    finally:
        construct_expander.cache_clear()
