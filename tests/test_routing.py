from fractions import Fraction

import pytest

from balcut.errors import InvalidInput, PreconditionViolated
from balcut.generators import (
    barbell_graph,
    complete_graph,
    path_graph,
    star_graph,
)
from balcut.graph import MultiGraph, cut_stats, path_congestion
from balcut.routing import (
    PairFamily,
    PartialRouting,
    ball_grow_cut,
    greedy_pack_round,
    log2ceil,
    route_or_cut,
)


def assert_valid_routing(g, fam, routing, z, ell):
    assert routing.value >= fam.demand() - z
    for i, (a, b) in enumerate(fam.pairs):
        matched_a = [u for u, _ in routing.matchings[i]]
        matched_b = [v for _, v in routing.matchings[i]]
        assert len(set(matched_a)) == len(matched_a)
        assert len(set(matched_b)) == len(matched_b)
        assert set(matched_a) <= a and set(matched_b) <= b
    for (u, v), p in routing.paths.items():
        assert p[0] == u and p[-1] == v
        assert len(p) - 1 <= ell
    assert routing.congestion <= ell * ell
    assert routing.congestion == path_congestion(g, list(routing.paths.values()))


def test_single_pair_adjacent():
    g = complete_graph(4)
    fam = PairFamily.of([([0], [1])])
    res = route_or_cut(g, fam, 0, 2)
    assert isinstance(res, PartialRouting)
    assert res.value == 1
    assert res.paths[(0, 1)] == [0, 1]


def test_two_families_inside_k12():
    g = complete_graph(12)
    fam = PairFamily.of([([0, 1], [2, 3]), ([4, 5], [6, 7])])
    res = route_or_cut(g, fam, 0, 2)
    assert isinstance(res, PartialRouting)
    assert_valid_routing(g, fam, res, 0, 2)
    assert res.value == 4


def test_long_path_single_route():
    g = path_graph(9)
    fam = PairFamily.of([([0], [8])])
    res = route_or_cut(g, fam, 0, 8)
    assert isinstance(res, PartialRouting)
    assert res.paths[(0, 8)] == list(range(9))


def test_star_edge_disjointness():
    g = star_graph(6)
    fam = PairFamily.of([([1, 2, 3], [4, 5, 6])])
    matches, paths, alive = greedy_pack_round(
        g, [(set([1, 2, 3]), set([4, 5, 6]))], 2
    )
    used = [e for p in paths.values() for e in zip(p, p[1:])]
    assert len(used) == len(set(used))  # edge-disjoint through the center
    assert len(matches[0]) == 3


def test_route_or_cut_cut_branch_bounded_degree():
    # Two 3-regular blocks, one bridge: small ell forces the cut branch.
    from balcut.generators import random_regularish_graph

    block = random_regularish_graph(60, 3, seed=11)
    edges = list(block.edges) + [(60 + u, 60 + v) for u, v in block.edges]
    edges.append((0, 60))
    g = MultiGraph(120, edges)
    fam = PairFamily.of([(list(range(30)), list(range(60, 90)))])
    res = route_or_cut(g, fam, 4, 6)
    delta = g.max_degree()
    if isinstance(res, PartialRouting):
        assert_valid_routing(g, fam, res, 4, 6)
    else:
        assert res.sparsity <= Fraction(72 * delta * log2ceil(120), 6)
        assert 2 * min(res.size, 120 - res.size) >= 4


def test_route_or_cut_rejects_overlap():
    g = complete_graph(6)
    with pytest.raises(InvalidInput):
        PairFamily.of([([0], [1]), ([1], [2])])


def test_ball_grow_disconnected():
    g = MultiGraph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    z = ball_grow_cut(g, {0}, {3}, 2)
    assert {0} <= z
    assert len(z) <= 3  # never leaves S's component (3 vertices)
    crossing = sum(1 for u, v in g.edges if (u in z) != (v in z))
    assert crossing * 2 < 8 * g.max_degree() * log2ceil(7) * len(z)


def test_ball_grow_long_path():
    g = path_graph(40)
    z = ball_grow_cut(g, {0}, {39}, 10)
    crossing = sum(1 for u, v in g.edges if (u in z) != (v in z))
    bound = Fraction(8 * g.max_degree() * log2ceil(40), 10)
    assert crossing < bound * len(z)
    assert len(z) <= 20
    assert {0} <= z or {39} <= z


def test_ball_grow_barbell():
    g = barbell_graph(6, 12)
    left = set(range(6))
    right = set(range(6, 12))
    z = ball_grow_cut(g, left, right, 8)
    crossing = sum(1 for u, v in g.edges if (u in z) != (v in z))
    bound = Fraction(8 * g.max_degree() * log2ceil(g.n), 8)
    assert crossing < bound * len(z)
    assert left <= z or right <= z


def test_ball_grow_precondition():
    g = path_graph(5)
    with pytest.raises(PreconditionViolated):
        ball_grow_cut(g, {0}, {3}, 4)


def _cut_phase_reference(g, residual, alive, ell, z, psi_bound):
    """``_cut_phase`` as it was before it peeled through ``masked_subgraph``:
    each round rebuilds the live host by hand with a dict relabel."""
    from balcut.errors import DiagnosticFailure

    n = g.n
    live = [e for eid, e in enumerate(g.edges) if alive[eid]]
    removed = set()
    a_res = [set(a) for a, _ in residual]
    b_res = [set(b) for _, b in residual]
    while len(removed) <= n // 4:
        j = next((i for i in range(len(residual)) if a_res[i] and b_res[i]), None)
        if j is None:
            break
        keep = sorted(set(range(n)) - removed)
        new_id = {v: i for i, v in enumerate(keep)}
        h = MultiGraph(len(keep), [(new_id[u], new_id[v]) for u, v in live
                                   if u not in removed and v not in removed])
        try:
            zball = ball_grow_cut(h, {new_id[v] for v in a_res[j]},
                                  {new_id[v] for v in b_res[j]}, ell)
        except (PreconditionViolated, DiagnosticFailure):
            return None
        zorig = {keep[i] for i in zball}
        removed |= zorig
        for i in range(len(residual)):
            a_res[i] -= zorig
            b_res[i] -= zorig
    if not removed or len(removed) >= n:
        return None
    cut = cut_stats(g, removed)
    if cut.sparsity <= psi_bound and 2 * min(len(removed), n - len(removed)) >= z:
        return cut
    return None


def test_cut_phase_matches_the_dict_relabel_reference():
    import random

    from balcut.routing import _cut_phase

    rng = random.Random(5)
    peeled = 0
    for trial in range(80):
        n = rng.randint(24, 60)
        edges = [(v, (v + 1) % n) for v in range(n)]  # a cycle plus chords
        edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))]
        edges = [(u, v) for u, v in edges if u != v]
        g = MultiGraph(n, edges)
        alive = bytearray(int(rng.random() < 0.9) for _ in edges)
        terminals = rng.sample(range(n), 8)
        residual = [({terminals[0], terminals[1]}, {terminals[2]}),
                    ({terminals[3]}, {terminals[4], terminals[5]}),
                    ({terminals[6]}, {terminals[7]})]
        ell = rng.randint(2, 5)
        args = (g, residual, alive, ell, rng.randint(0, 4), Fraction(rng.randint(1, 6), 2))
        want = _cut_phase_reference(*args)
        assert _cut_phase(*args) == want
        peeled += want is not None and want.size > 2 * ell
    assert peeled >= 5


def test_edge_ids_along_take_the_lowest_live_parallel_copy():
    from balcut.errors import DiagnosticFailure
    from balcut.routing import _edge_ids_along

    g = MultiGraph(4, [(1, 2), (0, 1), (2, 1), (0, 1), (2, 3), (1, 2)])
    alive = bytearray([1] * g.m)
    assert _edge_ids_along(g, [0, 1, 2, 3], alive) == [1, 0, 4]
    assert _edge_ids_along(g, [3, 2, 1, 0], alive) == [4, 0, 1]
    alive[0] = alive[1] = 0
    assert _edge_ids_along(g, [0, 1, 2, 3], alive) == [3, 2, 4]
    alive[4] = 0
    with pytest.raises(DiagnosticFailure):
        _edge_ids_along(g, [1, 2, 3], alive)
