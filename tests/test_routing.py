import random
import re
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


def _greedy_pack_round_reference(g, residual, ell):
    """``greedy_pack_round`` as it was: per family, a fresh tree over a copy
    of the host edge list (dead edges rewritten as source self-loops) plus
    that family's virtual edges, a second host mask kept by hand, and every
    path's deletions repaired in the tree."""
    from balcut.errors import DiagnosticFailure
    from balcut.estree import ESTree
    from balcut.routing import _edge_ids_along

    n, m = g.n, g.m
    alive = bytearray([1]) * m
    src, dst = n, n + 1
    matches = [[] for _ in residual]
    paths = {}
    for i, (a_set, b_set) in enumerate(residual):
        if not a_set or not b_set:
            continue
        edges = [e if alive[eid] else (src, src) for eid, e in enumerate(g.edges)]
        virt = {}
        for a in sorted(a_set):
            virt[a] = len(edges)
            edges.append((src, a))
        for b in sorted(b_set):
            virt[b] = len(edges)
            edges.append((b, dst))
        tree = ESTree(MultiGraph(n + 2, edges), src, ell + 2)
        while a_set and b_set and tree.reachable(dst):
            inner = tree.path_to(dst)[1:-1]
            if len(inner) - 1 > ell:
                raise DiagnosticFailure("packed path longer than ell")
            a, b = inner[0], inner[-1]
            matches[i].append((a, b))
            paths[(a, b)] = inner
            tree.delete_edge(virt[a])
            tree.delete_edge(virt[b])
            a_set.discard(a)
            b_set.discard(b)
            for eid in _edge_ids_along(g, inner, alive):
                alive[eid] = 0
                tree.delete_edge(eid)
    return matches, paths, alive


def _ball_grow_cut_reference(h, s_set, t_set, ell):
    """``ball_grow_cut`` as it was: every radius's ball grown as a Python
    set and its crossing edges recounted."""
    from balcut.errors import DiagnosticFailure
    from balcut.graph import cut_edge_count
    from oracles import bfs_levels

    if ell <= 1:
        raise InvalidInput("ball growing needs ell > 1")
    s_set, t_set = frozenset(s_set), frozenset(t_set)
    if not s_set or not t_set:
        raise InvalidInput("ball growing needs nonempty sets")
    dist = bfs_levels(h, sorted(s_set))
    if any(dist[t] <= ell for t in t_set):
        raise PreconditionViolated("an S-T path of length <= ell exists")
    n = h.n
    bound_num = 8 * max(h.max_degree(), 1) * log2ceil(n)

    def grown(base):
        balls, cur = [base], set(base)
        while True:
            nxt = set(cur)
            for v in cur:
                nxt.update(w for _, w in h.neighbors(v))
            balls.append(frozenset(nxt))
            if len(nxt) == len(cur):
                return balls
            cur = nxt

    s_balls, t_balls = grown(s_set), grown(t_set)
    best = None
    for j in range(max(len(s_balls), len(t_balls)) - 1):
        for balls in (s_balls, t_balls):
            if j + 1 < len(balls) and 2 * len(balls[j + 1]) <= n:
                z = balls[j]
                cross = cut_edge_count(h, z)
                if cross * ell < bound_num * len(z):
                    if best is None or cross * best[1] < best[0] * len(z):
                        best = (cross, len(z), z)
    if best is None:
        raise DiagnosticFailure("no qualifying ball for the given ell")
    return best[2]


def _random_multigraph(rng, n):
    """Parallel edges, self-loops and a few isolated vertices."""
    isolated = set(rng.sample(range(n), rng.randint(0, n // 5)))
    live = [v for v in range(n) if v not in isolated]
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.choice(live)
        v = u if rng.random() < 0.06 else rng.choice(live)
        edges.append((u, v))
        if rng.random() < 0.12:
            edges.append((v, u))
    return MultiGraph(n, edges)


def _random_families(rng, n):
    """Up to four disjoint families of unequal sizes, |A_i| <= |B_i|."""
    order = rng.sample(range(n), n)
    fams = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(1, 3)
        b = rng.randint(a, a + 3)
        if a + b > len(order):
            break
        fams.append((order[:a], order[a:a + b]))
        order = order[a + b:]
    return fams


def test_pack_round_matches_the_per_family_copy_reference():
    rng = random.Random(23)
    matched = 0
    for _ in range(300):
        g = _random_multigraph(rng, rng.randint(6, 40))
        fams = _random_families(rng, g.n)
        ell = rng.randint(1, 8)
        res = [(set(a), set(b)) for a, b in fams]
        ref = [(set(a), set(b)) for a, b in fams]
        got = greedy_pack_round(g, res, ell)
        assert got == _greedy_pack_round_reference(g, ref, ell)
        assert res == ref
        matched += sum(len(mm) for mm in got[0])
    assert matched > 600


def test_ball_grow_matches_the_set_ball_reference():
    from balcut.errors import DiagnosticFailure

    rng = random.Random(29)
    balls = 0
    for _ in range(1500):
        g = _random_multigraph(rng, rng.randint(2, 30))
        picked = rng.sample(range(g.n), rng.randint(2, g.n))
        cut = rng.randint(1, len(picked) - 1)
        args = (g, picked[:cut], picked[cut:], rng.randint(1, 8))
        try:
            want = _ball_grow_cut_reference(*args)
        except (InvalidInput, PreconditionViolated, DiagnosticFailure) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                ball_grow_cut(*args)
            continue
        assert ball_grow_cut(*args) == want
        balls += 1
    assert balls > 200


def test_one_pair_family_tree_runs_no_repair(monkeypatch):
    # A family's tree is dropped once a side runs out: a one-pair family
    # never repairs, while a two-pair family repairs after its first path.
    from balcut.estree import ESTree

    repairs = []
    real_repair = ESTree._repair

    def counted(self, seed):
        repairs.append(seed)
        return real_repair(self, seed)

    monkeypatch.setattr(ESTree, "_repair", counted)
    g = complete_graph(8)
    matches, _, _ = greedy_pack_round(g, [({0}, {5})], 3)
    assert matches == [[(0, 5)]] and not repairs
    matches, _, _ = greedy_pack_round(g, [({0, 1}, {5, 6})], 3)
    assert len(matches[0]) == 2 and repairs
