import random

import pytest

from balcut.errors import StaleEdge
from balcut.estree import INF, ESTree
from balcut.generators import cycle_graph, path_graph, random_graph
from balcut.graph import MultiGraph, bfs_levels


def truncated_bfs(g, root, cap, alive):
    levels = bfs_levels(g, [root], depth_cap=cap, alive_edge=alive)
    return [lv if lv <= cap else INF for lv in levels]


def test_path_graph_levels():
    g = path_graph(5)
    t = ESTree(g.n, g.edges, 0, 10)
    assert t.levels() == [0, 1, 2, 3, 4]
    t2 = ESTree(g.n, g.edges, 0, 2)
    assert t2.levels() == [0, 1, 2, INF, INF]


def test_build_matches_bfs_random():
    for seed in range(10):
        g = random_graph(20, 0.2, seed)
        t = ESTree(g.n, g.edges, 0, 6)
        assert t.levels() == truncated_bfs(g, 0, 6, [1] * g.m)


def test_delete_middle_of_path():
    g = path_graph(5)
    t = ESTree(g.n, g.edges, 0, 10)
    t.delete_edge(2)  # edge (2,3)
    assert t.levels() == [0, 1, 2, INF, INF]


def test_delete_cycle_edge_gives_path_distances():
    g = cycle_graph(8)
    t = ESTree(g.n, g.edges, 0, 20)
    t.delete_edge(3)  # edge (3,4)
    alive = [1] * g.m
    alive[3] = 0
    assert t.levels() == truncated_bfs(g, 0, 20, alive)


def test_stale_deletion_raises():
    g = path_graph(3)
    t = ESTree(g.n, g.edges, 0, 5)
    t.delete_edge(0)
    with pytest.raises(StaleEdge):
        t.delete_edge(0)


def test_random_decremental_runs_match_bfs():
    rng = random.Random(7)
    for run in range(12):
        g = random_graph(18, 0.25, 100 + run)
        cap = rng.choice([3, 5, 8])
        t = ESTree(g.n, g.edges, run % g.n, cap)
        alive = [1] * g.m
        order = list(range(g.m))
        rng.shuffle(order)
        prev = t.levels()
        for eid in order[: g.m // 2 + 5]:
            if eid >= g.m:
                continue
            t.delete_edge(eid)
            alive[eid] = 0
            now = t.levels()
            assert now == truncated_bfs(g, run % g.n, cap, alive)
            assert all(b >= a for a, b in zip(prev, now))  # monotone levels
            prev = now
        assert t.level_increments <= g.n * (cap + 1)


def test_path_queries():
    g = path_graph(5)
    t = ESTree(g.n, g.edges, 0, 10)
    assert t.path_to(4) == [0, 1, 2, 3, 4]
    t2 = ESTree(g.n, g.edges, 0, 2)
    assert t2.path_to(4) is None

    for seed in range(8):
        g = random_graph(15, 0.3, 200 + seed)
        t = ESTree(g.n, g.edges, 0, 4)
        edge_set = set()
        for u, v in g.edges:
            edge_set.add((u, v))
            edge_set.add((v, u))
        for v in range(g.n):
            p = t.path_to(v)
            if t.level(v) is INF or t.level(v) > 4:
                assert p is None
            else:
                assert p is not None
                assert len(p) - 1 == t.level(v)
                assert p[0] == 0 and p[-1] == v
                assert all((a, b) in edge_set for a, b in zip(p, p[1:]))


def test_parallel_edges_and_virtual_vertices():
    # Parallel edges: deleting one copy keeps the level, deleting both drops it.
    g = MultiGraph(2, [(0, 1), (0, 1)])
    t = ESTree(g.n, g.edges, 0, 3)
    assert t.level(1) == 1
    t.delete_edge(0)
    assert t.level(1) == 1
    t.delete_edge(1)
    assert t.level(1) is INF
