import heapq
import random
from collections import deque

import pytest

from balcut.errors import InvalidInput, StaleEdge
from balcut.estree import INF, ESTree
from balcut.generators import cycle_graph, path_graph, random_graph
from balcut.graph import MultiGraph
from oracles import bfs_levels


def truncated_bfs(g, root, cap, alive):
    levels = bfs_levels(g, [root], depth_cap=cap, alive_edge=alive)
    return [lv if lv <= cap else INF for lv in levels]


def test_path_graph_levels():
    g = path_graph(5)
    t = ESTree(g, 0, 10)
    assert t.levels() == [0, 1, 2, 3, 4]
    t2 = ESTree(g, 0, 2)
    assert t2.levels() == [0, 1, 2, INF, INF]


def test_build_matches_bfs_random():
    for seed in range(10):
        g = random_graph(20, 0.2, seed)
        t = ESTree(g, 0, 6)
        assert t.levels() == truncated_bfs(g, 0, 6, [1] * g.m)


def test_delete_middle_of_path():
    g = path_graph(5)
    t = ESTree(g, 0, 10)
    t.delete_edge(2)  # edge (2,3)
    assert t.levels() == [0, 1, 2, INF, INF]


def test_delete_cycle_edge_gives_path_distances():
    g = cycle_graph(8)
    t = ESTree(g, 0, 20)
    t.delete_edge(3)  # edge (3,4)
    alive = [1] * g.m
    alive[3] = 0
    assert t.levels() == truncated_bfs(g, 0, 20, alive)


def test_stale_deletion_raises():
    g = path_graph(3)
    t = ESTree(g, 0, 5)
    t.delete_edge(0)
    with pytest.raises(StaleEdge):
        t.delete_edge(0)


def test_random_decremental_runs_match_bfs():
    rng = random.Random(7)
    for run in range(12):
        g = random_graph(18, 0.25, 100 + run)
        cap = rng.choice([3, 5, 8])
        t = ESTree(g, run % g.n, cap)
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
    t = ESTree(g, 0, 10)
    assert t.path_to(4) == [0, 1, 2, 3, 4]
    t2 = ESTree(g, 0, 2)
    assert t2.path_to(4) is None

    for seed in range(8):
        g = random_graph(15, 0.3, 200 + seed)
        t = ESTree(g, 0, 4)
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
    t = ESTree(g, 0, 3)
    assert t.level(1) == 1
    t.delete_edge(0)
    assert t.level(1) == 1
    t.delete_edge(1)
    assert t.level(1) is INF


class _ESTreeReference:
    """``ESTree`` as it was over a private edge list: its own endpoint
    lists, one adjacency list of edge ids per vertex (a self-loop once),
    children as one set per vertex and scan pointers into the adjacency."""

    def __init__(self, n, edges, root, depth_cap):
        self.edge_u = [u for u, _ in edges]
        self.edge_v = [v for _, v in edges]
        self.alive = [1] * len(edges)
        self.adj = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            self.adj[u].append(eid)
            if u != v:
                self.adj[v].append(eid)
        self.n, self.root, self.depth_cap = n, root, depth_cap
        self._level = [depth_cap + 1] * n
        self.parent_edge = [-1] * n
        self.scan_ptr = [0] * n
        self.children = [set() for _ in range(n)]
        self.level_increments = 0
        self._level[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            if self._level[v] >= depth_cap:
                continue
            for eid in self.adj[v]:
                w = self._other(eid, v)
                if self._level[w] == depth_cap + 1 and w != v:
                    self._level[w] = self._level[v] + 1
                    self.parent_edge[w] = eid
                    self.children[v].add(w)
                    queue.append(w)

    def _other(self, eid, v):
        u = self.edge_u[eid]
        return self.edge_v[eid] if u == v else u

    def levels(self):
        return [lv if lv <= self.depth_cap else INF for lv in self._level]

    def delete_edge(self, eid):
        self.alive[eid] = 0
        dirty = []
        for w in (self.edge_u[eid], self.edge_v[eid]):
            if self.parent_edge[w] == eid:
                self.children[self._other(eid, w)].discard(w)
                self.parent_edge[w] = -1
                dirty.append(w)
        heap = [(self._level[w], w) for w in dirty]
        heapq.heapify(heap)
        while heap:
            lvl, w = heapq.heappop(heap)
            if lvl != self._level[w] or w == self.root or self.parent_edge[w] != -1:
                continue
            if self._try_attach(w):
                continue
            for c in self.children[w]:
                self.parent_edge[c] = -1
                heapq.heappush(heap, (self._level[c], c))
            self.children[w].clear()
            self.scan_ptr[w] = 0
            self._level[w] = lvl + 1
            self.level_increments += 1
            if self._level[w] <= self.depth_cap:
                heapq.heappush(heap, (self._level[w], w))

    def _try_attach(self, w):
        want = self._level[w] - 1
        adj = self.adj[w]
        ptr = self.scan_ptr[w]
        while ptr < len(adj):
            eid = adj[ptr]
            if self.alive[eid]:
                x = self._other(eid, w)
                if x != w and self._level[x] == want and (
                    self.parent_edge[x] != -1 or x == self.root
                ):
                    self.parent_edge[w] = eid
                    self.children[x].add(w)
                    self.scan_ptr[w] = ptr
                    return True
            ptr += 1
        self.scan_ptr[w] = ptr
        return False

    def path_to(self, v):
        if self._level[v] > self.depth_cap:
            return None
        path = [v]
        while v != self.root:
            v = self._other(self.parent_edge[v], v)
            path.append(v)
        return path[::-1]


def _random_multigraph(rng, n):
    """Parallel edges, self-loops and a few isolated vertices."""
    isolated = set(rng.sample(range(n), rng.randint(0, n // 5)))
    live = [v for v in range(n) if v not in isolated]
    edges = []
    for _ in range(rng.randint(0, 3 * n)):
        u = rng.choice(live)
        v = u if rng.random() < 0.08 else rng.choice(live)
        edges.append((u, v))
        if rng.random() < 0.15:
            edges.append((v, u))
    return MultiGraph(n, edges)


def test_csr_tree_matches_the_private_edge_list_reference():
    rng = random.Random(19)
    increments = 0
    for _ in range(150):
        g = _random_multigraph(rng, rng.randint(2, 30))
        root, cap = rng.randrange(g.n), rng.randint(1, 8)
        t = ESTree(g, root, cap)
        ref = _ESTreeReference(g.n, g.edges, root, cap)
        order = list(range(g.m))
        rng.shuffle(order)
        for eid in [None, *order]:
            if eid is not None:
                t.delete_edge(eid)
                ref.delete_edge(eid)
            assert t.levels() == ref.levels()
            assert [t.path_to(v) for v in range(g.n)] == [ref.path_to(v) for v in range(g.n)]
            assert t.level_increments == ref.level_increments
        increments += t.level_increments
    assert increments > 500


def test_shared_mask_is_read_and_cleared():
    # Edges dead in the caller's mask are absent from the start, and a
    # deletion clears the caller's entry.
    g = MultiGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    alive = bytearray([1, 1, 0, 1])
    t = ESTree(g, 0, 5, alive)
    assert t.levels() == [0, 1, 2, 3]
    t.delete_edge(1)
    assert alive == bytearray([1, 0, 0, 1])
    assert t.levels() == [0, 1, INF, INF]
    with pytest.raises(StaleEdge):
        t.delete_edge(2)
    with pytest.raises(InvalidInput):
        ESTree(g, 0, 5, bytearray(3))
