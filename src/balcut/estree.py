"""Even-Shiloach decremental BFS trees with bounded depth and path queries.

The tree maintains, under edge deletions, the exact BFS level of every
vertex up to a depth cap D (vertices beyond the cap report infinity) and
answers shortest-path queries along parent pointers in time linear in the
path length.  Levels only ever increase; every vertex re-scans its
adjacency list once per level it gains, which gives the classic
O(|E| * D + n) total update time.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from .errors import InvalidInput, StaleEdge

INF = float("inf")


class ESTree:
    """Decremental single-source BFS structure over a private edge list."""

    __slots__ = (
        "n", "edge_u", "edge_v", "alive", "adj", "root", "depth_cap",
        "_level", "_unreach", "parent_edge", "scan_ptr", "children",
        "level_increments",
    )

    def __init__(self, n: int, edges: Sequence[tuple[int, int]], root: int, depth_cap: int):
        if not (0 <= root < n):
            raise InvalidInput(f"root {root} out of range")
        if depth_cap < 0:
            raise InvalidInput("depth cap must be nonnegative")
        self.n = n
        self.edge_u = [u for u, _ in edges]
        self.edge_v = [v for _, v in edges]
        self.alive = bytearray([1]) * len(edges) if edges else bytearray()
        adj: list[list[int]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(edges):
            adj[u].append(eid)
            if u != v:
                adj[v].append(eid)
        self.adj = adj
        self.root = root
        self.depth_cap = depth_cap
        self._unreach = depth_cap + 1
        self._level = [self._unreach] * n
        self.parent_edge = [-1] * n
        self.scan_ptr = [0] * n
        self.children: list[set[int]] = [set() for _ in range(n)]
        self.level_increments = 0
        self._initial_bfs()

    def _other(self, eid: int, v: int) -> int:
        u = self.edge_u[eid]
        return self.edge_v[eid] if u == v else u

    def _initial_bfs(self) -> None:
        from collections import deque

        self._level[self.root] = 0
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            lv = self._level[v]
            if lv >= self.depth_cap:
                continue
            for eid in self.adj[v]:
                w = self._other(eid, v)
                if self._level[w] == self._unreach and w != v:
                    self._level[w] = lv + 1
                    self.parent_edge[w] = eid
                    self.children[v].add(w)
                    queue.append(w)

    def level(self, v: int) -> float:
        lv = self._level[v]
        return INF if lv > self.depth_cap else lv

    def levels(self) -> list[float]:
        return [self.level(v) for v in range(self.n)]

    def reachable(self, v: int) -> bool:
        return self._level[v] <= self.depth_cap

    def delete_edge(self, eid: int) -> None:
        """Remove an edge and restore truncated BFS levels."""
        if not (0 <= eid < len(self.edge_u)) or not self.alive[eid]:
            raise StaleEdge(f"edge {eid} is not present")
        self.alive[eid] = 0
        dirty = []
        for w in (self.edge_u[eid], self.edge_v[eid]):
            if self.parent_edge[w] == eid:
                p = self._other(eid, w)
                self.children[p].discard(w)
                self.parent_edge[w] = -1
                dirty.append(w)
        if dirty:
            self._repair(dirty)

    def _repair(self, seeds: Iterable[int]) -> None:
        heap = [(self._level[w], w) for w in seeds]
        heapq.heapify(heap)
        while heap:
            lvl, w = heapq.heappop(heap)
            if lvl != self._level[w] or w == self.root:
                continue
            if self.parent_edge[w] != -1:
                continue  # reattached by an earlier pop
            if self._try_attach(w):
                continue
            # No neighbor one level up: w sinks one level deeper.
            for c in self.children[w]:
                self.parent_edge[c] = -1
                heapq.heappush(heap, (self._level[c], c))
            self.children[w].clear()
            self.scan_ptr[w] = 0
            self._level[w] = lvl + 1
            self.level_increments += 1
            if self._level[w] <= self.depth_cap:
                heapq.heappush(heap, (self._level[w], w))
            # else: w is now past the cap and stays unreachable.

    def _try_attach(self, w: int) -> bool:
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

    def path_to(self, v: int) -> list[int] | None:
        """Root-to-v vertex path of length level(v), or None past the cap."""
        if self._level[v] > self.depth_cap:
            return None
        path = [v]
        w = v
        while w != self.root:
            eid = self.parent_edge[w]
            w = self._other(eid, w)
            path.append(w)
        path.reverse()
        return path

