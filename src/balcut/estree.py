"""Even-Shiloach decremental BFS trees with bounded depth and path queries.

The tree maintains, under edge deletions, the exact BFS level of every
vertex up to a depth cap D (vertices beyond the cap report infinity) and
answers shortest-path queries along parent pointers in time linear in the
path length.  Levels only ever increase; every vertex re-scans its
incidence slots once per level it gains, which gives the classic
O(|E| * D + n) total update time.

A tree is a view of its host's incidence CSR under a live-edge mask that
the caller may share between trees; deleting an edge clears it there.
"""

from __future__ import annotations

import heapq
from collections import deque

from .errors import InvalidInput, StaleEdge
from .graph import MultiGraph

INF = float("inf")


class ESTree:
    """Decremental single-source BFS over ``g.slots`` and a live-edge mask.

    ``alive`` is a bytearray with one entry per edge of ``g`` (nonzero for
    a live edge), owned by the caller; ``None`` starts with every edge live.
    The tree keeps levels, parent vertices and edges and one absolute slot
    pointer per vertex; no edge list, adjacency or child sets of its own.
    """

    __slots__ = (
        "n", "indptr", "inc", "nbr", "eu", "ev", "alive", "root", "depth_cap",
        "_level", "_unreach", "parent", "parent_edge", "scan_ptr",
        "level_increments",
    )

    def __init__(self, g: MultiGraph, root: int, depth_cap: int,
                 alive: bytearray | None = None):
        if not (0 <= root < g.n):
            raise InvalidInput(f"root {root} out of range")
        if depth_cap < 0:
            raise InvalidInput("depth cap must be nonnegative")
        if alive is None:
            alive = bytearray([1]) * g.m
        elif len(alive) != g.m:
            raise InvalidInput("the alive mask needs one entry per edge")
        self.n = g.n
        self.indptr, self.inc, self.nbr = g.slots
        self.eu, self.ev = g.eu, g.ev
        self.alive = alive
        self.root = root
        self.depth_cap = depth_cap
        self._unreach = depth_cap + 1
        self._level = [self._unreach] * g.n
        self.parent = [-1] * g.n
        self.parent_edge = [-1] * g.n
        self.scan_ptr = self.indptr[:-1]  # absolute slot index per vertex
        self.level_increments = 0
        self._initial_bfs()

    def _initial_bfs(self) -> None:
        indptr, inc, nbr, alive = self.indptr, self.inc, self.nbr, self.alive
        level, unreach = self._level, self._unreach
        parent, parent_edge = self.parent, self.parent_edge
        level[self.root] = 0
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            lv = level[v]
            if lv >= self.depth_cap:
                continue
            for k in range(indptr[v], indptr[v + 1]):
                w = nbr[k]
                if level[w] == unreach and alive[inc[k]]:
                    level[w] = lv + 1
                    parent[w] = v
                    parent_edge[w] = inc[k]
                    queue.append(w)

    def level(self, v: int) -> float:
        lv = self._level[v]
        return INF if lv > self.depth_cap else lv

    def levels(self) -> list[float]:
        return [self.level(v) for v in range(self.n)]

    def reachable(self, v: int) -> bool:
        return self._level[v] <= self.depth_cap

    def delete_edge(self, eid: int) -> None:
        """Remove an edge from the shared mask and restore truncated BFS
        levels."""
        if not (0 <= eid < len(self.alive)) or not self.alive[eid]:
            raise StaleEdge(f"edge {eid} is not present")
        self.alive[eid] = 0
        for w in (int(self.eu[eid]), int(self.ev[eid])):
            if self.parent_edge[w] == eid:  # at most one end hangs on eid
                self.parent_edge[w] = -1
                self._repair(w)

    def _repair(self, seed: int) -> None:
        # Every entry is a detached non-root vertex at its current level: a
        # vertex is pushed only as it detaches (the root never does), so it
        # is queued at most once, and only a popped vertex changes level.
        heap = [(self._level[seed], seed)]
        while heap:
            lvl, w = heapq.heappop(heap)
            if self._try_attach(w):
                continue
            # No neighbor one level up: w sinks one level deeper, and the
            # children hanging on it, found on its own slots, detach.
            for k in range(self.indptr[w], self.indptr[w + 1]):
                c = self.nbr[k]
                if self.parent_edge[c] == self.inc[k]:  # c hangs on w
                    self.parent_edge[c] = -1
                    heapq.heappush(heap, (self._level[c], c))
            self.scan_ptr[w] = self.indptr[w]
            self._level[w] = lvl + 1
            self.level_increments += 1
            if self._level[w] <= self.depth_cap:
                heapq.heappush(heap, (self._level[w], w))
            # else: w is now past the cap and stays unreachable.

    def _try_attach(self, w: int) -> bool:
        want = self._level[w] - 1
        level, parent_edge = self._level, self.parent_edge
        inc, nbr = self.inc, self.nbr
        end = self.indptr[w + 1]
        ptr = self.scan_ptr[w]
        while ptr < end:
            x = nbr[ptr]
            if level[x] == want and self.alive[inc[ptr]] and (
                parent_edge[x] != -1 or x == self.root
            ):
                self.parent[w] = x
                parent_edge[w] = inc[ptr]
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
        while v != self.root:
            v = self.parent[v]
            path.append(v)
        path.reverse()
        return path
