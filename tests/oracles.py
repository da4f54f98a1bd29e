"""Brute-force oracles, certificate helpers and a plain BFS shared by the
tests.

The package's drivers reach the oracle through ``brute_force_extremum``
and ``certified_floor``; these thin wrappers exist only for the checks.
"""

from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from balcut.graph import MultiGraph, brute_force_extremum, masked_subgraph


def graph_conductance(g: MultiGraph) -> Fraction:
    """Brute-force Phi(G); only valid up to the oracle limit."""
    return brute_force_extremum(g, "conductance")[1]


def graph_sparsity(g: MultiGraph) -> Fraction:
    """Brute-force Psi(G); only valid up to the oracle limit."""
    return brute_force_extremum(g, "sparsity")[1]


def pruned_subgraph(
    g: MultiGraph, deleted: Sequence[int], a_side: Iterable[int]
) -> tuple[MultiGraph, list[int]]:
    """(g - deleted)[A] with its index map, for certificate checks."""
    alive = np.ones(g.m, dtype=bool)
    alive[list(deleted)] = False
    keep = np.zeros(g.n, dtype=bool)
    keep[list(a_side)] = True
    sub, verts = masked_subgraph(g, keep, alive)
    return sub, verts.tolist()


def bfs_levels(g: MultiGraph, sources: Sequence[int], depth_cap: int | None = None,
               alive_edge=None) -> list[float]:
    """Multi-source BFS distances; unreachable (or beyond cap) vertices get inf.

    The plain-Python reference that the ES-tree and ball-growing checks
    compare against.

    ``alive_edge`` may be a boolean sequence indexed by edge id restricting
    the traversal to live edges.
    """
    INF = float("inf")
    level: list[float] = [INF] * g.n
    queue = deque()
    for s in sources:
        if level[s] == INF:
            level[s] = 0
            queue.append(s)
    while queue:
        v = queue.popleft()
        lv = level[v]
        if depth_cap is not None and lv >= depth_cap:
            continue
        for eid, w in g.neighbors(v):
            if alive_edge is not None and not alive_edge[eid]:
                continue
            if level[w] == INF:
                level[w] = lv + 1
                queue.append(w)
    return level
