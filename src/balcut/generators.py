"""Deterministic graph generators for tests, benchmarks and the CLI.

The only randomness in the whole package lives here, behind explicit seeds.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InvalidParam
from .graph import MultiGraph, is_connected


def path_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> MultiGraph:
    if n < 3:
        raise InvalidParam("cycle needs at least 3 vertices")
    return MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> MultiGraph:
    return MultiGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(leaves: int) -> MultiGraph:
    """Center vertex 0 joined to `leaves` leaf vertices."""
    return MultiGraph(leaves + 1, [(0, i + 1) for i in range(leaves)])


def barbell_graph(k: int, path_len: int = 1) -> MultiGraph:
    """Two K_k blocks joined by a path of `path_len` edges.

    ``path_len=1`` is the classic single-bridge barbell.
    """
    if k < 2 or path_len < 1:
        raise InvalidParam("barbell needs k >= 2 and path_len >= 1")
    edges = []
    for i in range(k):
        for j in range(i + 1, k):
            edges.append((i, j))
            edges.append((k + i, k + j))
    inner = 2 * k
    prev = k - 1  # last vertex of the left block
    for t in range(path_len - 1):
        edges.append((prev, inner + t))
        prev = inner + t
    edges.append((prev, k))  # first vertex of the right block
    return MultiGraph(2 * k + max(0, path_len - 1), edges)


def two_triangles_bridge() -> MultiGraph:
    """Two triangles joined by one edge; the bridge cut has conductance 1/6."""
    return MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])


def random_graph(n: int, p: float, seed: int) -> MultiGraph:
    """G(n, p) with a fixed seed."""
    rng = random.Random(seed)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return MultiGraph(n, edges)


def random_connected_graph(n: int, p: float, seed: int) -> MultiGraph:
    """G(n, p) conditioned on connectivity by bumping the seed."""
    for attempt in range(10_000):
        g = random_graph(n, p, seed + attempt)
        if g.m and is_connected(g):
            return g
    raise InvalidParam(f"could not draw a connected G({n},{p})")


def random_regularish_graph(n: int, d: int, seed: int) -> MultiGraph:
    """Union of d random perfect matchings on n vertices (n even).

    Degree is exactly d; parallel edges may occur.  Used for planted
    expander blocks at scale, where a constant-degree expanding block is
    needed deterministically from a seed.  Round r shuffles the vertex list
    and pairs positions 2i and 2i + 1 into edge ``r * n // 2 + i``.
    """
    if n % 2 or n < 0 or d < 0:
        raise InvalidParam("matching-union graph needs even n >= 0 and d >= 0")
    rng = random.Random(seed)
    verts = list(range(n))
    half = n // 2
    eu, ev = np.empty(d * half, dtype=np.int64), np.empty(d * half, dtype=np.int64)
    for u_row, v_row in zip(eu.reshape(d, half), ev.reshape(d, half)):
        rng.shuffle(verts)
        u_row[:] = verts[0::2]
        v_row[:] = verts[1::2]
    return MultiGraph._from_arrays(n, eu, ev)


def planted_expander_union(block_sizes: list[int], degree: int, bridges: list[tuple[int, int]],
                           seed: int) -> tuple[MultiGraph, list[int]]:
    """Disjoint matching-union expander blocks plus explicit bridge edges.

    ``bridges`` lists (block_a, block_b) pairs; each adds one edge between
    deterministic pseudo-random endpoints of the two blocks.  Returns the
    graph and the planted block label per vertex.
    """
    offsets = np.cumsum([0, *block_sizes]).tolist()
    blocks = [random_regularish_graph(size, degree, seed + 7 * bi)
              for bi, size in enumerate(block_sizes)]
    rng = random.Random(seed + 999)
    bridge_ends = np.array([
        (offsets[a] + rng.randrange(block_sizes[a]), offsets[b] + rng.randrange(block_sizes[b]))
        for a, b in bridges
    ], dtype=np.int64).reshape(-1, 2)
    eu = np.concatenate([g.eu + off for g, off in zip(blocks, offsets)] + [bridge_ends[:, 0]])
    ev = np.concatenate([g.ev + off for g, off in zip(blocks, offsets)] + [bridge_ends[:, 1]])
    labels = np.repeat(np.arange(len(block_sizes)), block_sizes).tolist()
    return MultiGraph._from_arrays(offsets[-1], eu, ev), labels
