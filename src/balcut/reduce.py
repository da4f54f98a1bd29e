"""Degree reduction: replace every vertex by a constant-degree expander.

Each original vertex v becomes a contiguous cluster of deg(v) vertices
carrying a copy of ``construct_expander(deg(v))`` (type-1 edges); each
original edge becomes one type-2 edge joining the two slot vertices that
represent its endpoints.  The reduced graph has 2m vertices, maximum degree
at most 10, and volumes translate to plain vertex counts: a canonical vertex
set (one that never splits a cluster) of size s corresponds to an original
vertex set of volume s.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Iterable

import numpy as np

from .errors import InvalidInput
from .expanders import construct_expander, expander_sparsity_floor
from .graph import MultiGraph, _distinct


@dataclass(frozen=True)
class ReducedGraph:
    """The degree-reduced companion of an original graph.

    Attributes:
        hat_g: the reduced graph on 2m vertices, max degree <= 10.
        clusters: per original vertex, the range of its slot vertices
            (empty for isolated vertices).
        edge_kind: 1 for intra-cluster expander edges, 2 for images of
            original edges, indexed by hat edge id.
        type2_map: original edge id -> hat edge id (a bijection).
        original_n: vertex count of the original graph.
    """

    hat_g: MultiGraph
    clusters: tuple[range, ...]
    edge_kind: tuple[int, ...]
    type2_map: tuple[int, ...]
    original_n: int

    @cached_property
    def _cluster_bounds(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Original vertex, first hat vertex and size of each nonempty
        cluster, in order."""
        k = len(self.clusters)
        start = np.fromiter((c.start for c in self.clusters), np.int64, k)
        size = np.fromiter(map(len, self.clusters), np.int64, k)
        owner = np.flatnonzero(size)
        return owner, start[owner], size[owner]


def reduce_degree(g: MultiGraph) -> ReducedGraph:
    """Build the reduced graph; linear in the number of edges.

    The hat vertex of an incidence is its position in g's incidence CSR, so
    v's cluster is ``range(indptr[v], indptr[v + 1])`` and edge e joins the
    positions of its slots 2e (at u) and 2e + 1 (at v).
    """
    g.reject_self_loops("degree reduction")
    if g.m < 1:
        raise InvalidInput("degree reduction needs at least one edge")
    deg, indptr = g.deg, g.indptr
    total = int(indptr[-1])
    # Inverse of the CSR slot order: slot 2e sits in u's block, 2e + 1 in v's.
    owner = np.repeat(np.arange(g.n), deg)
    slot = 2 * g.inc + (owner != g.eu[g.inc])
    pos = np.empty(total, dtype=np.int64)
    pos[slot] = np.arange(total)

    # Type-1 edges: each vertex's cluster expander shifted by indptr[v], in
    # vertex order, read from one table of every degree's expander edges.
    sizes = _distinct(deg[deg > 0])
    inners = [construct_expander(d) for d in sizes.tolist()]
    table_u = np.concatenate([h.eu for h in inners])
    table_v = np.concatenate([h.ev for h in inners])
    inner_m = np.zeros(int(deg.max()) + 1, dtype=np.int64)
    inner_m[sizes] = [h.m for h in inners]
    inner_at = np.zeros_like(inner_m)  # first table row of each degree
    inner_at[sizes] = np.cumsum(inner_m[sizes]) - inner_m[sizes]
    count = inner_m[deg]
    vertex = np.repeat(np.arange(g.n), count)
    row = inner_at[deg[vertex]] + np.arange(len(vertex)) - (np.cumsum(count) - count)[vertex]
    shift = indptr[vertex]
    hat_u = np.concatenate([table_u[row] + shift, pos[0::2]])
    hat_v = np.concatenate([table_v[row] + shift, pos[1::2]])
    type1 = len(vertex)

    hat_g = MultiGraph._from_arrays(total, hat_u, hat_v)
    assert hat_g.n == 2 * g.m
    assert hat_g.max_degree() <= 10
    clusters = tuple(range(a, b) for a, b in pairwise(indptr.tolist()))
    edge_kind = (1,) * type1 + (2,) * g.m
    type2_map = tuple(range(type1, type1 + g.m))
    return ReducedGraph(hat_g, clusters, edge_kind, type2_map, g.n)


def is_canonical(r: ReducedGraph, vertices: Iterable[int]) -> bool:
    """True iff the set never splits a cluster.  Ids outside V(hat_g) lie
    in no cluster and are ignored."""
    _, _, size = r._cluster_bounds
    inside = _cluster_counts(r, _membership(r, vertices))
    return bool(((inside == 0) | (inside == size)).all())


def _membership(r: ReducedGraph, vertices: Iterable[int]) -> np.ndarray:
    """Boolean mask over V(hat_g) of ``vertices``; other ids are dropped."""
    n = r.hat_g.n
    ids = np.fromiter(vertices, np.int64)
    member = np.zeros(n, dtype=bool)
    member[ids[(ids >= 0) & (ids < n)]] = True
    return member


def _cluster_counts(r: ReducedGraph, member: np.ndarray) -> np.ndarray:
    """Members in each nonempty cluster, in order.  The clusters tile
    V(hat_g) in order, so the segments between the nonempty clusters'
    first vertices are those clusters."""
    _, start, _ = r._cluster_bounds
    return np.add.reduceat(member, start, dtype=np.int64)


def lift_cut(r: ReducedGraph, side: Iterable[int]) -> frozenset[int]:
    """Map an original vertex set to its canonical slot-vertex set."""
    out: set[int] = set()
    for v in side:
        out.update(r.clusters[v])
    return frozenset(out)


def make_canonical(
    r: ReducedGraph,
    host: Iterable[int],
    a_side: Iterable[int],
    b_side: Iterable[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Resolve every split cluster to one side by per-cluster majority.

    ``host`` must be canonical and partitioned by (a_side, b_side).  Ties
    move the minority B part into A.  Guarantees |A'| >= |A|/2 and
    |B'| >= |B|/2 whenever the input cut sparsity is at most half the
    cluster expanders' sparsity floor; the edge blowup is charged against
    intra-cluster expander edges leaving the cut.
    """
    host_set = set(host)
    a = set(a_side)
    b = set(b_side)
    if a & b or (a | b) != host_set:
        raise InvalidInput("a_side/b_side must partition the host set")
    in_a = _membership(r, a)
    to_a = _majority_side(r, _membership(r, host_set), in_a)
    gain = np.flatnonzero(to_a & ~in_a).tolist()
    loss = np.flatnonzero(in_a & ~to_a).tolist()
    a.update(gain)
    a.difference_update(loss)
    b.update(loss)
    b.difference_update(gain)
    return frozenset(a), frozenset(b)


def _majority_side(r: ReducedGraph, host: np.ndarray, in_a: np.ndarray) -> np.ndarray:
    """``make_canonical``'s new A on boolean masks over V(hat_g).  A
    cluster that ``in_a`` splits lies in the canonical ``host``, so its B
    part is the rest of it; it goes wholly to its majority, ties to A."""
    if not is_canonical(r, np.flatnonzero(host)):
        raise InvalidInput("host vertex set is not canonical")
    _, _, size = r._cluster_bounds
    inside = _cluster_counts(r, in_a)
    split = (inside > 0) & (inside < size)
    return np.where(np.repeat(split, size), np.repeat(2 * inside >= size, size), in_a)


def canonical_blowup_constant(r: ReducedGraph) -> Fraction:
    """Reported bound 1 + 1/alpha0 on the make_canonical edge blowup.

    Uses the weakest per-cluster sparsity floor actually present.
    """
    sizes = {len(c) for c in r.clusters if len(c) >= 2}
    if not sizes:
        return Fraction(1)
    floor = min(expander_sparsity_floor(s) for s in sizes)
    return 1 + 1 / floor


def project_cut(
    r: ReducedGraph, a_side: Iterable[int], b_side: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Map a canonical partition of all of V(hat_g) back to original vertices.

    Original vertex v lands in A iff its whole (nonempty) cluster does;
    isolated vertices (empty clusters) land in B.
    """
    a = set(a_side)
    b = set(b_side)
    if a & b or len(a) + len(b) != r.hat_g.n:
        raise InvalidInput("canonical sides must partition V(hat_g)")
    return _project_mask(r, _membership(r, a))


def _project_mask(r: ReducedGraph, in_a: np.ndarray) -> tuple[frozenset[int], frozenset[int]]:
    """``project_cut`` of the partition (in_a, ~in_a) of V(hat_g)."""
    if not is_canonical(r, np.flatnonzero(in_a)):
        raise InvalidInput("a_side is not canonical")
    owner, _, size = r._cluster_bounds
    orig_a = np.zeros(r.original_n, dtype=bool)
    orig_a[owner[_cluster_counts(r, in_a) == size]] = True
    return (frozenset(np.flatnonzero(orig_a).tolist()),
            frozenset(np.flatnonzero(~orig_a).tolist()))
