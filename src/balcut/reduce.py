"""Degree reduction: replace every vertex by a constant-degree expander.

Each original vertex v becomes a cluster of deg(v) hat vertices carrying a
copy of ``construct_expander(deg(v))`` (type-1 edges); each original edge
becomes one type-2 edge joining the two hat vertices that represent its
endpoints.  The reduced graph has 2m vertices, maximum degree at most 10,
and volumes translate to plain vertex counts: a canonical vertex set (one
that never splits a cluster) of size s corresponds to an original vertex
set of volume s.

The reduction is a view of the input's incidence CSR: hat vertex k is
incidence slot k, so v's cluster is ``indptr[v] .. indptr[v+1]-1``.  Every
vertex set that crosses this module's API is a boolean mask, over V(hat_g)
for hat vertices and over range(n) for original ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .expanders import construct_expander
from .graph import MultiGraph, _distinct


@dataclass(frozen=True)
class ReducedGraph:
    """The degree-reduced companion of an original graph g.

    Attributes:
        hat_g: the reduced graph on 2m vertices, max degree <= 10.  Its
            first ``hat_g.m - g.m`` edges are the clusters' expander edges
            (type 1); hat edge ``hat_g.m - g.m + e`` is the image of
            original edge e (type 2).
        indptr: g's read-only incidence offsets; v's cluster is the hat
            vertices ``indptr[v] .. indptr[v+1]-1`` (none if v is isolated).
        owner: the original vertex of each hat vertex (read-only).
    """

    hat_g: MultiGraph
    indptr: np.ndarray
    owner: np.ndarray


def reduce_degree(g: MultiGraph) -> ReducedGraph:
    """Build the reduced graph; linear in the number of edges.

    The hat vertex of an incidence is its position in g's incidence CSR, so
    edge e joins the positions of its slots 2e (at u) and 2e + 1 (at v).
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
    # vertex order; one broadcast writes the clusters of each size.
    sizes = _distinct(deg[deg > 0])
    inners = [construct_expander(d) for d in sizes.tolist()]
    inner_m = np.zeros(int(deg.max()) + 1, dtype=np.int64)
    inner_m[sizes] = [h.m for h in inners]
    count = inner_m[deg]
    at = np.cumsum(count) - count  # each vertex's first type-1 edge
    type1 = int(at[-1] + count[-1])
    hat_u = np.empty(type1 + g.m, dtype=np.int64)
    hat_v = np.empty_like(hat_u)
    by_deg = np.argsort(deg, kind="stable")
    groups = np.split(by_deg, np.searchsorted(deg[by_deg], sizes))[1:]
    for verts, h in zip(groups, inners):
        rows = (at[verts, None] + np.arange(h.m)).ravel()
        shift = indptr[verts, None]
        hat_u[rows] = (shift + h.eu).ravel()
        hat_v[rows] = (shift + h.ev).ravel()
    hat_u[type1:] = pos[0::2]
    hat_v[type1:] = pos[1::2]

    hat_g = MultiGraph._from_arrays(total, hat_u, hat_v)
    assert hat_g.n == 2 * g.m
    assert hat_g.max_degree() <= 10
    owner.flags.writeable = False
    return ReducedGraph(hat_g, indptr, owner)


def _check_mask(mask: np.ndarray, n: int, what: str) -> None:
    if not (isinstance(mask, np.ndarray) and mask.dtype == np.bool_
            and mask.shape == (n,)):
        raise InvalidInput(f"{what} must be a boolean mask over {n} vertices")


def _cluster_counts(r: ReducedGraph, member: np.ndarray, what: str):
    """(inside, size) per original vertex: the members of the hat vertex
    mask ``member`` in its cluster, and the cluster's size."""
    _check_mask(member, r.hat_g.n, what)
    prefix = np.zeros(len(member) + 1, dtype=np.int64)
    np.cumsum(member, out=prefix[1:])
    return np.diff(prefix[r.indptr]), np.diff(r.indptr)


def is_canonical(r: ReducedGraph, member: np.ndarray) -> bool:
    """True iff the hat vertex mask never splits a cluster."""
    inside, size = _cluster_counts(r, member, "vertex set")
    return bool(((inside == 0) | (inside == size)).all())


def lift_cut(r: ReducedGraph, side: np.ndarray) -> np.ndarray:
    """The canonical hat vertex mask of an original vertex mask."""
    _check_mask(side, len(r.indptr) - 1, "original side")
    return side[r.owner]


def make_canonical(r: ReducedGraph, host: np.ndarray, a_side: np.ndarray) -> np.ndarray:
    """Resolve every split cluster to one side by per-cluster majority.

    ``host`` must be a canonical hat vertex mask and hold ``a_side``; B is
    the rest of the host.  Returns the new A, a canonical mask (the new B is
    ``host & ~A``).  A cluster that A splits lies in the host, so it goes
    wholly to the side holding most of it, ties to A.  Guarantees
    |A'| >= |A|/2 and |B'| >= |B|/2 whenever the input cut sparsity is at
    most half the cluster expanders' sparsity floor; the edge blowup is
    charged against intra-cluster expander edges leaving the cut.
    """
    if not is_canonical(r, host):
        raise InvalidInput("host vertex set is not canonical")
    inside, size = _cluster_counts(r, a_side, "a_side")
    if (a_side & ~host).any():
        raise InvalidInput("a_side must lie in the host set")
    split = (inside > 0) & (inside < size)
    return np.where(split[r.owner], (2 * inside >= size)[r.owner], a_side)


def project_cut(r: ReducedGraph, a_side: np.ndarray) -> np.ndarray:
    """Map the canonical cut (A, V(hat_g) - A) back to an original vertex
    mask of A.

    Original vertex v lands in A iff its whole (nonempty) cluster does;
    isolated vertices (empty clusters) land in B.
    """
    inside, size = _cluster_counts(r, a_side, "a_side")
    whole = inside == size
    if not (whole | (inside == 0)).all():
        raise InvalidInput("a_side is not canonical")
    return whole & (size > 0)
