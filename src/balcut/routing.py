"""Multi-pair matching player: greedy short-path packing or a sparse cut.

Each round packs a maximal set of edge-disjoint paths of length at most
``ell`` between the residual terminal sets of the k families, one
Even-Shiloach tree per family over one augmented host under a shared
live-edge mask (virtual super-source/sink vertices extend depth by two).
When a round makes too little progress, the residual terminals of every
family are more than ``ell`` apart, and simultaneous ball growing peels a
cut whose sparsity is at most 72 * Delta * log2ceil(n) / ell.

All logarithms are base two and are rounded up to integers inside bound
formulas, so every threshold is an exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    DiagnosticFailure,
    InvalidInput,
    PreconditionViolated,
)
from .estree import ESTree
from .graph import (
    Cut,
    MultiGraph,
    cut_stats,
    incidence_csr,
    masked_subgraph,
    path_congestion,
    threshold_cut_counts,
)


def log2ceil(n: int) -> int:
    """Smallest integer at least log2(n); 1 for n <= 2."""
    return max(1, (max(n, 1) - 1).bit_length())


@dataclass(frozen=True)
class PairFamily:
    """Disjoint terminal-set pairs (A_i, B_i) with |A_i| <= |B_i|."""

    pairs: tuple[tuple[frozenset[int], frozenset[int]], ...]

    @classmethod
    def of(cls, raw: Sequence[tuple[Sequence[int], Sequence[int]]]) -> "PairFamily":
        pairs = []
        seen: set[int] = set()
        for a, b in raw:
            fa, fb = frozenset(a), frozenset(b)
            if not fa or not fb:
                raise InvalidInput("terminal sets must be nonempty")
            if len(fa) > len(fb):
                raise InvalidInput("each family needs |A_i| <= |B_i|")
            if (fa | fb) & seen or fa & fb:
                raise InvalidInput("terminal sets must be mutually disjoint")
            seen |= fa | fb
            pairs.append((fa, fb))
        return cls(tuple(pairs))

    @property
    def k(self) -> int:
        return len(self.pairs)

    def demand(self) -> int:
        return sum(len(a) for a, _ in self.pairs)


@dataclass
class PartialRouting:
    """Per-family matchings with explicit paths and recounted congestion."""

    matchings: list[list[tuple[int, int]]]
    paths: dict[tuple[int, int], list[int]]
    congestion: int

    @property
    def value(self) -> int:
        return sum(len(m) for m in self.matchings)


def greedy_pack_round(
    g: MultiGraph,
    residual: list[tuple[set[int], set[int]]],
    ell: int,
) -> tuple[list[list[tuple[int, int]]], dict[tuple[int, int], list[int]], bytearray]:
    """One maximal edge-disjoint packing round.

    Returns (per-family matches, paths, alive-edge mask of the depleted
    graph).  On return no family admits a path of length <= ell between its
    residual terminal sets in the depleted graph.

    The round runs on one augmented host: g plus a super-source n and a
    super-sink n + 1, with every family's virtual edges (n, a) and (b, n + 1)
    appended after g's edges, family by family in ascending terminal order,
    under one live-edge mask in which a family's virtual edges are live only
    while it is served.  Families are served in index order; each gets one
    Even-Shiloach tree to depth ell + 2 over the host as already depleted by
    earlier families (edge deletions only lengthen distances, so the
    no-short-path conclusion for served families survives later deletions).
    A tree is dropped as soon as its family runs out of terminals on either
    side: the last path's edges die in the mask without a tree repair.
    """
    n, m = g.n, g.m
    src, dst = n, n + 1
    heads: list[int] = []
    tails: list[int] = []
    bounds = [m]
    for a_set, b_set in residual:
        a_ids, b_ids = sorted(a_set), sorted(b_set)
        heads += [src] * len(a_ids) + b_ids
        tails += a_ids + [dst] * len(b_ids)
        bounds.append(m + len(heads))
    host = MultiGraph._from_arrays(
        n + 2,
        np.concatenate([g.eu, np.array(heads, dtype=np.int64)]),
        np.concatenate([g.ev, np.array(tails, dtype=np.int64)]),
    )
    alive = bytearray([1]) * m + bytearray(bounds[-1] - m)
    matches: list[list[tuple[int, int]]] = [[] for _ in residual]
    paths: dict[tuple[int, int], list[int]] = {}
    for i, (a_set, b_set) in enumerate(residual):
        if not a_set or not b_set:
            continue
        lo, hi = bounds[i], bounds[i + 1]
        alive[lo:hi] = bytearray([1]) * (hi - lo)
        tree = ESTree(host, src, ell + 2, alive)
        while tree.reachable(dst):
            inner = tree.path_to(dst)[1:-1]
            if len(inner) - 1 > ell:
                raise DiagnosticFailure("packed path longer than ell")
            a, b = inner[0], inner[-1]
            matches[i].append((a, b))
            paths[(a, b)] = inner
            a_set.discard(a)
            b_set.discard(b)
            # The virtual edges (src, a) and (b, dst), then the host edges.
            spent = [tree.parent_edge[a], tree.parent_edge[dst],
                     *_edge_ids_along(host, inner, alive)]
            if not a_set or not b_set:
                for eid in spent:
                    alive[eid] = 0
                break
            for eid in spent:
                tree.delete_edge(eid)
        alive[lo:hi] = bytearray(hi - lo)
    return matches, paths, alive[:m]


def _edge_ids_along(g: MultiGraph, path: list[int], alive: bytearray) -> list[int]:
    """Pick the lowest live edge id for each consecutive path pair.

    ES-tree paths are simple, so no pair repeats within one path."""
    chosen = []
    indptr, inc, nbr = g.slots
    for x, y in zip(path, path[1:]):
        for k in range(indptr[x], indptr[x + 1]):
            eid = inc[k]
            if nbr[k] == y and alive[eid]:
                chosen.append(eid)
                break
        else:
            raise DiagnosticFailure("path step without a live edge")
    return chosen


def ball_grow_cut(h: MultiGraph, s_set, t_set, ell: int) -> frozenset[int]:
    """Simultaneous BFS balls around far-apart sets S and T.

    Returns Z with |Z| <= n/2, S <= Z or T <= Z, and strictly fewer than
    (8 * Delta * log2ceil(n) / ell) * |Z| crossing edges.  Requires every
    S-T path to be longer than ell.
    """
    if ell <= 1:
        raise InvalidInput("ball growing needs ell > 1")
    s_set = frozenset(s_set)
    t_set = frozenset(t_set)
    if not s_set or not t_set:
        raise InvalidInput("ball growing needs nonempty sets")
    dist = _hop_distances(h, s_set)
    if any(dist[t] <= ell for t in t_set):
        raise PreconditionViolated("an S-T path of length <= ell exists")
    n = h.n
    delta = max(h.max_degree(), 1)
    bound_num = 8 * delta * log2ceil(n)  # bound = bound_num / ell per vertex
    sides = [_balls(h, dist), _balls(h, _hop_distances(h, t_set))]
    # Ball j of a side is {dist <= j}, up to the radius where it stabilizes
    # (its component ball).  The growth argument guarantees a qualifying
    # radius below ceil(ell/4); every radius is checked, and the sparsest
    # qualifying ball wins, ties going to smaller radii and then the S side.
    qualifying = [
        (Fraction(cross[j], sizes[j]), j, rank)
        for rank, (_, sizes, cross) in enumerate(sides)
        for j in range(len(cross))
        if 2 * sizes[j + 1] <= n and cross[j] * ell < bound_num * sizes[j]
    ]
    if not qualifying:
        raise DiagnosticFailure("no qualifying ball for the given ell")
    _, j, rank = min(qualifying)
    return frozenset(np.flatnonzero(sides[rank][0] <= j).tolist())


def _hop_distances(h: MultiGraph, sources) -> np.ndarray:
    """Hop distances from the nearest source (inf if unreachable), from
    scipy's unweighted search; they are exact integers held as floats."""
    # Imported on first use: csgraph pulls in scipy.sparse.linalg.
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(incidence_csr(h), indices=sorted(sources), unweighted=True,
                    min_only=True)


def _balls(h: MultiGraph, d: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """(key, sizes, crossings) of hop distances: ``key`` holds them as
    integers with unreachable vertices at e + 1, e the largest finite one;
    ``sizes[j]`` and ``crossings[j]`` count the vertices and crossing edges
    of the ball {key <= j}, j = 0 .. e, and ``sizes[e + 1] = sizes[e]``."""
    finite = np.isfinite(d)
    top = int(d[finite].max()) + 1
    key = np.where(finite, d, top).astype(np.int64)
    crossings, _ = threshold_cut_counts(h, key, top)
    sizes = np.cumsum(np.bincount(key, minlength=top + 1))[:top].tolist()
    return key, sizes + sizes[-1:], crossings


def route_or_cut(
    g: MultiGraph,
    fam: PairFamily,
    z: int,
    ell: int,
) -> PartialRouting | Cut:
    """Route almost all pairs with short paths or peel a sparse cut.

    Either a routing of value >= sum(n_i) - z with path lengths <= ell and
    congestion <= ell^2, or a cut (X, Y) with |X|, |Y| >= z/2 and
    Psi <= 72 * Delta * log2ceil(n) / ell; every bound is recounted and a
    DiagnosticFailure is raised if neither branch can meet its contract
    (possible when ell is below the analysis floor 32 * Delta * log2(n)).
    """
    if ell < 2:
        raise InvalidInput("ell must be at least 2")
    if z < 0:
        raise InvalidInput("z must be nonnegative")
    n = g.n
    delta = max(g.max_degree(), 1)
    l2 = log2ceil(n)
    psi_bound = Fraction(72 * delta * l2, ell)
    residual = [(set(a), set(b)) for a, b in fam.pairs]
    matchings: list[list[tuple[int, int]]] = [[] for _ in fam.pairs]
    all_paths: dict[tuple[int, int], list[int]] = {}
    rounds = 0
    max_rounds = ell * ell
    while True:
        demand = sum(len(a) for a, _ in residual)
        if demand <= z:
            congestion = path_congestion(g, list(all_paths.values()))
            if congestion > max_rounds:
                raise DiagnosticFailure("routing congestion exceeded ell^2")
            return PartialRouting(matchings, all_paths, congestion)
        if rounds >= max_rounds:
            raise DiagnosticFailure(
                f"no progress within ell^2 = {max_rounds} rounds"
            )
        round_matches, round_paths, alive = greedy_pack_round(g, residual, ell)
        rounds += 1
        got = sum(len(mm) for mm in round_matches)
        for i, mm in enumerate(round_matches):
            matchings[i].extend(mm)
        all_paths.update(round_paths)
        threshold = -(-8 * l2 * demand // (ell * ell))
        if got >= max(1, threshold):
            continue
        left = sum(len(a) for a, _ in residual)
        if left <= z:
            continue  # the final bookkeeping pass returns the routing
        cut = _cut_phase(g, residual, alive, ell, z, psi_bound)
        if cut is not None:
            return cut
        if got == 0:
            raise DiagnosticFailure(
                "stalled round and the peeled cut missed its recounted bounds"
            )


def _cut_phase(
    g: MultiGraph,
    residual: list[tuple[set[int], set[int]]],
    alive: bytearray,
    ell: int,
    z: int,
    psi_bound: Fraction,
) -> Cut | None:
    """Peel ball cuts around far-apart families in the depleted graph."""
    n = g.n
    live = np.frombuffer(alive, dtype=np.uint8).astype(bool)
    keep = np.ones(n, dtype=bool)
    removed: set[int] = set()
    a_res = [set(a) for a, _ in residual]
    b_res = [set(b) for _, b in residual]
    while len(removed) <= n // 4:
        j = next(
            (i for i in range(len(residual)) if a_res[i] and b_res[i]),
            None,
        )
        if j is None:
            break
        h, verts = masked_subgraph(g, keep, live)
        idx = verts.tolist()
        new_id = {v: i for i, v in enumerate(idx)}
        try:
            zball = ball_grow_cut(
                h,
                {new_id[v] for v in a_res[j]},
                {new_id[v] for v in b_res[j]},
                ell,
            )
        except (PreconditionViolated, DiagnosticFailure):
            return None
        zorig = {idx[i] for i in zball}
        removed |= zorig
        keep[list(zorig)] = False
        for i in range(len(residual)):
            a_res[i] -= zorig
            b_res[i] -= zorig
    if not removed or len(removed) >= n:
        return None
    cut = cut_stats(g, removed)
    two_sizes = (len(removed), n - len(removed))
    if cut.sparsity <= psi_bound and 2 * min(two_sizes) >= z:
        return cut
    return None

