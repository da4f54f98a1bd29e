"""Multi-pair matching player: greedy short-path packing or a sparse cut.

Each round packs a maximal set of edge-disjoint paths of length at most
``ell`` between the residual terminal sets of the k families, one
Even-Shiloach tree per family over a shared decremental copy of the host
(virtual super-source/sink vertices extend depth by two).  When a round
makes too little progress, the residual terminals of every family are more
than ``ell`` apart, and simultaneous ball growing peels a cut whose
sparsity is at most 72 * Delta * log2ceil(n) / ell.

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
    bfs_levels,
    cut_edge_count,
    cut_stats,
    masked_subgraph,
    path_congestion,
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

    Families are served in index order; each gets one Even-Shiloach tree to
    depth ell + 2 over the shared depleted host.  A family's tree is built
    lazily on the host as already depleted by earlier families (edge
    deletions only lengthen distances, so the no-short-path conclusion for
    served families survives later deletions) and is dropped afterwards,
    which keeps every deletion a single-tree update.
    """
    n, m = g.n, g.m
    alive = bytearray([1]) * m if m else bytearray()
    src, dst = n, n + 1
    matches: list[list[tuple[int, int]]] = [[] for _ in residual]
    paths: dict[tuple[int, int], list[int]] = {}
    host_edges = g.edges
    for i, (a_set, b_set) in enumerate(residual):
        if not a_set or not b_set:
            continue
        edges = [e if alive[eid] else (src, src) for eid, e in enumerate(host_edges)]
        virt: dict[int, int] = {}
        for a in sorted(a_set):
            virt[a] = len(edges)
            edges.append((src, a))
        for b in sorted(b_set):
            virt[b] = len(edges)
            edges.append((b, dst))
        tree = ESTree(n + 2, edges, src, ell + 2)
        while a_set and b_set and tree.reachable(dst):
            walk = tree.path_to(dst)
            inner = walk[1:-1]
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
    dist = bfs_levels(h, sorted(s_set))
    if any(dist[t] <= ell for t in t_set):
        raise PreconditionViolated("an S-T path of length <= ell exists")
    n = h.n
    delta = max(h.max_degree(), 1)
    bound_num = 8 * delta * log2ceil(n)  # bound = bound_num / ell per vertex

    def grown(base: frozenset[int]) -> list[frozenset[int]]:
        balls = [base]
        cur = set(base)
        while True:
            nxt = set(cur)
            for v in cur:
                for _, w in h.neighbors(v):
                    nxt.add(w)
            balls.append(frozenset(nxt))
            if len(nxt) == len(cur):  # stabilized (hit a component boundary)
                return balls
            cur = nxt

    s_balls = grown(s_set)
    t_balls = grown(t_set)

    # The growth argument guarantees a qualifying radius below ceil(ell/4);
    # the scan checks every radius (degenerate instances stabilize on their
    # component ball) and keeps the sparsest qualifying ball, breaking ties
    # toward smaller radii and the S side.
    best = None  # (cross, |Z|, radius, side_rank, ball)
    for j in range(max(len(s_balls), len(t_balls)) - 1):
        for rank, balls in enumerate((s_balls, t_balls)):
            if j + 1 < len(balls):
                z = balls[j]
                nxt = balls[j + 1]
                if 2 * len(nxt) <= n:
                    cross = cut_edge_count(h, z)
                    if cross * ell < bound_num * len(z):
                        if best is None or cross * best[1] < best[0] * len(z):
                            best = (cross, len(z), j, rank, z)
    if best is None:
        raise DiagnosticFailure("no qualifying ball for the given ell")
    return best[4]


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

