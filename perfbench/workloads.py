"""The benchmark's workloads.

Each workload makes its input from a seed, solves it with one call into a
public balcut driver (one *op*), and checks the op's output from outside
the package: every bound the driver promises is recounted here with
numpy on the raw edge list, never with balcut's own counting helpers.  A
check that fails raises ``CheckFailed``.

A workload also names the quality metrics it measures and gives a digest
of the op's partition and non-timing outputs, so that repetitions and runs
can be compared for byte-identical results.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

from balcut import (
    MultiGraph,
    bal_cut_prune,
    construct_expander,
    expander_decomposition,
    expander_prune,
    sparsest_cut,
)
from balcut.generators import planted_expander_union, random_regularish_graph

#: Quality metrics: name -> (unit, owning workload).  Every run reports all
#: of them; a workload that does not own a metric reports NOT_APPLICABLE.
QUALITY = {
    "recovery": ("frac", "decompose_planted"),
    "inter_cluster_frac": ("frac", "decompose_planted"),
    "cut_sparsity": ("edges/vertex", "sparsest_planted"),
    "approx_factor": ("ratio", "sparsest_planted"),
    "pruned_vol_frac": ("frac", "prune_batches"),
    "certified_phi": ("conductance", "certify_expander"),
}
NOT_APPLICABLE = 1.0


class CheckFailed(Exception):
    """An op's output broke a property the benchmark checks."""


def digest(obj) -> str:
    """sha256 of a canonical JSON rendering (Fractions render as strings)."""
    blob = json.dumps(obj, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def graph_digest(g: MultiGraph) -> str:
    h = hashlib.sha256(str(g.n).encode())
    h.update(np.asarray(g.edges, dtype=np.int64).tobytes())
    return h.hexdigest()


def _edge_array(g: MultiGraph) -> np.ndarray:
    return np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)


def _side_mask(n: int, side, what: str) -> np.ndarray:
    """Boolean membership mask of a vertex set, rejecting bad vertex ids."""
    ids = np.fromiter((int(v) for v in side), dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise CheckFailed(f"{what} holds a vertex outside 0..{n - 1}")
    if np.unique(ids).size != ids.size:
        raise CheckFailed(f"{what} repeats a vertex")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _check_bipartition(n: int, a_side, b_side) -> np.ndarray:
    """A and B must partition V exactly; returns A's mask."""
    a = _side_mask(n, a_side, "side A")
    b = _side_mask(n, b_side, "side B")
    if (a & b).any():
        raise CheckFailed("sides A and B overlap")
    if not (a | b).all():
        raise CheckFailed("sides A and B do not cover V")
    return a


def _crossing(edges: np.ndarray, label: np.ndarray) -> int:
    return int(np.count_nonzero(label[edges[:, 0]] != label[edges[:, 1]]))


class Input:
    """A generated input: the graph plus whatever the checks need."""

    def __init__(self, g: MultiGraph, **extra):
        self.g = g
        self.edges = _edge_array(g)
        self.vol = 2 * g.m
        self.__dict__.update(extra)

    def digest(self) -> str:
        return graph_digest(self.g)


# ---------------------------------------------------------------------------


class DecomposePlanted:
    name = "decompose_planted"
    blocks = [1000] * 4
    degree = 8
    bridges = [(0, 1), (1, 2), (2, 3)]
    eps = Fraction(1, 2)
    r = 2

    def setup(self, seed: int) -> Input:
        g, labels = planted_expander_union(self.blocks, self.degree, self.bridges, seed)
        return Input(g, planted=np.asarray(labels, dtype=np.int64))

    def reference(self, inp: Input):
        return None

    def solve(self, inp: Input):
        return expander_decomposition(inp.g, self.eps, self.r)

    def _labels(self, inp: Input, out) -> np.ndarray:
        n = inp.g.n
        label = np.full(n, -1, dtype=np.int64)
        for ci, cluster in enumerate(out.clusters):
            mask = _side_mask(n, cluster, f"cluster {ci}")
            if (label[mask] >= 0).any():
                raise CheckFailed(f"cluster {ci} overlaps an earlier cluster")
            label[mask] = ci
        if (label < 0).any():
            raise CheckFailed("clusters do not cover V")
        return label

    def recovery(self, inp: Input, label: np.ndarray) -> float:
        """Share of vertices on which clusters and planted blocks agree.

        Each planted block is matched to the cluster holding most of it and
        each cluster to the block it shares most with; the worse direction
        counts, so both merging blocks and splitting them lose recovery.
        """
        blocks = len(self.blocks)
        table = np.bincount(label * blocks + inp.planted,
                            minlength=(int(label.max()) + 1) * blocks)
        table = table.reshape(-1, blocks)
        n = inp.g.n
        return min(table.max(axis=0).sum() / n, table.max(axis=1).sum() / n)

    def check(self, inp: Input, ref, out) -> None:
        label = self._labels(inp, out)
        inter = _crossing(inp.edges, label)
        if inter != out.inter_cluster_edges:
            raise CheckFailed(
                f"reported {out.inter_cluster_edges} inter-cluster edges, recount {inter}")
        if inter > self.eps * inp.vol:
            raise CheckFailed(f"inter-cluster edges {inter} exceed eps*Vol")
        if len(out.certificates) != len(out.clusters):
            raise CheckFailed("one certificate per cluster expected")
        if any(not (Fraction(c) > 0) for c in out.certificates):
            raise CheckFailed("a cluster certificate is not positive")
        rec = self.recovery(inp, label)
        if rec < 0.95:
            raise CheckFailed(f"recovery {rec:.4f} below 0.95")

    def quality(self, inp: Input, out) -> dict:
        label = self._labels(inp, out)
        return {
            "recovery": self.recovery(inp, label),
            "inter_cluster_frac": float(
                Fraction(out.inter_cluster_edges) / (self.eps * inp.vol)),
        }

    def digest(self, out) -> str:
        return digest({
            "clusters": out.clusters,
            "inter": out.inter_cluster_edges,
            "certificates": [str(c) for c in out.certificates],
            "phi_target": str(out.phi_target),
            "report": out.report,
        })


class SparsestPlanted:
    name = "sparsest_planted"
    block = 200
    degree = 6
    r = 1

    def setup(self, seed: int) -> Input:
        g, labels = planted_expander_union([self.block] * 2, self.degree, [(0, 1)], seed)
        return Input(g, planted=np.asarray(labels, dtype=np.int64))

    def reference(self, inp: Input) -> Fraction:
        """Sparsity of the planted bridge cut, the value to beat."""
        return Fraction(_crossing(inp.edges, inp.planted), self.block)

    def solve(self, inp: Input):
        return sparsest_cut(inp.g, self.r)

    def check(self, inp: Input, ref: Fraction, out) -> None:
        n = inp.g.n
        side = _side_mask(n, out.cut.side, "cut side")
        size = int(side.sum())
        if not 0 < size < n:
            raise CheckFailed("the cut is not proper")
        value = Fraction(_crossing(inp.edges, side), min(size, n - size))
        if value != out.value or value != out.cut.sparsity:
            raise CheckFailed(f"reported sparsity {out.value}, recount {value}")
        if not 0 < out.floor <= value:
            raise CheckFailed(f"certified floor {out.floor} not in (0, {value}]")
        if value > ref:
            raise CheckFailed(f"sparsity {value} above the planted cut's {ref}")

    def quality(self, inp: Input, out) -> dict:
        return {
            "cut_sparsity": float(out.value),
            "approx_factor": float(out.value / out.floor),
        }

    def digest(self, out) -> str:
        return digest({
            "side": sorted(out.cut.side),
            "value": str(out.value),
            "floor": str(out.floor),
            "factor": repr(out.factor),
            "report": out.report,
        })


class PruneBatches:
    name = "prune_batches"
    n = 20000
    degree = 16
    phi = Fraction(1, 4)
    ball = 100
    batches = 3

    def _ball(self, g: MultiGraph, start: int) -> list[int]:
        seen = {start}
        order = [start]
        queue = deque([start])
        while queue and len(order) < self.ball:
            for _, w in g.neighbors(queue.popleft()):
                if w not in seen and len(order) < self.ball:
                    seen.add(w)
                    order.append(w)
                    queue.append(w)
        return order

    def setup(self, seed: int) -> Input:
        g = random_regularish_graph(self.n, self.degree, seed)
        edges = _edge_array(g)
        starts = random.Random(seed).sample(range(self.n), self.batches)
        batches = []
        for start in starts:
            inside = np.zeros(self.n, dtype=bool)
            inside[self._ball(g, start)] = True
            batches.append(np.flatnonzero(inside[edges[:, 0]] != inside[edges[:, 1]]).tolist())
        return Input(g, batches=batches)

    def reference(self, inp: Input):
        return None

    def solve(self, inp: Input):
        return [expander_prune(inp.g, self.phi, batch) for batch in inp.batches]

    def check(self, inp: Input, ref, out) -> None:
        if len(out) != len(inp.batches):
            raise CheckFailed("one (A, B) pair per batch expected")
        deg = np.bincount(inp.edges.ravel(), minlength=inp.g.n)
        for i, ((a_side, b_side), batch) in enumerate(zip(out, inp.batches)):
            a = _check_bipartition(inp.g.n, a_side, b_side)
            k = len(batch)
            alive = np.ones(inp.g.m, dtype=bool)
            alive[batch] = False
            boundary = _crossing(inp.edges[alive], a)
            if boundary > 4 * k:
                raise CheckFailed(f"batch {i}: boundary {boundary} exceeds 4k = {4 * k}")
            vol_b = int(deg[~a].sum())
            if vol_b * self.phi.numerator > 8 * k * self.phi.denominator:
                raise CheckFailed(f"batch {i}: Vol(B) = {vol_b} exceeds 8k/phi")

    def quality(self, inp: Input, out) -> dict:
        deg = np.bincount(inp.edges.ravel(), minlength=inp.g.n)
        vol_b = sum(int(deg[sorted(b)].sum()) for _, b in out)
        cap = sum(8 * len(batch) / self.phi for batch in inp.batches)
        return {"pruned_vol_frac": float(vol_b / cap)}

    def digest(self, out) -> str:
        return digest([sorted(b) for _, b in out])


class CertifyExpander:
    name = "certify_expander"
    n = 40000
    phi = Fraction(1, 64)
    r = 1
    #: Slack for the reference eigenvalue's own rounding error.
    ref_slack = 1e-12

    def setup(self, seed: int) -> Input:
        # The explicit expander, its vertices relabelled by a seeded
        # permutation so that each seed gives another (isomorphic) input.
        base = construct_expander(self.n)
        perm = list(range(self.n))
        random.Random(seed).shuffle(perm)
        return Input(MultiGraph(self.n, [(perm[u], perm[v]) for u, v in base.edges]))

    def reference(self, inp: Input) -> float:
        """lambda2 of the normalized Laplacian L by ARPACK, independent of
        balcut: the two largest eigenvalues of 2I - L are 2 and 2 - lambda2."""
        n = inp.g.n
        e = inp.edges
        adj = sp.coo_matrix((np.ones(2 * len(e)), (np.r_[e[:, 0], e[:, 1]], np.r_[e[:, 1], e[:, 0]])),
                            shape=(n, n)).tocsr()
        dinv = sp.diags(1.0 / np.sqrt(np.asarray(adj.sum(axis=1)).ravel()))
        two_minus_l = sp.identity(n, format="csr") + dinv @ adj @ dinv
        v0 = np.cos(0.31 * np.arange(n)) + 1.0
        vals = np.sort(eigsh(two_minus_l, k=2, which="LA", v0=v0, tol=0,
                             return_eigenvectors=False))
        if abs(vals[1] - 2.0) > 1e-9:
            raise CheckFailed(f"reference top eigenvalue {vals[1]} is not 2")
        return float(2.0 - vals[0])

    def solve(self, inp: Input):
        return bal_cut_prune(inp.g, self.phi, self.r)

    def check(self, inp: Input, ref: float, out) -> None:
        a = _check_bipartition(inp.g.n, out.a_side, out.b_side)
        cut = _crossing(inp.edges, a)
        if cut != out.cut_edges:
            raise CheckFailed(f"reported {out.cut_edges} cut edges, recount {cut}")
        cert = out.certified_phi
        if out.branch != "pruned" or cert is None:
            raise CheckFailed(f"expected a certified pruned core, got {out.branch}")
        if cert < self.phi:
            raise CheckFailed(f"certificate {cert} below phi = {self.phi}")
        if float(cert) > ref / 2 + self.ref_slack:
            raise CheckFailed(f"certificate {float(cert)!r} above lambda2/2 = {ref / 2!r}")

    def quality(self, inp: Input, out) -> dict:
        return {"certified_phi": float(out.certified_phi)}

    def digest(self, out) -> str:
        return digest({
            "branch": out.branch,
            "a_side": sorted(out.a_side),
            "cut_edges": out.cut_edges,
            "certified_phi": str(out.certified_phi),
            "alpha": str(out.alpha),
            "report": out.report,
        })


WORKLOADS = {
    w.name: w
    for w in (DecomposePlanted(), SparsestPlanted(), PruneBatches(), CertifyExpander())
}
