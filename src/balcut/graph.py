"""Unweighted undirected multigraphs and exact cut statistics.

Vertices are the integers ``0 .. n-1``.  Parallel edges are kept as separate
edge slots; self-loops are representable (the raw Gabber-Galil construction
produces them transiently) but every partition algorithm rejects them at
entry.  All cut statistics are exact: conductance and sparsity are stored as
``fractions.Fraction`` and every threshold comparison in the package is done
by integer cross-multiplication, never through floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InvalidCut, InvalidInput, OracleTooLarge

#: Largest vertex count accepted by the brute-force cut oracles
#: (2^15 - 1 = 32767 proper cuts at n = 16 keeps the suite fast).
ORACLE_LIMIT = 16


class MultiGraph:
    """An immutable multigraph given by an edge list.

    Storage is array-backed: ``eu`` and ``ev`` hold the edge endpoints
    (int64, indexed by edge id), and ``indptr``/``inc``/``nbr`` are a CSR
    of incidence slots: vertex v owns slots ``indptr[v] .. indptr[v+1]-1``,
    slot k holds an incident edge id ``inc[k]`` and that edge's other
    endpoint ``nbr[k]``.  Each vertex lists its edges in edge-id order, a
    self-loop twice in a row, so v owns ``deg[v]`` slots.

    Attributes:
        n: number of vertices.
        edges: tuple of ``(u, v)`` pairs with ``u, v`` in ``[0, n)``.
        slots: the lists ``(indptr, inc, nbr)`` for pure-Python walks;
            they are shared by every reader and must not be modified.
        eu_list: ``eu`` as a list, for the same walks and on the same terms.

    ``edges``, ``slots`` and ``eu_list`` are views built on first access;
    hot loops read them once into locals.  ``component_labels`` caches its
    result on the graph the same way.
    """

    __slots__ = ("n", "eu", "ev", "indptr", "inc", "nbr", "deg", "_loops",
                 "_edges", "_slots", "_eu_list", "_degrees", "_components")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise InvalidInput(f"vertex count must be nonnegative, got {n}")
        self._build(n, *_edge_arrays(n, edges))

    @classmethod
    def _from_arrays(cls, n: int, eu: np.ndarray, ev: np.ndarray) -> "MultiGraph":
        """Build from validated int64 endpoint arrays, skipping the tuple path."""
        g = cls.__new__(cls)
        g._build(n, eu, ev)
        return g

    def _build(self, n: int, eu: np.ndarray, ev: np.ndarray) -> None:
        span = 2 * len(eu)
        ends = np.empty(span, dtype=np.int64)
        ends[0::2] = eu
        ends[1::2] = ev
        # Sorting the distinct keys end * 2m + slot orders the slots stably
        # by endpoint: one stable argsort of the interleaved endpoints
        # (n * 2m stays below 2^63 for any graph that fits in memory).
        # Taking each owner's end * 2m off again leaves the slots.
        slots = ends * span
        slots += np.arange(span)
        slots.sort()
        deg = np.bincount(ends, minlength=n)
        slots -= np.repeat(np.arange(n) * span, deg)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        self.n = n
        self.eu = eu
        self.ev = ev
        self.indptr = indptr
        self.inc = slots >> 1
        np.bitwise_xor(slots, 1, out=slots)  # slot 2e + i is end i of edge e
        self.nbr = ends[slots]
        self.deg = deg
        for arr in (eu, ev, indptr, self.inc, self.nbr, deg):
            arr.flags.writeable = False
        self._loops = int(np.count_nonzero(eu == ev))
        self._edges = self._slots = self._eu_list = self._degrees = None
        self._components = None

    @property
    def m(self) -> int:
        return len(self.eu)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            ids = list(range(self.n))  # one int object per vertex id
            get = ids.__getitem__
            self._edges = tuple(
                zip(map(get, self.eu.tolist()), map(get, self.ev.tolist()))
            )
        return self._edges

    @property
    def slots(self) -> tuple[list[int], list[int], list[int]]:
        if self._slots is None:
            self._slots = (
                self.indptr.tolist(),
                _int_objects(self.m)[self.inc].tolist(),
                _int_objects(self.n)[self.nbr].tolist(),
            )
        return self._slots

    @property
    def eu_list(self) -> list[int]:
        if self._eu_list is None:
            self._eu_list = _int_objects(self.n)[self.eu].tolist()
        return self._eu_list

    @property
    def has_self_loops(self) -> bool:
        return self._loops > 0

    def degree(self, v: int) -> int:
        return self.degrees()[v]

    def degrees(self) -> tuple[int, ...]:
        if self._degrees is None:
            self._degrees = tuple(self.deg.tolist())
        return self._degrees

    def max_degree(self) -> int:
        return int(self.deg.max()) if self.n else 0

    def volume(self, s: Iterable[int] | None = None) -> int:
        """Vol(S) = sum of degrees over S; Vol(G) when S is omitted."""
        if s is None:
            return 2 * self.m
        return int(self.deg[_index_array(s)].sum())

    def neighbors(self, v: int):
        """(edge id, other endpoint) of every incidence slot of v, in order."""
        indptr, inc, nbr = self.slots
        a, b = indptr[v], indptr[v + 1]
        return zip(inc[a:b], nbr[a:b])

    def reject_self_loops(self, operation: str) -> None:
        if self._loops:
            raise InvalidInput(f"{operation} requires a graph without self-loops")

    def __repr__(self) -> str:  # pragma: no cover
        return f"MultiGraph(n={self.n}, m={self.m})"


def _int_objects(count: int) -> np.ndarray:
    """The ints 0 .. count-1 as an object array.  Indexing it and calling
    ``tolist`` shares one int object per id instead of making one per entry."""
    return np.array(range(count), dtype=object)


def _edge_arrays(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Validated int64 endpoint arrays of an edge list of (u, v) pairs."""
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)
    try:
        # No dtype: casting would truncate 0.5 to 0 and parse "1" as 1.
        arr = np.array(edges)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or (edges and (arr.shape != (len(edges), 2)
                                  or arr.dtype.kind not in "iub")):
        arr = _checked_pairs(n, edges)
    arr = arr.reshape(-1, 2)
    eu, ev = arr[:, 0], arr[:, 1]
    bad = (eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)
    if bad.any():
        eid = int(bad.argmax())
        raise InvalidInput(
            f"edge {eid} endpoint out of range: ({eu[eid]}, {ev[eid]})"
        )
    return eu.astype(np.int64), ev.astype(np.int64)


def _checked_pairs(n: int, edges) -> np.ndarray:
    """The edge list as an int64 array when numpy could not type it as one
    (numpy integers of mixed signedness); else raise InvalidInput for the
    first edge that is not a pair, then for the first edge with an endpoint
    that is not an integer or lies outside [0, n)."""
    for eid, e in enumerate(edges):
        try:
            u, v = e
        except (TypeError, ValueError):
            raise InvalidInput(f"edge {eid} is not a (u, v) pair: {e!r}") from None
    for eid, (u, v) in enumerate(edges):
        if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
            raise InvalidInput("edge endpoints must be integers")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInput(f"edge {eid} endpoint out of range: ({u}, {v})")
    return np.array([(int(u), int(v)) for u, v in edges], dtype=np.int64)


def _index_array(s: Iterable[int]) -> np.ndarray:
    """A vertex collection as an int64 index array.  A boolean array raises
    InvalidInput: cast, it would read as the ids 0 and 1."""
    if isinstance(s, np.ndarray):
        if s.dtype == np.bool_:
            raise InvalidInput("expected vertex ids, got a boolean mask")
        return s.astype(np.int64, copy=False)
    return np.fromiter(s, dtype=np.int64)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of an int array, ascending.  One sort: numpy's
    ``unique`` builds a hash table, about 20 times slower on these sizes."""
    s = np.sort(values)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


def _integer_array(values: Sequence[int], what: str) -> np.ndarray:
    """A new int64 array of ``values``.  Python ints and bools and numpy
    integers are accepted; any other entry, which a cast would truncate
    (0.5 to 0) or parse ("1" to 1), raises InvalidInput naming ``what``."""
    try:
        arr = np.array(values)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == 1 and (arr.dtype.kind in "iub" or not arr.size):
        return arr.astype(np.int64, copy=False)
    # numpy integers of mixed signedness land here too
    values = list(values)
    if not all(isinstance(x, (int, np.integer)) for x in values):
        raise InvalidInput(f"{what} must be integers")
    return np.array([int(x) for x in values], dtype=np.int64)


def live_degrees(g: MultiGraph, alive: np.ndarray | None = None) -> np.ndarray:
    """Per-vertex count of live edge ends (a self-loop counts twice);
    ``g.deg`` itself when every edge is live."""
    if alive is None:
        return g.deg
    return (np.bincount(g.eu[alive], minlength=g.n)
            + np.bincount(g.ev[alive], minlength=g.n))


def incident_slots(g: MultiGraph, verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(slot, owner): the incidence slots of the vertices ``verts``, each
    vertex's in order, and the vertex owning each slot.  O(vol(verts))."""
    start = g.indptr[verts]
    count = g.deg[verts]
    owner = np.repeat(verts, count)
    first = np.cumsum(count) - count  # where each vertex's run begins
    slot = np.arange(len(owner)) + np.repeat(start - first, count)
    return slot, owner


def _side_mask(n: int, side: Iterable[int]) -> np.ndarray:
    """Boolean membership mask over range(n) of a vertex set inside it."""
    mask = np.zeros(n, dtype=bool)
    mask[_index_array(side)] = True
    return mask


@dataclass(frozen=True)
class Cut:
    """A proper vertex cut with its cached exact statistics."""

    side: frozenset[int]
    delta: int
    vol_s: int
    vol_comp: int
    conductance: Fraction
    sparsity: Fraction

    @property
    def size(self) -> int:
        return len(self.side)


def cut_edge_count(g: MultiGraph, side: Iterable[int]) -> int:
    """Exact recount of |E(S, V-S)| over the edge arrays; S within range(n)."""
    mask = _side_mask(g.n, side)
    return int(np.count_nonzero(mask[g.eu] != mask[g.ev]))


def cut_stats(g: MultiGraph, s: Iterable[int], alive: np.ndarray | None = None) -> Cut:
    """Compute delta, volumes, conductance and sparsity of a proper cut.

    With a boolean edge mask ``alive``, only live edges count towards the
    crossing edges and the volumes; every vertex of ``g`` stays.

    When one side holds at most a quarter of g's volume, the counts read
    that side's slots: each crossing edge has one slot there, so a small
    side (a trimming cut) costs O(vol), not O(m).  Otherwise one pass over
    the edge endpoints is the cheaper count (a balanced cut).  A frozenset
    side is kept as the cut's side; any other is read once into an array."""
    ids = _index_array(s)
    side = s if isinstance(s, frozenset) else frozenset(ids.tolist())
    if not side or len(side) >= g.n:
        raise InvalidCut(f"cut side must be proper: |S|={len(side)}, n={g.n}")
    if ids.min() < 0 or ids.max() >= g.n:
        raise InvalidCut("cut side contains an out-of-range vertex")
    mask = _side_mask(g.n, ids)
    total = 2 * (g.m if alive is None else int(np.count_nonzero(alive)))
    host_vol, host_total = int(g.deg[mask].sum()), g.volume()
    small = mask if 2 * host_vol <= host_total else ~mask
    if 4 * min(host_vol, host_total - host_vol) <= host_total:
        slot, _ = incident_slots(g, np.flatnonzero(small))
        if alive is not None:
            slot = slot[alive[g.inc[slot]]]
        delta = int(np.count_nonzero(~small[g.nbr[slot]]))
        vol_s = len(slot) if small is mask else total - len(slot)
    else:
        eu, ev = (g.eu, g.ev) if alive is None else (g.eu[alive], g.ev[alive])
        in_u, in_v = mask[eu], mask[ev]
        delta = int(np.count_nonzero(in_u != in_v))
        vol_s = int(np.count_nonzero(in_u)) + int(np.count_nonzero(in_v))
    vol_comp = total - vol_s
    min_vol = min(vol_s, vol_comp)
    min_size = min(len(side), g.n - len(side))
    conductance = Fraction(delta, min_vol) if min_vol else Fraction(0)
    sparsity = Fraction(delta, min_size)
    return Cut(side, delta, vol_s, vol_comp, conductance, sparsity)


def induced_subgraph(g: MultiGraph, s: Iterable[int]) -> tuple[MultiGraph, list[int]]:
    """Return (G[S], index map) with vertices relabeled densely.

    The index map sends new vertex ids back to the originals; its order is
    ascending original id, so the relabeling is deterministic.
    """
    idx = _index_array(s)
    if not idx.size:
        raise InvalidInput("induced subgraph requires a nonempty vertex set")
    if idx.min() < 0 or idx.max() >= g.n:
        raise InvalidInput("vertex set contains an out-of-range vertex")
    sub, verts = masked_subgraph(g, _side_mask(g.n, idx))
    return sub, verts.tolist()


def masked_subgraph(
    g: MultiGraph, keep: np.ndarray, alive: np.ndarray | None = None
) -> tuple[MultiGraph, np.ndarray]:
    """G[keep] restricted to the ``alive`` edges, with its index map.

    ``keep`` is a boolean vertex mask and ``alive`` an optional boolean edge
    mask.  Kept vertices are relabeled in ascending order (the index map
    lists their original ids) and kept edges stay in edge-id order.
    """
    if keep.all() and (alive is None or alive.all()):
        return g, np.arange(g.n)  # g is immutable: nothing to copy
    new_id = np.cumsum(keep) - 1
    sel = keep[g.eu] & keep[g.ev]
    if alive is not None:
        sel &= alive
    verts = np.flatnonzero(keep)
    sub = MultiGraph._from_arrays(len(verts), new_id[g.eu[sel]], new_id[g.ev[sel]])
    return sub, verts


def with_edges(g: MultiGraph, extra: Iterable[tuple[int, int]]) -> MultiGraph:
    """G plus the ``extra`` (u, v) pairs, appended as edge ids m, m+1, ..."""
    eu, ev = _edge_arrays(g.n, extra)
    return MultiGraph._from_arrays(
        g.n, np.concatenate([g.eu, eu]), np.concatenate([g.ev, ev])
    )


def threshold_cut_counts(
    g: MultiGraph, key: Sequence[int], top: int
) -> tuple[list[int], list[int]]:
    """Crossing edges and volume of each side {v : key[v] < t}, t = 1..top.

    ``key`` gives every vertex a nonnegative integer.  An edge crosses
    threshold t iff its smaller key is below t and its larger key is not,
    so difference arrays over t count every threshold in O(n + m + top);
    keys above ``top`` all act as ``top + 1``.
    """
    key = np.minimum(np.asarray(key, dtype=np.int64), top + 1)
    ku, kv = key[g.eu], key[g.ev]
    lo, hi = np.minimum(ku, kv), np.maximum(ku, kv)
    span = top + 3
    crossing = np.cumsum(np.bincount(lo + 1, minlength=span)
                         - np.bincount(hi + 1, minlength=span))
    volume = np.cumsum(np.bincount(lo, minlength=span)
                       + np.bincount(hi, minlength=span))
    return crossing[1:top + 1].tolist(), volume[:top].tolist()


def incidence_csr(g: MultiGraph) -> sp.csr_matrix:
    """Symmetric adjacency laid out as the incidence CSR: one unit entry per
    edge slot, so parallel edges and self-loops are not yet summed."""
    return sp.csr_matrix((np.ones(len(g.nbr)), g.nbr, g.indptr), shape=(g.n, g.n))


def component_labels(g: MultiGraph) -> tuple[int, np.ndarray]:
    """(k, label): the component count and each vertex's component, numbered
    so that component i holds the i-th smallest minimum vertex (the order
    of ``connected_components``).  An edgeless graph and a connected one
    cost O(1) Python past scipy's labelling.  The graph is immutable, so the
    result is cached on it; ``label`` is read-only."""
    if g._components is None:
        k, label = _label_components(g)
        label.flags.writeable = False
        g._components = k, label
    return g._components


def _label_components(g: MultiGraph) -> tuple[int, np.ndarray]:
    if g.m == 0:
        return g.n, np.arange(g.n)
    # Imported on first use: csgraph pulls in scipy.sparse.linalg.
    from scipy.sparse.csgraph import connected_components as labels

    k, label = labels(incidence_csr(g), directed=False)
    if k == 1:
        return 1, label
    _, first = np.unique(label, return_index=True)
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(k)
    return k, rank[label]


def connected_components(g: MultiGraph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    k, label = component_labels(g)
    flat = np.argsort(label, kind="stable").tolist()
    ends = np.cumsum(np.bincount(label, minlength=k)).tolist()
    return [flat[lo:hi] for lo, hi in zip([0, *ends], ends)]


def is_connected(g: MultiGraph) -> bool:
    """True iff the graph has a single connected component.

    One BFS from vertex 0 answers for a connected graph, and caches its
    labelling (all zeros, in the int32 of scipy's labelling); only a
    disconnected graph goes on to the labelling."""
    if g.n <= 1:
        return True
    if g._components is None and g.m:
        from scipy.sparse.csgraph import breadth_first_order

        reached = breadth_first_order(incidence_csr(g), 0, directed=True,
                                      return_predecessors=False)
        if len(reached) == g.n:
            label = np.zeros(g.n, dtype=np.int32)
            label.flags.writeable = False
            g._components = 1, label
    return component_labels(g)[0] == 1


def _enumerate_cut_tables(g: MultiGraph):
    """Vectorized delta/volume tables for all proper cuts containing vertex 0.

    Masks encode vertices ``1..n-1``; vertex 0 is always on the S side, which
    enumerates each proper cut exactly once (2^(n-1) - 1 cuts; the all-ones
    mask, S = V, is excluded by the caller).
    """
    n = g.n
    masks = np.arange(1 << (n - 1), dtype=np.int64)
    in_side = [np.ones_like(masks, dtype=bool)]  # vertex 0
    for v in range(1, n):
        in_side.append(((masks >> (v - 1)) & 1).astype(bool))
    delta = np.zeros_like(masks)
    for u, v in g.edges:
        if u != v:
            delta += (in_side[u] ^ in_side[v]).astype(np.int64)
    vol = np.zeros_like(masks)
    for v, d in enumerate(g.degrees()):
        if d:
            vol += in_side[v] * d
    size = np.ones_like(masks)
    for v in range(1, n):
        size += in_side[v].astype(np.int64)
    return masks, delta, vol, size


def _mask_to_side(mask: int, n: int) -> frozenset[int]:
    side = {0}
    for v in range(1, n):
        if (mask >> (v - 1)) & 1:
            side.add(v)
    return frozenset(side)


def brute_force_extremum(g: MultiGraph, objective: str) -> tuple[Cut, Fraction]:
    """Exhaustively minimize cut conductance or sparsity.

    Enumerates all 2^(n-1) - 1 proper cuts.  Ties are broken by the
    lexicographically smallest side containing vertex 0.  Disconnected
    graphs yield value 0 with a component-separating cut.
    """
    if objective not in ("conductance", "sparsity"):
        raise InvalidInput(f"unknown objective {objective!r}")
    if g.n < 2:
        raise InvalidInput("extremum needs at least two vertices")
    if g.n > ORACLE_LIMIT:
        raise OracleTooLarge(f"n={g.n} exceeds oracle limit {ORACLE_LIMIT}")

    masks, delta, vol, size = _enumerate_cut_tables(g)
    total_vol = g.volume()
    if objective == "conductance":
        denom = np.minimum(vol, total_vol - vol)
    else:
        denom = np.minimum(size, g.n - size)
    # Exclude S = V (the all-ones mask) and any zero denominators.
    valid = np.ones(len(masks), dtype=bool)
    valid[-1] = False
    valid &= denom > 0
    num = delta[valid].astype(np.float64)
    den = denom[valid].astype(np.float64)
    # Integer ratios here are small enough that float64 ordering is exact.
    ratios = num / den
    best = ratios.min()
    candidates = np.nonzero(valid)[0][ratios == best]
    best_side = min(
        (_mask_to_side(int(masks[i]), g.n) for i in candidates),
        key=lambda side: sorted(side),
    )
    cut = cut_stats(g, best_side)
    value = cut.conductance if objective == "conductance" else cut.sparsity
    return cut, value


def find_bridges(g: MultiGraph) -> tuple[list[tuple[int, int, int]], list[int]]:
    """All bridge edges via iterative lowpoint DFS, and the DFS preorder.

    Returns (bridges, order): (edge id, child endpoint, child-side subtree
    size) triples, and the vertices in preorder.  A DFS subtree is
    contiguous in preorder, so a bridge's child side is ``order[i:i +
    size]``, i the child's position.  Parallel edges are never bridges.
    Deterministic: DFS follows adjacency order from vertex 0 upward.
    """
    n = g.n
    disc = [-1] * n  # preorder positions
    low = [0] * n
    sub = [1] * n
    out: list[tuple[int, int, int]] = []
    order: list[int] = []
    indptr, inc, nbr = g.slots
    for root in range(n):
        if disc[root] != -1:
            continue
        # frame: [vertex, parent edge id, slot iterator, parent skipped?]
        stack = [[root, -1, iter(range(indptr[root], indptr[root + 1])), False]]
        disc[root] = low[root] = len(order)
        order.append(root)
        while stack:
            frame = stack[-1]
            v, pedge, it = frame[0], frame[1], frame[2]
            advanced = False
            for k in it:
                eid, w = inc[k], nbr[k]
                if eid == pedge and not frame[3]:
                    frame[3] = True  # the tree edge itself, skipped once
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    stack.append([w, eid, iter(range(indptr[w], indptr[w + 1])), False])
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])  # a no-op on a self-loop
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    sub[u] += sub[v]
                    if low[v] > disc[u]:
                        out.append((pedge, v, sub[v]))
    return out, order


def path_congestion(g: MultiGraph, paths) -> int:
    """Exact per-edge congestion of a path collection (vertex sequences).

    Multi-uses of a vertex pair are spread across its parallel copies, so
    the result is the smallest achievable per-edge-slot congestion.
    """
    use: dict[tuple[int, int], int] = {}
    for p in paths:
        for x, y in zip(p, p[1:]):
            key = (x, y) if x < y else (y, x)
            use[key] = use.get(key, 0) + 1
    if not use:
        return 0
    # parallel copies of pair (x, y): count key x * n + y among the edges
    n = g.n
    edge_keys = np.sort(np.minimum(g.eu, g.ev) * n + np.maximum(g.eu, g.ev))
    pairs = np.array(list(use), dtype=np.int64)
    want = pairs[:, 0] * n + pairs[:, 1]
    copies = (np.searchsorted(edge_keys, want, side="right")
              - np.searchsorted(edge_keys, want, side="left"))
    copies[(pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)] = 0
    worst = 0
    for (key, cnt), k in zip(use.items(), copies.tolist()):
        if k == 0:
            raise InvalidInput(f"path uses a non-edge {key}")
        worst = max(worst, -(-cnt // k))
    return worst
