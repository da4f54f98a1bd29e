import random
from collections import Counter, deque
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from balcut.errors import InvalidCut, InvalidInput, OracleTooLarge
from balcut.expanders import construct_expander
from balcut.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    random_connected_graph,
    random_graph,
    two_triangles_bridge,
)
from balcut.graph import (
    MultiGraph,
    brute_force_extremum,
    component_labels,
    connected_components,
    cut_edge_count,
    cut_stats,
    find_bridges,
    incidence_csr,
    induced_subgraph,
    is_connected,
    masked_subgraph,
    path_congestion,
    threshold_cut_counts,
)
from balcut.reduce import reduce_degree
from balcut.spectral import adjacency_matrix


def test_cut_stats_k4_singleton():
    g = complete_graph(4)
    c = cut_stats(g, {0})
    assert c.delta == 3
    assert c.conductance == Fraction(1)
    assert c.sparsity == Fraction(3)


def test_cut_stats_c8_arc():
    g = cycle_graph(8)
    c = cut_stats(g, {0, 1, 2, 3})
    assert c.delta == 2
    assert c.conductance == Fraction(1, 4)
    assert c.sparsity == Fraction(1, 2)


def test_cut_stats_matches_recount_on_random_graphs():
    for seed in range(20):
        g = random_graph(10, 0.4, seed)
        side = frozenset(v for v in range(10) if (seed >> (v % 4)) & 1 or v == 0)
        if len(side) >= g.n:
            side = frozenset([0])
        c = cut_stats(g, side)
        assert c.delta == cut_edge_count(g, side)
        assert c.vol_s == g.volume(side)
        assert c.vol_comp == g.volume() - c.vol_s
    # multigraphs with self-loops, sides small and balanced, all edges
    # live or under a mask, against a per-edge loop
    rng = random.Random(5)
    paths = Counter()
    for seed in range(200):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 30))]
        edges += edges[: rng.randint(0, 3)]  # parallel copies
        g = MultiGraph(n, edges)
        side = frozenset(rng.sample(range(n), rng.randint(1, n - 1)))
        alive = None if seed % 2 else np.array([rng.random() < 0.7 for _ in edges], dtype=bool)
        live = [e for eid, e in enumerate(edges) if alive is None or alive[eid]]
        delta = sum((u in side) != (v in side) for u, v in live)
        vol_s = sum((u in side) + (v in side) for u, v in live)
        c = cut_stats(g, side, alive)
        assert (c.delta, c.vol_s, c.vol_comp) == (delta, vol_s, 2 * len(live) - vol_s)
        # a side with at most a quarter of the host volume is counted from
        # its slots, a balanced one from the edge endpoints
        host_vol = g.volume(side)
        paths["slots" if 4 * min(host_vol, g.volume() - host_vol) <= g.volume()
              else "edges"] += 1
    assert min(paths.values()) >= 40 and len(paths) == 2, paths


def test_cut_stats_rejects_improper_sides():
    g = complete_graph(4)
    with pytest.raises(InvalidCut):
        cut_stats(g, set())
    with pytest.raises(InvalidCut):
        cut_stats(g, {0, 1, 2, 3})


@pytest.mark.parametrize("make", [frozenset, set, list, np.array])
def test_cut_stats_names_each_improper_side(make):
    g = complete_graph(4)
    for side, message in (
        ([], "cut side must be proper: |S|=0, n=4"),
        ([0, 1, 2, 3], "cut side must be proper: |S|=4, n=4"),
        ([0, 1, 2, 3, 3], "cut side must be proper: |S|=4, n=4"),
        ([0, 4], "cut side contains an out-of-range vertex"),
        ([-1, 2], "cut side contains an out-of-range vertex"),
    ):
        with pytest.raises(InvalidCut) as exc:
            cut_stats(g, make(side))
        assert str(exc.value) == message


def test_cut_stats_keeps_a_frozenset_side_and_reads_others_as_ints():
    g = cycle_graph(8)
    side = frozenset({1, 2, 3})
    assert cut_stats(g, side).side is side
    got = cut_stats(g, np.array([3, 1, 2, 1]))
    assert got.side == side and all(type(v) is int for v in got.side)
    assert (got.delta, got.vol_s) == (2, 6)


def test_masked_subgraph_keeping_everything_is_the_graph_itself():
    g = complete_graph(4)
    sub, idx = masked_subgraph(g, np.ones(4, dtype=bool))
    assert sub is g and idx.tolist() == [0, 1, 2, 3]
    sub, _ = masked_subgraph(g, np.ones(4, dtype=bool), np.arange(6) != 2)
    assert sub is not g and sub.m == 5


def test_component_labels_fast_paths():
    k, label = component_labels(MultiGraph(5, []))
    assert k == 5 and label.tolist() == [0, 1, 2, 3, 4]
    k, label = component_labels(cycle_graph(6))
    assert k == 1 and label.tolist() == [0] * 6
    k, label = component_labels(MultiGraph(0, []))
    assert k == 0 and label.size == 0


def test_is_connected_labels_a_graph_once(monkeypatch):
    import scipy.sparse.csgraph as csgraph

    calls = []
    for name in ("breadth_first_order", "connected_components"):
        def counted(*args, _traverse=getattr(csgraph, name), **kwargs):
            calls.append(1)
            return _traverse(*args, **kwargs)

        monkeypatch.setattr(csgraph, name, counted)
    g = cycle_graph(7)
    assert is_connected(g) and is_connected(g)
    assert connected_components(g) == [list(range(7))]
    assert len(calls) == 1
    k, label = component_labels(g)
    assert not label.flags.writeable


def _scipy_labelling(g):
    """(k, label) of scipy's labelling, components renumbered by first vertex."""
    if g.n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    from scipy.sparse.csgraph import connected_components as labels

    k, label = labels(incidence_csr(g), directed=False)
    _, first = np.unique(label, return_index=True)
    return k, np.argsort(np.argsort(first))[label]


def _labelling_corpus():
    for n in (0, 1, 2):
        yield MultiGraph(n, [])
    yield MultiGraph(1, [(0, 0)])
    yield MultiGraph(2, [(0, 0), (1, 1)])
    yield MultiGraph(2, [(0, 1), (0, 1), (1, 1)])
    rng = random.Random(3)
    for seed in range(40):
        n = rng.randrange(3, 30)
        tree = seed % 2 == 0  # half connected: a random tree underneath
        edges = [(v, rng.randrange(v)) for v in range(1, n)] if tree else []
        ends = range(n) if tree else range(n - 3)  # else the last 3 get no edge
        edges += [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randrange(n))]
        edges += edges[:rng.randrange(3)]  # parallel copies
        edges += [(v, v) for v in rng.sample(range(n), 2)]  # loops, maybe alone
        yield MultiGraph(n, edges)


def test_is_connected_then_component_labels_match_scipy():
    for g in _labelling_corpus():
        connected = is_connected(g)
        k, label = component_labels(g)
        fresh = MultiGraph(g.n, g.edges)  # a copy that never met is_connected
        k_fresh, label_fresh = component_labels(fresh)
        k_ref, label_ref = _scipy_labelling(g)
        assert connected == (k <= 1) and k == k_fresh == k_ref, g.edges
        assert label.tolist() == label_fresh.tolist() == label_ref.tolist(), g.edges
        assert label.dtype == label_fresh.dtype, g.edges
        assert not label.flags.writeable


def test_vertex_set_entry_points_reject_a_boolean_mask():
    # Cast to int64, the mask [True, False, True] would read as the ids
    # 1, 0, 1.
    g = cycle_graph(3)
    side = np.array([True, False, True])
    for call in (g.volume, lambda s: cut_stats(g, s), lambda s: induced_subgraph(g, s)):
        with pytest.raises(InvalidInput, match="boolean mask"):
            call(side)


def test_induced_subgraph_identity_and_k3():
    g = complete_graph(4)
    whole, idx = induced_subgraph(g, range(4))
    assert whole.n == 4 and whole.m == 6 and idx == [0, 1, 2, 3]
    k3, idx = induced_subgraph(g, {1, 2, 3})
    assert k3.n == 3 and k3.m == 3
    assert idx == [1, 2, 3]


def test_induced_subgraph_c8_arc_is_p4():
    g = cycle_graph(8)
    sub, _ = induced_subgraph(g, {0, 1, 2, 3})
    assert sub.n == 4 and sub.m == 3
    assert sorted(sub.degrees()) == [1, 1, 2, 2]


def test_induced_subgraph_degree_identity():
    for seed in range(10):
        g = random_graph(9, 0.5, seed)
        side = {0, 2, 4, 6, 8}
        sub, idx = induced_subgraph(g, side)
        for new, old in enumerate(idx):
            outgoing = sum(
                1 for _, w in g.neighbors(old) if w not in side
            )
            assert sub.degree(new) == g.degree(old) - outgoing


def test_brute_force_c8_sparsity():
    cut, value = brute_force_extremum(cycle_graph(8), "sparsity")
    assert value == Fraction(1, 2)
    assert cut.size == 4


def test_brute_force_k4_conductance():
    cut, value = brute_force_extremum(complete_graph(4), "conductance")
    assert value == Fraction(2, 3)
    assert cut.size == 2


def test_brute_force_triangles_bridge():
    # Bridge cut: delta = 1, min side volume = 2 + 2 + 3 = 7.
    cut, value = brute_force_extremum(two_triangles_bridge(), "conductance")
    assert value == Fraction(1, 7)
    assert cut.side in (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


def test_brute_force_disconnected_gives_zero():
    g = MultiGraph(4, [(0, 1), (2, 3)])
    cut, value = brute_force_extremum(g, "sparsity")
    assert value == 0
    assert cut.delta == 0


def test_brute_force_limits():
    with pytest.raises(OracleTooLarge):
        brute_force_extremum(cycle_graph(17), "sparsity")
    with pytest.raises(InvalidInput):
        brute_force_extremum(MultiGraph(1, []), "sparsity")


def test_brute_force_tie_break_deterministic():
    g = cycle_graph(6)
    for _ in range(3):
        cut, _ = brute_force_extremum(g, "sparsity")
        assert sorted(cut.side) == sorted(brute_force_extremum(g, "sparsity")[0].side)


def test_is_connected():
    assert is_connected(cycle_graph(8))
    assert not is_connected(MultiGraph(4, [(0, 1), (2, 3)]))
    assert is_connected(complete_graph(4))
    assert is_connected(MultiGraph(1, []))


def test_self_loop_counts_twice_in_degree():
    g = MultiGraph(2, [(0, 0), (0, 1)])
    assert g.degree(0) == 3
    assert g.has_self_loops
    assert g.volume() == 4


def test_sparsity_conductance_sandwich_exhaustive():
    # Psi/Delta <= Phi <= Psi for every proper cut of every sampled graph.
    for seed in range(25):
        g = random_connected_graph(7, 0.4, seed)
        delta_max = g.max_degree()
        for mask in range(1, (1 << g.n) - 1):
            side = frozenset(v for v in range(g.n) if (mask >> v) & 1)
            c = cut_stats(g, side)
            assert c.sparsity <= c.conductance * delta_max
            assert c.conductance <= c.sparsity


def test_oracle_minimality_on_random_instances():
    for seed in range(200):
        g = random_connected_graph(8, 0.35, seed)
        _, best = brute_force_extremum(g, "conductance")
        probe = frozenset(v for v in range(g.n) if v % 2 == seed % 2) or frozenset([0])
        if len(probe) == g.n:
            probe = frozenset([0])
        assert best <= cut_stats(g, probe).conductance


def test_edge_that_is_not_a_pair_is_rejected():
    with pytest.raises(InvalidInput, match="edge 1 is not a"):
        MultiGraph(3, [(0, 1), (0, 1, 2)])
    with pytest.raises(InvalidInput, match="edge 0 is not a"):
        MultiGraph(3, [5])


def test_non_integral_endpoint_is_rejected():
    for edge in [(0.5, 1), (1.9, 0), ("1", 0), (1.0, 2)]:
        with pytest.raises(InvalidInput, match="edge endpoints must be integers"):
            MultiGraph(3, [(0, 1), edge])
    with pytest.raises(InvalidInput, match="out of range"):
        MultiGraph(3, [(2**63, 0)])
    g = MultiGraph(3, [(True, 2), (np.int32(1), 0), (np.uint64(2), 1), (np.int64(0), 2)])
    assert g.eu.dtype == np.int64
    assert g.edges == ((1, 2), (1, 0), (2, 1), (0, 2))


def test_out_of_range_edge_keeps_its_message():
    with pytest.raises(InvalidInput, match=r"edge 1 endpoint out of range: \(2, 3\)"):
        MultiGraph(3, [(0, 1), (2, 3), (-1, 0)])
    with pytest.raises(InvalidInput, match=r"edge 0 endpoint out of range: \(0, -1\)"):
        MultiGraph(3, [(0, -1)])


def test_path_step_outside_the_vertex_range_is_a_non_edge():
    # (0, 6) and (1, 2) share the key x * n + y = 6 at n = 4
    g = MultiGraph(4, [(1, 2)])
    assert path_congestion(g, [[2, 1]]) == 1
    with pytest.raises(InvalidInput, match=r"non-edge \(0, 6\)"):
        path_congestion(g, [[1, 2], [0, 6]])


# ---------------------------------------------------------------------------
# The array core against the tuple-of-tuples algorithms it replaced
# ---------------------------------------------------------------------------


def ref_adj_deg(n, edges):
    adj = [[] for _ in range(n)]
    deg = [0] * n
    for eid, (u, v) in enumerate(edges):
        adj[u].append(eid)
        deg[u] += 1
        if u == v:
            adj[u].append(eid)
            deg[u] += 1
        else:
            adj[v].append(eid)
            deg[v] += 1
    return tuple(tuple(a) for a in adj), tuple(deg)


def ref_other_ends(edges, adj):
    """Per vertex, the other endpoint of each incident edge, in adj order."""
    return tuple(
        tuple(edges[eid][1] if edges[eid][0] == v else edges[eid][0] for eid in a)
        for v, a in enumerate(adj)
    )


def slot_adjacency(g):
    """The slot view regrouped per vertex: (edge ids, other endpoints)."""
    indptr, inc, nbr = g.slots
    assert (indptr, inc, nbr) == (g.indptr.tolist(), g.inc.tolist(), g.nbr.tolist())
    spans = list(zip(indptr, indptr[1:]))
    return (
        tuple(tuple(inc[a:b]) for a, b in spans),
        tuple(tuple(nbr[a:b]) for a, b in spans),
    )


def ref_components(n, edges, adj):
    seen = bytearray(n)
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = 1
        comp = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for eid in adj[v]:
                a, b = edges[eid]
                w = b if a == v else a
                if not seen[w]:
                    seen[w] = 1
                    comp.append(w)
                    queue.append(w)
        comp.sort()
        comps.append(comp)
    return comps


def ref_induced(edges, s):
    keep = sorted(set(s))
    new_id = {v: i for i, v in enumerate(keep)}
    sub = [(new_id[u], new_id[v]) for u, v in edges if u in new_id and v in new_id]
    return len(keep), tuple(sub), keep


def ref_reduce(n, edges, adj, deg):
    offsets, total = [], 0
    for v in range(n):
        offsets.append(total)
        total += deg[v]
    slot_at = {(eid, v): pos for v in range(n) for pos, eid in enumerate(adj[v])}
    hat, kind = [], []
    for v in range(n):
        if deg[v]:
            for a, b in construct_expander(deg[v]).edges:
                hat.append((offsets[v] + a, offsets[v] + b))
                kind.append(1)
    type2 = []
    for eid, (u, v) in enumerate(edges):
        type2.append(len(hat))
        hat.append((offsets[u] + slot_at[(eid, u)], offsets[v] + slot_at[(eid, v)]))
        kind.append(2)
    return tuple(hat), tuple(kind), tuple(type2)


def ref_adjacency(n, edges):
    rows, cols, vals = [], [], []
    for u, v in edges:
        if u == v:
            rows.append(u)
            cols.append(u)
            vals.append(2.0)
        else:
            rows.extend((u, v))
            cols.extend((v, u))
            vals.extend((1.0, 1.0))
    return sp.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n, n),
    )


def ref_path_congestion(edges, paths):
    use, copies = {}, {}
    for p in paths:
        for x, y in zip(p, p[1:]):
            key = (min(x, y), max(x, y))
            use[key] = use.get(key, 0) + 1
    for u, v in edges:
        key = (min(u, v), max(u, v))
        copies[key] = copies.get(key, 0) + 1
    worst = 0
    for key, cnt in use.items():
        if key not in copies:
            return f"path uses a non-edge {key}"
        worst = max(worst, -(-cnt // copies[key]))
    return worst


def ref_threshold_counts(edges, deg, key, top):
    below = [[key[v] < t for v in range(len(key))] for t in range(1, top + 1)]
    return (
        [sum(1 for u, v in edges if s[u] != s[v]) for s in below],
        [sum(d for d, x in zip(deg, s) if x) for s in below],
    )


@st.composite
def multigraphs(draw):
    """Small multigraphs with parallel edges, self-loops, isolated vertices
    and the empty graph, plus a vertex subset."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, [], []
    vertex = st.integers(0, n - 1)
    base = draw(st.lists(st.tuples(vertex, vertex), max_size=30))
    dups = draw(st.lists(st.integers(0, 29), max_size=5))
    edges = base + [base[i] for i in dups if i < len(base)]
    side = draw(st.lists(vertex, max_size=n))
    return n, edges, side


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_array_core_matches_reference(case):
    n, edges, side = case
    g = MultiGraph(n, edges)
    adj, deg = ref_adj_deg(n, edges)
    assert g.edges == tuple(edges)
    assert slot_adjacency(g) == (adj, ref_other_ends(edges, adj))
    assert [list(g.neighbors(v)) for v in range(n)] == [
        list(zip(a, w)) for a, w in zip(adj, ref_other_ends(edges, adj))
    ]
    assert g.degrees() == deg
    assert g.volume() == sum(deg)
    assert connected_components(g) == ref_components(n, edges, adj)
    assert is_connected(g) == (n <= 1 or len(ref_components(n, edges, adj)) == 1)
    assert cut_edge_count(g, set(side)) == sum(
        1 for u, v in edges if (u in side) != (v in side)
    )
    if side:
        sub, idx = induced_subgraph(g, side)
        assert (sub.n, sub.edges, idx) == ref_induced(edges, side)
        sub_adj = ref_adj_deg(sub.n, sub.edges)[0]
        assert slot_adjacency(sub) == (sub_adj, ref_other_ends(sub.edges, sub_adj))
    key = [side.count(v) for v in range(n)]
    for top in (1, 2, n + 1):
        assert threshold_cut_counts(g, key, top) == ref_threshold_counts(
            edges, deg, key, top
        )
    paths = [list(e) for e in edges[:5]] + [side]
    try:
        got = path_congestion(g, paths)
    except InvalidInput as exc:
        got = str(exc)
    assert got == ref_path_congestion(edges, paths)
    a, ref = adjacency_matrix(g), ref_adjacency(n, edges)
    for field in ("indptr", "indices", "data"):
        got, want = getattr(a, field), getattr(ref, field)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    loopless = [(u, v) for u, v in edges if u != v]
    if loopless:
        h = MultiGraph(n, loopless)
        r = reduce_degree(h)
        hat, kind, type2 = ref_reduce(n, loopless, *ref_adj_deg(n, loopless))
        type1 = r.hat_g.m - h.m  # hat edge type1 + e is the image of edge e
        assert r.hat_g.edges == hat
        assert (kind, type2) == ((1,) * type1 + (2,) * h.m,
                                 tuple(range(type1, r.hat_g.m)))


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_component_labels_number_components_in_their_list_order(case):
    # Component i holds the i-th smallest minimum vertex, the order of
    # connected_components, recounted here by a plain BFS.
    n, edges, _ = case
    g = MultiGraph(n, edges)
    ref = ref_components(n, edges, ref_adj_deg(n, edges)[0])
    want = [0] * n
    for i, comp in enumerate(ref):
        for v in comp:
            want[v] = i
    k, label = component_labels(g)
    assert k == len(ref) and label.tolist() == want
    assert connected_components(g) == ref


def _nx_case(n, seed, attach):
    """A sparse random multigraph: a random forest (a tree when ``attach``
    is 1) plus random edges, parallel copies and self-loops."""
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        if rng.random() < attach:
            edges.append((rng.randrange(v), v))
    for _ in range(n // 10):
        edges.append((rng.randrange(n), rng.randrange(n)))
    for _ in range(n // 20):
        edges.append(edges[rng.randrange(len(edges))])
    return edges


@pytest.mark.parametrize(
    "n,seed,attach", [(100, 1, 0.8), (300, 2, 0.8), (1000, 3, 0.8), (1000, 4, 1.0)]
)
def test_components_and_bridges_match_networkx(n, seed, attach):
    nx = pytest.importorskip("networkx")
    edges = _nx_case(n, seed, attach)
    g = MultiGraph(n, edges)
    h = nx.MultiGraph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    want = sorted(sorted(c) for c in nx.connected_components(h))
    assert connected_components(g) == want
    assert is_connected(g) == nx.is_connected(h) == (attach == 1.0)
    bridges, order = find_bridges(g)
    assert sorted(order) == list(range(n))
    got = {frozenset(g.edges[eid]) for eid, _, _ in bridges}
    assert got == {frozenset(e) for e in nx.bridges(h) if e[0] != e[1]}
    for eid, child, size in bridges:
        h.remove_edge(*g.edges[eid])
        side = nx.node_connected_component(h, child)
        assert size == len(side)
        i = order.index(child)
        assert set(order[i:i + size]) == side
        h.add_edge(*g.edges[eid])
