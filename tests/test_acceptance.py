"""Acceptance suite: one test per criterion, exact recounts, stated budgets.

Each test prints a single ``AC<k> PASS (<elapsed>s <= <budget>s)`` line
(visible with ``pytest -s`` and in failure output).  All arithmetic checks
are exact unless a tolerance is stated in the criterion itself.
"""

import collections
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from balcut.cli import dispatch
from balcut.cutmatch import WALK_POTENTIAL_CAP, walk_potential
from balcut.driver import (
    WitnessResult,
    bal_cut_prune,
    expander_decomposition,
    iterations_final_cut,
    lowest_conductance_cut,
    sparsest_cut,
)
from balcut.errors import BudgetExceeded
from balcut.estree import INF, ESTree
from balcut.expanders import TORUS_SPARSITY, construct_expander, gabber_galil
from balcut.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    planted_expander_union,
    random_connected_graph,
    random_graph,
    random_regularish_graph,
    star_graph,
    two_triangles_bridge,
)
from balcut.graph import (
    Cut,
    MultiGraph,
    brute_force_extremum,
    cut_edge_count,
    induced_subgraph,
    path_congestion,
)
from balcut.localflow import (
    FlowInstance,
    PairRouting,
    bounded_push_relabel,
    decompose_preflow,
    route_or_cut_1pair,
)
from balcut.pruning import expander_prune
from balcut.routing import PairFamily, PartialRouting, log2ceil, route_or_cut
from balcut.spectral import adjacency_matrix, lambda2_normalized
from oracles import bfs_levels, graph_conductance, graph_sparsity, pruned_subgraph


def _stamp(name: str, t0: float, budget: float, extra: str = "") -> None:
    elapsed = time.time() - t0
    line = f"{name} PASS ({elapsed:.1f}s <= {budget}s){' ' + extra if extra else ''}"
    print(line)
    assert elapsed <= budget, f"{name} exceeded its {budget}s budget: {elapsed:.1f}s"


def _corpus():
    """200 random connected graphs with n <= 12 plus the named families."""
    graphs = []
    rng = random.Random(90)
    for seed in range(200):
        n = rng.randint(4, 12)
        p = rng.choice([0.3, 0.4, 0.55])
        graphs.append(random_connected_graph(n, p, 5000 + seed))
    graphs += [
        cycle_graph(8),
        cycle_graph(12),
        complete_graph(6),
        complete_graph(9),
        barbell_graph(4, 1),
        barbell_graph(5, 3),
        star_graph(8),
        two_triangles_bridge(),
    ]
    return graphs


CORPUS = _corpus()


def test_ac1_oracle_contract_suite():
    t0 = time.time()
    rng = random.Random(91)
    for g in CORPUS:
        phi = Fraction(1, rng.choice([3, 4, 6, 10, 25]))
        r = rng.choice([1, 2])
        res = bal_cut_prune(g, phi, r)
        vol = g.volume()
        recount = cut_edge_count(g, res.a_side) if res.b_side else 0
        assert recount == res.cut_edges
        if res.cut_edges:
            assert Fraction(res.cut_edges) <= res.alpha * phi * vol
        if res.branch == "balanced":
            assert 3 * g.volume(res.a_side) >= vol
            assert 3 * g.volume(res.b_side) >= vol
        else:
            assert res.branch == "pruned"
            sub, _ = induced_subgraph(g, res.a_side)
            if sub.n >= 2:
                assert graph_conductance(sub) >= phi
    _stamp("AC1", t0, 60, f"[{len(CORPUS)} instances]")


def test_ac2_expander_construction():
    t0 = time.time()
    for k in (3, 4):
        assert graph_sparsity(gabber_galil(k)) == TORUS_SPARSITY[k] > 0
    for k in (5, 6, 7, 8):
        g = gabber_galil(k)
        lam = lambda2_normalized(g)
        assert lam / 2 > 0
        # accuracy to 1e-8 against a dense eigensolver
        deg = np.array(g.degrees(), dtype=float)
        a = adjacency_matrix(g).toarray()
        dinv = 1.0 / np.sqrt(deg)
        lap = np.eye(g.n) - (dinv[:, None] * a) * dinv[None, :]
        dense = float(np.sort(np.linalg.eigvalsh(lap))[1])
        assert abs(lam - dense) <= 1e-8
    for n in range(1, 501):
        h = construct_expander(n)
        assert h.n == n
        assert h.max_degree() <= 9
        from balcut.graph import is_connected

        assert is_connected(h)
    _stamp("AC2", t0, 30)


def test_ac3_es_tree_equivalence():
    t0 = time.time()
    rng = random.Random(92)
    total_deletions = 0
    for run in range(50):
        n = rng.randint(8, 50)
        g = random_graph(n, rng.choice([0.1, 0.2, 0.35]), 7000 + run)
        cap = rng.choice([3, 5, 9, 14])
        root = rng.randrange(n)
        tree = ESTree(g, root, cap)
        alive = [1] * g.m
        order = list(range(g.m))
        rng.shuffle(order)
        for eid in order[: min(g.m, 200)]:
            tree.delete_edge(eid)
            alive[eid] = 0
            total_deletions += 1
            fresh = bfs_levels(g, [root], depth_cap=cap, alive_edge=alive)
            want = [lv if lv <= cap else INF for lv in fresh]
            assert tree.levels() == want
    assert total_deletions <= 10_000
    _stamp("AC3", t0, 30, f"[{total_deletions} deletions]")


def test_ac4_unit_flow_contract():
    t0 = time.time()
    rng = random.Random(93)
    done = 0
    while done < 300:
        n = rng.randint(4, 14)
        g = random_connected_graph(n, 0.4, 11_000 + done)
        deg = g.degrees()
        phi = Fraction(1, rng.randint(2, 8))
        sink = tuple(rng.randint(0, d) for d in deg)
        source = [0] * g.n
        remaining = sum(sink)
        for v in range(g.n):
            if remaining <= 0:
                break
            take = rng.randint(0, min(deg[v], remaining))
            source[v] = take
            remaining -= take
        inst = FlowInstance(g, tuple(source), sink, phi)
        pf, excess, cut = bounded_push_relabel(inst)
        pf.validate(inst)  # antisymmetry, mass conservation, congestion
        cap = inst.congestion_cap
        assert all(abs(f) <= cap for f in pf.flow)
        if excess > 0:
            assert cut is not None
            assert cut.conductance < phi
            assert min(cut.vol_s, cut.vol_comp) >= excess
        paths = decompose_preflow(g, pf, inst)
        assert len(paths) == sum(source) - excess
        done += 1
    _stamp("AC4", t0, 30, "[300 instances]")


def test_ac5_matching_player():
    t0 = time.time()
    rng = random.Random(94)
    routed = cut_hits = 0
    for trial in range(100):
        n = rng.randint(10, 40)
        g = random_connected_graph(n, rng.choice([0.25, 0.4]), 13_000 + trial)
        verts = list(range(n))
        rng.shuffle(verts)
        k = rng.randint(1, 3)
        chunk = max(1, n // (2 * k + 2))
        fams = []
        at = 0
        for _ in range(k):
            a = verts[at: at + chunk]
            b = verts[at + chunk: at + 2 * chunk]
            at += 2 * chunk
            if a and b:
                fams.append((a, b))
        if not fams:
            continue
        fam = PairFamily.of(fams)
        ell = rng.choice([4, 6, 10])
        z = rng.randint(0, 2)
        delta = g.max_degree()
        try:
            res = route_or_cut(g, fam, z, ell)
        except Exception:
            continue  # desk-scale ell below the analysis floor may refuse
        if isinstance(res, PartialRouting):
            routed += 1
            assert res.value >= fam.demand() - z
            for p in res.paths.values():
                assert len(p) - 1 <= ell
            assert res.congestion <= ell * ell
            assert res.congestion == path_congestion(g, list(res.paths.values()))
        else:
            cut_hits += 1
            assert res.sparsity <= Fraction(72 * delta * log2ceil(n), ell)
            assert 2 * min(res.size, n - res.size) >= z

    # Bounded-degree bridged blocks with short ell force the cut branch.
    for seed in (3, 7, 11):
        block = random_regularish_graph(60, 3, seed=seed)
        edges = list(block.edges) + [(60 + u, 60 + v) for u, v in block.edges]
        edges.append((0, 60))
        g = MultiGraph(120, edges)
        fam = PairFamily.of([(list(range(30)), list(range(60, 90)))])
        res = route_or_cut(g, fam, 4, 6)
        if isinstance(res, PartialRouting):
            routed += 1
            assert res.value >= fam.demand() - 4
        else:
            cut_hits += 1
            assert res.sparsity <= Fraction(72 * g.max_degree() * log2ceil(120), 6)
            assert 2 * min(res.size, 120 - res.size) >= 4
    assert cut_hits >= 1, "the cut branch was never exercised"

    pair_checks = pair_cuts = 0
    for trial in range(60):
        n = rng.randint(8, 30)
        g = random_connected_graph(n, 0.35, 17_000 + trial)
        verts = list(range(n))
        rng.shuffle(verts)
        na = rng.randint(1, n // 3)
        a, b = verts[:na], verts[na: 2 * na + rng.randint(0, 2)]
        if len(a) > len(b) or not b:
            continue
        z = rng.randint(0, 2)
        psi = Fraction(1, rng.randint(3, 6))
        delta = g.max_degree()
        res = route_or_cut_1pair(g, a, b, z, psi)
        if isinstance(res, PairRouting):
            assert res.value >= len(a) - z
            assert res.congestion <= -(-(4 * delta) // psi)
        else:
            assert res.sparsity <= psi
            assert min(res.size, n - res.size) * delta >= z
        pair_checks += 1
    # jammed single-pair instances: demand exceeds the bridge capacity
    for seed in (5, 9):
        block = random_regularish_graph(150, 3, seed=seed)
        edges = list(block.edges) + [(150 + u, 150 + v) for u, v in block.edges]
        edges.append((0, 150))
        g = MultiGraph(300, edges)
        psi = Fraction(1, 4)
        res = route_or_cut_1pair(
            g, list(range(150)), list(range(150, 300)), 10, psi,
            early_check_interval=5000,
        )
        assert isinstance(res, Cut)
        assert res.sparsity <= psi
        assert min(res.size, 300 - res.size) * g.max_degree() >= 10
        pair_cuts += 1
    _stamp("AC5", t0, 60,
           f"[route {routed}/cut {cut_hits}; 1pair {pair_checks}+{pair_cuts} cuts]")


def test_ac6_cut_matching_termination():
    t0 = time.time()
    rng = random.Random(95)
    hosts = []
    for n in (16, 24, 32, 48, 64, 96, 128, 192, 256):
        hosts.append(construct_expander(n))
    for seed in range(70):
        n = rng.choice([16, 20, 24, 32, 48, 64, 80])
        hosts.append(random_connected_graph(n, rng.choice([0.2, 0.35]), 19_000 + seed))
    hosts.append(barbell_graph(12, 1))
    hosts.append(barbell_graph(8, 6))
    hosts.append(cycle_graph(64))
    hosts.append(cycle_graph(200))
    hosts.append(complete_graph(16))
    block = random_regularish_graph(64, 3, seed=3)
    edges = list(block.edges) + [(64 + u, 64 + v) for u, v in block.edges] + [(0, 64)]
    hosts.append(MultiGraph(128, edges))
    for extra in range(100 - len(hosts)):
        hosts.append(random_connected_graph(16 + extra % 32, 0.3, 23_000 + extra))
    assert len(hosts) >= 100

    witnesses = cuts = 0
    first_full = 0

    def drive(g, psi):
        nonlocal witnesses, cuts, first_full
        n_eff = g.n + (g.n % 2)
        cap = math.ceil(10 * math.log2(n_eff))
        res = iterations_final_cut(g, psi, max(1, g.n // 16), 1)
        if isinstance(res, WitnessResult):
            witnesses += 1
            assert res.rounds <= cap
            if res.witness.n <= WALK_POTENTIAL_CAP:
                trace = walk_potential(res.witness.rounds, res.witness.n)
                assert trace[0] == 0.0
                assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))
                nval = res.witness.n
                assert all(x <= nval * math.log(nval) + 1e-9 for x in trace)
                if res.witness.rounds and len(res.witness.rounds[0]) == nval // 2:
                    first_full += 1
                    assert trace[1] == pytest.approx(nval * math.log(2), abs=1e-9)
        else:
            cuts += 1
            assert isinstance(res, Cut)
            assert res.sparsity <= psi

    for g in hosts[:97]:
        drive(g, Fraction(1, 8))
    # bounded-degree bridged hosts where the matcher must surface a cut
    for seed in (5, 9, 13):
        block = random_regularish_graph(150, 3, seed=seed)
        edges = list(block.edges) + [(150 + u, 150 + v) for u, v in block.edges]
        edges.append((0, 150))
        drive(MultiGraph(300, edges), Fraction(49, 100))
    assert first_full > 0
    assert cuts >= 1, "no host cut was ever surfaced"
    _stamp("AC6", t0, 120, f"[{witnesses} witnesses, {cuts} host cuts]")


def test_ac7_pruning_contract():
    t0 = time.time()
    rng = random.Random(96)
    checked = 0
    for n in (6, 8, 9, 10, 12, 14):
        g = construct_expander(n)
        phi = graph_conductance(g)  # brute-force verified premise
        assert phi > 0
        unit = (2 / phi).__ceil__()
        kmax = min((phi * g.m / 10).__ceil__(), g.volume() // (2 * unit))
        if kmax < 1:
            continue
        for _ in range(5):
            k = rng.randint(1, min(kmax, 3))
            dels = sorted(rng.sample(range(g.m), k))
            a, b = expander_prune(g, phi, dels)
            dead = set(dels)
            boundary = sum(
                1 for eid, (u, v) in enumerate(g.edges)
                if eid not in dead and (u in a) != (v in a)
            )
            assert boundary <= 4 * k
            assert g.volume(b) * phi <= 8 * k
            sub, _ = pruned_subgraph(g, dels, a)
            if 2 <= sub.n <= 16:
                assert graph_conductance(sub) >= phi / 6
            checked += 1
    assert checked >= 15
    _stamp("AC7", t0, 30, f"[{checked} prunings]")


def test_ac8_decomposition_at_scale():
    t0 = time.time()
    eps = Fraction(1, 2)
    g, labels = planted_expander_union(
        [6250] * 4, 8, [(0, 1), (1, 2), (2, 3)], seed=17
    )
    assert 95_000 <= g.m <= 105_000
    # bridge count is far below the eps/2 budget
    assert 3 <= eps * g.volume() / 2
    dec = expander_decomposition(g, eps, 2)
    assert Fraction(dec.inter_cluster_edges) <= eps * g.volume()
    assert all(c > 0 for c in dec.certificates)
    agree = 0
    for cluster in dec.clusters:
        counts = collections.Counter(labels[v] for v in cluster)
        agree += counts.most_common(1)[0][1]
    recovery = agree / g.n
    assert recovery >= 0.95
    _stamp("AC8", t0, 600,
           f"[{len(dec.clusters)} clusters, recovery {recovery:.3f}]")


def test_ac9_determinism(tmp_path):
    t0 = time.time()
    from balcut.fileio import write_graph

    gfile = tmp_path / "g.txt"
    with open(gfile, "w") as fh:
        write_graph(barbell_graph(6, 2), fh)
    dels = tmp_path / "dels.txt"
    dels.write_text("0\n")

    k6 = tmp_path / "k6.txt"
    with open(k6, "w") as fh:
        write_graph(complete_graph(6), fh)
    cutfile = tmp_path / "cut.txt"
    cutfile.write_text("".join(f"{v} {int(v >= 3)}\n" for v in range(6)))

    commands = [
        ["balcut", "--phi", "1/4", "--r", "1", str(gfile)],
        ["decompose", "--eps", "1/2", "--r", "1", str(gfile)],
        ["sparsest", "--r", "1", str(gfile)],
        ["lowcond", "--r", "1", str(gfile)],
        ["certify", "--r", "1", "--diagnostics", str(gfile)],
        ["prune", "--phi", "1/2", "--deleted", str(dels), str(k6)],
        ["gen", "gabber-galil", "--k", "4"],
        ["verify", "--oracle", "sparsest", str(k6), str(cutfile)],
    ]
    for base in commands:
        outputs = []
        for i in range(2):
            rep = tmp_path / f"rep_{i}.json"
            part = tmp_path / f"part_{i}.txt"
            argv = list(base)
            if base[0] not in ("gen", "verify"):
                argv += ["--out-report", str(rep), "--out-partition", str(part)]
                assert dispatch(argv) == 0
                outputs.append(rep.read_bytes() + part.read_bytes())
            else:
                import contextlib

                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    assert dispatch(argv) == 0
                outputs.append(buf.getvalue().encode())
        assert outputs[0] == outputs[1], f"non-deterministic: {base[0]}"
    _stamp("AC9", t0, 120)


def test_ac10_small_scale_approximation_audit():
    t0 = time.time()
    worst_sparse = 1.0
    worst_cond = 1.0
    for g in CORPUS:
        res = sparsest_cut(g, 1)
        optimum = graph_sparsity(g)
        assert res.floor <= optimum  # certified floor is genuine
        assert res.value >= optimum  # the returned cut is a real cut
        assert res.floor > 0
        assert float(res.value) <= res.factor * float(optimum) + 1e-9
        worst_sparse = max(worst_sparse, float(res.value / optimum))

        res = lowest_conductance_cut(g, 1)
        optimum = graph_conductance(g)
        assert res.floor <= optimum
        assert res.value >= optimum
        assert res.floor > 0
        assert float(res.value) <= res.factor * float(optimum) + 1e-9
        worst_cond = max(worst_cond, float(res.value / optimum))
    # regression bound: the worst observed value/optimum ratios
    assert worst_sparse <= 4.0
    assert worst_cond <= 4.0
    _stamp("AC10", t0, 120,
           f"[worst ratio sparsity {worst_sparse:.3f}, conductance {worst_cond:.3f}]")
