import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import balcut.pruning as pruning
from balcut.cli import dispatch
from balcut.errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    InvalidInput,
    PreconditionViolated,
)
from balcut.expanders import construct_expander
from balcut.fileio import write_graph
from balcut.generators import complete_graph, random_regularish_graph
from balcut.graph import (
    MultiGraph,
    _index_array,
    _side_mask,
    brute_force_extremum,
    cut_stats,
    is_connected,
    live_degrees,
    masked_subgraph,
)
from balcut.localflow import FlowInstance, _PushRelabel
from balcut.pruning import _recount, expander_prune
from oracles import graph_conductance, pruned_subgraph


def check_contract(g, phi, dels, a, b):
    k = len(dels)
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
    return sub


def test_empty_deletion_is_identity():
    g = complete_graph(6)
    a, b = expander_prune(g, Fraction(1, 2), [])
    assert a == frozenset(range(6)) and b == frozenset()


def test_k6_single_deletion():
    g = complete_graph(6)
    phi = Fraction(1, 2)
    # brute-force Phi(K6) = 3/5 >= phi, so the certificate premise holds
    assert graph_conductance(g) == Fraction(3, 5)
    a, b = expander_prune(g, phi, [0])
    sub = check_contract(g, phi, [0], a, b)
    assert g.volume(b) <= 16
    assert graph_conductance(sub) >= Fraction(1, 12)


def feasible_k(g, phi):
    """Largest k within both the nominal and the charge-feasibility budget."""
    nominal = (phi * g.m / 10).__ceil__()
    unit = (2 / phi).__ceil__()
    return min(nominal, g.volume() // (2 * unit))


def test_constructed_expander_with_budget_deletions():
    g = construct_expander(12)
    phi = graph_conductance(g)  # measured, n <= 16 so exact
    k = max(1, feasible_k(g, phi))
    if 2 * k * (2 / phi).__ceil__() > g.volume():
        pytest.skip("no feasible deletion batch at this size")
    dels = list(range(k))
    a, b = expander_prune(g, phi, dels)
    check_contract(g, phi, dels, a, b)


def test_budget_rejection():
    g = complete_graph(6)
    with pytest.raises(BudgetExceeded):
        expander_prune(g, Fraction(1, 10), [0, 1, 2, 3])
    with pytest.raises(InvalidInput):
        expander_prune(g, Fraction(1, 2), [0, 0])


def test_non_integral_edge_ids_are_rejected():
    g = complete_graph(6)
    phi = Fraction(1, 2)
    for bad in ([1.5], ["3"], [np.float64(2)], [0, 2.0]):
        with pytest.raises(InvalidInput, match="^deleted edge ids must be integers$"):
            expander_prune(g, phi, bad)
    # numpy integers, and a numpy array of them, name the same edge as an int
    want = expander_prune(g, phi, [3])
    for ids in ([np.int64(3)], [np.uint8(3)], np.array([3], dtype=np.int32)):
        assert expander_prune(g, phi, ids) == want


def test_random_small_expanders_full_contract():
    rng = random.Random(3)
    tried = 0
    for n in (6, 8, 9, 10, 12, 14):
        g = construct_expander(n)
        phi = graph_conductance(g)
        if phi <= 0:
            continue
        kmax = feasible_k(g, phi)
        if kmax < 1:
            continue
        for _ in range(4):
            k = rng.randint(1, min(kmax, 3))
            dels = sorted(rng.sample(range(g.m), k))
            a, b = expander_prune(g, phi, dels)
            check_contract(g, phi, dels, a, b)
            tried += 1
    assert tried >= 10


def test_infeasible_charge_is_flagged_as_budget():
    # Sparse phi with the ceiling-relaxed nominal budget makes the source
    # charge outgrow the volume; that is an over-budget batch, not a bug.
    from balcut.generators import two_triangles_bridge

    g = two_triangles_bridge()
    phi = graph_conductance(g)  # 1/7: charge 2*ceil(2/phi) = 28 > Vol = 14
    with pytest.raises(BudgetExceeded):
        expander_prune(g, phi, [6])


def rebuild_prune(g, phi, deleted):
    """``expander_prune`` as it was before it trimmed on the host graph:
    every round rebuilds (g - batch)[V - B] and poses its flow problem
    there.  Push-relabel is looked up on ``pruning`` so that a test can
    record the rounds of both versions."""
    phi = Fraction(phi)
    if not (0 < phi <= 1):
        raise InvalidInput(f"phi must lie in (0, 1], got {phi}")
    dels = sorted(set(int(e) for e in deleted))
    if dels and (dels[0] < 0 or dels[-1] >= g.m):
        raise InvalidInput("deleted edge id out of range")
    if len(dels) != len(deleted):
        raise InvalidInput("deleted edge ids must be distinct")
    k = len(dels)
    if k == 0:
        return frozenset(range(g.n)), frozenset()
    budget = math.ceil(phi * g.m / 10)
    if k > budget:
        raise BudgetExceeded(f"k={k} deleted edges exceed ceil(phi*m/10)={budget}")
    unit = math.ceil(2 / phi)
    if 2 * k * unit > g.volume():
        raise BudgetExceeded(
            f"trimming charge {2 * k * unit} exceeds the graph volume; "
            f"the deletion batch is too large for phi={phi} at this scale"
        )

    eu, ev = g.eu, g.ev
    dead = np.zeros(g.m, dtype=bool)
    dead[dels] = True
    charge = np.bincount(np.concatenate([eu[dels], ev[dels]]), minlength=g.n)
    inside = ~dead
    in_b = np.zeros(g.n, dtype=bool)

    for _ in range(g.volume() + 1):
        work, members = masked_subgraph(g, ~in_b, inside)
        if not members.size:
            raise InternalInvariantBroken("trimming consumed the whole graph")
        stranded = members[(work.deg == 0) & (charge[members] > 0)]
        if stranded.size:
            in_b[stranded] = True
            charge[stranded] = 0
            continue
        source = tuple((unit * charge[members]).tolist())
        sink = work.degrees()
        if sum(source) > sum(sink):
            raise BudgetExceeded(
                "trimming charge outgrew the remaining volume; the deletion "
                "batch is too large for this phi at this scale"
            )
        inst = FlowInstance(work, source, sink, phi, check_degree_caps=False)
        _, excess, cut = pruning.bounded_push_relabel(inst)
        if excess == 0:
            break
        if cut is None:
            raise PreconditionViolated(
                f"trimming left excess {excess} and no level cut below "
                f"phi={phi}; that cannot happen when Phi(g) >= phi, the "
                "premise expander_prune trusts without checking it"
            )
        carved = members[_index_array(cut.side)]
        in_b[carved] = True
        charge[carved] = 0
        crossing = inside & (in_b[eu] != in_b[ev])
        outside = np.where(in_b[eu[crossing]], ev[crossing], eu[crossing])
        charge += np.bincount(outside, minlength=g.n)
        inside &= ~crossing
    else:
        raise InternalInvariantBroken("trimming did not converge")

    _recount(g, phi, dead, in_b, k)
    return (frozenset(np.flatnonzero(~in_b).tolist()),
            frozenset(np.flatnonzero(in_b).tolist()))


def _chain_case(seed):
    """A regular-ish core with a chain of small cliques hanging off it,
    and deletions at the chain's far end: trimming carves the last clique,
    then often the clique its new boundary charges, and strands vertices
    whose every edge is deleted."""
    rng = random.Random(seed)
    core = rng.choice([16, 20, 24, 30])
    edges = list(random_regularish_graph(core, rng.randint(4, 6), seed).edges)
    n, prev = core, list(range(core))
    for _ in range(rng.randint(1, 4)):
        block = list(range(n, n + rng.randint(2, 5)))
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
        edges += [(rng.choice(prev), rng.choice(block)) for _ in range(rng.randint(1, 3))]
        prev, n = block, block[-1] + 1
    edges += [edges[rng.randrange(len(edges))] for _ in range(rng.randint(0, 3))]
    g = MultiGraph(n, edges)
    phi = Fraction(1, rng.choice([2, 3, 4, 6, 8]))
    chain = [eid for eid, (u, v) in enumerate(edges) if max(u, v) >= prev[0]]
    rng.shuffle(chain)
    return g, phi, sorted(chain[:rng.randint(1, math.ceil(phi * g.m / 10))])


def _bfs_ball(g, start, size):
    """The first ``size`` vertices that a BFS from ``start`` reaches."""
    order, seen = [start], {start}
    for v in order:  # grows as the search goes
        for _, w in g.neighbors(v):
            if len(order) == size:
                return order
            if w not in seen:
                seen.add(w)
                order.append(w)
    return order


def _tail_case(seed):
    """A regular-ish host of 300 to 3,000 vertices with a tail of cliques,
    each joined to the one before by 5 to 14 edges, at phi = 1/2.  The
    batch is the boundary of a BFS ball at the tail's end, as in the
    ``prune_batches`` benchmark.  Trimming carves the ball; now and then a
    level cut splits a clique, the new boundary overcharges the rest of
    it, and the carving goes on down the tail."""
    rng = random.Random(seed)
    host = random_regularish_graph(2 * rng.randint(150, 1500), rng.choice([4, 6, 8]), seed)
    edges = list(host.edges)
    n, prev = host.n, range(host.n)
    for _ in range(rng.randint(3, 10)):
        block = range(n, n + rng.randint(3, 8))
        edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]]
        edges += [(rng.choice(prev), rng.choice(block)) for _ in range(rng.randint(5, 14))]
        prev, n = block, block[-1] + 1
    g = MultiGraph(n, edges)
    inside = _side_mask(n, _bfs_ball(g, rng.choice(prev), rng.randint(1, 2 * len(prev))))
    return g, Fraction(1, 2), np.flatnonzero(inside[g.eu] != inside[g.ev]).tolist()


def _budget_case(seed):
    """A tiny matching union at phi = 1/8, where one deletion's charge is
    about the whole volume: the up-front budget checks and the in-loop
    one that fires once carving adds boundary charge."""
    rng = random.Random(seed)
    g = random_regularish_graph(rng.choice([6, 8, 10]), rng.choice([3, 4]), seed)
    k = 1 if rng.random() < 0.8 else 2
    return g, Fraction(1, 8), sorted(rng.sample(range(g.m), k))


@pytest.fixture
def run_recorded(monkeypatch):
    """``run(prune, g, phi, dels)``: the result, or the exception's name
    and message, and one record per trimming round of its height cap,
    excess, levels, cut counts and sink total."""
    real = pruning.bounded_push_relabel
    rounds = []

    def recording(inst, **kw):
        pf, excess, cut = real(inst, **kw)
        cut_counts = None if cut is None else (cut.delta, cut.vol_s, cut.vol_comp)
        levels = sorted(x for x in pf.level if x > 0)  # id-free
        # the sink total is the live volume of (g - batch)[V - B]
        rounds.append((inst.height_cap, excess, levels, cut_counts, sum(inst.sink)))
        return pf, excess, cut

    monkeypatch.setattr(pruning, "bounded_push_relabel", recording)

    def run(prune, g, phi, dels):
        rounds.clear()
        try:
            result = prune(g, phi, dels)
        except (BudgetExceeded, InternalInvariantBroken, PreconditionViolated) as exc:
            result = (type(exc).__name__, str(exc))
        return result, list(rounds)

    return run


def test_host_graph_trimming_matches_the_rebuild_reference(run_recorded):
    run = run_recorded
    seen = Counter()
    # seeds 245 and 506 carve in two rounds
    cases = [_chain_case(seed) for seed in [*range(250), 506]]
    cases += [_budget_case(seed) for seed in range(60)]
    for g, phi, dels in cases:
        want = run(rebuild_prune, g, phi, dels)
        assert run(expander_prune, g, phi, dels) == want
        result, want_rounds = want
        if result[0] == "BudgetExceeded":  # which of the three checks
            message = result[1]
            seen["outgrew" if "outgrew" in message else message[:2]] += 1
        seen["premise"] += result[0] == "PreconditionViolated"
        seen["multi-round"] += sum(r[3] is not None for r in want_rounds) >= 2
        alive = np.ones(g.m, dtype=bool)
        alive[dels] = False
        seen["stranded"] += bool(((live_degrees(g, alive) == 0) & (g.deg > 0)).any())
        seen["parallel"] += len(set(g.edges)) < g.m
        # the live edge count fell below a power of two that g.m reaches
        host_cap = FlowInstance(g, (0,) * g.n, (0,) * g.n, phi).height_cap
        seen["lower cap"] += any(r[0] < host_cap for r in want_rounds)
    assert seen["multi-round"] >= 2
    assert min(seen["stranded"], seen["parallel"], seen["lower cap"]) >= 5
    assert min(seen["k="], seen["tr"], seen["outgrew"], seen["premise"]) >= 1, seen


def test_many_carves_match_the_rebuild_reference(run_recorded):
    # A round that carves drops the carved vertices' slots and reloads the
    # sinks around them; later rounds reset the lists over the last
    # footprint.  With three carves or more, the last rounds run on a
    # solver that two carves or more have updated.  Tail cases carve that
    # often in 34 of the first 25,000 seeds; the eight named ones do.
    many = [1106, 2222, 4997, 5171, 6371, 7345, 8234, 8744]
    seen = Counter()
    for seed in [*range(40), *many]:
        g, phi, dels = _tail_case(seed)
        want = run_recorded(rebuild_prune, g, phi, dels)
        assert run_recorded(expander_prune, g, phi, dels) == want
        result, rounds = want
        carves = sum(r[3] is not None for r in rounds)
        seen[min(carves, 3)] += 1
        seen[result[0] if isinstance(result[0], str) else "pruned"] += 1
    assert seen[3] >= 8 and seen[2] >= 1, seen
    assert seen["pruned"] >= 30 and seen["PreconditionViolated"] >= 4, seen


def test_a_reused_solver_runs_like_a_fresh_one(monkeypatch):
    # Every trimming round of a call runs on one solver.  Its lists, work
    # count and level counts must come out as a fresh solver's on the
    # same instance, so nothing a reset missed can steer a later round.
    real = pruning.bounded_push_relabel
    rounds = Counter()

    def compared(inst, **kw):
        out = real(inst, **kw)
        reused = kw["_solver"]
        fresh = _PushRelabel(inst.g, inst.alive)
        fresh.pose(inst)
        fresh.run()
        for name in ("flow", "level", "mass", "sink", "ptr", "work", "gaps", "count"):
            assert getattr(reused, name) == getattr(fresh, name), name
        assert sorted(reused.raised) == sorted(fresh.raised)
        rounds["rounds"] += 1
        return out

    monkeypatch.setattr(pruning, "bounded_push_relabel", compared)
    cases = [_tail_case(seed) for seed in [*range(20), 1106, 2222, 7345, 8744]]
    cases += [_chain_case(seed) for seed in (245, 506, 776, 902)]
    for g, phi, dels in cases:
        rounds["calls"] += 1
        try:
            expander_prune(g, phi, dels)
        except PreconditionViolated:
            pass
    # past its first round, a call's rounds run on a used solver
    assert rounds["rounds"] - rounds["calls"] >= 30, rounds


def test_trimming_rounds_allocate_less_than_their_host(monkeypatch):
    # After one set-up per call, a round's lists and arrays follow its
    # footprint: no round copies the host's slot list or makes an m-entry
    # list.  A round is traced from its instance's construction to the
    # next one's, or to its solver call's return for the last round.
    g = random_regularish_graph(5000, 16, 3)
    assert g.m == 40000
    inside = _side_mask(g.n, _bfs_ball(g, 0, 40))
    dels = np.flatnonzero(inside[g.eu] != inside[g.ev])
    real_instance, real_flow = pruning.FlowInstance, pruning.bounded_push_relabel
    peaks = []

    def window_peak():
        return tracemalloc.get_traced_memory()[1] - peaks[-1][0]

    def instance(*args, **kw):
        if peaks:
            peaks[-1][1] = window_peak()
        tracemalloc.reset_peak()
        peaks.append([tracemalloc.get_traced_memory()[0], None])
        return real_instance(*args, **kw)

    def flow(inst, **kw):
        out = real_flow(inst, **kw)
        peaks[-1][1] = window_peak()
        return out

    monkeypatch.setattr(pruning, "FlowInstance", instance)
    monkeypatch.setattr(pruning, "bounded_push_relabel", flow)
    pruning.expander_prune(g, Fraction(1, 4), dels)  # build the slot lists
    peaks.clear()
    tracemalloc.start()
    try:
        a, b = pruning.expander_prune(g, Fraction(1, 4), dels)
    finally:
        tracemalloc.stop()
    assert len(peaks) >= 2 and len(b) >= 40
    assert max(peak for _, peak in peaks) < 8 * g.m, peaks


def test_host_below_phi_is_a_precondition_violation(tmp_path, capsys):
    # Trimming trusts Phi(g) >= phi.  In case 58 the chain {20, ..., 25}
    # hangs off the rest by one edge, and its far end loses three edges:
    # a round ends with excess and no level cut below phi.  In case 245
    # the chain {22, ..., 33} does, and B outgrows the volume bound.
    premise = ("that cannot happen when Phi(g) >= phi, the premise "
               "expander_prune trusts without checking it")
    cases = [
        (58, range(20, 26), Fraction(1, 19),
         "trimming left excess 3 and no level cut below phi=1/2; "),
        (245, range(22, 34), Fraction(1, 51),
         "pruned volume 51 exceeds 8k/phi = 48.00; "),
    ]
    for seed, chain, conductance, what in cases:
        g, phi, dels = _chain_case(seed)
        assert cut_stats(g, chain).conductance == conductance < phi
        message = what + premise
        with pytest.raises(PreconditionViolated) as caught:
            expander_prune(g, phi, dels)
        assert str(caught.value) == message
        gfile, dfile = tmp_path / f"chain{seed}.txt", tmp_path / f"del{seed}.txt"
        with open(gfile, "w") as fh:
            write_graph(g, fh)
        dfile.write_text("".join(f"{eid}\n" for eid in dels))
        args = ["prune", "--phi", str(phi), "--deleted", str(dfile), str(gfile)]
        assert dispatch(args) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
