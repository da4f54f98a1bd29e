"""Micro-benchmarks of Unit-Flow push-relabel on three benchmark instances.

Not collected by the default ``test_*.py`` pattern; run them with

    python -m pytest tests/bench_localflow.py --benchmark-only

Each instance is the first ``bounded_push_relabel`` call of a workload in
``perfbench/workloads.py`` at seed 1, captured by running the workload's
op until that call:

- ``prune_batches``: the first trimming round of ``expander_prune`` on the
  160k-edge graph (oversized sources, no degree caps), posed on the host
  graph under a live-edge mask;
- ``sparsest_planted``: the first matcher instance of the cut-matching
  game, a degree-capped ``route_or_cut_1pair`` call (early level-cut
  checks are off at this size).  Its excess is stranded, so the gap
  heuristic fires;
- ``decompose_planted``: the first matcher instance of the decomposition,
  16,003 sources on the 32,006-vertex reduced graph.  At least
  ``PULSE_WIDTH`` of them hold excess, so it runs in 2 pulses and no
  slot-by-slot discharge: the first relabels every source to level 1, the
  second pushes 1 unit and relabels the other sources to level 2, and the
  early level-cut check then stops it.  No gap fires, so it times the
  array passes of a pulse.  It records each call's minor page faults in
  ``extra_info``: a pulse that allocates temporaries over the slots of
  its active set faults fresh pages in.

Two more benchmarks time a whole ``prune_batches`` op, its three
``expander_prune`` calls: one on a fresh copy of the graph each round, so
that it pays for the slot lists as one ``balcut prune`` call does, and one
on the same graph every round, as the benchmark's ops run.  The second
records each op's minor page faults in ``extra_info``: trimming rounds
that allocate m-sized temporaries fault their pages in again and again.
The standalone call above pays the set-up that ``expander_prune`` makes
once per call.

Every benchmark records in ``extra_info``, for each push-relabel run of
one untimed call, its ``work``, ``gaps`` and ``len(raised)``, the number
of pulses and the work done slot by slot after the handoff (all of it
when the run never pulsed), so that a change that alters the work the
solver does shows up there.
"""

import resource
import statistics
import sys
from pathlib import Path

import pytest

import balcut.localflow as localflow
import balcut.pruning as pruning
from balcut.graph import MultiGraph
from balcut.localflow import bounded_push_relabel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import DecomposePlanted, PruneBatches, SparsestPlanted  # noqa: E402


class _Captured(Exception):
    pass


def _first_call(module, workload):
    """(instance, public keyword arguments) of the op's first push-relabel
    call."""
    seen = []

    def capture(inst, **kw):
        seen.append((inst, {k: v for k, v in kw.items() if not k.startswith("_")}))
        raise _Captured

    real = module.bounded_push_relabel
    module.bounded_push_relabel = capture
    try:
        workload.solve(workload.setup(1))
    except _Captured:
        pass
    finally:
        module.bounded_push_relabel = real
    return seen[0]


def _counting_faults(op, faults):
    """``op``, appending the minor page faults of each call to ``faults``."""
    def counted(*args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = op(*args, **kwargs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out
    return counted


def _record_runs(benchmark, op, *args, **kwargs):
    """``op(*args, **kwargs)``, run once and untimed; each push-relabel
    run's work, gap count, |R|, pulse count and work after the handoff go
    in the benchmark's ``extra_info``."""
    runs = []
    real = localflow._run

    def run(*a):
        state, found = real(*a)
        runs.append((state.work, state.gaps, len(state.raised), state.pulses,
                     state.work - state.pulse_work))
        return state, found

    localflow._run = run
    try:
        out = op(*args, **kwargs)
    finally:
        localflow._run = real
    for key, values in zip(("work", "gaps", "raised", "pulses", "work_after_handoff"),
                           zip(*runs)):
        benchmark.extra_info[key] = list(values)
    return out


@pytest.fixture(scope="module")
def trimming_round():
    return _first_call(pruning, PruneBatches())


@pytest.fixture(scope="module")
def matcher_instance():
    return _first_call(localflow, SparsestPlanted())


@pytest.fixture(scope="module")
def early_stopped_instance():
    return _first_call(localflow, DecomposePlanted())


def test_prune_batches_first_trimming_round(benchmark, trimming_round):
    inst, kw = trimming_round
    _record_runs(benchmark, bounded_push_relabel, inst, **kw)
    assert not inst.check_degree_caps and inst.alive is not None
    pf, excess, cut = benchmark(bounded_push_relabel, inst, **kw)
    assert len(pf.flow) == inst.g.m


def test_sparsest_planted_first_matcher_instance(benchmark, matcher_instance):
    inst, kw = matcher_instance
    _record_runs(benchmark, bounded_push_relabel, inst, **kw)
    assert inst.check_degree_caps
    pf, excess, cut = benchmark(bounded_push_relabel, inst, **kw)
    assert len(pf.flow) == inst.g.m


def test_decompose_planted_first_matcher_instance(benchmark, early_stopped_instance):
    inst, kw = early_stopped_instance
    _record_runs(benchmark, bounded_push_relabel, inst, **kw)
    assert kw["early_cut_volume"] is not None
    faults = []
    pf, excess, cut = benchmark(_counting_faults(bounded_push_relabel, faults), inst, **kw)
    benchmark.extra_info["minflt_per_call"] = faults
    benchmark.extra_info["minflt_median"] = statistics.median(faults)
    # a gap would have lifted at least one vertex to the height cap
    assert cut is not None and max(pf.level) < inst.height_cap


def test_prune_batches_op_on_a_fresh_graph(benchmark):
    workload = PruneBatches()
    inp = workload.setup(1)

    def fresh():
        g = MultiGraph._from_arrays(inp.g.n, inp.g.eu, inp.g.ev)
        return (g,), {}

    def op(g):
        return [pruning.expander_prune(g, workload.phi, batch) for batch in inp.batches]

    _record_runs(benchmark, op, fresh()[0][0])
    out = benchmark.pedantic(op, setup=fresh, rounds=5)
    assert workload.digest(out) == workload.digest(workload.solve(inp))


def test_prune_batches_op_on_a_reused_graph(benchmark):
    workload = PruneBatches()
    inp = workload.setup(1)
    want = workload.digest(_record_runs(benchmark, workload.solve, inp))  # builds the slot lists
    faults = []

    def op():
        return [pruning.expander_prune(inp.g, workload.phi, batch) for batch in inp.batches]

    out = benchmark.pedantic(_counting_faults(op, faults), rounds=20)
    benchmark.extra_info["minflt_per_op"] = faults
    benchmark.extra_info["minflt_median"] = statistics.median(faults)
    assert workload.digest(out) == want
