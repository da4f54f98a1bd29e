"""Micro-benchmarks of ``lambda2_normalized`` on five inputs.

Not collected by the default ``test_*.py`` pattern; run them with

    python -m pytest tests/bench_spectral.py --benchmark-only -s

- ``certify_expander``: ``construct_expander(40000)`` with its vertices
  relabelled at seed 1, the input of that ``perfbench`` workload;
- ``decompose_planted``: the four bridged 1000-vertex blocks of that
  workload at seed 1, a graph with a small spectral gap;
- ``grid64``: the 64 x 64 grid, the slowest of the five to converge;
- ``decompose_cluster``: the first certified 1000-vertex cluster whose
  floor ``decompose_planted``'s op at seed 1 measures;
- ``sparsest_remainder``: the 304-vertex remainder that the cut player
  certifies in ``sparsest_planted``'s op at seed 1.

On the last two, the per-step work besides the sparse matvec weighs as
much as the matvec itself.

Besides the pytest-benchmark timings, each test prints the Lanczos step
count, the seconds of one plain call and the ``tracemalloc`` peak of
another.

``test_cheeger_gate`` times ``bal_cut_prune``'s Cheeger gate on the
inputs whose gate fails in ``decompose_planted``'s op at seed 1 (the
4000-vertex input and a 2000-vertex half, phi = 1/240) and prints the
steps the gate takes against those of the full floor.
"""

import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from balcut import spectral
from balcut.graph import MultiGraph, induced_subgraph
from balcut.spectral import _floor_reaching, certified_floor, lambda2_normalized

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import (  # noqa: E402
    CertifyExpander,
    DecomposePlanted,
    SparsestPlanted,
)


def _grid(side):
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range((side - 1) * side)]
    return MultiGraph(side * side, edges)


def _measured_in(workload, n):
    """The first n-vertex graph on which the workload's op at seed 1 runs
    Lanczos, in a gate or for a floor."""
    seen = []
    real = spectral._lanczos

    def spy(g, quit_below):
        seen.append(g)
        return real(g, quit_below)

    spectral._lanczos = spy
    try:
        workload.solve(workload.setup(1))
    finally:
        spectral._lanczos = real
    return next(g for g in seen if g.n == n)


INPUTS = {
    "certify_expander": lambda: CertifyExpander().setup(1).g,
    "decompose_planted": lambda: DecomposePlanted().setup(1).g,
    "grid64": lambda: _grid(64),
    "decompose_cluster": lambda: _measured_in(DecomposePlanted(), 1000),
    "sparsest_remainder": lambda: _measured_in(SparsestPlanted(), 304),
}


def _steps_of(call, monkeypatch):
    """(steps, result) of ``call()``: the size of the last tridiagonal that
    Lanczos checked."""
    steps = []
    real = spectral._smallest_ritz

    def spy(d, e):
        steps.append(len(d))
        return real(d, e)

    monkeypatch.setattr(spectral, "_smallest_ritz", spy)
    try:
        out = call()
    finally:
        monkeypatch.undo()
    return steps[-1], out


def _profile(g, monkeypatch):
    """(steps, seconds, tracemalloc peak in bytes) of lambda2_normalized(g)."""
    t = time.perf_counter()
    lambda2_normalized(g)
    seconds = time.perf_counter() - t
    steps, _ = _steps_of(lambda: lambda2_normalized(g), monkeypatch)
    tracemalloc.start()
    try:
        lambda2_normalized(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return steps, seconds, peak


@pytest.mark.parametrize("name", list(INPUTS))
def test_lambda2(benchmark, monkeypatch, name):
    g = INPUTS[name]()
    lam = benchmark(lambda2_normalized, g)
    assert 0 < lam < 2
    steps, seconds, peak = _profile(g, monkeypatch)
    print(f"\n{name}: n={g.n} m={g.m} lambda2={lam:.6g} steps={steps} "
          f"seconds={seconds:.3f} peak_mb={peak / 2**20:.1f}")


GATE_PHI = Fraction(1, 240)  # expander_decomposition's phi at eps = 1/2
GATE_INPUTS = {
    "decompose_planted": lambda: DecomposePlanted().setup(1).g,
    "decompose_half": lambda: induced_subgraph(DecomposePlanted().setup(1).g,
                                               range(2000))[0],
}


@pytest.mark.parametrize("name", list(GATE_INPUTS))
def test_cheeger_gate(benchmark, monkeypatch, name):
    g = GATE_INPUTS[name]()
    assert benchmark(_floor_reaching, g, GATE_PHI) is None
    gate, _ = _steps_of(lambda: _floor_reaching(g, GATE_PHI), monkeypatch)
    full, floor = _steps_of(lambda: certified_floor(g, "conductance"), monkeypatch)
    assert floor < GATE_PHI
    print(f"\n{name}: n={g.n} m={g.m} phi={GATE_PHI} gate_steps={gate} "
          f"full_steps={full} floor={float(floor):.3g}")
