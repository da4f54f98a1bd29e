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
"""

import sys
import time
import tracemalloc
from pathlib import Path

import pytest
import scipy.linalg

from balcut import spectral
from balcut.graph import MultiGraph
from balcut.spectral import lambda2_normalized

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
    """The first n-vertex graph whose lambda2 the workload's op at seed 1
    asks for."""
    seen = []
    real = spectral.lambda2_normalized

    def spy(g):
        seen.append(g)
        return real(g)

    spectral.lambda2_normalized = spy
    try:
        workload.solve(workload.setup(1))
    finally:
        spectral.lambda2_normalized = real
    return next(g for g in seen if g.n == n)


INPUTS = {
    "certify_expander": lambda: CertifyExpander().setup(1).g,
    "decompose_planted": lambda: DecomposePlanted().setup(1).g,
    "grid64": lambda: _grid(64),
    "decompose_cluster": lambda: _measured_in(DecomposePlanted(), 1000),
    "sparsest_remainder": lambda: _measured_in(SparsestPlanted(), 304),
}


def _profile(g, monkeypatch):
    """(steps, seconds, tracemalloc peak in bytes) of lambda2_normalized(g)."""
    steps = []
    real = scipy.linalg.eigh_tridiagonal

    def spy(d, e, **kw):
        steps.append(len(d))
        return real(d, e, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spy)
    t = time.perf_counter()
    lambda2_normalized(g)
    seconds = time.perf_counter() - t
    tracemalloc.start()
    try:
        lambda2_normalized(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return steps[-1], seconds, peak


@pytest.mark.parametrize("name", list(INPUTS))
def test_lambda2(benchmark, monkeypatch, name):
    g = INPUTS[name]()
    lam = benchmark(lambda2_normalized, g)
    assert 0 < lam < 2
    steps, seconds, peak = _profile(g, monkeypatch)
    print(f"\n{name}: n={g.n} m={g.m} lambda2={lam:.6g} steps={steps} "
          f"seconds={seconds:.3f} peak_mb={peak / 2**20:.1f}")
