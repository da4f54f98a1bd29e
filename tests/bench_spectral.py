"""Micro-benchmarks of ``lambda2_normalized`` on three inputs.

Not collected by the default ``test_*.py`` pattern; run them with

    python -m pytest tests/bench_spectral.py --benchmark-only -s

- ``certify_expander``: ``construct_expander(40000)`` with its vertices
  relabelled at seed 1, the input of that ``perfbench`` workload;
- ``decompose_planted``: the four bridged 1000-vertex blocks of that
  workload at seed 1, a graph with a small spectral gap;
- ``grid64``: the 64 x 64 grid, the slowest of the three to converge.

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

from balcut.graph import MultiGraph
from balcut.spectral import lambda2_normalized

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import CertifyExpander, DecomposePlanted  # noqa: E402


def _grid(side):
    edges = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    edges += [(v, v + side) for v in range((side - 1) * side)]
    return MultiGraph(side * side, edges)


INPUTS = {
    "certify_expander": lambda: CertifyExpander().setup(1).g,
    "decompose_planted": lambda: DecomposePlanted().setup(1).g,
    "grid64": lambda: _grid(64),
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
