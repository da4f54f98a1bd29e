"""Micro-benchmarks of the array-backed graph core at 160k edges.

Not collected by the default ``test_*.py`` pattern; run them with

    python -m pytest tests/bench_graph_core.py --benchmark-only

The graph is ``random_regularish_graph(20000, 16, seed=1)`` (m = 160 000),
the input of the ``prune_batches`` benchmark workload; the two generator
benchmarks build that graph and ``construct_expander(40000)``, the base of
the ``certify_expander`` workload.  The cut player's peel runs on an
edgeless 32,006-vertex graph, the round-0 witness of the first game of
the ``decompose_planted`` workload; ``reduce_degree`` also runs on that
workload's input (seed 1), the first of the op's three reductions.  The
reduce layer's ``make_canonical`` and ``project_cut`` run on the first
matcher cut of that workload's degree-reduced graph (seed 1, 32,006 hat
vertices).
"""

from fractions import Fraction

import numpy as np
import pytest

from balcut import driver
from balcut.expanders import construct_expander
from balcut.generators import planted_expander_union, random_regularish_graph
from balcut.cutmatch import BalancedCutMove, cut_or_certify
from balcut.graph import (
    MultiGraph,
    component_labels,
    connected_components,
    induced_subgraph,
)
from balcut.reduce import (
    is_canonical,
    make_canonical,
    project_cut,
    reduce_degree,
)


@pytest.fixture(scope="module")
def graph():
    return random_regularish_graph(20000, 16, 1)


def test_construction(benchmark, graph):
    edges = list(graph.edges)
    g = benchmark(MultiGraph, graph.n, edges)
    assert g.m == graph.m


def test_induced_subgraph(benchmark, graph):
    half = range(0, graph.n, 2)
    sub, idx = benchmark(induced_subgraph, graph, half)
    assert len(idx) == sub.n == graph.n // 2


def test_connected_components(benchmark, graph):
    comps = benchmark(connected_components, graph)
    assert sum(len(c) for c in comps) == graph.n


def test_component_labels(benchmark, graph):
    k, label = benchmark(component_labels, graph)
    assert len(label) == graph.n and k >= 1


def test_cut_or_certify_edgeless_witness(benchmark):
    witness = MultiGraph(32006, [])
    move = benchmark(cut_or_certify, witness, 2)
    assert isinstance(move, BalancedCutMove) and len(move.a_side) == 8002


def test_reduce_degree(benchmark, graph):
    red = benchmark(reduce_degree, graph)
    assert red.hat_g.n == 2 * graph.m


def test_reduce_degree_decompose_planted(benchmark):
    g, _ = planted_expander_union([1000] * 4, 8, [(0, 1), (1, 2), (2, 3)], 1)
    red = benchmark(reduce_degree, g)
    assert red.hat_g.n == 32006


@pytest.fixture(scope="module")
def first_matcher_cut():
    """(reduced graph, host mask, cut mask) of the first ``make_canonical``
    call in ``decompose_planted``'s op at seed 1."""
    g, _ = planted_expander_union([1000] * 4, 8, [(0, 1), (1, 2), (2, 3)], 1)
    calls = []

    def record(*args):
        calls.append(args)
        return make_canonical(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(driver, "make_canonical", record)
        driver.expander_decomposition(g, Fraction(1, 2), 2)
    return calls[0]


def test_make_canonical(benchmark, first_matcher_cut):
    red, host, in_x = first_matcher_cut
    x_can = benchmark(make_canonical, red, host, in_x)
    assert red.hat_g.n == 32006 and is_canonical(red, x_can)


def test_project_cut(benchmark, first_matcher_cut):
    red, host, in_x = first_matcher_cut
    x_can = make_canonical(red, host, in_x)
    orig_a = benchmark(project_cut, red, x_can)
    # a canonical side's size is its projection's volume
    assert np.diff(red.indptr)[orig_a].sum() == np.count_nonzero(x_can)


def test_construct_expander(benchmark):
    def build():
        construct_expander.cache_clear()
        return construct_expander(40000)

    h = benchmark(build)
    assert h.n == 40000 and h.max_degree() <= 9


def test_random_regularish_graph(benchmark):
    g = benchmark(random_regularish_graph, 20000, 16, 1)
    assert g.m == 160000
