from fractions import Fraction

import numpy as np
import pytest

from balcut.errors import CompositionError, DegreeTooHigh, InvalidParam
from balcut.expanders import (
    TORUS_SPARSITY,
    _check_composition,
    construct_expander,
    expander_sparsity_floor,
    gabber_galil,
    partition_into_matchings,
)
from balcut.generators import complete_graph
from balcut.graph import MultiGraph, brute_force_extremum, graph_sparsity, is_connected
from balcut.spectral import lambda2_normalized


def test_gabber_galil_structure():
    g = gabber_galil(3)
    assert g.n == 9
    assert g.max_degree() <= 8
    assert not g.has_self_loops
    assert is_connected(g)


def test_gabber_galil_regression_constants():
    for k, stored in TORUS_SPARSITY.items():
        assert graph_sparsity(gabber_galil(k)) == stored


def test_gabber_galil_cheeger_positive():
    for k in (5, 6, 7, 8):
        assert lambda2_normalized(gabber_galil(k)) / 2 > 0


def test_gabber_galil_rejects_small_k():
    with pytest.raises(InvalidParam):
        gabber_galil(1)


def test_construct_expander_trivial_sizes():
    h1 = construct_expander(1)
    assert h1.n == 1 and h1.m == 0
    h9 = construct_expander(9)
    assert h9.n == 9 and h9.max_degree() == 8 and h9.m == 36


def test_construct_expander_pendant_case():
    h = construct_expander(10)
    assert h.n == 10
    assert h.max_degree() <= 9
    assert graph_sparsity(h) > 0


@pytest.mark.parametrize("n", [2, 5, 13, 17, 64, 100, 257, 500])
def test_construct_expander_structure(n):
    h = construct_expander(n)
    assert h.n == n
    assert h.max_degree() <= 9
    assert is_connected(h)


def test_per_size_floor_is_certified():
    for n in range(2, 17):
        assert expander_sparsity_floor(n) <= graph_sparsity(construct_expander(n))
    for n in (20, 40, 77):
        floor = float(expander_sparsity_floor(n))
        assert 0 < floor <= lambda2_normalized(construct_expander(n)) / 2 + 1e-9


def test_pendant_matching_halves_sparsity_at_worst():
    # A pendant cut always has sparsity exactly 1, so the halving guarantee
    # only applies to the capped base sparsity min(psi, 2): above that, the
    # pendant cut itself is the floor.
    for base_n in (4, 6, 8, 10, 12):
        base = construct_expander(base_n)
        psi_base = min(graph_sparsity(base), Fraction(2))
        for extra in (1, 2, base_n // 2):
            edges = list(base.edges) + [(j, base.n + j) for j in range(extra)]
            aug = MultiGraph(base.n + extra, edges)
            if aug.n > 16:
                continue
            assert graph_sparsity(aug) >= psi_base / 2


def test_partition_into_matchings_cases():
    single = MultiGraph(2, [(0, 1)])
    assert len(partition_into_matchings(single)) == 1

    k4 = complete_graph(4)
    ms = partition_into_matchings(k4)
    assert len(ms) <= 5
    assert sorted(e for m in ms for e in m) == list(range(6))

    g3 = gabber_galil(3)
    ms = partition_into_matchings(g3)
    assert len(ms) <= 17
    assert sorted(e for m in ms for e in m) == list(range(g3.m))
    for m in ms:
        touched = [v for e in m for v in g3.edges[e]]
        assert len(touched) == len(set(touched))


def test_partition_rejects_high_degree():
    with pytest.raises(DegreeTooHigh):
        partition_into_matchings(complete_graph(11))


def test_compose_sparsity_bound():
    # Psi(composed) >= psi * psi' / (16 * Delta * gamma^2) with measured
    # inputs: two K7 blocks glued along a single core edge by the identity
    # matching, the shape the cut player's psi_comp bound rests on.
    core = MultiGraph(2, [(0, 1)])
    k7 = complete_graph(7)
    matching = [(i, i) for i in range(7)]
    _check_composition(core, [7, 7], {0: matching})
    edges = list(k7.edges) + [(u + 7, v + 7) for u, v in k7.edges]
    edges += [(u, v + 7) for u, v in matching]
    composed = MultiGraph(14, edges)
    psi = graph_sparsity(k7)
    psi_core = graph_sparsity(core)
    gamma = Fraction(1)
    bound = psi * psi_core / (16 * core.max_degree() * gamma * gamma)
    assert graph_sparsity(composed) >= bound


def test_compose_rejects_bad_matchings():
    core = MultiGraph(2, [(0, 1)])
    with pytest.raises(CompositionError):
        _check_composition(core, [4, 4], {0: [(0, 0), (0, 1)]})  # repeated left endpoint
    with pytest.raises(CompositionError):
        _check_composition(core, [4, 4], {0: [(0, 9)]})  # endpoint outside block
    with pytest.raises(CompositionError):
        _check_composition(core, [4], {0: []})  # block count mismatch


def test_check_composition_rejects_what_compose_rejects():
    core = MultiGraph(2, [(0, 1)])
    bad = [
        (core, [4, 4], {}),  # no matching for the core edge
        # more pairs than the block the core edge does not touch
        (MultiGraph(3, [(0, 1)]), [4, 4, 1], {0: [(0, 0), (1, 1)]}),
        (MultiGraph(2, [(0, 0)]), [4, 4], {0: []}),  # self-loop in the core
    ]
    for c, sizes, matchings in bad:
        with pytest.raises(CompositionError):
            _check_composition(c, sizes, matchings)
    _check_composition(core, [4, 4], {0: [(i, i) for i in range(4)]})
