from fractions import Fraction

import numpy as np
import pytest

from balcut.expanders import gabber_galil
from balcut.generators import (
    barbell_graph,
    complete_graph,
    cycle_graph,
    random_connected_graph,
)
from balcut.graph import MultiGraph, brute_force_extremum
from balcut.spectral import (
    adjacency_matrix,
    certified_floor,
    cheeger_floor,
    lambda2_normalized,
)


def dense_lambda2(g):
    deg = np.array(g.degrees(), dtype=float)
    a = adjacency_matrix(g).toarray()
    dinv = 1.0 / np.sqrt(deg)
    lap = np.eye(g.n) - (dinv[:, None] * a) * dinv[None, :]
    return float(np.sort(np.linalg.eigvalsh(lap))[1])


@pytest.mark.parametrize("g", [
    cycle_graph(8),
    complete_graph(6),
    barbell_graph(5),
    gabber_galil(5),
    gabber_galil(8),
])
def test_lanczos_matches_dense_solver(g):
    assert lambda2_normalized(g) == pytest.approx(dense_lambda2(g), abs=1e-8)


def test_lanczos_on_random_graphs():
    for seed in range(10):
        g = random_connected_graph(20, 0.25, seed)
        assert lambda2_normalized(g) == pytest.approx(dense_lambda2(g), abs=1e-8)


def test_disconnected_gives_zero():
    assert lambda2_normalized(MultiGraph(4, [(0, 1), (2, 3)])) == 0.0


def test_cheeger_lower_bounds_brute_force_conductance():
    for seed in range(15):
        g = random_connected_graph(9, 0.35, seed)
        _, phi = brute_force_extremum(g, "conductance")
        assert lambda2_normalized(g) / 2 <= float(phi) + 1e-9


def test_deterministic_across_calls():
    g = gabber_galil(6)
    assert lambda2_normalized(g) == lambda2_normalized(g)


def test_cheeger_floor_rounds_down_to_dyadic_fraction():
    for g in (cycle_graph(30), gabber_galil(6), barbell_graph(9)):
        floor = cheeger_floor(g)
        assert isinstance(floor, Fraction)
        assert (1 << 30) % floor.denominator == 0
        half = lambda2_normalized(g) / 2
        assert floor <= half < floor + Fraction(1, 1 << 30)


def test_certified_floor_picks_oracle_or_cheeger():
    assert certified_floor(MultiGraph(1, []), "sparsity") == 1
    g = barbell_graph(5)
    for objective in ("conductance", "sparsity"):
        assert certified_floor(g, objective) == brute_force_extremum(g, objective)[1]
    big = gabber_galil(6)
    assert certified_floor(big, "conductance") == cheeger_floor(big)
