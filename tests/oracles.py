"""Brute-force oracles and certificate helpers shared by the tests.

The package's drivers reach the oracle through ``brute_force_extremum``
and ``certified_floor``; these thin wrappers exist only for the checks.
"""

from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from balcut.graph import MultiGraph, brute_force_extremum, masked_subgraph


def graph_conductance(g: MultiGraph) -> Fraction:
    """Brute-force Phi(G); only valid up to the oracle limit."""
    return brute_force_extremum(g, "conductance")[1]


def graph_sparsity(g: MultiGraph) -> Fraction:
    """Brute-force Psi(G); only valid up to the oracle limit."""
    return brute_force_extremum(g, "sparsity")[1]


def pruned_subgraph(
    g: MultiGraph, deleted: Sequence[int], a_side: Iterable[int]
) -> tuple[MultiGraph, list[int]]:
    """(g - deleted)[A] with its index map, for certificate checks."""
    alive = np.ones(g.m, dtype=bool)
    alive[list(deleted)] = False
    keep = np.zeros(g.n, dtype=bool)
    keep[list(a_side)] = True
    sub, verts = masked_subgraph(g, keep, alive)
    return sub, verts.tolist()
