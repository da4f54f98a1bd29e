"""Micro-benchmark of the multi-pair router outside the benchmark workloads.

Not collected by the default ``test_*.py`` pattern; run it with

    python -m pytest tests/bench_routing.py --benchmark-only

No workload of ``perfbench/`` reaches ``routing`` or ``estree``.  This file
times one ``route_or_cut`` call on the first matching family of the cut
player's base step on the 10x20 grid, with the machinery forced at n = 200
(``MACHINERY_FLOOR`` = 200, ``N0`` = 5) and r = 1: 94 one-pair families at
ell = 20, whose packing rounds stall and whose ball growing peels a cut.
"""

import pytest

from balcut import cutmatch
from balcut.graph import Cut, MultiGraph
from balcut.routing import route_or_cut


def _grid_10x20():
    edges = []
    for x in range(10):
        for y in range(20):
            v = x * 20 + y
            if x < 9:
                edges.append((v, v + 20))
            if y < 19:
                edges.append((v, v + 1))
    return MultiGraph(200, edges)


@pytest.fixture(scope="module")
def first_family():
    """(host, family, z, ell) of the first router call of the forced grid."""
    calls = []

    def record(*args):
        calls.append(args)
        return route_or_cut(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cutmatch, "route_or_cut", record)
        mp.setattr(cutmatch, "N0", 5)
        mp.setattr(cutmatch, "MACHINERY_FLOOR", 200)
        cutmatch.cut_or_certify(_grid_10x20(), 1)
    return calls[0]


def test_route_or_cut_forced_grid(benchmark, first_family):
    g, fam, z, ell = first_family
    res = benchmark(route_or_cut, g, fam, z, ell)
    assert (fam.k, ell) == (94, 20) and isinstance(res, Cut)
