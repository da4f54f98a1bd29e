"""Explicit constant-degree expander constructions and the composition check.

The base construction places, for each vertex (x, y) of the k x k torus, the
eight neighbors (x +- 2y, y), (x +- (2y+1), y), (x, y +- 2x), (x, y +- (2x+1))
with arithmetic mod k.  Collisions that produce u == v are dropped (self-loop
cleanup); collisions that duplicate a pair are kept as parallel edges, so the
final maximum degree is at most 8.  Arbitrary sizes are reached by matching
pendant vertices onto the next smaller torus, which at worst halves sparsity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import CompositionError, DegreeTooHigh, InvalidParam
from .graph import ORACLE_LIMIT, MultiGraph, brute_force_extremum
from .spectral import lambda2_normalized

#: Degree bound for every constructed expander.
MAX_EXPANDER_DEGREE = 9


#: Brute-forced Psi(gabber_galil(k)) regression constants (frozen by tests).
TORUS_SPARSITY = {2: Fraction(2), 3: Fraction(2), 4: Fraction(2)}


def gabber_galil(k: int) -> MultiGraph:
    """The 8-neighbor torus graph on Z_k x Z_k, with self-loops dropped.

    Vertex (x, y) is ``x * k + y``.  Edge ids, and every digest of an output
    that names them, rely on this order: vertex-major, the eight maps in the
    module docstring's order, each edge (u, v) kept when u < v (the map is
    symmetric, so u > v is the same edge seen from v).
    """
    if k < 2:
        raise InvalidParam(f"torus construction needs k >= 2, got {k}")
    u = np.arange(k * k, dtype=np.int64)
    x, y = np.divmod(u, k)
    nbrs = np.stack(
        [(x + s) % k * k + y for s in (2 * y, -2 * y, 2 * y + 1, -2 * y - 1)]
        + [x * k + (y + s) % k for s in (2 * x, -2 * x, 2 * x + 1, -2 * x - 1)],
        axis=1,
    )
    keep = u[:, None] < nbrs
    return MultiGraph._from_arrays(k * k, np.repeat(u, keep.sum(axis=1)), nbrs[keep])


@lru_cache(maxsize=None)
def construct_expander(n: int) -> MultiGraph:
    """An n-vertex expander with maximum degree at most 9.

    n <= 9 returns the complete graph; larger n takes the torus on
    (k-1)^2 vertices for the unique k with (k-1)^2 < n <= k^2 and matches
    the remaining n - (k-1)^2 vertices each onto a distinct torus vertex.
    """
    if n < 1:
        raise InvalidParam(f"expander size must be positive, got {n}")
    if n <= 9:
        return MultiGraph._from_arrays(n, *np.triu_indices(n, 1))
    k = 1
    while k * k < n:
        k += 1
    base = gabber_galil(k - 1)
    # Pendant base.n + j is matched to torus vertex j (all distinct, as
    # n - (k-1)^2 <= 2k - 1 < (k-1)^2 for k >= 4; n <= 9 covers smaller k).
    pendants = np.arange(n - base.n, dtype=np.int64)
    eu = np.concatenate((base.eu, pendants))
    return MultiGraph._from_arrays(n, eu, np.concatenate((base.ev, pendants + base.n)))


@lru_cache(maxsize=None)
def expander_sparsity_floor(n: int) -> Fraction:
    """A certified lower bound on Psi(construct_expander(n)).

    Exact brute force up to the oracle limit; above it, the Cheeger bound
    lambda2/2 (which lower-bounds conductance and hence sparsity), shaved
    by a numerical safety margin and rounded down to a fraction.
    """
    if n < 2:
        return Fraction(1)  # vacuous: no proper cuts exist
    h = construct_expander(n)
    if n <= ORACLE_LIMIT:
        return brute_force_extremum(h, "sparsity")[1]
    lam = max(lambda2_normalized(h) / 2.0 - 1e-6, 0.0)
    return Fraction(int(lam * (1 << 30)), 1 << 30)


def is_matching(pairs) -> bool:
    """True iff no endpoint repeats on either side (sides are independent)."""
    left = [u for u, _ in pairs]
    right = [v for _, v in pairs]
    return len(set(left)) == len(left) and len(set(right)) == len(right)


def partition_into_matchings(g: MultiGraph) -> list[list[int]]:
    """Greedy edge coloring into at most 2*Delta - 1 <= 17 matchings.

    Returns a list of matchings, each a list of edge ids; their disjoint
    union is E(g).
    """
    if g.max_degree() > MAX_EXPANDER_DEGREE:
        raise DegreeTooHigh(
            f"matching partition needs degree <= {MAX_EXPANDER_DEGREE}, got {g.max_degree()}"
        )
    g.reject_self_loops("matching partition")
    matchings: list[list[int]] = []
    used: list[set[int]] = []
    for eid, (u, v) in enumerate(g.edges):
        for slot, members in enumerate(used):
            if u not in members and v not in members:
                matchings[slot].append(eid)
                members.add(u)
                members.add(v)
                break
        else:
            matchings.append([eid])
            used.append({u, v})
    assert len(matchings) <= 2 * MAX_EXPANDER_DEGREE - 1
    return matchings


def _check_composition(
    core: MultiGraph,
    block_sizes: list[int],
    matchings: dict[int, list[tuple[int, int]]],
) -> None:
    """Raise CompositionError unless blocks of these sizes glue along
    ``core``: ``matchings[eid]`` pairs, for core edge ``eid = (i, j)``, N
    block-local vertices of block i with N of block j, with distinct
    endpoints on each side, one N for every edge and N <= every block size.
    The composed graph itself is never built."""
    if len(block_sizes) != core.n:
        raise CompositionError(
            f"core has {core.n} vertices but {len(block_sizes)} blocks were given"
        )
    if core.has_self_loops:
        raise CompositionError("core graph must not have self-loops")
    cardinalities = {len(pairs) for pairs in matchings.values()}
    if core.m and (set(matchings) != set(range(core.m)) or len(cardinalities) != 1):
        raise CompositionError("need exactly one N-pair matching per core edge")
    n_pairs = cardinalities.pop() if cardinalities else 0
    if core.m and any(n_pairs > size for size in block_sizes):
        raise CompositionError("matching cardinality exceeds a block size")
    for eid, (i, j) in enumerate(core.edges):
        pairs = matchings[eid]
        if not is_matching(pairs):
            raise CompositionError(f"core edge {eid}: repeated endpoint in matching")
        for u, v in pairs:
            if not (0 <= u < block_sizes[i] and 0 <= v < block_sizes[j]):
                raise CompositionError(f"core edge {eid}: endpoint outside its block")

