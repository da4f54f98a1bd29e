"""Expander pruning: excise a small vertex set after edge deletions.

Given a phi-expander minus a batch E' of k deleted edges, iterative
Unit-Flow trimming finds a vertex set B such that the remainder
G' = (g - E')[V - B] keeps conductance phi/6, with |E(A, B)| <= 4k and
Vol(B) <= 8k/phi.  Each trimming round places ceil(2/phi) source units per
deleted-edge endpoint incidence, sinks equal to current degrees, and runs
bounded push-relabel; unabsorbed mass exposes a level cut whose high side
is carved into B, its boundary joining the deleted frontier.  The three
output bounds are recounted exactly on every call, so a mistuned loop
fails loudly instead of silently degrading.

Every round runs on the host graph under a live-edge mask, the edges of
(g - E')[V - B], instead of on a rebuilt subgraph: B's vertices stay as
isolated vertices with zero source and zero sink, so they sit at level 0
and no level cut contains them.  The host CSR lists each vertex's live
edges in edge-id order, as the rebuilt subgraph did, so the rounds push,
relabel and cut exactly as they would there; a round costs no graph
construction and reuses the host's cached slot and endpoint lists.  The
live-edge mask and the live degrees (the sinks) are kept up to date when
a cut is carved, from the edges that cut exposes, and sources and sinks
reach the solver as arrays.  So a round's Python work follows the flow's
footprint (see ``localflow``), and what scales with m is a few numpy
passes over boolean and integer arrays and the solver's list set-up.

The trimming loop trusts the caller's certificate Phi(g) >= phi.  With
it, unabsorbed mass always exposes a level cut below phi; without it the
solver may report excess and no such cut, or B may outgrow the recounted
bounds, and ``expander_prune`` then raises ``PreconditionViolated`` naming
the premise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    InvalidInput,
    PreconditionViolated,
)
from .graph import MultiGraph, _index_array, _side_mask, masked_subgraph
from .localflow import FlowInstance, bounded_push_relabel


def expander_prune(
    g: MultiGraph,
    phi: Fraction,
    deleted: Sequence[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Trim g minus the deleted edges back to a conductance-phi/6 core.

    ``deleted`` lists distinct edge ids of g.  Returns (A, B); the caller's
    certificate Phi(g) >= phi is trusted (it is only checkable by brute
    force at small scale).  Raises BudgetExceeded when k exceeds
    ceil(phi * |E| / 10), and PreconditionViolated when a round leaves
    excess that no level cut below phi explains, or when B breaks the
    boundary or volume bound; either shows Phi(g) < phi.
    """
    phi = Fraction(phi)
    if not (0 < phi <= 1):
        raise InvalidInput(f"phi must lie in (0, 1], got {phi}")
    dels = sorted(set(int(e) for e in deleted))
    if dels and (dels[0] < 0 or dels[-1] >= g.m):
        raise InvalidInput("deleted edge id out of range")
    if len(dels) != len(deleted):
        raise InvalidInput("deleted edge ids must be distinct")
    k = len(dels)
    if k == 0:
        return frozenset(range(g.n)), frozenset()
    budget = math.ceil(phi * g.m / 10)
    if k > budget:
        raise BudgetExceeded(f"k={k} deleted edges exceed ceil(phi*m/10)={budget}")
    unit = math.ceil(2 / phi)
    if 2 * k * unit > g.volume():
        raise BudgetExceeded(
            f"trimming charge {2 * k * unit} exceeds the graph volume; "
            f"the deletion batch is too large for phi={phi} at this scale"
        )

    eu, ev = g.eu, g.ev
    dead = np.zeros(g.m, dtype=bool)
    dead[dels] = True
    charge = np.bincount(np.concatenate([eu[dels], ev[dels]]), minlength=g.n)
    # The edges of (g - batch)[V - B] and their degrees; an edge leaves
    # once an end of it joins B.
    alive = ~dead
    deg = g.deg - charge
    in_b = np.zeros(g.n, dtype=bool)

    for _ in range(g.volume() + 1):
        if in_b.all():
            raise InternalInvariantBroken("trimming consumed the whole graph")
        stranded = np.flatnonzero(~in_b & (deg == 0) & (charge > 0))
        if stranded.size:
            # Charged vertices with no remaining edges cannot route their
            # mass anywhere; carve them outright.
            in_b[stranded] = True
            charge[stranded] = 0
            continue
        source = unit * charge
        if source.sum() > deg.sum():
            raise BudgetExceeded(
                "trimming charge outgrew the remaining volume; the deletion "
                "batch is too large for this phi at this scale"
            )
        inst = FlowInstance(g, source, deg, phi, check_degree_caps=False,
                            alive=alive)
        _, excess, cut = bounded_push_relabel(inst)
        if excess == 0:
            break
        if cut is None:
            raise PreconditionViolated(
                f"trimming left excess {excess} and no level cut below "
                f"phi={phi}; {_PREMISE}"
            )
        carved = _index_array(cut.side)
        in_b[carved] = True
        charge[carved] = 0
        b_u, b_v = in_b[eu], in_b[ev]
        crossing = alive & (b_u != b_v)
        outside = np.where(b_u[crossing], ev[crossing], eu[crossing])
        joined = np.bincount(outside, minlength=g.n)
        charge += joined  # the new boundary of B charges its outer ends
        deg -= joined
        deg[carved] = 0
        alive &= ~(b_u | b_v)
    else:
        raise InternalInvariantBroken("trimming did not converge")

    _recount(g, phi, dead, in_b, k)
    return (frozenset(np.flatnonzero(~in_b).tolist()),
            frozenset(np.flatnonzero(in_b).tolist()))


_PREMISE = ("that cannot happen when Phi(g) >= phi, the premise "
            "expander_prune trusts without checking it")


def _recount(g, phi, dead, in_b, k) -> None:
    """Recount the pruning bounds.  They are theorems of Phi(g) >= phi, so a
    failed bound shows that the caller's certificate is false."""
    boundary = int(np.count_nonzero(~dead & (in_b[g.eu] != in_b[g.ev])))
    if boundary > 4 * k:
        raise PreconditionViolated(
            f"pruned boundary {boundary} exceeds 4k = {4 * k}; {_PREMISE}"
        )
    # Vol(B) <= 8k/phi, compared exactly by cross-multiplication
    vol_b = int(g.deg[in_b].sum())
    if vol_b * phi.numerator > 8 * k * phi.denominator:
        raise PreconditionViolated(
            f"pruned volume {vol_b} exceeds 8k/phi = "
            f"{float(8 * k / phi):.2f}; {_PREMISE}"
        )


def pruned_subgraph(
    g: MultiGraph, deleted: Sequence[int], a_side: Iterable[int]
) -> tuple[MultiGraph, list[int]]:
    """(g - deleted)[A] with its index map, for certificate checks."""
    alive = np.ones(g.m, dtype=bool)
    alive[_index_array(deleted)] = False
    sub, verts = masked_subgraph(g, _side_mask(g.n, a_side), alive)
    return sub, verts.tolist()
