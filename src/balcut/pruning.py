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
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BudgetExceeded, InternalInvariantBroken, InvalidInput
from .graph import MultiGraph
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
    ceil(phi * |E| / 10).
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
    everyone = frozenset(range(g.n))
    if k == 0:
        return everyone, frozenset()
    budget = math.ceil(phi * g.m / 10)
    if k > budget:
        raise BudgetExceeded(f"k={k} deleted edges exceed ceil(phi*m/10)={budget}")
    unit = math.ceil(2 / phi)
    if 2 * k * unit > g.volume():
        raise BudgetExceeded(
            f"trimming charge {2 * k * unit} exceeds the graph volume; "
            f"the deletion batch is too large for phi={phi} at this scale"
        )

    alive = bytearray([1]) * g.m
    for e in dels:
        alive[e] = 0
    charge = [0] * g.n
    for e in dels:
        u, v = g.edges[e]
        charge[u] += 1
        charge[v] += 1

    b_side: set[int] = set()
    for _ in range(g.volume() + 1):
        # Every edge the loop kills besides the batch has an endpoint in B,
        # so (g - batch)[V - B] is exactly the live part.
        work, members = pruned_subgraph(g, dels, everyone - b_side)
        if not members:
            raise InternalInvariantBroken("trimming consumed the whole graph")
        stranded = {
            v for i, v in enumerate(members)
            if work.degree(i) == 0 and charge[v] > 0
        }
        if stranded:
            # Charged vertices with no remaining edges cannot route their
            # mass anywhere; carve them outright.
            b_side |= stranded
            for v in stranded:
                charge[v] = 0
            continue
        source = tuple(unit * charge[v] for v in members)
        sink = tuple(work.degrees())
        if sum(source) > sum(sink):
            raise BudgetExceeded(
                "trimming charge outgrew the remaining volume; the deletion "
                "batch is too large for this phi at this scale"
            )
        inst = FlowInstance(work, source, sink, phi, check_degree_caps=False)
        _, excess, cut = bounded_push_relabel(inst)
        if excess == 0:
            break
        carved = {members[i] for i in cut.side}
        b_side |= carved
        for v in carved:
            charge[v] = 0
        for eid in range(g.m):
            if not alive[eid]:
                continue
            u, v = g.edges[eid]
            if (u in b_side) != (v in b_side):
                outside = v if u in b_side else u
                charge[outside] += 1
                alive[eid] = 0  # now a boundary edge, no longer inside A
    else:
        raise InternalInvariantBroken("trimming did not converge")

    a_side = everyone - b_side
    _recount(g, phi, dels, a_side, b_side, k)
    return frozenset(a_side), frozenset(b_side)


def _recount(g, phi, dels, a_side, b_side, k) -> None:
    dead = set(dels)
    boundary = sum(
        1
        for eid, (u, v) in enumerate(g.edges)
        if eid not in dead and (u in a_side) != (v in a_side)
    )
    if boundary > 4 * k:
        raise InternalInvariantBroken(
            f"pruned boundary {boundary} exceeds 4k = {4 * k}"
        )
    # Vol(B) <= 8k/phi, compared exactly by cross-multiplication
    vol_b = g.volume(b_side)
    if vol_b * phi.numerator > 8 * k * phi.denominator:
        raise InternalInvariantBroken(
            f"pruned volume {vol_b} exceeds 8k/phi = {float(8 * k / phi):.2f}"
        )


def pruned_subgraph(
    g: MultiGraph, deleted: Sequence[int], a_side: Iterable[int]
) -> tuple[MultiGraph, list[int]]:
    """(g - deleted)[A] with its index map, for certificate checks."""
    dead = set(deleted)
    keep = sorted(a_side)
    new_id = {v: i for i, v in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for eid, (u, v) in enumerate(g.edges)
        if eid not in dead and u in new_id and v in new_id
    ]
    return MultiGraph(len(keep), edges), keep
