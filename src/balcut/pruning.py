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
relabel and cut exactly as they would there.  A call builds its view of
the host once: one push-relabel solver whose slot list points the batch's
slots at their owners, its sinks the live degrees.  Each carve updates
the live-edge mask, the live degrees and the boundary charge, and drops
the solver's slots of the edges that die, from the slots of the carved
vertices and of their outer neighbours; each round poses its instance on
that solver, which resets its lists over the last round's footprint (see
``localflow``).  So past that set-up a round's Python work follows its
footprint, the charged vertices and R = {level > 0} with their slots, and
what scales with n or m is a few C-level passes: copies of the instance's
arrays and counts over the flow and mass lists.

The trimming loop trusts the caller's certificate Phi(g) >= phi.  With
it, unabsorbed mass always exposes a level cut below phi; without it the
solver may report excess and no such cut, or B may outgrow the recounted
bounds, and ``expander_prune`` then raises ``PreconditionViolated`` naming
the premise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    InvalidInput,
    PreconditionViolated,
)
from .graph import (
    MultiGraph,
    _distinct,
    _index_array,
    _integer_array,
    incident_slots,
)
from .localflow import FlowInstance, _PushRelabel, bounded_push_relabel


def expander_prune(
    g: MultiGraph,
    phi: Fraction,
    deleted: Sequence[int],
) -> tuple[frozenset[int], frozenset[int]]:
    """Trim g minus the deleted edges back to a conductance-phi/6 core.

    ``deleted`` lists distinct edge ids of g, as Python or numpy integers;
    any other entry raises InvalidInput.  Returns (A, B); the caller's
    certificate Phi(g) >= phi is trusted (it is only checkable by brute
    force at small scale).  Raises BudgetExceeded when k exceeds
    ceil(phi * |E| / 10), and PreconditionViolated when a round leaves
    excess that no level cut below phi explains, or when B breaks the
    boundary or volume bound; either shows Phi(g) < phi.
    """
    phi = Fraction(phi)
    if not (0 < phi <= 1):
        raise InvalidInput(f"phi must lie in (0, 1], got {phi}")
    ids = _integer_array(deleted, "deleted edge ids")
    dels = _distinct(ids)
    if dels.size and (dels[0] < 0 or dels[-1] >= g.m):
        raise InvalidInput("deleted edge id out of range")
    if len(dels) != len(ids):
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

    dead = np.zeros(g.m, dtype=bool)
    dead[dels] = True
    in_b = _trim(g, phi, unit, dead, dels)
    _recount(g, phi, dead, in_b, k)
    return (frozenset(np.flatnonzero(~in_b).tolist()),
            frozenset(np.flatnonzero(in_b).tolist()))


_PREMISE = ("that cannot happen when Phi(g) >= phi, the premise "
            "expander_prune trusts without checking it")


def _trim(g, phi, unit, dead, dels) -> np.ndarray:
    """The trimming rounds; returns B's membership mask.  One solver
    serves every round, and is let go before the caller builds the output
    sets."""
    charge = np.bincount(np.concatenate([g.eu[dels], g.ev[dels]]), minlength=g.n)
    # The edges of (g - batch)[V - B], their degrees (the sinks) and the
    # charged vertices; an edge leaves once an end of it joins B.
    alive = ~dead
    deg = g.deg - charge
    in_b = np.zeros(g.n, dtype=bool)
    charged = np.flatnonzero(charge)
    # the host's degrees, until dropping the batch's slots marks their
    # owners' sinks for the first round to reload
    solver = _PushRelabel(g, sink=g.deg)
    slot, owner = incident_slots(g, charged)
    batch = dead[g.inc[slot]]
    solver.drop(slot[batch], owner[batch])

    for _ in range(g.volume() + 1):
        if in_b.all():
            raise InternalInvariantBroken("trimming consumed the whole graph")
        stranded = charged[deg[charged] == 0]
        if stranded.size:
            # Charged vertices with no remaining edges cannot route their
            # mass anywhere; carve them outright.
            in_b[stranded] = True
            charge[stranded] = 0
            charged = charged[deg[charged] > 0]
            continue
        if unit * int(charge.sum()) > deg.sum():
            raise BudgetExceeded(
                "trimming charge outgrew the remaining volume; the deletion "
                "batch is too large for this phi at this scale"
            )
        inst = FlowInstance(g, unit * charge, deg, phi, check_degree_caps=False,
                            alive=alive)
        _, excess, cut = bounded_push_relabel(inst, _solver=solver)
        if excess == 0:
            return in_b
        if cut is None:
            raise PreconditionViolated(
                f"trimming left excess {excess} and no level cut below "
                f"phi={phi}; {_PREMISE}"
            )
        charged = _carve(g, solver, _index_array(cut.side), alive, deg,
                         charge, in_b, charged)
    raise InternalInvariantBroken("trimming did not converge")


def _carve(g, solver, carved, alive, deg, charge, in_b, charged) -> np.ndarray:
    """Move ``carved`` into B, updating in place the live-edge mask, the
    live degrees, the charges, B and the solver's view from the slots of
    the carved vertices and of their outer neighbours; returns the charged
    vertices.  Each live edge at a carved vertex dies, and one that crosses
    to the rest charges its outer end, the new boundary of B."""
    in_b[carved] = True
    slot, owner = incident_slots(g, carved)
    live = alive[g.inc[slot]]
    slot, owner = slot[live], owner[live]
    other = g.nbr[slot]
    outside = other[~in_b[other]]  # one end per crossing edge
    ring = _distinct(outside)
    # the crossing edges' slots at their outer ends
    ring_slot, ring_owner = incident_slots(g, ring)
    twin = in_b[g.nbr[ring_slot]] & alive[g.inc[ring_slot]]
    alive[g.inc[slot]] = False
    solver.drop(np.concatenate([slot, ring_slot[twin]]),
                np.concatenate([owner, ring_owner[twin]]))
    np.add.at(charge, outside, 1)
    np.subtract.at(deg, outside, 1)
    charge[carved] = 0
    deg[carved] = 0
    return _distinct(np.concatenate([charged[~in_b[charged]], ring]))


def _recount(g, phi, dead, in_b, k) -> None:
    """Recount the pruning bounds over B's slots.  They are theorems of
    Phi(g) >= phi, so a failed bound shows that the caller's certificate is
    false."""
    slot, _ = incident_slots(g, np.flatnonzero(in_b))
    boundary = int(np.count_nonzero(~in_b[g.nbr[slot]] & ~dead[g.inc[slot]]))
    if boundary > 4 * k:
        raise PreconditionViolated(
            f"pruned boundary {boundary} exceeds 4k = {4 * k}; {_PREMISE}"
        )
    # Vol(B) <= 8k/phi, compared exactly by cross-multiplication
    vol_b = len(slot)
    if vol_b * phi.numerator > 8 * k * phi.denominator:
        raise PreconditionViolated(
            f"pruned volume {vol_b} exceeds 8k/phi = "
            f"{float(8 * k / phi):.2f}; {_PREMISE}"
        )
