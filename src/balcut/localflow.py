"""Bounded-height push-relabel (Unit-Flow) with level-cut extraction.

The solver routes integral source mass to degree-capacity sinks under a
per-edge congestion cap of ceil(4/phi) and a vertex-level cap of
ceil((4/phi) * log2ceil(2m)) + 2, m counting live edges only.  If mass
remains unabsorbed, some level cut {v : level(v) >= i} has conductance
below phi; the solver scans each distinct level cut, recounts exactly, and
returns the sparsest qualifying cut, so the contract is self-enforcing
rather than assumed.  All arithmetic is integral; phi is an exact rational.

Push order is lowest-label first with FIFO buckets and relabel-to-minimum,
which keeps runs deterministic.  A discharge scores the relabel minimum on
the scan it already makes (Cherkassky and Goldberg): each slot it passes
adds its neighbour's level when the slot has residual capacity, so a
relabel reads again only the slots [start, k0) that a discharge resumed at
slot k0 did not pass.  The ``work`` counter, which paces the early
level-cut checks, counts exactly what a scan followed by a relabel pass
over every slot counts.

Pulses (the synchronous push-relabel of Goldberg and Tarjan): a run on a
solver it builds itself, as each matcher call of the cut-matching game
makes, starts in pulses while at least ``PULSE_WIDTH`` vertices hold
excess below the height cap.  A pulse is a few numpy passes over a view of
those vertices' slots, gathered once per active set (a lock-step sweep
keeps every source active, so its pulses share one view).  Each vertex
spreads its excess at the pulse's start over its admissible slots in slot
order (a segmented cumulative sum).  One that keeps some of it has
saturated them all and is relabelled to one above its lowest residual
neighbour, one minimum per vertex over the view, read with the residuals
after the pushes (patched at both ends of each edge pushed on) and the
levels before the pulse.  Then the gap rule applies at the lowest level
the relabels emptied.  This is valid push-relabel: the two ends of an edge
are never both admissible (their levels would each be one below the
other), so no two pushes meet on an edge; a neighbour's level only rises,
so a relabel read off the levels before the pulse leaves every label valid
even when the neighbour relabels in the same pulse; and mass never drops
below a sink, so a vertex below its sink stays at level 0.  The level-cut
argument at the end needs only valid labels and all excess at the cap, so
the recounts below hold unchanged.  Once fewer vertices hold excess, the
state is loaded once into the slot-by-slot solver, which finishes the run:
wide lock-step sweeps, where every vertex relabels level by level, go at
array speed, and a narrow tail does not pay a pass over arrays per push.
``work`` adds per pulsed vertex what a slot-by-slot discharge from its
first slot counts, so it paces the early level-cut checks across the
handoff.  ``PULSE_WIDTH`` = 2,048 was the fastest width on the five
matcher calls of a four-block planted decomposition under a seeded vertex
relabelling: their summed times were about 10 % below those at 1,024 and
20 % below those at 4,096, and every width from 256 to 4,096 beat the
slot-by-slot run alone.  The trimming rounds of ``expander_prune`` share
one solver and run slot by slot.

Gap rule (Cherkassky and Goldberg): when a relabel empties a level L,
every vertex above L is lifted to the height cap at once.  A sink below
its capacity is never active, so it stays at level 0; and while any vertex
has excess, total source <= total sink leaves such a sink, so level 0 never
empties and L >= 1.  Valid labels forbid a residual edge that drops two
levels, so no mass above L can reach level 0 again.  Excess above the gap
only moves between saturated vertices, so its total is already final;
without the rule it would climb one relabel at a time to the cap.
Discharges below the gap go on unchanged, and so do all the recounts.
``_best_level_cut`` scores occupied levels only, so its cost does not grow
with the cap that lifted vertices sit at.

Footprint: let R = {v : level(v) > 0}.  A push goes from level l to level
l - 1 >= 0, so every pushing vertex is in R and every edge with nonzero
flow touches R; every level cut {level >= i} with i >= 1 lies inside R.
The solver records R as vertices leave level 0, so the level-cut counts,
the gap rule and the preflow recount read R's slots and the sources, and
``cut_stats`` recounts a small returned cut over its side's slots; their
work is about O(vol(R) log vol(R) + |sources|).  What a call pays in
O(n + m) is set-up: the solver's lists (``[0] * m``, the levels, masses,
sinks and slot pointers, and a copy of the slot list under a mask), one
list conversion each of the sources and sinks, and C-level passes:
``flow.count(0)`` and ``mass.count(0)`` prove that the footprint holds all
the flow and mass, and the instance copies its arrays.  A solver outlives
its run: posing the next instance resets its lists over the last run's
footprint, so the trimming rounds of one ``expander_prune`` call share one
set-up and each costs about its footprint in Python, not m.  When Vol(R)
exceeds m/2 the preflow recount reads every edge instead, which is
cheaper there; so does a run that ended in pulses, whose flows, levels
and masses stay int64 arrays.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InternalInvariantBroken, InvalidInput
from .graph import (
    Cut,
    MultiGraph,
    _distinct,
    _index_array,
    _integer_array,
    cut_stats,
    incident_slots,
    live_degrees,
    path_congestion,
)

#: A fresh run pulses while at least this many vertices hold excess.
PULSE_WIDTH = 2048


@dataclass(frozen=True, init=False, eq=False)
class FlowInstance:
    """A unit-flow problem: per-vertex integral sources and sinks.

    ``source`` and ``sink`` may be given as any integer sequences: Python
    ints and bools and numpy integers are accepted, anything else raises
    ``InvalidInput``.  They are kept as read-only int64 copies in
    ``source_array`` and ``sink_array``, so a caller's later edits to its
    own arrays never reach the instance, and read back as tuples of ints
    from ``source`` and ``sink``, built on first access.

    ``check_degree_caps=False`` relaxes the per-vertex bounds
    source(v) <= deg(v) and sink(v) <= deg(v); the expander trimming loop
    needs oversized sources (2/phi units per deleted-edge endpoint).  The
    level-cut volume guarantee (min volume >= excess) is only enforced for
    degree-capped instances.

    ``alive`` is a boolean mask over ``g``'s edges; ``None`` means every
    edge.  The instance is then posed on the live edges alone, with every
    vertex of ``g`` kept: degrees, the height cap, level-cut counts and
    the preflow recount read live edges only, and a dead edge carries no
    flow.  The trimming loop poses each round this way on its host graph
    instead of building the live subgraph.
    """

    g: MultiGraph
    phi: Fraction
    check_degree_caps: bool
    alive: np.ndarray | None
    source_array: np.ndarray = field(repr=False)
    sink_array: np.ndarray = field(repr=False)

    def __init__(self, g: MultiGraph, source: Sequence[int], sink: Sequence[int],
                 phi: Fraction, check_degree_caps: bool = True,
                 alive: np.ndarray | None = None):
        if alive is not None and not (
            isinstance(alive, np.ndarray) and alive.dtype == bool
            and alive.shape == (g.m,)
        ):
            raise InvalidInput("alive must be a boolean array with one entry per edge")
        if len(source) != g.n or len(sink) != g.n:
            raise InvalidInput("source/sink functions must cover every vertex")
        if not (0 < phi <= 1):
            raise InvalidInput(f"phi must lie in (0, 1], got {phi}")
        source = _frozen(_integer_array(source, "source and sink values"))
        sink = _frozen(_integer_array(sink, "source and sink values"))
        if (source < 0).any() or (sink < 0).any():
            raise InvalidInput("source and sink values must be nonnegative")
        if source.sum() > sink.sum():
            raise InvalidInput("total source mass exceeds total sink capacity")
        if check_degree_caps:
            deg = live_degrees(g, alive)
            over = (source > deg) | (sink > deg)
            if over.any():
                raise InvalidInput(
                    f"vertex {int(over.argmax())}: source/sink exceeds its degree"
                )
        init = object.__setattr__
        init(self, "g", g)
        init(self, "phi", phi)
        init(self, "check_degree_caps", check_degree_caps)
        init(self, "alive", None if alive is None else _frozen(alive.copy()))
        init(self, "source_array", source)
        init(self, "sink_array", sink)

    @cached_property
    def source(self) -> tuple[int, ...]:
        return tuple(self.source_array.tolist())

    @cached_property
    def sink(self) -> tuple[int, ...]:
        return tuple(self.sink_array.tolist())

    @cached_property
    def _sources(self) -> np.ndarray:
        """The vertices with nonzero source, ascending."""
        return np.flatnonzero(self.source_array)

    @property
    def congestion_cap(self) -> int:
        return math.ceil(4 / self.phi)

    @property
    def height_cap(self) -> int:
        m = self.g.m if self.alive is None else int(np.count_nonzero(self.alive))
        log2m = max(1, (2 * max(m, 1)).bit_length())
        return math.ceil(4 / self.phi * log2m) + 2


@dataclass
class Preflow:
    """An integral preflow: signed edge flows, levels, per-vertex mass.

    They are the solver's lists, or int64 arrays when the run ended in
    pulses; either reads by index."""

    flow: Sequence[int]
    level: Sequence[int]
    mass: Sequence[int]
    source: np.ndarray
    sink: np.ndarray

    def total_excess(self) -> int:
        return int(np.maximum(_int_array(self.mass) - self.sink, 0).sum())

    def validate(self, inst: FlowInstance) -> None:
        """Exact recount of every preflow invariant; raises on violation.

        A push leaves level l >= 1 for level l - 1, so every edge with
        nonzero flow touches R = {v : level(v) > 0}.  When Vol(R) is at
        most m/2, the recount reads only the edges at R's slots, after
        ``flow.count(0)`` has shown that they hold all the nonzero flow,
        and the masses at their ends and at the sources, after
        ``mass.count(0)`` has shown that every other mass is zero.
        Otherwise, or when that fails, or when the recount over R's edges
        finds a violation, every edge is recounted and the first violation
        is reported."""
        self._checked_excess(inst)

    def _checked_excess(self, inst: FlowInstance,
                        raised: Sequence[int] | None = None) -> int:
        """``validate``, then the total excess.  ``raised`` lists R when
        the caller knows it; else it is read off the levels."""
        excess = self._excess_on_footprint(inst, raised)
        if excess is None:
            self._recount_all_edges(inst)
            excess = self.total_excess()
        return excess

    def _excess_on_footprint(self, inst: FlowInstance, raised) -> int | None:
        """The total excess when the recount over R's edges proves the
        preflow valid, else None.  A larger R makes the full recount the
        cheaper one: gathering flow from a list costs more per edge than
        converting all of it.  Arrays from a pulse phase are recounted in
        full, at numpy speed."""
        g, flow, mass = inst.g, self.flow, self.mass
        if raised is None:
            raised = np.flatnonzero(_int_array(self.level))
        else:
            raised = np.array(raised, dtype=np.int64)
        if isinstance(flow, np.ndarray) or 2 * int(g.deg[raised].sum()) > len(flow):
            return None
        slot, _ = incident_slots(g, raised)
        eids = _distinct(g.inc[slot])
        f = np.fromiter(map(flow.__getitem__, eids.tolist()), np.int64, len(eids))
        if np.count_nonzero(f) != len(flow) - flow.count(0):
            return None  # some nonzero flow lies outside R's edges
        if f.size and np.abs(f).max() > inst.congestion_cap:
            return None
        if inst.alive is not None and f[~inst.alive[eids]].any():
            return None
        # Every vertex outside the ends of R's edges and the sources holds
        # no source and no flow, so its mass must be zero.
        eu, ev = g.eu[eids], g.ev[eids]
        net = inst.source_array.copy()
        np.add.at(net, ev, f)
        np.subtract.at(net, eu, f)
        support = _distinct(np.concatenate([eu, ev, inst._sources]))
        net = net[support]
        held = list(map(mass.__getitem__, support.tolist()))
        if (net < 0).any() or net.tolist() != held:
            return None
        if len(mass) - mass.count(0) != len(held) - held.count(0):
            return None  # some nonzero mass lies outside them
        return int(np.maximum(net - inst.sink_array[support], 0).sum())

    def _recount_all_edges(self, inst: FlowInstance) -> None:
        g = inst.g
        flow = _int_array(self.flow)
        if flow.size and np.abs(flow).max() > inst.congestion_cap:
            raise InternalInvariantBroken("edge congestion above cap")
        if inst.alive is not None and flow[~inst.alive].any():
            raise InternalInvariantBroken("flow on a dead edge")
        # net inflow, in exact int64; a self-loop's flow enters and leaves
        net = inst.source_array.copy()
        np.add.at(net, g.ev, flow)
        np.subtract.at(net, g.eu, flow)
        mass = _int_array(self.mass)
        bad = (net != mass) | (net < 0)
        if bad.any():
            v = int(bad.argmax())
            if net[v] != mass[v]:
                raise InternalInvariantBroken(f"mass mismatch at vertex {v}")
            # equivalent to net outflow exceeding the vertex's source mass
            raise InternalInvariantBroken(f"negative mass at vertex {v}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only."""
    arr.flags.writeable = False
    return arr


def _int_array(values: Sequence[int]) -> np.ndarray:
    """An int64 array of a list of ints (faster than ``np.asarray``), or
    the int64 array itself."""
    if isinstance(values, np.ndarray):
        return values
    return np.fromiter(values, np.int64, len(values))


def _best_level_cut(g: MultiGraph, level: Sequence[int], raised: Sequence[int],
                    phi: Fraction, max_level: int, needed_volume: int = 0,
                    alive: np.ndarray | None = None):
    """Sparsest level cut {v : level >= i} with Phi < phi, exactly recounted.

    ``level`` is a list or an int64 array over V, and ``raised`` lists
    R = {v : level(v) > 0} in any order.  Only thresholds
    whose smaller side volume reaches ``needed_volume`` qualify; only
    ``alive`` edges count when that mask is given.  Returns (side
    frozenset, threshold) or None.

    Every side with i >= 1 lies inside R = {v : level(v) > 0}, and every
    edge crossing it has its higher end there, so the counts read R's
    slots alone.  The side changes only at occupied levels, and an equal
    side never wins the strict tie-break, so only the first threshold of
    each run of equal sides is scored: the level after each occupied one.
    Past the live-edge count, the cost is O(vol(R) log vol(R)), whatever
    ``max_level`` is.
    """
    if max_level < 1:
        return None
    total_vol = g.volume() if alive is None else 2 * int(np.count_nonzero(alive))
    raised = np.sort(np.array(raised, dtype=np.int64))
    if isinstance(level, np.ndarray):
        level = level[raised]
    else:
        level = np.fromiter(map(level.__getitem__, raised.tolist()), np.int64,
                            len(raised))
    occupied, rank = np.unique(level, return_inverse=True)
    crossing, suffixes = _raised_level_counts(g, raised, rank, len(occupied), alive)
    # Side j is {level >= occupied[j]}, scored at one above the occupied
    # level below it.  With no vertex at level 0, side 0 is V: its volume
    # is the total, so it never qualifies.
    thresholds = [1, *(occupied[:-1] + 1).tolist()]
    best = None  # (delta, minvol, i)
    for i, delta, suffix in zip(thresholds, crossing, suffixes):
        if i > max_level:
            break
        if suffix <= 0 or suffix >= total_vol:
            continue
        minvol = min(suffix, total_vol - suffix)
        if minvol < needed_volume:
            continue
        # Phi(S_i) < phi, compared exactly
        if delta * phi.denominator >= phi.numerator * minvol:
            continue
        if (
            best is None
            or delta * best[1] < best[0] * minvol
            or (delta * best[1] == best[0] * minvol and minvol > best[1])
        ):
            best = (delta, minvol, i)
    if best is None:
        return None
    i = best[2]
    side = frozenset(raised[level >= i].tolist())
    return side, i


def _raised_level_counts(g: MultiGraph, raised: np.ndarray, rank: np.ndarray,
                         top: int, alive: np.ndarray | None):
    """Crossing live edges and live volume of each side {key >= j},
    j = 1..top, where ``raised[t]`` has key rank[t] + 1 and every other
    vertex key 0.  Counted over the raised vertices' slots: an edge
    crossing side j has its higher-key end raised, and is counted from
    there only, where its other end's key is lower."""
    key = np.zeros(g.n, dtype=np.int64)
    key[raised] = rank + 1
    slot, owner = incident_slots(g, raised)
    if alive is not None:
        live = alive[g.inc[slot]]
        slot, owner = slot[live], owner[live]
    own, other = key[owner], key[g.nbr[slot]]
    down = other < own
    span = top + 2
    crossing = np.cumsum(np.bincount(other[down] + 1, minlength=span)
                         - np.bincount(own[down] + 1, minlength=span))
    suffix = np.cumsum(np.bincount(own, minlength=span)[::-1])[::-1]
    return crossing[1:top + 1].tolist(), suffix[1:top + 1].tolist()


class _PushRelabel:
    """Lowest-label-first push-relabel on the live edges of a graph.

    ``pose`` takes an instance on that graph and its live edges, and
    ``run`` runs it.  The lists outlive a run: a later ``pose`` first
    resets them over the last run's footprint, R's levels, pointers and
    edges and the masses at those edges' ends and at the sources, so one
    solver serves a sequence of instances (the trimming rounds of one
    ``expander_prune`` call) for the cost of their footprints.  ``drop``
    keeps it in step as edges die.  Given ``sink``, the solver starts
    with those sinks and every pose reloads only the ones ``drop`` names;
    else the first pose loads them all.
    """

    def __init__(self, g: MultiGraph, alive: np.ndarray | None = None,
                 sink: np.ndarray | None = None):
        self.g = g
        self.indptr, self.inc, self.nbr = g.slots
        self.eu = g.eu_list
        self.flow = [0] * g.m
        self.level = [0] * g.n
        self.mass = None if sink is None else [0] * g.n
        self.sink = None if sink is None else sink.tolist()
        self.ptr = self.indptr[:-1]  # the next slot each vertex scans
        self.queued = bytearray(g.n)
        self.buckets: dict[int, deque[int]] = {}
        self.raised: list[int] = []  # R, in the order it left level 0
        self.sources = np.empty(0, dtype=np.int64)  # of the posed instance
        self.resink: list[np.ndarray] = []
        if alive is not None:
            dead = np.flatnonzero(~alive[g.inc])
            self.drop(dead, np.searchsorted(g.indptr, dead, side="right") - 1)

    def drop(self, slots: np.ndarray, owners: np.ndarray) -> None:
        """The edges at ``slots`` died: point each slot back at its owner.

        The walk treats such a slot like a self-loop's: relabels skip it
        and it is never admissible, so only live edges carry flow.
        Scanning it still counts as work, which paces the early level-cut
        checks.  The owners' live degrees fell, so the next ``pose``
        reloads their sinks."""
        if not slots.size:
            return
        if self.nbr is self.g.slots[2]:
            self.nbr = list(self.nbr)  # the graph's list is shared
            self._bind_lists()
        nbr = self.nbr
        for k, v in zip(slots.tolist(), owners.tolist()):
            nbr[k] = v
        self.resink.append(owners)

    def pose(self, inst: FlowInstance) -> None:
        """Take ``inst``, an instance on this solver's graph and live
        edges, for the next run.  A solver made without sinks loads all of
        them here.  Otherwise the last run is reset over its footprint and
        only the sources and the sinks ``drop`` named are reloaded, so past
        one numpy scan of the sources a pose costs O(footprint)."""
        sources = inst._sources
        if self.sink is None:
            self.mass = inst.source_array.tolist()
            self.sink = inst.sink_array.tolist()
        else:
            self._reset()
            mass, sink = self.mass, self.sink
            if self.resink:
                verts = _distinct(np.concatenate(self.resink))
                for v, cap in zip(verts.tolist(), inst.sink_array[verts].tolist()):
                    sink[v] = cap
            for v, units in zip(sources.tolist(), inst.source_array[sources].tolist()):
                mass[v] = units
        self.resink = []
        self.sources = sources
        self.cap = inst.congestion_cap
        self.h = inst.height_cap
        self.max_level = 0
        self.work = 0
        self.pulses = self.pulse_work = 0  # of a pulse phase it took over
        # count[l]: vertices at level l < h.  A relabel lands at most one
        # level above the list, or at h, so the list grows by append.
        self.count = [self.g.n]
        self.gaps = 0
        # Buckets are allocated lazily: the height cap scales with 1/phi and
        # can dwarf the number of levels ever touched.
        active = sources[inst.source_array[sources] > inst.sink_array[sources]].tolist()
        self.buckets = {0: deque(active)} if active else {}
        self.level_heap: list[int] = [0] if active else []
        queued = self.queued
        for v in active:
            queued[v] = 1
        self._bind_lists()

    def _bind_lists(self) -> None:
        """Gather the lists ``_discharge`` reads into one tuple; called
        again whenever one of them is replaced."""
        self.lists = (self.indptr, self.inc, self.nbr, self.eu, self.flow,
                      self.level, self.mass, self.sink, self.ptr, self.queued)

    def _reset(self) -> None:
        """Zero the last run's levels, pointers, flows and masses over its
        footprint.  Only a discharge moves a pointer or pushes, and one at
        level 0 cannot push, so it relabels: every vertex that moved its
        pointer or pushed left level 0 and is in R.  So nonzero flow lies
        on R's edges, and mass is nonzero only at their ends and at the
        sources."""
        g, flow, level, mass, ptr, indptr = (
            self.g, self.flow, self.level, self.mass, self.ptr, self.indptr)
        slot, _ = incident_slots(g, np.array(self.raised, dtype=np.int64))
        for e in g.inc[slot].tolist():
            flow[e] = 0
        for v in g.nbr[slot].tolist():
            mass[v] = 0
        for v in self.raised:
            level[v] = 0
            ptr[v] = indptr[v]
            mass[v] = 0
        for v in self.sources.tolist():
            mass[v] = 0
        for bucket in self.buckets.values():  # left over by an early stop
            for v in bucket:
                self.queued[v] = 0
        self.raised = []

    def _enqueue(self, v: int, lvl: int) -> None:
        bucket = self.buckets.get(lvl)
        if bucket is None:
            bucket = deque()
            self.buckets[lvl] = bucket
            heapq.heappush(self.level_heap, lvl)
        bucket.append(v)
        self.queued[v] = 1

    def _discharge(self, v: int) -> None:
        """Push v's excess down admissible slots, or relabel v.  ``run``
        discharges only vertices that hold excess.

        Slot k's residual is cap - flow[inc[k]] when v is the edge's ``eu``
        end, cap + flow[inc[k]] otherwise, and zero on a self-loop.  The
        scan resumes at k0 = ptr[v] and scores every slot it passes: ``low``
        is the lowest level among the residual neighbours passed.  Within
        one discharge only v's level changes, and flow changes only on the
        slot being pushed, which is read again before the scan passes it;
        so every passed slot's residual and neighbour level still hold when
        the scan ends.  The relabel to one above the lowest residual
        neighbour then rescans only [start, k0), the slots this discharge
        did not pass.  ``work`` counts what a scan followed by a full
        relabel pass counts: one unit per slot read (a saturating push
        reads its slot twice) and deg(v) + 1 per relabel."""
        indptr, inc, nbr, eu, flow, level, mass, sink, ptr, queued = self.lists
        cap, h = self.cap, self.h
        start, end = indptr[v], indptr[v + 1]
        k0 = ptr[v]
        old = level[v]
        below = old - 1
        mass_v, sink_v = mass[v], sink[v]
        low = h - 1  # the relabel lands at low + 1 <= h
        saturated = 0
        for k in range(k0, end):
            w = nbr[k]
            lw = level[w]
            if lw == below:  # never on a self-loop
                eid = inc[k]
                forward = eu[eid] == v
                res = cap - flow[eid] if forward else cap + flow[eid]
                if res > 0:
                    extra = mass_v - sink_v
                    amount = res if res < extra else extra
                    flow[eid] += amount if forward else -amount
                    mass_v -= amount
                    mass[w] += amount
                    if mass[w] > sink[w] and lw < h and not queued[w]:
                        self._enqueue(w, lw)
                    if amount == extra:
                        mass[v] = mass_v
                        ptr[v] = k
                        self.work += k - k0 + saturated + 1
                        return
                    saturated += 1  # read again, at zero residual, and passed
            elif lw < low and w != v:
                eid = inc[k]
                if (cap - flow[eid] if eu[eid] == v else cap + flow[eid]) > 0:
                    low = lw
        for j in range(start, k0):
            w = nbr[j]
            lw = level[w]
            if lw < low and w != v:
                eid = inc[j]
                if (cap - flow[eid] if eu[eid] == v else cap + flow[eid]) > 0:
                    low = lw
        mass[v] = mass_v
        self.work += end - k0 + saturated + end - start + 1
        ptr[v] = start
        if not old:
            self.raised.append(v)
        lv = (low if low > old else old) + 1  # old < h: run skips level h
        level[v] = lv
        count = self.count
        count[old] -= 1
        if not count[old]:
            self._gap(old)  # lifts v as well
            return
        if lv > self.max_level:
            self.max_level = lv
        if lv < h:
            if lv == len(count):
                count.append(1)
            else:
                count[lv] += 1
            bucket = self.buckets.get(lv)
            if bucket is None:
                self.buckets[lv] = deque((v,))
                heapq.heappush(self.level_heap, lv)
            else:
                bucket.append(v)
            queued[v] = 1

    def _gap(self, old: int) -> None:
        """Level ``old`` just emptied: lift every vertex above it to h,
        where it is never discharged again (see the module docstring)."""
        h, level = self.h, self.level
        for v in self.raised:
            if old < level[v] < h:
                level[v] = h
        del self.count[old + 1:]
        self.max_level = h
        self.gaps += 1

    def final(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """The run's flows, levels, masses and R."""
        return self.flow, self.level, self.mass, self.raised

    def load(self, pulses: _Pulses, active: np.ndarray) -> None:
        """Take over a pulse phase's run on a freshly posed instance: its
        flows, levels, masses and counters, R = {level > 0} in id order,
        and the vertices ``active`` that hold excess below the cap, queued
        in level-then-id order.  Every pointer stays at its first slot."""
        level = pulses.level
        self.flow = pulses.flow.tolist()
        self.level = level.tolist()
        self.mass = pulses.mass.tolist()
        self.raised = np.flatnonzero(level).tolist()
        self.count = pulses.count.tolist()
        self.max_level, self.work, self.gaps = pulses.max_level, pulses.work, pulses.gaps
        self.pulses, self.pulse_work = pulses.pulses, pulses.work
        queued = self.queued = bytearray(len(self.level))
        order = active[np.argsort(level[active], kind="stable")]
        self.buckets = {}
        for v, lvl in zip(order.tolist(), level[order].tolist()):
            bucket = self.buckets.get(lvl)
            if bucket is None:
                bucket = self.buckets[lvl] = deque()
            bucket.append(v)
            queued[v] = 1
        self.level_heap = list(self.buckets)  # ascending, so a heap
        self._bind_lists()

    def run(self, early_check=None, check_interval: int | None = None,
            next_check: int | None = None):
        """Run to quiescence; ``early_check(state) -> cut|None`` may stop it.
        It is called once ``work`` reaches ``next_check`` (by default
        ``check_interval``), then every ``check_interval`` units."""
        if next_check is None:
            next_check = check_interval or 0
        heap, buckets, queued = self.level_heap, self.buckets, self.queued
        level, mass, sink = self.level, self.mass, self.sink
        discharge, heappop = self._discharge, heapq.heappop
        while heap:
            lvl = heap[0]
            bucket = buckets.get(lvl)
            if not bucket:
                heappop(heap)
                if bucket is not None:
                    del buckets[lvl]
                continue
            v = bucket.popleft()
            queued[v] = 0
            if level[v] != lvl or mass[v] <= sink[v]:
                continue
            discharge(v)
            if check_interval and self.work >= next_check:
                next_check = self.work + check_interval
                found = early_check(self)
                if found is not None:
                    return found
        return None


class _Pulses:
    """Synchronous push-relabel on int64 arrays: each ``pulse`` discharges
    every vertex that holds excess below the cap at once (see the module
    docstring).  Its state is the one ``_PushRelabel`` keeps, without the
    pointers and buckets: ``count`` lists the vertices per level below h,
    up to the highest such level."""

    def __init__(self, inst: FlowInstance):
        g = inst.g
        self.g, self.alive = g, inst.alive
        self.cap, self.h = inst.congestion_cap, inst.height_cap
        self.flow = np.zeros(g.m, dtype=np.int64)
        self.level = np.zeros(g.n, dtype=np.int64)
        self.mass = inst.source_array.copy()
        self.sink = inst.sink_array
        self.count = np.array([g.n], dtype=np.int64)
        self.max_level = self.work = self.gaps = self.pulses = 0
        self.pushed = np.zeros(g.m, dtype=bool)  # the edges a pulse pushed on
        self.view_of = None  # the active set the slot view is of

    @property
    def raised(self) -> np.ndarray:
        return np.flatnonzero(self.level)

    @property
    def pulse_work(self) -> int:
        return self.work

    def final(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The run's flows, levels, masses and R, as the arrays they are."""
        return self.flow, self.level, self.mass, self.raised

    def active(self) -> np.ndarray:
        """The vertices holding excess below the cap, ascending."""
        return np.flatnonzero((self.mass > self.sink) & (self.level < self.h))

    def _view(self, active: np.ndarray) -> None:
        """Gather the slots of ``active`` unless the last pulse's set was the
        same: per slot its owner's index in ``active``, its edge, neighbour
        (a dead slot's is its owner), +1 at the ``eu`` end or -1, and residual."""
        if self.view_of is not None and np.array_equal(active, self.view_of):
            return
        g, self.view_of = self.g, active
        slot, owner = incident_slots(g, active)
        assert max(g.n, 2 * g.m) <= np.iinfo(np.int32).max
        self.deg = deg = g.deg[active]
        self.first = np.cumsum(deg) - deg
        self.heads = self.first[deg > 0]  # for the relabel minimum
        self.who = np.repeat(np.arange(len(active), dtype=np.int32), deg)
        eid, w = g.inc[slot], g.nbr[slot]
        if self.alive is not None:
            w = np.where(self.alive[eid], w, owner)  # a dead slot is inert
        self.ok = w != owner  # a self-loop or a dead slot never is
        self.sgn = (g.eu[eid] == owner).view(np.int8) * 2 - 1
        self.eid, self.w = eid.astype(np.int32), w.astype(np.int32)
        self.res = self.cap - self.flow[eid] * self.sgn
        self.lw = np.empty(len(slot), dtype=np.int64)

    def pulse(self, active: np.ndarray) -> None:
        """Discharge every vertex of ``active`` at once.

        Each pushes its excess at the pulse's start down its admissible
        slots in slot order, as far as their residuals reach.  One that
        keeps some of that excess has saturated them all, and is relabelled
        to one above its lowest residual neighbour, read with the residuals
        after the pushes and the levels before the pulse.  Then the gap
        rule lifts every vertex above the lowest level the relabels
        emptied.  ``work`` adds, per vertex, what a slot-by-slot discharge
        from its first slot counts.  It reads the slot view of ``active``,
        patches the residuals at the edges it pushed on and scores the
        relabels over the whole view."""
        flow, level, mass, cap, h = self.flow, self.level, self.mass, self.cap, self.h
        self._view(active)
        eid, w, sgn, res, lw = self.eid, self.w, self.sgn, self.res, self.lw
        np.take(level, w, out=lw)  # levels before the pulse
        old = level[active]
        # Admissible: one level down with residual.  The two ends of an
        # edge are never both admissible, so the pushes touch each edge
        # once; a self-loop or a dead slot never is.
        adm = np.flatnonzero((lw == np.repeat(old - 1, self.deg)) & (res > 0))
        excess = mass[active] - self.sink[active]
        sent = np.zeros(len(active), dtype=np.int64)
        pushes = np.zeros(len(active), dtype=np.int64)
        last = np.zeros(len(active), dtype=np.int64)  # of the last push
        if adm.size:
            r, by = res[adm], self.who[adm]
            # residual on the vertex's earlier admissible slots
            before = np.cumsum(r) - r
            head = np.flatnonzero(np.diff(by, prepend=-1))
            before -= np.repeat(before[head], np.diff(head, append=len(by)))
            amount = np.clip(excess[by] - before, 0, r)
            moved = np.flatnonzero(amount)
            adm, by, amount = adm[moved], by[moved], amount[moved]
            e = eid[adm]
            flow[e] += amount * sgn[adm]
            self.pushed[e] = True  # both ends' slots: a relabel reads them
            at = np.flatnonzero(self.pushed[eid])
            self.pushed[e] = False
            res[at] = cap - flow[eid[at]] * sgn[at]
            np.add.at(mass, w[adm], amount)
            np.add.at(sent, by, amount)
            mass[active] -= sent
            pushes = np.bincount(by, minlength=len(active))
            tail = np.flatnonzero(np.diff(by, append=-1))
            last[by[tail]] = adm[tail] - self.first[by[tail]]
        done = sent == excess
        self.work += int(np.where(done, last + pushes,
                                  2 * self.deg + 1 + pushes).sum())
        self.pulses += 1
        keep = np.flatnonzero(~done)
        if not keep.size:
            return
        # the relabels: a residual neighbour's level, else h - 1
        np.minimum(lw, h - 1, out=lw)
        lw[(res <= 0) | ~self.ok] = h - 1
        low = np.full(len(active), h - 1, dtype=np.int64)
        low[self.deg > 0] = np.minimum.reduceat(lw, self.heads)
        low = low[keep]
        was = old[keep]
        new = np.maximum(low, was) + 1
        level[active[keep]] = new
        below = new[new < h]
        size = max(len(self.count), int(below.max()) + 1 if below.size else 0)
        count = np.zeros(size, dtype=np.int64)
        count[:len(self.count)] = self.count
        count += np.bincount(below, minlength=size)
        count -= np.bincount(was, minlength=size)
        emptied = was[count[was] == 0]
        if emptied.size:
            gap = int(emptied.min())
            level[(level > gap) & (level < h)] = h
            count = count[:gap]  # its last level is occupied
            self.max_level = h
            self.gaps += 1
        else:
            self.max_level = max(self.max_level, int(new.max()))
        self.count = count


def _run(inst: FlowInstance, early_check, check_interval: int | None,
         solver: _PushRelabel | None):
    """Run ``inst`` on ``solver``, or in pulses and then on a new solver.

    Returns (the state the run ended in, ``early_check``'s cut or None).
    A given solver runs slot by slot.  Else the run pulses while at least
    ``PULSE_WIDTH`` vertices hold excess and hands the rest to a new
    solver; the early checks keep their pacing across the handoff.
    """
    if solver is not None:
        solver.pose(inst)
        return solver, solver.run(early_check, check_interval)
    next_check = check_interval or 0
    active = np.flatnonzero(inst.source_array > inst.sink_array)
    pulses = None
    if len(active) >= PULSE_WIDTH:
        pulses = _Pulses(inst)
        while len(active) >= PULSE_WIDTH:
            pulses.pulse(active)
            if check_interval and pulses.work >= next_check:
                next_check = pulses.work + check_interval
                found = early_check(pulses)
                if found is not None:
                    return pulses, found
            active = pulses.active()
    solver = _PushRelabel(inst.g, inst.alive)
    solver.pose(inst)
    if pulses is not None:
        solver.load(pulses, active)
    return solver, solver.run(early_check, check_interval, next_check)


def bounded_push_relabel(
    inst: FlowInstance,
    *,
    early_cut_volume: int | None = None,
    check_interval: int | None = None,
    _solver: _PushRelabel | None = None,
) -> tuple[Preflow, int, Cut | None]:
    """Route source mass to sinks or expose a low-conductance level cut.

    Returns (preflow, total_excess, cut).  On a degree-capped instance the
    cut is present whenever excess > 0, satisfies Phi < phi by exact
    recount, and both its sides have volume at least the excess.  Oversized
    sources void that guarantee: an instance with ``check_degree_caps=False``
    may end with excess and no level cut below phi, and the cut is then
    None; any cut returned is still recounted below phi.  Passing
    ``early_cut_volume`` stops as soon as some level cut has Phi < phi and
    both sides' volumes reach that target; the preflow is then still a
    valid preflow, just not quiescent.

    ``_solver`` is a solver on inst's graph and live edges to run on
    instead of a new one; the preflow returned then shares its lists,
    which its next pose resets.
    """
    g = inst.g
    early = None
    if early_cut_volume is not None:
        def early(state: _PushRelabel | _Pulses):
            return _best_level_cut(
                g, state.level, state.raised, inst.phi, state.max_level,
                needed_volume=early_cut_volume, alive=inst.alive,
            )

    state, hit = _run(inst, early,
                      check_interval if early_cut_volume is not None else None,
                      _solver)
    flow, level, mass, raised = state.final()
    recorded = (np.count_nonzero(level) if isinstance(level, np.ndarray)
                else len(level) - level.count(0))
    if recorded != len(raised):
        raise InternalInvariantBroken("a vertex left level 0 unrecorded")
    pf = Preflow(flow, level, mass, inst.source_array, inst.sink_array)
    excess = pf._checked_excess(inst, raised)
    if hit is not None:
        side, _ = hit
        cut = cut_stats(g, side, inst.alive)
        _check_cut(cut, inst, early_cut_volume or 0)
        return pf, excess, cut
    if excess == 0:
        return pf, 0, None
    found = _best_level_cut(g, level, raised, inst.phi, state.max_level,
                            needed_volume=excess if inst.check_degree_caps else 0,
                            alive=inst.alive)
    if found is None:
        if not inst.check_degree_caps:
            return pf, excess, None
        raise InternalInvariantBroken(
            "positive excess but no level cut below phi; solver bug"
        )
    cut = cut_stats(g, found[0], inst.alive)
    _check_cut(cut, inst, excess if inst.check_degree_caps else 0)
    return pf, excess, cut


def _check_cut(cut: Cut, inst: FlowInstance, needed_volume: int) -> None:
    if cut.conductance >= inst.phi:
        raise InternalInvariantBroken(
            f"level cut conductance {cut.conductance} not below {inst.phi}"
        )
    if min(cut.vol_s, cut.vol_comp) < needed_volume:
        raise InternalInvariantBroken(
            "level cut volume below the excess it must certify"
        )


def decompose_preflow(g: MultiGraph, pf: Preflow, inst: FlowInstance) -> list[list[int]]:
    """Decompose a preflow into source-to-sink vertex paths by DFS.

    Each source vertex contributes one walk per source unit.  Walks ending
    at unabsorbed excess are cancelled (their flow is consumed but no path
    is emitted); flow cycles encountered along a walk are erased in place.
    Runs in O(total flow + m).
    """
    flow = _int_array(pf.flow)
    rem = np.abs(flow).tolist()
    tail = np.where(flow > 0, g.eu, g.ev)
    head = (g.eu + g.ev - tail).tolist()
    out_arcs: list[list[int]] = [[] for _ in range(g.n)]
    moving = np.flatnonzero(flow)
    for eid, t in zip(moving.tolist(), tail[moving].tolist()):
        out_arcs[t].append(eid)
    ptr = [0] * g.n
    mass = _int_array(pf.mass)
    absorbed = np.minimum(mass, pf.sink)
    sink_left = absorbed.tolist()
    excess_left = (mass - absorbed).tolist()
    paths: list[list[int]] = []
    source = inst.source
    for a in inst._sources.tolist():
        for _ in range(source[a]):
            path = [a]
            pos = {a: 0}
            consumed: list[int] = []
            while True:
                v = path[-1]
                if sink_left[v] > 0:
                    sink_left[v] -= 1
                    paths.append(path)
                    break
                if excess_left[v] > 0:
                    excess_left[v] -= 1
                    break  # cancelled walk: flow consumed, no path emitted
                advanced = False
                while ptr[v] < len(out_arcs[v]):
                    eid = out_arcs[v][ptr[v]]
                    if rem[eid] > 0:
                        rem[eid] -= 1
                        nxt = head[eid]
                        if nxt in pos:
                            # erase the flow cycle, keep the consumed units gone
                            j = pos[nxt]
                            for drop in path[j + 1:]:
                                del pos[drop]
                            del path[j + 1:]
                        else:
                            pos[nxt] = len(path)
                            path.append(nxt)
                        advanced = True
                        break
                    ptr[v] += 1
                if not advanced:
                    raise InternalInvariantBroken(
                        f"walk stranded at vertex {v}; preflow bookkeeping bug"
                    )
    return paths


@dataclass
class PairRouting:
    """A matching between two terminal sets plus explicit routing paths."""

    matching: list[tuple[int, int]]
    paths: list[list[int]]
    congestion: int

    @property
    def value(self) -> int:
        return len(self.matching)


def route_or_cut_1pair(
    g: MultiGraph,
    a_side,
    b_side,
    z: int,
    psi: Fraction,
    *,
    early_check_interval: int | None = None,
) -> PairRouting | Cut:
    """Route A to B almost-perfectly or find a sparse fairly-large cut.

    Either returns a routing of value >= |A| - z with per-edge congestion
    at most ceil(4*Delta/psi), or a cut (X, Y) with Psi <= psi and
    |X|, |Y| >= z / Delta, both recounted exactly.
    """
    a = _distinct(_index_array(a_side))
    b = _distinct(_index_array(b_side))
    if not a.size or np.intersect1d(a, b, assume_unique=True).size:
        raise InvalidInput("terminal sets must be disjoint and A nonempty")
    if len(a) > len(b):
        raise InvalidInput("need |A| <= |B|")
    if z < 0:
        raise InvalidInput("z must be nonnegative")
    if not (0 < psi < 1):
        raise InvalidInput("psi must lie in (0, 1)")
    delta = max(g.max_degree(), 1)
    phi = Fraction(psi) / delta
    source = np.zeros(g.n, dtype=np.int64)
    sink = np.zeros(g.n, dtype=np.int64)
    source[a] = 1
    sink[b] = 1
    inst = FlowInstance(g, source, sink, phi)
    interval = early_check_interval
    pf, excess, cut = bounded_push_relabel(
        inst,
        early_cut_volume=max(z, 1) if interval else None,
        check_interval=interval,
    )
    # Any level cut with Phi < psi/Delta and both volumes >= max(z, 1) is a
    # valid answer on its own (sparsity <= psi, sizes >= z/Delta by volume).
    if cut is not None and min(cut.vol_s, cut.vol_comp) >= max(z, 1):
        _assert_pair_cut(g, cut, z, delta, psi)
        return cut
    if excess > z:
        # The unit-flow volume guarantee (min vol >= excess > z) should have
        # produced a big-enough cut above.
        raise InternalInvariantBroken("excess above z but no qualifying cut")
    # excess <= z and the flow is quiescent: decompose into routed paths
    paths = decompose_preflow(g, pf, inst)
    if len(paths) < len(a) - z:
        raise InternalInvariantBroken("path decomposition lost routed units")
    matching = [(p[0], p[-1]) for p in paths]
    seen_a = {u for u, _ in matching}
    seen_b = {v for _, v in matching}
    if len(seen_a) != len(matching) or len(seen_b) != len(matching):
        raise InternalInvariantBroken("decomposition produced repeated endpoints")
    congestion = path_congestion(g, paths)
    if congestion > inst.congestion_cap:
        raise InternalInvariantBroken("routing congestion above 4*Delta/psi cap")
    return PairRouting(matching, paths, congestion)


def _assert_pair_cut(g, cut: Cut, z: int, delta: int, psi: Fraction) -> None:
    if cut.sparsity > psi:
        raise InternalInvariantBroken(
            f"matching-player cut sparsity {cut.sparsity} exceeds {psi}"
        )
    if min(cut.size, g.n - cut.size) * delta < z:
        raise InternalInvariantBroken("matching-player cut smaller than z/Delta")


