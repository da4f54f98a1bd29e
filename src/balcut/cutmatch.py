"""Deterministic cut-matching machinery.

``cut_or_certify`` implements the recursive cut player: it either returns a
balanced sparse cut of its input (both sides at least a quarter of the
vertices, at most max(1, n//100) crossing edges) or certifies a subset of
at least half the vertices whose induced subgraph is an expander, with a
numerically-reported sparsity floor assembled from measured sub-certificates.
The base case embeds an explicit expander through the multi-pair matching
player; the recursive case runs many parallel cut-matching games on equal
blocks, embeds a core expander across the blocks, composes, and extracts.

``cmg_drive`` is the generic game loop: a cut player proposes balanced
sparse cuts of the growing witness, a matcher routes pairs across them
until the cut player certifies or the matcher surfaces a cut of the host.
The game's rules live here once: ``_halves`` splits a move into equal
halves, and ``_padded`` completes a routed matching with fake edges.

The cut player's one free parameter is the recursion depth r, passed to
``cut_or_certify``.  Hidden constants from the analysis are module
constants (``C_CMG``, ``C_BASE``, ``ELL_ATTEMPTS``, ``N0``,
``MACHINERY_FLOOR``); thresholds below one at desk scale are relaxed to
max(1, .) and recorded in run reports rather than silently assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BudgetExceeded,
    DiagnosticFailure,
    DiagnosticTooLarge,
    InternalInvariantBroken,
    InvalidInput,
    InvalidParam,
    PreconditionViolated,
    RoundCapExceeded,
)
from .expanders import (
    _check_composition,
    construct_expander,
    expander_sparsity_floor,
    partition_into_matchings,
)
from .graph import (
    MultiGraph,
    ORACLE_LIMIT,
    _distinct,
    _index_array,
    brute_force_extremum,
    component_labels,
    cut_edge_count,
    find_bridges,
    masked_subgraph,
    path_congestion,
    with_edges,
)
from .pruning import expander_prune
from .routing import PairFamily, PartialRouting, log2ceil, route_or_cut
from .spectral import certified_floor, cheeger_floor

C_CMG = 10         # round-cap multiplier of the game
C_BASE = 4         # z-budget constant of the base case
ELL_ATTEMPTS = 3   # adaptive path-length ladder retries
N0 = 16            # size floor for one recursion level
#: The vertex count from which the expander-embedding machinery engages.
#: Below it the cut budget max(1, n//100) is so small that the only
#: admissible cuts are component or bridge cuts, which the exact layer
#: finds directly, and certifying the measured floor is the only other
#: contract-valid outcome.
MACHINERY_FLOOR = 2048


def _small_side(side, n):
    """The side of a cut of range(n) holding at most half the vertices."""
    return side if 2 * len(side) <= n else frozenset(range(n)) - side


def _halves(a_side, b_side, n):
    """The game's halves of a balanced move on range(n), n even: the
    smaller side (ties go to ``a_side``) takes the other side's lowest ids
    until it holds n // 2.  Returns (A half, B half) as lists."""
    small, big = sorted((sorted(a_side), sorted(b_side)), key=len)
    need = n // 2 - len(small)
    return small + big[:need], big[need:]


def _padded(a_ids, b_ids, matched):
    """The game's fake edges: the routed pairs ``matched`` first, then the
    unmatched vertices of each side joined in the given order."""
    used_a = {u for u, _ in matched}
    used_b = {v for _, v in matched}
    return list(matched) + list(zip([u for u in a_ids if u not in used_a],
                                    [v for v in b_ids if v not in used_b]))


@dataclass(frozen=True)
class BalancedCutMove:
    """A cut-player move: balanced sides, few crossing edges."""

    a_side: frozenset[int]
    b_side: frozenset[int]
    crossing: int


@dataclass(frozen=True)
class CertifiedSubset:
    """At least half the vertices inducing a certified expander."""

    side: frozenset[int]
    psi: Fraction
    detail: str = ""


@dataclass
class Witness:
    """The game's accumulated union of matchings with its embedding.

    Witness edge i is fake iff ``paths[i]`` is None; every fake edge embeds
    exactly one witness edge (itself).  An odd host plays on n = host.n + 1
    vertices, the last one a padding vertex whose edges are all fake.
    """

    host: MultiGraph
    n: int
    edges: list[tuple[int, int]] = field(default_factory=list)
    rounds: list[list[tuple[int, int]]] = field(default_factory=list)
    paths: list[list[int] | None] = field(default_factory=list)

    def add_round(self, pairs, path_of: dict[tuple[int, int], list[int]]):
        """Record one matching; pairs missing from ``path_of`` become fake."""
        pairs = list(pairs)
        self.edges += pairs
        self.paths += [path_of.get(p) for p in pairs]
        self.rounds.append(pairs)

    @property
    def fake_edges(self) -> list[tuple[int, int]]:
        return [e for e, p in zip(self.edges, self.paths) if p is None]

    @property
    def host_fake_edges(self) -> list[tuple[int, int]]:
        """The fake edges between host vertices: those of the padding
        vertex dropped."""
        return [(u, v) for u, v in self.fake_edges if max(u, v) < self.host.n]

    def h_graph(self) -> MultiGraph:
        return MultiGraph(self.n, self.edges)

    def real_paths(self) -> list[list[int]]:
        return [p for p in self.paths if p is not None]

    def congestion(self) -> int:
        """Exact recount of the embedding congestion over host edges."""
        return max(path_congestion(self.host, self.real_paths()), 1)


def extract_expander(
    g: MultiGraph,
    w: Witness,
    psi: Fraction,
) -> tuple[frozenset[int], frozenset[int], Fraction]:
    """Turn an embedded expander witness into a large expanding subgraph.

    ``psi`` is the measured sparsity floor of the witness graph.  Returns
    (A, B, psi_certified) with G[A] certified at
    psi / (6 * Delta_hat * congestion); A keeps all but about
    4|F| * congestion / psi vertices and at most 4|F| edges leave it.
    """
    if w.n != g.n:
        raise InvalidInput("witness must live on the host vertex set")
    fake = w.fake_edges
    cong = w.congestion()
    aug = with_edges(g, fake)
    delta_aug = max(aug.max_degree(), 1)
    phi_hat = Fraction(psi) / cong / delta_aug
    if phi_hat <= 0:
        raise InvalidInput("witness sparsity floor must be positive")
    if fake:
        a_side, b_side = expander_prune(aug, phi_hat, list(range(g.m, aug.m)))
    else:
        a_side, b_side = frozenset(range(g.n)), frozenset()
    boundary = cut_edge_count(g, a_side)
    if boundary > 4 * max(len(fake), 1) and fake:
        raise InternalInvariantBroken("extraction boundary above 4|F|")
    if fake:
        lost_cap = Fraction(4 * len(fake) * cong, 1) / Fraction(psi)
        if g.n - len(a_side) > math.ceil(lost_cap):
            raise InternalInvariantBroken(
                f"extraction lost {g.n - len(a_side)} vertices, cap {float(lost_cap):.1f}"
            )
    psi_certified = phi_hat / 6
    return a_side, b_side, psi_certified


# ---------------------------------------------------------------------------
# The recursive cut player
# ---------------------------------------------------------------------------


def cut_or_certify(g: MultiGraph, r: int) -> BalancedCutMove | CertifiedSubset:
    """Balanced sparse cut or certified expanding subset (see module docs).

    ``r`` >= 1 caps the recursion depth of the cut player.
    """
    if r < 1:
        raise InvalidParam("r must be at least 1")
    n = g.n
    if n == 0:
        raise InvalidInput("empty graph")
    if n <= 2:
        return CertifiedSubset(
            frozenset(range(n)), certified_floor(g, "sparsity"), "trivial"
        )
    quarter = -(-n // 4)
    budget = max(1, n // 100)
    acc = np.zeros(n, dtype=bool)  # the peeled vertices
    edges_cut = 0
    guard = 0
    while (taken := int(np.count_nonzero(acc))) < quarter:
        guard += 1
        if guard > n + 2:
            raise InternalInvariantBroken("cut player peel loop did not progress")
        cur_g, idx = masked_subgraph(g, ~acc)
        k, label = component_labels(cur_g)
        if k > 1:
            acc[idx[_peel_components(label, k, taken, quarter, n)]] = True
            continue
        step = _expander_step(cur_g, r, budget - edges_cut, quarter - taken)
        if isinstance(step, CertifiedSubset):
            side = frozenset(idx[_index_array(step.side)].tolist())
            if 2 * len(side) < n:
                raise InternalInvariantBroken("certificate side below n/2")
            return CertifiedSubset(side, step.psi, step.detail)
        x_local, delta = step
        acc[idx[_index_array(x_local)]] = True
        edges_cut += delta
    a_ids = np.flatnonzero(acc)
    a_side = frozenset(a_ids.tolist())
    b_side = frozenset(np.flatnonzero(~acc).tolist())
    crossing = cut_edge_count(g, a_ids)
    if len(a_side) < quarter or len(b_side) < quarter:
        raise InternalInvariantBroken("balanced cut sides below n/4")
    if crossing > budget:
        raise InternalInvariantBroken(
            f"balanced cut crossing {crossing} above budget {budget}"
        )
    return BalancedCutMove(a_side, b_side, crossing)


def _peel_components(label, k, acc_size, quarter, n):
    """Batch smallest components, never letting the peel pass 3n/4.

    ``label`` numbers the k components of the remainder by first vertex,
    so a stable sort of their sizes breaks ties by first vertex.  Returns
    the mask of the remainder's vertices to peel: all but a giant component
    (over 3n/4; the caller recurses on it), else the shortest prefix of
    that order that lifts the peel to ``quarter``.  Without a giant, the
    components before the largest hold at least ``quarter - acc_size``, so
    the prefix never takes the whole remainder."""
    size = np.bincount(label, minlength=k)
    order = np.argsort(size, kind="stable")
    if 4 * int(size[order[-1]]) > 3 * n:
        took = order[:-1]
    else:
        reach = np.cumsum(size[order])
        took = order[:1 + int(np.searchsorted(reach, quarter - acc_size))]
    peel = np.zeros(k, dtype=bool)
    peel[took] = True
    return peel[label]


def _expander_step(cur_g, r, budget_left, still_needed):
    """One peel step: certified subset of >= 2n'/3 vertices, or a sparse cut
    (local side, crossing count).  Stuck machinery certifies the whole
    connected remainder with the floor the gate measured; it holds > 3n/4
    of the caller's vertices."""
    n = cur_g.n
    if n <= ORACLE_LIMIT:
        return _tiny_step(cur_g, budget_left)
    # Spectral gate: every cut with <= budget_left crossing edges has its
    # smaller side below 2 * budget_left / lambda2, and at most budget_left
    # such pieces can ever be peeled; when even their union cannot reach the
    # still-needed quarter, certifying the remainder is the only outcome the
    # expensive machinery could produce, so report the Cheeger floor now.
    half = cheeger_floor(cur_g)
    if half > 0 and budget_left >= 0:
        if budget_left * budget_left < half * still_needed:
            return CertifiedSubset(frozenset(range(n)), half, "cheeger-gap")
    if budget_left >= 1:
        # The most balanced single-edge cut, found exactly.
        bridges, order = find_bridges(cur_g)
        if bridges:
            eid, child, size = max(
                bridges, key=lambda t: (min(t[2], n - t[2]), -t[0])
            )
            i = order.index(child)  # the child's DFS subtree: its side
            return (_small_side(frozenset(order[i:i + size]), n), 1)
    if budget_left >= 2 and n >= MACHINERY_FLOOR:
        q_eff = 1
        while q_eff < r and n >= N0 ** (q_eff + 1):
            q_eff += 1
        if q_eff == 1:
            step = _base_step(cur_g, budget_left)
        else:
            step = _rec_step(cur_g, q_eff, budget_left)
        if step is not None:
            return step
    return _certify_whole(n, half, "fallback-measured")


def _certify_whole(n, psi, detail):
    """Certify a connected graph on range(n) with its measured floor psi
    (``certified_floor`` of it: exact below the oracle limit, Cheeger
    above)."""
    if psi <= 0:
        raise InternalInvariantBroken("connected graph measured non-expanding")
    return CertifiedSubset(frozenset(range(n)), psi, detail)


def _tiny_step(cur_g, budget_left):
    """Exact handling below the oracle limit: brute-force the dichotomy."""
    n = cur_g.n
    best, psi = brute_force_extremum(cur_g, "sparsity")
    if best.delta <= budget_left:
        return (_small_side(best.side, n), best.delta)
    return _certify_whole(n, psi, "oracle")


class _AttemptOver(Exception):
    """Ends an attempt at one ell early; ``args[0]`` is its result: a host
    cut (side, delta), or None to try the next ell."""


def _ell_ladder(n):
    base = 2 * log2ceil(n) + 4
    for attempt in range(ELL_ATTEMPTS):
        yield min(max(base << attempt, 4), 4 * n)


def _base_step(cur_g, budget_left):
    """Embed an explicit expander through the matching player, then extract."""
    n = cur_g.n
    z = max(1, -(-n // (C_BASE * log2ceil(n) ** 5)))
    h_exp = construct_expander(n)
    matchings = partition_into_matchings(h_exp)
    psi_star = expander_sparsity_floor(n)
    h_edges = h_exp.edges
    for ell in _ell_ladder(n):
        witness = Witness(cur_g, n)
        try:
            for m_ids in matchings:
                fam_pairs = [([h_edges[eid][0]], [h_edges[eid][1]]) for eid in m_ids]
                per_family, path_of = _routed_matchings(
                    cur_g, fam_pairs, z, ell, budget_left)
                witness.add_round([p for pairs in per_family for p in pairs], path_of)
        except _AttemptOver as over:
            if over.args[0] is None:
                continue
            return over.args[0]
        # Each family is one pair and a routing leaves at most z of them
        # fake, so the fake count is at its floor: a longer ell cannot
        # shrink it, and extraction would fail its budget again.
        return _try_extract(cur_g, witness, psi_star)
    return None


def _try_extract(cur_g, witness, psi_witness):
    n = cur_g.n
    try:
        a_side, _, psi_cert = extract_expander(cur_g, witness, psi_witness)
    except (BudgetExceeded, InternalInvariantBroken, PreconditionViolated):
        return None
    if 3 * len(a_side) >= 2 * n and psi_cert > 0:
        return CertifiedSubset(a_side, psi_cert, "extracted")
    return None


def _rec_step(cur_g, q, budget_left):
    """Parallel block games, core embedding, composition, extraction."""
    n = cur_g.n
    big_n = N0
    while big_n ** q < n:
        big_n *= 2
    if n <= big_n ** (q - 1):
        return _expander_step(cur_g, q - 1, budget_left, n)
    nb = max((big_n ** (q - 1)) // 2, 2)
    blocks = [list(range(i * nb, (i + 1) * nb)) for i in range(n // nb)]
    extra = list(range(len(blocks) * nb, n))
    z = 1  # minimal fake budget: maximal cut sensitivity at desk scale
    for ell in _ell_ladder(n):
        result = _rec_attempt(cur_g, q - 1, blocks, extra, z, ell, budget_left)
        if result is not None:
            return result
    return None


def _rec_attempt(cur_g, sub_r, blocks, extra, z, ell, budget_left):
    n = cur_g.n
    nb = len(blocks[0])
    witness = Witness(cur_g, n)
    block_edges: list[list[tuple[int, int]]] = [[] for _ in blocks]
    certified: dict[int, tuple[frozenset[int], Fraction]] = {}

    def local_graph(bi):
        base = blocks[bi][0]
        return MultiGraph(nb, [(u - base, v - base) for u, v in block_edges[bi]])

    def play(fam_pairs):
        """Route one round of families and record it in the witness."""
        per_family, path_of = _routed_matchings(cur_g, fam_pairs, z, ell, budget_left)
        for pairs in per_family:
            witness.add_round(pairs, path_of)
        return per_family

    try:
        for _ in range(C_CMG * log2ceil(nb) + 2):
            active = [bi for bi in range(len(blocks)) if bi not in certified]
            if not active:
                break
            fam_pairs = []
            fam_owner = []
            for bi in active:
                sub = cut_or_certify(local_graph(bi), sub_r)
                base = blocks[bi][0]
                if isinstance(sub, CertifiedSubset):
                    certified[bi] = (
                        frozenset(base + v for v in sub.side),
                        sub.psi,
                    )
                    continue
                a, b = _halves(sub.a_side, sub.b_side, nb)
                fam_pairs.append(([base + v for v in a], [base + v for v in b]))
                fam_owner.append(bi)
            if fam_pairs:
                for pairs, bi in zip(play(fam_pairs), fam_owner):
                    block_edges[bi].extend(pairs)

        if len(certified) < len(blocks):
            return None

        # Final per-block matching: attach the uncertified leftovers.
        fam_pairs = []
        owners = []
        for bi in range(len(blocks)):
            side, _ = certified[bi]
            rest = sorted(set(blocks[bi]) - side)
            if rest:
                fam_pairs.append((rest, sorted(side)))
                owners.append(bi)
        if fam_pairs:
            for pairs, bi in zip(play(fam_pairs), owners):
                block_edges[bi].extend(pairs)

        # Step 2: embed a core expander across the blocks.
        core = construct_expander(len(blocks))
        core_match: dict[int, list[tuple[int, int]]] = {}
        if core.m:
            core_edges = core.edges
            for m_ids in partition_into_matchings(core):
                fam_pairs = [(blocks[core_edges[eid][0]], blocks[core_edges[eid][1]])
                             for eid in m_ids]
                for eid, pairs in zip(m_ids, play(fam_pairs)):
                    i, j = core_edges[eid]
                    bi, bj = blocks[i][0], blocks[j][0]
                    core_match[eid] = [(u - bi, v - bj) for u, v in pairs]

        # Extras: match the leftover tail into the blocks.
        if extra:
            play([(extra, sorted(set(range(n)) - set(extra)))])
    except _AttemptOver as over:
        return over.args[0]

    # Step 3: compose and extract.  Only the composition's validity matters;
    # the composed graph itself is never built.
    _check_composition(core, [nb] * len(blocks), core_match)
    psi_blocks = min(psi for _, psi in certified.values()) / 2
    psi_core = expander_sparsity_floor(len(blocks))
    delta_core = max(core.max_degree(), 1)
    psi_comp = psi_blocks * psi_core / (16 * delta_core)
    if extra:
        psi_comp /= 2
    psi_comp = min(psi_comp, Fraction(1))
    return _try_extract(cur_g, witness, psi_comp)


def _routed_matchings(cur_g, fam_pairs, z, ell, budget_left):
    """Route the families; perfect each matching with fake edges.

    Returns (per_family_pairs, path_of).  A stuck matcher, or a host cut
    over ``budget_left``, raises ``_AttemptOver(None)``; a host cut within
    it raises ``_AttemptOver((side, delta))``.
    """
    fam = PairFamily.of(fam_pairs)
    try:
        res = route_or_cut(cur_g, fam, z, ell)
    except DiagnosticFailure:
        raise _AttemptOver(None) from None
    if not isinstance(res, PartialRouting):
        raise _AttemptOver((_small_side(res.side, cur_g.n), res.delta)
                           if res.delta <= budget_left else None)
    per_family = [_padded(sorted(a_set), sorted(b_set), matched)
                  for (a_set, b_set), matched in zip(fam.pairs, res.matchings)]
    return per_family, dict(res.paths)


# ---------------------------------------------------------------------------
# The game driver
# ---------------------------------------------------------------------------


@dataclass
class GameResult:
    witness: Witness
    certified: CertifiedSubset
    rounds: int


def cmg_drive(
    host: MultiGraph,
    cut_player: Callable[[MultiGraph], BalancedCutMove | CertifiedSubset],
    matcher: Callable[[list[int], list[int]], object],
    round_cap: int,
):
    """Run the cut-matching game on ``host``'s vertex set.

    Each round the cut player moves on the witness graph, and the game
    splits the move into halves: ``_halves`` of a balanced cut, or the rest
    against the certified side in the final round.  The matcher is called
    with the halves' host vertices (a_real, b_real) and returns either a
    host cut (any object that is not a dict), which stops the game, or a
    dict mapping the pairs (a, b) it routed to their host paths.  The game
    completes the matching with fake edges (``_padded``), so that it covers
    the A half and, in non-final rounds, the B half.

    An odd host plays on one padding vertex more (id host.n), which the
    matcher never sees; its matches are always fake.  Returns a GameResult
    or the matcher's host cut.
    """
    n = host.n
    n_eff = n + (n % 2)
    witness = Witness(host, n_eff)
    trace: list[int] = []
    for rnd in range(1, round_cap + 1):
        move = cut_player(witness.h_graph())
        final = isinstance(move, CertifiedSubset)
        if final:
            b_half = sorted(move.side)
            a_half = sorted(set(range(n_eff)) - move.side)
            if not a_half:
                return GameResult(witness, move, rnd - 1)
        else:
            quarter = -(-n_eff // 4)
            if len(move.a_side) < quarter or len(move.b_side) < quarter:
                raise InternalInvariantBroken("cut player move below n/4 sides")
            if move.crossing > max(1, n_eff // 100):
                raise InternalInvariantBroken("cut player move above n/100 edges")
            a_half, b_half = _halves(move.a_side, move.b_side, n_eff)
        a_real, b_real = a_half, b_half
        if n % 2:  # hide the padding vertex from the matcher
            a_real = [v for v in a_half if v < n]
            b_real = [v for v in b_half if v < n]
        # A final A half may be the padding vertex alone: nothing to route.
        routed = matcher(a_real, b_real) if a_real else {}
        if not isinstance(routed, dict):
            return routed  # the matcher surfaced a host cut
        pairs = _padded(a_half, b_half, routed)
        _check_matching(a_half, b_half, pairs, final)
        witness.add_round(pairs, routed)
        trace.append(len(pairs))
        if final:
            return GameResult(witness, move, rnd)
    raise RoundCapExceeded(f"game exceeded {round_cap} rounds", trace)


def _check_matching(a_half, b_half, pairs, final):
    a_used = [a for a, _ in pairs]
    b_used = [b for _, b in pairs]
    if len(set(a_used)) != len(a_used) or len(set(b_used)) != len(b_used):
        raise InternalInvariantBroken("matcher repeated an endpoint")
    if set(a_used) != set(a_half) or not set(b_used) <= set(b_half):
        raise InternalInvariantBroken("matcher must cover the A half exactly")
    if not final and set(b_used) != set(b_half):
        raise InternalInvariantBroken("non-final rounds need perfect matchings")


# ---------------------------------------------------------------------------
# Entropy potential diagnostic
# ---------------------------------------------------------------------------

WALK_POTENTIAL_CAP = 512


def walk_potential(rounds: Sequence[Sequence[tuple[int, int]]], n: int) -> list[float]:
    """Exact trace of the lazy-matching random-walk entropy potential.

    Row v of the dense matrix holds the distribution of the walk started at
    v (stay with probability 1/2, cross the round's matched edge with 1/2).
    Returns [Phi_0, ..., Phi_R] with Phi_i the total Shannon entropy in nats.
    """
    if n > WALK_POTENTIAL_CAP:
        raise DiagnosticTooLarge(f"n={n} above the diagnostic cap {WALK_POTENTIAL_CAP}")
    p = np.eye(n)
    out = [0.0]
    for pairs in rounds:
        us = np.array([u for u, _ in pairs], dtype=np.int64)
        vs = np.array([v for _, v in pairs], dtype=np.int64)
        if len(us):
            if len(_distinct(np.concatenate([us, vs]))) != 2 * len(us):
                raise InvalidInput("a walk round must be a matching")
            avg = 0.5 * (p[:, us] + p[:, vs])
            p[:, us] = avg
            p[:, vs] = avg
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(p > 0, np.log(p), 0.0)
        out.append(float(-(p * logs).sum()))
    return out
