"""Top-level drivers: balanced cut-or-prune, expander decomposition,
most-balanced sparse cut, and sparsest / lowest-conductance approximation.

Every driver recounts its own output bounds exactly and reports the
constants it actually achieved; measured certificates come from brute force
below the oracle limit and from the Cheeger bound above it.  Desk-scale
corrections (the analysis constants target asymptotic n) are applied only
when an exact oracle shows a candidate certificate is too weak, and each
correction is recorded in the run report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .cutmatch import (
    C_CMG,
    GameResult,
    Witness,
    cmg_drive,
    cut_or_certify,
)
from .errors import (
    BudgetExceeded,
    InternalInvariantBroken,
    InvalidInput,
    InvalidParam,
    PreconditionViolated,
)
from .graph import (
    Cut,
    MultiGraph,
    ORACLE_LIMIT,
    _index_array,
    _side_mask,
    brute_force_extremum,
    component_labels,
    connected_components,
    cut_edge_count,
    cut_stats,
    induced_subgraph,
    is_connected,
    masked_subgraph,
    threshold_cut_counts,
    with_edges,
)
from .localflow import PairRouting, route_or_cut_1pair
from .pruning import expander_prune
from .reduce import lift_cut, make_canonical, project_cut, reduce_degree
from .routing import log2ceil
from .spectral import (
    _floor_reaching,
    _start_vector,
    adjacency_matrix,
    certified_floor,
    cheeger_floor,
)

C_HAT = 4  # the "large constant" of the high-sparsity driver


# ---------------------------------------------------------------------------
# The cut-matching game instantiated with the push-relabel matcher
# ---------------------------------------------------------------------------


@dataclass
class WitnessResult:
    """Certification outcome of one cut-matching game."""

    witness: Witness
    psi_witness: Fraction     # measured sparsity floor of the witness graph
    congestion: int
    fake_count: int
    rounds: int


def iterations_final_cut(
    g: MultiGraph, psi: Fraction, z: int, r: int
) -> Cut | WitnessResult:
    """Run the game with the recursive cut player and the 1-pair matcher.

    Returns either a cut (X, Y) of the host with Psi <= psi and
    |X|, |Y| >= z / Delta, or an expander witness embedded into g plus
    fake edges, with measured congestion and witness sparsity.
    """
    if g.n < 2:
        raise InvalidInput("the game needs at least two host vertices")
    psi = Fraction(psi)
    early = 4 * g.m if g.m > 2000 else None

    def cut_player(h: MultiGraph):
        return cut_or_certify(h, r)

    def matcher(a_real: list[int], b_real: list[int]):
        swap = len(a_real) > len(b_real)
        src, dst = (b_real, a_real) if swap else (a_real, b_real)
        res = route_or_cut_1pair(g, src, dst, z, psi, early_check_interval=early)
        if not isinstance(res, PairRouting):
            return res  # a host cut stops the game
        if not swap:
            return dict(zip(res.matching, res.paths))
        return {(v, u): path[::-1] for (u, v), path in zip(res.matching, res.paths)}

    round_cap = max(2, math.ceil(C_CMG * math.log2(g.n + g.n % 2)))
    outcome = cmg_drive(g, cut_player, matcher, round_cap)
    if isinstance(outcome, GameResult):
        witness = outcome.witness
        psi_w = outcome.certified.psi / 2  # the final matching halves it
        return WitnessResult(
            witness,
            psi_w,
            witness.congestion(),
            len(witness.fake_edges),
            outcome.rounds,
        )
    cut = outcome
    if cut.sparsity > psi:
        raise InternalInvariantBroken("matcher cut exceeds its sparsity bound")
    return cut


# ---------------------------------------------------------------------------
# BalCutPrune
# ---------------------------------------------------------------------------


@dataclass
class BalCutPruneResult:
    """Output of bal_cut_prune with exact recounts in ``report``."""

    a_side: frozenset[int]
    b_side: frozenset[int]
    cut_edges: int
    branch: str  # "balanced" or "pruned"
    certified_phi: Fraction | None
    alpha: Fraction
    report: dict


def _balanced_from_components(
    g: MultiGraph, comps: list[list[int]]
) -> BalCutPruneResult | None:
    """Zero-edge balanced cut assembled from whole components, if possible."""
    total = g.volume()
    comps = sorted(comps, key=lambda c: (g.volume(c), c[0]))
    acc: set[int] = set()
    acc_vol = 0
    for comp in comps:
        if 3 * acc_vol >= total:
            break
        acc.update(comp)
        acc_vol += g.volume(comp)
    if 3 * acc_vol >= total and 3 * (total - acc_vol) >= total:
        b = frozenset(range(g.n)) - acc
        return BalCutPruneResult(
            frozenset(acc), b, 0, "balanced", None, Fraction(0),
            {"branch": "balanced", "cut_edges": 0, "note": "component assembly"},
        )
    return None


def bal_cut_prune(g: MultiGraph, phi, r: int) -> BalCutPruneResult:
    """Balanced sparse cut or a pruned high-conductance core.

    Returns (A, B) with |E(A, B)| <= alpha * phi * Vol(G) (alpha measured
    and reported) such that either both sides have volume >= Vol(G)/3, or
    Vol(A) >= 7/12 * Vol(G) and G[A] carries a conductance certificate:
    exact brute force below the oracle limit (where it is pushed up to phi
    itself via corrective peeling), the Cheeger bound above it.
    """
    phi = Fraction(phi)
    if not (0 < phi <= 1):
        raise InvalidParam(f"phi must lie in (0, 1], got {phi}")
    if r < 1:
        raise InvalidParam("r must be at least 1")
    g.reject_self_loops("bal_cut_prune")
    if g.m < 1:
        raise InvalidInput("bal_cut_prune needs at least one edge")
    report: dict = {"phi": str(phi), "r": r, "notes": []}

    if not is_connected(g):
        comps = connected_components(g)
        comp_cut = _balanced_from_components(g, comps)
        if comp_cut is not None:
            comp_cut.report.update(phi=str(phi), r=r, alpha="0")
            return comp_cut
        # No balanced component assembly exists: one giant component holds
        # over 2/3 of the volume.  Process it; the crumbs join side B.
        giant = max(comps, key=lambda c: (g.volume(c), c[0]))
        sub, idx = induced_subgraph(g, giant)
        inner = bal_cut_prune(sub, phi, r)
        a = frozenset(idx[v] for v in inner.a_side)
        b = frozenset(range(g.n)) - a
        report = dict(inner.report)
        report["notes"] = list(report.get("notes", [])) + [
            "disconnected input: processed the giant component"
        ]
        return _finish(g, a, b, phi, inner.certified_phi, report)

    # Fast path: the whole graph already certifies at phi.
    cert = _floor_reaching(g, phi)
    if cert is not None:
        report["notes"].append("input certified at phi without cutting")
        return BalCutPruneResult(
            frozenset(range(g.n)), frozenset(), 0, "pruned", cert, Fraction(0),
            {**report, "branch": "pruned", "cut_edges": 0,
             "certified_phi": str(cert)},
        )

    red = reduce_degree(g)
    hat = red.hat_g
    big_n = hat.n
    psi = phi / C_HAT
    l2m = log2ceil(max(g.m, 2))
    z = max(1, (phi * g.m).__floor__() // (C_HAT * l2m ** min(C_HAT * r, 8)))
    report["psi"] = str(psi)
    report["z"] = z

    acc = np.zeros(big_n, dtype=bool)  # the peeled hat vertices
    corrections = 0
    rounds_total = 0
    third = -(-big_n // 3)
    guard = 0
    while np.count_nonzero(acc) < third:
        guard += 1
        if guard > big_n + 2:
            raise InternalInvariantBroken("bal_cut_prune peel loop stalled")
        sub, members = masked_subgraph(hat, ~acc)
        # The first pass needs no labelling: hat is connected because g is
        # (checked above).  Each cluster carries a connected
        # construct_expander(deg v), and the type-2 edges join clusters as
        # g's edges join vertices.
        k, label = component_labels(sub) if acc.any() else (1, None)
        if k > 1:
            # peel the smallest component, the lowest first vertex on ties
            # (always canonical: cluster graphs are connected, so
            # components never split clusters)
            acc[members[label == int(np.argmin(np.bincount(label)))]] = True
            continue
        outcome = iterations_final_cut(sub, psi, z, r)
        if isinstance(outcome, Cut):
            in_x = _side_mask(big_n, members[_index_array(outcome.side)])
            x_can = make_canonical(red, ~acc, in_x)
            y_can = ~acc & ~x_can
            small = min(x_can, y_can, key=np.count_nonzero)  # ties: x_can
            # A side empties only if the other holds at most half of every
            # cluster; the cut is then no sparser than the sparsest cluster
            # expander, above 1/4 >= psi for every size (brute force to 16
            # vertices, Fiedler's bound to 64, Gabber-Galil above).
            if not small.any():
                raise InternalInvariantBroken("canonicalization emptied a side")
            acc |= small
            continue
        # witness branch: contract back, prune the fake edges
        rounds_total += outcome.rounds
        result = _witness_case(g, red, members, outcome, phi, report)
        if isinstance(result, BalCutPruneResult):
            return result
        acc |= result
        corrections += 1
        report["corrections"] = corrections

    orig_a = project_cut(red, ~acc)
    report["rounds"] = rounds_total
    report["corrections"] = corrections
    return _finish(g, frozenset(np.flatnonzero(orig_a).tolist()),
                   frozenset(np.flatnonzero(~orig_a).tolist()), phi, None, report)


def _witness_case(g, red, members, wr: WitnessResult, phi, report):
    """Case 2 of the driver: contract clusters, prune fakes, verify.

    Returns the finished result, or the canonical hat mask of a sub-phi
    cut that the oracle found in the core, for the caller to peel.
    """
    cluster = red.owner[members].tolist()
    u_orig = sorted(set(cluster))
    sub_g, idx_g = induced_subgraph(g, u_orig)
    back = {v: i for i, v in enumerate(idx_g)}
    # Witness vertices are local ids of the canonical subgraph; map through
    # members to hat vertices, then to original clusters.  Fake edges whose
    # endpoints contract into one vertex become self-loops and vanish.
    fake_pairs = []
    for hu, hv in wr.witness.host_fake_edges:
        cu, cv = cluster[hu], cluster[hv]
        if cu != cv:
            fake_pairs.append((back[cu], back[cv]))
    contracted = with_edges(sub_g, fake_pairs)
    fake_ids = list(range(sub_g.m, sub_g.m + len(fake_pairs)))
    phi_gpp = Fraction(wr.psi_witness) / max(wr.congestion, 1)
    phi_gpp = min(phi_gpp, Fraction(1))
    b_local: frozenset[int] = frozenset()
    if fake_ids and phi_gpp > 0:
        try:
            _, b_local = expander_prune(contracted, phi_gpp, fake_ids)
        except (BudgetExceeded, InternalInvariantBroken, PreconditionViolated) as exc:
            report["notes"].append(f"fake-edge pruning unavailable: {exc}")
    # expander_prune never returns an empty A, so a_orig is nonempty.
    a_orig = frozenset(idx_g[v] for v in range(sub_g.n)) - frozenset(
        idx_g[v] for v in b_local
    )
    core, idx_core = induced_subgraph(g, a_orig)
    cert = certified_floor(core, "conductance")
    if core.n <= ORACLE_LIMIT and cert < phi:
        # Desk-scale correction: the oracle found a sub-phi cut inside the
        # candidate core; peel its smaller-volume side (canonically) and
        # continue the main loop.
        worst, _ = brute_force_extremum(core, "conductance")
        side = worst.side if worst.vol_s <= worst.vol_comp else (
            frozenset(range(core.n)) - worst.side
        )
        # a nonempty mask: side is nonempty, and so is every cluster of
        # the connected g (m >= 1)
        return lift_cut(red, _side_mask(g.n, [idx_core[v] for v in side]))
    b_orig = frozenset(range(g.n)) - a_orig
    rep = dict(report)
    rep["witness_psi"] = str(wr.psi_witness)
    rep["witness_congestion"] = wr.congestion
    rep["witness_fakes"] = wr.fake_count
    return _finish(g, a_orig, b_orig, phi, cert, rep)


def _finish(g, a_side, b_side, phi, cert, report):
    """Assemble and recount a BalCutPruneResult."""
    vol = g.volume()
    vol_a = g.volume(a_side)
    vol_b = vol - vol_a
    cut_edges = cut_edge_count(g, a_side) if b_side else 0
    if vol_a < vol_b:
        a_side, b_side = b_side, a_side
        vol_a, vol_b = vol_b, vol_a
    if 3 * vol_b >= vol:  # then vol_a >= vol_b holds a third too
        branch = "balanced"
    else:
        branch = "pruned"  # vol_a is above 2/3 of vol
        if cert is None:
            core, _ = induced_subgraph(g, a_side)
            cert = certified_floor(core, "conductance")
    alpha = (
        Fraction(cut_edges) / (phi * vol) if cut_edges else Fraction(0)
    )
    report.update(
        branch=branch,
        cut_edges=cut_edges,
        vol_a=vol_a,
        vol_b=vol_b,
        alpha=str(alpha),
        certified_phi=str(cert) if cert is not None else None,
    )
    return BalCutPruneResult(
        frozenset(a_side), frozenset(b_side), cut_edges, branch,
        cert if branch == "pruned" else None, alpha, report,
    )


# ---------------------------------------------------------------------------
# Expander decomposition
# ---------------------------------------------------------------------------


@dataclass
class DecompositionResult:
    clusters: list[list[int]]
    inter_cluster_edges: int
    phi_target: Fraction
    certificates: list[Fraction]
    report: dict


def expander_decomposition(g: MultiGraph, eps, r: int = 1) -> DecompositionResult:
    """Partition V into conductance-certified clusters.

    Inter-cluster edges number at most eps * Vol(G) (recounted exactly);
    every final cluster carries a certificate: brute-force conductance for
    clusters below the oracle limit, the Cheeger bound otherwise.
    """
    eps = Fraction(eps)
    if not (0 < eps <= 1):
        raise InvalidParam(f"eps must lie in (0, 1], got {eps}")
    g.reject_self_loops("expander decomposition")
    vol = g.volume()
    l2 = log2ceil(max(vol, 4))
    phi_target = eps / (8 * l2)
    active: list[list[int]] = [
        sorted(c) for c in connected_components(g)
    ]
    active.sort(key=lambda c: c[0])
    final: list[list[int]] = []
    certs: list[Fraction] = []
    sweeps = 0
    while active:
        sweeps += 1
        if sweeps > 4 * vol + 8:
            raise InternalInvariantBroken("decomposition worklist stalled")
        cluster = active.pop(0)
        sub, idx = induced_subgraph(g, cluster)
        if sub.n <= 1 or sub.m == 0:
            for v in cluster:
                final.append([v])
                certs.append(Fraction(1))
            continue
        res = bal_cut_prune(sub, phi_target, r)
        if res.branch == "pruned" and not res.b_side:
            final.append(cluster)
            certs.append(res.certified_phi)
            continue
        a = sorted(idx[v] for v in res.a_side)
        b = sorted(idx[v] for v in res.b_side)
        if res.branch == "pruned":
            final.append(a)
            certs.append(res.certified_phi)
            active.append(b)
        else:
            active.append(a)
            active.append(b)
        active.sort(key=lambda c: c[0])

    order = sorted(range(len(final)), key=lambda i: final[i][0])
    final = [final[i] for i in order]
    certs = [certs[i] for i in order]
    label = np.zeros(g.n, dtype=np.int64)
    for ci, cluster in enumerate(final):
        label[cluster] = ci
    inter = int(np.count_nonzero(label[g.eu] != label[g.ev]))
    if inter * 1 > eps * vol:
        raise InternalInvariantBroken(
            f"inter-cluster edges {inter} exceed eps*Vol = {float(eps * vol):.1f}"
        )
    covered = sorted(v for c in final for v in c)
    if covered != list(range(g.n)):
        raise InternalInvariantBroken("clusters do not partition the vertices")
    return DecompositionResult(
        final, inter, phi_target, certs,
        {
            "eps": str(eps),
            "phi_target": str(phi_target),
            "clusters": len(final),
            "inter_cluster_edges": inter,
            "vol": vol,
        },
    )


# ---------------------------------------------------------------------------
# Most-balanced sparse cut and the approximation drivers
# ---------------------------------------------------------------------------


@dataclass
class NoBalancedSparseCutCertificate:
    """Quantified witness that balanced cuts of sparsity psi do not exist.

    Every cut with both sides of at least ``min_side`` vertices has
    sparsity at least ``floor``.  When ``min_side`` is 0 the floor covers
    every cut of the graph.
    """

    psi_requested: Fraction
    floor: Fraction
    min_side: int
    witness_psi: Fraction
    congestion: int
    fakes: int


def sparse_cut_or_expander(
    g: MultiGraph, psi, z: int, r: int
) -> Cut | NoBalancedSparseCutCertificate:
    """A sparse fairly-balanced cut or a quantified no-such-cut certificate."""
    psi = Fraction(psi)
    if g.n < 2:
        raise InvalidInput("need at least two vertices")
    delta = max(g.max_degree(), 1)
    z_flow = max(4 * z, z * delta, 1)
    outcome = iterations_final_cut(g, psi / 2, z_flow, r)
    if isinstance(outcome, Cut):
        if min(outcome.size, g.n - outcome.size) < z:
            raise InternalInvariantBroken("matcher cut smaller than z")
        if outcome.sparsity > psi:
            raise InternalInvariantBroken("matcher cut above psi")
        return outcome
    psi_w = outcome.psi_witness
    cong = max(outcome.congestion, 1)
    fakes = outcome.fake_count
    if fakes == 0:
        return NoBalancedSparseCutCertificate(
            psi, psi_w / cong, 0, psi_w, cong, 0
        )
    min_side = math.ceil(Fraction(2 * fakes) / psi_w) if psi_w > 0 else g.n
    return NoBalancedSparseCutCertificate(
        psi, psi_w / (2 * cong), min_side, psi_w, cong, fakes
    )


@dataclass
class ApproxCutResult:
    cut: Cut
    value: Fraction
    floor: Fraction
    factor: float
    report: dict


def _sparsity_grid(g: MultiGraph):
    top = Fraction(1)
    stop = Fraction(2, max(g.volume(), 2))
    psi = top
    while psi >= stop:
        yield psi
        psi = psi / 2


def _first_min(deltas, sizes, vols, n: int, total_vol: int, objective: str) -> int:
    """Index of the first cut with the least conductance or sparsity.

    Cut i has ``deltas[i]`` crossing edges and a side of ``sizes[i]``
    vertices and volume ``vols[i]``.  The keys are the exact fractions of
    ``cut_stats`` (a zero smaller volume has conductance 0), compared by
    cross-multiplication with a strict ``<``, so ties go to the first cut.
    """
    best, best_num, best_den = 0, None, 1
    for i, (delta, size, vol) in enumerate(zip(deltas, sizes, vols)):
        if objective == "conductance":
            den = min(vol, total_vol - vol)
            num = delta if den else 0
            den = den or 1
        else:
            num, den = delta, min(size, n - size)
        if best_num is None or num * best_den < best_num * den:
            best, best_num, best_den = i, num, den
    return best


def _best_singleton_cut(g: MultiGraph, objective: str) -> Cut:
    loops = np.bincount(g.eu[g.eu == g.ev], minlength=g.n)
    deltas = (g.deg - 2 * loops).tolist()
    v = _first_min(deltas, [1] * g.n, g.degrees(), g.n, g.volume(), objective)
    return cut_stats(g, {v})


def _fiedler_sweep_cut(g: MultiGraph, objective: str) -> Cut | None:
    """Best prefix cut along an approximate Fiedler ordering of a
    connected graph.

    The ordering comes from 200 steps of power iteration on 2I - L from the
    fixed start vector, deflated against the kernel vector D^{1/2} 1.
    """
    if g.n < 3:
        return None
    deg = g.deg.astype(np.float64)
    a = adjacency_matrix(g)
    dinv = 1.0 / np.sqrt(deg)
    lap = sp.eye(g.n) - sp.diags(dinv) @ a @ sp.diags(dinv)
    v1 = np.sqrt(deg)
    v1 /= np.linalg.norm(v1)
    x = _start_vector(g.n)
    x -= v1 * (v1 @ x)
    x /= np.linalg.norm(x)
    for _ in range(200):
        x = 2.0 * x - lap @ x
        x -= v1 * (v1 @ x)
        nrm = np.linalg.norm(x)
        if nrm == 0:
            return None
        x /= nrm
    return _best_prefix_cut(g, np.argsort(x, kind="stable"), objective)


def _best_prefix_cut(g: MultiGraph, order: np.ndarray, objective: str) -> Cut:
    """The first best proper prefix cut order[:k], 0 < k < n, in O(m).

    Prefix k is the threshold side {v : rank(v) < k}.
    """
    n = g.n
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    deltas, vols = threshold_cut_counts(g, rank, n - 1)
    k = _first_min(deltas, range(1, n), vols, n, g.volume(), objective)
    return cut_stats(g, order[:k + 1].tolist())


def _candidate_cuts(g: MultiGraph, objective: str) -> list[Cut]:
    """Deterministic desk-scale candidates complementing the game's cuts."""
    cands: list[Cut] = []
    if 2 <= g.n <= ORACLE_LIMIT:
        cands.append(brute_force_extremum(g, objective)[0])
    sweep = _fiedler_sweep_cut(g, objective)
    if sweep is not None:
        cands.append(sweep)
    cands.append(_best_singleton_cut(g, objective))
    return cands


def sparsest_cut(g: MultiGraph, r: int = 1) -> ApproxCutResult:
    """Geometric search over sparse_cut_or_expander plus a certified floor."""
    if g.n < 2:
        raise InvalidInput("need at least two vertices")
    if not is_connected(g):
        comps = connected_components(g)
        side = min(comps, key=len)
        cut = cut_stats(g, side)
        return ApproxCutResult(cut, cut.sparsity, Fraction(0), 1.0,
                               {"note": "disconnected: component cut"})
    best: Cut | None = None
    game_floor = Fraction(0)
    cert_detail = None
    for psi in _sparsity_grid(g):
        res = sparse_cut_or_expander(g, psi, 1, r)
        if isinstance(res, Cut):
            if best is None or res.sparsity < best.sparsity:
                best = res
        else:
            if res.min_side <= 1:
                game_floor = res.floor
            cert_detail = res
            break
    for cand in _candidate_cuts(g, "sparsity"):
        if best is None or cand.sparsity < best.sparsity:
            best = cand
    cheeger = cheeger_floor(g)
    floor = max(game_floor, cheeger)
    value = best.sparsity
    factor = float(value / floor) if floor > 0 else math.inf
    report = {
        "value": str(value),
        "floor": str(floor),
        "floor_cheeger": str(cheeger),
        "floor_game": str(game_floor),
        "factor": factor,
        "certificate": (
            {
                "min_side": cert_detail.min_side,
                "witness_psi": str(cert_detail.witness_psi),
                "congestion": cert_detail.congestion,
                "fakes": cert_detail.fakes,
            }
            if cert_detail is not None
            else None
        ),
    }
    return ApproxCutResult(best, value, floor, factor, report)


def lowest_conductance_cut(g: MultiGraph, r: int = 1) -> ApproxCutResult:
    """Sparsest cut of the degree-reduced graph, canonicalized and projected."""
    if g.m < 1:
        raise InvalidInput("need at least one edge")
    if not is_connected(g):
        comps = connected_components(g)
        side = min(comps, key=lambda c: (g.volume(c), c[0]))
        cut = cut_stats(g, side)
        return ApproxCutResult(cut, cut.conductance, Fraction(0), 1.0,
                               {"note": "disconnected: component cut"})
    red = reduce_degree(g)
    hat_res = sparsest_cut(red.hat_g, r)
    a_hat = _side_mask(red.hat_g.n, hat_res.cut.side)
    a_can = make_canonical(red, np.ones(red.hat_g.n, dtype=bool), a_hat)
    cut = None
    if a_can.any() and not a_can.all():
        orig_a = project_cut(red, a_can)
        if orig_a.any() and not orig_a.all():
            cut = cut_stats(g, np.flatnonzero(orig_a))
    for cand in _candidate_cuts(g, "conductance"):
        if cut is None or cand.conductance < cut.conductance:
            cut = cand
    cheeger = cheeger_floor(g)
    floor = max(hat_res.floor, cheeger)  # Psi(hat G) <= Phi(G)
    value = cut.conductance
    factor = float(value / floor) if floor > 0 else math.inf
    report = {
        "value": str(value),
        "floor": str(floor),
        "factor": factor,
        "reduced": hat_res.report,
    }
    return ApproxCutResult(cut, value, floor, factor, report)
