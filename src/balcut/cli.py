"""Command line interface.

Subcommands: decompose, balcut, sparsest, lowcond, certify, prune, gen,
verify.  Exit codes: 0 success, 1 usage, 2 input error, 3 internal
invariant failure.  Every algorithm is deterministic; the only randomness
lives behind ``gen random --seed``.  Reports omit wall-clock timings unless
``--timings`` is passed, so identical inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import numpy as np

from . import fileio
from .cutmatch import (
    CertifiedSubset,
    WALK_POTENTIAL_CAP,
    cut_or_certify,
    walk_potential,
)
from .driver import (
    bal_cut_prune,
    expander_decomposition,
    iterations_final_cut,
    lowest_conductance_cut,
    sparsest_cut,
    WitnessResult,
)
from .errors import BalcutError, InternalInvariantBroken, InvalidInput, InvalidParam
from .expanders import construct_expander, gabber_galil
from .generators import barbell_graph, random_graph
from .graph import MultiGraph, brute_force_extremum, cut_stats
from .pruning import expander_prune


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _open_graph(path: str, allow_self_loops: bool = False) -> MultiGraph:
    if path == "-":
        return fileio.parse_graph(sys.stdin, allow_self_loops)
    with open(path) as fh:
        return fileio.parse_graph(fh, allow_self_loops)


def _emit(report: dict, labels, args) -> None:
    if getattr(args, "out_partition", None) and labels is not None:
        with open(args.out_partition, "w") as fh:
            fileio.write_partition(labels, fh)
    out = getattr(args, "out_report", None)
    if out:
        with open(out, "w") as fh:
            fileio.write_report(report, fh)
    else:
        fileio.write_report(report, sys.stdout)


def _labels_from_sides(n: int, a_side) -> list[int]:
    a = set(a_side)
    return [0 if v in a else 1 for v in range(n)]


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="balcut", description=__doc__)
    top.add_argument("--timings", action="store_true",
                     help="include wall-clock timings in reports")
    sub = top.add_subparsers(dest="command", required=True)

    def _graph_args(p):
        p.add_argument("graph", help="edge-list file, or - for stdin")
        p.add_argument("--allow-self-loops", action="store_true")
        p.add_argument("--out-report", help="write the JSON report here")
        p.add_argument("--out-partition", help="write the partition here")

    p = sub.add_parser("decompose", help="expander decomposition")
    p.add_argument("--eps", type=_fraction, required=True)
    p.add_argument("--r", type=int, default=1)
    _graph_args(p)

    p = sub.add_parser("balcut", help="balanced cut or pruned expander core")
    p.add_argument("--phi", type=_fraction, required=True)
    p.add_argument("--r", type=int, default=1)
    _graph_args(p)

    p = sub.add_parser("sparsest", help="approximate sparsest cut")
    p.add_argument("--r", type=int, default=1)
    _graph_args(p)

    p = sub.add_parser("lowcond", help="approximate lowest-conductance cut")
    p.add_argument("--r", type=int, default=1)
    _graph_args(p)

    p = sub.add_parser("certify", help="balanced sparse cut or expander certificate")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--diagnostics", action="store_true",
                   help="run the cut-matching game and report the potential trace")
    _graph_args(p)

    p = sub.add_parser("prune", help="expander pruning after edge deletions")
    p.add_argument("--phi", type=_fraction, required=True)
    p.add_argument("--deleted", required=True,
                   help="file of deleted edges, '. u v' per line or edge ids")
    _graph_args(p)

    p = sub.add_parser("gen", help="deterministic graph generators")
    p.add_argument("family", choices=["gabber-galil", "expander", "barbell", "random"])
    p.add_argument("--k", type=int, help="torus parameter / barbell block size")
    p.add_argument("--n", type=int, help="vertex count")
    p.add_argument("--p", type=float, help="edge probability for random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--path-len", type=int, default=1)
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("verify", help="check a cut against the brute-force oracle")
    p.add_argument("--oracle", choices=["sparsest", "conductance"], required=True)
    p.add_argument("graph")
    p.add_argument("cut", help="partition file; cluster 0 is the cut side")
    return top


def _cmd_decompose(args) -> int:
    g = _open_graph(args.graph, args.allow_self_loops)
    t0 = time.perf_counter()
    dec = expander_decomposition(g, args.eps, args.r)
    labels = [0] * g.n
    for ci, cluster in enumerate(dec.clusters):
        for v in cluster:
            labels[v] = ci
    report = {
        "command": "decompose",
        "parameters": {"eps": args.eps, "r": args.r},
        "clusters": len(dec.clusters),
        "inter_cluster_edges": dec.inter_cluster_edges,
        "inter_cluster_budget": args.eps * Fraction(g.volume()),
        "phi_target": dec.phi_target,
        "certificates": [c for c in dec.certificates],
        "detail": dec.report,
    }
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, labels, args)
    return 0


def _cmd_balcut(args) -> int:
    g = _open_graph(args.graph, args.allow_self_loops)
    t0 = time.perf_counter()
    res = bal_cut_prune(g, args.phi, args.r)
    report = {
        "command": "balcut",
        "parameters": {"phi": args.phi, "r": args.r},
        "branch": res.branch,
        "cut_edges": res.cut_edges,
        "alpha": res.alpha,
        "certified_phi": res.certified_phi,
        "vol_a": g.volume(res.a_side),
        "vol_b": g.volume(res.b_side),
        "detail": res.report,
    }
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, _labels_from_sides(g.n, res.a_side), args)
    return 0


def _cmd_value_cut(args, which: str) -> int:
    g = _open_graph(args.graph, args.allow_self_loops)
    t0 = time.perf_counter()
    fn = sparsest_cut if which == "sparsest" else lowest_conductance_cut
    res = fn(g, args.r)
    report = {
        "command": which,
        "parameters": {"r": args.r},
        "value": res.value,
        "floor": res.floor,
        "factor": res.factor,
        "cut_size": min(res.cut.size, g.n - res.cut.size),
        "detail": res.report,
    }
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, _labels_from_sides(g.n, res.cut.side), args)
    return 0


def _cmd_certify(args) -> int:
    g = _open_graph(args.graph, args.allow_self_loops)
    t0 = time.perf_counter()
    res = cut_or_certify(g, args.r)
    if isinstance(res, CertifiedSubset):
        report = {
            "command": "certify",
            "parameters": {"r": args.r},
            "branch": "certified",
            "subset_size": len(res.side),
            "psi_certified": res.psi,
            "method": res.detail,
        }
        labels = _labels_from_sides(g.n, res.side)
    else:
        report = {
            "command": "certify",
            "parameters": {"r": args.r},
            "branch": "cut",
            "side_a": len(res.a_side),
            "side_b": len(res.b_side),
            "crossing_edges": res.crossing,
        }
        labels = _labels_from_sides(g.n, res.a_side)
    if args.diagnostics and g.n >= 2:
        game = iterations_final_cut(g, Fraction(1, 4), g.n, args.r) \
            if g.m else None
        if isinstance(game, WitnessResult):
            rounds = game.witness.rounds
            if game.witness.n <= WALK_POTENTIAL_CAP:
                report["potential_trace"] = walk_potential(rounds, game.witness.n)
            report["game_rounds"] = game.rounds
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, labels, args)
    return 0


def _cmd_prune(args) -> int:
    g = _open_graph(args.graph, args.allow_self_loops)
    with open(args.deleted) as fh:
        deleted = fileio.parse_deleted(fh, g)
    t0 = time.perf_counter()
    a, b = expander_prune(g, args.phi, deleted)
    in_a = np.zeros(g.n, dtype=bool)
    in_a[list(a)] = True
    alive = np.ones(g.m, dtype=bool)
    alive[deleted] = False
    boundary = int(np.count_nonzero(alive & (in_a[g.eu] != in_a[g.ev])))
    report = {
        "command": "prune",
        "parameters": {"phi": args.phi, "k": len(deleted)},
        "kept_vertices": len(a),
        "pruned_vertices": len(b),
        "boundary_edges": boundary,
        "boundary_budget": 4 * len(deleted),
        "pruned_volume": g.volume(b),
        "volume_budget": Fraction(8 * len(deleted)) / args.phi,
    }
    if args.timings:
        report["timings"] = {"total_s": time.perf_counter() - t0}
    _emit(report, _labels_from_sides(g.n, a), args)
    return 0


def _cmd_gen(args) -> int:
    if args.family == "gabber-galil":
        if not args.k:
            raise InvalidInput("gen gabber-galil requires --k")
        g = gabber_galil(args.k)
    elif args.family == "expander":
        if not args.n:
            raise InvalidInput("gen expander requires --n")
        g = construct_expander(args.n)
    elif args.family == "barbell":
        if not args.k:
            raise InvalidInput("gen barbell requires --k")
        g = barbell_graph(args.k, args.path_len)
    else:
        if not args.n or args.p is None:
            raise InvalidInput("gen random requires --n and --p")
        g = random_graph(args.n, args.p, args.seed)
    if args.out:
        with open(args.out, "w") as fh:
            fileio.write_graph(g, fh)
    else:
        fileio.write_graph(g, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    g = _open_graph(args.graph)
    with open(args.cut) as fh:
        labels = fileio.parse_partition(fh, g.n)
    side = {v for v, c in enumerate(labels) if c == 0}
    objective = "sparsity" if args.oracle == "sparsest" else "conductance"
    cut = cut_stats(g, side)
    _, optimum = brute_force_extremum(g, objective)
    value = cut.sparsity if objective == "sparsity" else cut.conductance
    verdict = "PASS" if value == optimum else "FAIL"
    print(f"{verdict} value={value} optimum={optimum}")
    return 0


def dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "r", 1) < 1:  # even where no game would run
            raise InvalidParam("r must be at least 1")
        if args.command == "decompose":
            return _cmd_decompose(args)
        if args.command == "balcut":
            return _cmd_balcut(args)
        if args.command == "sparsest":
            return _cmd_value_cut(args, "sparsest")
        if args.command == "lowcond":
            return _cmd_value_cut(args, "lowcond")
        if args.command == "certify":
            return _cmd_certify(args)
        if args.command == "prune":
            return _cmd_prune(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return 1
    except InternalInvariantBroken as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (InvalidInput, BalcutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
