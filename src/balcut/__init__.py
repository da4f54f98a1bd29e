"""balcut: deterministic balanced cuts and expander decompositions.

The library builds a stack of deterministic graph-partitioning primitives
on unweighted multigraphs: explicit constant-degree expanders, degree
reduction, Even-Shiloach trees, bounded-height push-relabel (Unit-Flow),
multi-pair path packing with ball-growing cuts, cut-matching games with a
recursive deterministic cut player, and expander pruning.  On top sit the
balanced cut-or-prune driver, expander decomposition, and approximate
sparsest / lowest-conductance cuts, all exactly recounted and verifiable
against brute-force oracles at small scale.
"""

from .cutmatch import (
    BalancedCutMove,
    CertifiedSubset,
    Witness,
    cmg_drive,
    cut_or_certify,
    extract_expander,
    walk_potential,
)
from .driver import (
    ApproxCutResult,
    BalCutPruneResult,
    DecompositionResult,
    NoBalancedSparseCutCertificate,
    WitnessResult,
    bal_cut_prune,
    expander_decomposition,
    iterations_final_cut,
    lowest_conductance_cut,
    sparse_cut_or_expander,
    sparsest_cut,
)
from .errors import BalcutError
from .estree import ESTree
from .expanders import (
    construct_expander,
    expander_sparsity_floor,
    gabber_galil,
    partition_into_matchings,
)
from .graph import (
    Cut,
    MultiGraph,
    brute_force_extremum,
    cut_stats,
    induced_subgraph,
    is_connected,
)
from .localflow import (
    FlowInstance,
    PairRouting,
    Preflow,
    bounded_push_relabel,
    decompose_preflow,
    route_or_cut_1pair,
)
from .pruning import expander_prune
from .reduce import ReducedGraph, make_canonical, project_cut, reduce_degree
from .routing import (
    PairFamily,
    PartialRouting,
    ball_grow_cut,
    greedy_pack_round,
    route_or_cut,
)
from .spectral import certified_floor, cheeger_floor, lambda2_normalized

__version__ = "0.1.0"

__all__ = [
    "ApproxCutResult",
    "BalCutPruneResult",
    "BalancedCutMove",
    "BalcutError",
    "CertifiedSubset",
    "Cut",
    "DecompositionResult",
    "ESTree",
    "FlowInstance",
    "MultiGraph",
    "NoBalancedSparseCutCertificate",
    "PairFamily",
    "PairRouting",
    "PartialRouting",
    "Preflow",
    "ReducedGraph",
    "Witness",
    "WitnessResult",
    "bal_cut_prune",
    "ball_grow_cut",
    "bounded_push_relabel",
    "brute_force_extremum",
    "certified_floor",
    "cheeger_floor",
    "cmg_drive",
    "construct_expander",
    "cut_or_certify",
    "cut_stats",
    "decompose_preflow",
    "expander_decomposition",
    "expander_prune",
    "expander_sparsity_floor",
    "extract_expander",
    "gabber_galil",
    "greedy_pack_round",
    "induced_subgraph",
    "is_connected",
    "iterations_final_cut",
    "lambda2_normalized",
    "lowest_conductance_cut",
    "make_canonical",
    "partition_into_matchings",
    "project_cut",
    "reduce_degree",
    "route_or_cut",
    "route_or_cut_1pair",
    "sparse_cut_or_expander",
    "sparsest_cut",
    "walk_potential",
]
