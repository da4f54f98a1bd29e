"""Show that every output check of the benchmark rejects a wrong answer.

    python3 perfbench/selftest.py [--seed 0]

For each workload it solves the real input once, checks that the real
output passes, then feeds the checks deliberately wrong outputs (and, for
bounds that no partition of this input can break, the real output against
a tightened bound) and requires each to raise ``CheckFailed``.  Exits 1 if
any wrong answer passes or the real one fails.
"""

from __future__ import annotations

import argparse
import copy
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from balcut import cut_stats  # noqa: E402


def _decompose_cases(wl, inp, out):
    clusters = out.clusters
    yield "a vertex left out", replace(out, clusters=[clusters[0][1:]] + clusters[1:])
    yield "a vertex in two clusters", replace(
        out, clusters=[clusters[0] + [clusters[1][0]]] + clusters[1:])
    yield "inter-cluster count misreported", replace(
        out, inter_cluster_edges=out.inter_cluster_edges + 1)
    yield "a zero certificate", replace(out, certificates=[Fraction(0)] + out.certificates[1:])
    big = max(clusters, key=len)
    half = len(big) // 2
    split = [c for c in clusters if c is not big] + [big[:half], big[half:]]
    label = np.empty(inp.g.n, dtype=np.int64)
    for ci, c in enumerate(split):
        label[c] = ci
    yield "a planted block split (recovery below 0.95)", replace(
        out, clusters=split, certificates=out.certificates + [Fraction(1)],
        inter_cluster_edges=W._crossing(inp.edges, label))
    tight = copy.copy(wl)
    tight.eps = Fraction(1, 10**6)
    yield ("inter-cluster edges above eps*Vol (eps tightened to 1e-6)", out, tight)


def _sparsest_cases(wl, inp, out):
    yield "sparsity misreported", replace(out, value=out.value / 2)
    yield "floor above the value", replace(out, floor=out.value * 2)
    yield "a zero floor", replace(out, floor=Fraction(0))
    single = cut_stats(inp.g, {0})
    yield "a cut worse than the planted one", replace(out, cut=single, value=single.sparsity)
    yield "a vertex outside V", replace(
        out, cut=replace(out.cut, side=frozenset(out.cut.side) | {inp.g.n}))


def _prune_cases(wl, inp, out):
    n = inp.g.n
    (a, b), rest = out[0], out[1:]
    v = next(iter(a))
    yield "a vertex on both sides", [(a, b | {v})] + rest
    yield "a vertex on neither side", [(a - {v}, b)] + rest
    rng = np.random.default_rng(0)
    scattered = frozenset(int(x) for x in rng.choice(n, 500, replace=False))
    yield "boundary above 4k", [(frozenset(range(n)) - scattered, scattered)] + rest
    other = frozenset(wl._ball(inp.g, next(iter(out[1][1]))))
    yield "Vol(B) above 8k/phi", [(other, frozenset(range(n)) - other)] + rest


def _certify_cases(wl, inp, out, ref):
    v = next(iter(out.a_side))
    yield "a vertex left out", replace(out, a_side=out.a_side - {v})
    yield "cut edges misreported", replace(out, cut_edges=out.cut_edges + 1)
    yield "no certificate", replace(out, branch="balanced", certified_phi=None)
    yield "certificate below phi", replace(out, certified_phi=wl.phi / 2)
    yield "certificate above lambda2/2", replace(
        out, certified_phi=Fraction(ref / 2) * Fraction(1001, 1000))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    bad = 0
    for wl in W.WORKLOADS.values():
        inp = wl.setup(args.seed)
        ref = wl.reference(inp)
        out = wl.solve(inp)
        try:
            wl.check(inp, ref, out)
            print(f"ok       {wl.name}: the real output passes")
        except W.CheckFailed as exc:
            print(f"FAILED   {wl.name}: the real output is rejected: {exc}")
            bad += 1
        if wl.name == "certify_expander":
            cases = _certify_cases(wl, inp, out, ref)
        else:
            cases = {"decompose_planted": _decompose_cases, "sparsest_planted": _sparsest_cases,
                     "prune_batches": _prune_cases}[wl.name](wl, inp, out)
        for case in cases:
            what, wrong, checker = (case + (wl,))[:3]
            try:
                checker.check(inp, ref, wrong)
            except W.CheckFailed as exc:
                print(f"rejected {wl.name}: {what}: {exc}")
            else:
                print(f"FAILED   {wl.name}: {what}: accepted")
                bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
