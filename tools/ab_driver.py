"""Time one balcut driver call from two source trees, interleaved in one process.

    python tools/ab_driver.py BASE_CHECKOUT NEW_CHECKOUT \
        --workload decompose_planted --seed 1 --pairs 40

Each checkout's ``src/balcut`` is imported under its own package name
(``balcut_base`` and ``balcut_new``), so both live in one interpreter.
Each tree builds the workload's input with its own generators, then the
pairs run: pair i times one op of each tree, the base first on even i and
the new tree first on odd i.  Before every op the package's memoised
functions are cleared and the garbage collector runs, as ``perfbench``
does.  Timing both trees in one process, in alternating order, cancels
most of the drift between separate processes on a shared host.

The inputs are ``perfbench``'s: ``decompose_planted`` (four 1000-vertex
planted expanders, ``expander_decomposition`` at eps = 1/2, r = 2),
``sparsest_planted`` (two 200-vertex expanders, ``sparsest_cut`` at
r = 1) and ``certify_expander`` (``construct_expander(40000)`` relabelled
by the seed, ``bal_cut_prune`` at phi = 1/64, r = 1).  The ops' outputs
must be equal between the trees, or the tool stops.

It prints, per tree, the median and quartiles of the op's seconds and the
median minor page faults per op, then how many pairs the new tree won and
the ratio of the medians.  Pass ``--samples`` to also print every pair.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib.util
import os
import random
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # perfbench's single BLAS thread

import numpy as np  # noqa: E402


def load_tree(checkout: Path, name: str):
    """Import ``checkout/src/balcut`` as the package ``name``."""
    pkg = checkout.resolve() / "src" / "balcut"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or not (pkg / "__init__.py").is_file():
        sys.exit(f"ab_driver: no balcut package under {pkg}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("driver", "generators"):
        importlib.import_module(f"{name}.{sub}")
    return module


def _decompose_planted(bc, seed):
    g, _ = bc.generators.planted_expander_union([1000] * 4, 8, [(0, 1), (1, 2), (2, 3)], seed)
    return lambda: bc.expander_decomposition(g, Fraction(1, 2), 2)


def _sparsest_planted(bc, seed):
    g, _ = bc.generators.planted_expander_union([200] * 2, 6, [(0, 1)], seed)
    return lambda: bc.sparsest_cut(g, 1)


def _certify_expander(bc, seed):
    base = bc.construct_expander(40000)
    perm = list(range(base.n))
    random.Random(seed).shuffle(perm)
    g = bc.MultiGraph(base.n, [(perm[u], perm[v]) for u, v in base.edges])
    return lambda: bc.bal_cut_prune(g, Fraction(1, 64), 1)


WORKLOADS = {
    "decompose_planted": _decompose_planted,
    "sparsest_planted": _sparsest_planted,
    "certify_expander": _certify_expander,
}


def canonical(obj):
    """A comparable form of a driver's output: sets sorted, arrays listed."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: canonical(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _caches(name: str):
    found = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == name or mod_name.startswith(name + "."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def timed_op(op, caches):
    """(seconds, minor page faults, output) of one op."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = op()
    seconds = time.perf_counter() - t0
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, out


def _summary(label, seconds, faults):
    q1, q2, q3 = statistics.quantiles(seconds, n=4)
    print(f"{label:5} median {q2 * 1e3:9.2f} ms   q1 {q1 * 1e3:9.2f}   q3 {q3 * 1e3:9.2f}"
          f"   IQR {(q3 - q1) * 1e3:7.2f} ms   minor faults/op {statistics.median(faults):9.0f}")
    return q2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="checkout of the base tree")
    p.add_argument("new", type=Path, help="checkout of the changed tree")
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="decompose_planted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=40)
    p.add_argument("--samples", action="store_true", help="print every pair")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    trees = []
    for label, checkout in (("base", args.base), ("new", args.new)):
        name = f"balcut_{label}"
        bc = load_tree(checkout, name)
        trees.append((label, WORKLOADS[args.workload](bc, args.seed), _caches(name)))
    # One untimed op per tree warms the allocator and checks equal outputs.
    outs = [canonical(timed_op(op, caches)[2]) for _, op, caches in trees]
    if outs[0] != outs[1]:
        sys.exit("ab_driver: the two trees' outputs differ")

    seconds = {"base": [], "new": []}
    faults = {"base": [], "new": []}
    for i in range(args.pairs):
        for label, op, caches in (trees if i % 2 == 0 else trees[::-1]):
            s, f, _ = timed_op(op, caches)
            seconds[label].append(s)
            faults[label].append(f)
        if args.samples:
            print(f"pair {i:3}  base {seconds['base'][-1] * 1e3:9.2f} ms"
                  f"  new {seconds['new'][-1] * 1e3:9.2f} ms")
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs")
    base = _summary("base", seconds["base"], faults["base"])
    new = _summary("new", seconds["new"], faults["new"])
    wins = sum(b > n for b, n in zip(seconds["base"], seconds["new"]))
    print(f"new won {wins}/{args.pairs} pairs; median ratio new/base {new / base:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
