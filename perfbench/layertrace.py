"""Outside-in tracing of balcut's layers.

The tracer wraps public functions of each layer module in place: every
module attribute that is bound to a traced function, in every balcut
module and in the benchmark's own modules, is pointed at one wrapper, so
``from .graph import induced_subgraph`` sites are covered too.  Methods
(``MultiGraph.__init__``, ``ESTree.__init__``) are wrapped on their class.

Each wrapped call records a span (name, start, end, parent, op id) in
memory and adds its self time, the span's duration minus the time covered
by its child spans.  Hooks read counters off the arguments and results at
the same boundary.  ``uninstall`` restores every original binding, so
traced and untraced ops can alternate in one process.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

DETAILS = ("trivial", "oracle", "cheeger", "cheeger-gap", "fallback-measured", "extracted")


def _graph_init(t, args, out):
    t.counts["graph.MultiGraph.__init__.edges"] += len(args[0].edges)


def _push_relabel(t, args, out):
    name = "localflow.bounded_push_relabel"
    t.counts[name + ".source_mass"] += sum(args[0].source)
    t.counts[name + ".excess"] += out[1]
    t.counts[name + ".cuts"] += out[2] is not None
    if t.active["pruning.expander_prune"]:
        t.counts["pruning.expander_prune.trim_rounds"] += 1


def _route_1pair(t, args, out):
    t.counts["localflow.route_or_cut_1pair.cuts"] += not hasattr(out, "matching")


def _lambda2(t, args, out):
    t.counts["spectral.lambda2_normalized.vertices"] += args[0].n


def _prune(t, args, out):
    t.counts["pruning.expander_prune.pruned_vertices"] += len(out[1])


def _cmg_drive(t, args, out):
    witness = getattr(out, "witness", None)
    if witness is not None:
        t.counts["cutmatch.cmg_drive.fake_edges"] += len(witness.fake_edges)


def _cut_or_certify(t, args, out):
    name = "cutmatch.cut_or_certify"
    if t.active["cutmatch.cmg_drive"]:
        t.counts["cutmatch.cmg_drive.rounds"] += 1
    detail = getattr(out, "detail", None)
    if detail is None:
        t.counts[name + ".moves"] += 1
    else:
        t.counts[f"{name}.detail.{detail if detail in DETAILS else 'other'}"] += 1


def _iterations(t, args, out):
    t.counts["driver.iterations_final_cut.witnesses"] += hasattr(out, "witness")


#: (span name, module, attribute, counter hook).  Span names are
#: ``<module>.<function>``; a dotted attribute is a method on a class.
TARGETS = [
    ("graph.MultiGraph.__init__", "balcut.graph", "MultiGraph.__init__", _graph_init),
    ("graph.connected_components", "balcut.graph", "connected_components", None),
    ("graph.induced_subgraph", "balcut.graph", "induced_subgraph", None),
    ("graph.cut_stats", "balcut.graph", "cut_stats", None),
    ("graph.cut_edge_count", "balcut.graph", "cut_edge_count", None),
    ("graph.brute_force_extremum", "balcut.graph", "brute_force_extremum", None),
    ("localflow.bounded_push_relabel", "balcut.localflow", "bounded_push_relabel", _push_relabel),
    ("localflow.route_or_cut_1pair", "balcut.localflow", "route_or_cut_1pair", _route_1pair),
    ("localflow.decompose_preflow", "balcut.localflow", "decompose_preflow", None),
    ("spectral.lambda2_normalized", "balcut.spectral", "lambda2_normalized", _lambda2),
    ("spectral.adjacency_matrix", "balcut.spectral", "adjacency_matrix", None),
    ("pruning.expander_prune", "balcut.pruning", "expander_prune", _prune),
    ("reduce.reduce_degree", "balcut.reduce", "reduce_degree", None),
    ("reduce.make_canonical", "balcut.reduce", "make_canonical", None),
    ("reduce.project_cut", "balcut.reduce", "project_cut", None),
    ("expanders.construct_expander", "balcut.expanders", "construct_expander", None),
    ("routing.route_or_cut", "balcut.routing", "route_or_cut", None),
    ("estree.ESTree.__init__", "balcut.estree", "ESTree.__init__", None),
    ("cutmatch.cmg_drive", "balcut.cutmatch", "cmg_drive", _cmg_drive),
    ("cutmatch.cut_or_certify", "balcut.cutmatch", "cut_or_certify", _cut_or_certify),
    ("driver.iterations_final_cut", "balcut.driver", "iterations_final_cut", _iterations),
    ("driver.sparse_cut_or_expander", "balcut.driver", "sparse_cut_or_expander", None),
    ("driver.bal_cut_prune", "balcut.driver", "bal_cut_prune", None),
    ("driver.expander_decomposition", "balcut.driver", "expander_decomposition", None),
    ("driver.sparsest_cut", "balcut.driver", "sparsest_cut", None),
]

#: Counted quantities reported per op, besides ``<span>.calls``.
COUNTED = [
    "graph.MultiGraph.__init__.edges",
    "localflow.bounded_push_relabel.source_mass",
    "localflow.bounded_push_relabel.excess",
    "localflow.bounded_push_relabel.cuts",
    "localflow.route_or_cut_1pair.cuts",
    "spectral.lambda2_normalized.vertices",
    "pruning.expander_prune.trim_rounds",
    "pruning.expander_prune.pruned_vertices",
    "cutmatch.cmg_drive.rounds",
    "cutmatch.cmg_drive.fake_edges",
    "cutmatch.cut_or_certify.moves",
    *(f"cutmatch.cut_or_certify.detail.{d}" for d in DETAILS + ("other",)),
    "driver.iterations_final_cut.witnesses",
]


class Tracer:
    """Spans and counters of the traced ops, kept in memory."""

    def __init__(self, patch_modules: list[str]):
        self.patch_modules = patch_modules
        self.spans: list[list] = []   # [op, name, start, end, parent index]
        self.op = 0
        self.counts: Counter = Counter()
        self.self_time: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self._stack: list[list] = []  # [span index, start, child time]
        self._bindings: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []
        self._resolve()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(name)
            if hook is not None:
                hook(tracer, args, out)
            return out

        return traced

    def _resolve(self) -> None:
        """Find every binding of each target; a target that no longer
        exists is listed in ``missing`` and reports zeros."""
        modules = [importlib.import_module(m) for m in self.patch_modules]
        for name, modname, attr, hook in TARGETS:
            try:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner = getattr(owner, cls)
                    orig = owner.__dict__[meth]
                    self._bindings.append((owner, meth, orig, self._wrap(name, orig, hook)))
                    continue
                orig = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, orig, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._bindings.append((mod, key, orig, wrapper))

    def install(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._bindings:
            setattr(owner, key, orig)

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        self.counts[name + ".calls"] += 1
        self.active[name] += 1
        parent = self._stack[-1][0] if self._stack else -1
        start = perf_counter()
        self._stack.append([len(self.spans), start, 0.0])
        self.spans.append([self.op, name, start, None, parent])

    def _close(self, name: str) -> None:
        end = perf_counter()
        idx, start, child = self._stack.pop()
        self.active[name] -= 1
        self.spans[idx][3] = end
        dur = end - start
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def take_op(self) -> tuple[Counter, dict]:
        """Counters and self times of the op just traced; resets both."""
        counts, self_time = self.counts, dict(self.self_time)
        self.counts, self.self_time = Counter(), defaultdict(float)
        self.op += 1
        return counts, self_time

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def span_names() -> list[str]:
    return [name for name, *_ in TARGETS]


def package_modules(package: str) -> list[str]:
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
