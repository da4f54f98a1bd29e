"""Print digests of balcut's outputs on a fixed corpus, as sorted JSON.

    python tools/output_digests.py > digests.json

Run it on two checkouts and diff the two files: a change that keeps every
output byte-identical prints the same JSON.  The corpus is

- the digest of each ``perfbench`` workload's op at seeds 1 and 11, read
  from ``perfbench/workloads.py``;
- the decomposition of ``decompose_planted``'s graph with its vertices
  relabelled by ``numpy.random.default_rng(s).permutation``, s = 1 and 11;
- the report and partition of the ``balcut`` (phi = 1/4 and 1/16),
  ``decompose``, ``sparsest``, ``lowcond`` and ``certify --diagnostics``
  commands at r = 1 and 2 on six small graphs;
- the ``prune``, ``gen`` and ``verify`` commands of the acceptance suite's
  determinism check.

It imports balcut from this checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

from balcut import MultiGraph, construct_expander, expander_decomposition  # noqa: E402
from balcut.cli import dispatch  # noqa: E402
from balcut.fileio import write_graph  # noqa: E402
from balcut.generators import (  # noqa: E402
    barbell_graph,
    complete_graph,
    cycle_graph,
    planted_expander_union,
)

import workloads  # noqa: E402

SEEDS = (1, 11)
GRAPHS = {
    "barbell6": lambda: barbell_graph(6, 2),
    "k6": lambda: complete_graph(6),
    "c200": lambda: cycle_graph(200),
    "planted60x3": lambda: planted_expander_union([60] * 3, 6, [(0, 1), (1, 2)], 1)[0],
    "expander17": lambda: construct_expander(17),
    "expander40": lambda: construct_expander(40),
}
COMMANDS = {
    "balcut-1/4": ["balcut", "--phi", "1/4"],
    "balcut-1/16": ["balcut", "--phi", "1/16"],
    "decompose": ["decompose", "--eps", "1/2"],
    "sparsest": ["sparsest"],
    "lowcond": ["lowcond"],
    "certify": ["certify", "--diagnostics"],
}


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _run(argv: list[str], tmp: Path) -> str:
    """Digest of a command's report and partition files, or of its stdout."""
    rep, part = tmp / "report.json", tmp / "partition.txt"
    for f in (rep, part):
        f.unlink(missing_ok=True)
    if argv[0] not in ("gen", "verify"):
        argv = argv + ["--out-report", str(rep), "--out-partition", str(part)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = dispatch(argv)
    blob = out.getvalue().encode()
    for f in (rep, part):
        if f.exists():
            blob += f.read_bytes()
    return f"{status}:{_sha(blob)}"


def _write(g: MultiGraph, path: Path) -> str:
    with open(path, "w") as fh:
        write_graph(g, fh)
    return str(path)


def perfbench_digests() -> dict:
    out = {}
    for name, w in workloads.WORKLOADS.items():
        for seed in SEEDS:
            out[f"perfbench/{name}/{seed}"] = w.digest(w.solve(w.setup(seed)))
    return out


def permuted_decomposition_digests() -> dict:
    w = workloads.WORKLOADS["decompose_planted"]
    out = {}
    for seed in SEEDS:
        g, _ = planted_expander_union(w.blocks, w.degree, w.bridges, seed)
        perm = np.random.default_rng(seed).permutation(g.n)
        h = MultiGraph(g.n, np.column_stack([perm[g.eu], perm[g.ev]]).tolist())
        out[f"permuted_decompose/{seed}"] = w.digest(
            expander_decomposition(h, w.eps, w.r))
    return out


def cli_digests(tmp: Path) -> dict:
    out = {}
    for gname, make in GRAPHS.items():
        path = _write(make(), tmp / f"{gname}.txt")
        for cname, argv in COMMANDS.items():
            for r in (1, 2):
                out[f"cli/{gname}/{cname}/r{r}"] = _run(argv + ["--r", str(r), path], tmp)
    k6 = _write(complete_graph(6), tmp / "ac9_k6.txt")
    dels = tmp / "dels.txt"
    dels.write_text("0\n")
    cut = tmp / "cut.txt"
    cut.write_text("".join(f"{v} {int(v >= 3)}\n" for v in range(6)))
    out["cli/ac9/prune"] = _run(["prune", "--phi", "1/2", "--deleted", str(dels), k6], tmp)
    out["cli/ac9/gen"] = _run(["gen", "gabber-galil", "--k", "4"], tmp)
    out["cli/ac9/verify"] = _run(["verify", "--oracle", "sparsest", k6, str(cut)], tmp)
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**perfbench_digests(), **permuted_decomposition_digests(),
                   **cli_digests(Path(tmp))}
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
