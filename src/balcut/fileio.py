"""Graph, partition and report file formats.

Graph files: an optional header line ``p <n> <m>``, then one edge per line
``u v`` with 0-based vertex ids; ``#`` starts a comment, blank lines are
ignored.  Parallel edges are kept verbatim.  Partition files: one line per
vertex, ``v cluster_id``, sorted by vertex.  Deletion files: one deleted
edge per line, as an edge id or as ``u v``.  Reports are JSON with sorted
keys; fractions are serialized as ``"p/q"`` strings so round-trips are
exact and byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Iterable

from .errors import ParseError, RangeError
from .graph import MultiGraph


def parse_graph(stream: IO[str], allow_self_loops: bool = False) -> MultiGraph:
    """Parse the edge-list format; raises ParseError with a line number."""
    declared_n = None
    declared_m = None
    edges: list[tuple[int, int]] = []
    max_seen = -1
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if declared_n is not None or edges:
                raise ParseError(f"line {lineno}: duplicate or late header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: header must be 'p <n> <m>'")
            try:
                declared_n, declared_m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer header fields")
            if declared_n < 0 or declared_m < 0:
                raise ParseError(f"line {lineno}: negative header fields")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer endpoint in {line!r}")
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex id")
        if u == v and not allow_self_loops:
            raise ParseError(
                f"line {lineno}: self-loop {u} (pass --allow-self-loops to keep)"
            )
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise RangeError(
                f"line {lineno}: vertex id beyond declared n={declared_n}"
            )
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    if declared_m is not None and declared_m != len(edges):
        raise ParseError(
            f"header declared m={declared_m} but {len(edges)} edges were read"
        )
    n = declared_n if declared_n is not None else max_seen + 1
    return MultiGraph(max(n, 0), edges)


def write_graph(g: MultiGraph, stream: IO[str]) -> None:
    stream.write(f"p {g.n} {g.m}\n")
    for u, v in g.edges:
        stream.write(f"{u} {v}\n")


def write_partition(labels: Iterable[int], stream: IO[str]) -> None:
    """One ``v cluster_id`` line per vertex, ascending vertex order."""
    for v, c in enumerate(labels):
        stream.write(f"{v} {c}\n")


def parse_partition(stream: IO[str], n: int) -> list[int]:
    labels = [-1] * n
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'v cluster'")
        try:
            v, c = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field")
        if not (0 <= v < n):
            raise RangeError(f"line {lineno}: vertex {v} out of range")
        labels[v] = c
    if any(c < 0 for c in labels):
        raise ParseError("partition does not cover every vertex")
    return labels


def parse_deleted(stream: IO[str], g: MultiGraph) -> list[int]:
    """Edge ids of the deletion-file lines.  A line ``u v`` names the
    lowest-id copy of that edge of ``g`` that no earlier line named, by
    id or by endpoints.  Ids outside ``g`` and repeated ids are passed
    through for the caller to reject."""
    pair_ids: dict[tuple[int, ...], list[int]] = {}
    edges = g.edges
    for eid, (u, v) in enumerate(edges):
        pair_ids.setdefault((min(u, v), max(u, v)), []).append(eid)
    out: list[int] = []
    for lineno, raw in enumerate(stream, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) > 2:
            raise ParseError(f"line {lineno}: expected 'eid' or 'u v'")
        try:
            fields = [int(x) for x in parts]
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer field")
        key = tuple(sorted(fields))
        if len(key) == 1:
            eid = key[0]
            if 0 <= eid < len(edges):
                ids = pair_ids[tuple(sorted(edges[eid]))]
                if eid in ids:
                    ids.remove(eid)
            out.append(eid)
        elif pair_ids.get(key):
            out.append(pair_ids[key].pop(0))
        else:
            raise ParseError(f"line {lineno}: no remaining edge {key}")
    return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_report(report: dict, stream: IO[str]) -> None:
    """Deterministic JSON: sorted keys, exact fraction strings."""
    json.dump(_jsonable(report), stream, sort_keys=True, indent=2)
    stream.write("\n")
