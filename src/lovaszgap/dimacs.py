"""DIMACS .col graph files.

Format: optional ``c`` comment lines, one ``p edge <n> <m>`` header, then
``e <u> <v>`` lines with 1-based vertex ids.  ``format_graph`` emits edges
with u < v in lexicographic order.  Duplicate edges in inputs are tolerated
and deduplicated with a warning, since published instances contain them.
"""

from __future__ import annotations

import logging

from .errors import InputError
from .graphs import Graph

log = logging.getLogger(__name__)


def parse_graph(lines, source: str = "<input>") -> Graph:
    n = -1
    declared_m = -1
    edges: set[tuple[int, int]] = set()
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n != -1:
                raise InputError(f"{source}:{lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise InputError(f"{source}:{lineno}: malformed header {line!r}")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise InputError(f"{source}:{lineno}: non-integer header fields")
            if n < 0 or declared_m < 0:
                raise InputError(f"{source}:{lineno}: negative sizes in header")
        elif parts[0] == "e":
            if n == -1:
                raise InputError(f"{source}:{lineno}: edge before problem line")
            if len(parts) != 3:
                raise InputError(f"{source}:{lineno}: malformed edge line {line!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise InputError(f"{source}:{lineno}: non-integer vertex id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InputError(
                    f"{source}:{lineno}: vertex out of range 1..{n} in {line!r}"
                )
            if u == v:
                raise InputError(f"{source}:{lineno}: loop at vertex {u}")
            edge = (min(u, v) - 1, max(u, v) - 1)
            if edge in edges:
                duplicates += 1
            edges.add(edge)
        else:
            raise InputError(f"{source}:{lineno}: unrecognized line {line!r}")
    if n == -1:
        raise InputError(f"{source}: missing problem line")
    if duplicates:
        log.warning("%s: %d duplicate edge(s) removed", source, duplicates)
    if declared_m != len(edges) + duplicates:
        log.warning(
            "%s: header declares %d edges, file contains %d",
            source,
            declared_m,
            len(edges) + duplicates,
        )
    return Graph.from_edges(n, edges)


def read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_graph(handle, source=path)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def format_graph(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
