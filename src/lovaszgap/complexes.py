"""Neighborhood complexes and facet-wise simplicial complexes.

Complexes are stored by their maximal faces only; nothing here enumerates
a lower face.  The homology pass (see ``homology``) counts the faces, and
certifies conn = 0 from the vertices and edges plus the fan triangles
{min F, a, b} of each facet F, which stays polynomial even when the full
closure would be exponential (one side of the biclique complex alone has
2^m - 1 faces).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, ParameterError
from .graphs import Graph

Face = tuple[int, ...]


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex given by its facets (an antichain of
    sorted vertex tuples).  ``num_vertices`` sizes the ground set; unused
    ids are allowed and contribute nothing."""

    num_vertices: int
    facets: tuple[Face, ...]

    @staticmethod
    def from_faces(num_vertices: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Build from arbitrary faces: dedupe, drop empties, keep only the
        inclusion-maximal ones."""
        cleaned: set[Face] = set()
        for face in faces:
            tface = tuple(sorted(set(face)))
            if not tface:
                continue
            if tface[0] < 0 or tface[-1] >= num_vertices:
                raise ParameterError(
                    f"face {tface} out of range for ground set 0..{num_vertices - 1}"
                )
            cleaned.add(tface)
        by_size = sorted(cleaned, key=len, reverse=True)
        maximal: list[Face] = []
        maximal_sets: list[frozenset[int]] = []
        for face in by_size:
            fs = frozenset(face)
            if not any(fs <= other for other in maximal_sets):
                maximal.append(face)
                maximal_sets.append(fs)
        return SimplicialComplex(num_vertices, tuple(sorted(maximal)))

    @property
    def dim(self) -> int:
        """Dimension of the complex; -1 when empty."""
        return max((len(f) for f in self.facets), default=0) - 1

    def is_empty(self) -> bool:
        return not self.facets


def neighborhood_complex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are the vertex sets with a common neighbor; its
    facets are the maximal neighbor sets.  Isolated vertices contribute
    nothing.  N(v) within N(w) makes w adjacent to every neighbor of v, so
    the only candidates w are the neighbors of v's least-degree neighbor."""
    adj = g.adj
    degree = [len(nv) for nv in adj]
    facets: set[Face] = set()
    for nv in filter(None, adj):
        least = min(nv, key=degree.__getitem__)
        if not any(nv < adj[w] for w in adj[least]):
            facets.add(tuple(sorted(nv)))
    return SimplicialComplex(g.n, tuple(sorted(facets)))


# ---------------------------------------------------------------------------
# facet-list text format: one face per line, 0-based ids, '#' comments


def parse_faces(lines, source: str = "<input>") -> SimplicialComplex:
    faces: list[list[int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            ids = [int(tok) for tok in line.split()]
        except ValueError:
            raise InputError(f"{source}:{lineno}: non-integer vertex id in {line!r}")
        if any(v < 0 for v in ids):
            raise InputError(f"{source}:{lineno}: negative vertex id")
        faces.append(ids)
    n = 1 + max((max(f) for f in faces if f), default=-1)
    return SimplicialComplex.from_faces(n, faces)


def read_facets(path: str) -> SimplicialComplex:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return parse_faces(handle, source=path)
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text ({exc.reason})") from None


def format_facets(c: SimplicialComplex) -> str:
    lines = [" ".join(str(v) for v in face) for face in sorted(c.facets)]
    return "\n".join(lines) + ("\n" if lines else "")

