"""Neighborhood complexes and facet-wise simplicial complexes.

Complexes are stored by their maximal faces only.  ``face_counts`` counts
the lower faces of dimension 2 and up against a face budget, for the
homology pass; the vertices and edges are counted by the pass's walk over
the 1-skeleton (``homology.skeleton_components``), which holds no edge but
the spanning forest's.  Certifying conn = 0 needs the vertices and edges
plus the fan triangles {min F, a, b} of each facet F (see ``homology``),
which stays polynomial even when the full closure would be exponential
(one side of the biclique complex alone has 2^m - 1 faces).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterable

from .errors import BudgetExceededError, InputError, ParameterError
from .graphs import Graph

DEFAULT_FACE_BUDGET = 10_000_000

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
    nothing."""
    return SimplicialComplex.from_faces(
        g.n, (sorted(g.adj[v]) for v in range(g.n) if g.adj[v])
    )


def face_counts(c: SimplicialComplex, d: int, used: int, limit: int) -> list[int]:
    """The number of distinct faces of each dimension 2..min(d, c.dim); no
    dimension above the complex's own is enumerated.  Vertices and edges are
    not counted here: the walk over the 1-skeleton counts them without
    holding them.  Aborts with a size-guard error naming the offending
    dimension once ``used`` plus the faces counted pass ``limit``.

    A dimension's faces are held as one set until counted, added one
    (facet, size) batch at a time, and the budget is checked once per batch:
    before it, when this facet's C(|F|, size) faces alone would take the
    count past ``limit``, and after it.  The dimension named is the one a
    face-by-face count would cross in, since every earlier batch stayed
    within the budget and this one ends past it.  No batch enumerates more
    than ``limit`` faces, so at worst twice the budget is held."""
    counts: list[int] = []
    for size in range(3, min(d, c.dim) + 2):
        level: set[Face] = set()
        for facet in c.facets:
            if used + comb(len(facet), size) > limit:
                raise BudgetExceededError(dimension=size - 1, limit=limit)
            level.update(itertools.combinations(facet, size))
            if used + len(level) > limit:
                raise BudgetExceededError(dimension=size - 1, limit=limit)
        counts.append(len(level))
        used += len(level)
    return counts


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

