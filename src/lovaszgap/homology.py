"""Integer boundary operators, reduced homology, and connectivity
certificates.

All homology here is reduced: a c-component complex has betti c-1 in
degree 0, so "connectivity -1 iff nonempty with H~0 = 0" lines up with the
sphere-extension convention.  Degree-1 homology doubles as a sound
certificate that the space's connectivity is exactly 0: path-connectedness
plus H_1 != 0 forces a nontrivial loop, while nothing here ever claims the
converse for higher degrees (homological connectivity can overshoot the
homotopical one, and reports are flagged accordingly).
``homology_pass`` derives all of it from one walk over the 1-skeleton,
which counts the vertices and edges and gives a spanning forest without
holding the vertex or edge set; from one walk over the faces above
dimension 1 by their least vertex (``least_vertex_faces``), which counts
the faces of dimensions 2..cap a vertex at a time and yields the fan
faces; and from one streamed elimination per boundary, the empty complex
included.  ``homology_profile`` is a view of it, and this module alone
enumerates faces and keeps the face budget.

Boundaries of degree 2 and up are taken over fan columns, never over every
face of their degree.  Within a facet F, dd = 0 on {min F} + tau writes the
boundary of any face tau avoiding min F as an integer sum of boundaries of
faces containing min F, so those fan faces span the same column lattice:
rank and invariant factors are those of the full boundary, and of
dimension max(cap, 1) + 1 only the fan faces are enumerated.  No boundary
is built as a matrix either: a face v_0 < ... < v_j is coded as the int
with those base-n digits, n the size of the ground set, and each fan
face's boundary arrives, as the codes of its faces with their signs, in
an ``snf.Elimination`` as the walk finds it, one (vertex, facet, size)
batch at a time, a triangle's coded straight from its vertices; only the
codes of fan faces above degree 2 are kept until their degree's turn.
The arrival is decided here, against the elimination's dead rows, and no
column is built: every boundary entry is +-1, so a fan face whose rows
are all dead is skipped, one with a single live row is peeled on it, and
only one with two live rows or more is filed, as its live entries with
their signs in the order of its face's vertices, straight into the
elimination's row and column index.  These are the decisions and the
filing of ``Elimination.add``, in the same order, so the result is that
of streaming every column whole (``snf.eliminate``), pivots and their
order included; a triangle {a, u, v} is read on its rows au and av
first, the ones the forest and the earlier peels at a tend to kill, then
on uv, and each row of a higher face is decoded once.

Each boundary is also cleared of the rows that the one below it already
accounts for (the "clearing" of persistent homology, carried over to the
integer SNF), by handing those rows to the elimination as peeled before
its first column.  Let P be a set of i-faces whose boundaries are
independent and span B_{i-1} = im boundary_i over Z.  Then each i-chain x
on the other faces has exactly one chain y on P with x - y a cycle, so
deleting the coordinates of P maps the cycles Z_i isomorphically onto the
free group on the other i-faces.  It maps B_i onto the image of
boundary_{i+1} with the rows of P deleted, so that smaller matrix has the
same rank and the same invariant factors (Z_i / B_i is the same group).
In degree 1, P is the edges of a spanning forest of the 1-skeleton.  Above
it, P is the pivot columns of boundary_i's elimination when every pivot
there was a +-1 pivot (``SnfResult.pivots``): their images are
independent, every other fan column reduced to zero against them, and the
fan columns span B_{i-1}.  A boundary without columns has P empty.  When
the elimination of boundary_i took any Euclid step (its unit pivots ran
out before its rows did), nothing is cleared from boundary_{i+1}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import filterfalse
from math import comb
from typing import Iterator, Sequence

from .complexes import Face, SimplicialComplex
from .errors import BudgetExceededError, ParameterError
from .snf import Elimination, SnfResult, torsion_factors

DEFAULT_FACE_BUDGET = 10_000_000  # faces a pass may hold

EMPTY_SENTINEL = -2  # "connectivity" of the empty complex

FLAG_EMPTY = "empty"
FLAG_NO_CERTIFICATE = "no-certificate"
FLAG_HOMOLOGICAL_ONLY = "homological-only"


@dataclass(frozen=True)
class HomologyGroup:
    """Reduced integral homology in one degree: free rank plus torsion
    coefficients in divisibility order."""

    dimension: int
    betti: int
    torsion: tuple[int, ...]

    def is_trivial(self) -> bool:
        return self.betti == 0 and not self.torsion

    def __add__(self, other: "HomologyGroup") -> "HomologyGroup":
        """The direct sum in one degree: Betti numbers add, and the torsion
        is the invariant factors of both torsion parts together."""
        if other.dimension != self.dimension:
            raise ValueError(f"degrees {self.dimension} and {other.dimension} differ")
        torsion = torsion_factors(self.torsion + other.torsion)
        return HomologyGroup(self.dimension, self.betti + other.betti, torsion)


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Machine-checkable evidence about conn of a complex's realization.

    ``certified_conn_zero`` is sound: nonempty + path-connected + H_1 != 0
    pins the connectivity to exactly 0.  ``homological_connectivity`` is
    reported even when certification fails; the value is exact for -2, -1
    and 0 and only a homological estimate above that (flagged)."""

    nonempty: bool
    connected: bool
    h1: HomologyGroup
    certified_conn_zero: bool
    homological_connectivity: int | str
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class HomologyPass:
    """Reduced homology in degrees 0..cap, the conn = 0 certificate, and the
    homological connectivity through cap, from one pass over a complex."""

    profile: tuple[HomologyGroup, ...]
    certificate: ConnectivityCertificate
    homological_connectivity: int | str


def least_vertex_faces(
    filed: dict[int, list[Face]], sizes: Sequence[int], used: int, limit: int
) -> Iterator[tuple[int, int, list[Face]]]:
    """(j, v, taus) for the j-faces {v} + tau, tau a j-subset of the
    vertices above v in a facet filed under v, for each j of the ascending
    ``sizes``, each face once: one batch per (vertex, facet, j), in the
    order of ``filed``, then of its lists, then of ``sizes``, its taus in
    ``itertools.combinations`` order less those yielded before.  Each face's
    least vertex is v, so one set of taus per vertex finds the repeats, and
    the walk holds one vertex's taus at a time.  The caller's filing decides
    which faces come out: filed under each of their vertices, the facets
    give every face of the dimensions ``sizes``; filed under their least
    vertex, only the fan faces {min F} + tau.

    The faces count against ``limit`` on top of the ``used`` faces already
    held, checked once per batch: before it, when the C(r, j) j-subsets of
    the facet's r vertices above v, less the taus v has yielded, would take
    the count past ``limit``, and after it; so the dimension named is the
    one a face-by-face count would cross in.  No batch enumerates more than
    ``limit`` taus, so at worst twice the budget is held."""
    total = used
    for v, facets in filed.items():
        taus: set[Face] = set()
        for facet in facets:
            above = facet.index(v) + 1
            if len(facet) - above < sizes[0]:
                continue
            rest = facet[above:]
            for j in sizes:
                if j > len(rest):
                    break
                if total - len(taus) + comb(len(rest), j) > limit:
                    raise BudgetExceededError(dimension=j, limit=limit)
                combos = itertools.combinations(rest, j)
                # until v has yielded a tau, there is nothing to filter out
                batch = list(filterfalse(taus.__contains__, combos) if taus else combos)
                taus.update(batch)
                total += len(batch)
                if total > limit:
                    raise BudgetExceededError(dimension=j, limit=limit)
                yield j, v, batch


def skeleton_components(
    holding: dict[int, list[Face]], dim: int, limit: int = DEFAULT_FACE_BUDGET
) -> tuple[int, int, list[tuple[int, int]]]:
    """The vertex and edge counts of the 1-skeleton of a complex of
    dimension ``dim`` whose vertices ``holding`` maps to the facets that
    hold them, and the edges (u, v), u < v, of a spanning forest of it, from
    one depth-first walk that takes the vertices, and each vertex's
    neighbours, in increasing order; so the skeleton has #vertices -
    len(forest) components (isolated complex vertices included).  A
    vertex's neighbours are the union of its facets, less itself, formed
    when the walk reaches it and dropped after: the edges are half the
    degree sum, and the forest's are the only edge tuples built.  The
    vertices are dict keys, since facet files may name them by arbitrary
    ids.  The budget counts the vertices, then the edges, as a face-by-face
    count would: dimension 0 when the vertices alone pass ``limit``, else
    dimension 1 as soon as the largest facet's C(dim + 1, 2) edges, or half
    the degrees walked so far, leave no room; so a giant facet fails before
    any neighbourhood is formed."""
    if len(holding) > limit:
        raise BudgetExceededError(dimension=0, limit=limit)
    room = 2 * (limit - len(holding))  # the degree sum that still fits
    if 2 * comb(dim + 1, 2) > room:
        raise BudgetExceededError(dimension=1, limit=limit)
    degrees = 0
    seen: set[int] = set()
    forest: list[tuple[int, int]] = []
    for start in sorted(holding):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            neighbours = set().union(*holding[v])
            degrees += len(neighbours) - 1
            if degrees > room:
                raise BudgetExceededError(dimension=1, limit=limit)
            for u in sorted(neighbours - seen):
                seen.add(u)
                forest.append((u, v) if u < v else (v, u))
                stack.append(u)
    return len(holding), degrees // 2, forest


# the certificate's flags by its connectivity: connected with trivial H_1
# means every reduced group vanishes through degree 1, so conn >= 1
# homologically and is homotopically unknown
_CERTIFICATE_FLAGS = {
    EMPTY_SENTINEL: (FLAG_EMPTY,),
    -1: (FLAG_NO_CERTIFICATE,),
    0: (),
    ">=1": (FLAG_NO_CERTIFICATE, FLAG_HOMOLOGICAL_ONLY),
}


def _connectivity(groups: tuple[HomologyGroup, ...], nonempty: bool) -> int | str:
    """Homological connectivity from reduced homology in degrees 0..k:
    EMPTY_SENTINEL for the empty complex, else one below the first
    nontrivial degree, else ">=k"."""
    if not nonempty:
        return EMPTY_SENTINEL
    for g in groups:
        if not g.is_trivial():
            return g.dimension - 1
    return f">={groups[-1].dimension}"


def homology_pass(
    c: SimplicialComplex, cap: int, limit: int = DEFAULT_FACE_BUDGET
) -> HomologyPass:
    """Reduced homology in degrees 0..cap, the conn = 0 certificate and the
    homological connectivity, from the faces through dimension max(cap, 1),
    which are only counted.  The facets are filed once, sorted, under each
    of their vertices and under their least vertex.  The vertices and edges
    are counted by the walk over the 1-skeleton (``skeleton_components``),
    which gives its spanning forest and holds neither; each dimension j =
    2..cap is counted by summing the batches of ``least_vertex_faces`` over
    each vertex's facets, only as far as the complex's own dimension, since
    every degree above has no face.

    betti_i = #(i-faces) - rank(boundary_i) - rank(boundary_{i+1}), with the
    augmentation map standing in for the degree-0 boundary; torsion in
    degree i comes from the invariant factors of boundary_{i+1}.  A
    spanning forest of the 1-skeleton gives the number of its components,
    hence connectedness, and the degree-1 SNF: that boundary is the
    incidence matrix of a graph, which is totally unimodular, so its rank
    is the forest's edge count and every invariant factor is 1.
    Boundaries 2..max(cap, 1) + 1 are taken on fan columns, the batches of
    ``least_vertex_faces`` over the facets filed under their least vertex
    (counted against ``limit`` after those faces, one check per batch),
    each column the boundary of a face code over the codes of its faces,
    decided against the elimination's dead rows as its rows are read (see
    the module docstring): skipped, peeled, or filed as its live entries;
    ``Elimination.add`` is never called.  The fan
    2-faces arrive during the walk over the facets, their boundaries coded
    from their vertices, the higher ones, kept as codes, once the degree
    below is done.  Each elimination is cleared first: boundary_2
    loses the rows of a spanning forest of the 1-skeleton, and
    boundary_{i+1} the rows of boundary_i's pivot columns whenever that
    elimination finished on +-1 pivots alone; after any Euclid step nothing
    is cleared.
    The certificate's nontrivial loop is H_1 != 0 (the abelianization shadow
    of a nontrivial fundamental group)."""
    if cap < 0:
        raise ParameterError(f"cap must be >= 0, got {cap}")
    if limit < 1:
        raise ParameterError(f"face budget must be >= 1, got {limit}")
    top = max(cap, 1)
    dim = c.dim
    # each vertex's facets, and the facets that start at it, in sorted order
    holding: dict[int, list[Face]] = {}
    starts: dict[int, list[Face]] = {}
    for facet in sorted(c.facets):
        starts.setdefault(facet[0], []).append(facet)
        for v in facet:
            holding.setdefault(v, []).append(facet)
    vertices, edges, forest = skeleton_components(holding, dim, limit)
    counts = [vertices, edges]
    # no dimension above the complex's own has a face
    for j in range(2, min(cap, dim) + 1):
        walk = least_vertex_faces(holding, (j,), sum(counts), limit)
        counts.append(sum(len(taus) for _, _, taus in walk))
    counts += [0] * top
    # no degree above the complex's dimension has a fan face
    last = min(top + 1, dim)
    n = c.num_vertices
    walk = least_vertex_faces(starts, range(2, top + 2), sum(counts), limit)
    later: dict[int, list[int]] = {j: [] for j in range(3, last + 1)}

    # snfs[i] is the degree-i boundary's SNF, the augmentation at i = 0
    # (zero on the empty complex); on entry to degree i, cleared holds the
    # codes of (i-1)-faces whose boundaries form a basis of the image of
    # boundary_{i-1}
    nonempty = vertices > 0
    snfs = [SnfResult(int(nonempty)), SnfResult(len(forest))]
    cleared = [u * n + v for u, v in forest]
    for i in range(2, last + 1):
        elimination = Elimination(cleared)
        dead, peel = elimination.dead, elimination.peel
        rows, cols = elimination.rows, elimination.cols
        if i == 2:
            # the fan 2-faces {a, u, v} as the walk finds them, keeping the
            # codes of the higher ones for later; rows au and av are the
            # ones the forest and earlier peels at apex a tend to kill, and
            # live rows are filed in the column's order uv, av, au
            for j, apex, taus in walk:
                if j == 2:
                    an = apex * n
                    for u, v in taus:
                        au, av, uv = an + u, an + v, u * n + v
                        if au in dead:
                            if av in dead:
                                if uv not in dead:
                                    peel(au * n + v, uv)
                                continue
                            live = (av,) if uv in dead else (uv, av)
                        elif av in dead:
                            live = (au,) if uv in dead else (uv, au)
                        else:
                            live = (av, au) if uv in dead else (uv, av, au)
                        c = au * n + v
                        if len(live) == 1:
                            peel(c, live[0])
                        else:
                            for r in live:
                                rows.setdefault(r, {})[c] = -1 if r == av else 1
                            cols[c] = set(live)
                else:
                    for tau in taus:
                        code = apex
                        for v in tau:
                            code = code * n + v
                        later[j].append(code)
        else:
            # an i-face less its k-th vertex keeps the digits above the k-th,
            # one place lower, and those below it, and has the sign (-1)**k
            digits = [(n ** (i + 1 - k), n ** (i - k), (-1) ** k) for k in range(i + 1)]
            for code in later.pop(i):
                # each row is decoded once, in the order of k: up to the
                # first live one, then up to a second, then the rest of a
                # column that is filed
                rest = iter(digits)
                for hi, lo, s in rest:
                    r = code // hi * lo + code % lo
                    if r not in dead:
                        break
                else:
                    continue
                for hi, lo, s2 in rest:
                    r2 = code // hi * lo + code % lo
                    if r2 not in dead:
                        break
                else:
                    peel(code, r)
                    continue
                rows.setdefault(r, {})[code] = s
                rows.setdefault(r2, {})[code] = s2
                col = {r, r2}
                for hi, lo, s in rest:
                    r = code // hi * lo + code % lo
                    if r not in dead:
                        rows.setdefault(r, {})[code] = s
                        col.add(r)
                cols[code] = col
        snfs.append(elimination.result())
        cleared = snfs[-1].pivots or []
    snfs += [SnfResult(0)] * (top + 2 - len(snfs))
    groups = tuple(
        HomologyGroup(
            i, counts[i] - snfs[i].rank - snfs[i + 1].rank, snfs[i + 1].torsion
        )
        for i in range(top + 1)
    )
    conn = _connectivity(groups[:2], nonempty)
    certificate = ConnectivityCertificate(
        nonempty=nonempty,
        connected=vertices - len(forest) == 1,
        h1=groups[1],
        certified_conn_zero=conn == 0,
        homological_connectivity=conn,
        flags=_CERTIFICATE_FLAGS[conn],
    )
    profile = groups[: cap + 1]
    return HomologyPass(profile, certificate, _connectivity(profile, nonempty))


def homology_profile(
    c: SimplicialComplex, max_dim: int, limit: int = DEFAULT_FACE_BUDGET
) -> tuple[HomologyGroup, ...]:
    """Reduced homology in degrees 0..max_dim (trivial groups for the empty
    complex), the profile of ``homology_pass``; kept as an entry point for
    the benchmark cases."""
    return homology_pass(c, max_dim, limit).profile
