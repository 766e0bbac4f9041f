"""Independent brute-force oracles used to pin expected values.

Nothing here shares code paths with the library: the chromatic oracle
enumerates partitions into independent sets, the clique oracle enumerates
all vertex subsets, the SNF oracles go through gcds of minors or through
the classical dense elimination on lists of rows, the
determinant is a plain Laplace expansion, the greedy DSATUR oracle
keeps saturation sets where the library runs its backtracking search, and
the branch-and-bound clique reference recurses over vertex sets where the
library walks bitmasks on an explicit stack.
The boundary oracles build their matrices from every face of a degree,
or from fans at the largest vertex of each facet (the library's fans sit
at the smallest), and never clear a row; their matrices are an explicit
``IntegerMatrix``, whose Smith normal form streams the columns through
``eliminate``, the reference arrival: it builds every column whole and
decides its arrival itself, where the library's pass reads a fan column's
rows one at a time and builds none; only the peel and the elimination
after the last arrival are the library's ``Elimination``.  The cone is
built on the facets alone, and the Euler characteristic counts the
oracle's own enumeration of faces.  Face codes are a sum of powers where
the library runs Horner's rule.  The per-face walks add the faces, and the
fan faces, one at a time and check the budget after each, where the
library adds a (vertex, facet, size) batch at a time and checks the budget
once per batch.  The reference fan stream builds every fan face's boundary
column and hands each to ``eliminate``.  The
incidence-graph builder gives the wedge check parts whose neighborhood
complexes carry a chosen complex's torsion, and the Schrijver graphs give
complexes with a known sphere's homology.  The edge-list composite puts
graphs side by side through ``Graph.from_edges`` over every part's sorted
edges, shifted, where the library lays the parts' neighbour sets side by
side and adds only the new edges.  The structure checkers read a
graph as a set of arcs and a complex's facets as sets, and ``write_graph``
saves the library's DIMACS text to a file.  The facet filter tests every
face against every other, where the library tests a face only against the
kept facets filed under one of its vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from lovaszgap import (
    BudgetExceededError,
    Graph,
    ParameterError,
    SimplicialComplex,
    SnfResult,
)
from lovaszgap.dimacs import format_graph
from lovaszgap.snf import Elimination


@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse integer matrix: (row, col, value) triples with value != 0 and
    each (row, col) at most once, in the order they were built."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_dense(dense: list[list[int]]) -> "IntegerMatrix":
        cols = len(dense[0]) if dense else 0
        entries = ((r, c, v) for r, row in enumerate(dense) for c, v in enumerate(row))
        return IntegerMatrix.from_entries(len(dense), cols, entries)

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, tuple(e for e in entries if e[2]))

    def to_dense(self) -> list[list[int]]:
        """The matrix as lists of rows."""
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            dense[r][c] = v
        return dense

    @property
    def nnz(self) -> int:
        return len(self.entries)


def eliminate(columns, dropped_rows=()) -> SnfResult:
    """SNF of the matrix whose columns arrive as (column id, {row id: value})
    pairs, with distinct column ids and nonzero values, less the rows
    ``dropped_rows``; the ids are any ints.  Each whole column's arrival is
    decided against the dead rows of a library ``Elimination``: it is
    dropped when no entry is left on a live row, peeled when a single +-1 is
    left, and otherwise filed as its live entries in the column's order."""
    elimination = Elimination(dropped_rows)
    dead, rows, cols = elimination.dead, elimination.rows, elimination.cols
    for c, column in columns:
        live = [r for r in column if r not in dead]
        if len(live) == 1 and column[live[0]] in (1, -1):
            elimination.peel(c, live[0])
        elif live:
            for r in live:
                rows.setdefault(r, {})[c] = column[r]
            cols[c] = set(live)
    return elimination.result()


def smith_normal_form(m: IntegerMatrix) -> SnfResult:
    """The SNF of an explicit matrix: its columns, in index order, streamed
    through ``eliminate``."""
    columns: list[dict[int, int]] = [{} for _ in range(m.cols)]
    for r, c, val in m.entries:
        columns[c][r] = val
    return eliminate(enumerate(columns))


def brute_force_chromatic(g) -> int:
    """Fewest blocks over all partitions of the vertices into independent
    sets, by exhaustive backtracking."""
    if g.n == 0:
        return 0
    best = g.n
    blocks: list[list[int]] = []

    def extend(v: int) -> None:
        nonlocal best
        if len(blocks) >= best:
            return
        if v == g.n:
            best = len(blocks)
            return
        for block in blocks:
            if all(v not in g.adj[u] for u in block):
                block.append(v)
                extend(v + 1)
                block.pop()
        blocks.append([v])
        extend(v + 1)
        blocks.pop()

    extend(0)
    return best


def brute_force_is_k_colorable(g, k: int) -> bool:
    """Literal enumeration of all k**n assignments."""
    for assignment in itertools.product(range(k), repeat=g.n):
        if all(assignment[u] != assignment[v] for u, v in g.edges()):
            return True
    return g.n == 0


def greedy_dsatur_coloring(g) -> tuple[int, ...]:
    """Brelaz's greedy DSATUR: color next the uncolored vertex seeing the
    most colors (ties by degree, then smallest id) with its smallest free
    color."""
    colors: dict[int, int] = {}
    seen: list[set[int]] = [set() for _ in range(g.n)]
    while len(colors) < g.n:
        v = max(
            (v for v in range(g.n) if v not in colors),
            key=lambda v: (len(seen[v]), len(g.adj[v]), -v),
        )
        colors[v] = min(set(range(g.n)) - seen[v])
        for u in g.adj[v]:
            seen[u].add(colors[v])
    return tuple(colors[v] for v in range(g.n))


def branch_and_bound_clique(g) -> tuple[tuple[int, ...], int]:
    """The library's maximum-clique search, written recursively over vertex
    sets: candidates are ranked by non-increasing degree (larger id first
    on ties), greedily colored in that rank, branched on from the
    last colored vertex down, cut once |current| + color <= |best|, and each
    branched vertex leaves the candidates of its later siblings.  Returns
    the witness and the search's steps (vertices colored plus branches
    taken), which together pin the exact search order."""
    by_degree = sorted(range(g.n), key=lambda v: len(g.adj[v]))
    rank = {v: i for i, v in enumerate(reversed(by_degree))}
    best: list[int] = []
    steps = 0

    def colored(cand: set[int]) -> list[tuple[int, int]]:
        nonlocal steps
        steps += len(cand)
        remaining = sorted(cand, key=rank.__getitem__)
        out: list[tuple[int, int]] = []
        color = 0
        while remaining:
            color += 1
            members: list[int] = []
            for v in remaining:
                if not any(u in g.adj[v] for u in members):
                    members.append(v)
            out.extend((v, color) for v in members)
            remaining = [v for v in remaining if v not in members]
        return out

    def expand(current: list[int], cand: set[int]) -> None:
        nonlocal best, steps
        if not cand:
            if len(current) > len(best):
                best = current
            return
        for v, color in reversed(colored(cand)):
            if len(current) + color <= len(best):
                return
            steps += 1
            expand(current + [v], cand & g.adj[v])
            cand = cand - {v}

    if g.n:
        expand([], set(range(g.n)))
    return tuple(sorted(best)), steps


def brute_force_max_clique(g) -> int:
    best = 0
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        if len(members) <= best:
            continue
        if all(
            v in g.adj[u] for u, v in itertools.combinations(members, 2)
        ):
            best = len(members)
    return best


def brute_force_triangle_free(g) -> bool:
    return not any(
        w in g.adj[u] and w in g.adj[v]
        for u, v in g.edges()
        for w in range(g.n)
    )


def determinant(matrix: list[list[int]]) -> int:
    """Laplace expansion along the first row; exact for integer input."""
    n = len(matrix)
    if n == 0:
        return 1
    if n == 1:
        return matrix[0][0]
    total = 0
    for j, head in enumerate(matrix[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        total += (-1) ** j * head * determinant(minor)
    return total


def invariant_factors(result: SnfResult) -> tuple[int, ...]:
    """d_1 | d_2 | ... | d_r, all positive: the factors 1 of an SNF result's
    rank, then its torsion."""
    return (1,) * (result.rank - len(result.torsion)) + result.torsion


def minor_gcd_invariant_factors(dense: list[list[int]]) -> tuple[int, ...]:
    """Invariant factors via d_k = gcd(k x k minors) / gcd((k-1) x (k-1)
    minors); the textbook characterization, independent of elimination."""
    rows = len(dense)
    cols = len(dense[0]) if rows else 0
    factors = []
    previous = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(rows), k):
            for csel in itertools.combinations(range(cols), k):
                sub = [[dense[r][c] for c in csel] for r in rsel]
                g = gcd(g, abs(determinant(sub)))
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
    return tuple(factors)


def dense_snf(m: IntegerMatrix) -> SnfResult:
    """The classical dense Smith normal form: minimum-absolute-value pivot,
    Euclidean row/column reduction, and a fold of any row the pivot does
    not divide; it shares no code with the library's sparse elimination."""
    a = m.to_dense()
    nr, nc = m.rows, m.cols

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, factor: int) -> None:
        # row[dst] += factor * row[src]
        arow, srow = a[dst], a[src]
        for j in range(nc):
            if srow[j]:
                arow[j] += factor * srow[j]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in a:
            if row[src]:
                row[dst] += factor * row[src]

    t = 0
    while t < nr and t < nc:
        # minimum-|value| pivot in the trailing submatrix, smallest (i, j) on ties
        pi = pj = -1
        pv = 0
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(a[i][j])
                if val and (pv == 0 or val < pv):
                    pv, pi, pj = val, i, j
        if pv == 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)

        while True:
            # clear column t below the pivot; a nonzero remainder becomes
            # the new, strictly smaller pivot
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q, r = divmod(a[i][t], a[t][t])
                add_row(i, t, -q)
                if r:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q, r = divmod(a[t][j], a[t][t])
                add_col(j, t, -q)
                if r:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the whole remaining submatrix; if not, fold
            # the offending row into row t and keep reducing (gcd shrinks)
            offender = -1
            d = a[t][t]
            for i in range(t + 1, nr):
                if any(a[i][j] % d for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender >= 0:
                add_row(t, offender, 1)
                continue
            break

        t += 1

    return SnfResult(t, tuple(abs(a[i][i]) for i in range(t) if abs(a[i][i]) > 1))


def mat_mult(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k]:
                aik = a[i][k]
                for j in range(cols):
                    if b[k][j]:
                        out[i][j] += aik * b[k][j]
    return out


def is_zero_matrix(a: list[list[int]]) -> bool:
    return all(all(x == 0 for x in row) for row in a)


def boundary_matrix(levels, i: int) -> IntegerMatrix:
    """Full simplicial boundary in degree i >= 1 over the sorted faces per
    dimension of ``faces_by_dim``: rows are the (i-1)-faces, columns every
    i-face, and dropping the j-th vertex of a sorted face contributes
    (-1)**j."""
    if i < 1:
        raise ParameterError(f"boundary degree must be >= 1, got {i}")
    if i >= len(levels):
        raise ParameterError(
            f"faces enumerated to dimension {len(levels) - 1}, need {i}"
        )
    return boundary(levels[i - 1], levels[i])


def boundary(rows, columns) -> IntegerMatrix:
    """Boundary of the faces ``columns`` over the faces ``rows``, each
    column's faces less one vertex among them."""
    index = {face: pos for pos, face in enumerate(rows)}
    entries = []
    for col, face in enumerate(columns):
        for j in range(len(face)):
            sub = face[:j] + face[j + 1 :]
            entries.append((index[sub], col, -1 if j % 2 else 1))
    return IntegerMatrix.from_entries(len(rows), len(columns), entries)


def face_code(face, n: int) -> int:
    """The sum of v_k * n**(j - k) over the vertices v_0 < ... < v_j of a
    face: the int that ``homology`` names the face by."""
    return sum(v * n ** (len(face) - 1 - k) for k, v in enumerate(face))


def faces_by_dim(c, d: int) -> list[list[tuple[int, ...]]]:
    """Every face of dimension <= d, sorted within each dimension."""
    levels: list[set] = [set() for _ in range(d + 1)]
    for facet in c.facets:
        for size in range(1, min(d + 1, len(facet)) + 1):
            levels[size - 1].update(itertools.combinations(facet, size))
    return [sorted(level) for level in levels]


def skeleton_components(vertices, edges) -> list[tuple[int, int]]:
    """The edges (u, v), u < v, of a spanning forest of a graph given by its
    vertex ids and its edges in any order, from one depth-first walk over
    sorted adjacency lists that takes the vertices, and each vertex's
    neighbours, in increasing order: the reference for the library's walk,
    which forms no edge."""
    adj: dict[int, list[int]] = {v: [] for v in sorted(vertices)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for neighbours in adj.values():
        neighbours.sort()
    seen: set[int] = set()
    forest: list[tuple[int, int]] = []
    for start in adj:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    forest.append((u, v) if u < v else (v, u))
                    stack.append(u)
    return forest


def per_face_face_sets(c, d: int, limit: int) -> list[set[tuple[int, ...]]]:
    """The faces of each dimension 0..min(d, c.dim), added one at a time;
    raises the budget error at the first face past ``limit``."""
    levels: list[set] = []
    total = 0
    for size in range(1, min(d, c.dim) + 2):
        levels.append(set())
        for facet in c.facets:
            for face in itertools.combinations(facet, size):
                if face not in levels[-1]:
                    levels[-1].add(face)
                    total += 1
                    if total > limit:
                        raise BudgetExceededError(dimension=size - 1, limit=limit)
    return levels


def per_face_fan_columns(c, top: int, used: int, limit: int):
    """(j, code) of each fan face {min F} + tau, tau a j-subset of F minus
    min F, for j = 2..top + 1, in the order of the facets, then of j, then
    of ``itertools.combinations``, each face once; the faces count one at a
    time against ``limit`` on top of ``used``."""
    seen: set = set()
    total = used
    for facet in c.facets:
        for j in range(2, min(top + 1, len(facet) - 1) + 1):
            for tau in itertools.combinations(facet[1:], j):
                face = facet[:1] + tau
                if face not in seen:
                    seen.add(face)
                    total += 1
                    if total > limit:
                        raise BudgetExceededError(dimension=j, limit=limit)
                    yield j, face_code(face, c.num_vertices)


def fan_codes(batches, n: int) -> list[tuple[int, int]]:
    """(j, code) of each fan face in (j, apex, taus) batches, in order."""
    return [
        (j, face_code((apex,) + tau, n)) for j, apex, taus in batches for tau in taus
    ]


def per_face_pass_budget(c, cap: int, limit: int) -> int | None:
    """The dimension a homology pass through cap crosses ``limit`` in when
    its faces and then its fan faces count one at a time, or None when
    they fit."""
    top = max(cap, 1)
    try:
        used = sum(len(level) for level in per_face_face_sets(c, top, limit))
        for _ in per_face_fan_columns(c, top, used, limit):
            pass
    except BudgetExceededError as exc:
        return exc.dimension
    return None


def fan_boundary_stream(c, top: int) -> dict[int, list[tuple[int, dict[int, int]]]]:
    """The reference column stream of a homology pass through dimension
    top: for each degree i = 2..top + 1, every fan i-face's boundary as
    (code, {face code: sign}), in the order of the per-face walk over the
    sorted facets, which is the order the pass takes them in.  An i-face
    less its k-th vertex keeps the digits above the k-th, one place lower,
    and those below it, and has the sign (-1)**k; the entries are built in
    that order of k.  Every column is built, whatever its rows."""
    n = c.num_vertices
    ordered = SimplicialComplex(n, tuple(sorted(c.facets)))
    stream: dict[int, list] = {i: [] for i in range(2, top + 2)}
    for i, code in per_face_fan_columns(ordered, top, 0, float("inf")):
        digits = [(n ** (i + 1 - k), n ** (i - k), (-1) ** k) for k in range(i + 1)]
        column = {code // hi * lo + code % lo: s for hi, lo, s in digits}
        stream[i].append((code, column))
    return stream


def fan_eliminations(c, cap: int) -> list[SnfResult]:
    """``eliminate`` over the reference stream of each boundary degree
    2..min(max(cap, 1) + 1, dim), cleared as the pass clears it: degree 2
    loses the rows of this module's spanning forest, and each degree above
    the pivot columns of the one below, none after a Euclid step."""
    top = max(cap, 1)
    vertices, edges = faces_by_dim(c, 1)
    forest = skeleton_components([v for (v,) in vertices], edges)
    cleared = [face_code(edge, c.num_vertices) for edge in forest]
    stream = fan_boundary_stream(c, top)
    results = []
    for i in range(2, min(top + 1, c.dim) + 1):
        results.append(eliminate(stream[i], cleared))
        cleared = results[-1].pivots or []
    return results


def euler_characteristic(c) -> int:
    """Alternating sum of face counts over every face of the complex."""
    levels = faces_by_dim(c, c.dim)
    return sum((-1) ** i * len(level) for i, level in enumerate(levels))


def cone(c) -> SimplicialComplex:
    """Cone with a fresh apex joined to every facet; acyclic by construction.
    The cone over the empty complex is a single point."""
    apex = c.num_vertices
    if c.is_empty():
        return SimplicialComplex(apex + 1, ((apex,),))
    return SimplicialComplex(
        apex + 1, tuple(face + (apex,) for face in c.facets)
    )


def full_boundary_profile(c, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion) of reduced homology in degrees 0..cap, with every
    boundary taken whole: all faces of its degree as columns and all faces
    one below as rows."""
    levels = faces_by_dim(c, cap + 1)
    snfs = [
        smith_normal_form(boundary(levels[i - 1], levels[i]))
        for i in range(1, cap + 2)
    ]
    # ranks[i] is the rank of the degree-i boundary, the augmentation at 0
    ranks = [int(bool(levels[0])), *(snf.rank for snf in snfs)]
    return [
        (len(levels[i]) - ranks[i] - ranks[i + 1], snfs[i].torsion)
        for i in range(cap + 1)
    ]


def max_apex_fan(c, i: int) -> list[tuple[int, ...]]:
    """The i-faces tau + {max F}, tau a subset of F minus max F, over the
    facets F: by dd = 0 on tau + {max F}, their boundaries span the same
    lattice as the boundaries of all i-faces."""
    fan = set()
    for facet in c.facets:
        for tau in itertools.combinations(facet[:-1], i):
            fan.add(tau + facet[-1:])
    return sorted(fan)


def max_apex_fan_profile(c, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion) of reduced homology in degrees 0..cap, with the
    degree-1 boundary taken whole and every higher one from max-apex fans."""
    top = max(cap, 1)
    levels = faces_by_dim(c, top)
    snfs = [
        smith_normal_form(boundary(levels[i - 1], max_apex_fan(c, i)))
        for i in range(2, top + 2)
    ]
    # ranks[i] is the rank of the degree-i boundary, the augmentation at 0
    d1 = smith_normal_form(boundary(levels[0], levels[1]))
    ranks = [int(bool(levels[0])), d1.rank, *(snf.rank for snf in snfs)]
    torsion = [(), *(snf.torsion for snf in snfs)]
    return [
        (len(levels[i]) - ranks[i] - ranks[i + 1], torsion[i])
        for i in range(cap + 1)
    ]


def incidence_graph_with_triangle(c) -> Graph:
    """The bipartite vertex-facet incidence graph of a complex (facet j is
    vertex num_vertices + j) plus a triangle on vertex 0 and two new
    vertices a, b.  Its neighborhood complex is c on the vertex side and
    the nerve of c's facets on the facet side, joined through the hollow
    loop 0-a-b, so for connected c its reduced homology is that of c twice
    plus Z in degree 1."""
    n = c.num_vertices
    edges = [(v, n + j) for j, facet in enumerate(c.facets) for v in facet]
    a = n + len(c.facets)
    edges += [(0, a), (0, a + 1), (a, a + 1)]
    return Graph.from_edges(a + 2, edges)


def schrijver_graph(n: int, k: int) -> Graph:
    """The Schrijver graph SG(n,k): the k-subsets of Z_n holding no two
    cyclically consecutive elements, adjacent when disjoint.  It is the
    vertex-critical subgraph of the Kneser graph KG(n,k), and its
    neighborhood complex is homotopy equivalent to the sphere S^{n-2k}."""
    stable = [
        s
        for s in itertools.combinations(range(n), k)
        if all((v + 1) % n not in s for v in s)
    ]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(stable)), 2)
        if not set(stable[i]) & set(stable[j])
    ]
    return Graph.from_edges(len(stable), edges)


def edge_list_composite(parts, edges=(), fresh: int = 0) -> Graph:
    """The parts side by side, then ``fresh`` new vertices, then ``edges``,
    as one explicit edge list: each part's edges in sorted order, shifted
    by the vertices of the parts before it."""
    listed = []
    offset = 0
    for part in parts:
        listed.extend((offset + u, offset + v) for u, v in part.edges())
        offset += part.n
    return Graph.from_edges(offset + fresh, listed + list(edges))


def validate_graph(g) -> None:
    """Raise ParameterError unless ``g.adj`` holds one neighbour set per
    vertex, every neighbour an id in 0..n-1 other than the vertex itself,
    and every arc (v, u) matched by its reverse (u, v)."""
    if len(g.adj) != g.n:
        raise ParameterError(f"{len(g.adj)} neighbour sets for {g.n} vertices")
    arcs = set()
    for v, nbrs in enumerate(g.adj):
        for u in nbrs:
            if not 0 <= u < g.n:
                raise ParameterError(f"neighbour {u} of {v} out of range")
            if u == v:
                raise ParameterError(f"loop at vertex {v}")
            arcs.add((v, u))
    for v, u in sorted(arcs):
        if (u, v) not in arcs:
            raise ParameterError(f"arc ({v},{u}) without its reverse")


def brute_force_facets(faces) -> tuple[tuple[int, ...], ...]:
    """The inclusion-maximal faces of a face list, each once and sorted,
    found by testing every distinct nonempty face against every other."""
    sets = {frozenset(face) for face in faces} - {frozenset()}
    return tuple(sorted(tuple(sorted(a)) for a in sets if not any(a < b for b in sets)))


def validate_complex(c) -> None:
    """Raise ParameterError unless the facets are distinct, nonempty,
    strictly increasing tuples of ids in 0..num_vertices-1, none a subset
    of another."""
    if len(set(c.facets)) != len(c.facets):
        raise ParameterError("duplicate facets")
    for facet in c.facets:
        if not facet:
            raise ParameterError("empty facet")
        if any(a >= b for a, b in zip(facet, facet[1:])):
            raise ParameterError(f"facet {facet} not strictly increasing")
        if not all(0 <= v < c.num_vertices for v in facet):
            raise ParameterError(f"facet {facet} out of ground-set range")
    sets = [frozenset(facet) for facet in c.facets]
    for a, b in itertools.permutations(range(len(sets)), 2):
        if sets[a] < sets[b]:
            raise ParameterError(f"facet {c.facets[a]} inside facet {c.facets[b]}")


def write_graph(g, path) -> None:
    """Save a graph as a DIMACS .col file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_graph(g))
