"""Exact chromatic number, clique number, and certificate checks.

The chromatic number is solved block by block (biconnected components),
each distinct block once.  A block's value is pinned between a lower-bound
witness and the greedy DSATUR coloring.  The lower-bound witness is a
maximum clique (chi >= |K|) or a Mycielski chain (chi >= |base clique| +
#layers, by Mycielski's recoloring argument) that a recogniser peels off
the block from the graph alone; validating either only checks that the
edges it needs exist.  Only a block whose bounds do not meet falls back to
an exhaustive DSATUR branch-and-bound on the k-colorability decision
problem, starting at the lower bound, with the maximum clique precolored
and new colors introduced in order (0, 1, 2, ...) to break color
symmetry; its witness records that search.  Greedy DSATUR is the same
search allowed n colors, which never backtracks.  The clique solver is a
branch-and-bound with greedy-coloring upper bounds over the vertices
ranked once by degree.  Everything is deterministic: saturation ties
break by degree, then by vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CertificateError, ParameterError
from .graphs import Graph, biconnected_components


@dataclass(frozen=True)
class ColoringWitness:
    """Proper coloring using every color in 0..k-1."""

    k: int
    assignment: tuple[int, ...]

    def validate(self, g: Graph) -> None:
        if len(self.assignment) != g.n:
            raise CertificateError("coloring length disagrees with vertex count")
        used = set(self.assignment)
        if g.n and used != set(range(self.k)):
            raise CertificateError(f"colors used {sorted(used)} != 0..{self.k - 1}")
        if g.n == 0 and self.k != 0:
            raise CertificateError("empty graph must have an empty coloring")
        for u, v in g.edges():
            if self.assignment[u] == self.assignment[v]:
                raise CertificateError(f"monochromatic edge ({u},{v})")


@dataclass(frozen=True)
class CliqueWitness:
    """A clique; as a lower-bound witness it proves chi >= |K|."""

    vertices: tuple[int, ...]

    kind = "clique"

    @property
    def bound(self) -> int:
        return len(self.vertices)

    def relabel(self, ids) -> "CliqueWitness":
        return CliqueWitness(tuple(sorted(ids[v] for v in self.vertices)))

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if list(vs) != sorted(set(vs)):
            raise CertificateError("clique witness not sorted and duplicate-free")
        for i, u in enumerate(vs):
            if not (0 <= u < g.n):
                raise CertificateError(f"clique vertex {u} out of range")
            for v in vs[i + 1 :]:
                if not g.has_edge(u, v):
                    raise CertificateError(f"clique witness misses edge ({u},{v})")


@dataclass(frozen=True)
class MycielskiWitness:
    """Proves chi >= base.bound + len(layers) on any graph with these edges.
    Each layer ``(apex, shadows)``, innermost first, raises the bound of the
    vertex set below it (the base and the layers inside) by one: the apex is
    adjacent to every shadow, and every vertex v of that set has a shadow
    adjacent to every neighbor of v inside the set, with the apex and the
    shadows outside it (Mycielski, 1955).  Given a k-coloring with k the
    bound below, recolor each vertex of the set that has the apex's color
    with its shadow's color: the set is then properly colored without the
    apex's color, which contradicts the bound below.  ``shadows`` pairs each
    vertex of the set with its shadow."""

    base: CliqueWitness
    layers: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    kind = "mycielski"

    @property
    def bound(self) -> int:
        return self.base.bound + len(self.layers)

    def relabel(self, ids) -> "MycielskiWitness":
        return MycielskiWitness(
            self.base.relabel(ids),
            tuple(
                (ids[apex], tuple(sorted((ids[v], ids[s]) for v, s in shadows)))
                for apex, shadows in self.layers
            ),
        )

    def validate(self, g: Graph) -> None:
        self.base.validate(g)
        inner = set(self.base.vertices)
        for a, shadows in self.layers:
            if sorted(v for v, _ in shadows) != sorted(inner):
                raise CertificateError(
                    "shadow map does not cover the inner vertex set once"
                )
            if not (0 <= a < g.n) or a in inner:
                raise CertificateError(f"apex {a} out of range or inside the inner set")
            for v, s in shadows:
                if not (0 <= s < g.n) or s in inner:
                    raise CertificateError(
                        f"shadow {s} out of range or inside the inner set"
                    )
                if not g.has_edge(a, s):
                    raise CertificateError(f"apex {a} misses shadow {s}")
                missing = (g.adj[v] & inner) - g.adj[s]
                if missing:
                    raise CertificateError(
                        f"shadow {s} of {v} misses its neighbor {min(missing)}"
                    )
            inner.add(a)
            inner.update(s for _, s in shadows)


@dataclass(frozen=True)
class SearchWitness:
    """chi >= bound because an exhaustive search found no (bound - 1)-coloring
    of the subgraph induced on ``vertices``.  Nothing smaller certifies it:
    validating repeats the search."""

    vertices: tuple[int, ...]
    bound: int

    kind = "search"

    def relabel(self, ids) -> "SearchWitness":
        return SearchWitness(tuple(sorted(ids[v] for v in self.vertices)), self.bound)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if list(vs) != sorted(set(vs)) or any(not (0 <= v < g.n) for v in vs):
            raise CertificateError("search witness vertices not sorted, distinct, in range")
        if self.bound > 0 and is_k_colorable(_induced(g, vs), self.bound - 1) is not None:
            raise CertificateError(f"the subgraph is {self.bound - 1}-colorable")


LowerBound = CliqueWitness | MycielskiWitness | SearchWitness


def _induced(g: Graph, vertices: tuple[int, ...]) -> Graph:
    """The subgraph induced on ``vertices``, relabelled so that vertices[i]
    becomes i."""
    index = {v: i for i, v in enumerate(vertices)}
    # a tuple from a list, for the reason given in Graph.from_edges
    return Graph(
        len(vertices),
        tuple([frozenset(index[u] for u in g.adj[v] if u in index) for v in vertices]),
    )


def _adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        for u in g.adj[v]:
            masks[v] |= 1 << u
    return masks


# ---------------------------------------------------------------------------
# cliques


def max_clique(g: Graph) -> tuple[int, CliqueWitness]:
    """Maximum clique via branch and bound: candidates are greedily colored
    and a branch is cut when |current| + color bound cannot beat the best.
    They are ranked once by non-increasing degree, larger id first on ties,
    the initial order of Tomita & Seki's MCQ (2003)."""
    if g.n == 0:
        return 0, CliqueWitness(())
    search_order = tuple(reversed(sorted(range(g.n), key=g.degree)))
    # vertices are renamed by their positions in search_order, so the first
    # vertex of a candidate set in that order is its lowest bit
    masks = _adj_masks(_induced(g, search_order))
    best: list[int] = []

    def color_sort(cand: int) -> list:
        """The stack frame [cand, order, bounds, next index] of ``cand``."""
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = remaining
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                order.append(v)
                bounds.append(color)
                avail &= ~(masks[v] | low)
                remaining ^= low
        return [cand, order, bounds, len(order) - 1]

    # depth-first over an explicit stack, so the depth is not bounded by
    # Python's recursion limit; current holds one vertex per frame but the root
    current: list[int] = []
    frames = [color_sort((1 << g.n) - 1)]
    while frames:
        frame = frames[-1]
        cand, order, bounds, i = frame
        if i < 0 or len(current) + bounds[i] <= len(best):
            frames.pop()
            if frames:
                current.pop()
            continue
        v = order[i]
        frame[0] = cand & ~(1 << v)  # later siblings skip v's subtree
        frame[3] = i - 1
        current.append(v)
        cand &= masks[v]
        if cand:
            frames.append(color_sort(cand))
        else:
            if len(current) > len(best):
                best = current[:]
            current.pop()
    return len(best), CliqueWitness(tuple(best)).relabel(search_order)


def verify_biclique_certificate(g: Graph, a, b) -> bool:
    """True iff every vertex of ``a`` is adjacent to every vertex of ``b``
    (edges inside either side are permitted: containment as a subgraph)."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise CertificateError("biclique sides must be nonempty")
    if sa & sb:
        raise CertificateError(f"biclique sides overlap: {sorted(sa & sb)}")
    for v in sa | sb:
        if not (0 <= v < g.n):
            raise CertificateError(f"biclique vertex {v} out of range")
    return all(g.has_edge(u, v) for u in sa for v in sb)


# ---------------------------------------------------------------------------
# coloring


def _select_dsatur(
    colors: list[int], neighbor_colors: list[int], degrees: list[int]
) -> int:
    """Uncolored vertex with maximum saturation; ties by degree, then id.
    ``degrees`` is the graph's degree list, computed once per search."""
    n = len(colors)
    chosen = -1
    best = -1
    for v in range(n):
        if colors[v] != -1:
            continue
        # degree < n, so this integer orders by (saturation, degree)
        key = neighbor_colors[v].bit_count() * n + degrees[v]
        if key > best:
            chosen, best = v, key
    return chosen


def greedy_dsatur_bound(g: Graph) -> tuple[int, ColoringWitness]:
    """Greedy DSATUR coloring; its color count upper-bounds the chromatic
    number.  It is the exact search's first leaf (Brelaz, 1979): with n
    colors allowed no vertex is ever blocked, so the search never backtracks."""
    witness = _dsatur(g, g.n, ())
    return witness.k, witness


def is_k_colorable(g: Graph, k: int) -> ColoringWitness | None:
    """Exhaustive k-colorability decision.  Returns a proper coloring
    (normalized so that exactly its ``k`` colors are used) or None when no
    proper k-coloring exists.  A maximum clique is precolored."""
    if k < 0:
        raise ParameterError(f"color count must be >= 0, got {k}")
    clique = max_clique(g)[1].vertices
    if len(clique) > k:
        return None
    return _dsatur(g, k, clique)


def _dsatur(g: Graph, k: int, clique: tuple[int, ...]) -> ColoringWitness | None:
    """The first proper coloring with at most ``k`` colors that DSATUR finds
    with ``clique`` precolored 0, 1, ..., or None when there is none.

    Depth-first over an explicit stack, so the depth is not bounded by
    Python's recursion limit.  A fresh color may only be introduced as the
    next unused one (symmetry breaking)."""
    adj = g.adj
    degrees = [len(s) for s in adj]
    colors = [-1] * g.n
    neighbor_colors = [0] * g.n
    for c, v in enumerate(clique):
        colors[v] = c
        for u in adj[v]:
            neighbor_colors[u] |= 1 << c
    uncolored = g.n - len(clique)

    # frame: [vertex, next color to try, neighbors whose saturation the
    # current color raised (None while uncolored), colors in use before it]
    frames: list[list] = []
    if uncolored:
        v = _select_dsatur(colors, neighbor_colors, degrees)
        frames.append([v, 0, None, len(clique)])
    while frames:
        frame = frames[-1]
        v, c, changed, palette = frame
        if changed is not None:
            bit = ~(1 << colors[v])
            for u in changed:
                neighbor_colors[u] &= bit
            colors[v] = -1
        # min(k, palette + 1), and max(palette, c + 1) below, spelled out:
        # the builtin calls cost greedy DSATUR about a tenth of its time
        top = palette + 1 if palette < k else k
        blocked = neighbor_colors[v]
        while c < top and blocked >> c & 1:
            c += 1
        if c == top:
            frames.pop()
            continue
        colors[v] = c
        bit = 1 << c
        changed = []
        for u in adj[v]:
            if colors[u] == -1 and not neighbor_colors[u] & bit:
                neighbor_colors[u] |= bit
                changed.append(u)
        frame[1] = c + 1
        frame[2] = changed
        if len(frames) == uncolored:
            break
        v = _select_dsatur(colors, neighbor_colors, degrees)
        frames.append([v, 0, None, palette if palette > c else c + 1])
    if len(frames) != uncolored:  # the stack ran empty: no k-coloring
        return None
    return ColoringWitness(max(colors, default=-1) + 1, tuple(colors))


def _peel(adj, inner: set[int]) -> tuple[int, dict[int, int]] | None:
    """One Mycielski layer of the subgraph induced on ``inner`` (odd size
    b >= 3): an apex with (b - 1)/2 pairwise non-adjacent neighbors, the
    shadows, such that each remaining vertex, an original, can be paired
    with its own shadow whose neighbors among the originals are exactly
    the original's.  Returns the apex and each original's shadow, or None."""
    half = (len(inner) - 1) // 2
    for apex in sorted(inner):
        shadows = adj[apex] & inner
        if len(shadows) != half or any(adj[s] & shadows for s in shadows):
            continue
        originals = inner - shadows - {apex}
        by_neighbors: dict[frozenset[int], list[int]] = {}
        for s in sorted(shadows):
            by_neighbors.setdefault(adj[s] & originals, []).append(s)
        shadow_of = {}
        for v in sorted(originals):
            bucket = by_neighbors.get(adj[v] & originals)
            if not bucket:
                break
            shadow_of[v] = bucket.pop()
        else:
            return apex, shadow_of
    return None


def mycielski_lower_bound(
    g: Graph, clique: CliqueWitness
) -> CliqueWitness | MycielskiWitness:
    """The better of ``clique`` (a maximum clique of ``g``) and a Mycielski
    chain recognised in ``g`` from the graph alone.

    Layers are peeled off iteratively while the remaining vertex set has
    odd size.  The chain's base is a maximum clique of the residual that
    the last layer leaves, so that a maximal chain over K2 proves chi = q
    on the q-chromatic Mycielski iterate."""
    inner = set(range(g.n))
    peeled: list[tuple[int, dict[int, int]]] = []
    while len(inner) >= 3 and len(inner) % 2:
        layer = _peel(g.adj, inner)
        if layer is None:
            break
        peeled.append(layer)
        inner = set(layer[1])
    if not peeled:  # the residual is g itself, whose maximum clique is given
        return clique
    residual = tuple(sorted(inner))
    base = max_clique(_induced(g, residual))[1].relabel(residual)
    if base.bound + len(peeled) <= clique.bound:
        return clique
    covered = set(base.vertices)
    layers = []
    for apex, shadow_of in reversed(peeled):
        shadows = tuple(sorted((v, shadow_of[v]) for v in covered))
        layers.append((apex, shadows))
        covered.add(apex)
        covered.update(s for _, s in shadows)
    return MycielskiWitness(base, tuple(layers))


def _color_block(
    g: Graph, clique: CliqueWitness, floor: int
) -> tuple[ColoringWitness, LowerBound, int]:
    """Fewest-color coloring of one block among k >= ``floor``, a witness
    that chi is at least the coloring's color count whenever that count
    exceeds ``floor``, and the block's greedy DSATUR color count.

    The greedy DSATUR bound closes the interval from above.  No search runs
    when it meets max(clique, floor), or else max(lower bound, floor) with
    the recognised Mycielski bound.  Otherwise k runs upward from there
    with the clique precolored; the first k that admits a coloring is the
    answer, and when a smaller k was refuted on the way the lower-bound
    witness is that ``search``."""
    upper, greedy_witness = greedy_dsatur_bound(g)
    lower: LowerBound = clique
    if max(clique.bound, floor) < upper:
        lower = mycielski_lower_bound(g, clique)
    start = max(lower.bound, floor)
    for k in range(start, upper):
        witness = _dsatur(g, k, clique.vertices)
        if witness is not None:
            if k > start:
                lower = SearchWitness(tuple(range(g.n)), k)
            return witness, lower, upper
    if upper > start:
        lower = SearchWitness(tuple(range(g.n)), upper)
    return greedy_witness, lower, upper


class Chromatic(NamedTuple):
    """The chromatic number with a coloring and a lower-bound witness that
    pin it, plus a maximum clique and the greedy DSATUR upper bound from the
    same pass over the blocks."""

    chi: int
    coloring: ColoringWitness
    chi_lower: LowerBound
    clique: CliqueWitness
    greedy_upper: int


def chromatic_number(g: Graph) -> Chromatic:
    """Exact chromatic number with a proper coloring and a lower-bound
    witness, the clique number with a maximum clique, and the block-wise
    greedy DSATUR bound.

    chi(G) is the maximum of chi over the blocks of G (its biconnected
    components), since block colorings can be permuted to agree at the cut
    vertices, and every clique lies inside one block.  By the same argument
    the largest greedy DSATUR color count of a block bounds chi(G) from
    above.  Each block is relabelled onto 0..b-1 in id order and each
    distinct induced graph is solved once, largest clique first, so that a
    later block only has to be closed above the colors already needed; the
    lower-bound witness is that of the block that needed the most colors.
    The coloring is assembled parents first along the block–cut tree,
    swapping two colors of each block so that it agrees with the coloring
    so far at its cut vertex."""
    if g.n == 0:
        empty = CliqueWitness(())
        return Chromatic(0, ColoringWitness(0, ()), empty, empty, 0)
    blocks = biconnected_components(g)
    induced = [_induced(g, block) for block in blocks]
    first: dict[Graph, tuple[int, ...]] = {}
    for block, h in zip(blocks, induced):
        first.setdefault(h, block)
    cliques = {h: max_clique(h)[1] for h in first}
    chi = greedy_upper = 0
    lower: LowerBound = CliqueWitness(())
    local: dict[Graph, tuple[int, ...]] = {}
    for h in sorted(first, key=lambda h: -cliques[h].bound):
        witness, block_lower, upper = _color_block(h, cliques[h], chi)
        local[h] = witness.assignment
        greedy_upper = max(greedy_upper, upper)
        if witness.k > chi:
            chi = witness.k
            lower = block_lower.relabel(first[h])
    colors = [-1] * g.n
    for block, h in zip(blocks, induced):
        perm = list(range(chi))
        for v, c in zip(block, local[h]):
            if colors[v] != -1:
                # the one vertex already colored: swap its local color in
                perm[c], perm[colors[v]] = colors[v], c
                break
        for v, c in zip(block, local[h]):
            colors[v] = perm[c]
    clique = min(
        (cliques[h].relabel(block) for block, h in zip(blocks, induced)),
        key=lambda c: (-c.bound, c.vertices),
    )
    return Chromatic(
        chi, ColoringWitness(chi, tuple(colors)), lower, clique, greedy_upper
    )
