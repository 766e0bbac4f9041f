"""Exact chromatic number, clique number, and certificate checks.

The chromatic number is solved block by block (biconnected components),
each distinct block once, by an exhaustive DSATUR branch-and-bound on the
k-colorability decision problem, with the maximum clique precolored and
new colors introduced in order (0, 1, 2, ...) to break color symmetry.
The clique solver is a branch-and-bound with greedy-coloring upper bounds
over a degeneracy vertex order.  Both are deterministic: saturation ties
break by degree, then by vertex id.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    vertices: tuple[int, ...]

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


def _adj_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for v in range(g.n):
        for u in g.adj[v]:
            masks[v] |= 1 << u
    return masks


def _degeneracy_order(g: Graph) -> list[int]:
    """Smallest-last order: repeatedly remove a minimum-degree vertex
    (smallest id on ties)."""
    degrees = [g.degree(v) for v in range(g.n)]
    removed = [False] * g.n
    order = []
    for _ in range(g.n):
        v = min(
            (u for u in range(g.n) if not removed[u]),
            key=lambda u: (degrees[u], u),
        )
        removed[v] = True
        order.append(v)
        for u in g.adj[v]:
            if not removed[u]:
                degrees[u] -= 1
    return order


# ---------------------------------------------------------------------------
# cliques


def max_clique(g: Graph) -> tuple[int, CliqueWitness]:
    """Maximum clique via branch and bound: candidates are greedily colored
    and a branch is cut when |current| + color bound cannot beat the best."""
    if g.n == 0:
        return 0, CliqueWitness(())
    masks = _adj_masks(g)
    search_order = list(reversed(_degeneracy_order(g)))
    best: list[int] = []

    def color_sort(cand: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        remaining = cand
        while remaining:
            color += 1
            avail = remaining
            while avail:
                v = next(u for u in search_order if avail >> u & 1)
                order.append(v)
                bounds.append(color)
                avail &= ~(masks[v] | 1 << v)
                remaining &= ~(1 << v)
        return order, bounds

    def expand(current: list[int], cand: int) -> None:
        nonlocal best
        if cand == 0:
            if len(current) > len(best):
                best = current[:]
            return
        order, bounds = color_sort(cand)
        for i in range(len(order) - 1, -1, -1):
            if len(current) + bounds[i] <= len(best):
                return
            v = order[i]
            current.append(v)
            expand(current, cand & masks[v])
            current.pop()
            cand &= ~(1 << v)

    expand([], (1 << g.n) - 1)
    witness = CliqueWitness(tuple(sorted(best)))
    return len(best), witness


def contains_triangle(g: Graph) -> CliqueWitness | None:
    """First triangle in lexicographic order, or None after an exhaustive
    scan of all adjacent pairs' common neighbors."""
    for u, v in g.edges():
        common = g.adj[u] & g.adj[v]
        if common:
            w = min(common)
            return CliqueWitness(tuple(sorted((u, v, w))))
    return None


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
    number."""
    if g.n == 0:
        return 0, ColoringWitness(0, ())
    degrees = [len(s) for s in g.adj]
    colors = [-1] * g.n
    neighbor_colors = [0] * g.n
    used = 0
    for _ in range(g.n):
        v = _select_dsatur(colors, neighbor_colors, degrees)
        c = 0
        while neighbor_colors[v] >> c & 1:
            c += 1
        colors[v] = c
        used = max(used, c + 1)
        for u in g.adj[v]:
            neighbor_colors[u] |= 1 << c
    witness = ColoringWitness(used, tuple(colors))
    return used, witness


def is_k_colorable(
    g: Graph, k: int, clique: tuple[int, ...] | None = None
) -> ColoringWitness | None:
    """Exhaustive k-colorability decision.  Returns a proper coloring
    (normalized so that exactly its ``k`` colors are used) or None when no
    proper k-coloring exists.

    Depth-first DSATUR over an explicit stack, so the depth is not bounded
    by Python's recursion limit.  A fresh color may only be introduced as
    the next unused one (symmetry breaking)."""
    if k < 0:
        raise ParameterError(f"color count must be >= 0, got {k}")
    if g.n == 0:
        return ColoringWitness(0, ())
    if k == 0:
        return None
    if g.m == 0:
        return ColoringWitness(1, (0,) * g.n)
    if clique is None:
        _, cw = max_clique(g)
        clique = cw.vertices
    if len(clique) > k:
        return None

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
        top = min(k, palette + 1)
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
        frames.append([v, 0, None, max(palette, c + 1)])
    if len(frames) != uncolored:  # the stack ran empty: no k-coloring
        return None
    used = max(colors) + 1
    return ColoringWitness(used, tuple(colors))


def _color_block(
    g: Graph, clique: CliqueWitness, floor: int
) -> ColoringWitness:
    """Fewest-color coloring of one block among k >= ``floor``: k runs
    upward from max(clique size, floor) with the clique precolored, and the
    DSATUR greedy bound closes the interval from above.  The witness uses
    exactly chi colors when chi > floor, and at most ``floor`` otherwise."""
    upper, greedy_witness = greedy_dsatur_bound(g)
    for k in range(max(len(clique.vertices), floor), upper):
        witness = is_k_colorable(g, k, clique=clique.vertices)
        if witness is not None:
            return witness
    return greedy_witness


def chromatic_number(g: Graph) -> tuple[int, ColoringWitness]:
    """Exact chromatic number with a proper coloring as witness.

    chi(G) is the maximum of chi over the blocks of G (its biconnected
    components), since block colorings can be permuted to agree at the cut
    vertices.  Each block is relabelled onto 0..b-1 in id order and each
    distinct edge list is solved once, largest clique first, so that a
    later block only has to be searched above the colors already needed.
    The witness is assembled parents first along the block–cut tree,
    swapping two colors of each block so that it agrees with the coloring
    so far at its cut vertex."""
    if g.n == 0:
        return 0, ColoringWitness(0, ())
    blocks = biconnected_components(g)
    keys = []
    distinct: dict[tuple, Graph] = {}
    for block in blocks:
        index = {v: i for i, v in enumerate(block)}
        edges = tuple(
            (i, index[u]) for i, v in enumerate(block) for u in sorted(g.adj[v])
            if u in index and i < index[u]
        )
        key = (len(block), edges)
        if key not in distinct:
            distinct[key] = Graph.from_edges(len(block), edges)
        keys.append(key)
    cliques = {key: max_clique(h)[1] for key, h in distinct.items()}
    chi = 0
    local: dict[tuple, tuple[int, ...]] = {}
    for key in sorted(distinct, key=lambda key: -len(cliques[key].vertices)):
        witness = _color_block(distinct[key], cliques[key], chi)
        local[key] = witness.assignment
        chi = max(chi, witness.k)
    colors = [-1] * g.n
    for block, key in zip(blocks, keys):
        perm = list(range(chi))
        for v, c in zip(block, local[key]):
            if colors[v] != -1:
                # the one vertex already colored: swap its local color in
                perm[c], perm[colors[v]] = colors[v], c
                break
        for v, c in zip(block, local[key]):
            colors[v] = perm[c]
    return chi, ColoringWitness(chi, tuple(colors))
