"""Finite simple graphs and the constructions the verification pipelines run on.

Vertex ids are contiguous 0-based integers everywhere.  Composites (the
Mycielskian, the gadget and the separation block) are glued from their
parts' adjacency sets, each part's ids offset by the vertices of the parts
before it, and only the new edges are added.  Composite constructions
(gadget, corollary graph) return explicit offset information so that
witnesses located in a building block can be found again in the composite.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .errors import ParameterError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    ``adj[v]`` is the neighbor set of ``v``.  Instances are immutable; all
    operations in this package are pure functions over them.
    """

    n: int
    adj: tuple[frozenset[int], ...]

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        if n < 0:
            raise ParameterError(f"vertex count must be non-negative, got {n}")
        sets: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ParameterError(f"loop at vertex {u} not allowed")
            sets[u].add(v)
            sets[v].add(u)
        # from a list, not a generator: CPython builds a tuple from a
        # generator at a guessed size and resizes it, which strands the
        # block on another size's free list until a full collection
        return Graph(n, tuple([frozenset(s) for s in sets]))

    @property
    def m(self) -> int:
        return sum(len(s) for s in self.adj) // 2

    def edges(self) -> list[Edge]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return [
            (u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v
        ]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]


def _glue(parts, edges=(), fresh: int = 0) -> Graph:
    """The parts' adjacency side by side, each part's ids shifted by the
    vertices of the parts before it, then ``fresh`` new vertices, then
    ``edges`` over the combined ids.  The callers' edges are in range and
    loop-free by construction, so nothing is checked again."""
    sets: list[set[int]] = []
    for part in parts:
        off = len(sets)  # read before extend consumes the generator
        sets.extend({off + u for u in s} for s in part.adj)
    sets.extend(set() for _ in range(fresh))
    for u, v in edges:
        sets[u].add(v)
        sets[v].add(u)
    # a tuple from a list, for the reason given in Graph.from_edges
    return Graph(len(sets), tuple([frozenset(s) for s in sets]))


# ---------------------------------------------------------------------------
# standard families


def complete_graph(p: int) -> Graph:
    if p < 1:
        raise ParameterError(f"complete graph needs p >= 1, got {p}")
    return Graph.from_edges(p, itertools.combinations(range(p), 2))


def complete_bipartite(l: int, m: int) -> Graph:
    """K_{l,m} with left part 0..l-1 and right part l..l+m-1."""
    if l < 1 or m < 1:
        raise ParameterError(f"complete bipartite needs l, m >= 1, got ({l},{m})")
    return Graph.from_edges(
        l + m, ((u, l + v) for u in range(l) for v in range(m))
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ParameterError(f"cycle needs n >= 3 to stay a simple graph, got {n}")
    return Graph.from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def kneser_graph(n: int, k: int) -> Graph:
    """Vertices are the k-subsets of {0..n-1} in lexicographic order,
    adjacent iff disjoint."""
    if k < 1 or n < 2 * k:
        raise ParameterError(f"kneser needs n >= 2k >= 2, got (n={n}, k={k})")
    subsets = [frozenset(c) for c in itertools.combinations(range(n), k)]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(subsets)), 2)
        if not (subsets[i] & subsets[j])
    ]
    return Graph.from_edges(len(subsets), edges)


# ---------------------------------------------------------------------------
# chromatic-number-raising constructions


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction, glued onto ``g``: original vertices 0..n-1,
    shadow vertices n..2n-1 (shadow i adjacent to the neighbors of i), apex
    2n adjacent to every shadow.  Raises the chromatic number by one without
    creating triangles."""
    if g.n < 1:
        raise ParameterError("mycielskian needs at least one vertex")
    n = g.n
    shadows = [(n + v, u) for v in range(n) for u in g.adj[v]]
    return _glue((g,), shadows + [(n + v, 2 * n) for v in range(n)], fresh=n + 1)


def triangle_free_chromatic(q: int) -> Graph:
    """Triangle-free graph with chromatic number exactly q: the (q-2)-fold
    Mycielski iterate of a single edge."""
    if q < 2:
        raise ParameterError(f"target chromatic number must be >= 2, got {q}")
    g = complete_graph(2)
    for _ in range(q - 2):
        g = mycielskian(g)
    return g


# CLI family name -> (builder, its integer parameters in call order); the
# ``construct`` subcommands and their flags are made from this table
FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[str, ...]]] = {
    "complete": (complete_graph, ("p",)),
    "bipartite": (complete_bipartite, ("l", "m")),
    "cycle": (cycle_graph, ("n",)),
    "kneser": (kneser_graph, ("n", "k")),
    "trianglefree": (triangle_free_chromatic, ("q",)),
}


# ---------------------------------------------------------------------------
# the bridged gadget


@dataclass(frozen=True)
class GadgetSpec:
    """Two graphs to be joined by a two-edge bridge through a fresh vertex.

    ``x`` and ``y`` are the attachment vertices inside ``h`` and ``k``.
    Connectivity / non-bipartiteness of the parts is only required by the
    wedge verifier, not by the construction itself.
    """

    h: Graph
    x: int
    k: Graph
    y: int

    def validate(self) -> None:
        if not (0 <= self.x < self.h.n):
            raise ParameterError(f"attachment vertex x={self.x} not in first graph")
        if not (0 <= self.y < self.k.n):
            raise ParameterError(f"attachment vertex y={self.y} not in second graph")


@dataclass(frozen=True)
class GadgetResult:
    graph: Graph
    z: int
    x: int  # position of the first attachment vertex in the composite
    y: int  # position of the second attachment vertex in the composite


def build_gadget(spec: GadgetSpec) -> GadgetResult:
    """The two graphs glued side by side plus a bridge vertex z adjacent to
    exactly the two attachment vertices.  First graph keeps its ids, second
    graph is shifted by ``h.n``, and ``z = h.n + k.n``."""
    spec.validate()
    y = spec.h.n + spec.y
    z = spec.h.n + spec.k.n
    graph = _glue((spec.h, spec.k), ((spec.x, z), (y, z)), fresh=1)
    return GadgetResult(graph=graph, z=z, x=spec.x, y=y)


# ---------------------------------------------------------------------------
# the separation construction


@dataclass(frozen=True)
class CorollaryParams:
    """Parameters of the separation graph: biclique sides l, m; clique size
    p; target chromatic number q."""

    l: int
    m: int
    p: int
    q: int

    def validate(self) -> None:
        if self.l < 1 or self.m < 1:
            raise ParameterError(f"biclique sides must be positive, got ({self.l},{self.m})")
        if self.p < 2:
            raise ParameterError(f"clique size must be >= 2, got {self.p}")
        if self.q < self.p:
            raise ParameterError(f"need p <= q, got p={self.p}, q={self.q}")
        if self.q < 3:
            raise ParameterError(
                "q >= 3 required: with q = 2 the block graph is bipartite and "
                "the wedge verifier's hypotheses fail"
            )


@dataclass(frozen=True)
class CorollaryResult:
    graph: Graph
    biclique_left: tuple[int, ...]
    biclique_right: tuple[int, ...]
    clique: tuple[int, ...]
    s_first: int
    s_second: int
    z: int


def _corollary_block(params: CorollaryParams) -> Graph:
    """One block: K_p, K_{l,m} and the triangle-free q-chromatic graph glued
    side by side in that order, joined by the two edges {a,c} and {b,d} with
    a=0, b=1 in the clique, c = first biclique vertex, d = first vertex of
    the triangle-free part."""
    p, l, m = params.p, params.l, params.m
    parts = (complete_graph(p), complete_bipartite(l, m), triangle_free_chromatic(params.q))
    return _glue(parts, ((0, p), (1, p + l + m)))  # a-c, b-d


def build_corollary_graph(params: CorollaryParams) -> CorollaryResult:
    """Gadget over two disjoint copies of the block graph, bridged at vertex
    0 of each copy.  Returns witness locations: the biclique sides of the
    first copy, the clique of the first copy, both designated vertices, and
    the bridge."""
    params.validate()
    block = _corollary_block(params)
    built = build_gadget(GadgetSpec(h=block, x=0, k=block, y=0))
    left = tuple(range(params.p, params.p + params.l))
    right = tuple(range(params.p + params.l, params.p + params.l + params.m))
    return CorollaryResult(
        graph=built.graph,
        biclique_left=left,
        biclique_right=right,
        clique=tuple(range(params.p)),
        s_first=built.x,
        s_second=built.y,
        z=built.z,
    )


# ---------------------------------------------------------------------------
# structure checks


def connected_components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    comps: list[list[int]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        stack = [start]
        while stack:
            v = stack.pop()
            for u in g.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def biconnected_components(g: Graph) -> list[tuple[int, ...]]:
    """Blocks of the graph as sorted vertex tuples: its maximal 2-connected
    subgraphs, its bridges (two vertices each) and its isolated vertices
    (one each).  Every edge lies in exactly one block.

    Iterative Hopcroft–Tarjan: depth-first from each root in id order,
    neighbors in sorted order, so the result is deterministic.  Blocks are
    listed parents first in the block–cut tree (reversed completion order),
    so each block meets the union of the blocks before it in at most one
    vertex, its cut vertex towards the root."""
    disc = [-1] * g.n
    low = [0] * g.n
    nbrs = [sorted(s) for s in g.adj]
    blocks: list[tuple[int, ...]] = []
    counter = 0
    for root in range(g.n):
        if disc[root] != -1:
            continue
        if not nbrs[root]:
            blocks.append((root,))
            continue
        disc[root] = low[root] = counter
        counter += 1
        pending = [root]  # vertices not yet assigned to a block
        frames = [(root, -1, iter(nbrs[root]))]
        while frames:
            v, parent, it = frames[-1]
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    counter += 1
                    pending.append(w)
                    frames.append((w, v, iter(nbrs[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                frames.pop()
                if parent == -1:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    # parent separates v's subtree: close the block
                    block = [parent]
                    while True:
                        u = pending.pop()
                        block.append(u)
                        if u == v:
                            break
                    blocks.append(tuple(sorted(block)))
    blocks.reverse()
    return blocks


def is_connected(g: Graph) -> bool:
    """True iff the graph has at most one component (empty graph counts as
    connected)."""
    return g.n <= 1 or len(connected_components(g)) == 1


def is_bipartite(g: Graph) -> tuple[bool, list[int]]:
    """BFS 2-coloring.  Returns ``(True, coloring)`` with colors in {0,1},
    or ``(False, walk)`` where ``walk`` is an odd closed walk given as a
    vertex sequence whose first and last entries coincide."""
    color = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        for v in queue:  # BFS: the loop visits what it appends
            for u in sorted(g.adj[v]):
                if color[u] == -1:
                    color[u] = 1 - color[v]
                    parent[u] = v
                    queue.append(u)
                elif color[u] == color[v]:
                    return False, _odd_closed_walk(parent, v, u)
    return True, color


def _odd_closed_walk(parent: list[int], u: int, v: int) -> list[int]:
    def to_root(w: int) -> list[int]:
        path = [w]
        while parent[path[-1]] != -1:
            path.append(parent[path[-1]])
        return path

    up = to_root(u)  # u .. root
    down = to_root(v)  # v .. root
    # root .. u, then the conflicting edge to v, then v .. root
    return list(reversed(up)) + down
