import itertools
import math
import random
import re

import pytest
from hypothesis import given, settings

from lovaszgap import (
    CorollaryParams,
    GadgetSpec,
    Graph,
    ParameterError,
    biconnected_components,
    build_corollary_graph,
    build_gadget,
    complete_bipartite,
    complete_graph,
    connected_components,
    cycle_graph,
    is_bipartite,
    is_connected,
    kneser_graph,
    mycielskian,
    triangle_free_chromatic,
)
from lovaszgap.cli import main
from lovaszgap.dimacs import read_graph
from lovaszgap.graphs import FAMILIES

from conftest import graphs
from oracles import brute_force_triangle_free, edge_list_composite, validate_graph


def test_complete_graph():
    g = complete_graph(3)
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.n == 5
    assert g.m == 6
    bip, coloring = is_bipartite(g)
    assert bip
    assert coloring[0] == coloring[1] != coloring[2]


def test_kneser_petersen():
    g = kneser_graph(5, 2)
    assert g.n == 10
    assert g.m == 15
    assert all(g.degree(v) == 3 for v in range(g.n))


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)])
def test_kneser_degree_formula(n, k):
    g = kneser_graph(n, k)
    expected = math.comb(n - k, k)
    assert all(g.degree(v) == expected for v in range(g.n))


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", {"p": 0}),
        ("bipartite", {"l": 0, "m": 2}),
        ("cycle", {"n": 2}),
        ("kneser", {"n": 3, "k": 2}),
        ("kneser", {"n": 2, "k": 0}),
        ("trianglefree", {"q": 1}),
    ],
)
def test_family_parameter_errors(family, params):
    build, names = FAMILIES[family]
    with pytest.raises(ParameterError):
        build(*(params[name] for name in names))


def test_construct_family_dispatch(tmp_path, capsys):
    sample = {"p": 3, "l": 2, "m": 3, "n": 5, "k": 2, "q": 4}
    for family, (build, names) in FAMILIES.items():
        out = tmp_path / f"{family}.col"
        flags = [arg for name in names for arg in (f"--{name}", str(sample[name]))]
        assert main(["construct", family, *flags, "-o", str(out)]) == 0
        assert read_graph(str(out)) == build(*(sample[name] for name in names))
    capsys.readouterr()
    assert main(["construct", "moebius", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:usage:") and err.count("\n") == 1


def test_mycielskian_of_edge_is_five_cycle():
    g = mycielskian(complete_graph(2))
    assert g.n == 5
    assert g.m == 5
    assert all(g.degree(v) == 2 for v in range(5))
    assert is_connected(g)
    assert not is_bipartite(g)[0]


def test_mycielskian_groetzsch():
    g = mycielskian(cycle_graph(5))
    assert g.n == 11
    assert g.m == 20
    assert brute_force_triangle_free(g)


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_mycielskian_edge_count(g):
    m = mycielskian(g)
    validate_graph(m)
    assert m.n == 2 * g.n + 1
    assert m.m == 3 * g.m + g.n


@given(graphs(max_n=7))
@settings(max_examples=40)
def test_mycielskian_preserves_triangle_freeness(g):
    if brute_force_triangle_free(g):
        assert brute_force_triangle_free(mycielskian(g))


@pytest.mark.parametrize("q,n", [(2, 2), (3, 5), (4, 11), (5, 23)])
def test_triangle_free_chromatic_sizes(q, n):
    g = triangle_free_chromatic(q)
    assert g.n == n
    assert brute_force_triangle_free(g)


def test_triangle_free_chromatic_rejects_small_q():
    with pytest.raises(ParameterError):
        triangle_free_chromatic(1)


def test_gadget_k3_k3():
    built = build_gadget(GadgetSpec(h=complete_graph(3), x=0, k=complete_graph(3), y=0))
    g = built.graph
    assert g.n == 7
    assert g.m == 8
    assert built.z == 6
    assert g.degree(built.z) == 2
    assert sorted(g.adj[built.z]) == [built.x, built.y]


def test_gadget_c5_k3():
    built = build_gadget(GadgetSpec(h=cycle_graph(5), x=2, k=complete_graph(3), y=1))
    assert built.graph.n == 9
    assert built.graph.m == 10
    assert built.x == 2
    assert built.y == 5 + 1


def test_gadget_rejects_bad_attachment():
    with pytest.raises(ParameterError):
        build_gadget(GadgetSpec(h=complete_graph(3), x=3, k=complete_graph(3), y=0))
    with pytest.raises(ParameterError, match="y=-1 not in second graph"):
        build_gadget(GadgetSpec(h=complete_graph(3), x=0, k=complete_graph(3), y=-1))


@given(graphs(max_n=6, min_n=1), graphs(max_n=6, min_n=1))
@settings(max_examples=40)
def test_gadget_counts(h, k):
    built = build_gadget(GadgetSpec(h=h, x=0, k=k, y=0))
    validate_graph(built.graph)
    assert built.graph.n == h.n + k.n + 1
    assert built.graph.m == h.m + k.m + 2
    assert built.graph.degree(built.z) == 2


@pytest.mark.parametrize(
    "params,block,total",
    [((2, 2, 3, 3), 12, 25), ((2, 3, 3, 4), 19, 39), ((1, 2, 2, 3), 10, 21)],
)
def test_corollary_graph_sizes(params, block, total):
    built = build_corollary_graph(CorollaryParams(*params))
    # the second block starts at vertex block and the bridge follows it
    assert built.z == 2 * block
    assert built.graph.n == total
    assert built.graph.degree(built.z) == 2
    assert sorted(built.graph.adj[built.z]) == sorted([built.s_first, built.s_second])
    validate_graph(built.graph)


@pytest.mark.parametrize("params", [(2, 2, 1, 3), (2, 2, 3, 2), (2, 2, 2, 2), (0, 2, 2, 3)])
def test_corollary_params_rejected(params):
    with pytest.raises(ParameterError):
        build_corollary_graph(CorollaryParams(*params))


# ---------------------------------------------------------------------------
# the glued composites against the edge-list reference


def reference_mycielskian(g):
    n = g.n
    shadows = [(n + v, u) for v in range(n) for u in sorted(g.adj[v])]
    return edge_list_composite((g,), shadows + [(n + v, 2 * n) for v in range(n)], n + 1)


def reference_gadget(h, x, k, y):
    z = h.n + k.n
    return edge_list_composite((h, k), [(x, z), (h.n + y, z)], 1)


def reference_corollary(l, m, p, q):
    tfree = complete_graph(2)
    for _ in range(q - 2):
        tfree = reference_mycielskian(tfree)
    parts = (complete_graph(p), complete_bipartite(l, m), tfree)
    block = edge_list_composite(parts, [(0, p), (1, p + l + m)])
    return reference_gadget(block, 0, block, 0)


def test_mycielski_iterates_equal_the_edge_list_reference():
    reference = complete_graph(2)
    for q in range(3, 9):
        reference = reference_mycielskian(reference)
        assert triangle_free_chromatic(q) == reference


def test_mycielskians_of_the_corpus_equal_the_edge_list_reference(corpus):
    for g in corpus.values():
        assert mycielskian(g) == reference_mycielskian(g)


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_corollary_graphs_equal_the_edge_list_reference(q):
    # three parts in a block: an offset read after the list grew would
    # shift the triangle-free part
    for l, m in itertools.product(range(1, 4), repeat=2):
        for p in range(2, q + 1):
            built = build_corollary_graph(CorollaryParams(l, m, p, q))
            assert built.graph == reference_corollary(l, m, p, q)


def test_gadgets_equal_the_edge_list_reference(corpus):
    rng = random.Random(5)
    for h, k in itertools.product(corpus.values(), repeat=2):
        for x, y in [(0, 0), (h.n - 1, k.n - 1), (rng.randrange(h.n), rng.randrange(k.n))]:
            built = build_gadget(GadgetSpec(h=h, x=x, k=k, y=y))
            assert built.graph == reference_gadget(h, x, k, y)
            assert (built.x, built.y, built.z) == (x, h.n + y, h.n + k.n)


def test_bipartite_witnesses():
    bip, coloring = is_bipartite(cycle_graph(4))
    assert bip
    assert all(coloring[u] != coloring[v] for u, v in cycle_graph(4).edges())

    bip, walk = is_bipartite(cycle_graph(5))
    assert not bip
    assert walk[0] == walk[-1]
    assert (len(walk) - 1) % 2 == 1
    g = cycle_graph(5)
    assert all(g.has_edge(walk[i], walk[i + 1]) for i in range(len(walk) - 1))

    assert is_bipartite(complete_bipartite(3, 3))[0]


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_bipartite_witness_always_valid(g):
    bip, witness = is_bipartite(g)
    if bip:
        assert all(witness[u] != witness[v] for u, v in g.edges())
    else:
        assert witness[0] == witness[-1]
        assert (len(witness) - 1) % 2 == 1
        assert all(g.has_edge(witness[i], witness[i + 1]) for i in range(len(witness) - 1))


def test_connectivity():
    assert is_connected(complete_graph(3))
    assert is_connected(Graph.from_edges(0, []))
    assert is_connected(Graph.from_edges(1, []))
    two = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    assert not is_connected(two)
    assert len(connected_components(two)) == 2
    built = build_gadget(GadgetSpec(h=complete_graph(3), x=0, k=complete_graph(3), y=0))
    assert is_connected(built.graph)


def test_graph_validation_errors():
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ParameterError, match="vertex count must be non-negative, got -1"):
        Graph.from_edges(-1, [])


def test_mycielskian_rejects_the_empty_graph():
    with pytest.raises(ParameterError, match="needs at least one vertex"):
        mycielskian(Graph.from_edges(0, []))


def test_corpus_graphs_validate(corpus):
    for g in corpus.values():
        validate_graph(g)


@pytest.mark.parametrize(
    "n, adj, message",
    [
        (3, [{1}, {0}], "2 neighbour sets for 3 vertices"),
        (2, [{1}, set()], "arc (0,1) without its reverse"),
        (2, [{0, 1}, {0}], "loop at vertex 0"),
        (2, [{2}, set()], "neighbour 2 of 0 out of range"),
    ],
)
def test_graph_checker_rejects_each_fault(n, adj, message):
    bad = Graph(n, tuple(frozenset(s) for s in adj))
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_graph(bad)


def test_biconnected_components_fixed_graph():
    # triangles {0,1,2} and {2,3,4} share the cut vertex 2; {4,5} is a
    # pendant edge; 6 is isolated
    g = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (4, 5)]
    )
    blocks = biconnected_components(g)
    assert sorted(blocks) == [(0, 1, 2), (2, 3, 4), (4, 5), (6,)]
    assert blocks == biconnected_components(g)


def _connected_without(g, keep) -> bool:
    keep = set(keep)
    start = min(keep)
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in g.adj[v]:
            if u in keep and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == keep


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_biconnected_components_properties(g):
    blocks = biconnected_components(g)
    # every edge in exactly one block, every vertex in some block
    owners = {e: [b for b in blocks if e[0] in b and e[1] in b] for e in g.edges()}
    assert all(len(found) == 1 for found in owners.values())
    assert set().union(*map(set, blocks)) == set(range(g.n))
    seen: set[int] = set()
    for block in blocks:
        assert list(block) == sorted(set(block))
        # parents first: at most one vertex shared with earlier blocks
        assert len(seen & set(block)) <= 1
        seen |= set(block)
        if len(block) == 1:
            assert not g.adj[block[0]]
        elif len(block) >= 3:
            # 2-connected: no single vertex disconnects the block
            assert all(
                _connected_without(g, set(block) - {v}) for v in block
            )
        else:
            assert g.has_edge(*block)
    # maximality: the block-vertex incidence graph is a forest, so no
    # cycle of g runs through two blocks
    parent = list(range(g.n + len(blocks)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i, block in enumerate(blocks):
        for v in block:
            a, b = find(v), find(g.n + i)
            assert a != b
            parent[a] = b
