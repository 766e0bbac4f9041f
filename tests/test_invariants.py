import itertools
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lovaszgap.invariants as invariants
from lovaszgap import (
    CertificateError,
    CliqueWitness,
    ColoringWitness,
    GadgetSpec,
    Graph,
    ParameterError,
    build_gadget,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    greedy_dsatur_bound,
    is_k_colorable,
    kneser_graph,
    max_clique,
    mycielskian,
    triangle_free_chromatic,
    verify_biclique_certificate,
)

from conftest import graphs
from oracles import (
    branch_and_bound_clique,
    brute_force_chromatic,
    brute_force_max_clique,
    greedy_dsatur_coloring,
)

GROETZSCH = mycielskian(cycle_graph(5))


def test_max_clique_examples():
    assert max_clique(complete_graph(5))[0] == 5
    assert max_clique(complete_bipartite(3, 3))[0] == 2
    size, witness = max_clique(kneser_graph(5, 2))
    assert size == 2


def test_clique_witness_is_valid():
    size, witness = max_clique(GROETZSCH)
    witness.validate(GROETZSCH)
    assert size == len(witness.vertices) == 2


def test_is_k_colorable_odd_cycle():
    assert is_k_colorable(cycle_graph(5), 2) is None
    witness = is_k_colorable(cycle_graph(5), 3)
    assert witness is not None
    witness.validate(cycle_graph(5))


EMPTY = Graph.from_edges(0, [])
EDGELESS = Graph.from_edges(4, [])


@pytest.mark.parametrize(
    "g, k, expected",
    [
        (EMPTY, 0, ColoringWitness(0, ())),
        (EMPTY, 2, ColoringWitness(0, ())),
        (complete_graph(3), 0, None),
        (EDGELESS, 0, None),
        (EDGELESS, 1, ColoringWitness(1, (0,) * 4)),
        (EDGELESS, 3, ColoringWitness(1, (0,) * 4)),
        (complete_graph(4), 3, None),
    ],
    ids=["empty-k0", "empty-k2", "K3-k0", "edgeless-k0", "edgeless-k1", "edgeless-k3", "K4-k3"],
)
def test_is_k_colorable_on_the_edge_cases(g, k, expected):
    # the empty graph, k = 0, no edges, and a clique larger than k
    assert is_k_colorable(g, k) == expected


def test_is_k_colorable_rejects_a_negative_color_count():
    with pytest.raises(ParameterError, match="color count must be >= 0, got -1"):
        is_k_colorable(complete_graph(3), -1)


@pytest.mark.parametrize(
    "witness, g, message",
    [
        (ColoringWitness(2, (0, 1)), complete_graph(3), "coloring length disagrees"),
        (ColoringWitness(1, ()), EMPTY, "empty graph must have an empty coloring"),
        (ColoringWitness(2, (0, 1, 0, 1, 0)), cycle_graph(5), "monochromatic edge (0,4)"),
    ],
    ids=["length", "empty-graph", "monochromatic"],
)
def test_coloring_witness_rejects_each_fault(witness, g, message):
    with pytest.raises(CertificateError, match=re.escape(message)):
        witness.validate(g)


def test_clique_witness_rejects_a_vertex_out_of_range():
    with pytest.raises(CertificateError, match="clique vertex 3 out of range"):
        CliqueWitness((3,)).validate(complete_graph(3))


def test_groetzsch_not_three_colorable():
    assert is_k_colorable(GROETZSCH, 3) is None


@pytest.mark.slow
def test_groetzsch_brute_force_cross_check():
    # literal enumeration of all 3**11 assignments
    g = GROETZSCH
    edges = g.edges()
    assert not any(
        all(a[u] != a[v] for u, v in edges)
        for a in itertools.product(range(3), repeat=g.n)
    )


def test_chromatic_complete_graphs():
    for p in range(1, 7):
        chi, witness, _, _, _ = chromatic_number(complete_graph(p))
        assert chi == p
        witness.validate(complete_graph(p))


def test_chromatic_gadget():
    built = build_gadget(GadgetSpec(h=complete_graph(3), x=0, k=complete_graph(3), y=0))
    assert chromatic_number(built.graph)[0] == 3


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_chromatic_triangle_free(q):
    assert chromatic_number(triangle_free_chromatic(q))[0] == q


def test_greedy_bound_examples():
    assert greedy_dsatur_bound(complete_graph(4))[0] == 4
    assert greedy_dsatur_bound(cycle_graph(6))[0] == 2
    k, witness = greedy_dsatur_bound(cycle_graph(7))
    witness.validate(cycle_graph(7))


@st.composite
def bipartite_graphs(draw, max_side: int = 7):
    """Random edges between two sides, with the ids shuffled."""
    a, b = draw(st.integers(0, max_side)), draw(st.integers(1, max_side))
    pairs = [(u, a + v) for u in range(a) for v in range(b)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    ids = draw(st.permutations(range(a + b)))
    return Graph.from_edges(a + b, [(ids[u], ids[v]) for u, v in edges])


@given(bipartite_graphs())
@settings(max_examples=150, deadline=None)
def test_greedy_colors_bipartite_graphs_with_two_colors(g):
    # DSATUR is exact on bipartite graphs (Brelaz, 1979)
    upper, witness = greedy_dsatur_bound(g)
    witness.validate(g)
    assert upper <= 2


@given(graphs(max_n=12))
@settings(max_examples=150, deadline=None)
def test_greedy_is_brelaz_dsatur_within_max_degree_plus_one(g):
    upper, witness = greedy_dsatur_bound(g)
    witness.validate(g)
    assert witness.assignment == greedy_dsatur_coloring(g)
    assert upper <= max((g.degree(v) for v in range(g.n)), default=-1) + 1


@st.composite
def dense_graphs(draw, max_n: int = 14):
    """Each pair an edge with probability 0.6."""
    n = draw(st.integers(1, max_n))
    pairs = itertools.combinations(range(n), 2)
    return Graph.from_edges(n, [e for e in pairs if draw(st.integers(0, 9)) < 6])


class _CountingMasks(list):
    lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return super().__getitem__(v)


@given(dense_graphs())
@settings(max_examples=200, deadline=None)
def test_max_clique_follows_the_recursive_search_order(g):
    # max_clique reads its adjacency masks once per vertex it colors and once
    # per branch it takes, so equal witnesses and equal step counts mean the
    # stack walk keeps the recursive search's branching order and candidates
    made: list[_CountingMasks] = []
    adj_masks = invariants._adj_masks

    def counting_masks(h):
        made.append(_CountingMasks(adj_masks(h)))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(invariants, "_adj_masks", counting_masks)
        size, witness = max_clique(g)
    assert (witness.vertices, made[0].lookups) == branch_and_bound_clique(g)
    assert size == len(witness.vertices) == brute_force_max_clique(g)


def test_max_clique_depth_is_not_bounded_by_the_recursion_limit():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    n = depth + 100
    g = complete_graph(n)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        size, witness = max_clique(g)
    finally:
        sys.setrecursionlimit(old)
    assert size == n and witness.vertices == tuple(range(n))


def test_empty_and_trivial_graphs():
    empty = Graph.from_edges(0, [])
    assert chromatic_number(empty)[:2] == (0, is_k_colorable(empty, 0))
    assert max_clique(empty)[0] == 0
    single = Graph.from_edges(1, [])
    assert chromatic_number(single)[0] == 1
    assert max_clique(single)[0] == 1


@given(graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_solvers_match_brute_force(g):
    chi, cw, _, _, _ = chromatic_number(g)
    assert chi == brute_force_chromatic(g)
    cw.validate(g)
    size, qw = max_clique(g)
    assert size == brute_force_max_clique(g)
    qw.validate(g)


def test_chromatic_long_odd_cycle():
    # deeper than Python's recursion limit: the search must be iterative
    g = cycle_graph(1201)
    chi, witness, _, _, _ = chromatic_number(g)
    assert chi == 3
    witness.validate(g)


@st.composite
def block_graphs(draw):
    """2-4 small random graphs (up to 7 vertices each, 12 in all, so that
    the brute-force oracle stays fast), each glued to the graph so far at a
    shared cut vertex, joined to it by a bridge edge, or left disjoint;
    then a few isolated vertices, and all ids shuffled."""
    n = 0
    budget = 12
    edges: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(2, 4))):
        part = draw(graphs(max_n=max(1, min(7, budget))))
        budget -= part.n
        how = draw(st.sampled_from(["glue", "bridge", "disjoint"])) if n else "disjoint"
        ids = list(range(n, n + part.n))
        if how == "glue":
            shared = draw(st.integers(0, part.n - 1))
            ids = ids[:shared] + [draw(st.integers(0, n - 1))] + ids[shared:-1]
        elif how == "bridge":
            edges.append((draw(st.integers(0, n - 1)), draw(st.sampled_from(ids))))
        edges.extend((ids[u], ids[v]) for u, v in part.edges())
        n += part.n - (how == "glue")
    n += draw(st.integers(0, 2))
    relabel = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(relabel[u], relabel[v]) for u, v in edges])


@given(block_graphs())
@settings(max_examples=150, deadline=None)
def test_block_split_matches_brute_force(g):
    chi, witness, _, _, _ = chromatic_number(g)
    assert chi == brute_force_chromatic(g)
    witness.validate(g)
    assert witness.k == chi


@given(graphs(max_n=9))
@settings(max_examples=80, deadline=None)
def test_sandwich_inequality(g):
    omega, _ = max_clique(g)
    chi = chromatic_number(g).chi
    upper, _ = greedy_dsatur_bound(g)
    assert omega <= chi <= upper


def test_solver_determinism():
    g = kneser_graph(5, 2)
    assert chromatic_number(g) == chromatic_number(g)
    assert max_clique(g) == max_clique(g)
    assert greedy_dsatur_bound(g) == greedy_dsatur_bound(g)


def test_biclique_certificates():
    assert verify_biclique_certificate(complete_bipartite(2, 3), [0, 1], [2, 3, 4])
    assert verify_biclique_certificate(cycle_graph(4), [0, 2], [1, 3])
    assert verify_biclique_certificate(complete_graph(3), [0], [1, 2])
    assert not verify_biclique_certificate(cycle_graph(5), [0, 2], [1, 3])


def test_biclique_certificate_errors():
    g = complete_graph(4)
    with pytest.raises(CertificateError):
        verify_biclique_certificate(g, [0, 1], [1, 2])
    with pytest.raises(CertificateError):
        verify_biclique_certificate(g, [0], [7])
    with pytest.raises(CertificateError):
        verify_biclique_certificate(g, [], [1])


def test_coloring_witness_requires_all_colors():
    from lovaszgap import ColoringWitness

    with pytest.raises(CertificateError):
        ColoringWitness(3, (0, 1, 0)).validate(cycle_graph(3))
