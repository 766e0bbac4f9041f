"""Lower-bound witnesses for the chromatic number: the Mycielski chain and
the clique are checked against the exhaustive search and the brute-force
oracles, the validator is shown to reject broken witnesses, and blocks with
no Mycielski structure are shown to fall back to the search."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovaszgap import (
    CertificateError,
    CliqueWitness,
    Graph,
    MycielskiWitness,
    SearchWitness,
    chromatic_number,
    complete_graph,
    cycle_graph,
    is_k_colorable,
    kneser_graph,
    max_clique,
    mycielski_lower_bound,
    mycielskian,
    triangle_free_chromatic,
)

from oracles import brute_force_chromatic, brute_force_max_clique


def assert_witnesses_hold(g, result):
    """Every witness validates, and the lower bound pins chi unless it is
    the search's own record."""
    result.coloring.validate(g)
    result.clique.validate(g)
    result.chi_lower.validate(g)
    assert result.coloring.k == result.chi
    assert result.chi_lower.bound <= result.chi
    if result.chi_lower.kind != "search":
        assert result.chi_lower.bound == result.chi


def chain_shape(witness):
    return len(witness.layers), witness.base.vertices


# ---------------------------------------------------------------------------
# differential: certificate against exhaustive search and oracles


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_certificate_chi_matches_exhaustive_search(q):
    g = triangle_free_chromatic(q)
    result = chromatic_number(g)
    assert result.chi_lower.kind == "mycielski"
    assert_witnesses_hold(g, result)
    depth, base = chain_shape(result.chi_lower)
    assert depth == q - 2 and len(base) == 2
    # the exhaustive disproof the certificate replaces (M6 takes seconds)
    assert is_k_colorable(g, q - 1) is None
    assert is_k_colorable(g, q) is not None
    assert result.chi == q


@st.composite
def connected_graphs(draw, max_n: int = 6):
    """A random spanning tree on 1..max_n vertices plus random extra edges."""
    n = draw(st.integers(1, max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
    return Graph.from_edges(n, edges)


@st.composite
def shuffled_mycielskians(draw):
    """The Mycielskian of a small connected graph (at most 13 vertices),
    with its ids shuffled and sometimes a few edges added."""
    g = mycielskian(draw(connected_graphs()))
    edges = set(g.edges())
    if draw(st.booleans()):
        pairs = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)]
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=3)))
    relabel = draw(st.permutations(range(g.n)))
    return Graph.from_edges(g.n, [(relabel[u], relabel[v]) for u, v in edges])


@given(shuffled_mycielskians())
@settings(max_examples=120, deadline=None)
def test_mycielskians_match_brute_force(g):
    result = chromatic_number(g)
    assert result.chi == brute_force_chromatic(g)
    assert len(result.clique.vertices) == brute_force_max_clique(g)
    assert_witnesses_hold(g, result)


def test_witnesses_hold_on_corpus(corpus):
    for name, g in corpus.items():
        assert_witnesses_hold(g, chromatic_number(g))


def test_mycielskian_of_a_clique_is_certified():
    # M(K4): the chain's base is the inner K4, so chi = 5 needs no search
    g = mycielskian(complete_graph(4))
    result = chromatic_number(g)
    assert result.chi == 5
    assert chain_shape(result.chi_lower) == (1, (0, 1, 2, 3))
    assert_witnesses_hold(g, result)


def test_chain_ids_follow_the_graph():
    # two Mycielski blocks glued at a cut vertex: the witness names the
    # vertices of the block that needs the most colors, in graph ids
    m4 = triangle_free_chromatic(4)
    m3 = triangle_free_chromatic(3)
    edges = list(m3.edges()) + [(u + m3.n - 1, v + m3.n - 1) for u, v in m4.edges()]
    g = Graph.from_edges(m3.n + m4.n - 1, edges)
    result = chromatic_number(g)
    assert result.chi == 4
    assert_witnesses_hold(g, result)
    witness = result.chi_lower
    assert len(witness.layers) == 2 and min(witness.base.vertices) >= m3.n - 1
    assert all(apex >= m3.n - 1 for apex, _ in witness.layers)


# ---------------------------------------------------------------------------
# the validator rejects broken witnesses


M4 = triangle_free_chromatic(4)


def m4_witness() -> MycielskiWitness:
    witness = chromatic_number(M4).chi_lower
    assert isinstance(witness, MycielskiWitness)
    witness.validate(M4)
    return witness


def with_outer_shadows(witness, shadows) -> MycielskiWitness:
    """The witness with its outermost layer's shadow map replaced."""
    apex, _ = witness.layers[-1]
    return dataclasses.replace(witness, layers=witness.layers[:-1] + ((apex, shadows),))


def test_validator_rejects_shadow_of_the_wrong_original():
    witness = m4_witness()
    _, shadows = witness.layers[-1]
    (v0, s0), (v1, s1) = shadows[:2]
    assert M4.adj[v0] != M4.adj[v1]
    swapped = ((v0, s1), (v1, s0)) + shadows[2:]
    with pytest.raises(CertificateError, match="misses its neighbor"):
        with_outer_shadows(witness, swapped).validate(M4)


def test_validator_rejects_apex_missing_a_shadow():
    witness = m4_witness()
    apex, ((_, shadow), *_) = witness.layers[-1]
    broken = Graph.from_edges(M4.n, [e for e in M4.edges() if set(e) != {apex, shadow}])
    with pytest.raises(CertificateError, match="misses shadow"):
        witness.validate(broken)


def test_validator_rejects_shadow_inside_the_inner_set():
    witness = m4_witness()
    (v0, _), *rest = witness.layers[-1][1]
    inside = rest[0][0]  # another vertex of the inner set
    moved = ((v0, inside), *rest)
    with pytest.raises(CertificateError, match="inside the inner set"):
        with_outer_shadows(witness, moved).validate(M4)


@pytest.mark.parametrize("where", ["out of range", "inside"])
def test_validator_rejects_an_apex_out_of_range_or_inside_the_inner_set(where):
    witness = m4_witness()
    _, shadows = witness.layers[-1]
    apex = M4.n if where == "out of range" else shadows[0][0]
    moved = dataclasses.replace(witness, layers=witness.layers[:-1] + ((apex, shadows),))
    with pytest.raises(CertificateError, match=f"apex {apex} out of range or inside"):
        moved.validate(M4)


def test_validator_rejects_shadow_map_missing_an_inner_vertex():
    witness = m4_witness()
    with pytest.raises(CertificateError, match="cover"):
        with_outer_shadows(witness, witness.layers[-1][1][1:]).validate(M4)


def test_validator_rejects_clique_with_a_non_edge():
    with pytest.raises(CertificateError, match="misses edge"):
        CliqueWitness((0, 2)).validate(cycle_graph(5))
    inner_broken = MycielskiWitness(CliqueWitness((0, 2)), ((4, ((0, 3), (2, 1))),))
    with pytest.raises(CertificateError, match="misses edge"):
        inner_broken.validate(cycle_graph(5))


def test_search_witness_repeats_the_search():
    petersen = kneser_graph(5, 2)
    SearchWitness(tuple(range(10)), 3).validate(petersen)
    with pytest.raises(CertificateError, match="3-colorable"):
        SearchWitness(tuple(range(10)), 4).validate(petersen)


@pytest.mark.parametrize("vertices", [(1, 0), (0, 0), (0, 3), (-1, 0)])
def test_search_witness_rejects_vertices_unsorted_or_out_of_range(vertices):
    with pytest.raises(CertificateError, match="not sorted, distinct, in range"):
        SearchWitness(vertices, 2).validate(complete_graph(3))


# ---------------------------------------------------------------------------
# fallback: blocks with no Mycielski structure are searched


@pytest.mark.parametrize(
    "g,chi", [(kneser_graph(5, 2), 3), (cycle_graph(7), 3)], ids=["petersen", "C7"]
)
def test_non_mycielski_blocks_fall_back_to_search(g, chi):
    _, clique = max_clique(g)
    assert mycielski_lower_bound(g, clique) == clique
    result = chromatic_number(g)
    assert result.chi == chi
    assert result.chi_lower == SearchWitness(tuple(range(g.n)), chi)
    assert_witnesses_hold(g, result)


# omega = 4, chi = 5 and greedy DSATUR 6, with no Mycielski chain above the
# clique: found by a seeded random search (random.Random(3), 6-10 vertices)
SEARCHED_PAST_THE_CLIQUE = Graph.from_edges(
    10,
    [
        (0, 1), (0, 3), (0, 4), (0, 5), (0, 6), (0, 8), (0, 9), (1, 3), (1, 6),
        (1, 7), (1, 8), (2, 4), (2, 6), (2, 7), (2, 8), (2, 9), (3, 5), (3, 6),
        (3, 7), (3, 9), (4, 6), (4, 7), (4, 8), (4, 9), (6, 7), (6, 8), (6, 9),
    ],
)


def test_search_that_refutes_its_start_witnesses_chi_above_it():
    g = SEARCHED_PAST_THE_CLIQUE
    result = chromatic_number(g)
    # the search starts at the clique's 4, refutes it and colors with 5,
    # below the greedy 6
    assert (len(result.clique.vertices), result.chi, result.greedy_upper) == (4, 5, 6)
    assert result.chi == brute_force_chromatic(g)
    assert result.chi_lower == SearchWitness(tuple(range(g.n)), 5)
    assert_witnesses_hold(g, result)
