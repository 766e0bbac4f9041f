"""Lower-bound witnesses for the chromatic number: the Mycielski chain and
the clique are checked against the exhaustive search and the brute-force
oracles, the validator is shown to reject broken witnesses, and blocks with
no Mycielski structure are shown to fall back to the search.  The conn = 0
witness read off the graph is checked against the homology pass, and its
validator is shown to reject each broken part of it."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovaszgap import (
    CertificateError,
    CliqueWitness,
    ConnZeroWitness,
    CorollaryParams,
    Graph,
    MycielskiWitness,
    SearchWitness,
    build_corollary_graph,
    chromatic_number,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    find_conn_zero_witness,
    homology_pass,
    is_k_colorable,
    kneser_graph,
    max_clique,
    mycielski_lower_bound,
    mycielskian,
    neighborhood_complex,
    neighborhood_components,
    triangle_free_chromatic,
)

from conftest import PASS_ONLY, graphs, skeleton_walk
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


# ---------------------------------------------------------------------------
# the conn = 0 witness read off the graph


def certified(g) -> bool:
    return homology_pass(neighborhood_complex(g), 1).certificate.certified_conn_zero


def assert_witness_is_sound(g):
    """A witness the finder gives validates, and the pass certifies conn = 0
    on the same graph; the converse is not claimed."""
    witness = find_conn_zero_witness(g)
    if witness is not None:
        witness.validate(g)
        assert certified(g)
    return witness


@given(graphs(max_n=9))
@settings(max_examples=300, deadline=None)
def test_a_validated_witness_implies_the_pass_certifies(g):
    assert_witness_is_sound(g)


def test_a_validated_witness_implies_the_pass_certifies_on_corpus(corpus):
    found = [name for name, g in corpus.items() if assert_witness_is_sound(g)]
    # the star cocycle is found on every corpus graph the pass certifies
    assert found == [name for name, g in corpus.items() if certified(g)]


@given(graphs(max_n=8), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_the_graph_side_count_is_the_passs_component_count(g, k):
    # the count of N(G)'s components read off G is the pass's, so N(G) is
    # nonempty and disconnected on the graph side iff the pass gives
    # conn = -1; isolated vertices change neither side
    padded = Graph.from_edges(g.n + k, g.edges())
    components = neighborhood_components(padded)
    assert components == neighborhood_components(g)
    c = neighborhood_complex(padded)
    vertices, _, forest = skeleton_walk(c)
    assert components == vertices - len(forest)
    conn = homology_pass(c, 1).certificate.homological_connectivity
    assert (components > 1) == (conn == -1)
    assert conn == homology_pass(neighborhood_complex(g), 1).certificate.homological_connectivity


def test_the_graph_side_count_matches_the_pass_on_corpus(corpus):
    for name, g in corpus.items():
        c = neighborhood_complex(g)
        vertices, _, forest = skeleton_walk(c)
        assert neighborhood_components(g) == vertices - len(forest), name
        conn = homology_pass(c, 1).certificate.homological_connectivity
        assert (neighborhood_components(g) > 1) == (conn == -1), name


@pytest.mark.parametrize("p, q", [(p, q) for q in range(3, 8) for p in range(2, min(q, 4) + 1)])
def test_every_separation_graph_carries_a_witness(p, q):
    g = build_corollary_graph(CorollaryParams(2, 2, p, q)).graph
    find_conn_zero_witness(g).validate(g)


@pytest.mark.parametrize("n", [4, 6, 40])
def test_no_witness_on_a_complete_graph(n):
    # N(K_n) is the boundary of an (n - 1)-simplex, a sphere of dimension
    # n - 2 >= 2; every neighbour of z shares a neighbour with the others,
    # so each star is given up once A holds them all
    assert find_conn_zero_witness(complete_graph(n)) is None


def test_the_finder_misses_what_only_the_pass_certifies():
    assert find_conn_zero_witness(PASS_ONLY) is None
    assert neighborhood_components(PASS_ONLY) == 1 and certified(PASS_ONLY)


# K4 less the edge 23, with a pendant 4 at 2: the star at 0 splits its
# neighbours into the classes {1} and {2, 3}, since 2 and 3 share 1
STAR = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4)])
STAR_WITNESS = ConnZeroWitness(0, (1,), ((0, 1, 2), (2, 0, 1), (1, 2, 0)))


def test_the_finder_gives_the_star_witness():
    assert find_conn_zero_witness(STAR) == STAR_WITNESS
    STAR_WITNESS.validate(STAR)


@pytest.mark.parametrize(
    "part, message",
    [
        ((1, 2), "pairs to 0"),  # 2 moved into A: the walk returns from S
        ((1, 3), "no cocycle at common neighbour 2"),  # 3 moved into A
        ((), "empty or all"),  # 1 moved out of A
        ((1, 2, 3), "empty or all"),
        ((2, 1), "not sorted"),
        ((1, 4), "inside N"),
    ],
)
def test_the_conn_zero_validator_rejects_a_moved_or_bad_part(part, message):
    with pytest.raises(CertificateError, match=message):
        dataclasses.replace(STAR_WITNESS, part=part).validate(STAR)


@pytest.mark.parametrize(
    "walk, message",
    [
        # 4 is a neighbour of 2, not of 1
        (((0, 1, 2), (2, 4, 1), (1, 2, 0)), r"step \(2,4,1\) is no edge"),
        (((0, 1, 2), (2, 1, 2), (2, 0, 0)), r"step \(2,1,2\) is no edge"),
        (((0, 1, 2), (2, 0, 1)), "does not close"),
        (((0, 1, 2), (1, 2, 0)), "breaks or does not close"),
        # there and back: every step an edge, and the pairing +1 - 1
        (((0, 1, 2), (2, 1, 0)), "pairs to 0"),
        ((), "empty"),
    ],
)
def test_the_conn_zero_validator_rejects_a_broken_walk(walk, message):
    with pytest.raises(CertificateError, match=message):
        dataclasses.replace(STAR_WITNESS, walk=walk).validate(STAR)


def test_the_conn_zero_validator_rejects_a_star_vertex_out_of_range():
    with pytest.raises(CertificateError, match="out of range"):
        dataclasses.replace(STAR_WITNESS, z=5).validate(STAR)


@pytest.mark.parametrize(
    "g",
    [
        # bipartite: N(G) is its two sides
        cycle_graph(6),
        complete_bipartite(3, 3),
        # STAR beside a triangle: each is non-bipartite, and N(G) has one
        # component for each
        Graph.from_edges(8, STAR.edges() + [(5, 6), (5, 7), (6, 7)]),
    ],
    ids=["C6", "K3,3", "two components"],
)
def test_the_conn_zero_validator_rejects_a_disconnected_complex(g):
    assert neighborhood_components(g) == 2
    assert find_conn_zero_witness(g) is None
    with pytest.raises(CertificateError, match="empty or disconnected"):
        STAR_WITNESS.validate(g)


def test_the_conn_zero_validator_imports_neither_homology_nor_snf():
    # the package's __init__ imports everything, so load the validator's
    # module under a bare package and list what it pulled in
    src = Path(__file__).resolve().parent.parent / "src" / "lovaszgap"
    code = (
        "import sys, types; "
        "package = types.ModuleType('lovaszgap'); "
        f"package.__path__ = [{str(src)!r}]; "
        "sys.modules['lovaszgap'] = package; "
        "from lovaszgap.graphs import cycle_graph; "
        "from lovaszgap.invariants import find_conn_zero_witness; "
        "g = cycle_graph(5); find_conn_zero_witness(g).validate(g); "
        "print(sorted(m for m in sys.modules if m.startswith('lovaszgap.')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == (
        "['lovaszgap.errors', 'lovaszgap.graphs', 'lovaszgap.invariants']\n"
    )
