import io
import itertools
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovaszgap import (
    BudgetExceededError,
    CorollaryParams,
    Graph,
    ParameterError,
    SimplicialComplex,
    build_corollary_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    kneser_graph,
    neighborhood_complex,
)
from lovaszgap.complexes import format_facets, parse_faces
from lovaszgap.homology import DEFAULT_FACE_BUDGET, least_vertex_faces, skeleton_components

from conftest import filed_facets, graphs, skeleton_forest
from oracles import cone, euler_characteristic, validate_complex


@st.composite
def complexes(draw, max_vertices: int = 8):
    n = draw(st.integers(1, max_vertices))
    faces = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    return SimplicialComplex.from_faces(n, faces)


def counted_faces(c, d: int, limit: int = DEFAULT_FACE_BUDGET) -> list[int]:
    """The face counts of dimensions 0..min(d, c.dim), as the homology pass
    makes them: the vertices and edges from the walk over the 1-skeleton,
    then each dimension j = 2..d from the batches of one walk over the
    faces by their least vertex, on top of the faces counted before."""
    holding = filed_facets(c)[0]
    counts = list(skeleton_components(holding, c.dim, limit)[:2])
    for j in range(2, min(d, c.dim) + 1):
        walk = least_vertex_faces(holding, (j,), sum(counts), limit)
        counts.append(sum(len(taus) for _, _, taus in walk))
    return counts[: min(d, c.dim) + 1]


def test_neighborhood_complex_k2():
    c = neighborhood_complex(complete_graph(2))
    assert c.facets == ((0,), (1,))


def test_neighborhood_complex_c4():
    c = neighborhood_complex(cycle_graph(4))
    assert c.facets == ((0, 2), (1, 3))


def test_neighborhood_complex_c5():
    c = neighborhood_complex(cycle_graph(5))
    assert c.facets == ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4))


def assert_facets_match_from_faces(g):
    # the maximal neighbourhoods, found among all of them by from_faces
    assert neighborhood_complex(g) == SimplicialComplex.from_faces(g.n, g.adj)


def test_facets_from_the_graph_match_from_faces(corpus):
    twins = complete_bipartite(2, 3)
    isolated = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3)])
    others = [twins, isolated, Graph.from_edges(0, []), kneser_graph(7, 2), kneser_graph(8, 3)]
    for g in [*corpus.values(), *others]:
        assert_facets_match_from_faces(g)
    for l, m, q in itertools.product(range(1, 4), range(1, 4), range(3, 7)):
        for p in range(2, q + 1):
            assert_facets_match_from_faces(build_corollary_graph(CorollaryParams(l, m, p, q)).graph)


@given(graphs(max_n=9, min_n=0))
@settings(max_examples=100)
def test_facets_from_random_graphs_match_from_faces(g):
    assert_facets_match_from_faces(g)


@given(graphs(max_n=8))
@settings(max_examples=60)
def test_neighborhood_complex_antichain(g):
    validate_complex(neighborhood_complex(g))


def test_faces_full_simplex():
    c = SimplicialComplex.from_faces(3, [[0, 1, 2]])
    assert counted_faces(c, 2) == [3, 3, 1]


def test_faces_nc5():
    assert counted_faces(neighborhood_complex(cycle_graph(5)), 1) == [5, 5]


def test_faces_nk4():
    # no 3-face: the enumeration stops at the complex's dimension, 2
    assert counted_faces(neighborhood_complex(complete_graph(4)), 3) == [4, 6, 4]


def test_counting_holds_one_vertex_of_faces_at_a_time():
    # N(KG(9,3)) has 53,424 triangles and 328,356 tetrahedra: a set of every
    # face of a dimension takes about 46 MiB traced, while the walk holds
    # the faces of one least vertex at a time, well under 8 MiB
    c = neighborhood_complex(kneser_graph(9, 3))
    tracemalloc.start()
    try:
        counts = counted_faces(c, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts == [84, 3_486, 53_424, 328_356]
    assert peak < 8 * 2**20


def test_budget_exceeded_names_dimension():
    c = SimplicialComplex.from_faces(6, [range(6)])
    with pytest.raises(BudgetExceededError) as exc:
        counted_faces(c, 3, limit=10)
    assert exc.value.dimension == 1
    assert "dimension 1" in str(exc.value)


@given(complexes(), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60)
def test_faces_monotone_prefix(c, d1, d2):
    lo, hi = min(d1, d2), max(d1, d2)
    small = counted_faces(c, lo)
    big = counted_faces(c, hi)
    assert len(small) == min(lo, c.dim) + 1
    assert len(big) == min(hi, c.dim) + 1
    assert small == big[: len(small)]


def test_euler_characteristic():
    assert euler_characteristic(SimplicialComplex.from_faces(3, [[0, 1, 2]])) == 1
    assert euler_characteristic(neighborhood_complex(cycle_graph(5))) == 0
    assert euler_characteristic(neighborhood_complex(complete_graph(4))) == 2
    assert euler_characteristic(SimplicialComplex.from_faces(1, [])) == 0


def test_cone_facets():
    c = SimplicialComplex.from_faces(4, [[0, 1], [2, 3]])
    coned = cone(c)
    assert coned.facets == ((0, 1, 4), (2, 3, 4))
    point = cone(SimplicialComplex.from_faces(0, []))
    assert point.facets == ((0,),)


def test_skeleton_components_match_graph_structure(corpus):
    # connected non-bipartite graphs have connected neighborhood complexes;
    # connected bipartite graphs with an edge split into exactly two parts
    for name, g in corpus.items():
        if not is_connected(g) or g.m == 0:
            continue
        vertices, _, forest = skeleton_forest(neighborhood_complex(g))
        comps = len(vertices) - len(forest)
        if is_bipartite(g)[0]:
            assert comps == 2, name
        else:
            assert comps == 1, name


def test_facet_file_round_trip(tmp_path):
    c = neighborhood_complex(cycle_graph(5))
    text = format_facets(c)
    again = parse_faces(io.StringIO(text))
    assert again.facets == c.facets


def test_parse_faces_maximalizes_and_skips_comments():
    c = parse_faces(["# comment", "0 1", "1 0 2", ""])
    assert c.facets == ((0, 1, 2),)


@pytest.mark.parametrize(
    "facets, message",
    [
        (((0, 1), (0, 1)), "duplicate facets"),
        (((0, 1), ()), "empty facet"),
        (((1, 0),), "facet (1, 0) not strictly increasing"),
        (((0, 4),), "facet (0, 4) out of ground-set range"),
        (((0, 1), (0, 1, 2)), "facet (0, 1) inside facet (0, 1, 2)"),
    ],
)
def test_complex_checker_rejects_each_fault(facets, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        validate_complex(SimplicialComplex(4, facets))


def test_from_faces_dedupes_and_keeps_maximal():
    c = SimplicialComplex.from_faces(5, [[2, 1], [1, 2], [1, 2, 3], [4]])
    assert c.facets == ((1, 2, 3), (4,))
    validate_complex(c)


def test_from_faces_drops_empty_faces():
    c = SimplicialComplex.from_faces(3, [[], [0, 1], []])
    assert c == SimplicialComplex(3, ((0, 1),))
    assert SimplicialComplex.from_faces(3, [[]]).is_empty()


@pytest.mark.parametrize("face", [[0, 3], [-1, 0]])
def test_from_faces_rejects_a_face_out_of_range(face):
    with pytest.raises(ParameterError, match=re.escape("out of range for ground set 0..2")):
        SimplicialComplex.from_faces(3, [[0, 1], face])
