import io
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lovaszgap import (
    BudgetExceededError,
    ParameterError,
    SimplicialComplex,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
    neighborhood_complex,
)
from lovaszgap.complexes import DEFAULT_FACE_BUDGET, face_counts, format_facets, parse_faces
from lovaszgap.homology import skeleton_components

from conftest import graphs, skeleton_forest
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
    then ``face_counts`` on top of them."""
    vertices, edges, _ = skeleton_components(c, limit)
    counts = [vertices, edges, *face_counts(c, d, vertices + edges, limit)]
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
