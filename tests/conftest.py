import itertools
import os
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import lovaszgap.snf
from lovaszgap import (
    CorollaryParams,
    GadgetSpec,
    Graph,
    build_corollary_graph,
    build_gadget,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    kneser_graph,
    mycielskian,
    triangle_free_chromatic,
)
from lovaszgap.homology import least_vertex_faces, skeleton_components

from oracles import faces_by_dim

# the CLI tests run `python -m lovaszgap` in child interpreters; point them at
# this checkout's sources, as pyproject's pythonpath does for this process
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def filed_facets(c):
    """Each vertex's facets, and the facets that start at it, filed from
    the sorted facets as ``homology_pass`` files them."""
    holding: dict[int, list] = {}
    starts: dict[int, list] = {}
    for facet in sorted(c.facets):
        starts.setdefault(facet[0], []).append(facet)
        for v in facet:
            holding.setdefault(v, []).append(facet)
    return holding, starts


def skeleton_walk(c, limit: int = 10**9):
    """``skeleton_components`` on a complex's filed facets."""
    return skeleton_components(filed_facets(c)[0], c.dim, limit)


def fan_walk(c, top: int, used: int = 0, limit: int = 10**9):
    """The batches of the fan faces of dimensions 2..top + 1, from
    ``least_vertex_faces`` on the facets filed under their least vertex."""
    return least_vertex_faces(filed_facets(c)[1], range(2, top + 2), used, limit)


def skeleton_forest(c):
    """The sorted vertex ids and edges of a complex's 1-skeleton, from the
    oracle's enumeration, and the edges of the spanning forest that
    ``skeleton_components`` walks from the facets."""
    vertices, edges = faces_by_dim(c, 1)
    return [v for (v,) in vertices], edges, skeleton_walk(c)[2]


@pytest.fixture
def pivot_calls(monkeypatch):
    """A one-element list that counts the calls of ``snf._pivot`` during the
    test."""
    calls = [0]
    real = lovaszgap.snf._pivot

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(lovaszgap.snf, "_pivot", counted)
    return calls


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return Graph.from_edges(n, edges)


def named_corpus() -> dict[str, Graph]:
    """Deterministic graph corpus shared by structural and soundness tests."""
    corpus: dict[str, Graph] = {}
    for p in range(2, 7):
        corpus[f"K{p}"] = complete_graph(p)
    for n in range(4, 10):
        corpus[f"C{n}"] = cycle_graph(n)
    for l, m in [(1, 2), (2, 2), (2, 3), (3, 3)]:
        corpus[f"K{l},{m}"] = complete_bipartite(l, m)
    corpus["petersen"] = kneser_graph(5, 2)
    corpus["kneser(6,2)"] = kneser_graph(6, 2)
    for q in (3, 4):
        corpus[f"trianglefree({q})"] = triangle_free_chromatic(q)
    corpus["mycielskian(C5)"] = mycielskian(cycle_graph(5))
    gadget_pairs = [
        ("K3", complete_graph(3), complete_graph(3)),
        ("K3C5", complete_graph(3), cycle_graph(5)),
        ("K4K3", complete_graph(4), complete_graph(3)),
        ("C5C7", cycle_graph(5), cycle_graph(7)),
    ]
    for name, h, k in gadget_pairs:
        corpus[f"gadget({name})"] = build_gadget(GadgetSpec(h=h, x=0, k=k, y=0)).graph
    corpus["corollary(1,2,2,3)"] = build_corollary_graph(CorollaryParams(1, 2, 2, 3)).graph
    corpus["corollary(2,2,3,3)"] = build_corollary_graph(CorollaryParams(2, 2, 3, 3)).graph
    rng = random.Random(7)
    for i in range(30):
        n = rng.randint(2, 8)
        corpus[f"random{i}"] = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
    return corpus


@pytest.fixture(scope="session")
def corpus() -> dict[str, Graph]:
    return named_corpus()
