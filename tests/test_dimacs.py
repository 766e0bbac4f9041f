import io

import pytest
from hypothesis import given, settings

from lovaszgap import Graph, InputError, complete_graph, kneser_graph
from lovaszgap.dimacs import format_graph, parse_graph, read_graph

from conftest import graphs
from oracles import write_graph


def test_parse_k3():
    g = parse_graph(["p edge 3 3", "e 1 2", "e 1 3", "e 2 3"])
    assert g == complete_graph(3)


def test_comments_and_blank_lines():
    text = ["c a comment", "", "p edge 2 1", "c another", "e 1 2"]
    g = parse_graph(text)
    assert g.n == 2 and g.m == 1


def test_writer_format():
    assert format_graph(complete_graph(3)) == "p edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"


def test_round_trip_file(tmp_path):
    g = kneser_graph(5, 2)
    path = str(tmp_path / "petersen.col")
    write_graph(g, path)
    assert read_graph(path) == g


@given(graphs(max_n=9))
@settings(max_examples=50)
def test_round_trip_random(g):
    assert parse_graph(io.StringIO(format_graph(g))) == g


def test_round_trip_family_sweep():
    from lovaszgap import (
        complete_bipartite,
        cycle_graph,
        triangle_free_chromatic,
    )

    sweep = [complete_graph(p) for p in range(1, 7)]
    sweep += [complete_bipartite(l, m) for l in range(1, 4) for m in range(1, 5)]
    sweep += [cycle_graph(n) for n in range(3, 10)]
    sweep += [kneser_graph(n, k) for n in range(2, 8) for k in range(1, n // 2 + 1)]
    sweep += [triangle_free_chromatic(q) for q in range(2, 6)]
    for g in sweep:
        assert parse_graph(io.StringIO(format_graph(g))) == g


def test_out_of_range_vertex():
    with pytest.raises(InputError):
        parse_graph(["p edge 3 1", "e 1 4"])


def test_loop_rejected():
    with pytest.raises(InputError):
        parse_graph(["p edge 3 1", "e 2 2"])


def test_edge_before_header():
    with pytest.raises(InputError):
        parse_graph(["e 1 2", "p edge 3 1"])


@pytest.mark.parametrize(
    "header", ["p edge 3", "p col 3 3", "p edge three 3", "q edge 3 3"]
)
def test_malformed_header(header):
    with pytest.raises(InputError):
        parse_graph([header, "e 1 2"])


def test_duplicate_edges_deduped(caplog):
    with caplog.at_level("WARNING"):
        g = parse_graph(["p edge 3 4", "e 1 2", "e 2 1", "e 1 3", "e 2 3"])
    assert g == complete_graph(3)
    assert any("duplicate" in r.message for r in caplog.records)


def test_warnings_keep_their_text_and_order(caplog):
    lines = ["p edge 4 9", "e 1 2", "e 2 1", "e 3 4", "e 1 3", "e 4 3", "e 2 1", "e 2 4"]
    with caplog.at_level("WARNING"):
        g = parse_graph(lines, source="dup.col")
    assert [r.getMessage() for r in caplog.records] == [
        "dup.col: 3 duplicate edge(s) removed",
        "dup.col: header declares 9 edges, file contains 7",
    ]
    assert g == Graph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
