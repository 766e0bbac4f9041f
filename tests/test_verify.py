import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lovaszgap.homology
import lovaszgap.invariants as invariants
import lovaszgap.verify
from lovaszgap import (
    CliqueWitness,
    CorollaryParams,
    GadgetSpec,
    Graph,
    HomologyGroup,
    PreconditionError,
    SearchWitness,
    SimplicialComplex,
    biconnected_components,
    build_corollary_graph,
    build_gadget,
    chromatic_number,
    compare_bounds,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    greedy_dsatur_bound,
    homology_pass,
    homology_profile,
    kneser_graph,
    neighborhood_complex,
    run_suite,
    verify_corollary,
    verify_wedge_decomposition,
)
from lovaszgap.cli import main
from lovaszgap.invariants import _induced
from lovaszgap.verify import (
    SUITE_FAMILIES,
    certified_bound,
    corollary_report_json,
    wedge_report_json,
)

from conftest import graphs
from oracles import incidence_graph_with_triangle, write_graph
from test_homology import RP2


def spec(h, k, x=0, y=0):
    return GadgetSpec(h=h, x=x, k=k, y=y)


def row(report, dim):
    return next(r for r in report.rows if r.dim == dim)


def test_wedge_k3_k3():
    report = verify_wedge_decomposition(spec(complete_graph(3), complete_graph(3)))
    assert report.passed
    assert row(report, 0).gadget.betti == 0
    assert row(report, 1).gadget.betti == 3
    assert report.certificate.certified_conn_zero


def test_wedge_c5_c7():
    report = verify_wedge_decomposition(spec(cycle_graph(5), cycle_graph(7)))
    assert report.passed
    assert row(report, 1).gadget.betti == 3


def test_wedge_k4_k3_includes_sphere_degree():
    # N(K4) is a 2-sphere and N(K3) a circle, so the gadget complex carries
    # betti 0+1+1 in degree 1 and 1+0+0 in degree 2
    report = verify_wedge_decomposition(spec(complete_graph(4), complete_graph(3)), cap=2)
    assert report.passed
    assert row(report, 1).gadget.betti == 2
    assert row(report, 2).gadget.betti == 1


# the mod-3 Moore space: a disk on the outer circle b_0..b_8 (coned at 12),
# glued so that the circle winds three times around a_0 a_1 a_2
MOORE_3 = SimplicialComplex.from_faces(
    13,
    [
        face
        for i in range(9)
        for face in (
            [3 + i, 3 + (i + 1) % 9, (i + 1) % 3],
            [3 + i, i % 3, (i + 1) % 3],
            [12, 3 + i, 3 + (i + 1) % 9],
        )
    ],
)


def test_wedge_adds_torsion_as_a_direct_sum(tmp_path):
    # the parts carry Z + (Z/2)^2 and Z + (Z/3)^2 in degree 1; Z/2 + Z/3 is
    # Z/6, so the gadget carries Z^3 + (Z/6)^2 there, not Z^3 + (Z/2)^2 + (Z/3)^2
    h = incidence_graph_with_triangle(RP2)
    k = incidence_graph_with_triangle(MOORE_3)
    for g, n, p in ((h, 18, 2), (k, 42, 3)):
        assert g.n == n
        assert homology_profile(neighborhood_complex(g), 2) == (
            HomologyGroup(0, 0, ()),
            HomologyGroup(1, 1, (p, p)),
            HomologyGroup(2, 0, ()),
        )
    report = verify_wedge_decomposition(spec(h, k))
    assert report.passed
    wedge = row(report, 1)
    assert wedge.gadget == wedge.expected == HomologyGroup(1, 3, (6, 6))
    paths = [str(tmp_path / "h.col"), str(tmp_path / "k.col")]
    write_graph(h, paths[0])
    write_graph(k, paths[1])
    assert main(["verify", "theorem2", "--h", paths[0], "--k", paths[1]]) == 0


def test_wedge_rejects_bipartite_part():
    with pytest.raises(PreconditionError):
        verify_wedge_decomposition(spec(complete_bipartite(2, 2), complete_graph(3)))


def test_wedge_rejects_disconnected_part():
    disconnected = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(PreconditionError):
        verify_wedge_decomposition(spec(disconnected, complete_graph(3)))


@pytest.mark.parametrize(
    "h, k, passed",
    [
        (complete_graph(3), complete_graph(3), [7, 3]),
        (complete_graph(3), cycle_graph(5), [9, 3, 5]),
        (cycle_graph(5), complete_graph(3), [9, 5, 3]),
    ],
    ids=["K3-K3", "K3-C5", "C5-K3"],
)
def test_equal_wedge_parts_share_one_pass(monkeypatch, h, k, passed):
    # the gadget's pass, then the first part's, then the second part's
    # unless it equals the first: K3 v K3 takes 2 passes, not 3
    ran = []
    for module in (lovaszgap.homology, lovaszgap.verify):
        monkeypatch.setattr(module, "homology_pass", recording(ran, module.homology_pass))
    assert verify_wedge_decomposition(spec(h, k)).passed
    assert [c.num_vertices for c in ran] == passed


@pytest.mark.parametrize(
    "runs, passes",
    [([{}], 19), ([{"full": True}], 22), ([{}, {}], 38)],
    ids=["suite", "full", "twice"],
)
def test_a_suite_run_passes_each_family_complex_once(monkeypatch, runs, passes):
    # per run: 6 family complexes + 10 gadgets + 3 separation graphs (6 with
    # full) = 19 (22); a second run repeats every pass, so no pass outlives
    # the run that made it
    ran = []
    for module in (lovaszgap.homology, lovaszgap.verify):
        monkeypatch.setattr(module, "homology_pass", recording(ran, module.homology_pass))
    for kwargs in runs:
        assert run_suite(0, **kwargs)["pass"]
    assert len(ran) == passes


SUITE_PAIRS = [(h, k) for i, h in enumerate(SUITE_FAMILIES) for k in SUITE_FAMILIES[i:]]


def family(name):
    return (complete_graph if name[0] == "K" else cycle_graph)(int(name[1:]))


@pytest.mark.parametrize("h, k", SUITE_PAIRS, ids=[f"{h}-{k}" for h, k in SUITE_PAIRS])
def test_given_part_passes_match_the_wedge_checks_own(h, k):
    # the suite hands the wedge check its cap-3 family passes, also for a
    # cap-2 check: the report must be the one the check makes on its own
    cap = 3 if "K4" in (h, k) else 2
    gadget = spec(family(h), family(k))
    parts = tuple(homology_pass(neighborhood_complex(g), 3) for g in (gadget.h, gadget.k))
    given = verify_wedge_decomposition(gadget, cap, parts=parts)
    own = verify_wedge_decomposition(gadget, cap)
    assert len(given.rows) == cap + 1
    assert (given.rows, given.certificate, given.passed) == (own.rows, own.certificate, own.passed)


def test_a_part_pass_below_the_cap_raises():
    k3 = complete_graph(3)
    low = homology_pass(neighborhood_complex(k3), 1)
    with pytest.raises(IndexError):
        verify_wedge_decomposition(spec(k3, k3), 2, parts=(low, low))


def test_wedge_base_point_independence():
    h, k = cycle_graph(5), complete_graph(4)
    for x in range(h.n):
        report = verify_wedge_decomposition(spec(h, k, x=x, y=x % k.n), cap=3)
        assert report.passed


def test_compare_bounds_k4():
    report = compare_bounds(complete_graph(4))
    assert report.chi == 4
    assert report.omega == 4
    assert report.lovasz_certified is None
    assert "no-certificate" in report.certificate.flags
    assert report.homological_connectivity == 1


def test_compare_bounds_c5():
    report = compare_bounds(cycle_graph(5))
    assert (report.chi, report.omega, report.lovasz_certified) == (3, 2, 3)


def test_compare_bounds_petersen():
    report = compare_bounds(kneser_graph(5, 2))
    assert (report.chi, report.omega) == (3, 2)
    # N(petersen) is connected with free H1 of rank 11 (pinned from the
    # elimination engine after an Euler-characteristic cross-check)
    assert report.lovasz_certified == 3
    assert report.certificate.h1.betti == 11
    assert report.certificate.h1.torsion == ()


def test_compare_bounds_disconnected_complex_gives_two():
    report = compare_bounds(cycle_graph(4))
    assert report.lovasz_certified == 2
    assert report.chi == 2


def assert_greedy_upper_is_blockwise(g):
    report = compare_bounds(g, cap=0)
    blocks = biconnected_components(g)
    expected = max(greedy_dsatur_bound(_induced(g, b))[0] for b in blocks)
    assert report.greedy_upper == expected
    assert report.omega <= report.chi <= report.greedy_upper


def test_greedy_upper_is_blockwise_on_corpus(corpus):
    for g in corpus.values():
        assert_greedy_upper_is_blockwise(g)


def test_greedy_upper_keeps_a_block_overshoot():
    # greedy DSATUR needs 4 colors on this 2-connected graph of chi 3
    overshoot = Graph.from_edges(
        8,
        [(0, 1), (0, 2), (0, 7), (1, 3), (1, 4), (1, 7),
         (2, 5), (2, 6), (3, 5), (3, 6), (4, 7), (5, 6)],
    )
    g = build_gadget(spec(overshoot, cycle_graph(5))).graph
    assert_greedy_upper_is_blockwise(g)
    report = compare_bounds(g, cap=0)
    assert (report.chi, report.greedy_upper) == (3, 4)


@st.composite
def multi_block_graphs(draw):
    """A gadget over two random graphs at random attachment vertices, or a
    separation graph of random parameters."""
    if draw(st.booleans()):
        h, k = draw(graphs(max_n=7)), draw(graphs(max_n=7))
        x, y = draw(st.integers(0, h.n - 1)), draw(st.integers(0, k.n - 1))
        return build_gadget(GadgetSpec(h=h, x=x, k=k, y=y)).graph
    q = draw(st.integers(3, 4))
    params = CorollaryParams(
        draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(2, q)), q
    )
    return build_corollary_graph(params).graph


@given(multi_block_graphs())
@settings(max_examples=60, deadline=None)
def test_greedy_upper_is_blockwise_on_multi_block_graphs(g):
    assert_greedy_upper_is_blockwise(g)


def recording(calls, fn):
    """``fn`` that first appends its graph argument to ``calls``."""

    def wrapper(g, *args, **kwargs):
        calls.append(g)
        return fn(g, *args, **kwargs)

    return wrapper


SEPARATION = build_corollary_graph(CorollaryParams(2, 2, 3, 4)).graph


def test_compare_bounds_runs_dsatur_on_distinct_blocks_only(monkeypatch):
    g = SEPARATION
    distinct = {_induced(g, b) for b in biconnected_components(g)}
    greedy, searched = [], []
    monkeypatch.setattr(
        invariants, "greedy_dsatur_bound", recording(greedy, invariants.greedy_dsatur_bound)
    )
    monkeypatch.setattr(invariants, "_dsatur", recording(searched, invariants._dsatur))
    compare_bounds(g, cap=1)
    assert Counter(greedy) == Counter(distinct)
    assert searched and max(h.n for h in searched) < g.n


def test_each_distinct_block_is_colored_once(monkeypatch):
    g = SEPARATION
    blocks = biconnected_components(g)
    colored = []
    monkeypatch.setattr(invariants, "_color_block", recording(colored, invariants._color_block))
    chromatic_number(g)
    assert Counter(colored) == Counter({_induced(g, b) for b in blocks})
    assert len(colored) < len(blocks)


def test_bound_report_requires_chi_lower_to_pin_chi():
    report = compare_bounds(cycle_graph(5))
    assert report.chi_lower.kind == "mycielski"
    report.validate()
    weak = dataclasses.replace(report, chi_lower=CliqueWitness((0, 1)))
    with pytest.raises(RuntimeError, match="proves chi >= 2"):
        weak.validate()
    # a search witness need only stay at or below chi
    dataclasses.replace(report, chi_lower=SearchWitness(tuple(range(5)), 2)).validate()
    with pytest.raises(RuntimeError, match="proves chi >= 4"):
        dataclasses.replace(report, chi_lower=SearchWitness(tuple(range(5)), 4)).validate()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"omega": 4}, "bound sandwich violated: 4 <= 3 <= 3"),
        ({"greedy_upper": 2}, "bound sandwich violated: 2 <= 3 <= 2"),
        ({"lovasz_certified": 4}, "certified bound 4 exceeds chromatic number 3"),
    ],
)
def test_bound_report_rejects_each_inconsistency(change, message):
    report = compare_bounds(cycle_graph(5))
    with pytest.raises(RuntimeError, match=message):
        dataclasses.replace(report, **change).validate()


def test_certified_bound_never_exceeds_chi(corpus):
    for name, g in corpus.items():
        if g.n > 45:
            continue
        report = compare_bounds(g, cap=1)
        if report.lovasz_certified is not None:
            assert report.lovasz_certified <= report.chi, name


def test_gadget_chromatic_number(corpus):
    # the bridge vertex has degree 2, so it never forces a new color
    pairs = [
        (complete_graph(3), complete_graph(3)),
        (complete_graph(4), cycle_graph(5)),
        (cycle_graph(5), cycle_graph(7)),
        (complete_graph(2), complete_graph(5)),
    ]
    from lovaszgap import build_gadget

    for h, k in pairs:
        built = build_gadget(spec(h, k))
        expected = max(chromatic_number(h)[0], chromatic_number(k)[0], 2)
        assert chromatic_number(built.graph)[0] == expected


@pytest.mark.parametrize(
    "params,expected",
    [
        ((2, 2, 3, 3), (3, 3)),
        ((2, 3, 3, 4), (4, 3)),
        ((1, 2, 2, 3), (3, 2)),
    ],
)
def test_verify_corollary(params, expected):
    report = verify_corollary(CorollaryParams(*params))
    assert report.passed
    assert (report.bound.chi, report.bound.omega) == expected
    assert report.bound.lovasz_certified == 3
    assert report.failing_clauses() == ()


def test_corollary_report_json_shape():
    report = verify_corollary(CorollaryParams(2, 2, 3, 3))
    payload = corollary_report_json(report)
    assert set(payload) == {
        "case",
        "params",
        "graph_stats",
        "chi",
        "omega",
        "lovasz",
        "homology",
        "witnesses",
        "clauses",
        "pass",
        "wall_time_ms",
    }
    assert payload["pass"] is True
    assert payload["lovasz"] == {"certified": True, "value": 3, "flags": []}
    assert payload["wall_time_ms"] is None
    assert all(isinstance(t, str) for row in payload["homology"] for t in row["torsion"])
    json.dumps(payload)  # must be serializable as-is


def test_wedge_report_json_deterministic():
    report = verify_wedge_decomposition(spec(complete_graph(3), cycle_graph(5)))
    a = wedge_report_json(report, "K3", 0, "C5", 0, 2)
    b = wedge_report_json(report, "K3", 0, "C5", 0, 2)
    assert a["case"] == "theorem2(h=K3,x=0,k=C5,y=0)"
    assert a["params"] == {"h": "K3", "x": 0, "k": "C5", "y": 0, "max_dim": 2}
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_suite_cases_deterministic():
    cases = [c["case"] for c in run_suite()["cases"]]
    assert cases == [c["case"] for c in run_suite()["cases"]]
    assert len([c for c in cases if c.startswith("theorem2")]) == 10
    full = [c["case"] for c in run_suite(full=True)["cases"]]
    assert sorted(set(full) - set(cases)) == [
        f"corollary(l=2,m=2,p=3,q={q})" for q in (5, 6, 7)
    ]
    assert len(full) == len(cases) + 3


@pytest.mark.parametrize("seed", range(31))
def test_suite_cases_hold_each_descriptor_once(seed):
    # each family is vertex-transitive, so a base point other than 0 would
    # repeat a case up to isomorphism: each unordered family pair is wedged
    # once, at vertex 0, whatever seed the report echoes
    report = run_suite(seed)
    assert report["seed"] == seed
    keys = [c["case"] for c in report["cases"]]
    assert len(set(keys)) == len(keys)
    params = [c["params"] for c in report["cases"] if c["case"].startswith("theorem2")]
    pairs = {frozenset((p["h"], p["k"])) for p in params}
    assert len(pairs) == len(params) == 10
    assert all(p["x"] == p["y"] == 0 for p in params)


def test_run_suite_seed_selects_nothing():
    # the benchmark's suite workload runs run_suite(s) over consecutive s
    # and checks that each report echoes its s
    reports = [run_suite(s, full=False) for s in (0, 7, 23)]
    assert [r["seed"] for r in reports] == [0, 7, 23]
    assert reports[0]["cases"] == reports[1]["cases"] == reports[2]["cases"]


def test_run_suite_passes_and_is_deterministic():
    first = run_suite(seed=0)
    second = run_suite(seed=0)
    assert first["pass"]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    keys = [c["case"] for c in first["cases"]]
    assert keys == sorted(keys)


def test_certified_bound_helper():
    from lovaszgap import homology_pass, neighborhood_complex

    def bound(g):
        return certified_bound(homology_pass(neighborhood_complex(g), 1).certificate)

    assert bound(cycle_graph(5)) == 3
    assert bound(cycle_graph(4)) == 2
    assert bound(complete_graph(4)) is None
