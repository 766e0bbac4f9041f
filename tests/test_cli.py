import dataclasses
import hashlib
import itertools
import json
import subprocess
import sys

import pytest

import lovaszgap.verify
import lovaszgap.cli
from lovaszgap import (
    CorollaryParams,
    Graph,
    complete_graph,
    cycle_graph,
    kneser_graph,
    neighborhood_complex,
    verify_corollary,
)
from lovaszgap.cli import main
from lovaszgap.complexes import format_facets
from lovaszgap.dimacs import read_graph

from oracles import write_graph


def run_cli(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lovaszgap", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_construct_complete(tmp_path, capsys):
    out = tmp_path / "k4.col"
    assert main(["construct", "complete", "--p", "4", "-o", str(out)]) == 0
    g = read_graph(str(out))
    assert g.n == 4 and g.m == 6


@pytest.mark.parametrize(
    "args,n,m",
    [
        (["construct", "bipartite", "--l", "2", "--m", "3"], 5, 6),
        (["construct", "cycle", "--n", "6"], 6, 6),
        (["construct", "kneser", "--n", "5", "--k", "2"], 10, 15),
        (["construct", "trianglefree", "--q", "4"], 11, 20),
    ],
)
def test_construct_families_round_trip(args, n, m, tmp_path):
    out = tmp_path / "g.col"
    assert main(args + ["-o", str(out)]) == 0
    g = read_graph(str(out))
    assert (g.n, g.m) == (n, m)
    again = tmp_path / "again.col"
    write_graph(g, str(again))
    assert out.read_text() == again.read_text()


def test_construct_mycielski_and_gadget(tmp_path):
    base = tmp_path / "k3.col"
    assert main(["construct", "complete", "--p", "3", "-o", str(base)]) == 0
    myc = tmp_path / "myc.col"
    assert main(["construct", "mycielski", "--graph", str(base), "-o", str(myc)]) == 0
    assert read_graph(str(myc)).n == 7
    gadget = tmp_path / "gadget.col"
    meta = tmp_path / "gadget.json"
    rc = main(
        [
            "construct", "gadget",
            "--h", str(base), "--x", "0",
            "--k", str(base), "--y", "0",
            "-o", str(gadget), "--json", str(meta),
        ]
    )
    assert rc == 0
    assert read_graph(str(gadget)).n == 7
    assert json.loads(meta.read_text())["z"] == 6


def test_construct_corollary_with_witnesses(tmp_path):
    out = tmp_path / "sep.col"
    meta = tmp_path / "sep.json"
    rc = main(
        [
            "construct", "corollary",
            "--l", "2", "--m", "2", "--p", "3", "--q", "3",
            "-o", str(out), "--json", str(meta),
        ]
    )
    assert rc == 0
    payload = json.loads(meta.read_text())
    assert payload["clique"] == [0, 1, 2]
    assert read_graph(str(out)).n == 25


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_construct_json_to_stdout_needs_graph_file(output, capsys):
    argv = ["construct", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3"]
    assert main(argv + output + ["--json", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:parameter:")
    assert captured.err.count("\n") == 1


def test_construct_json_to_stdout_with_graph_file(tmp_path, capsys):
    base = tmp_path / "k3.col"
    assert main(["construct", "complete", "--p", "3", "-o", str(base)]) == 0
    gadget = tmp_path / "gadget.col"
    argv = ["construct", "gadget", "--h", str(base), "--k", str(base),
            "-o", str(gadget), "--json", "-"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["z"] == 6
    assert read_graph(str(gadget)).n == 7
    corollary = tmp_path / "sep.col"
    argv = ["construct", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3",
            "-o", str(corollary), "--json", "-"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["clique"] == [0, 1]
    assert read_graph(str(corollary)).n == 21


def test_ncomplex_and_homology(tmp_path, capsys):
    graph = tmp_path / "c4.col"
    facets = tmp_path / "n_c4.facets"
    assert main(["construct", "cycle", "--n", "4", "-o", str(graph)]) == 0
    assert main(["ncomplex", str(graph), "-o", str(facets)]) == 0
    assert facets.read_text() == "0 2\n1 3\n"
    assert main(["homology", "--complex", str(facets), "--max-dim", "1"]) == 0
    out = capsys.readouterr().out
    assert "H~0: betti=1" in out


def test_chromatic_and_clique_commands(tmp_path, capsys):
    graph = tmp_path / "pet.col"
    write_graph(kneser_graph(5, 2), str(graph))
    assert main(["chromatic", str(graph)]) == 0
    assert "chi=3" in capsys.readouterr().out
    assert main(["clique", str(graph)]) == 0
    assert "omega=2" in capsys.readouterr().out


def test_chromatic_json_carries_a_mycielski_chain(tmp_path, capsys):
    graph = tmp_path / "m8.col"
    assert main(["construct", "trianglefree", "--q", "8", "-o", str(graph)]) == 0
    assert main(["chromatic", str(graph), "--json", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "chi=8\n"
    payload = json.loads(captured.out)
    assert payload["chi"] == 8
    witness = payload["chi_lower"]
    depth = 0
    while witness["kind"] == "mycielski":
        assert witness["bound"] == 8 - depth
        depth += 1
        witness = witness["inner"]
    assert depth == 6
    assert witness["kind"] == "clique" and len(witness["vertices"]) == 2


def test_chromatic_long_cycle_exit_zero(tmp_path, capsys):
    graph = tmp_path / "c1201.col"
    write_graph(cycle_graph(1201), str(graph))
    assert main(["chromatic", str(graph)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "chi=3\n"
    assert captured.err == ""


def test_bounds_command_json(tmp_path):
    graph = tmp_path / "c5.col"
    report = tmp_path / "c5.json"
    assert main(["construct", "cycle", "--n", "5", "-o", str(graph)]) == 0
    assert main(["bounds", str(graph), "--json", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["chi"] == 3
    assert payload["omega"] == 2
    assert payload["lovasz"]["value"] == 3


def test_verify_theorem2_exit_zero(tmp_path):
    k3 = tmp_path / "k3.col"
    write_graph(complete_graph(3), str(k3))
    rc = main(["verify", "theorem2", "--h", str(k3), "--x", "0", "--k", str(k3), "--y", "0"])
    assert rc == 0


def test_verify_theorem2_rejects_bipartite(tmp_path, capsys):
    c4 = tmp_path / "c4.col"
    k3 = tmp_path / "k3.col"
    assert main(["construct", "cycle", "--n", "4", "-o", str(c4)]) == 0
    write_graph(complete_graph(3), str(k3))
    rc = main(["verify", "theorem2", "--h", str(c4), "--k", str(k3)])
    assert rc == 2


def test_verify_corollary_exit_zero(tmp_path):
    report = tmp_path / "report.json"
    rc = main(
        ["verify", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3",
         "--json", str(report)]
    )
    assert rc == 0
    assert json.loads(report.read_text())["pass"] is True


def test_verify_failure_exit_one(monkeypatch, capsys):
    real = verify_corollary(CorollaryParams(1, 2, 2, 3))
    broken = dataclasses.replace(
        real,
        clauses=(dataclasses.replace(real.clauses[0], actual=-1),) + real.clauses[1:],
        passed=False,
    )
    monkeypatch.setattr(lovaszgap.verify, "verify_corollary", lambda *a, **k: broken)
    rc = main(["verify", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:verify:")


def test_usage_error_exit_two(capsys):
    assert main(["construct", "complete"]) == 2
    assert capsys.readouterr().err.startswith("error:usage:")


def test_parameter_error_exit_two(capsys):
    assert main(["construct", "kneser", "--n", "3", "--k", "2"]) == 2
    assert capsys.readouterr().err.startswith("error:parameter:")


def test_missing_file_exit_two(capsys):
    assert main(["chromatic", "no-such-file.col"]) == 2
    assert capsys.readouterr().err.startswith("error:input:")


def test_budget_exit_three(tmp_path, capsys):
    graph = tmp_path / "k5.col"
    write_graph(complete_graph(5), str(graph))
    facets = tmp_path / "k5.facets"
    assert main(["ncomplex", str(graph), "-o", str(facets)]) == 0
    rc = main(["homology", "--complex", str(facets), "--max-dim", "2", "--limit", "3"])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error:budget:")


def _facet_lines(faces) -> str:
    return "".join(" ".join(map(str, face)) + "\n" for face in faces)


_RP2_FACETS = (
    (0, 1, 3), (0, 1, 5), (0, 2, 4), (0, 2, 5), (0, 3, 4),
    (1, 2, 3), (1, 2, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5),
)
_BUDGET_INPUTS = {
    "rp2": _facet_lines(_RP2_FACETS),
    # the double suspension of RP^2: 4-vertex facets on 10 vertices
    "susp2_rp2": _facet_lines(
        f + (a, b) for f in _RP2_FACETS for a in (6, 7) for b in (8, 9)
    ),
    "sphere4": _facet_lines(itertools.combinations(range(6), 5)),
    "mixed": "0 1 2 3 4 5\n1 2 3 4 6 7\n0 6 7 8\n2 5 8 9\n3 9\n",
    "n_kg72": format_facets(neighborhood_complex(kneser_graph(7, 2))),
}
_BUDGET_LIMITS = (20, 60, 150, 400, 1500, 6000)
# the dimension each error:budget: line names, per input and --max-dim, one
# entry per limit above (None: no error), as the tuple-face pass printed
# them; the fan walk interleaves dimensions, so the line can name a higher
# dimension at a lower limit (sphere4 at --max-dim 2, susp2_rp2 at 3)
_BUDGET_DIMENSIONS = {
    ("rp2", 0): (1, None, None, None, None, None),
    ("rp2", 1): (1, None, None, None, None, None),
    ("rp2", 2): (1, None, None, None, None, None),
    ("rp2", 3): (1, None, None, None, None, None),
    ("susp2_rp2", 0): (1, 2, None, None, None, None),
    ("susp2_rp2", 1): (1, 2, None, None, None, None),
    ("susp2_rp2", 2): (1, 2, 2, None, None, None),
    ("susp2_rp2", 3): (1, 2, 3, 2, None, None),
    ("sphere4", 0): (1, None, None, None, None, None),
    ("sphere4", 1): (1, None, None, None, None, None),
    ("sphere4", 2): (1, 3, None, None, None, None),
    ("sphere4", 3): (1, 2, None, None, None, None),
    ("mixed", 0): (1, 2, None, None, None, None),
    ("mixed", 1): (1, 2, None, None, None, None),
    ("mixed", 2): (1, 2, None, None, None, None),
    ("mixed", 3): (1, 2, 2, None, None, None),
    ("n_kg72", 0): (0, 1, 1, 2, None, None),
    ("n_kg72", 1): (0, 1, 1, 2, None, None),
    ("n_kg72", 2): (0, 1, 1, 2, 3, None),
    ("n_kg72", 3): (0, 1, 1, 2, 3, 4),
}


@pytest.mark.parametrize("name, max_dim", sorted(_BUDGET_DIMENSIONS))
def test_budget_lines_are_pinned(tmp_path, capsys, name, max_dim):
    facets = tmp_path / f"{name}.facets"
    facets.write_text(_BUDGET_INPUTS[name])
    expected = _BUDGET_DIMENSIONS[name, max_dim]
    for limit, dimension in zip(_BUDGET_LIMITS, expected):
        argv = ["homology", "--complex", str(facets), "--max-dim", str(max_dim)]
        rc = main([*argv, "--limit", str(limit)])
        err = capsys.readouterr().err
        if dimension is None:
            assert (rc, err) == (0, ""), limit
        else:
            line = (
                f"error:budget: face-count budget {limit} exceeded while "
                f"enumerating dimension {dimension}\n"
            )
            assert (rc, err) == (3, line), limit


@pytest.mark.parametrize("facets_text", ["", "0 1\n1 2\n"])
def test_zero_limit_is_rejected_on_every_complex(tmp_path, capsys, facets_text):
    # the empty complex gets the same parameter check as any other
    facets = tmp_path / "c.facets"
    facets.write_text(facets_text)
    assert main(["homology", "--complex", str(facets), "--limit", "0"]) == 2
    assert capsys.readouterr().err == (
        "error:parameter: face budget must be >= 1, got 0\n"
    )


@pytest.mark.parametrize("graph", [Graph.from_edges(3, []), complete_graph(3)])
def test_bounds_rejects_a_zero_limit_on_every_graph(tmp_path, capsys, graph):
    # an edgeless graph has the empty neighborhood complex
    path = tmp_path / "g.col"
    write_graph(graph, str(path))
    assert main(["bounds", str(path), "--limit", "0"]) == 2
    assert capsys.readouterr().err == (
        "error:parameter: face budget must be >= 1, got 0\n"
    )


# each command that takes --max-dim, over the graph_files fixture
_MAX_DIM_COMMANDS = {
    "homology": ["homology", "--complex", "{facets}"],
    "bounds": ["bounds", "{c5}"],
    "theorem2": ["verify", "theorem2", "--h", "{k3}", "--k", "{c5}"],
}


@pytest.mark.parametrize("command", sorted(_MAX_DIM_COMMANDS))
def test_a_max_dim_past_the_face_budget_is_a_parameter_error(graph_files, capsys, command):
    # a report holds one group per degree, so the face budget bounds
    # --max-dim as well; a huge value used to run out of memory (exit 4)
    argv = [arg.format(**graph_files) for arg in _MAX_DIM_COMMANDS[command]]
    for extra, message in (
        (["--max-dim", "1000000000000"], "--max-dim 1000000000000 exceeds the face budget 10000000"),
        (["--max-dim", "5", "--limit", "4"], "--max-dim 5 exceeds the face budget 4"),
    ):
        assert main([*argv, *extra]) == 2
        assert capsys.readouterr().err == f"error:parameter: {message}\n"


def test_unexpected_exception_exit_four(monkeypatch, capsys):
    def crash(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(lovaszgap.cli, "_cmd_clique", crash)
    assert main(["clique", "no-such-file.col"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error:internal: RuntimeError: boom second line\n"
    assert captured.out == ""


def test_cli_subprocess_smoke(tmp_path):
    result = run_cli(["construct", "complete", "--p", "3"])
    assert result.returncode == 0
    assert "p edge 3 3" in result.stdout


def test_suite_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "suite", "--json", str(a)]) == 0
    assert main(["verify", "suite", "--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of `verify suite --json FILE`; a change to any report byte must
# update this digest and say why
SUITE_SHA256 = "c93e7f3ad9e27018b20eec4d3c0974a519c7bd1441b77e2ae8d95ef7a8371f96"


def test_suite_report_matches_pinned_digest(tmp_path):
    path = tmp_path / "suite.json"
    assert main(["verify", "suite", "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_SHA256


# sha256 of `verify suite --full --json FILE`, the only pinned report with
# the Mycielski chains of q = 5..7
SUITE_FULL_SHA256 = "d6c01a09dca4a28af2cecd208d190029c88bb864ccf0aa408fefa9190e838d13"


def test_full_suite_report_matches_pinned_digest(tmp_path):
    path = tmp_path / "suite.json"
    assert main(["verify", "suite", "--full", "--json", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SUITE_FULL_SHA256


def test_verify_suite_has_no_seed_option(capsys):
    assert main(["verify", "suite", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and captured.err.startswith("error:usage:")
    assert captured.out == ""


# sha256 of the reports the suite does not write, each run from the
# directory that holds its inputs so that the `case` string names them
# relatively; a change to any report byte must update a digest and say why
CLI_REPORT_SHA256 = {
    "bounds-k3": "0453176fcbaaf441ee9a1be77c88b1ca3b57cb3139f2a3c746658134bd719acb",
    "bounds-c5": "e98d4c59695e6bcfcf4b08f65c1073cecbc709ed4ad49609291699c288606bd5",
    "bounds-empty": "650f73dca52ca4ed2d140cb6b56fbf9f030e4939194379877fb8dad69e5493dd",
    "theorem2": "12722cb2fb1da51ba0e3d6f8c5e9c3942712e03ecbaae373f9ad9cf27d679d57",
    "homology": "c303d7529a43c0173abf3d6d60d7ccfd642a342292b4f370f2d8a5a7f1c63ee0",
}


@pytest.mark.parametrize(
    "name,argv",
    [
        ("bounds-k3", ["bounds", "k3.col"]),
        ("bounds-c5", ["bounds", "c5.col"]),
        ("bounds-empty", ["bounds", "empty.col"]),
        ("theorem2", ["verify", "theorem2", "--h", "k3.col", "--k", "c5.col"]),
        ("homology", ["homology", "--complex", "n_c5.facets", "--max-dim", "2"]),
    ],
)
def test_cli_reports_match_pinned_digests(tmp_path, monkeypatch, name, argv):
    monkeypatch.chdir(tmp_path)
    write_graph(complete_graph(3), "k3.col")
    write_graph(cycle_graph(5), "c5.col")
    (tmp_path / "empty.col").write_text("p edge 0 0\n")
    assert main(["ncomplex", "c5.col", "-o", "n_c5.facets"]) == 0
    assert main([*argv, "--json", "report.json"]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == CLI_REPORT_SHA256[name]


def test_import_loads_no_process_pool():
    code = (
        "import sys, lovaszgap; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"


@pytest.fixture
def graph_files(tmp_path):
    paths = {}
    for name, g in (("k3", complete_graph(3)), ("c5", cycle_graph(5))):
        paths[name] = tmp_path / f"{name}.col"
        write_graph(g, str(paths[name]))
    paths["facets"] = tmp_path / "n_c5.facets"
    assert main(["ncomplex", str(paths["c5"]), "-o", str(paths["facets"])]) == 0
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize(
    "argv,human,key,value",
    [
        (["chromatic", "{k3}"], "chi=3", "chi", 3),
        (["clique", "{c5}"], "omega=2", "omega", 2),
        (["homology", "--complex", "{facets}", "--max-dim", "1"], "H~1: betti=1", "case", None),
        (["bounds", "{c5}"], "lovasz_certified=3", "chi", 3),
        (["verify", "theorem2", "--h", "{k3}", "--k", "{c5}"], "pass", "pass", True),
        (["verify", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3"],
         "pass chi=3", "pass", True),
        (["verify", "suite"], "suite: 18/18", "pass", True),
    ],
)
def test_json_to_stdout_is_one_document(graph_files, capsys, argv, human, key, value):
    argv = [arg.format(**graph_files) for arg in argv] + ["--json", "-"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert key in payload
    if value is not None:
        assert payload[key] == value
    assert human in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "{c5}"],
        ["homology", "--complex", "{facets}"],
        ["verify", "theorem2", "--h", "{k3}", "--k", "{c5}"],
        ["verify", "corollary", "--l", "1", "--m", "2", "--p", "2", "--q", "3"],
    ],
)
def test_timings_fill_wall_time_ms(graph_files, tmp_path, argv):
    report = tmp_path / "r.json"
    argv = [arg.format(**graph_files) for arg in argv] + ["--json", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["wall_time_ms"] is None
    assert main([*argv, "--timings"]) == 0
    wall_time_ms = json.loads(report.read_text())["wall_time_ms"]
    assert type(wall_time_ms) is int and wall_time_ms >= 0


def test_homology_json_uses_dim(graph_files, tmp_path):
    report = tmp_path / "h.json"
    argv = ["homology", "--complex", graph_files["facets"], "--max-dim", "2",
            "--json", str(report)]
    assert main(argv) == 0
    payload = json.loads(report.read_text())
    assert [g["dim"] for g in payload["homology"]] == [0, 1, 2]
    assert [g["betti"] for g in payload["homology"]] == [0, 1, 0]
    assert payload["certificate"]["certified_conn_zero"] is True


def test_bounds_max_dim_zero_lists_one_degree(graph_files, capsys):
    assert main(["bounds", graph_files["c5"], "--max-dim", "0", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [g["dim"] for g in payload["homology"]] == [0]
    assert payload["lovasz"]["value"] == 3


def test_verify_theorem2_failure_writes_the_report_and_one_error(graph_files, monkeypatch, capsys):
    real = lovaszgap.verify.verify_wedge_decomposition
    bad = lovaszgap.verify.HomologyGroup(1, 0, ())

    def broken(*args, **kwargs):
        report = real(*args, **kwargs)
        rows = list(report.rows)
        rows[1] = dataclasses.replace(rows[1], gadget=bad)
        certificate = dataclasses.replace(report.certificate, certified_conn_zero=False)
        return dataclasses.replace(
            report, rows=tuple(rows), certificate=certificate, passed=False
        )

    monkeypatch.setattr(lovaszgap.verify, "verify_wedge_decomposition", broken)
    argv = ["verify", "theorem2", "--h", graph_files["k3"], "--k", graph_files["c5"]]
    assert main([*argv, "--json", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error:verify: wedge check failed: 1,certificate\n"
    assert json.loads(captured.out)["pass"] is False


def test_verify_suite_failure_names_the_failing_cases(monkeypatch, capsys):
    # K3's complex is a circle, conn = 0: expecting -1 fails that case alone
    cases = [
        (name, expect, -1 if name == "K3" else conn)
        for name, expect, conn in lovaszgap.verify.CERTIFICATE_CASES
    ]
    monkeypatch.setattr(lovaszgap.verify, "CERTIFICATE_CASES", tuple(cases))
    assert main(["verify", "suite"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "suite: 17/18 cases passed\nerror:verify: failing cases: certificate(K3)\n"
    )
    assert json.loads(captured.out)["pass"] is False


@pytest.mark.parametrize(
    "argv,text",
    [
        (["chromatic", "{path}"], b"p edge 2 1\ne 1 2\nc \xff\xfe\n"),
        (["homology", "--complex", "{path}"], b"0 1\n\xff 2\n"),
    ],
    ids=["dimacs", "facets"],
)
def test_non_utf8_input_is_an_input_error(tmp_path, capsys, argv, text):
    path = tmp_path / "bad.in"
    path.write_bytes(text)
    assert main([arg.format(path=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error:input: {path}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["chromatic"], "p edge 2 1\np edge 2 1\ne 1 2\n", ":2: repeated problem line"),
        (["chromatic"], "p edge -1 0\n", ":1: negative sizes in header"),
        (["chromatic"], "p edge 3 1\ne 1 2 3\n", ":2: malformed edge line 'e 1 2 3'"),
        (["chromatic"], "p edge 3 1\ne 1 x\n", ":2: non-integer vertex id"),
        (["chromatic"], "c only a comment\n", ": missing problem line"),
        (["homology", "--complex"], "0 1\n1 two\n", ":2: non-integer vertex id in '1 two'"),
        (["homology", "--complex"], "0 1\n-1 2\n", ":2: negative vertex id"),
    ],
    ids=["repeated-p", "negative-n", "edge-fields", "edge-id", "no-p", "face-id", "face-negative"],
)
def test_malformed_input_is_one_input_error(tmp_path, capsys, argv, text, message):
    path = tmp_path / "bad.in"
    path.write_text(text)
    assert main([*argv, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error:input: {path}{message}\n"
    assert captured.out == ""


def test_gadget_attachment_out_of_range_is_a_parameter_error(tmp_path, capsys):
    base = tmp_path / "k3.col"
    write_graph(complete_graph(3), str(base))
    argv = ["construct", "gadget", "--h", str(base), "--k", str(base), "--y", "3"]
    assert main([*argv, "-o", str(tmp_path / "g.col")]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error:parameter: attachment vertex y=3 not in second graph\n"
    assert not (tmp_path / "g.col").exists()


def test_unwritable_graph_output_is_an_output_error(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.col"
    assert main(["construct", "complete", "--p", "3", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error:output: {out}: cannot write")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_unwritable_json_report_is_an_output_error(tmp_path, capsys):
    graph = tmp_path / "k3.col"
    write_graph(complete_graph(3), str(graph))
    out = tmp_path / "nodir" / "x.json"
    assert main(["chromatic", str(graph), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error:output: {out}: cannot write")
    assert captured.err.count("\n") == 1
