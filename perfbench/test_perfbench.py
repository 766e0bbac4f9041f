"""Tests of the benchmark itself, each on a short run.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import cases
import run
import spans

REPO_ROOT = cases.BENCH_DIR.parent
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, seed: int, trace: int, cwd=REPO_ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def suite_runs():
    return {trace: bench("suite", 5, trace) for trace in (0, 1)}


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_prints_with_a_unit(suite_runs, trace, section):
    proc = suite_runs[trace]
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    lines = proc.stdout.splitlines()
    for name, unit in expected.items():
        assert any(
            line.startswith(f"{name} = ") and f" {unit} (" in line for line in lines
        ), name
    assert any(line.startswith("fail_ratio = 0 ratio") for line in lines)
    env = next(line for line in lines if line.startswith("env "))
    for key in ("python=", "nproc=", "loadavg_start=", "loadavg_end="):
        assert key in env


def test_exact_counts_repeat_at_the_same_seed(suite_runs):
    first = result_of(suite_runs[1])["metrics"]
    second = result_of(bench("suite", 5, 1))["metrics"]
    counts = {name for name, m in first.items() if m["unit"] == "count"}
    assert {"complexes.faces", "snf.calls", "invariants.kcol_calls"} <= counts
    for name in counts:
        assert first[name]["value"] == second[name]["value"], name
    assert first["snf.calls"]["value"] > 0
    assert first["snf.dense_calls"]["value"] > first["snf.sparse_calls"]["value"] > 0


def test_tampered_reference_counts_in_fail_ratio(monkeypatch):
    lib = cases.import_library()
    smallest = cases.rung_label(*cases.KNESER_RUNGS[0])
    honest = cases.build_kneser(lib, 7).cases[:1]
    assert honest[0].label == smallest
    assert cases.run_passes(honest, 0).fail_ratio == 0

    reference = cases.load_reference()
    reference[smallest] = [[b + 1, t] for b, t in reference[smallest]]
    monkeypatch.setattr(cases, "load_reference", lambda: reference)
    tampered = cases.build_kneser(lib, 7).cases[:1]
    m = cases.run_passes(tampered, 0)
    assert (m.attempted, m.failed, m.fail_ratio) == (1, 1, 1.0)
    assert "reference" in m.failures[0]


def test_a_raising_case_is_a_failure_not_a_crash():
    def boom():
        raise ValueError("boom")

    ok = cases.Case("ok", lambda: 1, lambda result: None)
    m = cases.run_passes([ok, cases.Case("boom", boom, lambda result: None)], 0)
    assert (m.attempted, m.failed, m.fail_ratio) == (2, 1, 0.5)
    assert len(m.case_ms) == 2


def test_timings_take_each_case_at_its_median_over_the_passes():
    m = cases.Measurement(2, case_ms=[5.0, 1.0, 3.0, 4.0, 9.0, 2.0])
    assert m.median_ms == [5.0, 2.0]
    assert m.cases_per_s == 2 / 0.007


def test_slowdown_is_the_mean_kernel_time_over_the_reference():
    assert cases.Measurement(1).slowdown == 1.0
    ref = cases.REFERENCE_KERNEL_MS
    m = cases.Measurement(1, kernel_ms=[ref, 4 * ref, ref])
    assert m.slowdown == 2.0
    ok = cases.Case("ok", lambda: 1, lambda result: None)
    assert len(cases.run_passes([ok], 0).kernel_ms) == 1


def test_tracer_restores_every_binding():
    lib = cases.import_library()

    def bindings():
        return {(m, a): getattr(getattr(lib, m), a) for m, a, _, _ in spans.BINDINGS}

    before = bindings()
    tracer = spans.Tracer(lib)
    with tracer.installed():
        assert lib.homology.smith_normal_form is not before["homology", "smith_normal_form"]
        assert lib.verify.verify_corollary(lib.CorollaryParams(1, 1, 2, 3)).passed
    assert not tracer.missing
    assert bindings() == before
    assert tracer.summary(1)["snf.calls"] > 0


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        cases.BENCH_DIR, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = bench("suite", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert "lovaszgap" in proc.stderr


def test_tail_percentile_keeps_ten_cases_beyond_it():
    assert run.tail_percentile([float(x) for x in range(1, 101)]) == (90.0, 90.0)
    assert run.tail_percentile([float(x) for x in range(1, 1001)]) == (99.0, 990.0)
    assert run.tail_percentile([float(x) for x in range(1, 40)]) == (100.0, 39.0)
