"""Benchmark of the lovaszgap verifier, driven through its public API.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload {separation,kneser_homology,suite} \
        --seed N --seconds S --trace {0,1}

One process, one caller, a closed loop: each case starts when the previous
one has returned and been checked.  Workload inputs come from ``--seed``
(see ``cases.py``); every case's result is checked, and a case that raises
or fails its check counts in ``fail_ratio`` without stopping the run.

``--trace 0`` prints the end-to-end metrics.  Their timings take each case
at its median over the run's passes (``cases.Measurement.median_ms``), and
``setup_s`` is the median of fresh interpreters spread over the run.  All
four timings are then scaled to a machine of reference speed: divided by
the run's slowdown, its mean speed-kernel time over
``cases.REFERENCE_KERNEL_MS`` (see ``cases.speed_kernel``), because a
shared host's speed swings by far more than any bound over minutes.  The
unscaled value of each is printed next to it.
``--trace 1`` runs the same passes untraced for half the time and traced
for the other half, prints the per-layer metrics (per pass) and the tracing
overhead, and writes every span to ``perfbench/out/``.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The run exits with code 2, printing no result, when the checkout holds no
``src/lovaszgap``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import cases
import spans

PROBE = cases.BENCH_DIR / "setup_probe.py"
OUT_DIR = cases.BENCH_DIR / "out"
SETUP_REPEATS = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

E2E_UNITS = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_ms.p50": "ms",
    "case_ms.tail": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile (nearest rank) with at least 10 cases
    beyond it.  Below 40 cases there is none, and the slowest case stands
    in as p100."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 100.0, xs[-1]


class SetupProbes:
    """Wall time of fresh interpreters that import lovaszgap and build the
    workload's inputs.  The probes are spread between the passes, so that
    their median covers the whole run rather than a few seconds of it."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, str(PROBE), workload, str(seed)]
        self.times: list[float] = []

    def __call__(self, share: float) -> None:
        while len(self.times) < math.ceil(SETUP_REPEATS * share):
            t0 = time.perf_counter()
            # no timeout: subprocess waits for one by polling with sleeps of
            # up to 50 ms, which would round every time up to that schedule
            subprocess.run(self.argv, check=True, stdout=subprocess.DEVNULL)
            self.times.append(time.perf_counter() - t0)


def loadavg() -> str:
    return " ".join(f"{x:.2f}" for x in os.getloadavg())


def report_failures(m: cases.Measurement) -> None:
    for line in m.failures[:10]:
        print(f"failed: {line}", file=sys.stderr)
    if m.failed > 10:
        print(f"failed: ... {m.failed - 10} more", file=sys.stderr)


def end_to_end(workload: cases.Workload, seed: int, seconds: float):
    setup = SetupProbes(workload.name, seed)
    m = cases.run_passes(workload.cases, seconds, after_pass=setup)
    setup(1.0)
    per_case = m.median_ms
    p, tail = tail_percentile(per_case)
    raw = {
        "setup_s": statistics.median(setup.times),
        "cases_per_s": m.cases_per_s,
        "case_ms.p50": statistics.median(per_case),
        "case_ms.tail": tail,
    }
    slow = m.slowdown
    metrics = {
        name: value * slow if name == "cases_per_s" else value / slow
        for name, value in raw.items()
    }
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"speed kernel mean {statistics.fmean(m.kernel_ms):.3f} ms over"
        f" {len(m.kernel_ms)} samples; slowdown {slow:.4f} against"
        f" {cases.REFERENCE_KERNEL_MS:g} ms; timings below are divided by it"
    )
    passes = f"each at its median of {m.passes} passes"
    notes = {
        "setup_s": f"median of {len(setup.times)} fresh interpreters",
        "cases_per_s": f"one pass of {len(per_case)} cases, {passes}",
        "case_ms.p50": f"n={len(per_case)} cases, {passes}",
        "case_ms.tail": f"p{p:g} of n={len(per_case)} cases, {passes}",
    }
    for name, value in raw.items():
        notes[name] += f"; raw {value:.6g} {E2E_UNITS[name]}"
    notes["peak_rss_mb"] = "ru_maxrss"
    return m, metrics, E2E_UNITS, notes


def traced(lib, workload: cases.Workload, seed: int, seconds: float):
    untraced = cases.run_passes(workload.cases, seconds / 2)
    tracer = spans.Tracer(lib)
    with tracer.installed():
        m = cases.run_passes(workload.cases, seconds / 2, tracer)
    metrics = tracer.summary(m.passes)
    # each half scaled by its own slowdown, as in end_to_end, so that the
    # ratio is not the machine changing speed between the halves
    rate_u = untraced.cases_per_s * untraced.slowdown
    rate_t = m.cases_per_s * m.slowdown
    metrics["trace.cases_per_s_untraced"] = rate_u
    metrics["trace.cases_per_s_traced"] = rate_t
    metrics["trace.overhead_ratio"] = rate_t / rate_u
    path = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(path, {"workload": workload.name, "seed": seed, "passes": m.passes})
    notes = {name: f"per pass, over {m.passes} traced passes" for name in metrics}
    notes.update(
        {
            "trace.cases_per_s_untraced": f"{untraced.passes} passes, {untraced.wall_s:.1f} s,"
            f" slowdown {untraced.slowdown:.4f}, raw {untraced.cases_per_s:.6g} 1/s",
            "trace.cases_per_s_traced": f"{m.passes} passes, {m.wall_s:.1f} s,"
            f" slowdown {m.slowdown:.4f}, raw {m.cases_per_s:.6g} 1/s",
            "trace.overhead_ratio": "traced / untraced cases_per_s",
        }
    )
    print(f"spans {len(tracer.spans)} written to {path.relative_to(cases.BENCH_DIR.parent)}")
    if tracer.missing:
        print(f"bindings not found: {', '.join(tracer.missing)}")
    combined = cases.Measurement(
        len(workload.cases),
        attempted=untraced.attempted + m.attempted,
        failed=untraced.failed + m.failed,
        failures=untraced.failures + m.failures,
    )
    return combined, metrics, spans.layer_units(), notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_start = loadavg()
    try:
        lib = cases.import_library()
    except cases.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = cases.build_workload(lib, args.workload, args.seed)
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"inputs {workload.inputs}")
    try:
        if args.trace:
            m, metrics, units, notes = traced(lib, workload, args.seed, args.seconds)
        else:
            m, metrics, units, notes = end_to_end(workload, args.seed, args.seconds)
    except subprocess.CalledProcessError as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2
    print(
        f"env python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}"
        f" loadavg_start={load_start} loadavg_end={loadavg()}"
    )
    report_failures(m)
    print(f"fail_ratio = {m.fail_ratio:g} ratio ({m.failed} failed of {m.attempted} attempted)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} ({notes[name]})")
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
