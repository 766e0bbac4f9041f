"""Workload inputs, case runners and correctness checks for the benchmark.

A workload is one *pass*: a fixed list of cases generated from the seed.
The benchmark repeats the pass in a closed loop, so every pass does the
same work and per-pass counts are exact (a ``kneser_homology`` case takes
the next of its relabellings each pass, and relabelling changes no count).
The library sees only the generated inputs (tuples, graphs, suite seeds).

Library functions are looked up on their module at call time, so the
tracer in ``spans.py`` sees the calls the benchmark makes itself.
"""

from __future__ import annotations

import gc
import itertools
import json
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
REFERENCE_FILE = BENCH_DIR / "reference.json"

# separation: every (p, q) stratum gets this many distinct (l, m) draws per
# pass.  Chi time depends mostly on (p, q), so stratifying keeps the mix of
# slow and fast cases the same for every seed; 6 of the 9 (l, m) pairs keeps
# the seed-to-seed spread of the drawn inputs near 2%.
SEPARATION_Q = (3, 4, 5)
SEPARATION_SIDES = (1, 2, 3)
SEPARATION_DRAWS = 6

# kneser_homology: (n, k, homology cap).  KG(9,3) at cap 2 (188 s) is left
# out because a run could not be repeated often enough.
KNESER_RUNGS = ((7, 2, 3), (8, 3, 2), (8, 2, 2), (9, 3, 1))
# Relabellings per rung, one per pass in turn.  The time of one relabelling
# depends on it (up to 15% on KG(8,2)), so a single one per seed would make
# case_ms.p50 differ from seed to seed; a case's median over the passes
# averages over several.
KNESER_RELABELLINGS = 8

# suite: consecutive seeds per pass, each one full run_suite call.
SUITE_SEEDS = 8


class LibraryMissing(RuntimeError):
    """The checkout holds no importable ``src/lovaszgap``."""


class CheckFailed(Exception):
    """A case returned a result that its correctness check rejects."""


def import_library():
    """Import lovaszgap from this checkout's ``src``, never from elsewhere."""
    init = SRC_DIR / "lovaszgap" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"no lovaszgap package under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import lovaszgap

    if Path(lovaszgap.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"lovaszgap imported from {lovaszgap.__file__}, not {init}")
    return lovaszgap


@dataclass(frozen=True)
class Case:
    label: str
    run: Callable[[], Any]  # the timed library call
    check: Callable[[Any], None]  # raises CheckFailed on a wrong result


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: str  # one-line record of the generated inputs
    cases: tuple[Case, ...]  # one pass


# ---------------------------------------------------------------------------
# separation


def separation_inputs(seed: int) -> list[tuple[int, int, int, int]]:
    rng = random.Random(seed)
    sides = [(l, m) for l in SEPARATION_SIDES for m in SEPARATION_SIDES]
    tuples = [
        (l, m, p, q)
        for q in SEPARATION_Q
        for p in range(2, q + 1)
        for l, m in rng.sample(sides, SEPARATION_DRAWS)
    ]
    rng.shuffle(tuples)
    return tuples


def _separation_case(lib, params: tuple[int, int, int, int]) -> Case:
    l, m, p, q = params

    def run():
        return lib.verify.verify_corollary(lib.CorollaryParams(l, m, p, q))

    def check(report) -> None:
        if not report.passed:
            raise CheckFailed(f"failing clauses {report.failing_clauses()}")
        g = report.built.graph
        bound = report.bound
        bound.coloring.validate(g)
        bound.clique.validate(g)
        if bound.coloring.k != q or len(bound.clique.vertices) != p:
            raise CheckFailed(
                f"witness sizes {bound.coloring.k}, {len(bound.clique.vertices)}"
                f" != q={q}, p={p}"
            )
        left, right = report.built.biclique_left, report.built.biclique_right
        if len(left) != l or len(right) != m:
            raise CheckFailed(f"biclique sides {len(left)}, {len(right)} != {l}, {m}")
        if not lib.invariants.verify_biclique_certificate(g, left, right):
            raise CheckFailed("planted biclique missing")

    return Case(f"corollary{params}", run, check)


def build_separation(lib, seed: int) -> Workload:
    tuples = separation_inputs(seed)
    return Workload(
        "separation",
        f"(l,m,p,q)={tuples}",
        tuple(_separation_case(lib, t) for t in tuples),
    )


# ---------------------------------------------------------------------------
# kneser_homology


def rung_label(n: int, k: int, cap: int) -> str:
    return f"KG({n},{k})@{cap}"


def profile_key(profile) -> list[list]:
    """Homology profile as JSON-shaped [betti, [torsion...]] per degree."""
    return [[g.betti, list(g.torsion)] for g in profile]


def load_reference() -> dict[str, list[list]]:
    with open(REFERENCE_FILE, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _kneser_case(lib, label: str, graphs: list, cap: int, expected: list[list]) -> Case:
    relabellings = itertools.cycle(graphs)

    def run():
        complex_ = lib.complexes.neighborhood_complex(next(relabellings))
        return lib.homology.homology_profile(complex_, cap)

    def check(profile) -> None:
        got = profile_key(profile)
        if got != expected:
            raise CheckFailed(f"{label}: profile {got} != reference {expected}")

    return Case(label, run, check)


def build_kneser(lib, seed: int) -> Workload:
    """Kneser graphs with vertices relabelled by seeded permutations; the
    relabelling changes face order and pivot ties but not the homology."""
    reference = load_reference()
    rng = random.Random(seed)
    cases = []
    for n, k, cap in KNESER_RUNGS:
        g = lib.kneser_graph(n, k)
        edges = list(g.edges())
        graphs = []
        for _ in range(KNESER_RELABELLINGS):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(lib.Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in edges)))
        label = rung_label(n, k, cap)
        cases.append(_kneser_case(lib, label, graphs, cap, reference[label]))
    rungs = ", ".join(rung_label(*r) for r in KNESER_RUNGS)
    return Workload(
        "kneser_homology",
        f"rungs=[{rungs}] permutation_seed={seed} relabellings={KNESER_RELABELLINGS}",
        tuple(cases),
    )


# ---------------------------------------------------------------------------
# suite


def _suite_case(lib, suite_seed: int) -> Case:
    def run():
        return lib.verify.run_suite(suite_seed, full=False)

    def check(report) -> None:
        if report["seed"] != suite_seed or not report["cases"]:
            raise CheckFailed(f"suite seed {suite_seed}: malformed report")
        failing = [c["case"] for c in report["cases"] if not c["pass"]]
        if failing or not report["pass"]:
            raise CheckFailed(f"suite seed {suite_seed}: failing cases {failing}")

    return Case(f"suite({suite_seed})", run, check)


def build_suite(lib, seed: int) -> Workload:
    seeds = range(seed, seed + SUITE_SEEDS)
    return Workload(
        "suite",
        f"run_suite seeds {seeds.start}..{seeds.stop - 1}, full=False",
        tuple(_suite_case(lib, s) for s in seeds),
    )


WORKLOADS = {
    "separation": build_separation,
    "kneser_homology": build_kneser,
    "suite": build_suite,
}


def build_workload(lib, name: str, seed: int) -> Workload:
    return WORKLOADS[name](lib, seed)


# ---------------------------------------------------------------------------
# the closed loop

# Machine speed.  On a shared 2-core host the speed of the whole machine
# swings by up to 50% over minutes, and every library timing moves with it:
# over 30-s windows a case's median time varied by 20%, its ratio to the
# kernel's by 4%.  A fixed kernel, timed between cases, measures that speed,
# so that end-to-end timings can be scaled to a machine on which the kernel
# takes REFERENCE_KERNEL_MS -- about its time on the 2-core Xeon x86-64
# virtual machine where the benchmark was written.
REFERENCE_KERNEL_MS = 10.0
KERNEL_INTERVAL_S = 0.25


def speed_kernel() -> int:
    """Fixed pure-Python work in the library's idiom (dict counts, a sort,
    frozensets of ints); it never calls the library."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(30000):
        key = (i * 7919) % 10007
        counts[key] = counts.get(key, 0) + 1
        total += key & 3
    ranked = sorted(counts.items(), key=lambda kv: kv[1])
    faces = {frozenset((a, a + 1, a + 2)) for a, _ in ranked[:3000]}
    return total + len(faces)


def time_speed_kernel() -> float:
    """One kernel sample in ms, with the cyclic collector off, so that the
    sample does not depend on how many objects the library or the tracer
    keep alive."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        speed_kernel()
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


@dataclass
class Measurement:
    """What one closed-loop run saw: every case's latency in run order,
    wall time of the whole passes, speed-kernel times, and failures."""

    pass_size: int
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    wall_s: float = 0.0
    case_ms: list[float] = field(default_factory=list)
    kernel_ms: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def median_ms(self) -> list[float]:
        """Each case at its median over the passes.  On a shared 2-core
        machine the speed of the whole box drifts by 20% within seconds, so
        a case's fastest pass is a lucky draw that changes from run to run;
        its median over the passes is the steadier estimate."""
        return [
            statistics.median(self.case_ms[i :: self.pass_size])
            for i in range(self.pass_size)
        ]

    @property
    def cases_per_s(self) -> float:
        """Cases per second over one pass, each case at its median."""
        return self.pass_size / (sum(self.median_ms) / 1000.0)

    @property
    def slowdown(self) -> float:
        """Mean speed-kernel time over REFERENCE_KERNEL_MS: how much slower
        than the reference machine this run ran (1.0 if unsampled).  The
        mean, not the median: the machine flips between a fast and a slow
        state every few seconds, a long case pays the time-weighted mix of
        the two, and samples spread evenly in time estimate that mix."""
        if not self.kernel_ms:
            return 1.0
        return statistics.fmean(self.kernel_ms) / REFERENCE_KERNEL_MS


def run_passes(cases, seconds: float, tracer=None, after_pass=None) -> Measurement:
    """Run whole passes over ``cases``, one caller, for about ``seconds``:
    at least one pass, and no pass that, as long as the last one, would end
    past ``seconds``.  A case fails if it raises or its check rejects the
    result; neither stops the run.  ``after_pass`` is called after every
    pass with the share of ``seconds`` used so far.  The speed kernel is
    timed between cases, outside the case timings, once for every
    KERNEL_INTERVAL_S of the run, so that its samples are spread evenly
    over time however long the cases are."""
    out = Measurement(len(cases))
    time_speed_kernel()  # the first call runs slow; it is not a sample
    start = time.perf_counter()
    next_kernel = start
    while True:
        pass_start = time.perf_counter()
        for case in cases:
            while time.perf_counter() >= next_kernel:
                out.kernel_ms.append(time_speed_kernel())
                next_kernel += KERNEL_INTERVAL_S
            out.attempted += 1
            if tracer is not None:
                tracer.begin_case(out.attempted)
            t0 = time.perf_counter()
            try:
                result = case.run()
                out.case_ms.append((time.perf_counter() - t0) * 1000.0)
                case.check(result)
            except Exception as exc:  # every failure is counted, none stops the run
                if len(out.case_ms) < out.attempted:
                    out.case_ms.append((time.perf_counter() - t0) * 1000.0)
                out.failed += 1
                out.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
            finally:
                if tracer is not None:
                    tracer.end_case()
        out.passes += 1
        if after_pass is not None:
            elapsed = time.perf_counter() - start
            after_pass(min(1.0, elapsed / seconds) if seconds > 0 else 1.0)
        now = time.perf_counter()
        out.wall_s = now - start
        if out.wall_s + (now - pass_start) > seconds:
            return out
