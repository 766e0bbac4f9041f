"""End-to-end verification pipelines and machine-readable reports.

Two checks are wired together here.  The wedge check computes reduced
Betti numbers and torsion of the bridged gadget's neighborhood complex and
compares them, degree by degree, against the direct sum of the parts'
groups plus one extra circle in degree 1, which is the homological
consequence of collapsing the bridge.  The separation check builds the
composite graph and verifies, all exactly, that its chromatic number hits
the target, the clique number stays at the planted clique, the planted
biclique is present, and the certified topological bound is stuck at 3.

The batch suite runs many wedge checks on parts drawn from four small
graphs.  One ``run_suite`` call passes each part's complex once per cap:
its cases share one dict, which holds the family graphs and the parts'
passes and lives only for that call.  Nothing is cached across calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexes import neighborhood_complex
from .errors import PreconditionError
from .graphs import (
    CorollaryParams,
    CorollaryResult,
    GadgetSpec,
    Graph,
    build_corollary_graph,
    build_gadget,
    complete_graph,
    cycle_graph,
    is_bipartite,
    is_connected,
)
from .homology import (
    DEFAULT_FACE_BUDGET,
    ConnectivityCertificate,
    HomologyGroup,
    homology_pass,
)
from .invariants import (
    CliqueWitness,
    ColoringWitness,
    LowerBound,
    chromatic_number,
    verify_biclique_certificate,
)


@dataclass(frozen=True)
class WedgeCheckRow:
    """One degree of the wedge check: the gadget's group, the two parts'
    groups, and the group the wedge predicts for the gadget."""

    gadget: HomologyGroup
    first: HomologyGroup
    second: HomologyGroup
    expected: HomologyGroup

    @property
    def dim(self) -> int:
        return self.gadget.dimension

    @property
    def ok(self) -> bool:
        return self.gadget == self.expected


@dataclass(frozen=True)
class WedgeCheckReport:
    rows: tuple[WedgeCheckRow, ...]
    certificate: ConnectivityCertificate
    gadget_graph: Graph
    passed: bool


def verify_wedge_decomposition(
    spec: GadgetSpec,
    cap: int = 2,
    limit: int = DEFAULT_FACE_BUDGET,
    parts: dict | None = None,
) -> WedgeCheckReport:
    """Check that the gadget's neighborhood complex carries exactly the
    homology of the two parts' complexes plus one extra circle, and that
    the conn = 0 certificate holds on it.  ``parts`` maps (part graph, cap,
    limit) to that part's pass: equal parts share one pass, and a caller
    that checks many gadgets passes one dict to pass each part once."""
    parts = {} if parts is None else parts
    keys = ((spec.h, cap, limit), (spec.k, cap, limit))
    # a part with a pass in ``parts`` has met the hypotheses already
    for key, which in zip(keys, ("first", "second")):
        if key not in parts and not is_connected(key[0]):
            raise PreconditionError(f"{which} graph must be connected")
        if key not in parts and is_bipartite(key[0])[0]:
            raise PreconditionError(f"{which} graph must be non-bipartite")
    built = build_gadget(spec)
    gadget = homology_pass(neighborhood_complex(built.graph), cap, limit)
    for key in keys:
        if key not in parts:
            parts[key] = homology_pass(neighborhood_complex(key[0]), cap, limit)
    # the expected group adds the extra circle, Z in degree 1
    profiles = zip(gadget.profile, *(parts[key].profile for key in keys))
    rows = tuple(
        WedgeCheckRow(g, a, b, a + b + HomologyGroup(i, int(i == 1), ()))
        for i, (g, a, b) in enumerate(profiles)
    )
    passed = all(r.ok for r in rows) and gadget.certificate.certified_conn_zero
    return WedgeCheckReport(rows, gadget.certificate, built.graph, passed)


# ---------------------------------------------------------------------------
# bound comparison


@dataclass(frozen=True)
class BoundReport:
    chi: int
    omega: int
    lovasz_certified: int | None
    greedy_upper: int
    homology: tuple[HomologyGroup, ...]
    certificate: ConnectivityCertificate
    homological_connectivity: int | str
    coloring: ColoringWitness
    chi_lower: LowerBound
    clique: CliqueWitness

    def validate(self) -> None:
        if not (self.omega <= self.chi <= self.greedy_upper):
            raise RuntimeError(
                f"bound sandwich violated: {self.omega} <= {self.chi} <= "
                f"{self.greedy_upper}"
            )
        if self.lovasz_certified is not None and self.lovasz_certified > self.chi:
            raise RuntimeError(
                f"certified bound {self.lovasz_certified} exceeds chromatic "
                f"number {self.chi}"
            )
        bound = self.chi_lower.bound
        if bound > self.chi or (bound != self.chi and self.chi_lower.kind != "search"):
            raise RuntimeError(
                f"{self.chi_lower.kind} witness proves chi >= {bound}, not "
                f"chi = {self.chi}"
            )


def certified_bound(certificate: ConnectivityCertificate) -> int | None:
    """Exact certified value of conn + 3 when the certificate pins conn:
    3 for certified conn = 0, 2 for a nonempty disconnected complex (conn
    is exactly -1 there), otherwise None."""
    conn = certificate.homological_connectivity
    return conn + 3 if conn in (0, -1) else None


def compare_bounds(
    g: Graph, cap: int = 2, limit: int = DEFAULT_FACE_BUDGET
) -> BoundReport:
    """Compute every invariant and the connectivity certificate; report
    only, never assert.  omega and the greedy upper bound come from the
    chromatic number's pass over the blocks, since every clique lies inside
    one block and block colorings combine."""
    nc = neighborhood_complex(g)
    topology = homology_pass(nc, cap, limit)
    chi, coloring, chi_lower, clique, upper = chromatic_number(g)
    report = BoundReport(
        chi=chi,
        omega=len(clique.vertices),
        lovasz_certified=certified_bound(topology.certificate),
        greedy_upper=upper,
        homology=() if nc.is_empty() else topology.profile,
        certificate=topology.certificate,
        homological_connectivity=topology.homological_connectivity,
        coloring=coloring,
        chi_lower=chi_lower,
        clique=clique,
    )
    report.validate()
    return report


# ---------------------------------------------------------------------------
# the separation check


@dataclass(frozen=True)
class Clause:
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.actual == self.expected


@dataclass(frozen=True)
class CorollaryReport:
    params: CorollaryParams
    built: CorollaryResult
    clauses: tuple[Clause, ...]
    bound: BoundReport
    passed: bool

    def failing_clauses(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.clauses if not c.ok)


def verify_corollary(
    params: CorollaryParams, limit: int = DEFAULT_FACE_BUDGET
) -> CorollaryReport:
    """Build the separation graph and check chi = q, omega = p, planted
    biclique present, certified bound = 3."""
    built = build_corollary_graph(params)
    bound = compare_bounds(built.graph, cap=1, limit=limit)
    biclique_ok = verify_biclique_certificate(
        built.graph, built.biclique_left, built.biclique_right
    )
    clauses = (
        Clause("chromatic_number", params.q, bound.chi),
        Clause("clique_number", params.p, bound.omega),
        Clause("biclique_certificate", True, biclique_ok),
        Clause("certified_bound", 3, bound.lovasz_certified),
    )
    return CorollaryReport(
        params=params,
        built=built,
        clauses=clauses,
        bound=bound,
        passed=all(c.ok for c in clauses),
    )


# ---------------------------------------------------------------------------
# JSON report assembly (stable field names, deterministic content)


def _homology_json(groups) -> list[dict]:
    return [
        {
            "dim": g.dimension,
            "betti": g.betti,
            "torsion": [str(t) for t in g.torsion],
        }
        for g in groups
    ]


def _certificate_json(cert: ConnectivityCertificate) -> dict:
    return {
        "nonempty": cert.nonempty,
        "connected": cert.connected,
        "h1": _homology_json([cert.h1])[0],
        "certified_conn_zero": cert.certified_conn_zero,
        "homological_connectivity": cert.homological_connectivity,
        "flags": list(cert.flags),
    }


def _chi_lower_json(witness: LowerBound) -> dict:
    """``{kind, bound, ...}``: ``vertices`` for a clique or a search, and
    ``apex``, ``shadows`` ([original, shadow] pairs) and ``inner`` for a
    Mycielski layer, nested down to its base clique."""
    if witness.kind != "mycielski":
        return {
            "kind": witness.kind,
            "bound": witness.bound,
            "vertices": list(witness.vertices),
        }
    payload = _chi_lower_json(witness.base)
    for apex, shadows in witness.layers:
        payload = {
            "kind": witness.kind,
            "bound": payload["bound"] + 1,
            "apex": apex,
            "shadows": [list(pair) for pair in shadows],
            "inner": payload,
        }
    return payload


def _lovasz_json(certificate: ConnectivityCertificate) -> dict:
    value = certified_bound(certificate)
    return {
        "certified": value is not None,
        "value": value,
        "flags": list(certificate.flags),
    }


def _report_json(
    case: str,
    params: dict,
    g: Graph,
    certificate: ConnectivityCertificate,
    homology,
    witnesses: dict,
    passed: bool,
) -> dict:
    """The fields every report carries; ``witnesses`` gains the
    connectivity certificate.  ``chi`` and ``omega`` stay None here: only
    a bound comparison fills them.  ``wall_time_ms`` stays None too: only
    the CLI, which times a whole command, fills it."""
    return {
        "case": case,
        "params": params,
        "graph_stats": {"n": g.n, "m": g.m},
        "chi": None,
        "omega": None,
        "lovasz": _lovasz_json(certificate),
        "homology": _homology_json(homology),
        "witnesses": dict(witnesses, certificate=_certificate_json(certificate)),
        "pass": passed,
        "wall_time_ms": None,
    }


def wedge_report_json(
    report: WedgeCheckReport, h: str, x: int, k: str, y: int, cap: int
) -> dict:
    """The theorem2 report; ``h`` and ``k`` name the two parts (a graph file
    or a suite family), ``x`` and ``y`` are their base points and ``cap`` the
    top degree checked."""
    wedge = [
        {
            "dim": r.dim,
            "gadget_betti": r.gadget.betti,
            "first_betti": r.first.betti,
            "second_betti": r.second.betti,
            "expected_betti": r.expected.betti,
            "expected_torsion": [str(t) for t in r.expected.torsion],
            "ok": r.ok,
        }
        for r in report.rows
    ]
    return _report_json(
        f"theorem2(h={h},x={x},k={k},y={y})",
        {"h": h, "x": x, "k": k, "y": y, "max_dim": cap},
        report.gadget_graph,
        report.certificate,
        [r.gadget for r in report.rows],
        {"wedge": wedge},
        report.passed,
    )


def _planted_json(built: CorollaryResult) -> dict:
    """The planted witnesses of a separation graph: the biclique, the two
    designated vertices and the bridge."""
    return {
        "biclique": {
            "left": list(built.biclique_left),
            "right": list(built.biclique_right),
        },
        "designated": [built.s_first, built.s_second],
        "bridge": built.z,
    }


def _bound_report_json(
    case: str, params: dict, g: Graph, bound: BoundReport, passed: bool, witnesses: dict
) -> dict:
    """A report on a bound comparison: ``chi``, ``omega`` and the coloring,
    chi_lower and clique witnesses, besides the given ``witnesses``."""
    payload = _report_json(
        case,
        params,
        g,
        bound.certificate,
        bound.homology,
        {
            "coloring": list(bound.coloring.assignment),
            "chi_lower": _chi_lower_json(bound.chi_lower),
            "clique": list(bound.clique.vertices),
            **witnesses,
        },
        passed,
    )
    payload.update(chi=bound.chi, omega=bound.omega)
    return payload


def corollary_report_json(report: CorollaryReport) -> dict:
    p = report.params
    payload = _bound_report_json(
        f"corollary(l={p.l},m={p.m},p={p.p},q={p.q})",
        {"l": p.l, "m": p.m, "p": p.p, "q": p.q},
        report.built.graph,
        report.bound,
        report.passed,
        _planted_json(report.built),
    )
    payload["clauses"] = [
        {"clause": c.name, "expected": c.expected, "actual": c.actual, "ok": c.ok}
        for c in report.clauses
    ]
    return payload


def bounds_report_json(case: str, g: Graph, report: BoundReport) -> dict:
    extra = {
        "greedy_upper": report.greedy_upper,
        "homological_connectivity": report.homological_connectivity,
    }
    return _bound_report_json(case, {}, g, report, True, extra)


# ---------------------------------------------------------------------------
# the batch suite


SUITE_FAMILIES: tuple[str, ...] = ("K3", "K4", "C5", "C7")

CERTIFICATE_CASES: tuple[tuple[str, str], ...] = (
    ("K2", "certified-fails-disconnected"),
    ("K3", "certified"),
    ("K4", "certified-fails-trivial-h1"),
    ("C4", "certified-fails-disconnected"),
    ("C5", "certified"),
)

# the connectivity a certificate case expects; it fixes the certificate's
# certified_conn_zero, connectedness and flags (homology._connectivity)
_EXPECTED_CONN = {
    "certified": 0,
    "certified-fails-disconnected": -1,
    "certified-fails-trivial-h1": ">=1",
}

SUITE_COROLLARY_PARAMS: tuple[tuple[int, int, int, int], ...] = (
    (1, 2, 2, 3),
    (2, 2, 3, 3),
    (2, 3, 3, 4),
)

FULL_COROLLARY_PARAMS = SUITE_COROLLARY_PARAMS + (
    (2, 2, 3, 5),
    (2, 2, 3, 6),
    (2, 2, 3, 7),
)


def _suite_graph(name: str, run: dict) -> Graph:
    """``K<p>`` is the complete graph on p vertices, ``C<n>`` the n-cycle;
    each is built once per suite run and kept in ``run`` under its name."""
    if name not in run:
        build = complete_graph if name[0] == "K" else cycle_graph
        run[name] = build(int(name[1:]))
    return run[name]


def suite_cases(seed: int, full: bool = False) -> list[tuple]:
    """Deterministic case descriptors, each once.  Base points: vertex 0 for
    every pair plus one seeded random pair each, unless the draw is vertex 0
    on both sides."""
    rng = random.Random(seed)
    cases: list[tuple] = []
    for i, name_h in enumerate(SUITE_FAMILIES):
        for name_k in SUITE_FAMILIES[i:]:
            cap = 3 if "K4" in (name_h, name_k) else 2
            # a family name ends in its graph's vertex count
            rx, ry = rng.randrange(int(name_h[1:])), rng.randrange(int(name_k[1:]))
            cases.append(("theorem2", name_h, 0, name_k, 0, cap))
            if (rx, ry) != (0, 0):  # else the draw repeats the case above
                cases.append(("theorem2", name_h, rx, name_k, ry, cap))
    for name, expectation in CERTIFICATE_CASES:
        cases.append(("certificate", name, expectation))
    for params in FULL_COROLLARY_PARAMS if full else SUITE_COROLLARY_PARAMS:
        cases.append(("corollary",) + params)
    return cases


def run_suite_case(case: tuple, run: dict | None = None) -> dict:
    """One case's report.  ``run`` holds what one suite run computes once:
    each family graph by name, and each wedge part's pass keyed as
    ``verify_wedge_decomposition`` keys it."""
    run = {} if run is None else run
    kind = case[0]
    if kind == "theorem2":
        _, name_h, x, name_k, y, cap = case
        spec = GadgetSpec(_suite_graph(name_h, run), x, _suite_graph(name_k, run), y)
        report = verify_wedge_decomposition(spec, cap=cap, parts=run)
        return wedge_report_json(report, name_h, x, name_k, y, cap)
    if kind == "certificate":
        _, name, expectation = case
        g = _suite_graph(name, run)
        cert = homology_pass(neighborhood_complex(g), 1).certificate
        ok = cert.homological_connectivity == _EXPECTED_CONN[expectation]
        return _report_json(
            f"certificate({name})",
            {"graph": name, "expect": expectation},
            g,
            cert,
            [cert.h1],
            {},
            ok,
        )
    if kind == "corollary":
        _, l, m, p, q = case
        report = verify_corollary(CorollaryParams(l, m, p, q))
        return corollary_report_json(report)
    raise ValueError(f"unknown case kind {kind!r}")


def run_suite(seed: int = 0, full: bool = False) -> dict:
    """Run every suite case; the result dict is deterministic for a given
    seed (cases sorted by key, no wall-clock fields).  The cases share one
    ``run`` dict (see ``run_suite_case``), which lives only for this call."""
    run: dict = {}
    reports = [run_suite_case(case, run) for case in suite_cases(seed, full)]
    reports.sort(key=lambda r: r["case"])
    return {
        "seed": seed,
        "cases": reports,
        "pass": all(r["pass"] for r in reports),
    }
