"""End-to-end verification pipelines and machine-readable reports.

Two checks are wired together here.  The wedge check computes reduced
Betti numbers and torsion of the bridged gadget's neighborhood complex and
compares them, degree by degree, against the direct sum of the parts'
groups plus one extra circle in degree 1, which is the homological
consequence of collapsing the bridge.  The separation check builds the
composite graph and verifies, all exactly, that its chromatic number hits
the target, the clique number stays at the planted clique, the planted
biclique is present, and the certified topological bound is stuck at 3.

The batch suite runs one wedge check for each pair of four small
graphs, and the conn = 0 certificate on five.  One ``run_suite`` call
builds each of the six family graphs once and passes its complex once, at
cap 3; the wedge and certificate cases read those passes, which live only
for that call.  Nothing is cached across calls.
"""

from __future__ import annotations

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
    HomologyPass,
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
    parts: tuple[HomologyPass, HomologyPass] | None = None,
) -> WedgeCheckReport:
    """Check that the gadget's neighborhood complex carries exactly the
    homology of the two parts' complexes plus one extra circle, and that
    the conn = 0 certificate holds on it.  ``parts`` are the first and the
    second part's passes, each through degree ``cap`` or above, for a caller
    that checks many gadgets on the same parts; a part pass below ``cap``
    raises IndexError.  Without them, the gadget is passed, then the first
    part, then the second unless it equals the first.  The parts'
    hypotheses are checked either way."""
    for g, which in ((spec.h, "first"), (spec.k, "second")):
        if not is_connected(g):
            raise PreconditionError(f"{which} graph must be connected")
        if is_bipartite(g)[0]:
            raise PreconditionError(f"{which} graph must be non-bipartite")
    built = build_gadget(spec)
    gadget = homology_pass(neighborhood_complex(built.graph), cap, limit)
    if parts is None:
        first = homology_pass(neighborhood_complex(spec.h), cap, limit)
        if spec.k == spec.h:
            parts = first, first
        else:
            parts = first, homology_pass(neighborhood_complex(spec.k), cap, limit)
    a, b = (part.profile for part in parts)
    # the expected group adds the extra circle, Z in degree 1
    rows = tuple(
        WedgeCheckRow(g, a[i], b[i], a[i] + b[i] + HomologyGroup(i, int(i == 1), ()))
        for i, g in enumerate(gadget.profile)
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

# (family, expectation, the connectivity it expects); the connectivity
# fixes the certificate's certified_conn_zero, connectedness and flags
# (homology._connectivity)
CERTIFICATE_CASES: tuple[tuple[str, str, int | str], ...] = (
    ("K2", "certified-fails-disconnected", -1),
    ("K3", "certified", 0),
    ("K4", "certified-fails-trivial-h1", ">=1"),
    ("C4", "certified-fails-disconnected", -1),
    ("C5", "certified", 0),
)

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


def run_suite(seed: int = 0, full: bool = False) -> dict:
    """Run every suite case; the result dict is deterministic (cases sorted
    by key, no wall-clock fields).  Each family graph (``K<p>`` the complete
    graph on p vertices, ``C<n>`` the n-cycle) is built once, and its
    complex passed once, at cap 3, the highest degree a case reads; the
    wedge and certificate cases read those passes, which live only for this
    call.  Each unordered pair of wedge families is wedged once, at vertex 0
    on both sides: every family is vertex-transitive, so another base point
    gives an isomorphic gadget.  ``seed`` selects nothing: the report echoes
    it under ``seed`` for the benchmark harness, which runs ``run_suite(s)``
    over several s and checks the echo."""
    names = dict.fromkeys(SUITE_FAMILIES + tuple(c[0] for c in CERTIFICATE_CASES))
    graphs = {n: (complete_graph if n[0] == "K" else cycle_graph)(int(n[1:])) for n in names}
    passes = {n: homology_pass(neighborhood_complex(g), 3) for n, g in graphs.items()}
    reports = []
    for i, h in enumerate(SUITE_FAMILIES):
        for k in SUITE_FAMILIES[i:]:
            cap = 3 if "K4" in (h, k) else 2
            spec = GadgetSpec(graphs[h], 0, graphs[k], 0)
            report = verify_wedge_decomposition(spec, cap, parts=(passes[h], passes[k]))
            reports.append(wedge_report_json(report, h, 0, k, 0, cap))
    for name, expectation, conn in CERTIFICATE_CASES:
        cert = passes[name].certificate
        params = {"graph": name, "expect": expectation}
        ok = cert.homological_connectivity == conn
        reports.append(
            _report_json(f"certificate({name})", params, graphs[name], cert, [cert.h1], {}, ok)
        )
    for params in FULL_COROLLARY_PARAMS if full else SUITE_COROLLARY_PARAMS:
        reports.append(corollary_report_json(verify_corollary(CorollaryParams(*params))))
    reports.sort(key=lambda r: r["case"])
    return {
        "seed": seed,
        "cases": reports,
        "pass": all(r["pass"] for r in reports),
    }
