"""Command-line front door.

Exit codes: 0 success/verified, 1 a verification clause failed, 2 usage,
input or output error, 3 face budget exceeded, 4 internal error (an
unexpected exception, i.e. a bug).  Errors go to stderr as one line with
the machine-greppable prefix ``error:<kind>:``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import complexes, dimacs, verify
from .errors import BudgetExceededError, OutputError, ParameterError, ToolkitError
from .graphs import (
    FAMILIES,
    CorollaryParams,
    GadgetSpec,
    build_corollary_graph,
    build_gadget,
    mycielskian,
)
from .homology import DEFAULT_FACE_BUDGET, homology_pass
from .invariants import chromatic_number, max_clique

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        sys.stderr.write(f"error:usage: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _err(kind: str, message: object) -> None:
    sys.stderr.write(f"error:{kind}: {message}\n")


def _write(text: str, path: str | None) -> None:
    """Write text to a file, or to stdout when path is None or '-'."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OutputError(f"{path}: cannot write ({exc.strerror or exc})") from None


def _run(args) -> int:
    """Run the subcommand's handler, which returns (payload, summary line,
    failure message), each possibly None.  Under --timings the payload's
    wall_time_ms covers the handler through building its report.  The
    payload goes as JSON where --json says; the summary goes to stdout, or to
    stderr when the JSON does, so that stdout stays one JSON document; a
    failure becomes one error:verify: line and exit 1.  A --max-dim past
    a --limit of at least 1 is refused up front: the face budget bounds the
    report's length too, one group per degree."""
    if "max_dim" in args and 1 <= args.limit < args.max_dim:
        raise ParameterError(
            f"--max-dim {args.max_dim} exceeds the face budget {args.limit}"
        )
    start = time.monotonic()
    payload, summary, failure = args.func(args)
    if "timings" in args:
        elapsed = int((time.monotonic() - start) * 1000)
        payload["wall_time_ms"] = elapsed if args.timings else None
    json_path = getattr(args, "json", None)
    if payload is not None and json_path is not None:
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n", json_path)
    if summary is not None:
        print(summary, file=sys.stderr if json_path == "-" else sys.stdout)
    if failure is not None:
        _err("verify", failure)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload, summary, failure) for _run


def _gadget_spec(args) -> GadgetSpec:
    h, k = dimacs.read_graph(args.h), dimacs.read_graph(args.k)
    return GadgetSpec(h=h, x=args.x, k=k, y=args.y)


def _cmd_construct(args):
    family, payload = args.family, None
    if family in FAMILIES:
        build, params = FAMILIES[family]
        graph = build(*(getattr(args, p) for p in params))
    elif family == "mycielski":
        graph = mycielskian(dimacs.read_graph(args.graph))
    elif args.json == "-" and args.output in (None, "-"):
        raise ParameterError(
            "--json - needs -o FILE: the graph would share stdout with the JSON"
        )
    elif family == "gadget":
        built = build_gadget(_gadget_spec(args))
        graph, payload = built.graph, {"z": built.z, "x": built.x, "y": built.y}
    else:  # corollary
        built = build_corollary_graph(CorollaryParams(args.l, args.m, args.p, args.q))
        graph, payload = built.graph, verify._planted_json(built)
        payload["clique"] = list(built.clique)
    _write(dimacs.format_graph(graph), args.output)
    return payload, None, None


def _cmd_ncomplex(args):
    g = dimacs.read_graph(args.graph)
    _write(complexes.format_facets(complexes.neighborhood_complex(g)), args.output)
    return None, None, None


def _cmd_homology(args):
    topology = homology_pass(complexes.read_facets(args.complex), args.max_dim, args.limit)
    payload = {
        "case": f"homology({args.complex})",
        "homology": verify._homology_json(topology.profile),
        "certificate": verify._certificate_json(topology.certificate),
    }
    summary = "\n".join(
        f"H~{g.dimension}: betti={g.betti} torsion=[{','.join(map(str, g.torsion))}]"
        for g in topology.profile
    )
    return payload, summary, None


def _cmd_chromatic(args):
    chi, coloring, chi_lower, _, _ = chromatic_number(dimacs.read_graph(args.graph))
    payload = {
        "chi": chi,
        "coloring": list(coloring.assignment),
        "chi_lower": verify._chi_lower_json(chi_lower),
    }
    return payload, f"chi={chi}", None


def _cmd_clique(args):
    omega, witness = max_clique(dimacs.read_graph(args.graph))
    return {"omega": omega, "clique": list(witness.vertices)}, f"omega={omega}", None


def _cmd_bounds(args):
    g = dimacs.read_graph(args.graph)
    report = verify.compare_bounds(g, cap=args.max_dim, limit=args.limit)
    certified = report.lovasz_certified
    summary = (
        f"chi={report.chi} omega={report.omega} "
        f"lovasz_certified={'none' if certified is None else certified} "
        f"greedy_upper={report.greedy_upper}"
    )
    return verify.bounds_report_json(f"bounds({args.graph})", g, report), summary, None


def _cmd_verify_theorem2(args):
    spec = _gadget_spec(args)
    report = verify.verify_wedge_decomposition(spec, cap=args.max_dim, limit=args.limit)
    payload = verify.wedge_report_json(report, args.h, args.x, args.k, args.y, args.max_dim)
    if report.passed:
        return payload, "pass", None
    failing = [str(r.dim) for r in report.rows if not r.ok]
    if not report.certificate.certified_conn_zero:
        failing.append("certificate")
    return payload, None, f"wedge check failed: {','.join(failing)}"


def _cmd_verify_corollary(args):
    report = verify.verify_corollary(
        CorollaryParams(args.l, args.m, args.p, args.q), limit=args.limit
    )
    payload = verify.corollary_report_json(report)
    if not report.passed:
        return payload, None, f"clauses failed: {','.join(report.failing_clauses())}"
    bound = report.bound
    summary = (
        f"pass chi={bound.chi} omega={bound.omega} "
        f"lovasz_certified={bound.lovasz_certified}"
    )
    return payload, summary, None


def _cmd_verify_suite(args):
    result = verify.run_suite(full=args.full)
    n = len(result["cases"])
    failed = [c["case"] for c in result["cases"] if not c["pass"]]
    failure = f"failing cases: {','.join(failed)}" if failed else None
    return result, f"suite: {n - len(failed)}/{n} cases passed", failure


# ---------------------------------------------------------------------------
# parser wiring


def _add_gadget(p) -> None:
    p.add_argument("--h", required=True, metavar="GRAPH")
    p.add_argument("--x", type=int, default=0)
    p.add_argument("--k", required=True, metavar="GRAPH")
    p.add_argument("--y", type=int, default=0)


def _add_report(p) -> None:
    """--limit, --json and --timings, for the commands that run the homology
    pass and write a full report."""
    p.add_argument(
        "--limit", type=int, default=DEFAULT_FACE_BUDGET, help="face-count budget"
    )
    p.add_argument("--json", metavar="FILE", help="write a JSON report ('-' = stdout)")
    p.add_argument(
        "--timings",
        action="store_true",
        help="fill wall_time_ms in reports (off by default so reports are byte-stable)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lovaszgap")
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser("construct", help="build a graph and write DIMACS")
    csub = construct.add_subparsers(dest="family", required=True)
    # every family takes -o; corollary's --l/--m/--p/--q are int parameters
    # like those of the FAMILIES builders, and gadget and corollary take --json
    families = {name: params for name, (_, params) in FAMILIES.items()}
    families.update(mycielski=(), gadget=(), corollary=("l", "m", "p", "q"))
    for name, params in families.items():
        p = csub.add_parser(name)
        for param in params:
            p.add_argument(f"--{param}", type=int, required=True)
        p.add_argument("-o", "--output", metavar="FILE")
        if name in ("gadget", "corollary"):
            p.add_argument("--json", metavar="FILE")
        p.set_defaults(func=_cmd_construct)
    csub.choices["mycielski"].add_argument("--graph", required=True, metavar="FILE")
    _add_gadget(csub.choices["gadget"])

    p = sub.add_parser("ncomplex", help="neighborhood complex facets of a graph")
    p.add_argument("graph", metavar="GRAPH")
    p.add_argument("-o", "--output", metavar="FACETS")
    p.set_defaults(func=_cmd_ncomplex)

    p = sub.add_parser("homology", help="reduced homology of a facet-list complex")
    p.add_argument("--complex", required=True, metavar="FACETS")
    p.add_argument("--max-dim", type=int, default=2)
    _add_report(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("chromatic", help="exact chromatic number")
    p.add_argument("graph", metavar="GRAPH")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_chromatic)

    p = sub.add_parser("clique", help="exact clique number")
    p.add_argument("graph", metavar="GRAPH")
    p.add_argument("--json", metavar="FILE")
    p.set_defaults(func=_cmd_clique)

    p = sub.add_parser("bounds", help="compare chi, omega, and the certified bound")
    p.add_argument("graph", metavar="GRAPH")
    p.add_argument("--max-dim", type=int, default=2)
    _add_report(p)
    p.set_defaults(func=_cmd_bounds)

    verify_p = sub.add_parser("verify", help="run a verification pipeline")
    vsub = verify_p.add_subparsers(dest="pipeline", required=True)

    p = vsub.add_parser("theorem2", help="wedge decomposition of a gadget complex")
    _add_gadget(p)
    p.add_argument("--max-dim", type=int, default=2)
    _add_report(p)
    p.set_defaults(func=_cmd_verify_theorem2)

    p = vsub.add_parser("corollary", help="chi/omega/bound separation check")
    for flag in ("--l", "--m", "--p", "--q"):
        p.add_argument(flag, type=int, required=True)
    _add_report(p)
    p.set_defaults(func=_cmd_verify_corollary)

    p = vsub.add_parser("suite", help="run the whole verification suite")
    p.add_argument(
        "--full",
        action="store_true",
        help="also run the larger q=5, q=6 and q=7 separation cases",
    )
    p.add_argument(
        "--json", metavar="FILE", default="-", help="write the suite report ('-' = stdout)"
    )
    p.set_defaults(func=_cmd_verify_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run(args)
    except BudgetExceededError as exc:
        _err(exc.kind, exc)
        return EXIT_BUDGET
    except ToolkitError as exc:
        _err(exc.kind, exc)
        return EXIT_USAGE
    except OSError as exc:
        _err("input", exc)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).split())
        sys.stderr.write(f"error:internal: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())
