"""In-memory spans around the library's layers, for the traced run.

The tracer rebinds library functions where their callers look them up:
``from .snf import smith_normal_form`` copies the name into ``homology``,
so patching ``lovaszgap.snf`` alone would miss the calls from there.
Every binding is restored on exit, and the library's files stay as they
are.  A binding missing from the library (renamed by a later change) is
skipped and reported, so the traced run still works.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _graph_size(args, result):
    g = getattr(result, "graph", result)
    return {"vertices": g.n, "edges": g.m}


def _facets(args, result):
    return {"facets": len(result.facets)}


def _faces(args, result):
    return {"faces": result.count()}


def _nnz(args, result):
    return {"nnz": result.nnz}


def _rank(args, result):
    return {"rank": result.rank}


def _input_entries(args, result):
    return {"entries": args[0].nnz}


def _hit(args, result):
    return {"hits": int(result is not None)}


def _greedy_excess(args, result):
    return {"greedy_excess": result.greedy_upper - result.chi}


# (module of the caller, attribute, span name, counter)
BINDINGS = (
    ("verify", "build_corollary_graph", "graphs.build", _graph_size),
    ("verify", "build_gadget", "graphs.build", _graph_size),
    ("verify", "complete_graph", "graphs.build", _graph_size),
    ("verify", "cycle_graph", "graphs.build", _graph_size),
    ("verify", "neighborhood_complex", "complexes.ncomplex", _facets),
    ("complexes", "neighborhood_complex", "complexes.ncomplex", _facets),
    ("homology", "faces_up_to", "complexes.faces", _faces),
    ("homology", "boundary_matrix", "homology.boundary", _nnz),
    ("homology", "smith_normal_form", "snf", _rank),
    ("snf", "_sparse_snf", "snf.sparse", _input_entries),
    ("snf", "_dense_snf", "snf.dense", None),
    ("verify", "homology_profile", "homology.profile", None),
    ("homology", "homology_profile", "homology.profile", None),
    ("verify", "certify_conn_zero", "homology.certify", None),
    ("homology", "skeleton_components", "homology.components", None),
    ("verify", "chromatic_number", "invariants.chromatic", None),
    ("invariants", "is_k_colorable", "invariants.kcol", _hit),
    ("verify", "max_clique", "invariants.clique", None),
    ("invariants", "max_clique", "invariants.clique", None),
    ("verify", "greedy_dsatur_bound", "invariants.greedy", None),
    ("invariants", "greedy_dsatur_bound", "invariants.greedy", None),
    ("verify", "compare_bounds", "verify.bounds", _greedy_excess),
    ("verify", "verify_wedge_decomposition", "verify.wedge", None),
    ("verify", "wedge_report_json", "verify.report", None),
    ("verify", "corollary_report_json", "verify.report", None),
    ("verify", "run_suite_case", "verify.case", None),
    ("verify", "verify_corollary", "verify.case", None),
)

# spans whose inclusive time, self time and call count are reported
TIMED = (
    "graphs.build",
    "complexes.ncomplex",
    "complexes.faces",
    "homology.boundary",
    "homology.profile",
    "homology.certify",
    "homology.components",
    "snf.sparse",
    "snf.dense",
    "invariants.chromatic",
    "invariants.kcol",
    "invariants.clique",
    "invariants.greedy",
    "verify.bounds",
    "verify.wedge",
    "verify.report",
    "verify.case",
)

# metric -> (span name, counter key); summed over the span's calls
SUMS = {
    "snf.calls": ("snf", None),
    "snf.rank": ("snf", "rank"),
    "snf.sparse_entries": ("snf.sparse", "entries"),
    "graphs.vertices": ("graphs.build", "vertices"),
    "graphs.edges": ("graphs.build", "edges"),
    "complexes.facets": ("complexes.ncomplex", "facets"),
    "complexes.faces": ("complexes.faces", "faces"),
    "homology.boundary_nnz": ("homology.boundary", "nnz"),
    "invariants.greedy_excess": ("verify.bounds", "greedy_excess"),
}

TRACE_METRICS = {
    "trace.cases_per_s_untraced": "1/s",
    "trace.cases_per_s_traced": "1/s",
    "trace.overhead_ratio": "ratio",
}


def layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for name in TIMED:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    for name in SUMS:
        units[name] = "count"
    units["invariants.kcol_hit_ratio"] = "ratio"
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Spans kept in memory as [name, case, parent, start_ns, end_ns,
    counters]; parent is an index into ``spans`` or -1."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = 0
        self.missing: list[str] = []
        self._origin = time.perf_counter_ns()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.case, parent, time.perf_counter_ns() - self._origin, 0, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = time.perf_counter_ns() - self._origin
        self.stack.pop()

    def begin_case(self, case_id: int) -> None:
        self.case = case_id
        self._open("case")

    def end_case(self) -> None:
        self._close(self.stack[0])

    def wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.spans[idx][5] = counter(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        for module_name, attr, name, counter in BINDINGS:
            module = getattr(self.lib, module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass.  Passes repeat the same inputs, so
        counts divide exactly; times are means over the passes."""
        spans = self.spans
        calls = dict.fromkeys(TIMED, 0)
        total_ns = dict.fromkeys(TIMED, 0)
        self_ns = dict.fromkeys(TIMED, 0)
        child_ns = [0] * len(spans)
        for name, _, parent, start, end, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        sums = dict.fromkeys(SUMS, 0)
        hits = 0
        for idx, (name, _, parent, start, end, counters) in enumerate(spans):
            if name in calls:
                calls[name] += 1
                self_ns[name] += end - start - child_ns[idx]
                # inclusive time counts only the outermost span of a name
                up = parent
                while up >= 0 and spans[up][0] != name:
                    up = spans[up][2]
                if up < 0:
                    total_ns[name] += end - start
            for metric, (span_name, key) in SUMS.items():
                if span_name == name:
                    sums[metric] += 1 if key is None else counters[key]
            if name == "invariants.kcol":
                hits += counters["hits"]

        def per_pass(x):
            value = x / passes
            return int(value) if float(value).is_integer() else value

        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}_s"] = total_ns[name] / passes / 1e9
            out[f"{name}_self_s"] = self_ns[name] / passes / 1e9
            out[f"{name}_calls"] = per_pass(calls[name])
        for metric, value in sums.items():
            out[metric] = per_pass(value)
        kcol = calls["invariants.kcol"]
        out["invariants.kcol_hit_ratio"] = hits / kcol if kcol else 0.0
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(
            header,
            fields=["name", "case", "parent", "start_ns", "end_ns", "counters"],
            missing_bindings=self.missing,
            spans=self.spans,
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
