"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import pytest

from lovaszgap import (
    CorollaryParams,
    GadgetSpec,
    SimplicialComplex,
    build_gadget,
    chromatic_number,
    compare_bounds,
    complete_graph,
    cycle_graph,
    greedy_dsatur_bound,
    homology_pass,
    homology_profile,
    is_bipartite,
    is_connected,
    max_clique,
    neighborhood_complex,
    verify_corollary,
    verify_wedge_decomposition,
)
from lovaszgap.homology import FLAG_NO_CERTIFICATE

from conftest import random_graph, skeleton_forest
from oracles import (
    IntegerMatrix,
    boundary_matrix,
    brute_force_chromatic,
    brute_force_max_clique,
    cone,
    faces_by_dim,
    invariant_factors,
    is_zero_matrix,
    mat_mult,
    minor_gcd_invariant_factors,
    smith_normal_form,
)

WEDGE_FAMILIES = [
    ("K3", complete_graph(3)),
    ("K4", complete_graph(4)),
    ("C5", cycle_graph(5)),
    ("C7", cycle_graph(7)),
]


def report(criterion: str, ok: bool, started: float, detail: str = "") -> None:
    elapsed = time.monotonic() - started
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.1f}s){suffix}", flush=True)
    assert ok, f"{criterion} failed{suffix}"


def wedge_pairs():
    """All 10 unordered pairs with repetition, base point (0, 0) plus one
    seeded random base-point pair each."""
    rng = random.Random(0)
    for i, (name_h, h) in enumerate(WEDGE_FAMILIES):
        for name_k, k in WEDGE_FAMILIES[i:]:
            cap = 3 if "K4" in (name_h, name_k) else 2
            yield name_h, h, 0, name_k, k, 0, cap
            yield name_h, h, rng.randrange(h.n), name_k, k, rng.randrange(k.n), cap


def test_criterion_1_corollary_reproduction():
    started = time.monotonic()
    failures = []
    for params in [(1, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 4), (2, 2, 3, 5)]:
        l, m, p, q = params
        result = verify_corollary(CorollaryParams(l, m, p, q))
        if not (
            result.passed
            and result.bound.chi == q
            and result.bound.omega == p
            and result.bound.lovasz_certified == 3
        ):
            failures.append((params, result.failing_clauses()))
    report(
        "1 corollary-reproduction",
        not failures,
        started,
        detail=str(failures) if failures else "4 cases",
    )


def test_criterion_2_wedge_additivity():
    started = time.monotonic()
    failures = []
    cases = 0
    for name_h, h, x, name_k, k, y, cap in wedge_pairs():
        result = verify_wedge_decomposition(GadgetSpec(h=h, x=x, k=k, y=y), cap=cap)
        cases += 1
        bad = [r.dim for r in result.rows if not r.ok]
        if bad:
            failures.append((name_h, x, name_k, y, bad))
    report(
        "2 wedge-additivity",
        not failures,
        started,
        detail=str(failures) if failures else f"{cases} gadget checks",
    )


def test_criterion_3_conn_zero_certificates():
    started = time.monotonic()
    ok = True
    notes = []
    for name_h, h, x, name_k, k, y, cap in wedge_pairs():
        built = build_gadget(GadgetSpec(h=h, x=x, k=k, y=y))
        cert = homology_pass(neighborhood_complex(built.graph), 1).certificate
        if not cert.certified_conn_zero:
            ok = False
            notes.append(f"gadget({name_h},{name_k}) uncertified")
    for g in (cycle_graph(5), complete_graph(3)):
        if not homology_pass(neighborhood_complex(g), 1).certificate.certified_conn_zero:
            ok = False
            notes.append("positive case uncertified")
    for g in (cycle_graph(4), complete_graph(2)):
        cert = homology_pass(neighborhood_complex(g), 1).certificate
        if cert.certified_conn_zero or cert.connected:
            ok = False
            notes.append("disconnected case not rejected")
    cert = homology_pass(neighborhood_complex(complete_graph(4)), 1).certificate
    if (
        cert.certified_conn_zero
        or not cert.connected
        or not cert.h1.is_trivial()
        or FLAG_NO_CERTIFICATE not in cert.flags
    ):
        ok = False
        notes.append("trivial-H1 case not flagged")
    report("3 conn-zero-certificates", ok, started, detail=";".join(notes))


def random_complex(rng: random.Random) -> SimplicialComplex:
    n = rng.randint(1, 8)
    facets = [
        rng.sample(range(n), rng.randint(1, min(4, n)))
        for _ in range(rng.randint(1, 5))
    ]
    return SimplicialComplex.from_faces(n, facets)


def test_criterion_4_homology_engine_oracles():
    started = time.monotonic()
    ok = True
    notes = []

    # boundary-of-simplex spheres
    for n in range(2, 6):
        sphere = SimplicialComplex.from_faces(
            n + 1, itertools.combinations(range(n + 1), n)
        )
        profile = homology_profile(sphere, n)
        good = all(
            (g.betti, g.torsion) == ((1, ()) if g.dimension == n - 1 else (0, ()))
            for g in profile
        )
        if not good:
            ok = False
            notes.append(f"sphere n={n}")

    # cones are acyclic
    rng = random.Random(4)
    for _ in range(25):
        coned = cone(random_complex(rng))
        if any(not g.is_trivial() for g in homology_profile(coned, 3)):
            ok = False
            notes.append("cone not acyclic")
            break

    # boundary composition vanishes on 200 seeded random complexes
    rng = random.Random(44)
    for _ in range(200):
        c = random_complex(rng)
        levels = faces_by_dim(c, 4)
        for i in range(1, 4):
            if not levels[i + 1]:
                continue
            product = mat_mult(
                boundary_matrix(levels, i).to_dense(),
                boundary_matrix(levels, i + 1).to_dense(),
            )
            if not is_zero_matrix(product):
                ok = False
                notes.append(f"dd!=0 degree {i}")

    # SNF vs gcd-of-minors brute force on 200 seeded random matrices
    rng = random.Random(444)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        factors = invariant_factors(smith_normal_form(IntegerMatrix.from_dense(dense)))
        if factors != minor_gcd_invariant_factors(dense):
            ok = False
            notes.append(f"snf mismatch on {dense}")
    report("4 homology-engine-oracles", ok, started, detail=";".join(notes[:3]))


def test_criterion_5_solver_oracles():
    started = time.monotonic()
    ok = True
    notes = []
    rng = random.Random(5)
    checked = 0
    for _ in range(500):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6, 0.8]))
        chi, cw, lower, _, _ = chromatic_number(g)
        omega, qw = max_clique(g)
        upper, uw = greedy_dsatur_bound(g)
        if chi != brute_force_chromatic(g):
            ok = False
            notes.append(f"chi mismatch on {g.edges()}")
            break
        if omega != brute_force_max_clique(g):
            ok = False
            notes.append(f"omega mismatch on {g.edges()}")
            break
        if not (omega <= chi <= upper):
            ok = False
            notes.append("sandwich violated")
            break
        cw.validate(g)
        lower.validate(g)
        qw.validate(g)
        checked += 1
    report(
        "5 solver-oracles", ok and checked == 500, started,
        detail=";".join(notes) if notes else f"{checked} random graphs",
    )


def test_criterion_6_structural_properties(corpus):
    started = time.monotonic()
    ok = True
    notes = []
    for name, g in corpus.items():
        if g.m == 0 or not is_connected(g):
            continue
        vertices, _, forest = skeleton_forest(neighborhood_complex(g))
        comps = len(vertices) - len(forest)
        if is_bipartite(g)[0]:
            if comps != 2:
                ok = False
                notes.append(f"{name}: bipartite complex has {comps} parts")
        elif comps != 1:
            ok = False
            notes.append(f"{name}: complex disconnected")
    for name, g in corpus.items():
        bound = compare_bounds(g, cap=1)
        if bound.lovasz_certified is not None and bound.lovasz_certified > bound.chi:
            ok = False
            notes.append(f"{name}: certified bound above chi")
    report("6 structural-properties", ok, started, detail=";".join(notes[:3]))


def test_criterion_7_suite_determinism(tmp_path):
    started = time.monotonic()
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        result = subprocess.run(
            [
                sys.executable, "-m", "lovaszgap",
                "verify", "suite", "--seed", "0", "--json", str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    payload = json.loads(paths[0].read_text())
    report(
        "7 suite-determinism",
        identical and payload["pass"],
        started,
        detail=f"{len(payload['cases'])} cases",
    )
