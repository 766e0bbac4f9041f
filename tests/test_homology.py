import itertools
import math
import random
import tracemalloc
from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lovaszgap.homology
from lovaszgap import (
    BudgetExceededError,
    CorollaryParams,
    GadgetSpec,
    Graph,
    ParameterError,
    SimplicialComplex,
    SnfResult,
    build_corollary_graph,
    build_gadget,
    complete_graph,
    connected_components,
    cycle_graph,
    homology_pass,
    homology_profile,
    kneser_graph,
    neighborhood_complex,
    triangle_free_chromatic,
)
from lovaszgap.complexes import parse_faces
from lovaszgap.homology import (
    EMPTY_SENTINEL,
    FLAG_EMPTY,
    FLAG_HOMOLOGICAL_ONLY,
    FLAG_NO_CERTIFICATE,
    HomologyGroup,
    least_vertex_faces,
)
from lovaszgap.snf import Elimination

import oracles
from conftest import fan_walk, filed_facets, skeleton_forest, skeleton_walk
from oracles import (
    boundary,
    boundary_matrix,
    cone,
    euler_characteristic,
    face_code,
    faces_by_dim,
    fan_codes,
    fan_eliminations,
    full_boundary_profile,
    invariant_factors,
    is_zero_matrix,
    mat_mult,
    max_apex_fan_profile,
    per_face_face_sets,
    per_face_fan_columns,
    per_face_pass_budget,
    schrijver_graph,
    smith_normal_form,
)
from test_complexes import complexes, counted_faces


def boundary_sphere(n: int) -> SimplicialComplex:
    """Facets are all n-subsets of an (n+1)-point set: a combinatorial
    (n-1)-sphere."""
    return SimplicialComplex.from_faces(
        n + 1, itertools.combinations(range(n + 1), n)
    )


def test_single_edge_boundary():
    c = SimplicialComplex.from_faces(2, [[0, 1]])
    m = boundary_matrix(faces_by_dim(c, 1), 1)
    assert m.to_dense() == [[-1], [1]]


def test_triangle_cycle_boundary_rank():
    c = SimplicialComplex.from_faces(3, [[0, 1], [0, 2], [1, 2]])
    m = boundary_matrix(faces_by_dim(c, 1), 1)
    assert smith_normal_form(m).rank == 2


def test_boundary_composition_is_zero_nk4():
    levels = faces_by_dim(neighborhood_complex(complete_graph(4)), 2)
    d1 = boundary_matrix(levels, 1).to_dense()
    d2 = boundary_matrix(levels, 2).to_dense()
    assert is_zero_matrix(mat_mult(d1, d2))


def test_boundary_requires_populated_table():
    c = SimplicialComplex.from_faces(3, [[0, 1, 2]])
    with pytest.raises(ParameterError):
        boundary_matrix(faces_by_dim(c, 1), 2)


@given(complexes())
@settings(max_examples=60, deadline=None)
def test_boundary_composition_is_zero(c):
    levels = faces_by_dim(c, 4)
    for i in range(1, 4):
        if not levels[i + 1]:
            continue
        lower = boundary_matrix(levels, i).to_dense()
        upper = boundary_matrix(levels, i + 1).to_dense()
        assert is_zero_matrix(mat_mult(lower, upper))


def test_boundary_composition_is_zero_on_corpus(corpus):
    for name, g in corpus.items():
        if g.n > 15:
            continue
        levels = faces_by_dim(neighborhood_complex(g), 3)
        for i in range(1, 3):
            if not levels[i + 1]:
                continue
            product = mat_mult(
                boundary_matrix(levels, i).to_dense(),
                boundary_matrix(levels, i + 1).to_dense(),
            )
            assert is_zero_matrix(product), (name, i)


def test_full_simplex_trivial_homology():
    c = SimplicialComplex.from_faces(3, [[0, 1, 2]])
    for i in range(3):
        assert homology_pass(c, i).profile[i].is_trivial()


def test_nc4_two_components():
    group = homology_pass(neighborhood_complex(cycle_graph(4)), 0).profile[0]
    assert group.betti == 1
    assert group.torsion == ()


def test_skeleton_is_counted_on_relabelled_vertex_ids():
    # facet files may name vertices by any ids: a triangle's boundary on
    # 0, 7 and 10**9 is a circle, counted without a 10**9-vertex ground set
    c = parse_faces(["0 1000000000", "1000000000 7", "7 0"])
    assert len(skeleton_forest(c)[2]) == 2
    assert homology_pass(c, 1).profile == (HomologyGroup(0, 0, ()), HomologyGroup(1, 1, ()))
    assert_skeleton_walk_matches_reference(c)
    assert_skeleton_walk_matches_reference(parse_faces(["0 7 1000000000"]))


def test_nk4_is_a_two_sphere():
    profile = homology_profile(neighborhood_complex(complete_graph(4)), 2)
    assert [(g.betti, g.torsion) for g in profile] == [(0, ()), (0, ()), (1, ())]


# the 6-vertex triangulation of RP^2: H~_1 = Z/2 is torsion, not betti
RP2 = SimplicialComplex.from_faces(
    6,
    [
        [0, 1, 3], [0, 1, 5], [0, 2, 4], [0, 2, 5], [0, 3, 4],
        [1, 2, 3], [1, 2, 4], [1, 4, 5], [2, 3, 5], [3, 4, 5],
    ],
)


def test_projective_plane_has_two_torsion():
    profile = homology_profile(RP2, 2)
    assert [(g.betti, g.torsion) for g in profile] == [(0, ()), (0, (2,)), (0, ())]


@pytest.mark.parametrize(
    "first, second, torsion",
    [((2,), (3,), (6,)), ((4,), (6,), (2, 12)), ((2,), (4,), (2, 4))],
)
def test_direct_sum_torsion_is_its_invariant_factors(first, second, torsion):
    total = HomologyGroup(1, 1, first) + HomologyGroup(1, 2, second)
    assert total == HomologyGroup(1, 3, torsion)


def test_direct_sum_needs_one_degree():
    with pytest.raises(ValueError):
        HomologyGroup(1, 1, ()) + HomologyGroup(2, 1, ())


# the most snf._pivot calls a Kneser pass may make: the row singletons take
# most pivots left after the peel without fill (without them, 511 and 2,368
# went through _pivot)
KNESER_MAX_PIVOTS = {(7, 2): 150, (8, 3): 400}


@pytest.mark.parametrize("n, k, cap, top_betti", [(7, 2, 3, 29), (8, 3, 2, 181)])
def test_kneser_complex_profiles(pivot_calls, n, k, cap, top_betti):
    # N(KG(n,k)) is (n-2k-1)-connected (Lovasz), so homology vanishes below
    # the cap; the top Betti numbers are the pinned values
    profile = homology_profile(neighborhood_complex(kneser_graph(n, k)), cap)
    assert [(g.betti, g.torsion) for g in profile] == [(0, ())] * cap + [
        (top_betti, ())
    ]
    assert 0 < pivot_calls[0] <= KNESER_MAX_PIVOTS[n, k]


def _sphere_profile(d: int, cap: int) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion) of the d-sphere's reduced homology in degrees 0..cap."""
    return [(int(i == d), ()) for i in range(cap + 1)]


@pytest.mark.parametrize(
    "n, k", [(5, 2), (6, 2), (7, 2), (8, 2), (7, 3), (8, 3), (9, 3), (11, 4)]
)
def test_schrijver_complexes_are_spheres(n, k):
    # N(SG(n,k)) is homotopy equivalent to S^{n-2k} (Bjorner & de
    # Longueville, Combinatorica 23 (2003)); the cap sits one degree above
    # the sphere's, so a wrong extra class or a lost one shows
    d = n - 2 * k
    profile = homology_profile(neighborhood_complex(schrijver_graph(n, k)), d + 1)
    assert [(g.betti, g.torsion) for g in profile] == _sphere_profile(d, d + 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_mycielski_complexes_are_spheres(q):
    # N(M_q) is homotopy equivalent to S^{q-2} (Csorba, Contrib. Discrete
    # Math. 3 (2008)); M_q is the triangle-free graph with chi = q
    profile = homology_profile(neighborhood_complex(triangle_free_chromatic(q)), q - 1)
    assert [(g.betti, g.torsion) for g in profile] == _sphere_profile(q - 2, q - 1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_boundary_sphere_homology(n):
    profile = homology_profile(boundary_sphere(n), n)
    for g in profile:
        if g.dimension == n - 1:
            assert g.betti == 1 and g.torsion == ()
        else:
            assert g.is_trivial()


@given(complexes(max_vertices=6))
@settings(max_examples=40, deadline=None)
def test_cones_are_acyclic(c):
    coned = cone(c)
    for group in homology_profile(coned, 3):
        assert group.is_trivial()


@given(complexes())
@settings(max_examples=40, deadline=None)
def test_homology_independent_of_facet_order(c):
    rng = random.Random(11)
    shuffled = list(c.facets)
    rng.shuffle(shuffled)
    other = SimplicialComplex(c.num_vertices, tuple(shuffled))
    assert homology_profile(c, 2) == homology_profile(other, 2)


class KillLog(set):
    """An elimination's dead rows that list, in ``killed``, each row added
    after the dropped ones, in order."""

    def __init__(self, rows):
        super().__init__(rows)
        self.killed: list[int] = []

    def add(self, r):
        self.killed.append(r)
        super().add(r)


class FilingLog(dict):
    """An elimination's column index that keeps, in the elimination's
    ``filed``, each column filed in it as its entries {row: sign}, read from
    the row index, which is written first, with the number of rows killed
    before it."""

    def __init__(self, elimination):
        super().__init__()
        self.elimination = elimination

    def __setitem__(self, c, col):
        e = self.elimination
        e.filed[c] = ({r: e.rows[r][c] for r in col}, len(e.killed))
        super().__setitem__(c, col)


class RecordedElimination(Elimination):
    """An elimination that keeps its dropped rows, the rows it kills after
    them in order, the columns filed before ``result`` by column id, in
    filing order, the (column, row, rows killed before it) of every peel
    called from outside, and its result."""

    def __init__(self, dropped_rows=()):
        super().__init__(dropped_rows)
        self.dropped = set(self.dead)
        self.dead = KillLog(self.dead)
        self.killed = self.dead.killed
        self.filed: dict[int, tuple[dict[int, int], int]] = {}
        self.cols = FilingLog(self)
        self.peeled: list[tuple[int, int, int]] = []

    def peel(self, c, r):
        self.peeled.append((c, r, len(self.killed)))
        super().peel(c, r)

    def result(self):
        self.cols = dict(self.cols)  # a Euclid step writes columns back
        self.snf = super().result()
        return self.snf


def recorded_pass(c, cap):
    """The pass over c, and its eliminations as ``RecordedElimination``s,
    lowest degree first: exactly one for each boundary degree
    2..min(max(cap, 1) + 1, dim) that has a fan face."""
    made = []

    def making(dropped_rows=()):
        made.append(RecordedElimination(dropped_rows))
        return made[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lovaszgap.homology, "Elimination", making)
        topology = homology_pass(c, cap)
    assert len(made) == len(range(2, min(max(cap, 1) + 1, c.dim) + 1))
    return topology, made


def recorded_arrivals(pivot_calls, c, cap):
    """The pass over c, each of its eliminations as its SnfResult, that
    result's pivots, the ids of the filed columns and the peels, and the
    pass's number of ``snf._pivot`` calls."""
    before = pivot_calls[0]
    topology, made = recorded_pass(c, cap)
    arrivals = [(e.snf, e.snf.pivots, list(e.filed), e.peeled) for e in made]
    return topology, arrivals, pivot_calls[0] - before


def assert_pass_is_independent_of_facet_order(pivot_calls, c, cap, seed):
    # the pass walks the facets sorted, so any listing of the same facets
    # streams the same columns in the same order: the same arrivals, pivots
    # and eliminations, and the same groups
    expected = recorded_arrivals(pivot_calls, c, cap)
    facets = list(reversed(c.facets))
    for order in ("reversed", "shuffled"):
        if order == "shuffled":
            random.Random(seed).shuffle(facets)
        other = SimplicialComplex(c.num_vertices, tuple(facets))
        assert recorded_arrivals(pivot_calls, other, cap) == expected, (order, cap)
    return expected[0]


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7, 8])
def test_separation_ladder_is_independent_of_facet_order(pivot_calls, q):
    # the separation gadgets (2,2,3,q)
    c = neighborhood_complex(build_corollary_graph(CorollaryParams(2, 2, 3, q)).graph)
    for cap in (1, 2) if q <= 6 else (1,):
        topology = assert_pass_is_independent_of_facet_order(pivot_calls, c, cap, q)
        assert topology.certificate.certified_conn_zero


@pytest.mark.parametrize("n, k, cap", [(7, 2, 3), (8, 3, 2)])
def test_kneser_passes_are_independent_of_facet_order(pivot_calls, n, k, cap):
    c = neighborhood_complex(kneser_graph(n, k))
    assert_pass_is_independent_of_facet_order(pivot_calls, c, cap, n)


@given(complexes(max_vertices=7))
@settings(max_examples=40, deadline=None)
def test_euler_equals_alternating_betti_sum(c):
    top = c.dim
    profile = homology_profile(c, top)
    reduced_sum = sum((-1) ** g.dimension * g.betti for g in profile)
    assert euler_characteristic(c) == 1 + reduced_sum


def test_certificate_nc5():
    cert = homology_pass(neighborhood_complex(cycle_graph(5)), 1).certificate
    assert cert.certified_conn_zero
    assert cert.connected
    assert cert.h1.betti == 1
    assert cert.homological_connectivity == 0
    assert cert.flags == ()


def test_certificate_gadget_k3_k3():
    built = build_gadget(GadgetSpec(h=complete_graph(3), x=0, k=complete_graph(3), y=0))
    cert = homology_pass(neighborhood_complex(built.graph), 1).certificate
    assert cert.certified_conn_zero
    assert cert.h1.betti == 3
    assert cert.h1.torsion == ()


def test_certificate_disconnected_complexes():
    for g in (cycle_graph(4), complete_graph(2)):
        cert = homology_pass(neighborhood_complex(g), 1).certificate
        assert not cert.certified_conn_zero
        assert not cert.connected
        assert cert.homological_connectivity == -1
        assert FLAG_NO_CERTIFICATE in cert.flags


def test_certificate_nk4_trivial_h1():
    cert = homology_pass(neighborhood_complex(complete_graph(4)), 1).certificate
    assert not cert.certified_conn_zero
    assert cert.connected
    assert cert.h1.is_trivial()
    assert cert.homological_connectivity == ">=1"
    assert FLAG_NO_CERTIFICATE in cert.flags
    assert FLAG_HOMOLOGICAL_ONLY in cert.flags


def test_certificate_empty_complex():
    cert = homology_pass(SimplicialComplex.from_faces(3, []), 1).certificate
    assert not cert.nonempty
    assert not cert.certified_conn_zero
    assert cert.homological_connectivity == EMPTY_SENTINEL


def test_homological_connectivity_values():
    def hom_conn(c):
        return homology_pass(c, 2).homological_connectivity

    assert hom_conn(SimplicialComplex.from_faces(1, [])) == EMPTY_SENTINEL
    assert hom_conn(neighborhood_complex(complete_graph(3))) == 0
    assert hom_conn(neighborhood_complex(complete_graph(4))) == 1
    assert hom_conn(neighborhood_complex(cycle_graph(4))) == -1
    point = SimplicialComplex.from_faces(1, [[0]])
    assert hom_conn(point) == ">=2"


def test_certificate_invariant(corpus):
    # certified implies nonempty, connected, nontrivial H1
    for name, g in corpus.items():
        cert = homology_pass(neighborhood_complex(g), 1).certificate
        if cert.certified_conn_zero:
            assert cert.nonempty and cert.connected, name
            assert not cert.h1.is_trivial(), name


# ---------------------------------------------------------------------------
# the one-pass fast path against a reference that takes every boundary's SNF


@st.composite
def wide_complexes(draw):
    # facets of up to 6 vertices, so a fan leaves most faces out
    n = draw(st.integers(1, 8))
    faces = draw(
        st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=6), min_size=1, max_size=5)
    )
    return SimplicialComplex.from_faces(n, faces)


@st.composite
def apex_complexes(draw):
    # most facets hold the least vertex 0, so their fans share faces and a
    # facet's batch of taus often holds some that an earlier facet yielded
    n = draw(st.integers(3, 9))
    rests = draw(
        st.lists(st.lists(st.integers(1, n - 1), min_size=2, max_size=6), min_size=2, max_size=5)
    )
    others = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), max_size=2))
    return SimplicialComplex.from_faces(n, [[0, *rest] for rest in rests] + others)


def reference_pass(c, cap):
    """Profile, (connected, h1) and homological connectivity with the exact
    SNF of every boundary over all faces of its degree, degree 1 included
    and no row cleared; connectedness is read off reduced H_0 rather than
    the 1-skeleton's components."""
    groups = [
        HomologyGroup(i, betti, torsion)
        for i, (betti, torsion) in enumerate(full_boundary_profile(c, max(cap, 1)))
    ]
    profile = tuple(groups[: cap + 1])
    if c.is_empty():
        return profile, (False, groups[1]), EMPTY_SENTINEL
    nontrivial = [g.dimension - 1 for g in profile if not g.is_trivial()]
    hom_conn = nontrivial[0] if nontrivial else f">={cap}"
    return profile, (groups[0].is_trivial(), groups[1]), hom_conn


def assert_pass_matches_reference(c, cap):
    result = homology_pass(c, cap)
    profile, (connected, h1), hom_conn = reference_pass(c, cap)
    assert result.profile == profile
    assert result.homological_connectivity == hom_conn
    cert = result.certificate
    assert (cert.nonempty, cert.connected, cert.h1) == (not c.is_empty(), connected, h1)
    assert cert.certified_conn_zero == (connected and not h1.is_trivial())
    if c.is_empty():
        assert cert.flags == (FLAG_EMPTY,)
    elif cert.certified_conn_zero:
        assert (cert.homological_connectivity, cert.flags) == (0, ())
    elif not connected:
        assert (cert.homological_connectivity, cert.flags) == (-1, (FLAG_NO_CERTIFICATE,))
    else:
        assert cert.homological_connectivity == ">=1"
        assert cert.flags == (FLAG_NO_CERTIFICATE, FLAG_HOMOLOGICAL_ONLY)
    # the view agrees with the pass
    assert homology_profile(c, cap) == result.profile


def assert_component_rank_is_exact(c):
    exact = smith_normal_form(boundary_matrix(faces_by_dim(c, 1), 1))
    forest = skeleton_forest(c)[2]
    # the degree-1 SNF that homology_pass reads off the spanning forest
    fast = SnfResult(len(forest))
    assert fast == exact
    assert invariant_factors(fast) == (1,) * fast.rank


SMALL_COMPLEXES = {
    "empty": SimplicialComplex.from_faces(3, []),
    "point": SimplicialComplex.from_faces(1, [[0]]),
    "two points": SimplicialComplex.from_faces(4, [[0], [3]]),
    "point and circle": SimplicialComplex.from_faces(5, [[0], [1, 2], [2, 3], [1, 3]]),
    "two circles": SimplicialComplex.from_faces(
        6, [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]]
    ),
    "sphere and disk": SimplicialComplex.from_faces(
        7, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [4, 5, 6]]
    ),
}


@pytest.mark.parametrize("name", sorted(SMALL_COMPLEXES))
@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_pass_matches_reference_on_small_complexes(name, cap):
    c = SMALL_COMPLEXES[name]
    assert_component_rank_is_exact(c)
    assert_pass_matches_reference(c, cap)


def test_pass_rejects_negative_cap():
    with pytest.raises(ParameterError):
        homology_pass(SMALL_COMPLEXES["point"], -1)


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 4))
@settings(max_examples=150, deadline=None)
def test_pass_matches_reference_on_random_complexes(c, cap):
    assert_component_rank_is_exact(c)
    assert_pass_matches_reference(c, cap)


def test_pass_matches_reference_on_corpus(corpus):
    for name, g in corpus.items():
        c = neighborhood_complex(g)
        assert_component_rank_is_exact(c)
        if g.n <= 15:
            for cap in (0, 1, 2):
                assert_pass_matches_reference(c, cap)
        else:
            assert_pass_matches_reference(c, 1)


# ---------------------------------------------------------------------------
# fan columns against the full boundary and against fans at the other end


def fan_faces(c, top) -> dict[int, list]:
    """The fan faces the walk yields, by dimension, decoded through the
    codes of every face of the complex; each is yielded once."""
    walk = fan_codes(fan_walk(c, top), c.num_vertices)
    assert len(set(walk)) == len(walk)
    full = faces_by_dim(c, top + 1)
    by_code = {
        i: {face_code(f, c.num_vertices): f for f in full[i]}
        for i in range(2, top + 2)
    }
    fans = {i: [] for i in range(2, top + 2)}
    for j, code in walk:
        fans[j].append(by_code[j][code])
    return fans


def assert_fan_matches_full(c, cap):
    """Every boundary the pass takes from fans has the rank and invariant
    factors of the full boundary over all faces of its degree."""
    top = max(cap, 1)
    full = faces_by_dim(c, top + 1)
    for i, faces in fan_faces(c, top).items():
        fan = smith_normal_form(boundary(full[i - 1], faces))
        assert fan == smith_normal_form(boundary_matrix(full, i)), i


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_fan_matches_full_boundary_on_random_complexes(c, cap):
    assert_fan_matches_full(c, cap)


def test_fan_matches_full_boundary_on_corpus(corpus):
    for name, g in corpus.items():
        if g.n <= 15:
            assert_fan_matches_full(neighborhood_complex(g), 2)


def test_fan_matches_full_boundary_on_projective_plane():
    assert_fan_matches_full(RP2, 2)
    fans = fan_faces(RP2, 1)
    snf = smith_normal_form(boundary(faces_by_dim(RP2, 1)[1], fans[2]))
    assert snf.torsion == (2,)


@pytest.mark.parametrize(
    "name, c, cap",
    [
        ("N(KG(7,2))", neighborhood_complex(kneser_graph(7, 2)), 3),
        ("N(KG(8,3))", neighborhood_complex(kneser_graph(8, 3)), 2),
        ("RP2", RP2, 2),
    ],
)
def test_max_apex_fan_agrees_with_pass(name, c, cap):
    profile = [(g.betti, g.torsion) for g in homology_pass(c, cap).profile]
    assert max_apex_fan_profile(c, cap) == profile


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_max_apex_fan_agrees_on_random_complexes(c, cap):
    profile = [(g.betti, g.torsion) for g in homology_pass(c, cap).profile]
    assert max_apex_fan_profile(c, cap) == profile


@contextmanager
def recorded_combinations():
    """The sizes of each walk over the faces that ``homology`` starts while
    the block runs, in order, and the (walk, items, size) of every
    ``itertools.combinations`` call it makes, the walk by its place in
    that list."""
    walks, calls = [], []
    real = lovaszgap.homology.least_vertex_faces

    def walk(filed, sizes, used, limit):
        walks.append(tuple(sizes))
        return real(filed, sizes, used, limit)

    def combinations(items, size):
        calls.append((len(walks) - 1, tuple(items), size))
        return itertools.combinations(items, size)

    lovaszgap.homology.least_vertex_faces = walk
    lovaszgap.homology.itertools = SimpleNamespace(combinations=combinations)
    try:
        yield walks, calls
    finally:
        lovaszgap.homology.least_vertex_faces = real
        lovaszgap.homology.itertools = itertools


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 3))
@example(SimplicialComplex.from_faces(4, [[0, 1, 2], [2, 3]]), 1000)
@settings(max_examples=40, deadline=None)
def test_pass_enumerates_faces_through_max_cap_1(c, cap):
    with recorded_combinations() as (walks, calls):
        homology_pass(c, cap)
    # the walk over the 1-skeleton forms no vertex or edge; each dimension
    # 2..cap is counted by a walk of its own, but none above the complex's
    # dimension, however high the cap, and the fan faces of dimensions
    # 2..max(cap, 1) + 1 come from one walk after them
    counted = [(j,) for j in range(2, min(cap, c.dim) + 1)]
    assert walks == counted + [tuple(range(2, max(cap, 1) + 2))]
    assert all(size in walks[walk] and size <= c.dim for walk, _, size in calls)
    # every counting walk enumerates faces: the complex has one of its size
    assert {walk for walk, _, _ in calls} >= set(range(len(counted)))


def test_fan_columns_count_against_the_face_budget():
    # the 4-simplex's boundary: 5 + 10 faces through dimension 1, and its
    # five tetrahedra fan out from their smallest vertices into 9 of its
    # 10 triangles, so the pass holds 24 faces where every triangle is 25
    c = boundary_sphere(4)
    assert skeleton_walk(c)[:2] == (5, 10)
    assert [j for j, _ in fan_codes(fan_walk(c, 1), 5)] == [2] * 9
    assert homology_pass(c, 1, limit=24).profile[1].is_trivial()
    for limit in (15, 20, 23):
        with pytest.raises(BudgetExceededError) as caught:
            homology_pass(c, 1, limit=limit)
        assert (caught.value.dimension, caught.value.limit) == (2, limit)
        assert f"budget {limit} " in str(caught.value)


# ---------------------------------------------------------------------------
# the batched walk against the oracle's faces and the per-face fan walk


def assert_fan_walk_matches_reference(c, top, rng):
    """The least-vertex walk over the facets listed sorted, reversed and
    shuffled counts the faces of each dimension 2..top + 1 as the oracle
    does, and yields the fan faces of those dimensions in the order of the
    per-face walk over the sorted facets."""
    facets = sorted(c.facets)
    levels = faces_by_dim(c, top + 1)
    fans = list(per_face_fan_columns(SimplicialComplex(c.num_vertices, tuple(facets)), top, 0, 10**9))
    for order in (facets, facets[::-1], rng.sample(facets, len(facets))):
        listed = SimplicialComplex(c.num_vertices, tuple(order))
        holding = filed_facets(listed)[0]
        for j in range(2, top + 2):
            walk = least_vertex_faces(holding, (j,), 0, 10**9)
            assert sum(len(taus) for _, _, taus in walk) == len(levels[j]), j
        assert fan_codes(fan_walk(listed, top), c.num_vertices) == fans


@given(st.one_of(complexes(), wide_complexes()), st.integers(1, 4), st.randoms())
@settings(max_examples=150, deadline=None)
def test_fan_walk_matches_per_face_walk_on_random_complexes(c, top, rng):
    assert_fan_walk_matches_reference(c, top, rng)


@given(apex_complexes(), st.integers(1, 4), st.randoms())
@settings(max_examples=60, deadline=None)
def test_fan_walk_matches_per_face_walk_around_a_shared_apex(c, top, rng):
    assert_fan_walk_matches_reference(c, top, rng)


def test_fan_walk_matches_per_face_walk_on_corpus(corpus):
    rng = random.Random(5)
    for name, g in corpus.items():
        for top in (1, 2, 3):
            assert_fan_walk_matches_reference(neighborhood_complex(g), top, rng)


@pytest.mark.parametrize("n, k, cap", [(7, 2, 3), (8, 3, 2), (8, 2, 2), (9, 3, 1)])
def test_fan_walk_matches_per_face_walk_on_kneser_rungs(n, k, cap):
    c = neighborhood_complex(kneser_graph(n, k))
    assert_fan_walk_matches_reference(c, cap, random.Random(n))


def limit_grid(needed: int) -> list[int]:
    """About 40 budgets from 1 to one past ``needed``, both ends and
    ``needed`` itself included (budgets start at 1)."""
    step = max(1, needed // 40)
    return sorted({*range(1, needed + 2, step), max(needed, 1), needed + 1})


def budget_dimension(run) -> int | None:
    try:
        run()
    except BudgetExceededError as exc:
        return exc.dimension
    return None


# the walk over the 1-skeleton always counts the edges, so the counts
# start at dimension 1
@given(st.one_of(complexes(), wide_complexes(), apex_complexes()), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_face_counts_budget_names_the_per_face_dimension(c, d):
    needed = sum(len(level) for level in per_face_face_sets(c, d, 10**9))
    for limit in limit_grid(needed):
        expected = budget_dimension(lambda: per_face_face_sets(c, d, limit))
        assert budget_dimension(lambda: counted_faces(c, d, limit)) == expected, limit
        assert (expected is None) == (limit >= needed)


def assert_pass_budget_names_the_per_face_dimension(c, cap):
    top = max(cap, 1)
    needed = sum(len(level) for level in per_face_face_sets(c, top, 10**9))
    needed += sum(1 for _ in per_face_fan_columns(c, top, 0, 10**9))
    for limit in limit_grid(needed):
        expected = per_face_pass_budget(c, cap, limit)
        assert budget_dimension(lambda: homology_pass(c, cap, limit)) == expected, limit
        assert (expected is None) == (limit >= needed)


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 3))
# the second facet's fan shares the triangle {0, 1, 2} with the first's, so
# its batch of three triangles brings two new ones
@example(SimplicialComplex.from_faces(5, [[0, 1, 2, 3], [0, 1, 2, 4]]), 1)
@settings(max_examples=60, deadline=None)
def test_pass_budget_names_the_per_face_dimension(c, cap):
    assert_pass_budget_names_the_per_face_dimension(c, cap)


@given(apex_complexes(), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_pass_budget_names_the_per_face_dimension_around_a_shared_apex(c, cap):
    # walks where a facet's batch repeats taus of earlier facets are the
    # rule here, so a precheck that forgets them names the wrong dimension
    assert_pass_budget_names_the_per_face_dimension(c, cap)


def test_pass_budget_names_the_per_face_dimension_on_corpus(corpus):
    for name, g in corpus.items():
        if g.n <= 15:
            for cap in (1, 2):
                assert_pass_budget_names_the_per_face_dimension(neighborhood_complex(g), cap)


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 3), st.integers(1, 80))
@settings(max_examples=60, deadline=None)
def test_no_batch_enumerates_more_faces_than_the_budget(c, cap, limit):
    with recorded_combinations() as (_, calls):
        budget_dimension(lambda: homology_pass(c, cap, limit))
    assert all(math.comb(len(items), size) <= limit for _, items, size in calls)


def test_a_facet_past_the_budget_forms_no_face_of_that_size():
    # one 12-vertex facet: 12 vertices, then C(12, 2) = 66 edges, which alone
    # pass a budget of 50, so no face is formed at all
    c = SimplicialComplex.from_faces(12, [range(12)])
    with recorded_combinations() as (walks, calls):
        with pytest.raises(BudgetExceededError) as caught:
            homology_pass(c, 3, limit=50)
    assert caught.value.dimension == 1
    assert (walks, calls) == ([], [])
    assert per_face_pass_budget(c, 3, 50) == 1
    # through dimension 3 it holds 12 + 66 + 220 + 495 = 793 faces, counted
    # from the 10 vertices with two above them and the 9 with three; the fan
    # then adds C(11, 2) = 55 triangles and C(11, 3) = 165 tetrahedra, and
    # C(11, 4) = 330 more 4-faces would pass 1,100, so none is formed
    with recorded_combinations() as (walks, calls):
        with pytest.raises(BudgetExceededError) as caught:
            homology_pass(c, 3, limit=1100)
    assert caught.value.dimension == 4
    assert walks == [(2,), (3,), (2, 3, 4)]
    sizes = [(walk, size) for walk, _, size in calls]
    assert sizes == [(0, 2)] * 10 + [(1, 3)] * 9 + [(2, 2), (2, 3)]
    assert per_face_pass_budget(c, 3, 1100) == 4


class CountedFacet(tuple):
    """A facet that counts how often it is iterated over."""

    iterations = 0

    def __iter__(self):
        CountedFacet.iterations += 1
        return super().__iter__()


def test_a_giant_facet_fails_before_any_neighbourhood_is_formed():
    # a path on 0..10 that the walk takes first, then a 50-vertex facet on
    # 10..59: its C(50, 2) = 1,225 edges alone pass the budget, so the pass
    # reads each facet once, to file it under its vertices, and stops there
    facets = [(v, v + 1) for v in range(10)] + [tuple(range(10, 60))]
    c = SimplicialComplex(60, tuple(CountedFacet(f) for f in facets))
    CountedFacet.iterations = 0
    with pytest.raises(BudgetExceededError) as caught:
        homology_pass(c, 1, limit=1000)
    assert caught.value.dimension == 1
    assert CountedFacet.iterations == len(facets)


# ---------------------------------------------------------------------------
# the arrival decided in the pass against every column built and eliminated


def assert_arrival_matches_reference_stream(c, cap):
    # the pass drops, peels or files each column without building it, where
    # the reference builds every column and hands it to eliminate: each
    # degree must come out the same, pivots and their order included
    made = recorded_pass(c, cap)[1]
    expected = [(r, r.pivots) for r in fan_eliminations(c, cap)]
    assert [(e.snf, e.snf.pivots) for e in made] == expected, cap


@given(st.one_of(complexes(), wide_complexes()), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_arrival_matches_reference_stream_on_random_complexes(c, cap):
    assert_arrival_matches_reference_stream(c, cap)


def test_arrival_matches_reference_stream_on_corpus(corpus):
    for name, g in corpus.items():
        for cap in (1, 2, 3) if g.n <= 15 else (1, 2):
            assert_arrival_matches_reference_stream(neighborhood_complex(g), cap)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_arrival_matches_reference_stream_on_suspended_projective_planes(k):
    # the torsion sits in degree k + 1, so a Euclid step runs there
    c = RP2
    for _ in range(k):
        c = suspension(c)
    assert_arrival_matches_reference_stream(c, k + 2)


@pytest.mark.parametrize("n, k, cap", [(7, 2, 3), (8, 3, 2)])
def test_arrival_matches_reference_stream_on_kneser_rungs(n, k, cap):
    assert_arrival_matches_reference_stream(neighborhood_complex(kneser_graph(n, k)), cap)


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
def test_arrival_matches_reference_stream_on_separation_ladder(q):
    c = neighborhood_complex(build_corollary_graph(CorollaryParams(2, 2, 3, q)).graph)
    for cap in (1, 2) if q <= 5 else (1,):
        assert_arrival_matches_reference_stream(c, cap)


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its vertices renamed by a seeded permutation, as the
    benchmark's Kneser cases rename them."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


@pytest.mark.parametrize("n, k, cap", [(7, 2, 3), (8, 3, 2)])
@pytest.mark.parametrize("seed", [1, 2])
def test_arrival_matches_reference_stream_on_relabelled_kneser_rungs(n, k, cap, seed):
    # a relabelling changes the face order, hence which rows are dead when
    # each column arrives
    c = neighborhood_complex(relabelled(kneser_graph(n, k), seed))
    assert_arrival_matches_reference_stream(c, cap)


def test_most_fan_columns_are_never_built():
    # N(KG(9,3)) at cap 1 has 9,603 fan triangles, and the pass files none
    # of them: each is dropped or peeled against the dead rows, so a pass
    # that files every column fails here
    c = neighborhood_complex(kneser_graph(9, 3))
    topology, (elimination,) = recorded_pass(c, 1)
    assert topology.profile[1].is_trivial()
    assert elimination.filed == {}


@pytest.mark.parametrize(
    "graph, cap, filed",
    [
        (lambda: kneser_graph(8, 3), 2, [509, 2544]),
        (lambda: kneser_graph(7, 2), 3, [0, 54, 585]),
        (lambda: build_corollary_graph(CorollaryParams(2, 2, 3, 5)).graph, 1, [198]),
    ],
    ids=["KG(8,3)", "KG(7,2)", "(2,2,3,5)"],
)
def test_filed_columns_per_degree(graph, cap, filed):
    # only the fan columns with two live rows or more are filed, each as its
    # face's boundary on the rows live when it arrives
    c = neighborhood_complex(graph())
    made = recorded_pass(c, cap)[1]
    assert [len(e.filed) for e in made] == filed
    for i, elimination in enumerate(made, start=1):
        boundary_rows(c, i, elimination)


def test_the_pass_never_calls_add(corpus, monkeypatch):
    # the pass takes every arrival decision itself; ``add`` is left to
    # ``snf.eliminate``
    def add(self, c, column):
        raise AssertionError(f"column {c} reached Elimination.add")

    monkeypatch.setattr(Elimination, "add", add)
    ladder = [
        build_corollary_graph(CorollaryParams(2, 2, 3, q)).graph for q in range(3, 7)
    ]
    for g in [*corpus.values(), *ladder]:
        c = neighborhood_complex(g)
        for cap in (1, 2, 3):
            homology_pass(c, cap)


# ---------------------------------------------------------------------------
# clearing: each boundary loses the rows that the one below already spans


def suspension(c: SimplicialComplex) -> SimplicialComplex:
    """Join with two fresh points."""
    a, b = c.num_vertices, c.num_vertices + 1
    return SimplicialComplex.from_faces(
        b + 1, [face + (apex,) for face in c.facets for apex in (a, b)]
    )


def boundary_rows(c, i, elimination) -> set:
    """The rows left in the boundary into degree i that the pass eliminated:
    the codes of the i-faces less the dropped ones, after checking each
    arrival against the boundary of the fan face its code names, over the
    full boundary's rows: a filed column is that boundary on the rows live
    when it was filed, two of them at least, and a peel's row is the one
    live row there."""
    n = c.num_vertices
    faces = faces_by_dim(c, i + 1)
    rows = {face_code(f, n) for f in faces[i]}
    by_code = {face_code(f, n): f for f in faces[i + 1]}
    assert elimination.dropped <= rows

    def live(code, killed):
        face = by_code[code]
        dead = elimination.dropped.union(elimination.killed[:killed])
        column = {face_code(face[:k] + face[k + 1 :], n): (-1) ** k for k in range(len(face))}
        return {r: s for r, s in column.items() if r not in dead}

    for code, (entries, killed) in elimination.filed.items():
        assert len(entries) > 1 and entries == live(code, killed)
    for code, r, killed in elimination.peeled:
        assert list(live(code, killed)) == [r]
    return rows - elimination.dropped


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_suspended_projective_plane_keeps_its_torsion_above_a_cleared_boundary(k):
    c = RP2
    for _ in range(k):
        c = suspension(c)
    expected = [(0, ())] * (k + 3)
    expected[k + 1] = (0, (2,))
    profile = [(g.betti, g.torsion) for g in homology_pass(c, k + 2).profile]
    assert profile == expected == full_boundary_profile(c, k + 2)
    # the boundary into degree k + 1, which carries the torsion, was cleared:
    # it has fewer rows than there are (k + 1)-faces
    levels = faces_by_dim(c, k + 1)
    rows = boundary_rows(c, k + 1, recorded_pass(c, k + 2)[1][k])
    assert len(rows) < len(levels[k + 1])


def test_boundary_two_loses_the_spanning_forest_rows():
    c = neighborhood_complex(kneser_graph(7, 2))
    levels = faces_by_dim(c, 1)
    vertices, edges = len(levels[0]), len(levels[1])
    rows = boundary_rows(c, 1, recorded_pass(c, 1)[1][0])
    assert len(rows) == edges - (vertices - 1)


def test_spanning_forest_is_depth_first_in_increasing_order():
    # the forest fixes the rows cleared from boundary_2, so it must not
    # depend on the order the facets are listed in: the walk takes the
    # vertices, and each vertex's neighbours, in increasing order
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (5, 6)]
    c = SimplicialComplex(10, ((9,), *reversed(edges)))
    forest = [(0, 1), (0, 2), (2, 3), (3, 4), (5, 6)]
    assert skeleton_walk(c) == (8, 6, forest)


def assert_skeleton_walk_matches_reference(c):
    vertices, edges = faces_by_dim(c, 1)
    forest = oracles.skeleton_components([v for (v,) in vertices], edges)
    assert skeleton_walk(c) == (len(vertices), len(edges), forest)


@given(st.one_of(complexes(), wide_complexes(), apex_complexes()), st.randoms())
@settings(max_examples=150, deadline=None)
def test_skeleton_walk_matches_reference_in_any_facet_order(c, rng):
    facets = list(c.facets)
    for order in (facets, facets[::-1], rng.sample(facets, len(facets))):
        assert_skeleton_walk_matches_reference(SimplicialComplex(c.num_vertices, tuple(order)))


def test_skeleton_walk_matches_reference_on_corpus(corpus):
    for name, g in corpus.items():
        assert_skeleton_walk_matches_reference(neighborhood_complex(g))


def test_pass_memory_is_linear_in_a_sparse_complex():
    # a 30,000-vertex cycle has 30,000 edges: the walk holds each vertex's
    # facets, the seen set and the forest, about 8 MiB traced, where an
    # n-bit neighbour mask per vertex takes n**2 / 16 bytes, about 59 MiB
    n = 30_000
    c = SimplicialComplex(n, tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])))
    tracemalloc.start()
    try:
        topology = homology_pass(c, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert topology.profile == (HomologyGroup(0, 0, ()), HomologyGroup(1, 1, ()))
    assert peak < 32 * 2**20


def test_spanning_forest_on_corpus(corpus):
    for name, g in corpus.items():
        vertices, edges, forest = skeleton_forest(neighborhood_complex(g))
        assert set(forest) <= set(edges), name
        # acyclic: every forest edge joins two trees of the ones before it
        root = {v: v for v in vertices}

        def find(v):
            while root[v] != v:
                v = root[v]
            return v

        for u, v in forest:
            ru, rv = find(u), find(v)
            assert ru != rv, name
            root[ru] = rv
        # spanning: every edge of the 1-skeleton lies within one tree
        assert all(find(u) == find(v) for u, v in edges), name
        index = {v: i for i, v in enumerate(vertices)}
        skeleton = Graph.from_edges(
            len(vertices), ((index[u], index[v]) for u, v in edges)
        )
        expected = len(connected_components(skeleton))
        assert len(vertices) - len(forest) == expected, name
