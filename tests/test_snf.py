from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    IntegerMatrix,
    dense_snf,
    eliminate,
    invariant_factors,
    minor_gcd_invariant_factors,
    smith_normal_form,
)


@st.composite
def small_matrices(draw, max_dim: int = 5, max_entry: int = 9):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    dense = [
        [draw(st.integers(-max_entry, max_entry)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return dense


def test_diagonal_example():
    result = smith_normal_form(IntegerMatrix.from_dense([[2, 0], [0, 3]]))
    assert invariant_factors(result) == (1, 6)


def test_zero_matrix():
    result = smith_normal_form(IntegerMatrix.from_dense([[0] * 4 for _ in range(3)]))
    assert result.rank == 0
    assert invariant_factors(result) == ()


def test_euclid_finds_a_unit_without_a_unit_entry():
    # no entry is +-1, yet gcd(2, 3) = 1: the residual is finished by Euclid
    result = smith_normal_form(IntegerMatrix.from_dense([[2, 3]]))
    assert invariant_factors(result) == (1,)
    assert result.rank == 1
    assert result.pivots is None


def test_two_by_two_with_torsion():
    result = smith_normal_form(IntegerMatrix.from_dense([[2, 4], [6, 8]]))
    assert invariant_factors(result) == (2, 4)
    assert result.rank == 2


def test_empty_matrix():
    result = smith_normal_form(IntegerMatrix.from_dense([]))
    assert result.rank == 0


@given(small_matrices())
@settings(max_examples=120, deadline=None)
def test_divisibility_chain_and_minor_oracle(dense):
    result = smith_normal_form(IntegerMatrix.from_dense(dense))
    factors = invariant_factors(result)
    assert all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
    assert all(d > 0 for d in factors)
    assert factors == minor_gcd_invariant_factors(dense)


def test_sparse_and_dense_paths_agree():
    dense = [[0] * 80 for _ in range(70)]
    entries = [
        (0, 0, 1), (0, 1, -1), (1, 1, 1), (1, 2, 2), (2, 2, 4), (2, 3, 6),
        (3, 3, 3), (10, 10, 5), (11, 10, 7), (69, 79, 2),
    ]
    for r, c, v in entries:
        dense[r][c] = v
    m = IntegerMatrix.from_dense(dense)
    via_sparse = smith_normal_form(m)
    via_dense = dense_snf(m)
    assert invariant_factors(via_sparse) == invariant_factors(via_dense)
    assert via_sparse.rank == via_dense.rank


@st.composite
def sparse_unit_matrices(draw, max_dim: int = 25):
    """Sparse matrices, mostly +-1 with a few entries in {+-2, 3}, so that
    unit pivots run out on some columns and leave a non-unit residual."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    values = st.sampled_from((1, -1, 1, -1, 1, -1, 2, -2, 3))
    entries = draw(st.dictionaries(cells, values, max_size=2 * (rows + cols)))
    return IntegerMatrix.from_entries(
        rows, cols, ((r, c, v) for (r, c), v in entries.items())
    )


@given(sparse_unit_matrices())
@settings(max_examples=400, deadline=None)
def test_unit_pivot_rule_matches_dense(m):
    via_sparse = smith_normal_form(m)
    via_dense = dense_snf(m)
    assert invariant_factors(via_sparse) == invariant_factors(via_dense)
    assert via_sparse.rank == via_dense.rank


NON_UNITS = tuple(v for k in range(2, 10) for v in (k, -k))


@st.composite
def matrices_without_units(draw, max_dim: int = 12):
    """Matrices with entries in 0, +-2..+-9 and at least one nonzero, so that
    neither the peel nor a unit pivot applies and Euclid does all the work."""
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    values = st.sampled_from((0,) + NON_UNITS)
    dense = [[draw(values) for _ in range(cols)] for _ in range(rows)]
    if not any(any(row) for row in dense):
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        dense[r][c] = draw(st.sampled_from(NON_UNITS))
    return IntegerMatrix.from_dense(dense)


@given(matrices_without_units())
@settings(max_examples=200, deadline=None)
def test_euclid_residual_matches_dense_oracle(m):
    result = smith_normal_form(m)
    assert result.pivots is None
    assert result == dense_snf(m)


def test_unit_pivots_run_out_into_torsion_residual():
    # an identity block eliminates by unit pivots; the [[2, 4], [6, 8]] block
    # has no unit entry and is left for Euclid
    dense = [[0] * 5 for _ in range(5)]
    for i in range(3):
        dense[i][i] = 1
    dense[3][3], dense[3][4], dense[4][3], dense[4][4] = 2, 4, 6, 8
    dense[0][3] = -1  # couples the blocks without adding a unit to the residual
    m = IntegerMatrix.from_dense(dense)
    result = smith_normal_form(m)
    assert result.pivots is None
    assert invariant_factors(result) == (1, 1, 1, 2, 4)
    assert result == dense_snf(m)


@st.composite
def two_entry_unit_matrices(draw, max_dim: int = 12):
    """Sparse +-1 matrices with one or two entries per column, the shape of a
    signed graph's incidence matrix, whose rows often fall to one entry."""
    rows = draw(st.integers(2, max_dim))
    cols = draw(st.integers(1, max_dim))
    entries = []
    for c in range(cols):
        for r in draw(st.sets(st.integers(0, rows - 1), min_size=1, max_size=2)):
            entries.append((r, c, draw(st.sampled_from((1, -1)))))
    return IntegerMatrix.from_entries(rows, cols, entries)


@given(st.one_of(sparse_unit_matrices(), two_entry_unit_matrices()))
@settings(max_examples=500, deadline=None)
def test_pivots_are_reported_only_without_a_residual(m):
    result = smith_normal_form(m)
    assert result == dense_snf(m)
    if result.pivots is None:
        return
    pivots = result.pivots
    assert len(pivots) == result.rank == len(set(pivots))
    # the pivot columns alone have the whole rank and only unit invariant
    # factors, so they span the lattice of all the columns
    position = {c: j for j, c in enumerate(pivots)}
    pivot_columns = IntegerMatrix.from_entries(
        m.rows, len(pivots), ((r, position[c], v) for r, c, v in m.entries if c in position)
    )
    assert dense_snf(pivot_columns) == result


def test_pivots_take_no_part_in_equality():
    from lovaszgap import SnfResult

    assert SnfResult(2, (2,), (0, 1)) == SnfResult(2, (2,))


def test_entries_keep_build_order_without_zeros():
    m = IntegerMatrix.from_entries(2, 2, [(1, 1, 3), (0, 1, 0), (0, 0, -1)])
    assert m.entries == ((1, 1, 3), (0, 0, -1))
    assert m.to_dense() == [[-1, 0], [0, 3]]


def test_skipped_column_returns_after_pivot():
    # column 0 is popped first and has no unit entry; pivoting column 1 on
    # row 0 turns its 3 into 1, so it is eliminated without a residual
    result = smith_normal_form(IntegerMatrix.from_dense([[2, 1], [3, 1]]))
    assert result.pivots is not None
    assert invariant_factors(result) == (1, 1)


def test_euclid_step_hands_back_to_unit_pivots():
    # no entry is +-1; the Euclid step on the 2 turns row 1 into [0, -1] and
    # row 0 into [2, 1], a unit pivot then takes the -1, and the 2 is left
    # alone as the torsion
    m = IntegerMatrix.from_dense([[2, 3], [4, 5]])
    result = smith_normal_form(m)
    assert invariant_factors(result) == (1, 2)
    assert result.torsion == (2,)
    assert result.pivots is None
    assert result == dense_snf(m)


@given(small_matrices(max_dim=4))
@settings(max_examples=60, deadline=None)
def test_paths_agree_randomized(dense):
    m = IntegerMatrix.from_dense(dense)
    assert invariant_factors(smith_normal_form(m)) == invariant_factors(dense_snf(m))


def test_determinism():
    dense = [[3, 1, -4], [1, 5, 9], [-2, 6, 5]]
    a = smith_normal_form(IntegerMatrix.from_dense(dense))
    b = smith_normal_form(IntegerMatrix.from_dense(dense))
    assert a == b


def test_matrix_round_trip():
    dense = [[0, 2], [-1, 0]]
    m = IntegerMatrix.from_dense(dense)
    assert m.to_dense() == dense
    assert m.nnz == 2


# ---------------------------------------------------------------------------
# streaming: columns peel, drop or wait as they arrive, in any order


def permuted_columns(m: IntegerMatrix, order: list[int]) -> IntegerMatrix:
    """m with column order[j] moved to position j."""
    position = {c: j for j, c in enumerate(order)}
    return IntegerMatrix.from_entries(
        m.rows, m.cols, ((r, position[c], v) for r, c, v in m.entries)
    )


@given(sparse_unit_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_streamed_snf_is_independent_of_column_order(m, rng):
    order = list(range(m.cols))
    rng.shuffle(order)
    shuffled = permuted_columns(m, order)
    result = smith_normal_form(shuffled)
    assert result == dense_snf(m)
    if result.pivots is None:
        return
    # the pivot columns alone have the same invariant factors, so they span
    # the lattice of all the columns
    assert len(set(result.pivots)) == len(result.pivots) == result.rank
    keep = {c: j for j, c in enumerate(result.pivots)}
    pivot_columns = IntegerMatrix.from_entries(
        m.rows,
        len(keep),
        ((r, keep[c], v) for r, c, v in shuffled.entries if c in keep),
    )
    assert dense_snf(pivot_columns) == result


def test_column_arriving_on_peeled_rows_is_dropped():
    # column 10 peels row 0; column 11 lives on rows 0 and 1, loses row 0 to
    # that peel and is peeled on row 1; column 12 then has only peeled rows
    columns = [(10, {0: 1}), (11, {0: 1, 1: -1}), (12, {0: 3, 1: 5})]
    result = eliminate(columns)
    assert (result.rank, result.torsion, result.pivots) == (2, (), (10, 11))
    # rows dropped up front act as peeled before the first column
    result = eliminate(columns[1:], dropped_rows=[0])
    assert (result.rank, result.pivots) == (1, (11,))
    assert eliminate([(12, {0: 3, 1: 5})], dropped_rows=[0, 1]) == eliminate([])


def test_late_singleton_cascades_into_stored_columns():
    # columns 0 and 1 arrive with two live entries each and are stored;
    # column 2, a late +-1 singleton on row 0, peels row 0, which leaves
    # column 0 a +-1 singleton on row 1, whose peel leaves column 1 one on
    # row 2.  The singletons 3 and 4 then find their rows peeled: without
    # the cascade they would have been peeled themselves
    columns = [
        (0, {0: 1, 1: -1}), (1, {1: 2, 2: 1}), (2, {0: -1}), (3, {1: 1}), (4, {2: 1})
    ]
    result = eliminate(columns)
    assert (result.rank, result.torsion, result.pivots) == (3, (), (2, 0, 1))
    dense = [[1, 0, -1, 0, 0], [-1, 2, 0, 1, 0], [0, 1, 0, 0, 1]]
    assert result == dense_snf(IntegerMatrix.from_dense(dense))


def test_stored_non_unit_singleton_waits_for_the_residual():
    # after the peel of row 0, column 0 is left with a 2 on row 1: it is not
    # peeled, and the residual takes it as torsion
    result = eliminate([(0, {0: 1, 1: 2}), (1, {0: 1})])
    assert (result.rank, result.torsion, result.pivots) == (2, (2,), None)


# ---------------------------------------------------------------------------
# row singletons: after the peel, a row holding a single +-1 is a pivot
# without fill, taken before the residual loop


def test_row_singleton_pivot_leaves_the_next_row_a_singleton(pivot_calls):
    # every column arrives with two live entries, so nothing peels; row 0
    # holds a single 1, whose pivot on column 0 leaves row 1 holding column
    # 1 alone, whose pivot leaves row 2 holding column 2 alone.  Row 3's 2
    # is a non-unit singleton until column 2's pivot empties it
    columns = [(0, {0: 1, 1: -1}), (1, {1: 1, 2: 1}), (2, {2: -1, 3: 2})]
    result = eliminate(columns)
    assert (result.rank, result.torsion, result.pivots) == (3, (), (0, 1, 2))
    assert pivot_calls == [0]  # no pivot reached the residual loop
    dense = [[1, 0, 0], [-1, 1, 0], [0, 1, -1], [0, 0, 2]]
    assert result == dense_snf(IntegerMatrix.from_dense(dense))


def test_non_unit_row_singleton_is_left_to_the_residual():
    # row 2's 1 takes column 1, which leaves row 1 holding a 2; rows 0 and 1
    # then hold only 2s, so a Euclid step gives the torsion
    columns = [(0, {0: 2, 1: 2}), (1, {1: 1, 2: 1})]
    result = eliminate(columns)
    assert (result.rank, result.torsion, result.pivots) == (2, (2,), None)
    dense = [[2, 0], [2, 1], [0, 1]]
    assert result == dense_snf(IntegerMatrix.from_dense(dense))
