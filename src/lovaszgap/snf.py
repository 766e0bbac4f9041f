"""Exact Smith normal form over the integers.

Invariant factors come from one sparse elimination with a dense residual:

* peel: a column whose only entry is +-1 is eliminated on it with no row
  operation at all; deleting its row can leave other columns with a single
  entry, so they go on a work stack and are peeled in turn;
* unit pivots: of what is left, the shortest live column that holds an
  entry of absolute value 1 is eliminated on that entry, taking the
  shortest such row (lowest row id on ties); a column without one waits
  until a later pivot changes it;
* both phases stop as soon as no row is left;
* whatever is left has no entry of absolute value 1 and is finished by a
  dense classical elimination (minimum-absolute-value pivot, Euclidean
  row/column reduction, divisibility sweep).

Only the invariant factors are computed; no unimodular transforms are kept.
When every pivot was a unit pivot, the result also names the pivot
columns: their images are independent and span the column lattice (every
other column was reduced to zero against them), which is what
``homology`` needs to clear the next boundary.

Everything is plain Python ints, so intermediate growth is exact.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IntegerMatrix:
    """Sparse integer matrix: (row, col, value) triples with value != 0 and
    each (row, col) at most once, in the order they were built."""

    rows: int
    cols: int
    entries: tuple[tuple[int, int, int], ...]

    @staticmethod
    def from_dense(dense: list[list[int]]) -> "IntegerMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = tuple(
            (r, c, dense[r][c])
            for r in range(rows)
            for c in range(cols)
            if dense[r][c]
        )
        return IntegerMatrix(rows, cols, entries)

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "IntegerMatrix":
        return IntegerMatrix(rows, cols, tuple(e for e in entries if e[2]))

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries:
            dense[r][c] = v
        return dense

    @property
    def nnz(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_r, all positive, and the rank r.

    ``pivots`` lists the columns eliminated on +-1 pivots when those gave
    the whole rank, and is None when a dense residual was left (or the
    dense path ran); it takes no part in equality."""

    invariant_factors: tuple[int, ...]
    rank: int
    pivots: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(m: IntegerMatrix) -> SnfResult:
    return _sparse_snf(m)


# ---------------------------------------------------------------------------
# dense classical elimination


def _dense_snf(m: IntegerMatrix) -> SnfResult:
    a = m.to_dense()
    nr, nc = m.rows, m.cols

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]

    def swap_cols(i: int, j: int) -> None:
        if i == j:
            return
        for row in a:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, factor: int) -> None:
        # row[dst] += factor * row[src]
        arow, srow = a[dst], a[src]
        for j in range(nc):
            if srow[j]:
                arow[j] += factor * srow[j]

    def add_col(dst: int, src: int, factor: int) -> None:
        for row in a:
            if row[src]:
                row[dst] += factor * row[src]

    t = 0
    while t < nr and t < nc:
        # minimum-|value| pivot in the trailing submatrix, smallest (i, j) on ties
        pi = pj = -1
        pv = 0
        for i in range(t, nr):
            for j in range(t, nc):
                val = abs(a[i][j])
                if val and (pv == 0 or val < pv):
                    pv, pi, pj = val, i, j
        if pv == 0:
            break
        swap_rows(t, pi)
        swap_cols(t, pj)

        while True:
            # clear column t below the pivot; a nonzero remainder becomes
            # the new, strictly smaller pivot
            restart = False
            for i in range(t + 1, nr):
                if a[i][t] == 0:
                    continue
                q, r = divmod(a[i][t], a[t][t])
                add_row(i, t, -q)
                if r:
                    swap_rows(t, i)
                    restart = True
                    break
            if restart:
                continue
            # clear row t right of the pivot
            for j in range(t + 1, nc):
                if a[t][j] == 0:
                    continue
                q, r = divmod(a[t][j], a[t][t])
                add_col(j, t, -q)
                if r:
                    swap_cols(t, j)
                    restart = True
                    break
            if restart:
                continue
            # pivot must divide the whole remaining submatrix; if not, fold
            # the offending row into row t and keep reducing (gcd shrinks)
            offender = -1
            d = a[t][t]
            for i in range(t + 1, nr):
                if any(a[i][j] % d for j in range(t + 1, nc)):
                    offender = i
                    break
            if offender >= 0:
                add_row(t, offender, 1)
                continue
            break

        t += 1

    return SnfResult(tuple(abs(a[i][i]) for i in range(t)), t)


# ---------------------------------------------------------------------------
# sparse unit-pivot reduction


def _sparse_snf(m: IntegerMatrix) -> SnfResult:
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, val in m.entries:
        rows.setdefault(r, {})[c] = val
        cols.setdefault(c, set()).add(r)
    pivots: list[int] = []

    # peel: a +-1 singleton column takes its row with it and needs no row
    # operation; the row's other columns lose one entry each, and only those
    # left with one entry are revisited, where the heap below would re-push
    # every column of the pivot row
    stack = [c for c, col in cols.items() if len(col) == 1]
    while stack and rows:
        c = stack.pop()
        col = cols[c]
        if len(col) != 1:
            continue
        (r,) = col
        if rows[r][c] not in (1, -1):
            continue
        pivots.append(c)
        for c2 in rows.pop(r):
            col2 = cols[c2]
            col2.discard(r)
            if len(col2) == 1:
                stack.append(c2)

    # lazy min-heap of (column length, column): an entry whose length is out
    # of date was pushed again when its column changed, so it is dropped
    heap = [(len(col), c) for c, col in cols.items() if col]
    heapq.heapify(heap)

    while heap and rows:
        length, c = heapq.heappop(heap)
        col = cols.get(c)
        if col is None or len(col) != length:
            continue
        units = [(len(rows[r]), r) for r in col if rows[r][c] in (1, -1)]
        if not units:
            continue  # comes back only if a later pivot changes the column
        r = min(units)[1]

        pivots.append(c)
        piv_row = rows.pop(r)
        p = piv_row.pop(c)
        col.discard(r)
        for c2 in piv_row:
            cols[c2].discard(r)
        del cols[c]
        for r2 in col:
            row2 = rows[r2]
            q = row2.pop(c) * p  # multiplier so that column c of r2 vanishes
            for c2, val2 in piv_row.items():
                new = row2.get(c2, 0) - q * val2
                if new == 0:
                    if c2 in row2:
                        del row2[c2]
                        cols[c2].discard(r2)
                else:
                    row2[c2] = new
                    cols[c2].add(r2)
            if not row2:
                del rows[r2]
        for c2 in piv_row:
            heapq.heappush(heap, (len(cols[c2]), c2))

    unit_pivots = len(pivots)
    if not rows:
        return SnfResult((1,) * unit_pivots, unit_pivots, tuple(pivots))

    # residual has no +-1 entries left; finish densely on its live rows and
    # columns, renumbered in id order
    col_ids = sorted({c for row in rows.values() for c in row})
    col_pos = {c: j for j, c in enumerate(col_ids)}
    entries = tuple(
        (i, col_pos[c], val)
        for i, r in enumerate(sorted(rows))
        for c, val in rows[r].items()
    )
    rest = _dense_snf(IntegerMatrix(len(rows), len(col_ids), entries))
    return SnfResult(
        (1,) * unit_pivots + rest.invariant_factors,
        unit_pivots + rest.rank,
    )
