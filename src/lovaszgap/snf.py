"""Exact Smith normal form over the integers.

Invariant factors come from one sparse elimination, in three phases over
the same rows:

* peel: a column whose only entry is +-1 is eliminated on it with no row
  operation at all; deleting its row can leave other columns with a single
  entry, so they go on a work stack and are peeled in turn;
* unit pivots: of what is left, the shortest live column that holds an
  entry of absolute value 1 is eliminated on that entry, taking the
  shortest such row (lowest row id on ties); a column without one waits
  until a later pivot changes it;
* both phases stop as soon as no row is left;
* whatever is left has no entry of absolute value 1 and is finished by
  Euclid: pivot on an entry of least absolute value, reduce the other rows
  of its column and then its own row modulo it, and take it as a diagonal
  entry once it stands alone; a gcd/lcm sweep over the diagonal then puts
  the factors in divisibility order.

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
from math import gcd, lcm


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
        """The matrix as lists of rows, for tests and oracles."""
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
    the whole rank, and is None when a residual without +-1 entries was
    left for Euclid; it takes no part in equality."""

    invariant_factors: tuple[int, ...]
    rank: int
    pivots: tuple[int, ...] | None = field(default=None, compare=False)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.invariant_factors if d > 1)


def smith_normal_form(m: IntegerMatrix) -> SnfResult:
    return _sparse_snf(m)


# ---------------------------------------------------------------------------
# sparse elimination


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

    # what is left has no +-1 entry; finish it by Euclid in the same rows
    diagonal: list[int] = []
    while rows:
        # pivot on an entry of least absolute value, lowest (row, col) on ties
        _, r, c = min(
            (abs(val), r2, c2) for r2, row in rows.items() for c2, val in row.items()
        )
        piv_row = rows[r]
        p = piv_row[c]
        # leave in column c only the remainders of the other rows mod p
        for r2 in cols[c] - {r}:
            row2 = rows[r2]
            q = row2[c] // p
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
        if len(cols[c]) > 1:
            continue  # a remainder below |p| is the next pivot
        # column c holds only p, so reducing row r mod p is a column
        # operation that touches no other row
        for c2 in piv_row.keys() - {c}:
            new = piv_row[c2] % p
            if new == 0:
                del piv_row[c2]
                cols[c2].discard(r)
            else:
                piv_row[c2] = new
        if len(piv_row) == 1:  # p alone in its row and column
            diagonal.append(abs(p))
            del rows[r]
            cols[c].discard(r)
        # otherwise a remainder below |p| is left in row r

    # diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)); one sweep over
    # the pairs puts the diagonal in divisibility order
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = gcd(a, b), lcm(a, b)
    return SnfResult(
        (1,) * unit_pivots + tuple(diagonal), unit_pivots + len(diagonal)
    )
