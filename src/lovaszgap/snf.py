"""Exact Smith normal form over the integers.

Invariant factors come from one streaming sparse elimination
(``Elimination``), which takes the columns one at a time, with no matrix
built first, in three steps:

* peel as they arrive: rows can be dropped up front (the clearing of
  ``homology``); the dropped and peeled rows are the ``dead`` set, against
  which the caller decides each column's arrival as ``Elimination``
  describes: drop it, peel it at once (``peel``), or file its live entries
  in the row -> column index ``rows`` and the column -> rows index
  ``cols``.  ``homology`` does so for every fan column without building
  it.  A peel takes its row out of the filed columns through the row
  index, and those left with a single +-1 are peeled in turn.  This is
  sound in any arrival order: a peeled column is a unit vector on the
  rows still live, so column operations against it clear its row from
  every other column, earlier or later, and only its row and column
  change;
* then (``result``) take row singletons: a stored row whose one entry is a
  +-1, in column c, is a pivot without fill.  Row operations against it
  clear the rest of column c, and since column c then holds the +-1 alone,
  no column operation is needed and no other column changes; the rows that
  this leaves with a single entry are taken in turn, and a non-unit single
  entry is left for the next step.  This runs before any Euclid step, so
  its pivots are +-1 pivots like the others (Dumas, Saunders & Villard, "On
  efficient sparse integer matrix Smith normal form computations",
  J. Symbolic Comput. 32 (2001));
* then one loop over the stored residual pops the shortest live column
  that holds an entry of absolute value 1 and pivots on that entry, taking
  the shortest such row (lowest row id on ties); a column without one waits
  until a later pivot changes it.  Only when no such column is left does it
  fall back to a Euclid step: pivot on an entry of least absolute value
  (lowest (row, col) on ties).  Both kinds of pivot go through ``_pivot``,
  which reduces the other rows of the pivot's column and then its own row
  modulo it, and takes it as a diagonal entry once it stands alone.  A
  Euclid step can leave a +-1 remainder, which the next unit pivot takes.
  A gcd/lcm sweep over the diagonal (``torsion_factors``) puts the factors
  in divisibility order.

The Euclid fallback serves torsion (RP^2, unit-free test matrices,
complexes read from facet files).  On the Kneser-graph complexes, the
separation gadgets (2,2,3,q) for q = 3..8 and the suite's cases it
never runs: every pivot after the peel is a unit pivot.  On N(KG(8,3)) at
cap 2, the peel leaves boundary_3 a residual of 2,549 rows and 2,489
columns, of which the row singletons take 2,054 columns, so that 314
pivots are left to the loop.

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
from typing import Iterable


@dataclass(frozen=True)
class SnfResult:
    """The rank r and the invariant factors above 1 (``torsion``) in
    divisibility order; the other r - len(torsion) factors are 1, so the
    two fields are the whole Smith normal form.

    The peel, the row singletons and the unit pivots give the factors 1;
    Euclid steps, the fallback once no +-1 entry is left, give the rest.
    ``pivots`` lists the ids of the columns eliminated on +-1 pivots, in
    elimination order, when those gave the whole rank, as on every Kneser,
    separation and suite boundary, and is None once a Euclid step ran; it
    takes no part in equality."""

    rank: int
    torsion: tuple[int, ...] = ()
    pivots: tuple[int, ...] | None = field(default=None, compare=False)


# ---------------------------------------------------------------------------
# sparse elimination


class Elimination:
    """The streaming elimination: columns arrive one at a time, and
    ``result`` then takes the row singletons and the residual loop.
    ``dead`` holds the rows dropped up front or peeled.  The caller decides
    each column's arrival against ``dead``, and need not build the column
    to do so: it drops a column with no entry on a live row, writing
    nothing; it peels one whose only live entry is a +-1 on that row
    (``peel``); and it files any other as its live entries in the column's order,
    writing rows[r][c] = value for each, then cols[c] = the set of those
    rows.  The order matters: the order in which rows first arrive, and the
    sets' order, fix the order in which the row singletons are taken, hence
    ``pivots``."""

    def __init__(self, dropped_rows: Iterable[int] = ()) -> None:
        self.dead = set(dropped_rows)
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        self.pivots: list[int] = []

    def peel(self, c: int, r: int) -> None:
        """Peel column c, whose one live entry is a +-1 on row r: take row r
        out of the stored columns; those left empty are dropped, and those
        left with a single +-1 are peeled in turn."""
        dead, rows, pivots = self.dead, self.rows, self.pivots
        if r not in rows:  # no stored column holds row r: nothing cascades
            dead.add(r)
            pivots.append(c)
            return
        cols = self.cols
        stack = [(c, r)]
        while stack:
            c, r = stack.pop()
            if r in dead:
                continue  # an earlier peel on r zeroed column c
            dead.add(r)
            pivots.append(c)
            for c2 in rows.pop(r, ()):
                col2 = cols[c2]
                col2.discard(r)
                if not col2:
                    del cols[c2]
                elif len(col2) == 1 and rows[min(col2)][c2] in (1, -1):
                    stack.append((c2, min(col2)))

    def result(self) -> SnfResult:
        """The SNF of the columns that arrived, less the dead rows; called
        once, after the last arrival, since it eliminates in place."""
        rows, cols = self.rows, self.cols
        pivots: list[int] | None = self.pivots
        # row singletons: a row whose one entry is +-1 at column c takes
        # column c as a pivot by row operations alone, which clear the rest
        # of column c and touch no other column; rows left with one entry
        # are taken in turn
        stack = [r for r, row in rows.items() if len(row) == 1]
        while stack:
            row = rows.get(stack.pop())
            if row is None:
                continue  # an earlier pivot emptied it
            ((c, val),) = row.items()
            if val not in (1, -1):
                continue  # left to the residual loop
            pivots.append(c)
            for r2 in cols.pop(c):
                row2 = rows[r2]
                del row2[c]
                if not row2:
                    del rows[r2]
                elif len(row2) == 1:
                    stack.append(r2)

        # lazy min-heap of (column length, column): an entry whose length is
        # out of date was pushed again when its column changed, so it is
        # dropped
        heap = [(len(col), c) for c, col in cols.items()]
        heapq.heapify(heap)
        rank = len(pivots)
        diagonal: list[int] = []  # the Euclid pivots' absolute values

        while rows:
            if heap:
                length, c = heapq.heappop(heap)
                col = cols.get(c)
                if col is None or len(col) != length:
                    continue
                units = [(len(rows[r]), r) for r in col if rows[r][c] in (1, -1)]
                if not units:
                    continue  # comes back only if a later pivot changes the column
                r = min(units)[1]
            else:
                # no +-1 entry is left: a Euclid step on an entry of least
                # absolute value, lowest (row, col) on ties
                _, r, c = min(
                    (abs(val), r2, c2)
                    for r2, row in rows.items()
                    for c2, val in row.items()
                )
                pivots = None
            touched = rows[r]  # the columns this pivot changes (see _pivot)
            d = _pivot(rows, cols, r, c)
            if d:
                rank += 1
                if d > 1:
                    diagonal.append(d)
                elif pivots is not None:
                    pivots.append(c)
            for c2 in touched:
                col2 = cols[c2]
                if col2:
                    heapq.heappush(heap, (len(col2), c2))

        return SnfResult(
            rank, torsion_factors(diagonal), None if pivots is None else tuple(pivots)
        )


def torsion_factors(diagonal: Iterable[int]) -> tuple[int, ...]:
    """The invariant factors above 1 of diag(diagonal), positive entries, in
    divisibility order: also the torsion of the direct sum of the cyclic
    groups Z/d."""
    diagonal = list(diagonal)
    # diag(a, b) is equivalent to diag(gcd(a, b), lcm(a, b)); one sweep over
    # the pairs puts the diagonal in divisibility order
    for i in range(len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            a, b = diagonal[i], diagonal[j]
            diagonal[i], diagonal[j] = gcd(a, b), lcm(a, b)
    return tuple(d for d in diagonal if d > 1)


def _pivot(
    rows: dict[int, dict[int, int]], cols: dict[int, set[int]], r: int, c: int
) -> int:
    """Pivot on p = rows[r][c]: subtract floor(v / p) times row r from every
    other row whose column c holds v, so that only remainders below |p| are
    left there.  Once column c holds p alone, reduce row r modulo p, a
    column operation that touches no other row; for p = +-1 that clears it.
    Returns |p| when p then stands alone in its row and column, whose
    entries are deleted, and 0 when a remainder below |p| is left.

    The dict found at rows[r] keeps every other column of row r, and column
    c whenever that column still holds a remainder, so a caller holding it
    knows which columns the pivot changed."""
    piv_row = rows[r]
    p = piv_row.pop(c)
    col = cols.pop(c)
    col.discard(r)
    left = {r}  # column c after the pass: row r and the rows with a remainder
    for r2 in col:
        row2 = rows[r2]
        q, rem = divmod(row2.pop(c), p)
        if rem:
            row2[c] = rem
            left.add(r2)
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
    if len(left) == 1:
        rest = {}
        for c2, val in piv_row.items():
            new = val % p
            if new:
                rest[c2] = new
            else:
                cols[c2].discard(r)
        if not rest:
            del rows[r]
            return abs(p)
        rows[r] = piv_row = rest
    piv_row[c] = p
    cols[c] = left
    return 0
