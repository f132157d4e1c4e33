"""Exact dense linear algebra over the rationals.

Only what the Riemann-Roch solver needs: a right null space and the pivot
columns, both from one fraction-free elimination (Bareiss, Math. Comp. 22,
1968) over Python ints, in which every division by the previous pivot is
exact.  Rows may hold ints, Fractions or both.  A row of ints is used as it
is (one type check, no copy), which is the case for every condition row the
Riemann-Roch builder emits; any other row is first scaled to integers by the
lcm of its denominators, which leaves the kernel and the rank unchanged.
Pivoting is by leftmost column with the first nonzero row.  The reduced
echelon form is unique, so the bases do not depend on the pivoting and
identical inputs always give identical bases.

`reduce_row` is the one row update of the elimination: `_eliminate` applies
it to every row below (and, reducing, above) each pivot, and the
Riemann-Roch mask chains apply it to one new row at a time, which is exact
because without row swaps pivot row k depends only on rows 0..k.

`pivot_columns` is the one forward elimination.  Leftmost pivots are the
column rank profile, whichever rows are chosen, so the pivots inside a
column prefix count that prefix's rank.  A nonsingular leading w x w block,
w = min(rows, cols) over the nonzero rows, certifies the profile 0..w-1:
the first c columns have rank c for c <= w, and the rank is at most w.
Otherwise the converted rows are eliminated whole.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[Fraction | int]]


def _integer_rows(matrix: Matrix, cols: int) -> list[Sequence[int]]:
    """The nonzero rows as integer rows: a row of ints as it is, any other
    row times the lcm of its denominators.  The rows are never changed in
    place, here or by `_eliminate`."""
    rows = []
    for r in matrix:
        if len(r) != cols:
            raise ValueError("ragged matrix")
        if type(sum(r)) is not int:  # a Fraction entry makes the sum a Fraction
            scale = lcm(*{c.denominator for c in r})
            r = [c.numerator * (scale // c.denominator) for c in r]
        if any(r):
            rows.append(r)
    return rows


def _eliminate(rows: list[Sequence[int]], cols: int, reduce: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of integer rows; it replaces entries of the
    list `rows`, never the contents of a row.

    Returns the pivot columns and the last pivot d.  Afterwards row i (for i
    below the rank) has its pivot in column pivots[i], and the rows below
    the rank are zero.  With `reduce`, the pivot columns are also cleared
    above the pivots, every pivot equals d, and the rows divided by d are the
    reduced echelon form (fraction-free Gauss-Jordan).
    """
    n = len(rows)
    pivots: list[int] = []
    prev = 1
    for col in range(cols):
        r = len(pivots)
        if r == n:
            break
        for sel in range(r, n):
            if rows[sel][col]:
                break
        else:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        # rows below are zero left of col; rows above keep free columns there
        for i in range(n) if reduce else range(r + 1, n):
            if i != r:
                rows[i] = reduce_row(rows[i], prow, col, prev)
        pivots.append(col)
        prev = prow[col]
    return pivots, prev


def reduce_row(row: Sequence[int], prow: Sequence[int], col: int, prev: int) -> Sequence[int]:
    """One Bareiss row update: `row` cleared in column `col` by the pivot row
    `prow`, whose pivot prow[col] is nonzero, with the exact division by the
    previous pivot `prev` (1 before the first).  Returns a new row, or `row`
    itself when it is unchanged; `row` is never changed in place.

    Without row swaps, pivot k of a forward elimination is the k-th leading
    minor and pivot row k depends only on rows 0..k: a row reduced by the
    pivot rows 0..k-1 in turn, each with the pivot before it, is pivot row k
    of every matrix that leads with those rows."""
    piv, f = prow[col], row[col]
    if f:
        return [(piv * a - f * b) // prev for a, b in zip(row, prow)]
    if piv != prev:
        return [piv * a // prev for a in row]
    return row


def kernel_basis(matrix: Matrix, cols: int) -> list[list[Fraction]]:
    """Basis of the right null space of an exact rational matrix.

    The matrix is given as an iterable of rows (each of length `cols`; the
    row count may be zero, which is why `cols` is explicit).  Returns one
    vector per free column, ordered by free column index, each scaled so its
    first nonzero entry is 1; stacked as rows the result is in reduced
    echelon form.  The dimension is cols - rank.
    """
    rows = _integer_rows(matrix, cols)
    pivots, d = _eliminate(rows, cols, reduce=True)
    pivot_set = set(pivots)
    basis: list[list[Fraction]] = []
    for free in range(cols):
        if free in pivot_set:
            continue
        # d times the kernel vector with a 1 in the free column
        vec = [0] * cols
        vec[free] = d
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[free]
        lead = next(c for c in vec if c)
        basis.append([Fraction(c, lead) for c in vec])
    return basis


def pivot_columns(matrix: Matrix, cols: int) -> list[int]:
    """The pivot columns of one forward elimination, in increasing order.

    The pivots that fall in the first c columns count the rank of that
    column prefix, for every c at once.  A nonsingular leading w x w block,
    w = min(rows, cols), certifies the pivots 0..w-1.
    """
    rows = _integer_rows(matrix, cols)
    w = min(len(rows), cols)
    if len(_eliminate([r[:w] for r in rows[:w]], w, reduce=False)[0]) == w:
        return list(range(w))
    return _eliminate(rows, cols, reduce=False)[0]
