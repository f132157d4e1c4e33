"""Exact dense linear algebra over the rationals.

Only what the Riemann-Roch solver needs: a right null space and a rank, both
from one fraction-free elimination (Bareiss, Math. Comp. 22, 1968).  Each
row is first scaled to integers by the lcm of its denominators, which leaves
the kernel and the rank unchanged; the elimination then runs over Python
ints and every division by the previous pivot is exact.  Pivoting is by
leftmost column with the first nonzero row.  The reduced echelon form is
unique, so the bases do not depend on the pivoting and identical inputs
always give identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[Fraction | int]]


def _integer_rows(matrix: Matrix, cols: int) -> list[list[int]]:
    """The nonzero rows, each times the lcm of its denominators."""
    rows = []
    for r in matrix:
        if len(r) != cols:
            raise ValueError("ragged matrix")
        scale = lcm(*{c.denominator for c in r})
        row = [c.numerator * (scale // c.denominator) for c in r]
        if any(row):
            rows.append(row)
    return rows


def _eliminate(rows: list[list[int]], cols: int, reduce: bool) -> tuple[list[int], int]:
    """Fraction-free elimination of integer rows in place.

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
        sel = next((i for i in range(r, n) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        piv = prow[col]
        # rows below are zero left of col; rows above keep free columns there
        for i in range(n) if reduce else range(r + 1, n):
            if i == r:
                continue
            row = rows[i]
            f = row[col]
            if f:
                rows[i] = [(piv * a - f * b) // prev for a, b in zip(row, prow)]
            elif piv != prev:
                rows[i] = [piv * a // prev for a in row]
        pivots.append(col)
        prev = piv
    return pivots, prev


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


def matrix_rank(matrix: Matrix, cols: int) -> int:
    """Rank by fraction-free forward elimination, exact."""
    return len(_eliminate(_integer_rows(matrix, cols), cols, reduce=False)[0])
