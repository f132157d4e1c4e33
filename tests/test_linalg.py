"""Exact null-space and rank computation."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from prymlab import (
    HyperellipticCurve,
    curve_with_marked_point,
    kernel_basis,
    linalg,
    riemann_roch,
    two_torsion_from_subset,
)
from prymlab.prym import search_report
from prymlab.riemann_roch import twisted_key
from prymlab.scroll import scroll_report
from support import gauss_jordan_oracle


def test_full_rank_has_empty_kernel():
    identity = [[Fraction(i == j) for j in range(3)] for i in range(3)]
    assert kernel_basis(identity, 3) == []


def test_zero_map_kernel_is_everything():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    basis = kernel_basis(zero, 3)
    assert basis == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]


def test_rank_two_of_three():
    m = [[Fraction(1), Fraction(1), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]]
    assert kernel_basis(m, 3) == [[1, -1, 0]]


def test_empty_matrix_kernel():
    assert kernel_basis([], 2) == [[1, 0], [0, 1]]


def test_kernel_vectors_multiply_to_zero():
    rng = random.Random(99)
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        for vec in kernel_basis(m, cols):
            for row in m:
                assert sum(c * v for c, v in zip(row, vec)) == 0


def test_dimension_is_cols_minus_rank():
    # Certified-rank construction: A = L @ R with L = [[I_r], [random]] and
    # R = [I_r | random] has rank exactly r.
    rng = random.Random(123)
    for _ in range(60):
        r = rng.randint(0, 4)
        rows = r + rng.randint(0, 3)
        cols = r + rng.randint(0, 3)
        L = [[Fraction(i == j) for j in range(r)] for i in range(r)]
        L += [[Fraction(rng.randint(-3, 3)) for _ in range(r)] for _ in range(rows - r)]
        R = [[Fraction(i == j) for j in range(r)] + [Fraction(rng.randint(-3, 3)) for _ in range(cols - r)] for i in range(r)]
        A = [[sum(L[i][t] * R[t][j] for t in range(r)) for j in range(cols)] for i in range(rows)]
        assert len(kernel_basis(A, cols)) == cols - r
        assert len(linalg.pivot_columns(A, cols)) == r


def test_basis_leading_entries_are_one():
    rng = random.Random(7)
    for _ in range(40):
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(2)]
        for vec in kernel_basis(m, 4):
            lead = next(c for c in vec if c != 0)
            assert lead == 1


def _seeded_matrix(rng: random.Random):
    """A small matrix of one of four kinds: dense rationals, a certified
    low-rank product, dense with zero rows mixed in, or one without rows."""
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    kind = rng.choice(("dense", "low_rank", "zero_rows", "empty"))

    def entry():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7, 12)))

    if kind == "empty":
        return [], cols
    if kind == "low_rank":
        r = rng.randint(0, min(rows, cols))
        left = [[entry() for _ in range(r)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(r)]
        matrix = [
            [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(cols)]
            for i in range(rows)
        ]
        return matrix, cols
    matrix = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind == "zero_rows":
        for _ in range(rng.randint(1, 3)):
            matrix.insert(rng.randint(0, len(matrix)), [Fraction(0)] * cols)
    return matrix, cols


def test_matches_gauss_jordan_oracle_on_seeded_matrices():
    rng = random.Random(2024)
    for _ in range(2500):
        matrix, cols = _seeded_matrix(rng)
        basis, rank = gauss_jordan_oracle(matrix, cols)
        assert kernel_basis(matrix, cols) == basis, matrix
        assert len(linalg.pivot_columns(matrix, cols)) == rank, matrix
        # integer entries and a mixed int/Fraction row give the same answers
        as_ints = [[c.numerator for c in row] for row in matrix]
        assert kernel_basis(as_ints, cols) == gauss_jordan_oracle(as_ints, cols)[0]
        assert len(linalg.pivot_columns(as_ints, cols)) == gauss_jordan_oracle(as_ints, cols)[1]


def test_pivots_in_a_column_prefix_count_its_rank():
    rng = random.Random("pivot-prefixes")
    for _ in range(300):
        matrix, cols = _seeded_matrix(rng)
        pivots = linalg.pivot_columns(matrix, cols)
        assert pivots == sorted(set(pivots))
        for c in range(cols + 1):
            prefix = [row[:c] for row in matrix]
            assert sum(p < c for p in pivots) == gauss_jordan_oracle(prefix, c)[1], (matrix, c)


def _singular_leading_block_family(seed):
    """(matrix, cols, w, tall) with a singular leading w x w block,
    w = min(rows, cols): tall and wide integer matrices whose rank is w or
    less depending on the entries outside the block."""
    rng = random.Random(seed)
    for _ in range(400):
        w = rng.randint(1, 5)
        extra = rng.randint(1, 4)
        tall = rng.random() < 0.5
        rows, cols = (w + extra, w) if tall else (w, w + extra)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        # row w-1 of the block is a combination of the rows above it
        coeffs = [rng.randint(-2, 2) for _ in range(w - 1)]
        for j in range(w):
            m[w - 1][j] = sum(c * m[i][j] for i, c in enumerate(coeffs))
        if rng.random() < 0.5:  # the whole of row w-1 follows the others too
            for j in range(cols):
                m[w - 1][j] = sum(c * m[i][j] for i, c in enumerate(coeffs))
            if tall:  # and so do the rows below the block
                for i in range(w, rows):
                    m[i] = [sum(r[j] * rng.randint(-2, 2) for r in m[: w - 1]) for j in range(cols)]
        yield m, cols, w, tall


def test_rank_falls_through_a_singular_leading_block():
    # Leading w x w block singular (w = min(rows, cols)): the block cannot
    # certify the rank, which is w or less depending on the other entries.
    assert len(linalg.pivot_columns([[1, 2, 3], [2, 4, 5]], 3)) == 2
    assert len(linalg.pivot_columns([[1, 2], [2, 4], [0, 1]], 2)) == 2
    ranks = Counter()
    for m, cols, w, _ in _singular_leading_block_family(77):
        as_fractions = [[Fraction(c, 3) for c in row] for row in m]
        rank = gauss_jordan_oracle(m, cols)[1]
        assert gauss_jordan_oracle([row[:w] for row in m[:w]], w)[1] < w
        assert len(linalg.pivot_columns(m, cols)) == rank, m
        assert len(linalg.pivot_columns(as_fractions, cols)) == rank, m
        ranks[rank == w] += 1
    assert ranks[True] > 50 and ranks[False] > 50


def test_pivots_fall_through_a_singular_leading_block():
    # the pivots inside every column prefix count that prefix's rank, for
    # integer and Fraction entries, on tall and wide matrices alike
    shapes = Counter()
    for m, cols, _, tall in _singular_leading_block_family(78):
        as_fractions = [[Fraction(c, 3) for c in row] for row in m]
        pivots = linalg.pivot_columns(m, cols)
        assert linalg.pivot_columns(as_fractions, cols) == pivots, m
        for c in range(cols + 1):
            prefix_rank = gauss_jordan_oracle([row[:c] for row in m], c)[1]
            assert sum(p < c for p in pivots) == prefix_rank, (m, c)
        shapes[tall] += 1
    assert shapes[True] > 100 and shapes[False] > 100


def _determinant(matrix):
    """Determinant over the Fractions, by elimination with row swaps."""
    m, det = [[Fraction(c) for c in row] for row in matrix], Fraction(1)
    for col in range(len(m)):
        sel = next((i for i in range(col, len(m)) if m[i][col]), None)
        if sel is None:
            return 0
        if sel != col:
            m[col], m[sel], det = m[sel], m[col], -det
        det *= m[col][col]
        for row in m[col + 1:]:
            f = row[col] / m[col][col]
            row[:] = [a - f * b for a, b in zip(row, m[col])]
    return det


def test_reduce_row_steps_give_the_leading_minors():
    # without row swaps, row k reduced by the pivot rows 0..k-1 in turn has
    # the k-th leading minor as its pivot; a zero minor ends the chain
    rng = random.Random("reduce-row")
    zero_minors = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        matrix = [[rng.randint(-3, 3) for _ in range(n + rng.randint(0, 2))] for _ in range(n)]
        chain = []
        for k, row in enumerate(matrix):
            prev = 1
            for j, prow in enumerate(chain):
                row, prev = linalg.reduce_row(row, prow, j, prev), prow[j]
            assert row[:k] == [0] * k
            assert row[k] == _determinant([r[: k + 1] for r in matrix[: k + 1]]), matrix
            if not row[k]:
                zero_minors += 1
                break
            chain.append(row)
        # the chain's rows are the rows a forward elimination of its rows leaves
        rows = [list(r) for r in matrix[: len(chain)]]
        assert linalg._eliminate(rows, len(matrix[0]), reduce=False)[0] == list(range(len(chain)))
        assert rows == chain
    assert zero_minors > 10


def test_rank_converts_the_rows_once_through_a_singular_leading_block(monkeypatch):
    calls, eliminated = [], []
    integer_rows, eliminate = linalg._integer_rows, linalg._eliminate

    def counting(matrix, cols):
        calls.append(cols)
        return integer_rows(matrix, cols)

    def recording(rows, cols, reduce):
        eliminated.append((len(rows), cols))
        return eliminate(rows, cols, reduce)

    monkeypatch.setattr(linalg, "_integer_rows", counting)
    monkeypatch.setattr(linalg, "_eliminate", recording)
    # the leading 2 x 2 block [[1, 2], [2, 4]] is singular; column 3 is not
    matrix = [[1, 2, 3], [2, 4, Fraction(5, 2)]]
    assert len(linalg.pivot_columns(matrix, 3)) == 2
    assert linalg.pivot_columns(matrix, 3) == [0, 2]
    assert calls == [3, 3]
    # the block, then the converted rows whole
    assert eliminated == [(2, 2), (2, 3)] * 2


def test_integer_rows_are_used_as_they_are():
    row, mixed = [3, 0, -2], [Fraction(1, 2), 1, 0]
    rows = linalg._integer_rows([row, [0, 0, 0], mixed], 3)
    assert rows[0] is row
    assert rows[1:] == [[1, 2, 0]]


def test_kernel_entries_are_fractions():
    for vec in kernel_basis([[2, 4, 6]], 3):
        assert all(type(c) is Fraction for c in vec)


def test_ragged_matrix_is_rejected():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [3]], 2)
    with pytest.raises(ValueError):
        linalg.pivot_columns([[1, 2, 3]], 2)


@pytest.fixture
def recorded_matrices(monkeypatch):
    """Every (rows, cols) the Riemann-Roch engine eliminates, copied."""
    seen = []

    def recording(fn):
        def wrapper(matrix, cols):
            seen.append(([list(r) for r in matrix], cols))
            return fn(matrix, cols)

        return wrapper

    monkeypatch.setattr(riemann_roch, "kernel_basis", recording(kernel_basis))
    monkeypatch.setattr(riemann_roch, "pivot_columns", recording(linalg.pivot_columns))
    return seen


def _check_against_oracle(seen):
    assert seen
    for matrix, cols in seen:
        basis, rank = gauss_jordan_oracle(matrix, cols)
        assert len(linalg.pivot_columns(matrix, cols)) == rank
        assert kernel_basis(matrix, cols) == basis


def test_matches_oracle_on_genus_13_scroll_matrices(recorded_matrices, monkeypatch):
    # non-integer roots, so the ramification Taylor rows are scaled by q > 1
    roots = [Fraction(2 * i - 27, 1 + i % 4) for i in range(27)]
    curve = HyperellipticCurve(roots)
    eta = two_torsion_from_subset(curve, [f"w{i}" for i in (1, 4, 6, 9, 13, 20, 22, 27)])
    report = scroll_report(curve, eta)
    assert (report.e1, report.e2) == (13 - 1 - 4, 4 - 2)
    # the report reads the pencil off its mask chain, without a matrix; the
    # matrix that the chain stands for is eliminated here
    riemann_roch._matrix_profile(curve, twisted_key(curve, (0, (), 24), eta.mask))
    _check_against_oracle(recorded_matrices)
    # the Riemann-Roch certificate's matrix is beta's: the 8 points of the
    # twist but only 8 // 2 + 1 = 5 columns; the pencil's pole-ordered
    # matrix leads with the Vandermonde block of the twist's 8 rows.  Each
    # leading block certifies its pivots in one elimination
    calls = []
    eliminate = linalg._eliminate

    def counting(rows, cols, reduce):
        calls.append(cols)
        return eliminate(rows, cols, reduce)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    assert [(len(matrix), cols) for matrix, cols in recorded_matrices] == [(8, 5), (8, 20)]
    for (matrix, cols), width in zip(recorded_matrices, (5, 8)):
        calls.clear()
        assert linalg.pivot_columns(matrix, cols) == list(range(width))
        assert calls == [width]


def test_matches_oracle_on_genus_4_search_matrices(recorded_matrices):
    curve, marked = curve_with_marked_point(4)
    curve = HyperellipticCurve(curve.roots)  # a fresh instance: a cold memo
    eta = two_torsion_from_subset(curve, ["w1", "w2", "w3", "w4"])
    pool = list(curve.weierstrass_points) + [marked, marked.conjugate()]
    search_report(curve, eta, pool=pool, include_probes=True)
    _check_against_oracle(recorded_matrices)
