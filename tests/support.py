"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from prymlab import Divisor, HyperellipticCurve


def gauss_jordan_oracle(matrix, cols: int) -> tuple[list[list[Fraction]], int]:
    """(null-space basis, rank) by plain Gauss-Jordan over Fractions.

    Reference for `prymlab.linalg`: the same pivoting and normalisation
    (vectors ordered by free column, first nonzero entry 1), computed with
    exact rational row operations instead of fraction-free ones.
    """
    rows = [[Fraction(c) for c in r] for r in matrix]
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        if r == len(rows):
            break
        sel = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        row = rows[r]
        inv = 1 / row[col]
        row[:] = [c * inv for c in row]
        for i, other in enumerate(rows):
            factor = other[col]
            if i != r and factor:
                other[:] = [a - factor * b for a, b in zip(other, row)]
        pivots.append(col)

    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * cols
        vec[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][free]
        lead = next(c for c in vec if c != 0)
        basis.append([c / lead for c in vec])
    return basis, len(pivots)


def weierstrass_h0_oracle(curve: HyperellipticCurve, divisor: Divisor) -> int:
    """Independent dimension count for divisors supported on ramification
    points and infinity; used to cross-check the linear-algebra engine.

    Derivation (no kernel computation involved): 2w ~ 2*oo for every
    ramification point w, so even parts of the coefficients move onto the
    infinity coefficient and D ~ sum_{w in T} w + m*oo, where T is the set
    of affine ramification points with odd coefficient and m = deg D - |T|.
    Any function with poles bounded by that divisor is (a + b*y) / prod_T (x - r_w)
    with 2 deg a <= 2|T| + m and 2 deg b + 2g+1 <= 2|T| + m, and the only
    conditions are a(r_w) = 0 for w in T (|T| independent conditions on a,
    none on b).  Counting monomials:

        dim = max(0, floor(m/2) + 1) + max(0, |T| + floor((m-2g-1)/2) + 1).
    """
    g = curve.genus
    odd_affine = [p for p, n in divisor if not p.is_infinity and n % 2 != 0]
    s = len(odd_affine)
    m = divisor.degree - s
    a_part = max(0, m // 2 + 1)
    b_part = max(0, s + (m - 2 * g - 1) // 2 + 1)
    return a_part + b_part


def random_weierstrass_divisor(rng: random.Random, curve: HyperellipticCurve,
                               max_support: int = 5) -> Divisor:
    points = list(curve.weierstrass_points)
    support = rng.sample(points, k=rng.randint(1, min(max_support, len(points))))
    terms = []
    for p in support:
        n = 0
        while n == 0:
            n = rng.randint(-2, 3)
        terms.append((p, n))
    return Divisor(terms)
