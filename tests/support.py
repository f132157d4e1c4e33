"""Shared helpers and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from prymlab import (
    INFINITY,
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    MumfordClass,
    Poly,
    cantor_add,
    cantor_identity,
    cantor_negate,
    curve_with_marked_point,
    h0,
    mumford_of_point,
    series_sqrt_branch,
)


def shifted_marked_curve() -> tuple[HyperellipticCurve, CurvePoint]:
    """curve_with_marked_point(3) under x -> x/4 + 1/3: roots with
    denominators 6 and 12 and an ordinary point at x = 1/3, y = 9/64."""
    c, marked = curve_with_marked_point(3)
    curve = HyperellipticCurve([r / 4 + Fraction(1, 3) for r in c.roots])
    point = CurvePoint.affine(Fraction(1, 3), marked.y / 2**7)
    assert curve.contains(point)
    return curve, point


def marked_curves(genera):
    """`curve_with_marked_point(g)` for each genus, then the shifted marked
    curve, whose ordinary point has x0 = 1/3, as (curve, point) params."""
    params = [pytest.param(*curve_with_marked_point(g), id=f"genus{g}") for g in genera]
    return params + [pytest.param(*shifted_marked_curve(), id="shifted-marked")]


def mumford_point_by_point_oracle(curve: HyperellipticCurve, divisor: Divisor) -> MumfordClass:
    """The class of (D - deg(D) * oo), composed one point at a time.

    Reference for `prymlab.jacobian.mumford_of_divisor`: no relation is
    applied up front; the class (x - x_P, y_P) of each point, negated for a
    negative coefficient, is added |n| times with `cantor_add`.
    """
    acc = cantor_identity()
    for point, mult in divisor:
        if point.is_infinity:
            continue
        base = mumford_of_point(curve, point)
        if mult < 0:
            base = cantor_negate(curve, base)
            mult = -mult
        for _ in range(mult):
            acc = cantor_add(curve, acc, base)
    return acc


def pencil_values_oracle(curve: HyperellipticCurve, base: Divisor) -> tuple[int, ...]:
    """h0(base - j * pencil) for j = 0, 1, ..., up to the first 0 or to
    j = g-1 at the latest, one `h0` on a `Divisor` per j.

    Reference for `prymlab.riemann_roch.pencil_h0s`: every value is its own
    solve of its own condition matrix, in [a | b] column order, where the
    function under test reads all of them off one pole-ordered elimination.
    """
    pencil = curve.pencil_divisor()
    values = [h0(curve, base)]
    while values[-1] > 0 and len(values) < curve.genus:
        values.append(h0(curve, base - len(values) * pencil))
    return tuple(values)


def poly_add_oracle(a: Poly, b: Poly) -> Poly:
    """a + b, coefficient by coefficient in Fraction arithmetic."""
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return Poly(out)


def poly_sub_oracle(a: Poly, b: Poly) -> Poly:
    return poly_add_oracle(a, Poly(tuple(-c for c in b.coeffs)))


def poly_mul_oracle(a: Poly, b: Poly) -> Poly:
    """a * b by the schoolbook convolution in Fraction arithmetic."""
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return Poly()
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, ca in enumerate(x):
        if ca:
            for j, cb in enumerate(y):
                if cb:
                    out[i + j] += ca * cb
    return Poly(out)


def poly_divmod_oracle(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """(quotient, remainder) by long division in Fraction arithmetic,
    multiplying by the inverse leading coefficient at every step.

    Reference for the integer pseudo-division under `Poly.__divmod__`."""
    if b.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if a.degree < b.degree:
        return Poly(), a
    rem = list(a.coeffs)
    dv = b.coeffs
    dd = len(dv) - 1
    inv_lead = 1 / dv[-1]
    quot = [Fraction(0)] * (len(rem) - dd)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            q = c * inv_lead
            quot[i - dd] = q
            for j in range(dd + 1):
                rem[i - dd + j] -= q * dv[j]
    return Poly(quot), Poly(rem[:dd])


def poly_xgcd_oracle(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, s, t) with s*a + t*b = g, g monic, by extended Euclid carrying
    both cofactors through every step.

    Reference for `prymlab.poly_xgcd`, which carries s alone and gets t by
    one exact division."""
    r0, r1 = a, b
    s0, s1 = Poly((1,)), Poly()
    t0, t1 = Poly(), Poly((1,))
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return Poly(), Poly(), Poly()
    inv = 1 / r0.leading_coefficient
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def synthetic_division_oracle(a: Poly, x0: Fraction) -> tuple[Poly, Fraction]:
    """Divide by (x - x0) in Fraction arithmetic: (quotient, remainder)."""
    cs = a.coeffs
    if not cs:
        return Poly(), Fraction(0)
    out = [Fraction(0)] * (len(cs) - 1)
    acc = cs[-1]
    for i in range(len(cs) - 2, -1, -1):
        out[i] = acc
        acc = cs[i] + x0 * acc
    return Poly(out), acc


def evaluate_oracle(a: Poly, x0: Fraction) -> Fraction:
    """a(x0) by Horner's rule in Fraction arithmetic."""
    acc = Fraction(0)
    for c in reversed(a.coeffs):
        acc = acc * x0 + c
    return acc


def taylor_oracle(a: Poly, x0: Fraction, nterms: int) -> list[Fraction]:
    """The first nterms Taylor coefficients at x0, one Fraction synthetic
    division by (x - x0) per coefficient."""
    out = []
    for _ in range(nterms):
        a, rem = synthetic_division_oracle(a, x0)
        out.append(rem)
    return out


def multiplicity_oracle(a: Poly, x0: Fraction) -> int:
    """The vanishing order at x0 by repeated Fraction synthetic division."""
    mult = 0
    while True:
        quot, rem = synthetic_division_oracle(a, x0)
        if rem != 0:
            return mult
        mult += 1
        a = quot


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


def space_matrix_oracle(curve: HyperellipticCurve, divisor: Divisor):
    """(denominator factors {x0: multiplicity}, a-degrees, b-degrees, rows,
    ncols) of the condition matrix of L(D), built from the `Divisor` itself.

    Reference for `prymlab.riemann_roch._space_matrix`: the same candidate
    functions (a(x) + b(x)*y) / den(x), but the places and their required
    vanishing orders are found point by point on the divisor, and every row
    is a plain Fraction Taylor row (at a ramification point, a row of the
    package's integer rows divided by a power of the root's denominator).
    """
    g = curve.genus
    n_inf = divisor.coefficient(INFINITY)

    den_mult: dict[Fraction, int] = {}
    affine_terms = [(p, n) for p, n in divisor if not p.is_infinity]
    for p, n in affine_terms:
        if n > 0:
            m = (n + 1) // 2 if p.is_weierstrass else n
            den_mult[p.x] = den_mult.get(p.x, 0) + m
    cap = 2 * sum(den_mult.values()) + n_inf
    a_top = cap // 2
    b_top = (cap - (2 * g + 1)) // 2
    a_degrees = list(range(a_top + 1)) if a_top >= 0 else []
    b_degrees = list(range(b_top + 1)) if b_top >= 0 else []
    ncols = len(a_degrees) + len(b_degrees)
    if ncols == 0:
        return den_mult, a_degrees, b_degrees, [], 0

    # required numerator vanishing order place by place: the order the
    # denominator introduces minus the order the divisor allows
    required: dict[CurvePoint, int] = {}
    coeff_at = dict(affine_terms)
    for x0, mult in den_mult.items():
        w = CurvePoint(x0, Fraction(0))
        if w in curve.weierstrass_points:
            t = 2 * mult - coeff_at.get(w, 0)
            if t > 0:
                required[w] = t
        else:
            some_y = next(p.y for p in coeff_at if p.x == x0)
            for q in (CurvePoint(x0, some_y), CurvePoint(x0, -some_y)):
                t = mult - coeff_at.get(q, 0)
                if t > 0:
                    required[q] = t
    for p, n in affine_terms:
        if n < 0 and p.x not in den_mult:
            required[p] = -n

    def taylor(x0, degrees, orders):
        return [[comb(i, l) * x0 ** (i - l) if i >= l else Fraction(0) for i in degrees]
                for l in range(orders)]

    na, nb = len(a_degrees), len(b_degrees)
    rows: list[list[Fraction]] = []
    for q in sorted(required, key=CurvePoint.sort_key):
        t, x0 = required[q], q.x
        if q.is_weierstrass:
            # ord(a) = 2 mult_x0(a), ord(b*y) = 2 mult_x0(b) + 1
            rows.extend(row + [Fraction(0)] * nb for row in taylor(x0, a_degrees, (t + 1) // 2))
            rows.extend([Fraction(0)] * na + row for row in taylor(x0, b_degrees, t // 2))
        else:
            # a(x) + b(x)*y(x) along the branch through q vanishes to order t
            branch = series_sqrt_branch(curve.f, x0, q.y, t)
            a_rows = taylor(x0, a_degrees, t)
            b_rows = [
                [sum(a_rows[l - s][j] * branch[s] for s in range(l + 1)) for j in range(nb)]
                for l in range(t)
            ]
            rows.extend(a + b for a, b in zip(a_rows, b_rows))
    return den_mult, a_degrees, b_degrees, rows, ncols


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


def canonical_subset_oracle(genus: int, subset: frozenset[int]) -> frozenset[int]:
    """The side of {subset, complement} with at most g+1 labels, and at
    exactly g+1 each the one whose sorted labels come first."""
    n = 2 * genus + 2
    full = frozenset(range(1, n + 1))
    if len(subset) * 2 > n:
        return full - subset
    if len(subset) * 2 == n:
        return min(subset, full - subset, key=sorted)
    return subset


def two_torsion_enumeration_oracle(genus: int) -> list[frozenset[int]]:
    """Every canonical nontrivial subset, by k, then lexicographically: all
    subsets of 2k labels filtered through `canonical_subset_oracle`."""
    n = 2 * genus + 2
    return [
        frozenset(combo)
        for k in range(1, (genus + 1) // 2 + 1)
        for combo in itertools.combinations(range(1, n + 1), 2 * k)
        if canonical_subset_oracle(genus, frozenset(combo)) == frozenset(combo)
    ]
