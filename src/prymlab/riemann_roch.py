"""Exact Riemann-Roch spaces on split hyperelliptic curves.

Functions on y^2 = f(x) are written (a(x) + b(x)*y) / den(x).  For a divisor
D the space L(D) = {phi : div(phi) + D >= 0} is computed by

  * clearing the finite poles with a denominator built from the positive
    part of D,
  * bounding deg a and deg b through the pole order allowed at infinity
    (ord_oo x = -2 and ord_oo y = -(2g+1) have opposite parities, so the two
    parts never cancel),
  * imposing the remaining vanishing conditions as exact linear equations:
    parity/divisibility conditions at ramification points, power-series
    coefficient conditions at split pairs of ordinary points,

and eliminating with the fraction-free routine of `linalg`: a basis is the
null space, `h0` is ncols minus the rank.  Everything is exact; a dimension
returned by `h0` is a certificate, not an estimate.

Every condition row is built as a row of ints, so `linalg` takes it as it
is.  A Taylor condition at x0 = p/q is scaled by a power of q, and the
rows of an ordinary point also by the lcm of its branch denominators; a
row scaling changes neither the rank nor the reduced echelon form.  The
Taylor rows come from a table per curve and place, keyed by the label
index of a ramification point or by an ordinary point.  A table of width
N serves any request of width n <= N by row prefixes: a prefix is the
width-n row times q^(N-n), again a row scaling.  The branch expansions are
coefficient tuples, likewise read by prefix.  The Taylor tables and the
branch expansions are pure memos of at most `curves.POINT_MEMO_CAP`
entries each per curve, cleared when full.

`h0` is memoized per curve by divisor class.  The key of D is

    (odd affine-ramification mask, ordinary-point terms, degree),

where bit i-1 of the mask is set when w_i (1 <= i <= 2g+1) has an odd
coefficient and the ordinary terms are D's (point, multiplicity) pairs off
the ramification locus, in divisor order.  The key is exact, because h0
depends only on the linear-equivalence class and two relations reduce the
ramification part of D to the mask:

  * div(x - r_i) = 2 w_i - 2 oo, so even parts of coefficients move to oo;
  * div(y) = w_1 + ... + w_{2g+1} - (2g+1) oo, so a set T of odd points is
    equivalent to its complement plus a multiple of oo, and the mask is
    folded to the side with at most g bits.

Equal keys therefore mean equivalent divisors of equal degree.  On a miss
the kernel engine ranks condition rows built straight from the key, for the
class member with coefficient 1 at each point of the mask, the key's
ordinary terms, and oo taking the rest of the degree; no representative
`Divisor` is built.  `HyperellipticCurve.validate_divisor` is the one split
of a divisor into those three parts, checking each point on the curve
once: `class_key` reads the mask off it, `riemann_roch_space` hands it to
the one condition-matrix builder, and `jacobian.mumford_of_divisor` reads
its Mumford pair off it.

Along the pencil, D - j * 2oo for j = 0, 1, ..., one elimination gives every
h0.  Order the columns by pole order at oo, x^i at 2i and x^i*y at 2i+2g+1,
and let cap = 2 deg(den) + n_inf bound them.  Lowering the degree by 2 lowers
cap by 2 and changes no row: the denominator and the vanishing orders depend
only on the affine part.  So the condition matrix of D - j * 2oo is the
column prefix of order at most cap - 2j of D's matrix, up to row scaling.
With leftmost-column pivoting the pivots inside a prefix count its rank, and
`pencil_h0s` reads each h0 as the prefix's column count minus its pivots.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Sequence

from .curves import CurvePoint, Divisor, HyperellipticCurve, memo_put
from .linalg import kernel_basis, matrix_rank, pivot_columns
from .polynomials import ONE, Poly, poly_gcd
from .series import series_sqrt_branch


@dataclass(frozen=True)
class CurveFunction:
    """(a(x) + b(x)*y) / den(x) with den monic and gcd(gcd(a, b), den) = 1."""

    a: Poly
    b: Poly
    den: Poly

    @classmethod
    def make(cls, a: Poly, b: Poly, den: Poly) -> "CurveFunction":
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if a.is_zero and b.is_zero:
            return cls(a, b, ONE)
        lead = den.leading_coefficient
        if lead != 1:
            inv = 1 / lead
            a, b, den = a.scale(inv), b.scale(inv), den.monic()
        common = poly_gcd(poly_gcd(a, b), den)
        if common.degree > 0:
            a = a.exact_div(common)
            b = b.exact_div(common)
            den = den.exact_div(common)
        # scalar normalization: functions differing by a constant are the
        # same line, so pin the leading numerator coefficient to 1
        scale = a.leading_coefficient if not a.is_zero else b.leading_coefficient
        if scale != 1:
            inv = 1 / scale
            a, b = a.scale(inv), b.scale(inv)
        return cls(a, b, den)

    @property
    def is_zero(self) -> bool:
        return self.a.is_zero and self.b.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if not self.a.is_zero:
            parts.append(str(self.a))
        if not self.b.is_zero:
            if self.b == ONE:
                parts.append("y")
            elif self.b.degree == 0:
                parts.append(f"{self.b}*y")
            else:
                parts.append(f"({self.b})*y")
        num = " + ".join(parts)
        return num if self.den == ONE else f"({num}) / ({self.den})"


@dataclass(frozen=True)
class RRSpace:
    """A Riemann-Roch space L(D) with an explicit exact basis."""

    divisor: Divisor
    basis: tuple[CurveFunction, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)


# ---------------------------------------------------------------------------
# valuations


def _branch(curve: HyperellipticCurve, point: CurvePoint, precision: int) -> tuple[Fraction, ...]:
    """The first `precision` coefficients of the curve's sqrt branch through
    a non-ramification point.  One expansion is cached per x-fibre, that of
    the point with y > 0; the branch through conj(P) is -y(x), served by
    negating it.  A cached expansion too short for the request is replaced
    by one of at least twice its length."""
    upper = point if point.y > 0 else point.conjugate()
    cached = curve._branch_cache.get(upper)
    if cached is None or len(cached) < precision:
        length = precision if cached is None else max(precision, 2 * len(cached))
        cached = series_sqrt_branch(curve.f, upper.x, upper.y, length)
        memo_put(curve._branch_cache, upper, cached)
    if point is upper:
        return cached[:precision]
    return tuple([-c for c in cached[:precision]])


def valuation(curve: HyperellipticCurve, fn: CurveFunction, point: CurvePoint) -> int:
    """ord_p of a nonzero function, exactly.

    At infinity and at ramification points the x-part and y-part of the
    numerator have valuations of opposite parity, so the order is a plain
    minimum.  At an ordinary point the order is the first l with
    ta_l + sum_{s<=l} tb_{l-s} y_s != 0, where ta, tb are the Taylor
    coefficients of a and b at x0 (`Poly.taylor_at`) and y_s those of the
    branch through p; the vanishing order of the norm a^2 - b^2 f bounds it,
    so l is searched only up to that order.  The condition rows of
    `_space_matrix` are not used, so this checks the bases built from them.
    """
    if fn.is_zero:
        raise ValueError("the zero function has no valuation")
    a, b, den = fn.a, fn.b, fn.den
    g = curve.genus

    if point.is_infinity:
        vals = []
        if not a.is_zero:
            vals.append(-2 * a.degree)
        if not b.is_zero:
            vals.append(-2 * b.degree - (2 * g + 1))
        return min(vals) + 2 * den.degree

    x0 = curve.checked(point).x
    if point.is_weierstrass:
        vals = []
        if not a.is_zero:
            vals.append(2 * a.multiplicity_at(x0))
        if not b.is_zero:
            vals.append(2 * b.multiplicity_at(x0) + 1)
        return min(vals) - 2 * den.multiplicity_at(x0)

    norm = a * a - b * b * curve.f
    prec = norm.multiplicity_at(x0) + 1  # ord_p(a + b*y) < prec, always finite
    y = _branch(curve, point, prec)
    ta, tb = a.taylor_at(x0, prec), b.taylor_at(x0, prec)
    for l in range(prec):
        if ta[l] + sum(tb[l - s] * y[s] for s in range(l + 1)):
            return l - den.multiplicity_at(x0)
    # cannot happen: the norm bound caps the order
    raise ArithmeticError("series order not certified within the norm bound")


# ---------------------------------------------------------------------------
# Riemann-Roch spaces


def _taylor_table(
    curve: HyperellipticCurve, key: int | CurvePoint, x0: Fraction, size: int, orders: int
) -> list[list[int]]:
    """At least `orders` integer Taylor rows of x^0..x^(N-1) at x0 = p/q for
    some N >= size, from the per-curve table under `key` (a label index or
    an ordinary point): row l is comb(i, l) p^(i-l) q^(N-1-i), the order-l
    Taylor condition times q^(N-1-l).  The first n entries of a row are the
    width-n row times q^(N-n), so a prefix is a scaled row of the narrow
    table.  A table too small for the request is rebuilt to cover it."""
    table = curve._taylor_cache.get(key)
    if table is not None and len(table) >= orders and len(table[0]) >= size:
        return table
    if table is not None:
        size, orders = max(size, len(table[0])), max(orders, len(table))
    p, q = x0.numerator, x0.denominator
    table = [
        [comb(i, l) * p ** (i - l) * q ** (size - 1 - i) if i >= l else 0 for i in range(size)]
        for l in range(orders)
    ]
    memo_put(curve._taylor_cache, key, table)
    return table


def _space_matrix(
    curve: HyperellipticCurve,
    ramification: Sequence[tuple[int, int]],
    ordinary: Sequence[tuple[CurvePoint, int]],
    n_inf: int,
):
    """Denominator factors [(x0, multiplicity)], the numbers of a- and
    b-monomials, and integer condition rows for L(D), where
    D = sum n_i w_i + sum n_p p + n_inf oo is given as (label index i, n_i)
    pairs with 1 <= i <= 2g+1, each label at most once, and ordinary
    (point, n_p) terms: the split of `HyperellipticCurve.validate_divisor`,
    or the class member `class_h0` reads off a key.  Every Taylor part of a
    row is a prefix of a `_taylor_table` row, the plain Taylor condition
    times a power of x0's denominator; an ordinary-point row's b-part
    combines those rows with the branch coefficients, and the rows of a
    place are then scaled to integers by the lcm of its branch denominators.
    Neither that scaling nor the row order changes the rank or the reduced
    echelon form."""
    roots = curve.roots

    # Denominator from the positive affine part: (x - x_p)^{n_p} at ordinary
    # points, enough x-power to clear n_p at ramification points.
    den = [(roots[i - 1], (n + 1) // 2) for i, n in ramification if n > 0]
    ordinary_den: dict[Fraction, int] = {}
    for p, n in ordinary:
        ordinary_den[p.x] = ordinary_den.get(p.x, 0) + max(n, 0)
    den.extend((x0, m) for x0, m in ordinary_den.items() if m)
    cap = 2 * sum(m for _, m in den) + n_inf
    na = max(0, cap // 2 + 1)
    nb = max(0, (cap - (2 * curve.genus + 1)) // 2 + 1)
    if na + nb == 0:
        return den, na, nb, []

    # Required numerator vanishing orders place by place: the order the
    # denominator introduces minus the order the divisor allows.
    rows: list[list[int]] = []
    for i, n in ramification:
        t = n % 2 if n > 0 else -n  # the denominator has order 2*ceil(n/2) at w_i
        if t:
            # ord(a) = 2 mult_x0(a), ord(b*y) = 2 mult_x0(b) + 1
            taylor = _taylor_table(curve, i, roots[i - 1], na, (t + 1) // 2)
            rows.extend(row[:na] + [0] * nb for row in taylor[: (t + 1) // 2])
            rows.extend([0] * na + row[:nb] for row in taylor[: t // 2])
    coeff_at = dict(ordinary)
    for place in dict.fromkeys(c for p, _ in ordinary for c in (p, p.conjugate())):
        t = ordinary_den[place.x] - coeff_at.get(place, 0)
        if t <= 0:
            continue
        # Row l: the a-part is taylor[l]; the b-part convolves the Taylor
        # rows of x^j with the branch y(x), whose s-th coefficient is divided
        # by q^s to share taylor[l]'s power of q.  Every row of the place is
        # then scaled by the lcm of those coefficients' denominators.
        taylor = _taylor_table(curve, place, place.x, na, t)
        q = place.x.denominator
        branch = [c / q**s for s, c in enumerate(_branch(curve, place, t))]
        scale = lcm(*(c.denominator for c in branch))
        branch = [c.numerator * (scale // c.denominator) for c in branch]
        rows.extend(
            [scale * c for c in taylor[l][:na]]
            + [sum(taylor[l - s][j] * branch[s] for s in range(l + 1)) for j in range(nb)]
            for l in range(t)
        )
    return den, na, nb, rows


def riemann_roch_space(curve: HyperellipticCurve, divisor: Divisor) -> RRSpace:
    """L(D) = {phi : div(phi) + D >= 0} with an explicit basis.

    The empty space has dimension 0; no error cases.
    """
    den_factors, na, nb, rows = _space_matrix(curve, *curve.validate_divisor(divisor))
    if na + nb == 0:
        return RRSpace(divisor, ())
    den = ONE
    for x0, m in den_factors:
        den = den * Poly((-x0, 1)) ** m
    basis = tuple(
        CurveFunction.make(Poly(vec[:na]), Poly(vec[na:]), den)
        for vec in kernel_basis(rows, na + nb)
    )
    return RRSpace(divisor, basis)


# ---------------------------------------------------------------------------
# h0 memoized by divisor class

# (folded odd affine-ramification mask, ordinary (point, multiplicity) terms, degree)
ClassKey = tuple[int, tuple[tuple[CurvePoint, int], ...], int]


def _fold(curve: HyperellipticCurve, mask: int) -> int:
    """The side of {mask, complement} with at most g points (div(y))."""
    g = curve.genus
    return mask ^ ((1 << (2 * g + 1)) - 1) if mask.bit_count() > g else mask


def class_key(curve: HyperellipticCurve, divisor: Divisor) -> ClassKey:
    """The memo key of D's class; every point of D is checked on the curve."""
    ramification, ordinary, _ = curve.validate_divisor(divisor)
    mask = sum(1 << (i - 1) for i, n in ramification if n % 2)
    return _fold(curve, mask), tuple(ordinary), divisor.degree


def point_classes(
    curve: HyperellipticCurve, points: Sequence[CurvePoint], degree: int
) -> Iterator[tuple[tuple[CurvePoint, ...], ClassKey]]:
    """(combo, class key) for each combination with replacement of `degree`
    of the points, in `itertools.combinations_with_replacement` order.  The
    points are on the curve (a checked pool or the Weierstrass points)."""
    affine = (1 << (2 * curve.genus + 1)) - 1  # oo has no bit
    indices = [curve.weierstrass_index(p) for p in points]
    bits = [None if i is None else (1 << (i - 1)) & affine for i in indices]
    combos = itertools.combinations_with_replacement(points, degree)
    for combo, combo_bits in zip(combos, itertools.combinations_with_replacement(bits, degree)):
        mask = 0
        ordinary: dict[CurvePoint, int] = {}
        for p, bit in zip(combo, combo_bits):
            if bit is None:
                ordinary[p] = ordinary.get(p, 0) + 1
            else:
                mask ^= bit
        terms = tuple(sorted(ordinary.items(), key=lambda t: t[0].sort_key())) if ordinary else ()
        yield combo, (_fold(curve, mask), terms, degree)


def twisted_key(curve: HyperellipticCurve, key: ClassKey, mask: int) -> ClassKey:
    """The key of D + E for a degree-0 E whose odd affine-ramification mask
    is `mask` (a 2-torsion class and its twist)."""
    return _fold(curve, key[0] ^ mask), key[1], key[2]


def residual_key(curve: HyperellipticCurve, key: ClassKey) -> ClassKey:
    """The key of K - D, K = (2g-2) oo: odd parts keep their parity."""
    mask, ordinary, degree = key
    return mask, tuple((p, -n) for p, n in ordinary), 2 * curve.genus - 2 - degree


def _class_member(curve: HyperellipticCurve, key: ClassKey):
    """(ramification, ordinary, n_inf) of the class member that the condition
    rows are built for: coefficient 1 at each point of the mask, the key's
    ordinary terms, and oo taking the rest of the degree.  The ordinary
    points are checked on the curve."""
    mask, ordinary, degree = key
    for p, _ in ordinary:
        curve.checked(p)
    ramification = [(i + 1, 1) for i in range(2 * curve.genus + 1) if mask >> i & 1]
    return ramification, ordinary, degree - len(ramification) - sum(n for _, n in ordinary)


def class_h0(curve: HyperellipticCurve, key: ClassKey) -> int:
    """dim L(D) for the class with this key, from the per-curve memo; a miss
    is ncols minus the rank of the condition rows built from the key."""
    cache = curve._h0_cache
    dim = cache.get(key)
    if dim is not None:
        return dim
    member = _class_member(curve, key)
    if key[2] < 0:
        dim = 0
    else:
        _, na, nb, rows = _space_matrix(curve, *member)
        dim = na + nb - matrix_rank(rows, na + nb)
    cache[key] = dim
    return dim


def pencil_h0s(curve: HyperellipticCurve, key: ClassKey) -> tuple[int, ...]:
    """dim L(D - j * 2oo) for the class D with this key, for j = 0, 1, ...
    up to the first 0, or up to j = g-1 at the latest, from one elimination.

    The columns of D's condition matrix are put in pole order at oo, x^i at
    2i and x^i*y at 2i+2g+1; the columns of D - j * 2oo are those of order
    at most cap - 2j, a prefix, and its rows are D's rows cut to that prefix
    up to row scaling.  The pivots of one leftmost-column elimination that
    fall in the prefix count its rank, so each value is the prefix's column
    count minus its pivot count.  Reads and writes no memo."""
    ramification, ordinary, n_inf = _class_member(curve, key)
    if key[2] < 0:
        return (0,)
    den, na, nb, rows = _space_matrix(curve, ramification, ordinary, n_inf)
    cap = 2 * sum(m for _, m in den) + n_inf
    g = curve.genus
    order = [2 * i for i in range(na)] + [2 * j + 2 * g + 1 for j in range(nb)]
    perm = sorted(range(na + nb), key=order.__getitem__)
    orders = [order[c] for c in perm]
    pivots = [orders[c] for c in pivot_columns([[row[c] for c in perm] for row in rows], na + nb)]
    values: list[int] = []
    while len(values) < g and (not values or values[-1] > 0):
        top = cap - 2 * len(values)
        values.append(bisect_right(orders, top) - bisect_right(pivots, top))
    return tuple(values)


def h0(curve: HyperellipticCurve, divisor: Divisor) -> int:
    """dim L(D).  Memoized per curve by divisor class; the memo is pure."""
    return class_h0(curve, class_key(curve, divisor))


def is_linearly_equivalent(curve: HyperellipticCurve, d1: Divisor, d2: Divisor) -> bool:
    """D1 ~ D2 iff they have equal degree and h0(D1 - D2) = 1.  Every point
    of both is checked on the curve, also one that cancels in D1 - D2."""
    curve.validate_divisor(d1)
    curve.validate_divisor(d2)
    if d1.degree != d2.degree:
        return False
    return h0(curve, d1 - d2) == 1
