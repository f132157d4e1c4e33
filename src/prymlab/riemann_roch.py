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
the kernel engine ranks one representative of the class: each point of the
mask with coefficient 1, then the ordinary terms, with oo taking the rest of
the degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .curves import INFINITY, CurvePoint, Divisor, HyperellipticCurve
from .linalg import kernel_basis, matrix_rank
from .polynomials import ONE, Poly, poly_gcd
from .series import TruncatedSeries, series_sqrt_branch


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

    @classmethod
    def zero(cls) -> "CurveFunction":
        return cls(Poly(), Poly(), ONE)

    @classmethod
    def one(cls) -> "CurveFunction":
        return cls(ONE, Poly(), ONE)

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


def _branch(curve: HyperellipticCurve, point: CurvePoint, precision: int) -> TruncatedSeries:
    """Cached sqrt branch of the curve through a non-ramification point."""
    key = (point.x, point.y)
    cached = curve._branch_cache.get(key)
    if cached is None or cached.precision < precision:
        cached = series_sqrt_branch(curve.f, point.x, point.y, precision)
        curve._branch_cache[key] = cached
    return cached.truncate(precision) if cached.precision > precision else cached


def valuation(curve: HyperellipticCurve, fn: CurveFunction, point: CurvePoint) -> int:
    """ord_p of a nonzero function, exactly.

    At infinity and at ramification points the x-part and y-part of the
    numerator have valuations of opposite parity, so the order is a plain
    minimum.  At an ordinary point the order is certified by expanding the
    branch one term past the vanishing order of the norm a^2 - b^2 f, which
    bounds it.
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

    if not curve.contains(point):
        raise ValueError(f"point {point} is not on the curve")

    x0 = point.x
    if point.is_weierstrass:
        vals = []
        if not a.is_zero:
            vals.append(2 * a.multiplicity_at(x0))
        if not b.is_zero:
            vals.append(2 * b.multiplicity_at(x0) + 1)
        return min(vals) - 2 * den.multiplicity_at(x0)

    norm = a * a - b * b * curve.f
    bound = norm.multiplicity_at(x0)  # ord_p(a + b*y) <= this, always finite
    prec = bound + 1
    branch = _branch(curve, point, prec)
    num = TruncatedSeries.from_poly(a, x0, prec) + TruncatedSeries.from_poly(b, x0, prec) * branch
    order = num.order()
    if order is None:  # cannot happen: the norm bound caps the order
        raise ArithmeticError("series order not certified within the norm bound")
    return order - den.multiplicity_at(x0)


# ---------------------------------------------------------------------------
# Riemann-Roch spaces


def _taylor_rows(x0: Fraction, size: int, orders: int) -> list[list[int]]:
    """Order-l Taylor rows (l < orders) of x^0..x^(size-1) at x0 = p/q, times
    q^(size-1-l) to make them integers: comb(i, l) p^(i-l) q^(size-1-i)."""
    p, q = x0.numerator, x0.denominator
    return [
        [comb(i, l) * p ** (i - l) * q ** (size - 1 - i) if i >= l else 0 for i in range(size)]
        for l in range(orders)
    ]


def _space_matrix(curve: HyperellipticCurve, divisor: Divisor):
    """Denominator factors {x0: multiplicity}, candidate monomials and exact
    condition rows for L(D), integer ones at ramification points."""
    g = curve.genus
    n_inf = divisor.coefficient(INFINITY)

    # Denominator from the positive affine part: (x - x_p)^{n_p} at ordinary
    # points, enough x-power to clear n_p at ramification points.
    den_mult: dict[Fraction, int] = {}
    affine_terms = [(p, n) for p, n in divisor if not p.is_infinity]
    for p, n in affine_terms:
        if n > 0:
            m = (n + 1) // 2 if p.is_weierstrass else n
            den_mult[p.x] = den_mult.get(p.x, 0) + m
    deg_den = sum(den_mult.values())
    cap = 2 * deg_den + n_inf

    a_top = cap // 2
    b_top = (cap - (2 * g + 1)) // 2
    a_degrees = list(range(a_top + 1)) if a_top >= 0 else []
    b_degrees = list(range(b_top + 1)) if b_top >= 0 else []
    ncols = len(a_degrees) + len(b_degrees)
    if ncols == 0:
        return den_mult, a_degrees, b_degrees, [], 0

    # Required numerator vanishing orders place by place: the order the
    # denominator introduces minus the order the divisor allows.
    required: dict[CurvePoint, int] = {}
    coeff_at = {p: n for p, n in affine_terms}
    for x0, mult in den_mult.items():
        w = CurvePoint(x0, Fraction(0))
        if curve.weierstrass_index(w) is not None:
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

    rows: list[list[Fraction | int]] = []
    for q in sorted(required, key=CurvePoint.sort_key):
        t = required[q]
        x0 = q.x
        if q.is_weierstrass:
            # ord(a) = 2 mult_x0(a), ord(b*y) = 2 mult_x0(b) + 1
            na, nb = len(a_degrees), len(b_degrees)
            rows.extend(row + [0] * nb for row in _taylor_rows(x0, na, (t + 1) // 2))
            rows.extend([0] * na + row for row in _taylor_rows(x0, nb, t // 2))
        else:
            branch = _branch(curve, q, t).coeffs
            a_cols = [
                [comb(i, l) * x0 ** (i - l) if i >= l else Fraction(0) for l in range(t)]
                for i in a_degrees
            ]
            b_cols = []
            for tay in a_cols[: len(b_degrees)]:  # b_top < a_top: x^j's Taylor column
                conv = [Fraction(0)] * t
                for i1, c1 in enumerate(tay):
                    if c1:
                        for i2 in range(t - i1):
                            if branch[i2]:
                                conv[i1 + i2] += c1 * branch[i2]
                b_cols.append(conv)
            rows.extend(list(row) for row in zip(*a_cols, *b_cols))

    return den_mult, a_degrees, b_degrees, rows, ncols


def riemann_roch_space(curve: HyperellipticCurve, divisor: Divisor) -> RRSpace:
    """L(D) = {phi : div(phi) + D >= 0} with an explicit basis.

    The empty space has dimension 0; no error cases.
    """
    curve.validate_divisor(divisor)
    den_mult, a_degrees, b_degrees, rows, ncols = _space_matrix(curve, divisor)
    if ncols == 0:
        return RRSpace(divisor, ())
    vectors = kernel_basis(rows, ncols)
    den = ONE
    for x0 in sorted(den_mult):
        den = den * Poly((-x0, 1)) ** den_mult[x0]
    na = len(a_degrees)
    basis = []
    for vec in vectors:
        a_coeffs = [Fraction(0)] * (a_degrees[-1] + 1) if a_degrees else []
        for idx, i in enumerate(a_degrees):
            a_coeffs[i] = vec[idx]
        b_coeffs = [Fraction(0)] * (b_degrees[-1] + 1) if b_degrees else []
        for idx, j in enumerate(b_degrees):
            b_coeffs[j] = vec[na + idx]
        basis.append(CurveFunction.make(Poly(a_coeffs), Poly(b_coeffs), den))
    return RRSpace(divisor, tuple(basis))


# ---------------------------------------------------------------------------
# h0 memoized by divisor class

# (folded odd affine-ramification mask, ordinary (point, multiplicity) terms, degree)
ClassKey = tuple[int, tuple[tuple[CurvePoint, int], ...], int]


def _fold(curve: HyperellipticCurve, mask: int) -> int:
    """The side of {mask, complement} with at most g points (div(y))."""
    g = curve.genus
    return mask ^ ((1 << (2 * g + 1)) - 1) if mask.bit_count() > g else mask


def _mask_bit(curve: HyperellipticCurve, point: CurvePoint) -> int | None:
    """The point's bit in the odd mask (0 for oo), None for an ordinary point.

    Rejects a y = 0 point that is not one of the curve's Weierstrass points,
    so a warm memo never lets it through; ordinary points are checked on the
    miss that stores their key, since they stay in the key as they are.
    """
    if point.y:
        return None
    idx = curve.weierstrass_index(point)
    if idx is None:
        raise ValueError(f"point {point} is not on the curve")
    return 1 << (idx - 1) if idx <= 2 * curve.genus + 1 else 0


def class_key(curve: HyperellipticCurve, divisor: Divisor) -> ClassKey:
    """The memo key of D's class."""
    mask = 0
    ordinary = []
    for p, n in divisor:
        bit = _mask_bit(curve, p)
        if bit is None:
            ordinary.append((p, n))
        elif n % 2:
            mask ^= bit
    return _fold(curve, mask), tuple(ordinary), divisor.degree


def point_classes(
    curve: HyperellipticCurve, points: Sequence[CurvePoint], degree: int
) -> Iterator[tuple[tuple[CurvePoint, ...], ClassKey]]:
    """(combo, class key) for each combination with replacement of `degree`
    of the points, in `itertools.combinations_with_replacement` order."""
    bits = [_mask_bit(curve, p) for p in points]
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


def class_h0(curve: HyperellipticCurve, key: ClassKey) -> int:
    """dim L(D) for the class with this key, from the per-curve memo; a miss
    is ncols minus the rank of the class representative's condition matrix."""
    cache = curve._h0_cache
    dim = cache.get(key)
    if dim is not None:
        return dim
    mask, ordinary, degree = key
    terms = [(w, 1) for i, w in enumerate(curve.weierstrass_points[:-1]) if mask >> i & 1]
    terms.extend(ordinary)
    terms.append((INFINITY, degree - sum(n for _, n in terms)))
    representative = Divisor(terms)
    curve.validate_divisor(representative)
    if degree < 0:
        dim = 0
    else:
        _, _, _, rows, ncols = _space_matrix(curve, representative)
        dim = ncols - matrix_rank(rows, ncols)
    cache[key] = dim
    return dim


def h0(curve: HyperellipticCurve, divisor: Divisor) -> int:
    """dim L(D).  Memoized per curve by divisor class; the memo is pure."""
    return class_h0(curve, class_key(curve, divisor))


def is_linearly_equivalent(curve: HyperellipticCurve, d1: Divisor, d2: Divisor) -> bool:
    """D1 ~ D2 iff they have equal degree and h0(D1 - D2) = 1."""
    if d1.degree != d2.degree:
        return False
    return h0(curve, d1 - d2) == 1
