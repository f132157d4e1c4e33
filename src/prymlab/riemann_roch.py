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
width-n row times q^(N-n), again a row scaling.  The Taylor tables
are a pure memo of at most `curves.POINT_MEMO_CAP` entries per curve,
cleared when full; the branch expansions come from `series.curve_branch`.

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

Equal keys therefore mean equivalent divisors of equal degree.
`HyperellipticCurve.validate_divisor` is the one split of a divisor into
those three parts, checking each point on the curve once: `class_key` reads
the mask off it, `riemann_roch_space` hands it to the one condition-matrix
builder, and `jacobian.mumford_of_divisor` reads its Mumford pair off it.

Every h0 is read off one pole profile of the condition rows built straight
from the key, for the class member with coefficient 1 at each point of the
mask, the key's ordinary terms, and oo taking the rest of the degree; no
representative `Divisor` is built.  The columns are put in pole
order at oo, x^i at 2i and x^i*y at 2i+2g+1, bounded by cap = 2 deg(den) +
n_inf.  Lowering the degree by j >= 0 lowers cap by j and changes no row
(the denominator and the vanishing orders depend only on the affine part),
so the condition matrix of D - j oo is the column prefix of order at most
cap - j, up to row scaling.  Leftmost pivots are the column rank profile,
so its h0 is the prefix's column count minus the pivots inside it
(`_prefix_h0`).  `pencil_h0s` reads D - 2j oo for every j off one profile.
A `class_h0` miss on a ramification-only key at degree 1 <= d < g-1 is
profiled once at degree g-1, the top of the search range, and fills the
memo at every degree d..g-1 of that mask; every other miss is profiled
at its own degree.  A search asks for one mask at many degrees, so the
fill turns later lookups into hits.  Keys with ordinary terms are left out
because the divisors that carry them rarely repeat, and a wider matrix
with Taylor and branch rows costs more than the hits it buys.  Degree 0 is
left out because there h0(beta) certifies the pencil of
`scroll.dj_sequence`, and it stays an elimination of beta's own narrow
rows, independent of the pencil's.

A ramification-only key of degree >= 1 needs no matrix: the chain of its
mask, which has at most g bits once folded, certifies the profile.  The
key's r rows evaluate x^0, x^1, ... at the mask's roots, each times a power
of q, and in pole order its first w = min(r, columns) <= g columns are
x^0..x^(w-1), so the pivots are 0..w-1 when the leading minors of the
Vandermonde rows are nonzero, which distinct roots guarantee.
Fraction-free elimination without row swaps (`linalg.reduce_row`) has the
k-th leading minor as its pivot k, and pivot row k depends only on rows
0..k.  So the chain of a mask, the pivot rows of the width-g rows
p^j q^(g-1-j) of its roots p/q in label order, each kept from its pivot
column on, is the chain of its prefix, the mask without its top bit, plus
one row reduced by it: O(r g) for a new mask instead of an r x r
elimination.  The per-curve chain store maps a mask to its chain through
`curves.memo_put`, so it holds at most `POINT_MEMO_CAP` masks and is
cleared when full; a chain whose prefix is missing builds the prefix
again.  A chain whose last pivot vanishes is not stored, and its key falls
back to the matrix.  Keys with ordinary terms and keys of degree <= 0 are
always eliminated as matrices: degree 0 is beta's certificate for the
pencil (above), whose own profile comes off the chain when it is
ramification-only.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator, Sequence

from .curves import CurvePoint, Divisor, HyperellipticCurve, memo_put
from .linalg import kernel_basis, pivot_columns, reduce_row
from .polynomials import ONE, Poly, poly_gcd
from .series import curve_branch


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
    y = curve_branch(curve, point, prec)
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


def _monomial_counts(curve: HyperellipticCurve, cap: int) -> tuple[int, int]:
    """The numbers of a-monomials x^i (pole order 2i at oo) and b-monomials
    x^i*y (pole order 2i+2g+1) of pole order at most cap."""
    return max(0, cap // 2 + 1), max(0, (cap - (2 * curve.genus + 1)) // 2 + 1)


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
    na, nb = _monomial_counts(curve, cap)
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
            rows.extend(taylor[l][:na] + [0] * nb for l in range((t + 1) // 2))
            rows.extend([0] * na + taylor[l][:nb] for l in range(t // 2))
    if not ordinary:
        return den, na, nb, rows
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
        branch = [c / q**s for s, c in enumerate(curve_branch(curve, place, t))]
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


def _pole_orders(curve: HyperellipticCurve, na: int, nb: int):
    """The pole orders of the na a- and nb b-columns in increasing order, and
    the permutation that puts the [a | b] columns in that order; None when
    there are no b-columns, as [a | b] is then already in pole order."""
    orders = range(0, 2 * na, 2)
    if not nb:
        return orders, None
    orders = list(orders) + [2 * j + 2 * curve.genus + 1 for j in range(nb)]
    perm = sorted(range(na + nb), key=orders.__getitem__)
    return [orders[c] for c in perm], perm


def _matrix_profile(curve: HyperellipticCurve, key: ClassKey):
    """(cap, column pole orders, pivot columns) of the key's condition
    matrix, from one `pivot_columns` call on its columns in pole order."""
    ramification, ordinary, n_inf = _class_member(curve, key)
    den, na, nb, rows = _space_matrix(curve, ramification, ordinary, n_inf)
    orders, perm = _pole_orders(curve, na, nb)
    if perm is not None:
        rows = [[row[c] for c in perm] for row in rows]
    return 2 * sum(m for _, m in den) + n_inf, orders, pivot_columns(rows, na + nb)


def _mask_chain(curve: HyperellipticCurve, mask: int) -> tuple[list[int], ...] | None:
    """The Bareiss pivot rows of the width-g rows p^j q^(g-1-j) of the mask's
    roots p/q in label order, pivot row k from column k on (it is zero
    before), or None when a leading minor of theirs vanishes.  A chain
    missing from the store is its prefix's, the mask without its top bit,
    plus the top root's row reduced by those rows, a column shorter after
    each; it enters the store only when its last pivot is nonzero (module
    docstring)."""
    if not mask:
        return ()
    rows = curve._chain_cache.get(mask)
    if rows is None:
        top = mask.bit_length() - 1
        prefix = _mask_chain(curve, mask ^ 1 << top)
        if prefix is None:
            return None
        g, x0 = curve.genus, curve.roots[top]
        p, q = x0.numerator, x0.denominator
        row, prev = [p**j * q ** (g - 1 - j) for j in range(g)], 1
        for prow in prefix:
            row, prev = reduce_row(row, prow, 0, prev)[1:], prow[0]
        if not row[0]:
            return None
        rows = (*prefix, row)
        memo_put(curve._chain_cache, mask, rows)
    return rows


def _pole_profile(curve: HyperellipticCurve, key: ClassKey):
    """(cap, column pole orders, pivot columns) of the key's condition
    matrix in pole order.  A ramification-only key of degree >= 1, its mask
    of at most g bits as every folded mask is, whose mask chain certifies
    its leading minors has the pivots 0..w-1 and needs no matrix; any other
    key is eliminated by `_matrix_profile`."""
    mask, ordinary, degree = key
    r = mask.bit_count()
    if ordinary or degree < 1 or r > curve.genus or _mask_chain(curve, mask) is None:
        return _matrix_profile(curve, key)
    na, nb = _monomial_counts(curve, r + degree)
    return r + degree, _pole_orders(curve, na, nb)[0], list(range(min(r, na + nb)))


def _prefix_h0(orders: Sequence[int], pivots: Sequence[int], cap: int) -> int:
    """h0 of the column prefix of pole order at most `cap` of a pole profile:
    its column count less the pivots among them (module docstring)."""
    n = bisect_right(orders, cap)
    dim = n - bisect_left(pivots, n)
    if dim < 0:
        raise ArithmeticError(f"h0 {dim} of a pole profile prefix: engine bug")
    return dim


def class_h0(curve: HyperellipticCurve, key: ClassKey) -> int:
    """dim L(D) for the class with this key, from the per-curve memo.  A miss
    on a ramification-only key at degree 1 <= d < g-1 reads the pole profile
    of degree g-1 and fills the memo at every degree d..g-1 of the mask; any
    other miss reads its own (module docstring)."""
    cache = curve._h0_cache
    dim = cache.get(key)
    if dim is None:
        mask, ordinary, degree = key
        top = curve.genus - 1 if not ordinary and 0 < degree < curve.genus - 1 else degree
        cap, orders, pivots = _pole_profile(curve, (mask, ordinary, top))
        for d in range(top, degree - 1, -1):
            dim = cache[mask, ordinary, d] = _prefix_h0(orders, pivots, cap - (top - d))
    return dim


def pencil_h0s(curve: HyperellipticCurve, key: ClassKey) -> tuple[int, ...]:
    """dim L(D - j * 2oo) for the class D with this key, for j = 0, 1, ...
    up to the first 0, or up to j = g-1 at the latest: the prefixes of D's
    pole profile of pole order at most cap - 2j (module docstring).  Reads
    and writes no memo."""
    cap, orders, pivots = _pole_profile(curve, key)
    values: list[int] = []
    while len(values) < curve.genus and (not values or values[-1] > 0):
        values.append(_prefix_h0(orders, pivots, cap - 2 * len(values)))
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
