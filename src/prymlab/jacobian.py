"""Divisor-class arithmetic and the 2-torsion subgroup.

Degree-zero classes are handled in Mumford form (u, v) with u monic of
degree <= g, deg v < deg u and u | v^2 - f, composed and reduced with
Cantor's algorithm.  A divisor goes to its class in one pass: the relations
2w ~ 2oo and P + conj(P) ~ 2oo leave an effective, semi-reduced divisor,
written directly as one pair (u, v), with v the CRT of 0 at the odd
ramification roots and of y's branch Taylor polynomial at the ordinary
points, and then reduced once.  This is an accelerator and cross-check
only: the h0 oracle in `riemann_roch` remains the source of truth, and any
disagreement between the two is a bug, never a runtime fallback.

The 2-torsion subgroup is combinatorial: an even subset S of the 2g+2
ramification points determines the class of

    sum_{w in S, w affine} w  -  #(S cap affine) * oo,

S and its complement determine the same class, and symmetric difference
realises the group law.  The canonical form stored here keeps #S <= g+1,
taking the lexicographically smaller of the two complementary subsets when
both have size g+1; the canonical subset size 2k recovers the invariant k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .curves import INFINITY, CurvePoint, Divisor, HyperellipticCurve
from .polynomials import ONE, Poly, poly_xgcd
from .series import curve_branch


@dataclass(frozen=True)
class MumfordClass:
    """Reduced Mumford pair (u, v): the class of the u-roots paired with
    v-values, minus deg(u) times the point at infinity."""

    u: Poly
    v: Poly

    def __str__(self) -> str:
        return f"[u = {self.u}, v = {self.v}]"


def cantor_identity() -> MumfordClass:
    return MumfordClass(ONE, Poly())


def validate_mumford(curve: HyperellipticCurve, m: MumfordClass) -> None:
    if not m.u.is_monic:
        raise ValueError("u must be monic")
    if m.u.degree > curve.genus:
        raise ValueError("u degree exceeds the genus: class not reduced")
    if not m.v.is_zero and m.v.degree >= m.u.degree:
        raise ValueError("deg v must be < deg u")
    if not ((m.v * m.v - curve.f) % m.u).is_zero:
        raise ValueError("u does not divide v^2 - f")


def cantor_negate(curve: HyperellipticCurve, m: MumfordClass) -> MumfordClass:
    return MumfordClass(m.u, (-m.v) % m.u if m.u.degree > 0 else Poly())


def _cantor_reduce(curve: HyperellipticCurve, u: Poly, v: Poly) -> MumfordClass:
    g = curve.genus
    while u.degree > g:
        u = (curve.f - v * v).exact_div(u)
        u = u.monic()
        v = (-v) % u if u.degree > 0 else Poly()
    return MumfordClass(u.monic(), v)


def _compose(
    curve: HyperellipticCurve, u1: Poly, v1: Poly, u2: Poly, v2: Poly
) -> tuple[Poly, Poly]:
    """Cantor's composition of two semi-reduced pairs: a semi-reduced pair
    (u, v) of the sum, u monic and deg v < deg u.  For coprime u1, u2 it is
    the CRT u = u1*u2, v = v1 mod u1, v = v2 mod u2."""
    d1, e1, e2 = poly_xgcd(u1, u2)
    d, c1, c2 = poly_xgcd(d1, v1 + v2)
    s1, s2, s3 = c1 * e1, c1 * e2, c2
    u = (u1 * u2).exact_div(d * d)
    num = s1 * u1 * v2 + s2 * u2 * v1 + s3 * (v1 * v2 + curve.f)
    v = num.exact_div(d)
    u = u.monic()
    return u, (v % u if u.degree > 0 else Poly())


def cantor_add(curve: HyperellipticCurve, m1: MumfordClass, m2: MumfordClass) -> MumfordClass:
    """Composition followed by reduction; the group law on Pic^0.  Either
    argument may also be a semi-reduced pair with deg u > g."""
    return _cantor_reduce(curve, *_compose(curve, m1.u, m1.v, m2.u, m2.v))


def mumford_of_point(curve: HyperellipticCurve, point: CurvePoint) -> MumfordClass:
    """The class of (point - oo)."""
    if point.is_infinity:
        return cantor_identity()
    curve.checked(point)
    return MumfordClass(Poly((-point.x, 1)), Poly((point.y,)))


def _fibre_pair(curve: HyperellipticCurve, point: CurvePoint, n: int) -> tuple[Poly, Poly]:
    """The semi-reduced pair of n*P at an ordinary point P: u = (x - x_P)^n
    and v the branch of y through P to order n, so u | v^2 - f."""
    x = Poly((-point.x, 1))
    v = Poly()
    for c in reversed(curve_branch(curve, point, n)):
        v = v * x + Poly((c,))
    return x**n, v


def mumford_of_divisor(curve: HyperellipticCurve, divisor: Divisor) -> MumfordClass:
    """The class of (D - deg(D) * oo), from one semi-reduced pair.

    `curve.validate_divisor` checks every point and splits D.  Then
    2w ~ 2oo reduces each ramification coefficient mod 2, and
    P + conj(P) ~ 2oo folds each x-fibre of the ordinary terms into one net
    multiplicity n, on P if n > 0 and on conj(P) otherwise.  The ordinary
    fibres compose by CRT into one pair, starting from the first fibre's own
    pair; one `cantor_add` with the ramification pair (prod (x - r), 0) over
    the odd roots is the last CRT step and the one reduction.
    """
    ramification, ordinary, _ = curve.validate_divisor(divisor)
    fibres: dict[Fraction, tuple[Fraction, int]] = {}  # x -> (|y|, net multiplicity on (x, |y|))
    for point, mult in ordinary:
        y, net = fibres.get(point.x, (abs(point.y), 0))
        fibres[point.x] = (y, net + (mult if point.y > 0 else -mult))
    pairs = [
        _fibre_pair(curve, CurvePoint(x0, y if net > 0 else -y), abs(net))
        for x0, (y, net) in fibres.items()
        if net
    ]
    u, v = pairs[0] if pairs else (ONE, Poly())
    for pair in pairs[1:]:
        u, v = _compose(curve, u, v, *pair)
    odd_roots = [curve.roots[i - 1] for i, n in ramification if n % 2]
    ramified = MumfordClass(Poly.from_roots(odd_roots), Poly())
    return cantor_add(curve, ramified, MumfordClass(u, v))


# ---------------------------------------------------------------------------
# 2-torsion


@dataclass(frozen=True)
class TwoTorsionClass:
    """A 2-torsion class in canonical subset form.

    `subset` is the canonical even subset of label indices 1..2g+2
    (cardinality <= g+1; the half holding w1 at exactly g+1).  The empty
    subset is the trivial class.
    """

    curve: HyperellipticCurve
    subset: frozenset[int]

    @property
    def is_trivial(self) -> bool:
        return not self.subset

    @property
    def k(self) -> int:
        if self.is_trivial:
            raise ValueError("the trivial class has no invariant k")
        return len(self.subset) // 2

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in sorted(self.subset))

    @property
    def mask(self) -> int:
        """The affine labels of the subset as a bit mask, bit i-1 for w_i:
        the odd affine-ramification mask of every divisor of the class, so
        a twist acts on h0 class keys by XOR."""
        top = 2 * self.curve.genus + 1
        return sum(1 << (i - 1) for i in self.subset if i <= top)

    def beta_divisor(self) -> Divisor:
        """The degree-0 writing sum_{affine w in S} w - #(affine) * oo."""
        return subset_divisor(self.curve, self.subset)

    def twist(self, divisor: Divisor) -> Divisor:
        """divisor + beta: a representative of the eta-twist, of the same
        degree, whose odd affine-ramification mask is divisor's XOR `mask`."""
        return divisor + self.beta_divisor()

    def mumford(self) -> MumfordClass:
        """Reduced Mumford form: u the product of (x - r) over the affine
        part of the subset (complemented once inside f if that part has
        g+1 points), v = 0."""
        roots = [
            self.curve.weierstrass_point(i).x
            for i in sorted(self.subset)
            if i <= 2 * self.curve.genus + 1
        ]
        u = Poly.from_roots(roots)
        if u.degree > self.curve.genus:
            u = self.curve.f.exact_div(u).monic()
        return MumfordClass(u, Poly())

    def combine(self, other: "TwoTorsionClass") -> "TwoTorsionClass":
        """Group law: canonical form of the symmetric difference."""
        if self.curve != other.curve:
            raise ValueError("classes live on different curves")
        return two_torsion_from_subset(self.curve, self.subset ^ other.subset)

    def __str__(self) -> str:
        return "trivial" if self.is_trivial else "{" + ",".join(self.labels) + "}"


def subset_divisor(curve: HyperellipticCurve, labels: Iterable[Union[int, str]]) -> Divisor:
    """sum_{affine w in S} w - #(affine) * oo for a set S of ramification
    labels, canonical or not."""
    affine = [p for p in map(curve.weierstrass_point, labels) if not p.is_infinity]
    return Divisor([(p, 1) for p in affine] + [(INFINITY, -len(affine))])


def _canonical_subset(curve: HyperellipticCurve, subset: frozenset[int]) -> frozenset[int]:
    """The side of {subset, complement} with at most g+1 labels; at exactly
    g+1 each, the side holding w1."""
    n = 2 * curve.genus + 2
    if len(subset) * 2 > n or (len(subset) * 2 == n and 1 not in subset):
        return frozenset(range(1, n + 1)) - subset
    return subset


def canonical_subsets(curve: HyperellipticCurve, k: int) -> list[tuple[int, ...]]:
    """The canonical subsets of 2k labels, 1 <= k <= (g+1)/2, in
    lexicographic order: every one below g+1 labels, and at g+1 those
    holding w1."""
    n = 2 * curve.genus + 2
    if not 1 <= 2 * k <= n // 2:
        raise ValueError(f"k must be in 1..{n // 4}")
    if 4 * k == n:
        return [(1, *c) for c in itertools.combinations(range(2, n + 1), 2 * k - 1)]
    return list(itertools.combinations(range(1, n + 1), 2 * k))


def two_torsion_from_subset(
    curve: HyperellipticCurve, labels: Iterable[Union[int, str]]
) -> TwoTorsionClass:
    """The 2-torsion class of an even set of ramification-point labels."""
    subset: set[int] = set()
    for label in labels:
        idx = curve.label_index(label)
        if idx in subset:
            raise ValueError(f"repeated Weierstrass label {label!r}")
        subset.add(idx)
    if len(subset) % 2 != 0:
        raise ValueError("2-torsion subsets must have even cardinality")
    return TwoTorsionClass(curve, _canonical_subset(curve, frozenset(subset)))


def enumerate_two_torsion(curve: HyperellipticCurve) -> list[TwoTorsionClass]:
    """All 2^{2g} - 1 nontrivial classes, each exactly once, in canonical
    form, ordered by k then lexicographically."""
    return [
        TwoTorsionClass(curve, frozenset(subset))
        for k in range(1, (curve.genus + 1) // 2 + 1)
        for subset in canonical_subsets(curve, k)
    ]

