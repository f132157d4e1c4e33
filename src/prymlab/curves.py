"""Hyperelliptic curves in odd-degree model, their points, and divisors.

A curve is y^2 = f(x) with f monic, squarefree of odd degree 2g+1 and split
over Q; there is a single point at infinity, which is itself a ramification
point of the degree-2 map to the x-line.  The 2g+2 ramification points (the
Weierstrass points) are labelled w1..w{2g+1} in increasing root order, with
w{2g+2} the point at infinity.  Divisors are finite formal integer
combinations of rational points.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .polynomials import Coefficient, Poly, as_fraction


@dataclass(frozen=True)
class CurvePoint:
    """A rational point: affine (x, y) or the point at infinity (x = y = None)."""

    x: Fraction | None
    y: Fraction | None

    def __post_init__(self):
        # the generated hash, computed once: points key many dict lookups
        object.__setattr__(self, "_hash", hash((self.x, self.y)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def affine(cls, x: Coefficient, y: Coefficient) -> "CurvePoint":
        return cls(as_fraction(x), as_fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @property
    def is_weierstrass(self) -> bool:
        return self.is_infinity or self.y == 0

    def conjugate(self) -> "CurvePoint":
        """Image under the involution (x, y) -> (x, -y), made once and kept as the hash is."""
        if "_conjugate" not in self.__dict__:
            conj = self if self.is_weierstrass else CurvePoint(self.x, -self.y)
            object.__setattr__(conj, "_conjugate", self)
            object.__setattr__(self, "_conjugate", conj)
        return self._conjugate

    def sort_key(self):
        if self.is_infinity:
            return (1, Fraction(0), Fraction(0))
        return (0, self.x, self.y)

    def __str__(self) -> str:
        if self.is_infinity:
            return "oo"
        return f"({self.x}, {self.y})"


INFINITY = CurvePoint(None, None)

# Bound on each per-curve memo keyed by points: the points known to lie on
# the curve, the branch expansions and the Taylor tables of `riemann_roch`.
# A full memo is cleared; its entries are pure, so that only costs work.
POINT_MEMO_CAP = 4096


def memo_put(memo: dict, key, value) -> None:
    """memo[key] = value, clearing the memo first if it holds POINT_MEMO_CAP
    entries and not this key."""
    if len(memo) >= POINT_MEMO_CAP and key not in memo:
        memo.clear()
    memo[key] = value


DivisorData = Union[
    Mapping[CurvePoint, int], Iterable[tuple[CurvePoint, int]], "Divisor", None
]


class Divisor:
    """Finite formal integer combination of curve points.

    Immutable; zero coefficients are dropped, terms are kept sorted, so equal
    divisors hash equally and all derived output is deterministic.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, data: DivisorData = None):
        acc: dict[CurvePoint, int] = {}
        items = data.items() if isinstance(data, Mapping) else (data or ())
        for point, mult in items:
            if not isinstance(mult, int):
                raise TypeError("divisor multiplicities must be integers")
            if mult:
                acc[point] = acc.get(point, 0) + mult
        terms = tuple(
            (p, n) for p, n in sorted(acc.items(), key=lambda t: t[0].sort_key()) if n
        )
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def of_point(cls, point: CurvePoint, mult: int = 1) -> "Divisor":
        return cls(((point, mult),))

    @classmethod
    def of_points(cls, points: Iterable[CurvePoint]) -> "Divisor":
        return cls((p, 1) for p in points)

    # -- queries --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[CurvePoint, int], ...]:
        return self._terms

    @property
    def degree(self) -> int:
        return sum(n for _, n in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_effective(self) -> bool:
        return all(n > 0 for _, n in self._terms)

    @property
    def support(self) -> tuple[CurvePoint, ...]:
        return tuple(p for p, _ in self._terms)

    def coefficient(self, point: CurvePoint) -> int:
        for p, n in self._terms:
            if p == point:
                return n
        return 0

    def __iter__(self) -> Iterator[tuple[CurvePoint, int]]:
        return iter(self._terms)

    # -- formal sum arithmetic -------------------------------------------

    def __add__(self, other: "Divisor") -> "Divisor":
        acc = {p: n for p, n in self._terms}
        for p, n in other._terms:
            acc[p] = acc.get(p, 0) + n
        return Divisor(acc)

    def __sub__(self, other: "Divisor") -> "Divisor":
        acc = {p: n for p, n in self._terms}
        for p, n in other._terms:
            acc[p] = acc.get(p, 0) - n
        return Divisor(acc)

    def __neg__(self) -> "Divisor":
        return Divisor(tuple((p, -n) for p, n in self._terms))

    def __mul__(self, k: int) -> "Divisor":
        if not isinstance(k, int):
            raise TypeError("divisors scale by integers only")
        return Divisor(tuple((p, k * n) for p, n in self._terms))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Divisor) and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:  # computed on first use: most divisors are never hashed
            object.__setattr__(self, "_hash", hash(self._terms))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for p, n in self._terms:
            body = str(p) if abs(n) == 1 else f"{abs(n)}*{p}"
            if not parts:
                parts.append(f"-{body}" if n < 0 else body)
            else:
                parts.append(f" - {body}" if n < 0 else f" + {body}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Divisor({self})"


class HyperellipticCurve:
    """y^2 = f(x) with f = prod (x - r_i) over distinct rationals, genus >= 2."""

    def __init__(self, roots: Sequence[Coefficient]):
        rs = sorted(as_fraction(r) for r in roots)
        if len(rs) != len(set(rs)):
            raise ValueError("duplicate roots: f must be squarefree")
        if len(rs) % 2 == 0:
            raise ValueError("need an odd number of roots (odd-degree model)")
        if len(rs) < 5:
            raise ValueError("need at least 5 roots: genus must be >= 2")
        self._roots = tuple(rs)
        self._hash = hash(self._roots)  # once: every 2-torsion class hashes its curve
        self._f = Poly.from_roots(rs)
        self._genus = (len(rs) - 1) // 2
        self._weierstrass = tuple([CurvePoint.affine(r, 0) for r in rs] + [INFINITY])
        self._label_of_point = {p: i + 1 for i, p in enumerate(self._weierstrass)}
        self._h0_cache: dict[tuple, int] = {}
        self._chain_cache: dict[int, tuple[list[int], ...]] = {}  # mask -> Bareiss pivot rows (riemann_roch)
        self._branch_cache: dict[CurvePoint, tuple[Fraction, ...]] = {}  # keyed by the point with y > 0
        self._taylor_cache: dict[int | CurvePoint, list[list[int]]] = {}
        self._on_curve: dict[CurvePoint, bool] = {}

    # -- model ------------------------------------------------------------

    @property
    def f(self) -> Poly:
        return self._f

    @property
    def genus(self) -> int:
        return self._genus

    @property
    def roots(self) -> tuple[Fraction, ...]:
        return self._roots

    @property
    def infinity(self) -> CurvePoint:
        return INFINITY

    # -- points -------------------------------------------------------------

    def point(self, x: Coefficient, y: Coefficient) -> CurvePoint:
        """The affine point (x, y); rejected unless y^2 = f(x) exactly."""
        return self.checked(CurvePoint.affine(x, y))

    def checked(self, point: CurvePoint) -> CurvePoint:
        """The point itself; a ValueError unless it lies on the curve.  The
        one place a point off the curve is refused."""
        if not self.contains(point):
            raise ValueError(f"point {point} is not on the curve y^2 = f(x)")
        return point

    def contains(self, point: CurvePoint) -> bool:
        """y^2 = f(x) exactly.  Points that pass are remembered through
        `memo_put`; a point that fails is evaluated again on every call."""
        if point.is_infinity or point in self._on_curve:
            return True
        if point.y * point.y != self._f.evaluate(point.x):
            return False
        memo_put(self._on_curve, point, True)
        return True

    @property
    def weierstrass_points(self) -> tuple[CurvePoint, ...]:
        """All 2g+2 ramification points, in label order (infinity last)."""
        return self._weierstrass

    @property
    def weierstrass_labels(self) -> tuple[str, ...]:
        return tuple(f"w{i}" for i in range(1, 2 * self._genus + 3))

    def weierstrass_point(self, label: Union[int, str]) -> CurvePoint:
        """Point for a label index 1..2g+2 or string 'w1'..'w{2g+2}'."""
        idx = self.label_index(label)
        return self._weierstrass[idx - 1]

    def label_index(self, label: Union[int, str]) -> int:
        if isinstance(label, str):
            if not re.fullmatch(r"w[1-9][0-9]*", label):
                raise ValueError(f"bad Weierstrass label {label!r}")
            idx = int(label[1:])
        elif isinstance(label, int) and not isinstance(label, bool):
            idx = label
        else:
            raise ValueError(f"bad Weierstrass label {label!r}")
        if not 1 <= idx <= 2 * self._genus + 2:
            raise ValueError(f"Weierstrass label out of range: {label!r}")
        return idx

    def weierstrass_index(self, point: CurvePoint) -> int | None:
        """Label index 1..2g+2 if the point is one of the Weierstrass points."""
        return self._label_of_point.get(point)

    def label_of(self, point: CurvePoint) -> str | None:
        """Label 'wi' if the point is one of the Weierstrass points."""
        idx = self.weierstrass_index(point)
        return None if idx is None else f"w{idx}"

    # -- distinguished divisors ----------------------------------------------

    def canonical_divisor(self) -> Divisor:
        """(2g-2) times the point at infinity."""
        return Divisor.of_point(INFINITY, 2 * self._genus - 2)

    def pencil_divisor(self) -> Divisor:
        """The degree-2 pencil: 2 times the point at infinity."""
        return Divisor.of_point(INFINITY, 2)

    def validate_divisor(
        self, divisor: Divisor
    ) -> tuple[list[tuple[int, int]], list[tuple[CurvePoint, int]], int]:
        """D split into (label index, n) pairs at the affine Weierstrass
        points, (point, n) terms at the ordinary points, both in divisor
        order, and the coefficient of oo.  Each point is checked once: a
        Weierstrass point by its label, any other by `checked`."""
        ramification, ordinary, n_inf = [], [], 0
        for p, n in divisor:
            idx = self._label_of_point.get(p)
            if p.is_infinity:
                n_inf = n
            elif idx is not None:
                ramification.append((idx, n))
            else:
                ordinary.append((self.checked(p), n))
        return ramification, ordinary, n_inf

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, HyperellipticCurve) and self._roots == other._roots

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"HyperellipticCurve(genus={self._genus}, roots={[str(r) for r in self._roots]})"


@lru_cache(maxsize=None)
def standard_curve(genus: int) -> HyperellipticCurve:
    """The demonstration curve with roots 1, 2, ..., 2g+1.

    Interned: repeated calls return the same instance, so its pure h0 memo
    table is shared across callers.
    """
    if genus < 2:
        raise ValueError("genus must be >= 2")
    return HyperellipticCurve(range(1, 2 * genus + 2))


@lru_cache(maxsize=None)
def curve_with_marked_point(genus: int) -> tuple[HyperellipticCurve, CurvePoint]:
    """A curve of the given genus with a known non-ramification rational point.

    Roots are the pairs +-1..+-g plus one signed square s, chosen so that
    f(0) = s_sign * s * (g!)^2 is a perfect square; the marked point is
    (0, m*g!) with m^2 = |s|.  Handy for search pools and randomized checks
    that must exercise ordinary (non-ramification) points.
    """
    if genus < 2:
        raise ValueError("genus must be >= 2")
    m = max(3, math.isqrt(genus) + 1)
    square = m * m
    last_root = square if genus % 2 == 1 else -square
    roots = [a for i in range(1, genus + 1) for a in (i, -i)] + [last_root]
    curve = HyperellipticCurve(roots)
    point = curve.point(0, m * math.factorial(genus))
    return curve, point
