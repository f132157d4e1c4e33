"""Dense univariate polynomial arithmetic over the rationals.

Everything in this package is computed over Q with `fractions.Fraction`
coefficients, so results are exact and there is never a tolerance to tune.
Polynomials are stored densely, coefficient index = monomial degree, with
trailing zeros stripped; the zero polynomial has an empty coefficient tuple
and degree -1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, Union

Coefficient = Union[Fraction, int, str]


def as_fraction(value: Coefficient) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Poly:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_roots(cls, roots: Sequence[Coefficient]) -> "Poly":
        """The monic polynomial prod (x - r) over the given roots."""
        out = cls((1,))
        for r in roots:
            out = out * cls((-as_fraction(r), 1))
        return out

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at the sentinel value -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def scale(self, c: Coefficient) -> "Poly":
        c = as_fraction(c)
        return Poly(tuple(c * a for a in self.coeffs))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Exact polynomial division: (quotient, remainder) with
        deg remainder < deg divisor."""
        if other.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.degree < other.degree:
            return ZERO, self
        rem = list(self.coeffs)
        dv = other.coeffs
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
        return Poly(quot), Poly(rem[:dd] if dd else ())

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        """Division known to be remainder-free; raises if it is not."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return self.scale(1 / self.coeffs[-1])

    # -- evaluation and local expansion --------------------------------

    def evaluate(self, x0: Coefficient) -> Fraction:
        x0 = as_fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def synthetic_division(self, x0: Fraction) -> tuple["Poly", Fraction]:
        """Divide by (x - x0): (quotient, remainder value)."""
        if not self.coeffs:
            return ZERO, Fraction(0)
        cs = self.coeffs
        out = [Fraction(0)] * (len(cs) - 1)
        acc = cs[-1]
        for i in range(len(cs) - 2, -1, -1):
            out[i] = acc
            acc = cs[i] + x0 * acc
        return Poly(out), acc

    def multiplicity_at(self, x0: Coefficient) -> int:
        """Vanishing order at x0 (0 if p(x0) != 0; raises on the zero poly)."""
        if self.is_zero:
            raise ValueError("the zero polynomial vanishes everywhere")
        x0 = as_fraction(x0)
        mult = 0
        cur = self
        while True:
            quot, rem = cur.synthetic_division(x0)
            if rem != 0:
                return mult
            mult += 1
            cur = quot

    def taylor_at(self, x0: Coefficient, nterms: int) -> list[Fraction]:
        """First nterms coefficients of the expansion in powers of (x - x0)."""
        x0 = as_fraction(x0)
        out: list[Fraction] = []
        cur = self
        for _ in range(nterms):
            cur, rem = cur.synthetic_division(x0)
            out.append(rem)
        return out

    # -- comparison / hashing / display --------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(f"-{body}" if c < 0 else body)
            else:
                parts.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(parts)


ZERO = Poly()
ONE = Poly((1,))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (Euclid; gcd(0, 0) = 0)."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: (g, s, t) with s*a + t*b = g and g monic."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return ZERO, ZERO, ZERO
    lead = r0.leading_coefficient
    inv = 1 / lead
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)
