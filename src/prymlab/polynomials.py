"""Dense univariate polynomial arithmetic over the rationals.

Everything in this package is exact over Q, so there is never a tolerance
to tune.  A polynomial is stored as integer numerators over one positive
denominator,

    p = (n_0 + n_1 x + ... + n_d x^d) / den,

index = monomial degree, with trailing zero numerators stripped and den
coprime to the content gcd(n_0, ..., n_d).  Each polynomial has exactly one
such pair, so equality and hashing compare the pair; the zero polynomial is
((), 1), of degree -1.

The ring kernels (add, subtract, multiply, divide, evaluate and expand at a
point) run on the numerators as Python ints, and each result is reduced
with one gcd; no `Fraction` is built on the way.  `coeffs`, the tuple of
`Fraction` coefficients n_i / den, is a read-only view, built on each read.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence, Union

Coefficient = Union[Fraction, int, str]


MAX_STRING_DIGITS = 4300
"""The most digits a rational read from a string may have: Python's default
limit on int-to-string conversion, so whatever is read can be written back."""

_EXPONENT = re.compile(r"[eE]([-+]?\d+)\s*$")


def as_fraction(value: Coefficient) -> Fraction:
    """Coerce ints, Fractions and ASCII 'p/q' or decimal strings to an
    exact Fraction.  A `bool` is refused rather than read as 0 or 1.  A
    string with a non-ASCII character or an underscore is refused:
    `Fraction` would read an Arabic-Indic three as 3 and '1_0' as 10.  So is
    a string whose length plus decimal exponent passes MAX_STRING_DIGITS,
    before any integer is built: '1e999999999' would take a billion
    digits.  A zero denominator is a ValueError like any malformed string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        if isinstance(value, bool):
            raise TypeError(f"not an exact rational: {value!r}")
        return Fraction(value)
    if isinstance(value, str):
        if not value.isascii() or "_" in value:
            raise ValueError(f"not an exact rational: {value!r} (use ASCII digits, no '_')")
        exponent = _EXPONENT.search(value)
        if len(value) > MAX_STRING_DIGITS or (
            exponent and len(value) + abs(int(exponent[1])) > MAX_STRING_DIGITS
        ):
            raise ValueError(f"rational too large (over {MAX_STRING_DIGITS} digits): {value[:40]!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"not an exact rational: {value!r}")


_set = object.__setattr__


def _make(nums: tuple[int, ...], den: int) -> "Poly":
    """A Poly from numerators and a denominator already in reduced form."""
    out = object.__new__(Poly)
    _set(out, "numerators", nums)
    _set(out, "denominator", den)
    return out


def _poly(nums: list[int], den: int) -> "Poly":
    """The polynomial sum nums[i]/den x^i, den != 0, reduced: trailing zeros
    stripped, then one gcd divided out of den and the numerators, signed so
    that the denominator comes out positive."""
    while nums and not nums[-1]:
        nums.pop()
    if den != 1:
        g = gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return _make(tuple(nums), den)


def _pseudo_divmod(a: "Poly", b: "Poly"):
    """Integer pseudo-division of a by b, deg a >= deg b.

    With a = A/da and b = B/db over integer A, B, returns (Q, R, s, da, db)
    such that s*A = Q*B + R and deg R < deg B.  Before each elimination step
    the working remainder and quotient are multiplied by lead(B)/gcd(c,
    lead(B)), c the coefficient to eliminate, so s divides lead(B)^e with
    e = deg a - deg b + 1.  Then a = (Q db / (s da)) b + R / (s da)."""
    dv = b.numerators
    if not dv:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(a.numerators)
    dd = len(dv) - 1
    lead = dv[-1]
    low = dv[:dd]
    quot = [0] * (len(rem) - dd)
    s = 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if not c:
            continue
        k = lead // gcd(c, lead)
        if k != 1:
            s *= k
            rem[:i] = [r * k for r in rem[:i]]
            top = i - dd + 1
            quot[top:] = [x * k for x in quot[top:]]
            c *= k
        q = c // lead
        base = i - dd
        quot[base] = q
        rem[base:i] = [r - q * d for r, d in zip(rem[base:i], low)]
    del rem[dd:]
    return quot, rem, s, a.denominator, b.denominator


def _shift_ints(poly: "Poly", x0: Fraction) -> tuple[list[int], int, int]:
    """(m, p, q) with x0 = p/q and m[i] = n[i] q^(N-1-i), where n are the
    numerators of poly over its denominator den and N = len(n): so that
    q^(N-1) den poly(X/q) = sum m[i] X^i, and poly's expansion at x0 is that
    of sum m[i] X^i at X = p, coefficient l divided by den q^(N-1-l)."""
    nums = list(poly.numerators)
    p, q = x0.numerator, x0.denominator
    if q != 1:
        qpow = 1
        for i in range(len(nums) - 1, -1, -1):
            nums[i] *= qpow
            qpow *= q
    return nums, p, q


def _synthetic_step(m: list[int], start: int, p: int) -> int:
    """Divide sum_{i >= start} m[i] X^(i-start) by (X - p) in place: the
    quotient's coefficients move to m[start+1:], and the remainder (the
    value at p) is returned and left in m[start]."""
    acc = 0
    for i in range(len(m) - 1, start - 1, -1):
        acc = acc * p + m[i]
        m[i] = acc
    return acc


class Poly:
    """Immutable dense polynomial over Q.

    `numerators` (a tuple of ints, no trailing zero) over `denominator` (an
    int > 0, coprime to the numerators' gcd) is the one stored form; see the
    module docstring.  `coeffs` is the `Fraction` view of it.  `Poly(coeffs)`
    reads each coefficient through `as_fraction`."""

    __slots__ = ("numerators", "denominator")

    numerators: tuple[int, ...]
    denominator: int

    def __init__(self, coeffs: Iterable[Coefficient] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # the lcm of reduced denominators is already coprime to the content
        den = lcm(*[c.denominator for c in cs])
        _set(self, "numerators", tuple([c.numerator * (den // c.denominator) for c in cs]))
        _set(self, "denominator", den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    def __delattr__(self, name):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as `Fraction`s, index = monomial degree: a view
        of numerators / denominator, built on each read."""
        den = self.denominator
        return tuple([Fraction(n, den) for n in self.numerators])

    # -- constructors -------------------------------------------------

    @classmethod
    def from_roots(cls, roots: Sequence[Coefficient]) -> "Poly":
        """The monic polynomial prod (x - r) over the given roots."""
        out = ONE
        for r in roots:
            r = as_fraction(r)
            out = out * _make((-r.numerator, r.denominator), r.denominator)
        return out

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at the sentinel value -1."""
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.numerators:
            return Fraction(0)
        return Fraction(self.numerators[-1], self.denominator)

    @property
    def is_monic(self) -> bool:
        return bool(self.numerators) and self.numerators[-1] == self.denominator

    # -- ring operations ----------------------------------------------

    def _add(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other over the lcm of the two denominators."""
        b, db = other.numerators, other.denominator
        if not b:
            return self
        a, da = self.numerators, self.denominator
        den = lcm(da, db)
        ka, kb = den // da, sign * (den // db)
        out = [x * ka for x in a]
        if len(out) < len(b):
            out += [0] * (len(b) - len(out))
        for i, y in enumerate(b):
            out[i] += y * kb
        return _poly(out, den)

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __neg__(self) -> "Poly":
        return _make(tuple([-n for n in self.numerators]), self.denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.numerators, other.numerators
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        nb = len(b)
        for i, x in enumerate(a):
            if x:
                out[i : i + nb] = [o + x * y for o, y in zip(out[i : i + nb], b)]
        return _poly(out, self.denominator * other.denominator)

    def __rmul__(self, other) -> "Poly":
        return self.__mul__(other)

    def scale(self, c: Coefficient) -> "Poly":
        c = as_fraction(c)
        return _poly([n * c.numerator for n in self.numerators], self.denominator * c.denominator)

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
        deg remainder < deg divisor, by integer pseudo-division."""
        if self.degree < other.degree:
            return ZERO, self
        quot, rem, s, da, db = _pseudo_divmod(self, other)
        return _poly([x * db for x in quot], s * da), _poly(rem, s * da)

    def __mod__(self, other: "Poly") -> "Poly":
        if self.degree < other.degree:
            return self
        _, rem, s, da, _ = _pseudo_divmod(self, other)
        return _poly(rem, s * da)

    def exact_div(self, other: "Poly") -> "Poly":
        """Division known to be remainder-free; raises if it is not."""
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        return _poly(list(self.numerators), self.numerators[-1])

    # -- evaluation and local expansion --------------------------------

    def evaluate(self, x0: Coefficient) -> Fraction:
        m, p, q = _shift_ints(self, as_fraction(x0))
        if not m:
            return Fraction(0)
        return Fraction(_synthetic_step(m, 0, p), self.denominator * q ** (len(m) - 1))

    def multiplicity_at(self, x0: Coefficient) -> int:
        """Vanishing order at x0 (0 if p(x0) != 0; raises on the zero poly)."""
        if self.is_zero:
            raise ValueError("the zero polynomial vanishes everywhere")
        m, p, _ = _shift_ints(self, as_fraction(x0))
        mult = 0
        while not _synthetic_step(m, mult, p):
            mult += 1
        return mult

    def taylor_at(self, x0: Coefficient, nterms: int) -> list[Fraction]:
        """First nterms coefficients of the expansion in powers of (x - x0):
        coefficient l is sum_i n_i C(i, l) p^(i-l) q^(N-1-i) / (den q^(N-1-l))
        for x0 = p/q, computed by integer synthetic division by (X - p)."""
        m, p, q = _shift_ints(self, as_fraction(x0))
        n, den = len(m), self.denominator
        out = [
            Fraction(_synthetic_step(m, l, p), den * q ** (n - 1 - l))
            for l in range(min(nterms, n))
        ]
        return out + [Fraction(0)] * (nterms - len(out))

    # -- comparison / hashing / display --------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self) -> int:
        return hash((self.numerators, self.denominator))

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        parts = []
        coeffs = self.coeffs
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
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


ZERO = _make((), 1)
ONE = _make((1,), 1)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor (Euclid; gcd(0, 0) = 0)."""
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: (g, s, t) with s*a + t*b = g and g monic.

    Only the cofactor s of a is carried through the remainder sequence;
    t = (g - s*a) / b is then one exact division (t = 0 when b = 0)."""
    r0, r1 = a, b
    s0, s1 = ONE, ZERO
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.is_zero:
        return ZERO, ZERO, ZERO
    inv = 1 / r0.leading_coefficient
    g, s = r0.scale(inv), s0.scale(inv)
    return g, s, ZERO if b.is_zero else (g - s * a).exact_div(b)
