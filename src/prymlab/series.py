"""Truncated power series over Q and square-root branch expansion.

A hyperelliptic curve y^2 = f(x) has, through any affine point with y0 != 0,
a unique analytic branch y(x) with y(x0) = y0.  Expanding that branch to
finite precision is how vanishing orders at non-ramification points are
certified; precision is carried explicitly and never silently lost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Coefficient, Poly, as_fraction


class BranchUndefinedError(ValueError):
    """No square-root branch through the requested point."""


@dataclass(frozen=True)
class TruncatedSeries:
    """Power series in (x - center), truncated to a known precision.

    `coeffs` holds exactly `precision` coefficients; binary operations
    truncate to the smaller operand precision.
    """

    center: Fraction
    coeffs: tuple[Fraction, ...]

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    @classmethod
    def from_poly(cls, poly: Poly, center: Coefficient, precision: int) -> "TruncatedSeries":
        center = as_fraction(center)
        return cls(center, tuple(poly.taylor_at(center, precision)))

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self.precision:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.center, self.coeffs[:precision])

    def _check_center(self, other: "TruncatedSeries") -> None:
        if self.center != other.center:
            raise ValueError("series centered at different points")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_center(other)
        n = min(self.precision, other.precision)
        return TruncatedSeries(
            self.center, tuple(self.coeffs[i] + other.coeffs[i] for i in range(n))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_center(other)
        n = min(self.precision, other.precision)
        out = [Fraction(0)] * n
        for i, a in enumerate(self.coeffs[:n]):
            if a:
                for j in range(n - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncatedSeries(self.center, tuple(out))

    def scale(self, c: Coefficient) -> "TruncatedSeries":
        c = as_fraction(c)
        return TruncatedSeries(self.center, tuple(c * a for a in self.coeffs))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        if self.precision == 0 or self.coeffs[0] == 0:
            raise ZeroDivisionError("series is not a unit")
        inv0 = 1 / self.coeffs[0]
        out = [inv0] + [Fraction(0)] * (self.precision - 1)
        for k in range(1, self.precision):
            acc = Fraction(0)
            for i in range(1, k + 1):
                if self.coeffs[i]:
                    acc += self.coeffs[i] * out[k - i]
            out[k] = -acc * inv0
        return TruncatedSeries(self.center, tuple(out))

    def order(self) -> int | None:
        """Index of the first nonzero coefficient, or None if all retained
        coefficients vanish."""
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        return None


def series_sqrt_branch(
    f: Poly, x0: Coefficient, y0: Coefficient, precision: int
) -> TruncatedSeries:
    """Expand the branch of y^2 = f(x) through (x0, y0), y0 != 0.

    Newton iteration on y -> (y + f/y)/2, doubling the working precision at
    each of the ceil(log2(precision)) steps, so the result satisfies
    y(x0) = y0 and y^2 = f mod (x - x0)^precision exactly.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    x0 = as_fraction(x0)
    y0 = as_fraction(y0)
    if y0 == 0:
        raise BranchUndefinedError("y0 = 0: ramification point, no smooth sqrt branch")
    if f.evaluate(x0) != y0 * y0:
        raise BranchUndefinedError("point (x0, y0) does not lie on y^2 = f(x)")

    f_series = TruncatedSeries.from_poly(f, x0, precision)
    cur = TruncatedSeries(x0, (y0,))
    steps = (precision - 1).bit_length()  # ceil(log2(precision))
    prec = 1
    for _ in range(steps):
        prec = min(2 * prec, precision)
        lifted = TruncatedSeries(x0, cur.coeffs + (Fraction(0),) * (prec - cur.precision))
        cur = (lifted + f_series.truncate(prec) * lifted.inverse()).scale(Fraction(1, 2))
    return cur
