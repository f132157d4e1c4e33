"""Square-root branch expansion over Q.

A hyperelliptic curve y^2 = f(x) has, through any affine point with y0 != 0,
a unique analytic branch y(x) with y(x0) = y0.  Expanding that branch to
finite precision is how vanishing orders at non-ramification points are
certified.  A truncated series is the tuple of its first `precision`
coefficients in powers of (x - x0); the precision is its length, carried
explicitly and never silently lost.  `curve_branch` keeps one expansion per
x-fibre of a curve, read by prefix: a pure memo of at most
`curves.POINT_MEMO_CAP` entries per curve, cleared when full.
"""

from __future__ import annotations

from fractions import Fraction

from .curves import CurvePoint, HyperellipticCurve, memo_put
from .polynomials import Coefficient, Poly, as_fraction


class BranchUndefinedError(ValueError):
    """No square-root branch through the requested point."""


def series_sqrt_branch(
    f: Poly, x0: Coefficient, y0: Coefficient, precision: int
) -> tuple[Fraction, ...]:
    """The first `precision` coefficients y_0 = y0, y_1, ... of the branch
    of y^2 = f(x) through (x0, y0), y0 != 0, in powers of (x - x0).

    Coefficient n of y^2 = f reads sum_{i=0..n} y_i y_{n-i} = f_n, so each
    y_n = (f_n - sum_{0<i<n} y_i y_{n-i}) / (2 y0) follows from the earlier
    ones, and y^2 = f mod (x - x0)^precision exactly.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    x0 = as_fraction(x0)
    y0 = as_fraction(y0)
    if y0 == 0:
        raise BranchUndefinedError("y0 = 0: ramification point, no smooth sqrt branch")
    taylor = f.taylor_at(x0, precision)
    if taylor[0] != y0 * y0:
        raise BranchUndefinedError("point (x0, y0) does not lie on y^2 = f(x)")

    y = [y0]
    inv = 1 / (2 * y0)
    for n in range(1, precision):
        y.append((taylor[n] - sum(y[i] * y[n - i] for i in range(1, n))) * inv)
    return tuple(y)


def curve_branch(curve: HyperellipticCurve, point: CurvePoint, precision: int) -> tuple[Fraction, ...]:
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
