"""Scroll type and syzygy parameters of the twisted canonical image.

For k >= 2 the twisted canonical system is base point free and its image in
P^{g-2} sits on a rational normal scroll swept out by the spans of the
degree-2 pencil fibres.  The scroll type is read off the sequence

    d_j = h0(canonical + eta - j * pencil) - h0(canonical + eta - (j+1) * pencil),

via e_i = #{j : d_j >= i} - 1, and must come out as (g-1-k, k-2); the module
asserts that equality on every run, so any drift in the h0 engine surfaces
as a hard error rather than a wrong report.  Every h0 along the pencil comes
from one elimination (`riemann_roch.pencil_h0s`, pole-ordered columns), and
its first value is certified by Riemann-Roch as g - 1 + h0(beta), one `h0`
of another matrix.  For k >= 3 (the very-ample range) the scroll
determines the syzygies of the embedded curve through the factorization
type (m, b) = (g-k-1, 2k): the resolution shape parameters

    nu = ceil((b-1) / (m+b-g-1)),   p = nu*(m+b-g-1) - b + 1

and Castelnuovo-Mumford regularity nu + 1 are pure arithmetic in (g, k).
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import HyperellipticCurve
from .jacobian import TwoTorsionClass
from .prym import check_eta
from .riemann_roch import h0, pencil_h0s, twisted_key


class ScrollMismatchError(ArithmeticError):
    """The d_j-derived scroll type disagrees with the closed form: a bug."""


@dataclass(frozen=True)
class ScrollReport:
    genus: int
    k: int
    d_sequence: tuple[int, ...]
    e1: int
    e2: int
    factorization_type: tuple[int, int]  # (m, b) = (g-k-1, 2k)
    nu: int | None
    p: int | None
    regularity: int | None


def dj_sequence(curve: HyperellipticCurve, eta: TwoTorsionClass) -> tuple[int, ...]:
    """Successive h0 drops of the twisted canonical class along the pencil.

    Requires k >= 2 (for k = 1 the system has base points and the scroll
    construction does not apply).  The values h0(canonical + eta - j * pencil)
    for j = 0, 1, ..., up to the first 0 or to j = g-1 (degree 0) at the
    latest, come from one elimination of the j = 0 condition rows, keyed by
    K's key twisted by eta (`pencil_h0s`); the first value must equal
    g - 1 + h0(beta) by Riemann-Roch, as K - (K + eta) = -beta ~ beta.  The
    values must start at g-1 and end at 0, d_0 must be 2, and every drop must
    be 1 or 2: while sections are left, the moving pencil removes at least
    one at each step.  So the drops sum to g-1, and a violation raises, since
    it can only come from an engine defect.
    """
    check_eta(curve, eta)
    if eta.k < 2:
        raise ValueError("k = 1: the twisted canonical system has base points")
    g = curve.genus
    values = pencil_h0s(curve, twisted_key(curve, (0, (), 2 * g - 2), eta.mask))
    certified = g - 1 + h0(curve, eta.beta_divisor())
    if values[0] != certified:
        raise ScrollMismatchError(f"h0 values {values} along the pencil start off h0 = {certified}")
    drops = tuple(a - b for a, b in zip(values, values[1:]))
    if values[0] != g - 1 or values[-1] != 0 or drops[0] != 2 or not set(drops) <= {1, 2}:
        raise ScrollMismatchError(f"h0 values {values} along the pencil are not a scroll profile")
    return drops


def park_parameters(genus: int, k: int) -> tuple[int, int, int]:
    """(nu, p, regularity) for the embedded twisted canonical curve.

    Pure arithmetic in (g, k); defined for 3 <= k <= (g+1)/2, the range in
    which the system is very ample.  nu is 5, 4, 3 for k = 3, 4, >= 5.
    """
    if k < 3:
        raise ValueError("k < 3: the twisted canonical system is not very ample")
    if k > (genus + 1) // 2:
        raise ValueError(f"k = {k} exceeds the ceiling {(genus + 1) // 2} for genus {genus}")
    m = genus - k - 1
    b = 2 * k
    denom = m + b - genus - 1  # = k - 2
    nu = -((b - 1) // -denom)  # ceil((b-1)/denom)
    p = nu * denom - b + 1
    return nu, p, nu + 1


def scroll_report(curve: HyperellipticCurve, eta: TwoTorsionClass) -> ScrollReport:
    """Full scroll/syzygy report; syzygy fields are None for k = 2."""
    drops = dj_sequence(curve, eta)
    g, k = curve.genus, eta.k
    e1 = sum(1 for d in drops if d >= 1) - 1
    e2 = sum(1 for d in drops if d >= 2) - 1
    if (e1, e2) != (g - 1 - k, k - 2):
        raise ScrollMismatchError(f"drop-derived type {(e1, e2)} != closed form {(g - 1 - k, k - 2)}")
    if k >= 3:
        nu, p, regularity = park_parameters(g, k)
    else:
        nu = p = regularity = None
    return ScrollReport(
        genus=g,
        k=k,
        d_sequence=drops,
        e1=e1,
        e2=e2,
        factorization_type=(g - k - 1, 2 * k),
        nu=nu,
        p=p,
        regularity=regularity,
    )
