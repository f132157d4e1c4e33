"""The Prym-canonical Clifford index and its companion invariants.

For a nontrivial 2-torsion class eta and a line bundle presented as a
divisor d with h0(d) >= 1 and h0(d twisted by eta) >= 1, the index of the
bundle is

    deg(d) - h0(d) - h0(d twisted by eta) + 1.

The curve-level invariant is the minimum over contributing bundles of
degree <= g-1.  On a split hyperelliptic curve the minimum is k-1, where 2k
is the size of eta's canonical subset of ramification points, witnessed by
the sum of the first k points of the subset; `closed_form_report` returns
that value after re-certifying the witness against the h0 oracle, while
`search_report` minimises over an explicit finite pool of effective
divisors.  A search over a pool containing all 2g+2 ramification points
with max_degree = g-1 is exact; any smaller pool yields an upper bound and
the report says so via its mode and pool fields.

A report stores the index, the lexicographic dimension pair and the
witnesses.  Its genus, k and `iota_cliff` are read from eta and the index:
`iota_cliff` is the invariant index of the associated unramified double
cover, 2*min(index, gonality-1), with gonality 2 in this hyperelliptic
scope.  Also here: secant-variety membership tests and the base-point /
point-separation / trisecant probes.  Every entry point refuses a class of
another curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curves import CurvePoint, Divisor, HyperellipticCurve
from .jacobian import TwoTorsionClass
from .riemann_roch import ClassKey, class_h0, h0, point_classes, residual_key, twisted_key

GONALITY = 2  # every curve in this package is hyperelliptic


class NonContributingError(ValueError):
    """The bundle fails h0 >= 1 on one side of the twist."""


@dataclass(frozen=True)
class GeometryProbes:
    """Raw geometric probes of the twisted canonical system."""

    base_points: tuple[CurvePoint, ...]
    unseparated_pairs: tuple[tuple[CurvePoint, CurvePoint], ...]
    trisecant_witnesses: tuple[Divisor, ...]


@dataclass(frozen=True)
class PrymReport:
    """Structured result of a curve-level index computation."""

    eta: TwoTorsionClass
    cliff_eta: int | None
    cliff_dim: tuple[int, int] | None
    witnesses: tuple[Divisor, ...]
    mode: str
    pool_description: str
    probes: GeometryProbes | None

    @property
    def genus(self) -> int:
        return self.eta.curve.genus

    @property
    def k(self) -> int:
        return self.eta.k

    @property
    def iota_cliff(self) -> int | None:
        """Minimal Clifford index over involution-invariant bundles on the
        unramified double cover attached to eta, 2 * min(index, gonality - 1),
        read from the index (the cover is never constructed); None when no
        bundle contributes."""
        if self.cliff_eta is None:
            return None
        return 2 * min(self.cliff_eta, GONALITY - 1)

    @property
    def witness(self) -> Divisor | None:
        """The first witness (minimal degree, then enumeration order), or
        None when no bundle contributes."""
        return self.witnesses[0] if self.witnesses else None


def _check_curve(curve: HyperellipticCurve, eta: TwoTorsionClass) -> None:
    """Refuse a class of another curve: its twist would mean nothing here."""
    if eta.curve != curve:
        raise ValueError(f"eta is a class of another curve: {eta.curve!r}")


def _check_eta(curve: HyperellipticCurve, eta: TwoTorsionClass) -> None:
    """Refuse a class of another curve, and the trivial class."""
    _check_curve(curve, eta)
    if eta.is_trivial:
        raise ValueError("need a nontrivial 2-torsion class")


def contributes(curve: HyperellipticCurve, eta: TwoTorsionClass, d: Divisor) -> bool:
    """deg <= g-1 with sections on both sides of the twist.  Every point of
    d is checked on the curve, whatever its degree."""
    _check_curve(curve, eta)
    curve.validate_divisor(d)
    if d.degree > curve.genus - 1:
        return False
    if h0(curve, d) < 1:
        return False
    return h0(curve, eta.twist(d)) >= 1


def clifford_of_divisor(
    curve: HyperellipticCurve, eta: TwoTorsionClass, d: Divisor
) -> int:
    """deg(d) - h0(d) - h0(twist) + 1; requires sections on both sides."""
    _check_curve(curve, eta)
    sections = h0(curve, d)
    twisted_sections = h0(curve, eta.twist(d))
    if sections < 1 or twisted_sections < 1:
        raise NonContributingError(
            f"divisor {d} does not contribute: h0 = {sections}, twisted h0 = {twisted_sections}"
        )
    return d.degree - sections - twisted_sections + 1


def _bounds_check(genus: int, value: int, exact: bool) -> None:
    if value < 0:
        raise ArithmeticError(f"negative index {value}: engine bug")
    if exact and value > (genus - 1) // 2:
        raise ArithmeticError(
            f"index {value} above the ceiling {(genus - 1) // 2}: engine bug"
        )


def closed_form_report(
    curve: HyperellipticCurve,
    eta: TwoTorsionClass,
    include_probes: bool = False,
) -> PrymReport:
    """Curve-level index k-1 with dimension pair (0, 0), witness the sum of
    the first k points of eta's canonical subset, re-certified against the
    h0 oracle before returning."""
    _check_eta(curve, eta)
    k = eta.k
    witness = Divisor.of_points(curve.weierstrass_point(i) for i in sorted(eta.subset)[:k])
    value = clifford_of_divisor(curve, eta, witness)
    if value != k - 1:
        raise ArithmeticError(
            f"witness certifies {value}, closed form says {k - 1}: engine bug"
        )
    _bounds_check(curve.genus, value, exact=True)
    return PrymReport(
        eta=eta,
        cliff_eta=value,
        cliff_dim=(0, 0),
        witnesses=(witness,),
        mode="closed_form",
        pool_description="weierstrass",
        probes=geometry_probes(curve, eta) if include_probes else None,
    )


def _normalised_pool(
    curve: HyperellipticCurve, pool: tuple[CurvePoint, ...] | list[CurvePoint] | None
) -> tuple[tuple[CurvePoint, ...], str, bool]:
    if pool is None:
        return curve.weierstrass_points, "weierstrass", True
    points = [curve.checked(p) for p in sorted(set(pool), key=CurvePoint.sort_key)]
    if not points:
        raise ValueError("search pool must be nonempty")
    covers = set(curve.weierstrass_points) <= set(points)
    return tuple(points), f"custom({len(points)} points)", covers


def search_report(
    curve: HyperellipticCurve,
    eta: TwoTorsionClass,
    pool: list[CurvePoint] | tuple[CurvePoint, ...] | None = None,
    max_degree: int | None = None,
    include_probes: bool = False,
) -> PrymReport:
    """Minimise the index over effective divisors supported on the pool.

    Candidates run over 1 <= deg <= max_degree; ties are broken by the
    lexicographic (h0 - 1, twisted h0 - 1) pair, then degree, then
    enumeration (lexicographic divisor) order.  Exact when the pool contains
    every ramification point and max_degree = g-1; an upper bound otherwise.
    A pool with no contributing bundle is reported with cliff_eta = None,
    not an exception.
    """
    _check_eta(curve, eta)
    g = curve.genus
    if max_degree is None:
        max_degree = g - 1
    if not 1 <= max_degree <= g - 1:
        raise ValueError(f"max_degree must be in 1..{g - 1}")
    points, pool_description, covers = _normalised_pool(curve, pool)
    exact = covers and max_degree == g - 1

    eta_mask = eta.mask
    best_key: tuple | None = None
    best_combos: list[tuple[CurvePoint, ...]] = []
    for degree in range(1, max_degree + 1):
        for combo, cls in point_classes(curve, points, degree):
            sections = class_h0(curve, cls)
            if sections < 1:  # 1 is in L(D) for every effective D
                raise ArithmeticError(f"h0 {sections} of an effective divisor: engine bug")
            twisted = class_h0(curve, twisted_key(curve, cls, eta_mask))
            if twisted < 1:
                continue
            value = degree - sections - twisted + 1
            key = (value, (sections - 1, twisted - 1))
            if best_key is None or key < best_key:
                best_key = key
                best_combos = [combo]
            elif key == best_key:
                best_combos.append(combo)

    if best_key is None:
        value, pair, witnesses = None, None, ()
    else:
        value, pair = best_key
        _bounds_check(g, value, exact)
        witnesses = tuple(Divisor.of_points(combo) for combo in best_combos)
        if clifford_of_divisor(curve, eta, witnesses[0]) != value:
            raise ArithmeticError("witness re-certification failed: engine bug")
    return PrymReport(
        eta=eta,
        cliff_eta=value,
        cliff_dim=pair,
        witnesses=witnesses,
        mode="search",
        pool_description=pool_description,
        probes=geometry_probes(curve, eta) if include_probes else None,
    )


def secant_membership(
    curve: HyperellipticCurve, eta: TwoTorsionClass, d: Divisor, f: int
) -> bool:
    """Does the effective divisor d, of degree e, lie on the secant variety
    of the twisted canonical system that drops f conditions?

    Tested as twisted h0(d) >= f and cross-checked against the equivalent
    condition h0(canonical + eta - d) >= g - 1 - e + f.
    """
    _check_curve(curve, eta)
    if not d.is_effective:
        raise ValueError("d must be effective")
    e = d.degree
    if not (1 <= f < e):
        raise ValueError(f"need 1 <= f < deg d = {e}")
    g = curve.genus
    direct = h0(curve, eta.twist(d)) >= f
    residual = h0(curve, eta.twist(curve.canonical_divisor() - d)) >= g - 1 - e + f
    if direct != residual:
        raise ArithmeticError("secant membership cross-check failed: engine bug")
    return direct


def min_secant_degree(
    curve: HyperellipticCurve,
    eta: TwoTorsionClass,
    pool: list[CurvePoint] | None = None,
) -> int | None:
    """Smallest e such that some effective degree-e pool divisor drops one
    condition on the twisted canonical system (twisted h0 >= 1); None if no
    such divisor exists up to degree g-1.  On a full ramification pool this
    equals index + 1 = k."""
    _check_eta(curve, eta)
    points, _, _ = _normalised_pool(curve, pool)
    eta_mask = eta.mask
    for e in range(1, curve.genus):
        for _, cls in point_classes(curve, points, e):
            if class_h0(curve, twisted_key(curve, cls, eta_mask)) >= 1:
                return e
    return None


def geometry_probes(curve: HyperellipticCurve, eta: TwoTorsionClass) -> GeometryProbes:
    """Base points, unseparated pairs and trisecant witnesses of the twisted
    canonical system, probed over the ramification points.

    base points: w with twisted h0(w) >= 1 (exactly eta's two subset points
    when k = 1, empty otherwise); unseparated pairs: (p, q) with twisted
    h0(p + q) >= 1 (nonempty iff k <= 2); trisecant witnesses: degree-3
    divisors D with h0(canonical + eta - D) = g - 3 (nonempty at k = 3).
    """
    _check_eta(curve, eta)
    g = curve.genus
    pool = curve.weierstrass_points
    eta_mask = eta.mask

    def twisted_h0(cls: ClassKey) -> int:
        return class_h0(curve, twisted_key(curve, cls, eta_mask))

    base_points = tuple(combo[0] for combo, cls in point_classes(curve, pool, 1) if twisted_h0(cls) >= 1)
    unseparated = tuple(combo for combo, cls in point_classes(curve, pool, 2) if twisted_h0(cls) >= 1)
    trisecants = tuple(
        Divisor.of_points(combo)
        for combo, cls in point_classes(curve, pool, 3)
        if twisted_h0(residual_key(curve, cls)) == g - 3
    )
    return GeometryProbes(base_points, unseparated, trisecants)
