"""prymlab: exact invariants of split hyperelliptic curves with a 2-torsion twist.

The package computes, in exact rational arithmetic, Riemann-Roch spaces and
their dimensions, divisor-class arithmetic in Mumford form, the full
2-torsion subgroup as combinatorics of ramification-point subsets, the
twisted (Prym-canonical) Clifford index and dimension with certified
witnesses, secant-variety probes, rational normal scroll types, and the
resolution-shape parameters of the embedded twisted canonical curve.

Everything is deterministic: no floating point, no tolerances, no
randomness outside seeded verification checks.
"""

from .curves import (
    INFINITY,
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    curve_with_marked_point,
    standard_curve,
)
from .jacobian import (
    MumfordClass,
    TwoTorsionClass,
    cantor_add,
    cantor_identity,
    cantor_negate,
    enumerate_two_torsion,
    mumford_of_divisor,
    mumford_of_point,
    two_torsion_from_subset,
    validate_mumford,
)
from .linalg import kernel_basis, matrix_rank
from .polynomials import Poly, poly_gcd, poly_xgcd
from .prym import (
    GeometryProbes,
    NonContributingError,
    PrymReport,
    clifford_of_divisor,
    closed_form_report,
    contributes,
    geometry_probes,
    min_secant_degree,
    search_report,
    secant_membership,
)
from .riemann_roch import (
    CurveFunction,
    RRSpace,
    h0,
    is_linearly_equivalent,
    riemann_roch_space,
    valuation,
)
from .scroll import (
    ScrollMismatchError,
    ScrollReport,
    dj_sequence,
    park_parameters,
    scroll_report,
)
from .series import BranchUndefinedError, series_sqrt_branch
from .verify import VerificationCheck, VerificationSuite, run_suite

__version__ = "0.1.0"

__all__ = [
    "INFINITY",
    "BranchUndefinedError",
    "CurveFunction",
    "CurvePoint",
    "Divisor",
    "GeometryProbes",
    "HyperellipticCurve",
    "MumfordClass",
    "NonContributingError",
    "Poly",
    "PrymReport",
    "RRSpace",
    "ScrollMismatchError",
    "ScrollReport",
    "TwoTorsionClass",
    "VerificationCheck",
    "VerificationSuite",
    "cantor_add",
    "cantor_identity",
    "cantor_negate",
    "clifford_of_divisor",
    "closed_form_report",
    "contributes",
    "curve_with_marked_point",
    "dj_sequence",
    "enumerate_two_torsion",
    "geometry_probes",
    "h0",
    "is_linearly_equivalent",
    "kernel_basis",
    "matrix_rank",
    "min_secant_degree",
    "mumford_of_divisor",
    "mumford_of_point",
    "park_parameters",
    "poly_gcd",
    "poly_xgcd",
    "riemann_roch_space",
    "run_suite",
    "scroll_report",
    "search_report",
    "secant_membership",
    "series_sqrt_branch",
    "standard_curve",
    "two_torsion_from_subset",
    "valuation",
    "validate_mumford",
]
