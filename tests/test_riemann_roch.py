"""The Riemann-Roch engine: valuations, spaces, dimensions, equivalence."""

import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from prymlab import (
    INFINITY,
    CurveFunction,
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    Poly,
    contributes,
    curve_with_marked_point,
    curves,
    enumerate_two_torsion,
    geometry_probes,
    h0,
    is_linearly_equivalent,
    mumford_of_divisor,
    mumford_of_point,
    riemann_roch,
    riemann_roch_space,
    search_report,
    series_sqrt_branch,
    standard_curve,
    two_torsion_from_subset,
    valuation,
)
from prymlab.riemann_roch import class_h0, class_key, pencil_h0s, twisted_key
from prymlab.serialize import point_from_dict
from support import (
    gauss_jordan_oracle,
    marked_curves,
    pencil_values_oracle,
    random_weierstrass_divisor,
    shifted_marked_curve,
    space_matrix_oracle,
    weierstrass_h0_oracle,
)

Y = CurveFunction.make(Poly(), Poly((1,)), Poly((1,)))


def test_valuation_of_y_at_infinity():
    # deg f = 5 at genus 2
    assert valuation(standard_curve(2), Y, INFINITY) == -5


def test_valuation_of_y_at_ramification_point():
    c = standard_curve(2)
    assert valuation(c, Y, c.weierstrass_points[0]) == 1


def test_valuation_of_x_at_ordinary_point():
    # x - x0 vanishes to order exactly 1 where y0 != 0 (nonzero linear term
    # in the branch expansion).
    c, marked = curve_with_marked_point(2)
    fn = CurveFunction.make(Poly((-marked.x, 1)), Poly(), Poly((1,)))
    assert valuation(c, fn, marked) == 1
    # while at a ramification point x - r has valuation 2
    w = c.weierstrass_points[0]
    fn_w = CurveFunction.make(Poly((-w.x, 1)), Poly(), Poly((1,)))
    assert valuation(c, fn_w, w) == 2


def test_valuation_cancellation_at_ordinary_point():
    # a + b*y built to cancel one series term: a = -y0 constant, b = 1 gives
    # a function vanishing at the marked point; order certified by series.
    c, marked = curve_with_marked_point(2)
    fn = CurveFunction.make(Poly((-marked.y,)), Poly((1,)), Poly((1,)))
    v = valuation(c, fn, marked)
    assert v >= 1
    # the conjugate point sees no cancellation
    assert valuation(c, fn, marked.conjugate()) == 0


@pytest.mark.parametrize("curve, marked", marked_curves((2, 3, 4)))
def test_valuations_at_a_conjugate_pair_sum_to_the_norm_order(curve, marked):
    # phi * conj(phi) = (a^2 - b^2 f) / den^2 is a function of x, so
    # ord_P(phi) + ord_conj(P)(phi) = mult_x0(a^2 - b^2 f) - 2 mult_x0(den).
    # Random numerators are built to cancel the branch through P or conj(P)
    # to order k, so the orders reach past the first series term.
    rng = random.Random(f"valuation:{curve.genus}:{marked.x}")
    x0 = marked.x
    t = Poly((-x0, 1))
    branch = series_sqrt_branch(curve.f, x0, marked.y, 6)

    def rand_poly(max_degree):
        n = rng.randint(0, max_degree + 1)  # 0 gives the zero polynomial
        return Poly([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])

    checked = 0
    for _ in range(150):
        k = rng.randint(0, 5)
        sign = rng.choice((1, -1))  # cancel along P or along conj(P)
        ybar = sum((Poly((c,)) * t**s for s, c in enumerate(branch[:k])), Poly())
        b = rand_poly(2)
        a = Poly((-sign,)) * b * ybar + t**k * rand_poly(2)
        den = t ** rng.randint(0, 3) * Poly((rng.randint(-5, 5), 1)) ** rng.randint(0, 1)
        if a.is_zero and b.is_zero:
            continue
        fn = CurveFunction.make(a, b, den)
        norm = fn.a * fn.a - fn.b * fn.b * curve.f
        expected = norm.multiplicity_at(x0) - 2 * fn.den.multiplicity_at(x0)
        assert valuation(curve, fn, marked) + valuation(curve, fn, marked.conjugate()) == expected, fn
        checked += 1
    assert checked > 100


def test_valuation_rejects_zero_function():
    with pytest.raises(ValueError):
        valuation(standard_curve(2), CurveFunction.make(Poly(), Poly(), Poly((1,))), INFINITY)


def test_pencil_space_basis():
    c = standard_curve(2)
    space = riemann_roch_space(c, c.pencil_divisor())
    assert space.dimension == 2
    assert [str(b) for b in space.basis] == ["1", "x"]


def test_canonical_dimension_is_genus():
    for g in (2, 3, 4, 5):
        c = standard_curve(g)
        assert h0(c, c.canonical_divisor()) == g


def test_three_ramification_points():
    # deg D = 3 at genus 2: Riemann-Roch gives 3 - 2 + 1 + h0(K - D), and
    # h0(K - D) = 0 because deg(K - D) = -1; so the dimension is 2.
    c = standard_curve(2)
    D = Divisor.of_points(c.weierstrass_points[:3])
    assert h0(c, D) == 2


def test_pole_bound_excludes_y():
    # L(3*oo) at genus 2 is still {1, x}: y has a pole of order 5.
    c = standard_curve(2)
    assert h0(c, Divisor.of_point(INFINITY, 3)) == 2


def test_single_point_and_negative_divisor():
    c = standard_curve(3)
    w = c.weierstrass_points[0]
    assert h0(c, Divisor.of_point(w)) == 1
    assert h0(c, -Divisor.of_point(w)) == 0


def test_equivalence_examples():
    c = standard_curve(2)
    w = c.weierstrass_points
    assert is_linearly_equivalent(c, 2 * Divisor.of_point(w[0]), c.pencil_divisor())
    assert not is_linearly_equivalent(c, Divisor.of_point(w[0]), Divisor.of_point(w[1]))
    # nontriviality of the 2-torsion class O(w1 + w2 - w3 - w4)
    assert not is_linearly_equivalent(
        c, Divisor.of_points(w[0:2]), Divisor.of_points(w[2:4])
    )
    # degree mismatch is never equivalent
    assert not is_linearly_equivalent(c, Divisor.of_point(w[0]), c.pencil_divisor())


def test_riemann_roch_identity_randomized():
    for g in (2, 3, 4):
        c = standard_curve(g)
        K = c.canonical_divisor()
        rng = random.Random(1000 + g)
        for _ in range(300):
            d = random_weierstrass_divisor(rng, c)
            assert h0(c, d) - h0(c, K - d) == d.degree - g + 1


def test_riemann_roch_identity_with_ordinary_points():
    for g in (2, 3):
        c, marked = curve_with_marked_point(g)
        K = c.canonical_divisor()
        pts = list(c.weierstrass_points) + [marked, marked.conjugate()]
        rng = random.Random(2000 + g)
        for _ in range(150):
            support = rng.sample(pts, k=rng.randint(1, 4))
            d = Divisor((p, rng.randint(-2, 2)) for p in support)
            assert h0(c, d) - h0(c, K - d) == d.degree - g + 1


def test_agrees_with_counting_oracle():
    # Independent cross-check: the parity-counting formula for divisors
    # supported on ramification points (see support.weierstrass_h0_oracle).
    for g in (2, 3, 4):
        c = standard_curve(g)
        rng = random.Random(3000 + g)
        for _ in range(250):
            d = random_weierstrass_divisor(rng, c)
            assert h0(c, d) == weierstrass_h0_oracle(c, d), str(d)


# Non-integer roots: ramification Taylor rows at x0 = p/q with q > 1.  Two
# roots share a numerator, so rows that dropped a power of q would collide.
FRACTIONAL_ROOTS = ("-3/2", "-1/3", "0", "1/3", "1/2", "5/4", "3")


def test_fractional_roots_agree_with_counting_oracle():
    c = HyperellipticCurve(FRACTIONAL_ROOTS)
    K = c.canonical_divisor()
    rng = random.Random(3100)
    for _ in range(250):
        support = rng.sample(c.weierstrass_points, k=rng.randint(1, 5))
        d = Divisor((p, rng.choice((-4, -3, -2, -1, 1, 2, 3))) for p in support)
        assert h0(c, d) == weierstrass_h0_oracle(c, d), str(d)
        assert riemann_roch_space(c, d).dimension == weierstrass_h0_oracle(c, d), str(d)
        assert h0(c, d) - h0(c, K - d) == d.degree - c.genus + 1


def test_fractional_roots_riemann_roch_with_ordinary_points():
    c, marked = shifted_marked_curve()
    K = c.canonical_divisor()
    pts = list(c.weierstrass_points) + [marked, marked.conjugate()]
    rng = random.Random(3200)
    for _ in range(150):
        support = rng.sample(pts, k=rng.randint(1, 4))
        d = Divisor((p, rng.randint(-2, 3)) for p in support)
        assert h0(c, d) - h0(c, K - d) == d.degree - c.genus + 1
        space = riemann_roch_space(c, d)
        assert space.dimension == h0(c, d)
        probe = set(d.support) | {p.conjugate() for p in d.support} | {INFINITY}
        for fn in space.basis:
            for p in probe:
                assert valuation(c, fn, p) >= -d.coefficient(p)


def test_basis_respects_divisor_bounds():
    c, marked = curve_with_marked_point(2)
    pts = list(c.weierstrass_points) + [marked, marked.conjugate()]
    rng = random.Random(44)
    for _ in range(40):
        support = rng.sample(pts, k=rng.randint(1, 3))
        d = Divisor((p, rng.randint(-2, 3)) for p in support)
        space = riemann_roch_space(c, d)
        probe = set(d.support) | {p.conjugate() for p in d.support} | {INFINITY}
        for fn in space.basis:
            for p in probe:
                assert valuation(c, fn, p) >= -d.coefficient(p)


def test_monotonicity_under_adding_points():
    c = standard_curve(3)
    rng = random.Random(55)
    pts = list(c.weierstrass_points)
    for _ in range(120):
        d = random_weierstrass_divisor(rng, c)
        p = rng.choice(pts)
        base = h0(c, d)
        assert base <= h0(c, d + Divisor.of_point(p)) <= base + 1


def test_special_divisors_are_pencil_multiples():
    # Structure of special linear systems here: strip base points and what
    # remains is r copies of the degree-2 pencil.
    import itertools

    for g in (2, 3):
        c = standard_curve(g)
        pencil = c.pencil_divisor()
        for degree in range(1, g):
            for combo in itertools.combinations_with_replacement(c.weierstrass_points, degree):
                d = Divisor.of_points(combo)
                r = h0(c, d) - 1
                stripped = d
                while True:
                    val = h0(c, stripped)
                    base = next(
                        (p for p in stripped.support
                         if h0(c, stripped - Divisor.of_point(p)) == val),
                        None,
                    )
                    if base is None:
                        break
                    stripped = stripped - Divisor.of_point(base)
                assert stripped.degree == 2 * r
                assert is_linearly_equivalent(c, stripped, r * pencil)


def test_h0_depends_only_on_class_representative():
    # moving a pencil relation through the divisor must not change h0
    c = standard_curve(3)
    w = c.weierstrass_points
    d = Divisor.of_points(w[:3])
    shifted = d + 2 * Divisor.of_point(w[0]) - c.pencil_divisor()
    assert d != shifted
    assert h0(c, d) == h0(c, shifted)


def test_rr_space_of_empty_divisor():
    c = standard_curve(2)
    space = riemann_roch_space(c, Divisor())
    assert space.dimension == 1
    assert str(space.basis[0]) == "1"


def test_rr_space_rejects_points_off_curve():
    c = standard_curve(2)
    fake = CurvePoint.affine(1, 7)
    with pytest.raises(ValueError):
        riemann_roch_space(c, Divisor.of_point(fake))


@pytest.mark.parametrize("bad", [(Fraction(1, 3), 5), (10, 0)], ids=["ordinary", "on-x-axis"])
@pytest.mark.parametrize(
    "entry",
    [
        "h0-cold",
        "h0-warm",
        "riemann_roch_space",
        "mumford_of_divisor",
        "is_linearly_equivalent",
        "is_linearly_equivalent-cancelling",
        "is_linearly_equivalent-unequal-degrees",
        "contributes-above-g-1",
        "valuation",
        "mumford_of_point",
        "search_report-custom-pool",
        "point_from_dict",
        "curve.point",
    ],
)
def test_off_curve_points_rejected_everywhere(bad, entry):
    marked_curve, marked = curve_with_marked_point(3)
    c = HyperellipticCurve(marked_curve.roots)  # a fresh, empty memo
    rest = Divisor(((c.weierstrass_point("w1"), 1), (marked, 2), (INFINITY, -1)))
    p = Divisor.of_point(CurvePoint.affine(*bad))
    d = rest + p
    if entry == "h0-warm":
        h0(c, rest)
        assert c._h0_cache
    call = {
        "h0-cold": lambda: h0(c, d),
        "h0-warm": lambda: h0(c, d),
        "riemann_roch_space": lambda: riemann_roch_space(c, d),
        "mumford_of_divisor": lambda: mumford_of_divisor(c, d),
        "is_linearly_equivalent": lambda: is_linearly_equivalent(c, d, rest + Divisor.of_point(INFINITY)),
        # the point cancels in d - d, or the degrees differ, before any h0
        "is_linearly_equivalent-cancelling": lambda: is_linearly_equivalent(c, d, d),
        "is_linearly_equivalent-unequal-degrees": lambda: is_linearly_equivalent(c, p, Divisor()),
        # degree 3 > g - 1 = 2: no h0 is needed to answer
        "contributes-above-g-1": lambda: contributes(c, two_torsion_from_subset(c, ["w1", "w2"]), 3 * p),
        "valuation": lambda: valuation(c, Y, p.support[0]),
        "mumford_of_point": lambda: mumford_of_point(c, p.support[0]),
        "search_report-custom-pool": lambda: search_report(
            c, two_torsion_from_subset(c, ["w1", "w2"]), pool=[marked, p.support[0]]
        ),
        "point_from_dict": lambda: point_from_dict({"x": str(bad[0]), "y": str(bad[1])}, c),
        "curve.point": lambda: c.point(*bad),
    }[entry]
    with pytest.raises(ValueError, match=r"^point \(.*\) is not on the curve y\^2 = f\(x\)$"):
        call()


def test_memo_cache_is_pure():
    c = standard_curve(2)
    d = Divisor.of_points(c.weierstrass_points[:3])
    first = h0(c, d)
    assert h0(c, d) == first
    assert c._h0_cache[class_key(c, d)] == first


def _class_key_divisors(rng, curve, marked, count):
    """Seeded divisors with even and negative ramification coefficients, odd
    sets larger than g half of the time, and the marked point and its
    conjugate."""
    g = curve.genus
    affine = list(curve.weierstrass_points[:-1])
    out = []
    for i in range(count):
        if i % 2:
            support = rng.sample(affine, rng.randint(g + 1, 2 * g + 1))
            terms = [(w, rng.choice((-3, -1, 1, 3))) for w in support]
        else:
            support = rng.sample(affine, rng.randint(1, 2 * g + 1))
            terms = [(w, rng.choice((-2, -1, 1, 2, 3))) for w in support]
        terms += [(marked, rng.randint(-2, 2)), (marked.conjugate(), rng.randint(-2, 2))]
        affine_degree = sum(n for _, n in terms)
        terms.append((INFINITY, rng.randint(-1, 2 * g) - affine_degree))
        out.append(Divisor(terms))
    return out


@pytest.mark.parametrize("genus", [3, 4])
def test_class_key_h0_matches_unkeyed_solve(genus):
    marked_curve, marked = curve_with_marked_point(genus)
    c = HyperellipticCurve(marked_curve.roots)  # a fresh, empty memo
    divisors = _class_key_divisors(random.Random(f"class-key:{genus}"), c, marked, 24)
    expected = [riemann_roch_space(c, d).dimension for d in divisors]
    assert any(bin(class_key(c, d)[0]).count("1") < sum(n % 2 for p, n in d if p.y == 0) for d in divisors)
    cold = []
    for d in divisors:
        c._h0_cache.clear()
        cold.append(h0(c, d))
    assert cold == expected
    for d in divisors:
        h0(c, d)
    entries = len(c._h0_cache)
    assert [h0(c, d) for d in divisors] == expected
    assert len(c._h0_cache) == entries  # every lookup was a hit


def test_class_key_is_shared_by_equivalent_divisors():
    c, marked = curve_with_marked_point(3)
    w = c.weierstrass_points
    d = Divisor(((w[0], 1), (w[3], -1), (marked, 2), (INFINITY, 1)))
    pencil = c.pencil_divisor()
    div_y = Divisor.of_points(w[:-1]) - Divisor.of_point(INFINITY, 2 * c.genus + 1)
    key = class_key(c, d)
    assert class_key(c, d + 2 * Divisor.of_point(w[2]) - pencil) == key
    assert class_key(c, d - div_y) == key
    assert bin(key[0]).count("1") <= c.genus


@pytest.mark.parametrize("genus", [3, 4])
def test_twisted_key_matches_divisor_keys(genus):
    c, marked = curve_with_marked_point(genus)
    etas = enumerate_two_torsion(c)
    divisors = _class_key_divisors(random.Random(f"derived-keys:{genus}"), c, marked, 12)
    for i, d in enumerate(divisors):
        eta = etas[(7 * i) % len(etas)]
        key = class_key(c, d)
        assert twisted_key(c, key, eta.mask) == class_key(c, eta.twist(d))


def test_warm_class_key_still_rejects_off_curve_ramification_point():
    c = HyperellipticCurve(range(1, 8))
    d = Divisor.of_points(c.weierstrass_points[:2])
    h0(c, d)
    bad = d + Divisor(((CurvePoint.affine(10, 0), 2), (INFINITY, -2)))
    with pytest.raises(ValueError):
        h0(c, bad)


@pytest.mark.parametrize("genus", [4, 5])
def test_pencil_h0s_match_the_oracle_on_every_class(genus):
    c = standard_curve(genus)
    canonical = c.canonical_divisor()
    for eta in enumerate_two_torsion(c):
        if eta.k >= 2:
            base = eta.twist(canonical)
            assert pencil_h0s(c, class_key(c, base)) == pencil_values_oracle(c, base), str(eta)


def test_pencil_h0s_match_the_oracle_on_seeded_genus13_classes():
    rng = random.Random("pencil-h0s:13")
    for _ in range(3):
        c = HyperellipticCurve(rng.sample(range(-39, 40), 27))
        canonical = c.canonical_divisor()
        for _ in range(10):
            eta = two_torsion_from_subset(c, rng.sample(range(1, 29), 2 * rng.randint(2, 7)))
            base = eta.twist(canonical)
            assert pencil_h0s(c, class_key(c, base)) == pencil_values_oracle(c, base), str(eta)


def test_pencil_h0s_refuse_ordinary_terms():
    # the pencil is counted off a mask chain, which a key with ordinary
    # terms does not have; no caller passes one
    curve, marked = shifted_marked_curve()
    key = class_key(curve, Divisor(((marked, 1), (marked.conjugate(), 1), (INFINITY, 2))))
    with pytest.raises(ValueError, match="ordinary terms"):
        pencil_h0s(curve, key)


@pytest.mark.parametrize("genus", [3, 5])
def test_pencil_h0s_match_the_matrix_route_on_shifted_curves(genus):
    # roots with denominators up to 12, seeded masks and degrees from -1 on:
    # every value is the matrix route's h0 of its own key on a separate
    # curve, walked with the same stop rule
    roots = shifted_marked_curve(genus)[0].roots
    chained, matrix = HyperellipticCurve(roots), HyperellipticCurve(roots)
    g = chained.genus
    rng = random.Random(f"pencil-h0s:shifted{genus}")
    for _ in range(60):
        mask = sum(1 << i for i in rng.sample(range(2 * g + 1), rng.randint(0, g)))
        degree = rng.randint(-1, 2 * g + 2)
        expected: list[int] = []
        while len(expected) < g and (not expected or expected[-1] > 0):
            expected.append(riemann_roch._matrix_h0(matrix, (mask, (), degree - 2 * len(expected))))
        assert pencil_h0s(chained, (mask, (), degree)) == tuple(expected), (mask, degree)


def test_pencil_h0s_stop_after_g_values_when_h0_never_reaches_zero(monkeypatch):
    # a chain planted without pivots keeps every column, so no count
    # reaches 0 and only the stop rule ends the walk, after j = g-1
    c = standard_curve(5)
    key = twisted_key(c, (0, (), 2 * c.genus - 2), 0b1111)
    monkeypatch.setattr(
        riemann_roch,
        "_chain_h0",
        lambda curve, mask, degree: sum(riemann_roch._monomial_counts(curve, mask.bit_count() + degree)),
    )
    # cap = 12, columns of pole order 0, 2, ..., 12 and 11
    assert pencil_h0s(c, key) == (8, 6, 5, 4, 3)


def test_a_chain_with_more_pivots_than_columns_reads_zero():
    # six roots at genus 6 and degree 1: cap = 7 has the 4 columns
    # x^0..x^3 under 6 certified pivots.  The count is 0, as the rank 4 of
    # the matrix route gives, never 4 - 6; so is the second value of the
    # pencil from degree 6, where cap = 12 has 7 columns and cap = 10 has 6
    c = HyperellipticCurve(standard_curve(6).roots)  # a fresh, empty memo
    key = (0b111111, (), 1)
    assert class_h0(c, key) == 0 == riemann_roch._matrix_h0(HyperellipticCurve(c.roots), key)
    assert pencil_h0s(c, (0b111111, (), 6)) == (1, 0)


def test_a_chain_miss_fills_every_degree_up_to_g_minus_1():
    # a ramification-only miss at 1 <= d < g-1 writes the mask at d..g-1;
    # one at or above g-1, and every matrix-route miss (degree <= 0 or
    # ordinary terms), writes its own key alone
    curve, marked = curve_with_marked_point(5)
    c = HyperellipticCurve(curve.roots)  # a fresh, empty memo
    class_h0(c, (0b11, (), 2))
    assert set(c._h0_cache) == {(0b11, (), d) for d in (2, 3, 4)}
    class_h0(c, (0b11, (), 1))
    assert set(c._h0_cache) == {(0b11, (), d) for d in (1, 2, 3, 4)}
    ordinary = ((marked, 1),)
    for key in [(0b11, (), 6), (0b11, (), 0), (0b101, (), -1), (0b11, ordinary, 2)]:
        class_h0(c, key)
    assert set(c._h0_cache) == {(0b11, (), d) for d in (0, 1, 2, 3, 4, 6)} | {
        (0b101, (), -1),
        (0b11, ordinary, 2),
    }
    _assert_memo_matches_the_matrix_route(c)


def test_h0_of_a_huge_multiple_of_infinity_lists_no_columns():
    # h0(D) = deg D - g + 1 above degree 2g - 2.  The chain route counts the
    # monomials of pole order <= cap instead of listing them, so a
    # multiplicity of 10**12 at oo costs what a small one does
    c = HyperellipticCurve(standard_curve(2).roots)  # a fresh, empty memo
    n = 10**12
    divisors = [Divisor.of_point(INFINITY, n), Divisor(((c.weierstrass_points[0], 1), (INFINITY, n)))]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        dims = [h0(c, d) for d in divisors]
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dims == [d.degree - c.genus + 1 for d in divisors] == [n - 1, n]
    assert peak < 1 << 20, peak
    assert elapsed < 0.5, elapsed


def _assert_memo_matches_the_matrix_route(curve):
    # the oracle for both routes and the fill is the matrix route on a
    # separate curve: each key's own columns less its own rank
    matrix = HyperellipticCurve(curve.roots)
    for key, dim in curve._h0_cache.items():
        assert dim == riemann_roch._matrix_h0(matrix, key), key


def _counting(monkeypatch, name):
    """The argument tuples of the calls of `riemann_roch.<name>`."""
    calls = []
    real = getattr(riemann_roch, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(riemann_roch, name, counting)
    return calls


def _chain_runs(calls):
    """The degrees of `_chain_h0` calls, one list per mask, in call order."""
    runs: dict[int, list[int]] = {}
    for _, mask, degree in calls:
        runs.setdefault(mask, []).append(degree)
    return runs


def test_widened_misses_match_own_degree_profiles_on_a_genus5_search(monkeypatch):
    # the search asks degrees 1..3 and the probes degrees 1..3 too: each
    # mask misses once and is counted from 4 = g-1 down to its lowest asked
    # degree, and no key reaches the matrix route
    c = HyperellipticCurve(standard_curve(5).roots)  # a fresh, empty memo
    chained = _counting(monkeypatch, "_chain_h0")
    matrix = _counting(monkeypatch, "_matrix_h0")
    search_report(c, two_torsion_from_subset(c, range(1, 7)), include_probes=True)
    monkeypatch.undo()
    assert not matrix
    assert all(run == list(range(4, run[-1] - 1, -1)) for run in _chain_runs(chained).values())
    _assert_memo_matches_the_matrix_route(c)


@pytest.mark.parametrize("genus", [3, 5])
def test_fill_on_the_shifted_marked_curve_matches_both_oracles(monkeypatch, genus):
    # roots with denominators > 1 scale the Taylor rows by powers of q, and
    # the chain's rows p^j q^(g-1-j) by others; keys with ordinary terms at
    # x0 = 1/3 (branch rows scaled by 1/q^s) and keys of degree <= 0 take
    # the matrix route at their own degree.  Every memo entry is checked
    # against the matrix route on a separate curve and against the
    # independent Fraction oracle on the class member its key names
    shifted, marked = shifted_marked_curve(genus)
    curve = HyperellipticCurve(shifted.roots)  # a fresh, empty memo
    g = curve.genus
    affine = curve.weierstrass_points[:-1]
    rng = random.Random(f"widened-fill:{genus}")
    matrix = _counting(monkeypatch, "_matrix_h0")
    asked = []
    for i in range(60):
        terms = [(w, 1) for w in rng.sample(affine, rng.randint(0, g))]
        if i % 2:
            terms += [(marked, rng.randint(-2, 2)), (marked.conjugate(), rng.randint(-2, 2))]
        terms.append((INFINITY, rng.randint(-1, 2 * g - 1) - sum(n for _, n in terms)))
        asked.append(class_key(curve, Divisor(terms)))
        class_h0(curve, asked[-1])
    monkeypatch.undo()
    assert [key for _, key in matrix] == [k for k in dict.fromkeys(asked) if k[1] or k[2] < 1]
    assert any(not o and 0 < d < g - 1 for _, o, d in asked)
    assert len(curve._h0_cache) > len(set(asked))
    _assert_memo_matches_the_matrix_route(curve)
    w = curve.weierstrass_points
    for (mask, ordinary, degree), dim in curve._h0_cache.items():
        support = [(w[i], 1) for i in range(2 * g + 1) if mask >> i & 1] + list(ordinary)
        member = Divisor(support + [(INFINITY, degree - sum(n for _, n in support))])
        assert dim == _oracle_space(curve, member)[0], str(member)


def test_a_cold_genus5_search_eliminates_once_per_affine_part(monkeypatch):
    # maximal k, full pool, with probes: each of the 824 affine parts
    # (mask, ordinary) misses once and is counted at degrees g-1 down to
    # its lowest, once per memo entry, 1,406 in all; the probes ask twisted
    # h0 at degrees 1..3, which the search filled.  Every part is
    # ramification-only, so the mask chains serve all of them without a
    # matrix: one new row per mask but the empty one, each reduced by the
    # rows of its prefix
    c = HyperellipticCurve(standard_curve(5).roots)  # a fresh, empty memo
    chained = _counting(monkeypatch, "_chain_h0")
    eliminations = _counting(monkeypatch, "pivot_columns")
    reductions = _counting(monkeypatch, "reduce_row")
    search_report(c, two_torsion_from_subset(c, range(1, 7)), include_probes=True)
    assert len(_chain_runs(chained)) == len({(mask, ordinary) for mask, ordinary, _ in c._h0_cache}) == 824
    assert len(chained) == len(c._h0_cache) == 1406
    assert (len(eliminations), len(c._chain_cache), len(reductions)) == (0, 823, 2423)


@pytest.mark.parametrize("genus", [4, 5, 6])
def test_probes_after_a_search_eliminate_nothing(monkeypatch, genus):
    c = HyperellipticCurve(standard_curve(genus).roots)  # a fresh, empty memo
    for k in range(1, (genus + 1) // 2 + 1):
        eta = two_torsion_from_subset(c, range(1, 2 * k + 1))
        search_report(c, eta)
        entries = len(c._h0_cache)
        eliminations = _counting(monkeypatch, "pivot_columns")
        reductions = _counting(monkeypatch, "reduce_row")
        geometry_probes(c, eta)
        monkeypatch.undo()
        assert (len(eliminations), len(reductions), len(c._h0_cache)) == (0, 0, entries), str(eta)


def _chain_cases():
    for genus in (4, 5, 6):
        yield pytest.param(standard_curve(genus).roots, id=f"standard{genus}")
    # roots with denominators up to 12: the matrix route scales its Taylor
    # rows by powers of q, the chain's rows p^j q^(g-1-j) by others
    for genus in (3, 5):
        yield pytest.param(shifted_marked_curve(genus)[0].roots, id=f"shifted{genus}")


@pytest.mark.parametrize("roots", list(_chain_cases()))
def test_mask_chains_give_the_matrix_profiles(monkeypatch, roots):
    # every ramification-only key of degree 1..g-1, its mask at most g bits,
    # asked of `class_h0` in a seeded order so that chains are built from
    # any prefix and the fill meets keys already written; the oracle is the
    # matrix route of the key on a separate curve
    chained, matrix = HyperellipticCurve(roots), HyperellipticCurve(roots)
    g = chained.genus
    keys = [(mask, (), d) for mask in range(1 << 2 * g + 1) if mask.bit_count() <= g for d in range(1, g)]
    random.Random(f"chains:{roots}").shuffle(keys)
    eliminations = _counting(monkeypatch, "pivot_columns")
    dims = [class_h0(chained, key) for key in keys]
    monkeypatch.undo()
    assert not eliminations
    assert len(chained._chain_cache) == len({mask for mask, _, _ in keys}) - 1  # no row for 0
    for key, dim in zip(keys, dims):
        assert dim == riemann_roch._matrix_h0(matrix, key), key


def test_a_vanishing_leading_minor_raises_and_stores_nothing(monkeypatch):
    # distinct roots never give one, so a zero pivot is planted: the third
    # reduction, the second of w3's row over the prefix w1 + w2, returns a
    # zero row
    c = HyperellipticCurve(standard_curve(4).roots)  # a fresh, empty memo
    real, calls = riemann_roch.reduce_row, []

    def planting(row, prow, col, prev):
        calls.append(row)
        reduced = real(row, prow, col, prev)
        return [0] * len(reduced) if len(calls) == 3 else reduced

    monkeypatch.setattr(riemann_roch, "reduce_row", planting)
    eliminations = _counting(monkeypatch, "pivot_columns")
    with pytest.raises(ArithmeticError, match="zero leading minor of mask 0b111: engine bug"):
        class_h0(c, (0b111, (), 1))
    # no matrix answers in its place, and neither memo holds the mask
    assert (len(calls), len(eliminations)) == (3, 0)
    assert set(c._chain_cache) == {0b1, 0b11}
    assert not c._h0_cache
    # the pencil reads the same chain, and writes no memo in any case
    fresh = HyperellipticCurve(c.roots)
    calls.clear()
    with pytest.raises(ArithmeticError, match="engine bug"):
        pencil_h0s(fresh, (0b111, (), 6))
    assert set(fresh._chain_cache) == {0b1, 0b11}
    # without the plant the mask's chain is built again from its prefix
    monkeypatch.undo()
    assert class_h0(c, (0b111, (), 1)) == riemann_roch._matrix_h0(fresh, (0b111, (), 1))
    assert set(c._chain_cache) == {0b1, 0b11, 0b111}


def test_chains_survive_a_store_cleared_mid_build(monkeypatch):
    # with a store of 3 chains, every chain of 4 or 5 bits clears it while
    # it is built; the chain keeps its prefix's rows in hand, builds missing
    # prefixes again and never falls back to a matrix
    c = HyperellipticCurve(standard_curve(5).roots)  # a fresh, empty memo
    monkeypatch.setattr(curves, "POINT_MEMO_CAP", 3)
    sizes = []
    real = curves.memo_put

    def recording(memo, key, value):
        real(memo, key, value)
        if memo is c._chain_cache:
            sizes.append(len(memo))

    monkeypatch.setattr(riemann_roch, "memo_put", recording)
    eliminations = _counting(monkeypatch, "pivot_columns")
    report = search_report(c, two_torsion_from_subset(c, range(1, 7)), include_probes=True)
    monkeypatch.undo()
    assert not eliminations
    assert len(c._chain_cache) <= 3
    assert max(sizes) == 3 and sizes.count(1) > 1  # filled and cleared, more than once
    fresh = HyperellipticCurve(c.roots)
    assert search_report(fresh, two_torsion_from_subset(fresh, range(1, 7)), include_probes=True) == report
    assert c._h0_cache == fresh._h0_cache


def _negative_degree_cases():
    # w1 + w2 + w3 - 4 oo at genus 3: cap = 2, 3 rows, 2 a-columns
    yield pytest.param(HyperellipticCurve(standard_curve(3).roots), (0b111, (), -1), (3, 2), id="mask")
    # 6P - 7 oo at genus 2: cap = 5, 6 rows at conj(P), 3 a- and 1 b-column
    curve, marked = curve_with_marked_point(2)
    yield pytest.param(HyperellipticCurve(curve.roots), (0, ((marked, 6),), -1), (6, 4), id="ordinary")


@pytest.mark.parametrize("curve, key, shape", list(_negative_degree_cases()))
def test_class_h0_eliminates_a_negative_degree_class(monkeypatch, curve, key, shape):
    # h0 = 0 at negative degree is read off the elimination, like every h0
    calls = []
    real = riemann_roch.pivot_columns

    def counting(matrix, cols):
        calls.append((len(matrix), cols))
        return real(matrix, cols)

    monkeypatch.setattr(riemann_roch, "pivot_columns", counting)
    assert class_h0(curve, key) == 0
    assert calls == [shape]
    assert curve._h0_cache[key] == 0


def _oracle_divisors(rng, curve, marked, count):
    """Seeded divisors: ramification coefficients -3..3, the marked point and
    its conjugate with coefficients of either sign, and oo taking -3..3 half
    of the time and otherwise whatever brings the degree into -1..2g+1."""
    g = curve.genus
    affine = list(curve.weierstrass_points[:-1])
    out = []
    for i in range(count):
        support = rng.sample(affine, rng.randint(0, min(6, len(affine))))
        terms = [(w, rng.randint(-3, 3)) for w in support]
        if marked is not None:
            terms += [(marked, rng.randint(-2, 2)), (marked.conjugate(), rng.randint(-2, 2))]
        affine_degree = sum(n for _, n in terms)
        n_inf = rng.randint(-3, 3) if i % 2 else rng.randint(-1, 2 * g + 1) - affine_degree
        out.append(Divisor(terms + [(INFINITY, n_inf)]))
    return out


def _oracle_cases():
    for genus, count in ((3, 40), (4, 40), (13, 12)):
        marked_curve, marked = curve_with_marked_point(genus)
        yield pytest.param(f"g{genus}", HyperellipticCurve(marked_curve.roots), marked, count, id=f"genus{genus}")
    yield pytest.param("fractional-roots", HyperellipticCurve(FRACTIONAL_ROOTS), None, 30, id="fractional-roots")
    curve, marked = shifted_marked_curve()
    yield pytest.param("shifted-marked", curve, marked, 30, id="shifted-marked")


@pytest.mark.parametrize("name, curve, marked, count", list(_oracle_cases()))
def test_condition_builder_matches_divisor_oracle(name, curve, marked, count):
    # The class-key miss and riemann_roch_space share one builder; check both
    # against condition rows built independently from the divisor itself.
    divisors = _oracle_divisors(random.Random(f"builder-oracle:{name}"), curve, marked, count)
    assert any(d.coefficient(INFINITY) < 0 for d in divisors)
    if marked is not None:
        signs = {(d.coefficient(marked) > 0, d.coefficient(marked.conjugate()) > 0)
                 for d in divisors if d.coefficient(marked) and d.coefficient(marked.conjugate())}
        assert len(signs) == 4
    for d in divisors:
        dim, expected = _oracle_space(curve, d)
        curve._h0_cache.clear()
        assert class_h0(curve, class_key(curve, d)) == dim, str(d)
        assert riemann_roch_space(curve, d).basis == expected, str(d)


def _oracle_space(curve, d):
    """(h0, basis) of L(D) from space_matrix_oracle and gauss_jordan_oracle."""
    den_mult, a_degrees, _, rows, ncols = space_matrix_oracle(curve, d)
    oracle_basis, rank = gauss_jordan_oracle(rows, ncols)
    den = Poly((1,))
    for x0, m in den_mult.items():
        den = den * Poly((-x0, 1)) ** m
    na = len(a_degrees)
    basis = tuple(CurveFunction.make(Poly(v[:na]), Poly(v[na:]), den) for v in oracle_basis)
    return ncols - rank, basis


def _prefix_cases():
    curve, marked = shifted_marked_curve()
    yield pytest.param(curve.roots, marked, id="shifted-marked")
    yield pytest.param(FRACTIONAL_ROOTS, None, id="fractional-roots")


@pytest.mark.parametrize("roots, marked", list(_prefix_cases()))
def test_wide_taylor_tables_give_the_cold_answers(roots, marked, monkeypatch):
    # Taylor rows at x0 = p/q with q > 1 from tables widened by a
    # high-degree divisor: each prefix is a narrow row times a power of q,
    # which must leave h0 and the bases exactly as a cold curve gives them.
    widths = []

    def recording(curve, ramification, ordinary, n_inf):
        den, na, nb, rows = space_matrix(curve, ramification, ordinary, n_inf)
        assert all(type(c) is int for row in rows for c in row)
        widths.append(na)
        return den, na, nb, rows

    space_matrix = riemann_roch._space_matrix
    monkeypatch.setattr(riemann_roch, "_space_matrix", recording)
    c = HyperellipticCurve(roots)
    wide = [(w, -3) for w in c.weierstrass_points[:-1]] + [(INFINITY, 40)]
    if marked is not None:
        wide += [(marked, 4), (marked.conjugate(), 2)]
    riemann_roch_space(c, Divisor(wide))
    width = widths[-1]
    assert all(len(table[0]) >= width for table in c._taylor_cache.values())
    assert len(c._taylor_cache) == 2 * c.genus + 1 + (0 if marked is None else 2)

    divisors = _oracle_divisors(random.Random(f"prefix:{len(roots)}"), c, marked, 30)
    for d in divisors:
        widths.clear()
        dim, basis = _oracle_space(c, d)
        assert h0(c, d) == dim == h0(HyperellipticCurve(roots), d), str(d)
        assert riemann_roch_space(c, d).basis == basis, str(d)
        assert riemann_roch_space(HyperellipticCurve(roots), d).basis == basis, str(d)
        assert all(na < width for na in widths)
    assert all(len(table[0]) == width for table in c._taylor_cache.values())


def test_point_memos_stay_under_the_cap(monkeypatch):
    # y^2 = x(x+5)(x+1)(x-2)(x-4) has the rational points below with
    # x = 1/4 among them; more of them than the cap pass through h0 and
    # riemann_roch_space, and every answer is the uncapped one.
    roots = (-5, -1, 0, 2, 4)
    xs = (-4, -2, 1, Fraction(1, 4), 5, 9)
    fresh = HyperellipticCurve(roots)
    points = []
    for x in map(Fraction, xs):
        v = fresh.f.evaluate(x)
        y = Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator))
        points += [fresh.point(x, y), fresh.point(x, -y)]
    w = fresh.weierstrass_points
    divisors = [
        Divisor(((p, 2), (q, -1), (w[i % 5], 1), (INFINITY, i % 4)))
        for i, (p, q) in enumerate(zip(points, points[3:] + points[:3]))
    ]
    expected = [(h0(fresh, d), riemann_roch_space(fresh, d).basis) for d in divisors]

    cap = 5
    monkeypatch.setattr(curves, "POINT_MEMO_CAP", cap)
    c = HyperellipticCurve(roots)
    sizes = []
    for d, (dim, basis) in zip(divisors, expected):
        assert h0(c, d) == dim, str(d)
        assert riemann_roch_space(c, d).basis == basis, str(d)
        sizes.append((len(c._taylor_cache), len(c._branch_cache), len(c._on_curve)))
    assert len(points) > cap
    assert max(map(max, sizes)) == cap
    assert max(len(fresh._taylor_cache), len(fresh._branch_cache)) > cap
