"""Mumford/Cantor arithmetic and the 2-torsion subgroup."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from prymlab import (
    INFINITY,
    CurvePoint,
    Divisor,
    MumfordClass,
    Poly,
    cantor_add,
    cantor_identity,
    cantor_negate,
    closed_form_report,
    curve_with_marked_point,
    enumerate_two_torsion,
    is_linearly_equivalent,
    mumford_of_divisor,
    mumford_of_point,
    standard_curve,
    two_torsion_from_subset,
    validate_mumford,
)
from prymlab.jacobian import canonical_subsets
from support import (
    canonical_subset_oracle,
    marked_curves,
    mumford_point_by_point_oracle,
    random_weierstrass_divisor,
    shifted_marked_curve,
    two_torsion_enumeration_oracle,
)


def test_identity_and_inverse():
    c = standard_curve(2)
    a = mumford_of_point(c, c.weierstrass_points[0])
    assert cantor_add(c, a, cantor_identity()) == a
    assert cantor_add(c, a, cantor_negate(c, a)) == cantor_identity()


def test_inverse_of_ordinary_point():
    c, marked = curve_with_marked_point(2)
    a = mumford_of_point(c, marked)
    assert cantor_add(c, a, cantor_negate(c, a)) == cantor_identity()
    assert cantor_negate(c, a) == mumford_of_point(c, marked.conjugate())


def test_composition_of_coprime_torsion_supports():
    c = standard_curve(3)
    w = c.weierstrass_points
    a = mumford_of_point(c, w[0])
    b = mumford_of_point(c, w[1])
    total = cantor_add(c, a, b)
    assert total == MumfordClass(Poly.from_roots([w[0].x, w[1].x]), Poly())
    # agreement with the h0 oracle on the divisor writings
    oo = Divisor.of_point(c.infinity)
    assert is_linearly_equivalent(
        c,
        (Divisor.of_point(w[0]) - oo) + (Divisor.of_point(w[1]) - oo),
        Divisor.of_points(w[:2]) - 2 * oo,
    )


def test_cantor_reduction_kicks_in():
    # composing g+1 distinct ramification classes forces a reduction step
    c = standard_curve(3)
    w = c.weierstrass_points
    acc = cantor_identity()
    for p in w[:4]:
        acc = cantor_add(c, acc, mumford_of_point(c, p))
    validate_mumford(c, acc)
    assert acc.u.degree <= c.genus
    # the reduced support is the complementary affine ramification set
    assert acc == MumfordClass(Poly.from_roots([w[4].x, w[5].x, w[6].x]), Poly())


def test_mumford_of_divisor_matches_oracle():
    for g in (2, 3):
        c, marked = curve_with_marked_point(g)
        pts = list(c.weierstrass_points) + [marked, marked.conjugate()]
        oo = Divisor.of_point(c.infinity)
        rng = random.Random(600 + g)
        for _ in range(60):
            support = rng.sample(pts, k=rng.randint(1, 4))
            d1 = Divisor((p, rng.randint(-2, 2)) for p in support)
            support = rng.sample(pts, k=rng.randint(1, 4))
            d2 = Divisor((p, rng.randint(-2, 2)) for p in support)
            d2 = d2 + (d1.degree - d2.degree) * oo
            m1, m2 = mumford_of_divisor(c, d1), mumford_of_divisor(c, d2)
            validate_mumford(c, m1)
            validate_mumford(c, m2)
            assert (m1 == m2) == is_linearly_equivalent(c, d1, d2)


@pytest.mark.parametrize("curve, marked", marked_curves((2, 3, 4, 5)))
def test_mumford_of_divisor_matches_point_by_point_oracle(curve, marked):
    # every sign pair of multiplicities up to 5, odd and even, on P and
    # conj(P), each with a seeded ramification part of coefficients -3..3
    # and a seeded oo term
    affine_w = [w for w in curve.weierstrass_points if not w.is_infinity]
    rng = random.Random(f"mumford-oracle:{curve.genus}:{marked}")
    for a, b in itertools.product((-5, -4, -2, -1, 0, 1, 3, 5), repeat=2):
        terms = [(w, rng.randint(-3, 3)) for w in rng.sample(affine_w, rng.randint(0, 3))]
        terms += [(marked, a), (marked.conjugate(), b), (INFINITY, rng.randint(-4, 4))]
        d = Divisor(terms)
        m = mumford_of_divisor(curve, d)
        validate_mumford(curve, m)
        assert m == mumford_point_by_point_oracle(curve, d), str(d)
    oo = Divisor.of_point(INFINITY)
    for zero_class in (Divisor(), 3 * oo, Divisor.of_points((marked, marked.conjugate())) - 2 * oo,
                       sum((2 * Divisor.of_point(w) for w in affine_w), Divisor())):
        assert mumford_of_divisor(curve, zero_class) == cantor_identity()


def test_mumford_of_divisor_rejects_points_off_the_curve():
    curve, marked = shifted_marked_curve()
    off_curve = CurvePoint.affine(Fraction(1, 3), 5)
    over_root = CurvePoint.affine(curve.roots[0], 1)
    for bad in (off_curve, over_root):
        for d in (Divisor.of_point(bad), Divisor(((marked, 3), (curve.weierstrass_point(1), 1), (bad, -2)))):
            with pytest.raises(ValueError, match="not on the curve"):
                mumford_of_divisor(curve, d)


def test_doubling_an_ordinary_point():
    c, marked = curve_with_marked_point(2)
    a = mumford_of_point(c, marked)
    doubled = cantor_add(c, a, a)
    validate_mumford(c, doubled)
    # cross-check against the h0 oracle
    oo = Divisor.of_point(c.infinity)
    assert (doubled == cantor_identity()) == is_linearly_equivalent(
        c, 2 * Divisor.of_point(marked), 2 * oo
    )


# -- 2-torsion ----------------------------------------------------------------


def test_two_torsion_from_pair():
    c = standard_curve(2)
    eta = two_torsion_from_subset(c, ["w1", "w2"])
    assert eta.k == 1
    assert eta.labels == ("w1", "w2")


def test_trivial_class():
    c = standard_curve(2)
    eta = two_torsion_from_subset(c, [])
    assert eta.is_trivial
    with pytest.raises(ValueError, match="no invariant k"):
        eta.k
    d = Divisor.of_points([c.weierstrass_point("w1"), c.weierstrass_point("w3")])
    assert eta.twist(d) == d


def test_odd_cardinality_rejected():
    with pytest.raises(ValueError, match="even"):
        two_torsion_from_subset(standard_curve(2), ["w1"])


@pytest.mark.parametrize(
    "labels, repeated",
    [
        (["w1", "w1", "w2", "w2"], "'w1'"),
        (["w1", "w2", "w3", "w1", "w4", "w1"], "'w1'"),
        (["w1", "w2", "w2", "w3"], "'w2'"),
        (["w3", 3], "3"),
    ],
)
def test_repeated_labels_rejected_by_name(labels, repeated):
    with pytest.raises(ValueError, match=f"repeated Weierstrass label {repeated}$"):
        two_torsion_from_subset(standard_curve(4), labels)


def test_large_subset_stored_as_complement():
    c = standard_curve(3)
    eta = two_torsion_from_subset(c, ["w1", "w2", "w3", "w4", "w5", "w6"])
    assert eta.labels == ("w7", "w8")
    # the two divisor writings are linearly equivalent
    big = Divisor.of_points(c.weierstrass_point(i) for i in range(1, 7)) - 6 * Divisor.of_point(c.infinity)
    small = eta.beta_divisor()
    assert is_linearly_equivalent(c, big, small)


def test_enumeration_counts():
    expected = {2: 15, 3: 63, 4: 255}
    for g, count in expected.items():
        classes = enumerate_two_torsion(standard_curve(g))
        assert len(classes) == count
        assert len(set(classes)) == count


@pytest.mark.parametrize("genus", range(2, 7))
def test_canonical_subsets_match_the_lexicographic_rule(genus):
    c = standard_curve(genus)
    n = 2 * genus + 2
    for size in range(0, n + 1, 2):
        for combo in itertools.combinations(range(1, n + 1), size):
            subset = frozenset(combo)
            assert two_torsion_from_subset(c, combo).subset == canonical_subset_oracle(genus, subset)
    expected = two_torsion_enumeration_oracle(genus)
    assert [eta.subset for eta in enumerate_two_torsion(c)] == expected
    ks = range(1, (genus + 1) // 2 + 1)
    assert [frozenset(s) for k in ks for s in canonical_subsets(c, k)] == expected
    for k in (0, ks[-1] + 1):
        with pytest.raises(ValueError):
            canonical_subsets(c, k)


def test_genus3_k_histogram():
    classes = enumerate_two_torsion(standard_curve(3))
    histogram = Counter(e.k for e in classes)
    assert histogram == {1: 28, 2: 35}  # C(8,2) and C(8,4)/2


def test_group_op_examples():
    c = standard_curve(2)
    a = two_torsion_from_subset(c, ["w1", "w2"])
    b = two_torsion_from_subset(c, ["w2", "w3"])
    assert a.combine(b) == two_torsion_from_subset(c, ["w1", "w3"])
    assert a.combine(a).is_trivial


def test_group_closure_genus2_exhaustive():
    c = standard_curve(2)
    classes = enumerate_two_torsion(c)
    universe = set(classes)
    for a, b in itertools.combinations(classes, 2):
        composed = a.combine(b)
        assert composed in universe or composed.is_trivial


def test_cantor_agrees_with_subset_group_law():
    c = standard_curve(2)
    classes = enumerate_two_torsion(c)
    for a, b in itertools.combinations(classes, 2):
        assert cantor_add(c, a.mumford(), b.mumford()) == a.combine(b).mumford()


def test_two_torsion_order_two_in_jacobian():
    c = standard_curve(3)
    for eta in enumerate_two_torsion(c)[:20]:
        m = eta.mumford()
        validate_mumford(c, m)
        assert cantor_add(c, m, m) == cantor_identity()


def _pair_writing(curve, eta):
    """A second writing of eta, the oracle for `twist`: the canonical
    subset's first k points minus its last k points."""
    points = [curve.weierstrass_point(i) for i in sorted(eta.subset)]
    return Divisor.of_points(points[: eta.k]), Divisor.of_points(points[eta.k :])


def test_pair_and_beta_writings_equivalent():
    c = standard_curve(3)
    d = Divisor.of_points([c.weierstrass_point("w2")]) + 2 * Divisor.of_point(c.infinity)
    for eta in enumerate_two_torsion(c)[::7]:
        positive, negative = _pair_writing(c, eta)
        assert is_linearly_equivalent(c, eta.twist(d), d + positive - negative), eta


def test_eta_canonical_k_splits():
    c5 = standard_curve(5)
    eta = two_torsion_from_subset(c5, ["w1", "w2"])
    assert eta.k == 1
    assert closed_form_report(c5, eta).witness == Divisor.of_point(c5.weierstrass_point("w1"))

    eta = two_torsion_from_subset(c5, ["w1", "w2", "w3", "w4"])
    assert eta.k == 2
    assert closed_form_report(c5, eta).witness == Divisor.of_points(
        [c5.weierstrass_point("w1"), c5.weierstrass_point("w2")]
    )

    assert two_torsion_from_subset(c5, ["w1", "w2", "w3", "w4", "w5", "w6"]).k == 3


def test_subsets_through_infinity():
    # the infinity label participates like any other ramification point
    c = standard_curve(2)
    eta = two_torsion_from_subset(c, ["w1", "w6"])
    assert eta.k == 1
    w1 = Divisor.of_point(c.weierstrass_point("w1"))
    assert eta.beta_divisor() == w1 - Divisor.of_point(c.infinity)
    positive, negative = _pair_writing(c, eta)
    assert negative == Divisor.of_point(c.infinity)
    d = 3 * Divisor.of_point(c.infinity)
    assert is_linearly_equivalent(c, eta.twist(d), d + positive - negative)


def test_distinct_k_classes_distinct():
    c = standard_curve(3)
    ones = [e for e in enumerate_two_torsion(c) if e.k == 1][:6]
    twos = [e for e in enumerate_two_torsion(c) if e.k == 2][:6]
    for a in ones:
        for b in twos:
            assert not is_linearly_equivalent(c, a.beta_divisor(), b.beta_divisor())
