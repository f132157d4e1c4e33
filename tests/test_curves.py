"""Curve construction, points, and divisors."""

import random
from fractions import Fraction

import pytest

from prymlab import (
    INFINITY,
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    curve_with_marked_point,
    standard_curve,
)


def test_new_curve_genus_2():
    c = HyperellipticCurve([1, 2, 3, 4, 5])
    assert c.genus == 2
    assert len(c.weierstrass_points) == 6
    assert c.weierstrass_points[-1] is INFINITY


def test_new_curve_genus_3():
    assert HyperellipticCurve(range(1, 8)).genus == 3


def test_duplicate_roots_rejected():
    with pytest.raises(ValueError, match="squarefree"):
        HyperellipticCurve([1, 1, 2, 3, 4])


def test_even_root_count_rejected():
    with pytest.raises(ValueError, match="odd"):
        HyperellipticCurve([1, 2, 3, 4, 5, 6])


def test_small_root_count_rejected():
    with pytest.raises(ValueError, match="genus"):
        HyperellipticCurve([1, 2, 3])


def test_canonical_divisor():
    assert standard_curve(2).canonical_divisor() == Divisor.of_point(INFINITY, 2)
    assert standard_curve(3).canonical_divisor() == Divisor.of_point(INFINITY, 4)


def test_affine_points_validated():
    c = standard_curve(2)
    w1 = c.point(1, 0)
    assert w1.is_weierstrass
    with pytest.raises(ValueError, match="y\\^2"):
        c.point(1, 1)
    marked_curve, marked = curve_with_marked_point(2)
    assert marked_curve.contains(marked)
    assert not marked.is_weierstrass
    assert marked_curve.contains(marked.conjugate())


def test_weierstrass_set_shape():
    for g in (2, 3, 4):
        c = standard_curve(g)
        pts = c.weierstrass_points
        assert len(pts) == 2 * g + 2
        assert all(p.y == 0 for p in pts[:-1])
        assert pts[-1].is_infinity
        assert c.weierstrass_point("w1") == pts[0]
        assert c.weierstrass_point(2 * g + 2) is INFINITY
        assert c.label_of(pts[0]) == "w1"


def test_divisor_combination_examples():
    c = standard_curve(2)
    w = c.weierstrass_points
    d1 = Divisor.of_points(w[:2])  # w1 + w2
    d2 = Divisor.of_point(w[1])
    assert d1 - d2 == Divisor.of_point(w[0])
    assert (d1 - d1).is_zero
    assert (d1 - d1).degree == 0
    pencil = c.pencil_divisor()
    mixed = pencil + (Divisor.of_point(w[0]) - Divisor.of_point(INFINITY))
    assert mixed == Divisor(((w[0], 1), (INFINITY, 1)))


def test_divisor_degree_additivity():
    c = standard_curve(3)
    rng = random.Random(17)
    pts = list(c.weierstrass_points)
    for _ in range(100):
        a = Divisor((rng.choice(pts), rng.randint(-3, 3)) for _ in range(3))
        b = Divisor((rng.choice(pts), rng.randint(-3, 3)) for _ in range(3))
        assert (a + b).degree == a.degree + b.degree
        assert (a - b).degree == a.degree - b.degree


def test_divisor_normalisation_and_hash():
    c = standard_curve(2)
    w = c.weierstrass_points
    a = Divisor(((w[0], 1), (w[1], 2)))
    b = Divisor(((w[1], 2), (w[0], 2), (w[0], -1)))
    assert a == b and hash(a) == hash(b)
    assert Divisor(((w[0], 0),)).is_zero
    assert a.is_effective
    assert not (a - 3 * Divisor.of_point(w[2])).is_effective


def test_divisor_of_a_divisor_is_an_equal_copy():
    # a Divisor iterates its (point, n) terms, so the general path rebuilds them
    c, marked = curve_with_marked_point(3)
    w2 = c.weierstrass_point("w2")
    d = Divisor(((w2, -1), (marked, 2), (marked.conjugate(), -3), (INFINITY, 5)))
    copy = Divisor(d)
    assert copy == d and copy.terms == d.terms and hash(copy) == hash(d)
    assert Divisor(Divisor()) == Divisor() and Divisor(Divisor()).is_zero


def test_curve_identity_and_label_errors():
    assert standard_curve(2) == HyperellipticCurve([5, 4, 3, 2, 1])
    c = standard_curve(2)
    with pytest.raises(ValueError):
        c.weierstrass_point("w9")
    with pytest.raises(ValueError):
        c.weierstrass_point("x1")


@pytest.mark.parametrize("label", ["w01", "w+4", "w 3", "w\u0663", "w1_0", "w0", "w", "W1", " w1", "w1\n"])
def test_label_index_accepts_only_canonical_labels(label):
    c = standard_curve(5)  # w1..w12: every misread above would be in range
    with pytest.raises(ValueError, match="bad Weierstrass label"):
        c.label_index(label)
    assert [c.label_index(f"w{i}") for i in (1, 9, 10, 12)] == [1, 9, 10, 12]


def test_validate_divisor_splits_a_mixed_divisor():
    c, marked = curve_with_marked_point(3)
    w1, w3 = c.weierstrass_point("w1"), c.weierstrass_point("w3")
    d = Divisor(((w1, -3), (w3, 2), (marked, 1), (marked.conjugate(), 2), (INFINITY, 4)))
    ramification, ordinary, n_inf = c.validate_divisor(d)
    assert ramification == [(1, -3), (3, 2)]
    assert ordinary == [(marked.conjugate(), 2), (marked, 1)]  # divisor order: y ascending
    assert n_inf == 4
    assert c.validate_divisor(Divisor()) == ([], [], 0)


def test_fractional_roots_accepted():
    c = HyperellipticCurve(["1/2", 1, 2, 3, 4])
    assert c.roots[0] == Fraction(1, 2)
    assert c.genus == 2


def test_conjugate_is_made_once_per_point():
    # kept on both points: the involution builds no further point, and a
    # Weierstrass point (oo too) is its own conjugate
    marked_curve, marked = curve_with_marked_point(3)
    conj = marked.conjugate()
    assert conj == CurvePoint(marked.x, -marked.y) and marked_curve.contains(conj)
    assert marked.conjugate() is conj and conj.conjugate() is marked
    fresh = CurvePoint.affine(marked.x, marked.y)
    assert fresh.conjugate() == conj and fresh.conjugate() is not conj
    for w in marked_curve.weierstrass_points + (CurvePoint(None, None), CurvePoint.affine(7, 0)):
        assert w.conjugate() is w


def test_equal_points_and_divisors_hash_equal():
    p = CurvePoint.affine("1/2", 3)
    q = CurvePoint(Fraction(2, 4), Fraction(3))
    assert p == q and p is not q
    assert hash(p) == hash(q) == hash((Fraction(1, 2), Fraction(3)))
    assert p.conjugate().conjugate() == p
    assert hash(p.conjugate().conjugate()) == hash(p)
    assert CurvePoint(None, None) == INFINITY
    assert hash(CurvePoint(None, None)) == hash(INFINITY) == hash((None, None))
    assert len({p, q, p.conjugate(), INFINITY, CurvePoint(None, None)}) == 3

    d1 = Divisor([(p, 2), (INFINITY, -1)])
    d2 = Divisor({INFINITY: -1, q: 2})
    d3 = Divisor([(q, 3), (p.conjugate(), 1), (INFINITY, -1)]) - Divisor([(p, 1), (p.conjugate(), 1)])
    assert d1 == d2 == d3
    assert hash(d1) == hash(d2) == hash(d3) == hash(d1.terms)
    assert hash(Divisor(d1)) == hash(d1)
    assert {d1: "x"}[d3] == "x"
    assert hash(Divisor()) == hash(Divisor(())) == hash(())
