"""Polynomial arithmetic: exactness, division, gcd."""

import random
from fractions import Fraction

import pytest

from prymlab import Poly, poly_gcd, poly_xgcd


def test_zero_polynomial_sentinel():
    assert Poly().degree == -1
    assert Poly().is_zero
    assert Poly((0, 0)).is_zero
    assert Poly((0, 1)).degree == 1


def test_gcd_shared_root():
    # gcd(x^2 - 1, x - 1) = x - 1
    assert poly_gcd(Poly((-1, 0, 1)), Poly((-1, 1))) == Poly((-1, 1))


def test_divrem_exact_division():
    q, r = divmod(Poly((0, 0, 0, 1)), Poly((0, 0, 1)))
    assert q == Poly((0, 1))
    assert r.is_zero


def test_divrem_rejects_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly((1, 1)), Poly())


def test_squarefree_product_of_linear_factors():
    # f = prod_{i=1..5} (x - i): distinct roots, so gcd(f, f') = 1.
    f = Poly.from_roots([1, 2, 3, 4, 5])
    derivative = Poly(i * c for i, c in enumerate(f.coeffs) if i)
    assert poly_gcd(f, derivative) == Poly((1,))


def test_gcd_is_monic():
    a = Poly.from_roots([1, 2]).scale(6)
    b = Poly.from_roots([2, 3]).scale(Fraction(3, 7))
    assert poly_gcd(a, b) == Poly.from_roots([2])


def test_divrem_recovers_quotient_and_remainder():
    rng = random.Random(20240811)
    for _ in range(200):
        p = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        q = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        if q.is_zero:
            continue
        r = Poly([rng.randint(-5, 5) for _ in range(q.degree)]) if q.degree > 0 else Poly()
        quot, rem = divmod(p * q + r, q)
        assert quot == p and rem == r


def test_xgcd_bezout_identity():
    rng = random.Random(5)
    for _ in range(100):
        a = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        b = Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 5))])
        g, s, t = poly_xgcd(a, b)
        assert s * a + t * b == g
        if not g.is_zero:
            assert g.is_monic
            assert (a % g).is_zero and (b % g).is_zero


def test_evaluate_and_taylor():
    p = Poly.from_roots([2, 3])  # (x-2)(x-3) = x^2 - 5x + 6
    assert p.evaluate(0) == 6
    assert p.evaluate(Fraction(1, 2)) == Fraction(15, 4)
    # expansion at 2: (x-2)(x-3) = -(x-2) + (x-2)^2
    assert p.taylor_at(2, 3) == [0, -1, 1]


def test_multiplicity_at():
    p = Poly.from_roots([1, 1, 1, 4])
    assert p.multiplicity_at(1) == 3
    assert p.multiplicity_at(4) == 1
    assert p.multiplicity_at(7) == 0


def test_string_rationals_accepted():
    p = Poly(("1/2", "-3"))
    assert p.coeffs == (Fraction(1, 2), Fraction(-3))
