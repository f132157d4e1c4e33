"""Polynomial arithmetic: exactness, division, gcd."""

import random
import re
from fractions import Fraction
from math import gcd

import pytest

from prymlab import HyperellipticCurve, Poly, poly_gcd, poly_xgcd
from prymlab.polynomials import MAX_STRING_DIGITS, as_fraction
from support import (
    evaluate_oracle,
    multiplicity_oracle,
    poly_add_oracle,
    poly_divmod_oracle,
    poly_mul_oracle,
    poly_sub_oracle,
    poly_xgcd_oracle,
    taylor_oracle,
)


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


# -- integer kernels against the Fraction oracles ------------------------------

X0_DENOMINATORS = (1, 2, 3, 7)


def _random_poly(rng: random.Random, max_degree: int = 12) -> Poly:
    """Zero with probability about 1/14; otherwise degree 0..max_degree with
    a nonzero leading coefficient, denominators up to 7 and some zero terms."""
    degree = rng.randint(-1, max_degree)
    coeffs = [
        Fraction(rng.randint(-9, 9), rng.randint(1, 7)) if rng.random() < 0.8 else Fraction(0)
        for _ in range(degree + 1)
    ]
    if coeffs:
        coeffs[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7))
    return Poly(coeffs)


def _random_x0(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice(X0_DENOMINATORS))


def _assert_canonical(p: Poly) -> None:
    """The one stored form: integer numerators, no trailing zero, over a
    positive denominator coprime to their content; `coeffs` its view."""
    nums, den = p.numerators, p.denominator
    assert type(nums) is tuple and all(type(n) is int for n in nums), nums
    assert not nums or nums[-1] != 0
    assert type(den) is int and den > 0 and gcd(den, *nums) == 1, (nums, den)
    assert all(type(c) is Fraction for c in p.coeffs), p.coeffs
    assert p.coeffs == tuple(Fraction(n, den) for n in nums)


def test_add_sub_mul_match_fraction_oracle():
    rng = random.Random(1001)
    for _ in range(600):
        a, b = _random_poly(rng), _random_poly(rng)
        for got, want in (
            (a + b, poly_add_oracle(a, b)),
            (a - b, poly_sub_oracle(a, b)),
            (a - a, Poly()),
            (a * b, poly_mul_oracle(a, b)),
            (a.monic(), Poly([c / a.coeffs[-1] for c in a.coeffs]) if a.coeffs else a),
        ):
            _assert_canonical(got)
            assert got == want, (a, b)


def test_divmod_matches_fraction_oracle():
    rng = random.Random(1002)
    for n in range(700):
        a = _random_poly(rng)
        b = _random_poly(rng, max_degree=6 if n % 4 else 0)  # every 4th divisor is constant
        if b.is_zero:
            b = Poly((Fraction(rng.randint(1, 9), rng.randint(1, 7)),))
        quot, rem = divmod(a, b)
        _assert_canonical(quot)
        _assert_canonical(rem)
        assert (quot, rem) == poly_divmod_oracle(a, b), (a, b)
        assert a % b == rem
        assert rem.degree < b.degree or rem.is_zero
        assert (a * b).exact_div(b) == a


def test_expansions_match_fraction_oracle():
    rng = random.Random(1003)
    for _ in range(700):
        x0 = _random_x0(rng)
        a = _random_poly(rng)
        value = a.evaluate(x0)
        assert type(value) is Fraction and value == evaluate_oracle(a, x0), (a, x0)
        nterms = rng.randint(0, a.degree + 3)
        taylor = a.taylor_at(x0, nterms)
        assert all(type(c) is Fraction for c in taylor)
        assert taylor == taylor_oracle(a, x0, nterms), (a, x0, nterms)
        if not a.is_zero:
            k = rng.randint(0, 3)
            vanishing = poly_mul_oracle(a, Poly.from_roots([x0] * k))
            assert vanishing.multiplicity_at(x0) == multiplicity_oracle(vanishing, x0) >= k


def test_kernels_on_zero_operands():
    a = Poly((Fraction(1, 2), 0, Fraction(-3, 7)))
    zero = Poly()
    assert a * zero == zero * a == zero
    assert a + zero == zero + a == a
    assert zero - a == poly_sub_oracle(zero, a)
    assert divmod(zero, a) == (zero, zero)
    assert zero.evaluate(Fraction(-2, 3)) == 0
    assert zero.taylor_at(Fraction(-2, 3), 3) == [0, 0, 0]


def test_exact_div_raises_on_a_remainder():
    with pytest.raises(ArithmeticError, match="inexact"):
        Poly((1, 0, 1)).exact_div(Poly((Fraction(-1, 3), 2)))


@pytest.mark.parametrize("op", [divmod, lambda a, b: a % b, lambda a, b: a.exact_div(b)])
def test_division_by_zero_polynomial_raises(op):
    with pytest.raises(ZeroDivisionError):
        op(Poly((Fraction(1, 2), 1)), Poly())


def test_multiplicity_of_zero_polynomial_raises():
    with pytest.raises(ValueError, match="vanishes everywhere"):
        Poly().multiplicity_at(Fraction(-1, 7))


@pytest.mark.parametrize("text", ["٣", "１２", "1_0"])
def test_non_ascii_and_underscore_strings_rejected(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        Poly((text,))


@pytest.mark.parametrize("flag", [True, False])
def test_bools_are_not_rationals(flag):
    for build in (as_fraction, lambda b: Poly((b,)), lambda b: HyperellipticCurve([b, 2, 3, 4, 5])):
        with pytest.raises(TypeError, match="not an exact rational"):
            build(flag)


@pytest.mark.parametrize(
    "text", ["1e5000", "1e-5000", "1e999999999", "1e" + "9" * 5000, "7" * (MAX_STRING_DIGITS + 1)]
)
def test_strings_past_the_digit_bound_are_refused_before_building(text):
    # '1e999999999' would be a billion-digit integer: it must fail at once
    with pytest.raises(ValueError, match="rational too large"):
        as_fraction(text)
    with pytest.raises(ValueError, match="rational too large"):
        Poly((text,))


def test_strings_within_the_digit_bound_are_read_exactly():
    assert as_fraction("1e4000") == 10**4000
    assert as_fraction("-25e-2") == Fraction(-1, 4)
    assert as_fraction("3" * MAX_STRING_DIGITS) == int("3" * MAX_STRING_DIGITS)


def test_xgcd_matches_two_cofactor_oracle():
    rng = random.Random(1004)
    x = Poly((0, 1))
    cases = [
        (Poly(), Poly()),
        (Poly(), _random_poly(rng, 5) + x),
        (_random_poly(rng, 5) + x, Poly()),
        (Poly((Fraction(-3, 4),)), Poly((5,))),
        (Poly((Fraction(2, 9),)), _random_poly(rng, 4) + x),
    ]
    for _ in range(300):
        a, b = _random_poly(rng, 6), _random_poly(rng, 6)
        if rng.random() < 0.4:  # a shared factor, so g is not 1
            common = _random_poly(rng, 3)
            a, b = a * common, b * common
        cases.append((a, b))
    shared = 0
    for a, b in cases:
        got = poly_xgcd(a, b)
        for p in got:
            _assert_canonical(p)
        assert got == poly_xgcd_oracle(a, b), (a, b)
        g, s, t = got
        assert s * a + t * b == g
        shared += g.degree > 0
    assert shared > 50


def test_one_stored_form_however_built():
    half_x = Poly((0, Fraction(2, 4)))
    ways = [half_x, Poly(("0", "1/2")), Poly((0, 1)) * Poly((Fraction(1, 2),))]
    assert ways[0] == ways[1] == ways[2]
    assert len({hash(p) for p in ways}) == 1
    for p in ways:
        _assert_canonical(p)
        assert (p.numerators, p.denominator) == ((0, 1), 2)
    assert (Poly().numerators, Poly().denominator) == ((), 1)
    # a product whose content cancels the denominator: (x/2 + 1/2) * 2 = x + 1
    assert Poly((Fraction(1, 2), Fraction(1, 2))).scale(2).denominator == 1
    assert Poly((Fraction(-1, 3), Fraction(-2, 3))).monic() == Poly((Fraction(1, 2), 1))


@pytest.mark.parametrize("attr", ["numerators", "denominator", "coeffs", "_coeffs", "other"])
def test_poly_attributes_cannot_be_written(attr):
    p = Poly((1, Fraction(1, 2)))
    assert p.coeffs == (1, Fraction(1, 2))
    with pytest.raises(AttributeError):
        setattr(p, attr, (1,))
    with pytest.raises(AttributeError):
        delattr(p, attr)
    assert p == Poly((1, Fraction(1, 2))) and p.coeffs == (1, Fraction(1, 2))
