"""Square-root branch expansion as a tuple of coefficients."""

import random
from fractions import Fraction

import pytest

from prymlab import BranchUndefinedError, Poly, series_sqrt_branch


def test_sqrt_branch_binomial_series():
    # sqrt(x) at x = 1: 1 + (x-1)/2 - (x-1)^2/8 + ...
    s = series_sqrt_branch(Poly((0, 1)), 1, 1, 3)
    assert s == (1, Fraction(1, 2), Fraction(-1, 8))


def test_sqrt_branch_negative_root():
    # the branch through (1, -1) is minus the principal one
    s = series_sqrt_branch(Poly((0, 1)), 1, -1, 3)
    assert s == (-1, Fraction(-1, 2), Fraction(1, 8))


def test_sqrt_of_perfect_square_is_polynomial():
    f = Poly((0, 0, 1))  # x^2
    s = series_sqrt_branch(f, 2, 2, 6)
    assert s == (2, 1, 0, 0, 0, 0)  # the series of x at center 2


def test_branch_rejected_at_ramification():
    with pytest.raises(BranchUndefinedError):
        series_sqrt_branch(Poly((0, 1)), 0, 0, 3)


def test_branch_rejected_off_curve():
    with pytest.raises(BranchUndefinedError):
        series_sqrt_branch(Poly((0, 1)), 4, 3, 3)  # 3^2 != 4


def test_square_matches_f_to_precision():
    rng = random.Random(321)
    for _ in range(60):
        degree = rng.randint(1, 6)
        f = Poly([rng.randint(-5, 5) for _ in range(degree)] + [rng.randint(1, 5)])
        x0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        y0 = Fraction(rng.randint(1, 5))
        f = f - Poly((f.evaluate(x0),)) + Poly((y0 * y0,))  # plant f(x0) = y0^2
        prec = rng.randint(1, 9)
        s = series_sqrt_branch(f, x0, y0, prec)
        assert len(s) == prec
        square = Poly(s) * Poly(s)  # in powers of (x - x0)
        assert square.taylor_at(0, prec) == f.taylor_at(x0, prec)


def test_precision_below_one_rejected():
    with pytest.raises(ValueError, match="precision"):
        series_sqrt_branch(Poly((0, 1)), 1, 1, 0)
