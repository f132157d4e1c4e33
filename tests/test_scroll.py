"""Drop sequences, scroll types, and resolution-shape parameters."""

import random
from fractions import Fraction

import pytest

from prymlab import linalg, riemann_roch, scroll
from prymlab import (
    HyperellipticCurve,
    ScrollMismatchError,
    dj_sequence,
    enumerate_two_torsion,
    park_parameters,
    scroll_report,
    standard_curve,
    two_torsion_from_subset,
)
from prymlab.riemann_roch import class_key, h0, twisted_key


def _eta_k(curve, k):
    return two_torsion_from_subset(curve, [f"w{i}" for i in range(1, 2 * k + 1)])


def test_dj_sequences_frozen_values():
    # h0 drops computed by hand from the parity-counting rule:
    #   genus 5, k=3: h0 values 4, 2, 0      -> drops (2, 2)
    #   genus 5, k=2: h0 values 4, 2, 1, 0   -> drops (2, 1, 1)
    #   genus 4, k=2: h0 values 3, 1, 0      -> drops (2, 1)
    c5 = standard_curve(5)
    assert dj_sequence(c5, _eta_k(c5, 3)) == (2, 2)
    assert dj_sequence(c5, _eta_k(c5, 2)) == (2, 1, 1)
    c4 = standard_curve(4)
    assert dj_sequence(c4, _eta_k(c4, 2)) == (2, 1)


def test_dj_rejects_k1():
    c = standard_curve(4)
    with pytest.raises(ValueError, match="base points"):
        dj_sequence(c, two_torsion_from_subset(c, ["w1", "w2"]))


def test_dj_stops_within_g_calls_when_h0_never_reaches_zero(monkeypatch):
    # the pencil's profile planted without pivots never reaches h0 = 0: the
    # walk stops after g values, and dj_sequence refuses them
    c = standard_curve(5)
    eta = _eta_k(c, 2)
    pencil_key = twisted_key(c, (0, (), 2 * c.genus - 2), eta.mask)
    real_profile, real_pencil = riemann_roch._pole_profile, scroll.pencil_h0s
    walks = []

    def pivotless(curve, key):
        cap, orders, pivots = real_profile(curve, key)
        return cap, orders, [] if key == pencil_key else pivots

    def recorded(curve, key):
        walks.append(real_pencil(curve, key))
        return walks[-1]

    monkeypatch.setattr(riemann_roch, "_pole_profile", pivotless)
    monkeypatch.setattr(scroll, "pencil_h0s", recorded)
    with pytest.raises(ScrollMismatchError):
        dj_sequence(c, eta)
    assert walks == [(8, 6, 5, 4, 3)]


def test_dj_rejects_a_zero_drop(monkeypatch):
    # genus 5, k = 2.  4, 2, 2, 0: drops (2, 0, 2) sum to g-1 but the pencil
    # must remove a section at every step while any are left.  4, 3, 2, 1, 0:
    # every drop is 1, so only d_0 = 2 rejects it
    c = standard_curve(5)
    for values in [(4, 2, 2, 0), (4, 3, 2, 1, 0)]:
        monkeypatch.setattr(scroll, "pencil_h0s", lambda curve, key: values)
        with pytest.raises(ScrollMismatchError):
            dj_sequence(c, _eta_k(c, 2))


def test_dj_raises_after_one_h0_call_when_h0_is_off(monkeypatch):
    # the first value along the pencil is certified by Riemann-Roch on eta,
    # g - 1 + h0(beta), with one h0 call, on beta
    c = standard_curve(5)
    calls = []
    real = scroll.h0

    def planted(curve, divisor):
        calls.append(divisor)
        return real(curve, divisor) + 1

    monkeypatch.setattr(scroll, "h0", planted)
    with pytest.raises(ScrollMismatchError):
        dj_sequence(c, _eta_k(c, 2))
    assert [class_key(c, d) for d in calls] == [class_key(c, _eta_k(c, 2).beta_divisor())]


def test_genus13_report_runs_two_eliminations_and_one_h0_call(monkeypatch):
    # one profile for the whole pencil, one elimination for the h0
    # certificate of beta, a degree-0 divisor whose matrix is 8 x (8 // 2 + 1)
    rng = random.Random("scroll-cost")
    c = HyperellipticCurve(rng.sample(range(-39, 40), 27))  # a fresh, empty memo
    eliminations, reductions, h0_calls = [], [], []
    real_eliminate, real_reduce, real_h0 = linalg._eliminate, riemann_roch.reduce_row, scroll.h0

    def eliminate(*args, **kwargs):
        eliminations.append(args[1])
        return real_eliminate(*args, **kwargs)

    def reduce(row, *args):
        reductions.append(len(row))
        return real_reduce(row, *args)

    def counted_h0(curve, divisor):
        h0_calls.append(divisor)
        return real_h0(curve, divisor)

    monkeypatch.setattr(linalg, "_eliminate", eliminate)
    monkeypatch.setattr(riemann_roch, "reduce_row", reduce)
    monkeypatch.setattr(scroll, "h0", counted_h0)
    report = scroll_report(c, two_torsion_from_subset(c, range(1, 9)))
    assert (report.e1, report.e2) == (8, 2)
    # the pencil is ramification-only of degree 2g-2, so the mask chain of
    # the twist's 8 roots certifies its leading 8 x 8 block: row k is reduced
    # by the k rows above it, its width shrinking from g = 13 by one each
    # step, 0 + 1 + ... + 7 = 28 row reductions and no matrix.  Beta, at
    # degree 0, stays off the chain: the leading 5 x 5 block of its own 8 rows
    assert reductions == [13 - j for k in range(8) for j in range(k)]
    assert eliminations == [5]
    assert [d.degree for d in h0_calls] == [0]


def test_twisted_canonical_h0_is_riemann_roch_on_beta():
    # the oracle for dj_sequence's certificate is the h0 it replaced:
    # h0(K + eta) - h0(-beta) = g - 1 by Riemann-Roch, -beta ~ beta, and
    # h0(beta) = 0 for a nontrivial eta.  Every class at genus 2-5, and
    # classes of every k on a genus-13 curve with fractional roots
    cases = [(standard_curve(g), enumerate_two_torsion(standard_curve(g))) for g in range(2, 6)]
    rng = random.Random("rr-on-beta")
    c13 = HyperellipticCurve([Fraction(2 * i - 27, 1 + i % 4) for i in range(27)])
    subsets = [(1, 4, 6, 9, 13, 20, 22, 27)]
    subsets += [rng.sample(range(1, 29), 2 * k) for k in range(1, 8) for _ in range(3)]
    cases.append((c13, [two_torsion_from_subset(c13, s) for s in subsets]))
    for c, etas in cases:
        canonical = c.canonical_divisor()
        for eta in etas:
            beta = eta.beta_divisor()
            assert class_key(c, -beta) == class_key(c, beta)
            assert h0(c, eta.twist(canonical)) == c.genus - 1 + h0(c, beta) == c.genus - 1, eta


def test_pencil_key_is_the_class_key_of_the_twisted_canonical_divisor():
    # dj_sequence keys pencil_h0s without building K + eta
    for g in range(2, 6):
        c = standard_curve(g)
        canonical = c.canonical_divisor()
        for eta in enumerate_two_torsion(c):
            key = twisted_key(c, (0, (), 2 * g - 2), eta.mask)
            assert key == class_key(c, eta.twist(canonical)), eta


def test_scroll_types_match_closed_form():
    cases = {(5, 2): (2, 0), (5, 3): (1, 1), (7, 4): (2, 2)}
    for (g, k), expected in cases.items():
        c = standard_curve(g)
        r = scroll_report(c, _eta_k(c, k))
        assert (r.e1, r.e2) == expected


def test_dj_sum_and_first_one_index_exhaustive_genus4():
    from prymlab import enumerate_two_torsion

    c = standard_curve(4)
    for eta in enumerate_two_torsion(c):
        if eta.k < 2:
            continue
        drops = dj_sequence(c, eta)
        assert sum(drops) == c.genus - 1
        assert drops[0] == 2
        ones = [j for j, d in enumerate(drops) if d == 1]
        assert ones and ones[0] == eta.k - 1  # g=4 has no degenerate k
        r = scroll_report(c, eta)
        assert (r.e1, r.e2) == (c.genus - 1 - eta.k, eta.k - 2)


def test_scroll_type_depends_only_on_k():
    c = standard_curve(6)
    subsets = [
        ["w1", "w2", "w3", "w4", "w5", "w6"],
        ["w2", "w4", "w6", "w8", "w10", "w12"],
        ["w9", "w10", "w11", "w12", "w13", "w14"],
    ]
    reports = [scroll_report(c, two_torsion_from_subset(c, s)) for s in subsets]
    types = {(r.e1, r.e2) for r in reports}
    sequences = {r.d_sequence for r in reports}
    assert types == {(2, 1)}
    assert len(sequences) == 1


def test_degenerate_profile_has_no_ones():
    # g = 2k-1 means e1 = e2 and the drop sequence is all 2s
    c = standard_curve(7)
    drops = dj_sequence(c, _eta_k(c, 4))
    assert drops == (2, 2, 2)
    r = scroll_report(c, _eta_k(c, 4))
    assert (r.e1, r.e2) == (2, 2)


def test_park_parameter_table():
    assert park_parameters(5, 3) == (5, 0, 6)
    assert park_parameters(7, 4) == (4, 1, 5)
    assert park_parameters(9, 5) == (3, 0, 4)
    assert park_parameters(11, 6) == (3, 1, 4)
    assert park_parameters(13, 7) == (3, 2, 4)
    assert park_parameters(15, 8) == (3, 3, 4)
    # the date of validity: p = nu*(k-2) - 2k + 1 throughout
    for k in range(3, 9):
        nu, p, reg = park_parameters(2 * k - 1, k)
        assert p == nu * (k - 2) - 2 * k + 1
        assert reg == nu + 1


def test_park_rejects_out_of_range():
    with pytest.raises(ValueError, match="very ample"):
        park_parameters(9, 2)
    with pytest.raises(ValueError, match="ceiling"):
        park_parameters(5, 4)


def test_scroll_report_fields():
    c = standard_curve(7)
    report = scroll_report(c, _eta_k(c, 3))
    assert (report.e1, report.e2) == (3, 1)
    assert report.d_sequence == (2, 2, 1, 1)
    assert report.factorization_type == (3, 6)  # (g-k-1, 2k)
    assert (report.nu, report.p, report.regularity) == (5, 0, 6)
    k2 = scroll_report(c, _eta_k(c, 2))
    assert k2.nu is None and k2.p is None and k2.regularity is None
    assert k2.factorization_type == (4, 4)


def test_scroll_invariants():
    # e1 >= e2 >= 0 and e1 + e2 = g - 3 wherever defined
    for g in (4, 5, 6):
        c = standard_curve(g)
        for k in range(2, (g + 1) // 2 + 1):
            r = scroll_report(c, _eta_k(c, k))
            e1, e2 = r.e1, r.e2
            assert e1 >= e2 >= 0
            assert e1 + e2 == g - 3
