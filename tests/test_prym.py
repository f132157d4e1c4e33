"""The twisted Clifford index, its dimension pair, and the geometric probes."""

import itertools
import random

import pytest

from prymlab import (
    CurvePoint,
    Divisor,
    HyperellipticCurve,
    NonContributingError,
    clifford_of_divisor,
    closed_form_report,
    contributes,
    curve_with_marked_point,
    dj_sequence,
    enumerate_two_torsion,
    geometry_probes,
    h0,
    min_secant_degree,
    riemann_roch_space,
    scroll_report,
    search_report,
    secant_membership,
    standard_curve,
    two_torsion_from_subset,
)
from prymlab import prym
from prymlab.riemann_roch import class_key


def _eta(curve, *labels):
    return two_torsion_from_subset(curve, labels)


def test_index_of_single_ramification_point():
    # genus 2, eta = [w1 - w2], L = O(w1): both sides have one section and
    # the index is 1 - 1 - 1 + 1 = 0.
    c = standard_curve(2)
    eta = _eta(c, "w1", "w2")
    d = Divisor.of_point(c.weierstrass_point("w1"))
    assert h0(c, d) == 1
    assert h0(c, eta.twist(d)) == 1
    assert clifford_of_divisor(c, eta, d) == 0


def test_index_of_pair_at_genus_3():
    # genus 3, eta from four points, L = O(w1 + w2): index 2 - 1 - 1 + 1 = 1.
    c = standard_curve(3)
    eta = _eta(c, "w1", "w2", "w3", "w4")
    d = Divisor.of_points([c.weierstrass_point("w1"), c.weierstrass_point("w2")])
    assert h0(c, d) == 1 and h0(c, eta.twist(d)) == 1
    assert clifford_of_divisor(c, eta, d) == 1


def test_index_symmetry_under_twist_and_residual():
    for g in (3, 4):
        c = standard_curve(g)
        K = c.canonical_divisor()
        rng = random.Random(42 + g)
        etas = enumerate_two_torsion(c)
        checked = 0
        while checked < 25:
            eta = rng.choice(etas)
            degree = rng.randint(1, g - 1)
            d = Divisor.of_points(rng.choice(c.weierstrass_points) for _ in range(degree))
            if not contributes(c, eta, d):
                continue
            v = clifford_of_divisor(c, eta, d)
            assert clifford_of_divisor(c, eta, eta.twist(d)) == v
            assert clifford_of_divisor(c, eta, K - d) == v
            checked += 1


def test_contributes_examples():
    c = standard_curve(2)
    eta = _eta(c, "w1", "w2")
    assert contributes(c, eta, Divisor.of_point(c.weierstrass_point("w1")))
    # O(w5) twisted has no sections
    assert not contributes(c, eta, Divisor.of_point(c.weierstrass_point("w5")))
    # degree bound: deg = g is out
    assert not contributes(c, eta, Divisor.of_points(c.weierstrass_points[:2]))


def test_non_contributing_raises():
    c = standard_curve(2)
    eta = _eta(c, "w1", "w2")
    with pytest.raises(NonContributingError):
        clifford_of_divisor(c, eta, Divisor.of_point(c.weierstrass_point("w5")))


def test_closed_form_values():
    assert closed_form_report(standard_curve(2), _eta(standard_curve(2), "w1", "w2")).cliff_eta == 0
    c5 = standard_curve(5)
    assert closed_form_report(c5, _eta(c5, "w1", "w2", "w3", "w4", "w5", "w6")).cliff_eta == 2
    # odd genus, maximal k attains the ceiling floor((g-1)/2)
    c3 = standard_curve(3)
    report = closed_form_report(c3, _eta(c3, "w1", "w2", "w3", "w4"))
    assert report.cliff_eta == 1 == (c3.genus - 1) // 2
    assert report.cliff_dim == (0, 0)
    assert report.mode == "closed_form"


def test_closed_form_rejects_trivial():
    c = standard_curve(2)
    with pytest.raises(ValueError):
        closed_form_report(c, two_torsion_from_subset(c, []))


def _triple(curve):
    return Divisor.of_points(curve.weierstrass_point(f"w{i}") for i in (1, 2, 3))


# every entry point that takes (curve, eta), with a divisor where it needs one
ETA_ENTRY_POINTS = {
    "closed_form_report": closed_form_report,
    "search_report": search_report,
    "min_secant_degree": min_secant_degree,
    "geometry_probes": geometry_probes,
    "dj_sequence": dj_sequence,
    "scroll_report": scroll_report,
    "clifford_of_divisor": lambda c, eta: clifford_of_divisor(c, eta, _triple(c)),
    "contributes": lambda c, eta: contributes(c, eta, _triple(c)),
    "secant_membership": lambda c, eta: secant_membership(c, eta, _triple(c), 1),
}


@pytest.mark.parametrize("name", ["search_report", "min_secant_degree", "geometry_probes", "dj_sequence"])
def test_trivial_class_is_refused(name):
    c = standard_curve(3)
    with pytest.raises(ValueError, match="nontrivial"):
        ETA_ENTRY_POINTS[name](c, two_torsion_from_subset(c, []))


@pytest.mark.parametrize("name", sorted(ETA_ENTRY_POINTS))
@pytest.mark.parametrize("foreign", ["genus 4", "other roots"])
def test_class_of_another_curve_is_refused(name, foreign):
    c = standard_curve(3)
    other = standard_curve(4) if foreign == "genus 4" else HyperellipticCurve(range(7))
    eta = two_torsion_from_subset(other, ["w1", "w2", "w3", "w4"])
    with pytest.raises(ValueError, match="another curve"):
        ETA_ENTRY_POINTS[name](c, eta)


def test_search_genus2_max_degree_1():
    c = standard_curve(2)
    eta = _eta(c, "w1", "w2")
    report = search_report(c, eta, max_degree=1)
    assert report.cliff_eta == 0
    assert report.witness == Divisor.of_point(c.weierstrass_point("w1"))
    assert report.cliff_dim == (0, 0)
    assert report.mode == "search"
    assert report.pool_description == "weierstrass"
    # both base points of the twisted canonical system are minimal witnesses
    assert set(report.witnesses) == {
        Divisor.of_point(c.weierstrass_point("w1")),
        Divisor.of_point(c.weierstrass_point("w2")),
    }


def test_search_genus3_k2():
    c = standard_curve(3)
    eta = _eta(c, "w1", "w2", "w3", "w4")
    report = search_report(c, eta, max_degree=2)
    assert report.cliff_eta == 1
    assert Divisor.of_points([c.weierstrass_point("w1"), c.weierstrass_point("w2")]) in report.witnesses
    assert report.cliff_dim == (0, 0)


def test_search_genus4_k1():
    c = standard_curve(4)
    eta = _eta(c, "w1", "w2")
    report = search_report(c, eta, max_degree=3)
    assert report.cliff_eta == 0
    assert report.cliff_dim == (0, 0)


def test_search_restricted_pool_reports_nothing():
    # a pool that misses the subset entirely finds no contributing bundle
    c = standard_curve(2)
    eta = _eta(c, "w1", "w2")
    report = search_report(c, eta, pool=[c.weierstrass_point("w5")], max_degree=1)
    assert report.cliff_eta is None
    assert report.witnesses == ()
    assert report.cliff_dim is None
    assert report.iota_cliff is None


def test_search_pool_with_ordinary_points():
    # pools may carry ordinary rational points; the search stays an upper
    # bound and here still finds the ramification witness
    c, marked = curve_with_marked_point(2)
    eta = two_torsion_from_subset(c, ["w1", "w2"])
    pool = list(c.weierstrass_points) + [marked, marked.conjugate()]
    report = search_report(c, eta, pool=pool)
    assert report.cliff_eta == 0
    assert report.pool_description == "custom(8 points)"


@pytest.mark.parametrize("pool_labels", [("w1", "w5"), ("w1", "w3", "w5", "w8")])
@pytest.mark.parametrize("labels", [("w2", "w4"), ("w3", "w8"), ("w1", "w2", "w3", "w6"), ("w2", "w4", "w6", "w7")])
def test_search_over_ordinary_pool_matches_brute_force(pool_labels, labels):
    # every pool divisor and its twist solved unkeyed, without the h0 memo;
    # the cases include witnesses through the marked pair and empty results
    c, marked = curve_with_marked_point(3)
    eta = two_torsion_from_subset(c, labels)
    pool = [c.weierstrass_point(l) for l in pool_labels] + [marked, marked.conjugate()]
    best, witnesses, secant = None, [], None
    for degree in range(1, c.genus):
        for combo in itertools.combinations_with_replacement(sorted(pool, key=CurvePoint.sort_key), degree):
            d = Divisor.of_points(combo)
            sections = riemann_roch_space(c, d).dimension
            twisted = riemann_roch_space(c, eta.twist(d)).dimension
            if twisted >= 1 and secant is None:
                secant = degree
            if sections < 1 or twisted < 1:
                continue
            key = (degree - sections - twisted + 1, (sections - 1, twisted - 1))
            if best is None or key < best:
                best, witnesses = key, [d]
            elif key == best:
                witnesses.append(d)
    report = search_report(c, eta, pool=pool)
    assert (report.cliff_eta, report.cliff_dim) == (best or (None, None))
    assert report.witnesses == tuple(witnesses)
    assert min_secant_degree(c, eta, pool) == secant


def test_search_validates_arguments():
    c = standard_curve(3)
    eta = _eta(c, "w1", "w2")
    with pytest.raises(ValueError):
        search_report(c, eta, max_degree=c.genus)  # above g-1
    with pytest.raises(ValueError):
        search_report(c, eta, pool=[])


def test_search_refuses_an_effective_combination_without_sections(monkeypatch):
    # 1 is in L(D) for every effective D: h0 = 0 there is an engine defect,
    # and skipping the combination could hide a smaller index
    c = standard_curve(3)
    eta = _eta(c, "w1", "w2")
    broken = class_key(c, Divisor.of_point(c.weierstrass_point("w3")))
    real = prym.class_h0
    monkeypatch.setattr(prym, "class_h0", lambda curve, key: 0 if key == broken else real(curve, key))
    with pytest.raises(ArithmeticError, match="engine bug"):
        search_report(c, eta)


def test_clifford_dimension_full_pool():
    c = standard_curve(3)
    for eta in enumerate_two_torsion(c)[:10]:
        assert search_report(c, eta).cliff_dim == (0, 0)


def test_dimension_pair_excluded_shapes():
    # (0, r' >= 1) and (1, 1) never appear
    for g in (2, 3):
        c = standard_curve(g)
        for eta in enumerate_two_torsion(c):
            pair = search_report(c, eta).cliff_dim
            assert pair == (0, 0)
            assert not (pair[0] == 0 and pair[1] >= 1)
            assert pair != (1, 1)


def test_iota_invariant_values():
    c = standard_curve(3)
    assert closed_form_report(c, _eta(c, "w1", "w2")).iota_cliff == 0
    assert closed_form_report(c, _eta(c, "w1", "w2", "w3", "w4")).iota_cliff == 2
    c7 = standard_curve(7)
    eta4 = _eta(c7, *[f"w{i}" for i in range(1, 9)])  # k = 4
    assert eta4.k == 4
    assert closed_form_report(c7, eta4).iota_cliff == 2
    # search-backed value agrees
    assert search_report(c, _eta(c, "w1", "w2"), list(c.weierstrass_points)).iota_cliff == 0


def test_secant_membership_trisecant():
    c = standard_curve(5)
    eta = _eta(c, "w1", "w2", "w3", "w4", "w5", "w6")
    d = Divisor.of_points([c.weierstrass_point(f"w{i}") for i in (1, 2, 3)])
    assert secant_membership(c, eta, d, f=1)
    # overlapping the subset the wrong way kills both sections:
    # twist(w5+w6+w7) = w1+w2+w3-w4+w7 has no effective representative
    mixed = Divisor.of_points([c.weierstrass_point(f"w{i}") for i in (5, 6, 7)])
    assert not secant_membership(c, eta, mixed, f=1)
    # at 2k = g+1 the subset and its complement write the same class, so a
    # triple from the complement is also a trisecant witness
    complement_half = Divisor.of_points([c.weierstrass_point(f"w{i}") for i in (7, 8, 9)])
    assert secant_membership(c, eta, complement_half, f=1)


def test_secant_membership_validation():
    c = standard_curve(5)
    eta = _eta(c, "w1", "w2")
    d = Divisor.of_points(c.weierstrass_points[:3])
    with pytest.raises(ValueError):
        secant_membership(c, eta, d, f=3)  # f >= deg d
    with pytest.raises(ValueError):
        secant_membership(c, eta, d, f=0)
    with pytest.raises(ValueError):
        secant_membership(c, eta, -d, f=1)


def test_min_secant_degree_equals_k():
    c3 = standard_curve(3)
    assert min_secant_degree(c3, _eta(c3, "w1", "w2", "w3", "w4")) == 2
    c2 = standard_curve(2)
    assert min_secant_degree(c2, _eta(c2, "w1", "w2")) == 1
    c5 = standard_curve(5)
    assert min_secant_degree(c5, _eta(c5, "w1", "w2", "w3", "w4", "w5", "w6")) == 3


def test_probes_k1_base_points():
    c = standard_curve(3)
    eta = _eta(c, "w1", "w2")
    probe = geometry_probes(c, eta)
    assert set(probe.base_points) == {c.weierstrass_point("w1"), c.weierstrass_point("w2")}


def test_probes_k2_unseparated():
    c = standard_curve(4)
    eta = _eta(c, "w1", "w2", "w3", "w4")
    probe = geometry_probes(c, eta)
    assert probe.base_points == ()
    assert probe.unseparated_pairs
    pair = (c.weierstrass_point("w1"), c.weierstrass_point("w2"))
    assert pair in probe.unseparated_pairs


def test_probes_k3_trisecant():
    c = standard_curve(5)
    eta = _eta(c, "w1", "w2", "w3", "w4", "w5", "w6")
    probe = geometry_probes(c, eta)
    witness = Divisor.of_points([c.weierstrass_point(f"w{i}") for i in (1, 2, 3)])
    assert witness in probe.trisecant_witnesses
    assert probe.base_points == ()
    assert probe.unseparated_pairs == ()
    # the witness drops exactly one condition: h0(K + eta - D) = g - 3
    assert h0(c, eta.twist(c.canonical_divisor() - witness)) == c.genus - 3


def test_search_values_bounded():
    for g in (2, 3):
        c = standard_curve(g)
        ceiling = (g - 1) // 2
        for eta in enumerate_two_torsion(c):
            value = search_report(c, eta).cliff_eta
            assert 0 <= value <= ceiling


def test_report_iota_consistency():
    c = standard_curve(3)
    for eta in enumerate_two_torsion(c)[:8]:
        report = search_report(c, eta)
        assert report.iota_cliff == (0 if eta.k == 1 else 2)
        assert report.k == eta.k
        assert report.genus == 3
