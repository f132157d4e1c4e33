"""Acceptance suite: one test per criterion, every check exact.

Each criterion prints a single PASS line (with timing) when it holds; a
failure surfaces as an ordinary pytest failure.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import time

from prymlab import (
    Divisor,
    closed_form_report,
    curve_with_marked_point,
    enumerate_two_torsion,
    geometry_probes,
    h0,
    search_report,
    standard_curve,
)
from prymlab.verify import (
    check_beta_injective,
    check_beta_two_to_one,
    check_cantor_oracle,
    check_dj_profile,
    check_h0_basics,
    check_iota,
    check_k2_probe_shape,
    check_k3_trisecant,
    check_min_secant_equals_k,
    check_park_table,
    check_rr_identity,
    check_search_matches_closed_form,
    check_two_torsion_count,
    check_upper_bound_attained,
    check_zero_classification,
)


def _report(criterion: int, started: float, details: list[str]) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE criterion {criterion}: PASS ({elapsed:.1f}s) - " + "; ".join(details))


def test_criterion_1_search_reproduces_closed_form():
    """Every nontrivial class at genus 2..4: the exhaustive search over the
    full ramification pool with max_degree g-1 returns exactly k-1 and
    dimension pair (0,0), matching the closed form."""
    started = time.perf_counter()
    details = [check_search_matches_closed_form(g, search_report) for g in (2, 3, 4)]
    _report(1, started, details)


def test_criterion_2_zero_index_classification():
    """Index 0 happens exactly at k = 1, and then the twisted canonical
    system has exactly the two subset points as base points."""
    started = time.perf_counter()
    details = [check_zero_classification(g, search_report, geometry_probes) for g in (2, 3, 4)]
    _report(2, started, details)


def test_criterion_3_bound_attainment():
    """max over classes of the index equals floor((g-1)/2) at g in {3, 4, 5},
    attained at maximal k.  Genus 5 uses witness-certified closed forms for
    all 1023 classes plus full searches at maximal k."""
    started = time.perf_counter()
    details = [
        check_upper_bound_attained(3, search_report),
        check_upper_bound_attained(4, search_report),
        check_upper_bound_attained(5, search_report),
    ]
    _report(3, started, details)


def test_criterion_4_scroll_types():
    """For g in {4..7} and every 2 <= k <= floor((g+1)/2), on >= 3 subsets
    per k: the drop-derived scroll type equals (g-1-k, k-2), the drops sum
    to g-1, and the first unit drop sits at index k-1 (no unit drop occurs
    exactly in the balanced case g = 2k-1)."""
    started = time.perf_counter()
    details = [check_dj_profile(g) for g in (4, 5, 6, 7)]
    _report(4, started, details)


def test_criterion_5_park_parameter_table():
    """nu = 5, 4, 3, 3, ... for k = 3, 4, >= 5 with regularity nu + 1,
    through k = 8."""
    started = time.perf_counter()
    details = [check_park_table()]
    _report(5, started, details)


def test_criterion_6_two_torsion_combinatorics():
    """Enumeration counts 15, 63, 255 at genus 2, 3, 4; subset-to-class maps
    injective for k <= g/2 (pairwise h0 certificates); exactly 2:1 at
    genus 3, k = 2 (35 = C(8,4)/2 classes)."""
    started = time.perf_counter()
    details = [check_two_torsion_count(g) for g in (2, 3, 4)]
    details += [check_beta_injective(g) for g in (2, 3, 4)]
    details.append(check_beta_two_to_one(3))
    _report(6, started, details)


def test_criterion_7_iota_invariant():
    """The invariant index of the double cover is 0 for k = 1 and 2 for all
    k >= 2, across genus <= 5 (exhaustive; search cross-checks sampled)."""
    started = time.perf_counter()
    details = [check_iota(g, search_report) for g in (2, 3, 4, 5)]
    # check_iota samples above genus 4; the closed form covers every class
    c5 = standard_curve(5)
    classes = enumerate_two_torsion(c5)
    for eta in classes:
        assert closed_form_report(c5, eta).iota_cliff == (0 if eta.k == 1 else 2), eta
    details.append(f"{len(classes)} genus-5 closed-form values")
    _report(7, started, details)


def test_criterion_8_classification_probes():
    """Genus 5: k = 2 gives unseparated pairs with no base points; k = 3
    gives a trisecant witness with h0(canonical + eta - D) = g - 3 = 2; the
    minimal secant degree equals k throughout."""
    started = time.perf_counter()
    details = [
        check_k2_probe_shape(5, geometry_probes),
        check_k3_trisecant(5, geometry_probes),
        check_min_secant_equals_k(5),
    ]
    # the headline trisecant value g - 3 = 2, spelled out
    c = standard_curve(5)
    eta = [e for e in enumerate_two_torsion(c) if e.k == 3][0]
    witness = closed_form_report(c, eta).witness
    assert h0(c, eta.twist(c.canonical_divisor() - witness)) == 2
    _report(8, started, details)


def test_criterion_9_engine_soundness():
    """Riemann-Roch identity on >= 500 randomized divisors per genus <= 5;
    Mumford/Cantor arithmetic agrees with the h0 equivalence oracle on
    >= 200 randomized degree-0 class pairs; h0(canonical) = g and
    h0(pencil) = 2 on every constructed curve."""
    started = time.perf_counter()
    details = [check_rr_identity(g) for g in (2, 3, 4, 5)]
    details.append(check_cantor_oracle(2))
    details.append(check_cantor_oracle(3))
    details += [check_h0_basics(g) for g in (2, 3, 4, 5, 6, 7)]
    _report(9, started, details)
