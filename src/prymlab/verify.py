"""Deterministic verification suites.

Every suite is a fixed, named list of checks, run in declaration order; a
check either returns a short detail string (pass) or raises ClaimFailure
through `require` (fail).  `require` is an explicit raise, not an `assert`,
so `python -O` cannot silence a check.  Randomized checks seed their
generators from the claim id, so a suite run is a pure function of
(name, genus_max).

The six claims that read full-pool search reports (iota among them) call
one `functools.cache` of `search_report` per run: a class is searched the
first time a claim asks for it, once per run, and the cache dies with the
run.  The four claims that read geometry probes share a second cache, of
`geometry_probes`, so each class is probed at most once per run.  Each
check takes its sample sizes from its genus; class enumerations are
exhaustive through genus EXHAUSTIVE_TO.

Suite names: riemann-roch, two-torsion, prym-clifford,
classification-probes, scroll, and all.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache, partial
from math import comb
from typing import Callable, Sequence

from .curves import Divisor, HyperellipticCurve, curve_with_marked_point, standard_curve
from .jacobian import (
    TwoTorsionClass,
    canonical_subsets,
    cantor_add,
    enumerate_two_torsion,
    mumford_of_divisor,
    subset_divisor,
    two_torsion_from_subset,
    validate_mumford,
)
from .prym import (
    GeometryProbes,
    PrymReport,
    clifford_of_divisor,
    closed_form_report,
    contributes,
    geometry_probes,
    min_secant_degree,
    search_report,
    secant_membership,
)
from .riemann_roch import h0, is_linearly_equivalent, riemann_roch_space, valuation
from .scroll import park_parameters, scroll_report

SUITE_NAMES = (
    "riemann-roch",
    "two-torsion",
    "prym-clifford",
    "classification-probes",
    "scroll",
    "all",
)

EXHAUSTIVE_TO = 4  # the genus through which class claims enumerate every class


@dataclass(frozen=True)
class VerificationCheck:
    claim: str
    status: str  # "pass" | "fail"
    detail: str


@dataclass(frozen=True)
class VerificationSuite:
    name: str
    genus_max: int
    checks: tuple[VerificationCheck, ...]
    elapsed_seconds: float

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.status == "pass")

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if c.status == "fail")

    @property
    def ok(self) -> bool:
        return self.failed == 0


class ClaimFailure(Exception):
    """A checked claim does not hold; `run_suite` reports it as a failure."""


def require(cond: bool, msg: str = "assertion failed") -> None:
    """Fail the running check with `msg` unless `cond` holds."""
    if not cond:
        raise ClaimFailure(msg)


# ---------------------------------------------------------------------------
# sampling helpers


def sample_etas_for_k(curve: HyperellipticCurve, k: int, count: int = 3) -> list[TwoTorsionClass]:
    """Deterministic spread of `count` >= 2 classes with invariant k: first,
    evenly spaced middles, and last subset in lexicographic order.  Every k
    has at least 15 canonical subsets, more than any count asked for."""
    combos = canonical_subsets(curve, k)
    picks = sorted({round(i * (len(combos) - 1) / (count - 1)) for i in range(count)})
    return [two_torsion_from_subset(curve, combos[i]) for i in picks]


def sample_etas(curve: HyperellipticCurve, per_k: int = 3) -> list[TwoTorsionClass]:
    out: list[TwoTorsionClass] = []
    for k in range(1, (curve.genus + 1) // 2 + 1):
        out.extend(sample_etas_for_k(curve, k, per_k))
    return out


def _etas_for(curve: HyperellipticCurve) -> list[TwoTorsionClass]:
    """Every class through genus EXHAUSTIVE_TO, a sample above it."""
    return enumerate_two_torsion(curve) if curve.genus <= EXHAUSTIVE_TO else sample_etas(curve)


def _random_divisor(rng: random.Random, points: Sequence, max_support: int = 4) -> Divisor:
    support = rng.sample(list(points), k=rng.randint(1, min(max_support, len(points))))
    terms = []
    for p in support:
        n = 0
        while n == 0:
            n = rng.randint(-2, 3)
        terms.append((p, n))
    return Divisor(terms)


def _base_points(curve, divisor, probes) -> set:
    """Probe points p with h0(D - p) = h0(D), i.e. base points of |D|."""
    value = h0(curve, divisor)
    if value < 1:
        return set()
    return {p for p in probes if h0(curve, divisor - Divisor.of_point(p)) == value}


# ---------------------------------------------------------------------------
# engine soundness checks


def check_rr_identity(genus: int) -> str:
    """h0(D) - h0(K - D) = deg D - g + 1 on randomized divisors, exactly."""
    trials = 500 if genus <= 5 else 150
    marked_curve, marked = curve_with_marked_point(genus)
    arenas = [
        (standard_curve(genus), standard_curve(genus).weierstrass_points),
        (marked_curve, marked_curve.weierstrass_points + (marked, marked.conjugate())),
    ]
    rng = random.Random(f"rr-identity:{genus}")
    per_arena = (trials + 1) // 2
    for curve, points in arenas:
        canonical = curve.canonical_divisor()
        for _ in range(per_arena):
            d = _random_divisor(rng, points)
            got = h0(curve, d) - h0(curve, canonical - d)
            want = d.degree - genus + 1
            require(got == want, f"identity failed on {d}: {got} != {want}")
    return f"{2 * per_arena} randomized divisors across 2 curves"


def check_h0_basics(genus: int) -> str:
    """h0 of the canonical class is g; h0 of the pencil is 2."""
    for curve in (standard_curve(genus), curve_with_marked_point(genus)[0]):
        require(h0(curve, curve.canonical_divisor()) == genus)
        require(h0(curve, curve.pencil_divisor()) == 2)
    return "canonical and pencil dimensions on 2 curves"


def check_monotonicity(genus: int) -> str:
    """h0(D) <= h0(D + p) <= h0(D) + 1."""
    trials = 80 if genus <= 4 else 40
    curve, marked = curve_with_marked_point(genus)
    points = curve.weierstrass_points + (marked, marked.conjugate())
    rng = random.Random(f"monotonicity:{genus}")
    for _ in range(trials):
        d = _random_divisor(rng, points)
        p = rng.choice(list(points))
        lo = h0(curve, d)
        hi = h0(curve, d + Divisor.of_point(p))
        require(lo <= hi <= lo + 1, f"monotonicity failed at {d} + {p}")
    return f"{trials} randomized (divisor, point) pairs"


def check_structure_theorem(genus: int) -> str:
    """Every special effective divisor, minus its base points, is a multiple
    of the degree-2 pencil: all of them through genus 4, 60 sampled above."""
    curve = standard_curve(genus)
    points = curve.weierstrass_points
    pencil = curve.pencil_divisor()
    combos = [
        c
        for degree in range(1, genus)
        for c in itertools.combinations_with_replacement(points, degree)
    ]
    if genus > 4:
        combos = random.Random(f"structure:{genus}").sample(combos, 60)
    checked = 0
    for combo in combos:
        d = Divisor.of_points(combo)
        r = h0(curve, d) - 1
        stripped = d
        while True:
            value = h0(curve, stripped)
            base = next(
                (p for p in stripped.support if h0(curve, stripped - Divisor.of_point(p)) == value),
                None,
            )
            if base is None:
                break
            stripped = stripped - Divisor.of_point(base)
        require(stripped.degree == 2 * r, f"{d}: stripped degree {stripped.degree} != 2r = {2 * r}")
        require(is_linearly_equivalent(curve, stripped, r * pencil), f"{d} fails the pencil form")
        checked += 1
    return f"{checked} effective divisors of degree <= g-1"


def check_basis_valuations(genus: int) -> str:
    """Each basis function of L(D) satisfies div(phi) + D >= 0 at the
    support of D, its conjugates, and infinity."""
    trials = 25 if genus <= 4 else 10
    curve, marked = curve_with_marked_point(genus)
    points = curve.weierstrass_points + (marked, marked.conjugate())
    rng = random.Random(f"basis-valuations:{genus}")
    functions = 0
    for _ in range(trials):
        d = _random_divisor(rng, points, max_support=3)
        space = riemann_roch_space(curve, d)
        probe_points = {p for p in d.support} | {p.conjugate() for p in d.support}
        for phi in space.basis:
            for p in probe_points:
                require(
                    valuation(curve, phi, p) >= -d.coefficient(p),
                    f"basis element {phi} of L({d}) too singular at {p}",
                )
            require(valuation(curve, phi, curve.infinity) >= -d.coefficient(curve.infinity))
            functions += 1
    return f"{functions} basis functions over {trials} spaces"


def check_cantor_oracle(genus: int) -> str:
    """Mumford-class equality agrees with the h0 linear-equivalence oracle
    on randomized degree-0 class pairs; half the pairs are equivalent by
    construction via principal divisors."""
    pairs = 120 if genus <= 3 else 60
    curve, marked = curve_with_marked_point(genus)
    ws = curve.weierstrass_points
    affine = [w for w in ws if not w.is_infinity]
    oo = Divisor.of_point(curve.infinity)
    principal = [2 * Divisor.of_point(w) - 2 * oo for w in affine]
    principal.append(
        Divisor.of_point(marked) + Divisor.of_point(marked.conjugate()) - 2 * oo
    )
    principal.append(Divisor.of_points(affine) - (2 * genus + 1) * oo)
    points = ws + (marked, marked.conjugate())
    rng = random.Random(f"cantor-oracle:{genus}")
    for trial in range(pairs):
        d1 = _random_divisor(rng, points)
        if trial % 2 == 0:
            d2 = d1
            for _ in range(rng.randint(1, 3)):
                d2 = d2 + rng.choice(principal)
        else:
            d2 = _random_divisor(rng, points)
            d2 = d2 + (d1.degree - d2.degree) * oo
        m1 = mumford_of_divisor(curve, d1)
        m2 = mumford_of_divisor(curve, d2)
        validate_mumford(curve, m1)
        validate_mumford(curve, m2)
        same_class = m1 == m2
        oracle = is_linearly_equivalent(curve, d1, d2)
        require(same_class == oracle, f"Cantor vs h0 disagree on {d1} ~ {d2}")
        if trial % 2 == 0:
            require(oracle, f"principal-divisor pair not equivalent: {d1} ~ {d2}")
    return f"{pairs} degree-0 class pairs"


# ---------------------------------------------------------------------------
# 2-torsion checks


def check_two_torsion_count(genus: int) -> str:
    """2^{2g} - 1 nontrivial classes with the right per-k histogram."""
    curve = standard_curve(genus)
    classes = enumerate_two_torsion(curve)
    require(len(classes) == 2 ** (2 * genus) - 1, f"count {len(classes)}")
    require(len(set(classes)) == len(classes), "duplicate canonical classes")
    histogram = Counter(c.k for c in classes)
    for k in range(1, (genus + 1) // 2 + 1):
        want = comb(2 * genus + 2, 2 * k)
        if 2 * k == genus + 1:
            want //= 2
        require(histogram[k] == want, f"k={k}: {histogram[k]} != {want}")
    return f"{len(classes)} classes, histogram {sorted(histogram.items())}"


def check_beta_injective(genus: int) -> str:
    """Distinct subsets of size 2k <= g give distinct classes, certified by
    the h0 oracle pairwise: every subset through genus 4, 25 per k above."""
    curve = standard_curve(genus)
    total = 0
    for k in range(1, genus // 2 + 1):
        combos = list(itertools.combinations(range(1, 2 * genus + 3), 2 * k))
        if genus > 4:
            combos = random.Random(f"beta-injective:{genus}:{k}").sample(combos, 25)
        divisors = [two_torsion_from_subset(curve, c).beta_divisor() for c in combos]
        for (c1, d1), (c2, d2) in itertools.combinations(zip(combos, divisors), 2):
            require(
                not is_linearly_equivalent(curve, d1, d2),
                f"subsets {c1} and {c2} give equivalent classes",
            )
            total += 1
    return f"{total} pairs distinguished"


def check_beta_two_to_one(genus: int) -> str:
    """At 2k = g+1 complementary subsets give the same class and nothing
    else collides: every subset at genus 3, above it 20 sampled subsets and
    their complements."""
    require(genus % 2 == 1, "2:1 fibers need odd genus")
    curve = standard_curve(genus)
    n = 2 * genus + 2
    size = genus + 1
    full = frozenset(range(1, n + 1))
    combos = [frozenset(c) for c in itertools.combinations(range(1, n + 1), size)]
    if genus > 3:
        picked = random.Random(f"beta-two-to-one:{genus}").sample(combos, 20)
        combos = picked + [full - c for c in picked]
    writings: dict[TwoTorsionClass, list[frozenset]] = {}
    for c in dict.fromkeys(combos):  # dedupe, order-preserving
        eta = two_torsion_from_subset(curve, c)
        writings.setdefault(eta, []).append(c)
    fibers = 0
    for eta, members in writings.items():
        for m in members[1:]:
            require(m == full - members[0], f"non-complementary fiber {members}")
            require(
                is_linearly_equivalent(
                    curve, subset_divisor(curve, members[0]), subset_divisor(curve, m)
                ),
                f"complementary writings of {eta} not equivalent",
            )
            fibers += 1
    others = list(writings)[:30]
    for a, b in itertools.combinations(others, 2):
        require(
            not is_linearly_equivalent(curve, a.beta_divisor(), b.beta_divisor()),
            f"distinct classes {a} and {b} collide",
        )
    return f"{fibers} complementary fibers equivalent, {comb(len(others), 2)} cross-pairs distinct"


def _unrank_pair(n: int, index: int) -> tuple[int, int]:
    """The index-th pair of itertools.combinations(range(n), 2)."""
    def before(i: int) -> int:  # the pairs whose first entry is below i
        return i * n - i * (i + 1) // 2

    i = bisect_right(range(n - 1), index, key=before) - 1
    return i, i + 1 + index - before(i)


def check_group_closure(genus: int) -> str:
    """Symmetric difference is a group law: involution, closure, and
    agreement between subset, Cantor, and h0 composition on all pairs, or
    on 150 sampled pairs where there are more (genus >= 3)."""
    curve = standard_curve(genus)
    classes = enumerate_two_torsion(curve)
    class_set = set(classes)
    n = len(classes)
    rng = random.Random(f"group-closure:{genus}")
    if comb(n, 2) > 150:
        # the same draw as sampling the list of all pairs, without building it
        pairs = [_unrank_pair(n, index) for index in rng.sample(range(comb(n, 2)), 150)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    for c in classes:
        require(c.combine(c).is_trivial, f"{c} + {c} not trivial")
    for i, j in pairs:
        a, b = classes[i], classes[j]
        c = a.combine(b)
        require(c.is_trivial or c in class_set, f"{a} + {b} escaped the enumeration")
        require(c == b.combine(a), "symmetric difference not commutative")
        cantor = cantor_add(curve, a.mumford(), b.mumford())
        require(cantor == c.mumford(), f"Cantor sum of {a}, {b} disagrees with subsets")
        require(
            is_linearly_equivalent(curve, a.beta_divisor() + b.beta_divisor(), c.beta_divisor()),
            f"h0 oracle rejects {a} + {b} = {c}",
        )
    return f"{len(classes)} involutions, {len(pairs)} composition pairs"


def check_distinct_k_distinct_class(genus: int) -> str:
    """Classes with different invariant k are never equivalent."""
    curve = standard_curve(genus)
    by_k: dict[int, list[TwoTorsionClass]] = {}
    for c in enumerate_two_torsion(curve):
        by_k.setdefault(c.k, []).append(c)
    rng = random.Random(f"distinct-k:{genus}")
    ks = sorted(by_k)
    checked = 0
    for k1, k2 in itertools.combinations(ks, 2):
        for _ in range(min(40, len(by_k[k1]) * len(by_k[k2]))):
            a = rng.choice(by_k[k1])
            b = rng.choice(by_k[k2])
            require(not is_linearly_equivalent(curve, a.beta_divisor(), b.beta_divisor()))
            checked += 1
    return f"{checked} cross-k pairs distinct"


# ---------------------------------------------------------------------------
# index checks


def check_search_matches_closed_form(genus: int, search: Callable[..., PrymReport]) -> str:
    """Full-pool search returns k-1 with dimension pair (0, 0), matching the
    closed form, for every (or every sampled) class."""
    curve = standard_curve(genus)
    etas = _etas_for(curve)
    for eta in etas:
        report = search(curve, eta)
        closed = closed_form_report(curve, eta)
        require(
            report.cliff_eta == closed.cliff_eta == eta.k - 1,
            f"{eta}: search {report.cliff_eta}, closed {closed.cliff_eta}, k-1 {eta.k - 1}",
        )
        require(report.cliff_dim == (0, 0), f"{eta}: dimension pair {report.cliff_dim}")
    return f"{len(etas)} classes agree at k-1 with pair (0,0)"


def check_zero_classification(
    genus: int, search: Callable[..., PrymReport], probe: Callable[..., GeometryProbes]
) -> str:
    """Index 0 occurs exactly for k = 1, and then the twisted canonical
    system has exactly the two subset points as base points."""
    curve = standard_curve(genus)
    etas = _etas_for(curve)
    zeros = 0
    for eta in etas:
        value = search(curve, eta).cliff_eta
        require((value == 0) == (eta.k == 1), f"{eta}: value {value}, k {eta.k}")
        if eta.k == 1:
            probes = probe(curve, eta)
            expected = {curve.weierstrass_point(i) for i in eta.subset}
            require(set(probes.base_points) == expected, f"{eta}: base points {probes.base_points}")
            zeros += 1
    return f"{zeros} base-point classes verified among {len(etas)}"


def check_upper_bound_attained(genus: int, search: Callable[..., PrymReport]) -> str:
    """Every index is <= floor((g-1)/2) and the ceiling is attained.

    Above genus EXHAUSTIVE_TO the ceiling certificate is a full search at
    maximal k; the per-class values come from witness-certified closed forms.
    """
    curve = standard_curve(genus)
    ceiling = (genus - 1) // 2
    if genus <= EXHAUSTIVE_TO:
        values = [search(curve, eta).cliff_eta for eta in enumerate_two_torsion(curve)]
    else:
        values = [closed_form_report(curve, eta).cliff_eta for eta in enumerate_two_torsion(curve)]
        k_max = (genus + 1) // 2
        for eta in sample_etas_for_k(curve, k_max, 3):
            require(search(curve, eta).cliff_eta == k_max - 1)
    require(all(0 <= v <= ceiling for v in values), "a value escaped the bounds")
    require(max(values) == ceiling, f"max {max(values)} != ceiling {ceiling}")
    return f"max over {len(values)} classes is {ceiling}"


def check_dimension_pairs(genus: int, search: Callable[..., PrymReport]) -> str:
    """The dimension pair is always (0,0): never (0, r' >= 1), never (1,1)."""
    curve = standard_curve(genus)
    etas = _etas_for(curve)
    for eta in etas:
        pair = search(curve, eta).cliff_dim
        require(pair is not None and not (pair[0] == 0 and pair[1] >= 1), f"{eta}: {pair}")
        require(pair != (1, 1), f"{eta}: pair (1,1)")
        require(pair == (0, 0), f"{eta}: pair {pair}")
    return f"{len(etas)} dimension pairs all (0,0)"


def check_index_symmetry(genus: int) -> str:
    """The index of a bundle equals that of its twist and of its canonical
    residual whenever all of them contribute."""
    curve = standard_curve(genus)
    points = curve.weierstrass_points
    canonical = curve.canonical_divisor()
    rng = random.Random(f"index-symmetry:{genus}")
    etas = sample_etas(curve, 2)
    checked = 0
    for _ in range(40):
        eta = rng.choice(etas)
        degree = rng.randint(1, genus - 1)
        d = Divisor.of_points(rng.choice(points) for _ in range(degree))
        if not contributes(curve, eta, d):
            continue
        value = clifford_of_divisor(curve, eta, d)
        require(clifford_of_divisor(curve, eta, eta.twist(d)) == value)
        require(clifford_of_divisor(curve, eta, canonical - d) == value)
        checked += 1
    require(checked > 0, "no contributing samples drawn")
    return f"{checked} contributing bundles symmetric"


def check_witness_base_disjoint(genus: int, search: Callable[..., PrymReport]) -> str:
    """A witness of the minimal index and its twist share no base point."""
    curve = standard_curve(genus)
    probes = curve.weierstrass_points
    etas = sample_etas(curve)
    for eta in etas:
        witness = search(curve, eta).witness
        shared = _base_points(curve, witness, probes) & _base_points(
            curve, eta.twist(witness), probes
        )
        require(not shared, f"{eta}: witness {witness} shares base points {shared}")
    return f"{len(etas)} witnesses checked"


def check_iota(genus: int, search: Callable[..., PrymReport]) -> str:
    """The invariant index of the double cover is 0 for k = 1 and 2 for
    k >= 2 (gonality 2 caps the second argument of the minimum), from the
    closed form for every (or every sampled) class and from the search on
    the middle of each k's three sampled classes, which the run's cache
    already holds."""
    curve = standard_curve(genus)
    etas = _etas_for(curve)
    for eta in etas:
        expected = 0 if eta.k == 1 else 2
        require(closed_form_report(curve, eta).iota_cliff == expected, f"{eta}")
    sampled = [sample_etas_for_k(curve, k)[1] for k in range(1, (genus + 1) // 2 + 1)]
    for eta in sampled:
        require(search(curve, eta).iota_cliff == (0 if eta.k == 1 else 2), f"{eta}")
    return f"{len(etas)} closed-form values, {len(sampled)} search values"


# ---------------------------------------------------------------------------
# classification probes


def check_base_points_k1(genus: int, probe: Callable[..., GeometryProbes]) -> str:
    """k = 1 classes have exactly their two subset points as base points of
    the twisted canonical system; k >= 2 classes have none."""
    curve = standard_curve(genus)
    etas = [e for e in _etas_for(curve) if e.k == 1]
    others = [e for e in sample_etas(curve, 2) if e.k >= 2]
    for eta in etas:
        probes = probe(curve, eta)
        expected = {curve.weierstrass_point(i) for i in eta.subset}
        require(set(probes.base_points) == expected, f"{eta}: {probes.base_points}")
    for eta in others:
        require(not probe(curve, eta).base_points, f"{eta} has base points")
    return f"{len(etas)} base-point classes, {len(others)} free classes"


def check_k2_probe_shape(genus: int, probe: Callable[..., GeometryProbes]) -> str:
    """k = 2: base point free but some pair of points is not separated."""
    require(genus >= 3)
    curve = standard_curve(genus)
    etas = sample_etas_for_k(curve, 2, 3)
    for eta in etas:
        probes = probe(curve, eta)
        require(not probes.base_points, f"{eta} has base points")
        require(probes.unseparated_pairs, f"{eta} separates all pairs")
    return f"{len(etas)} classes at k=2"


def check_k3_trisecant(genus: int, probe: Callable[..., GeometryProbes]) -> str:
    """k = 3: the embedded curve has a trisecant line; the canonical witness
    (first three subset points) is among the degree-3 witnesses."""
    require(genus >= 5)
    curve = standard_curve(genus)
    etas = sample_etas_for_k(curve, 3, 3)
    for eta in etas:
        probes = probe(curve, eta)
        require(probes.trisecant_witnesses, f"{eta}: no trisecant")
        require(not probes.unseparated_pairs, f"{eta}: not an embedding")
        canonical_witness = closed_form_report(curve, eta).witness
        require(canonical_witness in probes.trisecant_witnesses, f"{eta}: canonical witness missing")
        drop = h0(curve, eta.twist(curve.canonical_divisor() - canonical_witness))
        require(drop == genus - 3, f"{eta}: h0 drop {drop} != g-3")
    return f"{len(etas)} classes at k=3"


def check_min_secant_equals_k(genus: int) -> str:
    """The smallest degree meeting the first secant variety is exactly k."""
    curve = standard_curve(genus)
    checked = 0
    for k in range(1, (genus + 1) // 2 + 1):
        for eta in sample_etas_for_k(curve, k, 3):
            e0 = min_secant_degree(curve, eta)
            require(e0 == k, f"{eta}: e0 = {e0} != k = {k}")
            checked += 1
    return f"{checked} classes, e0 = k throughout"


def check_secant_crosscheck(genus: int) -> str:
    """Secant membership (with its built-in residual cross-check) on
    randomized effective divisors, including non-members."""
    curve = standard_curve(genus)
    points = curve.weierstrass_points
    rng = random.Random(f"secant:{genus}")
    etas = sample_etas(curve, 2)
    members = 0
    for _ in range(60):
        eta = rng.choice(etas)
        e = rng.randint(2, max(2, genus - 1))
        d = Divisor.of_points(rng.choice(points) for _ in range(e))
        f = rng.randint(1, e - 1)
        if secant_membership(curve, eta, d, f):
            members += 1
    return f"60 membership tests ({members} members), cross-check clean"


# ---------------------------------------------------------------------------
# scroll checks


def check_dj_profile(genus: int) -> str:
    """Drop sequences: d_0 = 2, entries non-increasing past the head, sum
    g-1, first 1 at index k-1 (absent exactly when g = 2k-1), type equal to
    the closed form, and depending only on k."""
    curve = standard_curve(genus)
    checked = 0
    for k in range(2, (genus + 1) // 2 + 1):
        sequences = set()
        for eta in sample_etas_for_k(curve, k, 3):
            report = scroll_report(curve, eta)  # raises on a closed-form type mismatch
            drops = report.d_sequence
            require(drops[0] == 2 and sum(drops) == genus - 1)
            tail = drops[1:]
            require(
                all(tail[i] >= tail[i + 1] for i in range(len(tail) - 1)),
                f"{eta}: {drops} not monotone after the head",
            )
            ones = [j for j, d in enumerate(drops) if d == 1]
            if ones:
                require(ones[0] == k - 1, f"{eta}: first 1 at {ones[0]} != k-1")
            else:
                require(genus == 2 * k - 1, f"{eta}: no 1 in {drops} but g != 2k-1")
            require((report.e1, report.e2) == (genus - 1 - k, k - 2))
            sequences.add(drops)
            checked += 1
        require(len(sequences) == 1, f"k={k}: sequences vary with the subset")
    return f"{checked} drop sequences across k = 2..{(genus + 1) // 2}"


def check_park_table() -> str:
    """The resolution-shape table: nu = 5, 4, 3, 3, ... and regularity nu+1
    for k = 3..8; k = 2 is rejected."""
    expected_nu = {3: 5, 4: 4, 5: 3, 6: 3, 7: 3, 8: 3}
    for k, nu_want in expected_nu.items():
        genus = 2 * k - 1  # smallest admissible genus for this k
        nu, p, regularity = park_parameters(genus, k)
        require(nu == nu_want, f"k={k}: nu {nu}")
        require(p == nu * (k - 2) - 2 * k + 1, f"k={k}: p {p}")
        require(regularity == nu + 1, f"k={k}: regularity {regularity}")
    for genus, k, case in ((9, 1, "k=1"), (9, 2, "k=2"), (5, 4, "k above the genus ceiling")):
        try:
            park_parameters(genus, k)
        except ValueError:
            continue
        raise ClaimFailure(f"{case} accepted")
    return "nu, p, regularity for k = 3..8 plus rejection cases"


# ---------------------------------------------------------------------------
# suite assembly


Check = tuple[str, Callable[[], str]]


def _suite_units(
    name: str, genus_max: int, search: Callable[..., PrymReport], probe: Callable[..., GeometryProbes]
) -> list[Check]:
    genera = list(range(2, genus_max + 1))
    units: list[Check] = []

    if name == "riemann-roch":
        for g in genera:
            units.append((f"rr-identity-g{g}", partial(check_rr_identity, g)))
            units.append((f"h0-basics-g{g}", partial(check_h0_basics, g)))
            units.append((f"monotonicity-g{g}", partial(check_monotonicity, g)))
            units.append((f"structure-theorem-g{g}", partial(check_structure_theorem, g)))
            units.append((f"basis-valuations-g{g}", partial(check_basis_valuations, g)))
            units.append((f"cantor-oracle-g{g}", partial(check_cantor_oracle, g)))
    elif name == "two-torsion":
        for g in genera:
            units.append((f"two-torsion-count-g{g}", partial(check_two_torsion_count, g)))
            units.append((f"beta-injective-g{g}", partial(check_beta_injective, g)))
            if g % 2 == 1:
                units.append((f"beta-two-to-one-g{g}", partial(check_beta_two_to_one, g)))
            units.append((f"group-closure-g{g}", partial(check_group_closure, g)))
            units.append((f"distinct-k-g{g}", partial(check_distinct_k_distinct_class, g)))
    elif name == "prym-clifford":
        for g in genera:
            searched = (g, search)
            units.append(
                (f"search-matches-closed-g{g}", partial(check_search_matches_closed_form, *searched))
            )
            units.append((f"zero-iff-k1-g{g}", partial(check_zero_classification, *searched, probe)))
            units.append((f"bound-attained-g{g}", partial(check_upper_bound_attained, *searched)))
            units.append((f"dimension-pairs-g{g}", partial(check_dimension_pairs, *searched)))
            units.append((f"index-symmetry-g{g}", partial(check_index_symmetry, g)))
            units.append((f"witness-base-disjoint-g{g}", partial(check_witness_base_disjoint, *searched)))
            units.append((f"iota-g{g}", partial(check_iota, *searched)))
    elif name == "classification-probes":
        for g in genera:
            units.append((f"base-points-k1-g{g}", partial(check_base_points_k1, g, probe)))
            if g >= 3:
                units.append((f"k2-shape-g{g}", partial(check_k2_probe_shape, g, probe)))
            if g >= 5:
                units.append((f"k3-trisecant-g{g}", partial(check_k3_trisecant, g, probe)))
            units.append((f"min-secant-e0-g{g}", partial(check_min_secant_equals_k, g)))
            units.append((f"secant-crosscheck-g{g}", partial(check_secant_crosscheck, g)))
    elif name == "scroll":
        units.append(("park-table", check_park_table))
        for g in genera:
            if g >= 3:
                units.append((f"dj-profile-g{g}", partial(check_dj_profile, g)))
    elif name == "all":
        for sub in SUITE_NAMES[:-1]:
            units.extend(_suite_units(sub, genus_max, search, probe))
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    return units


def run_suite(name: str, genus_max: int) -> VerificationSuite:
    """Run a named suite up to the given genus ceiling.

    Exhaustive class enumerations stop at genus EXHAUSTIVE_TO; higher
    genera are covered on deterministic samples.  Each class is searched and
    probed at most once per call: the claims call one `functools.cache` of
    `search_report` and one of `geometry_probes`, made here and dropped on
    return, so no report outlives the run; a call that raises is not cached,
    so every claim that reads it fails.  The result is a pure function of
    (name, genus_max).
    """
    if genus_max < 2:
        raise ValueError("genus_max must be >= 2")
    units = _suite_units(name, genus_max, cache(search_report), cache(geometry_probes))
    started = time.perf_counter()
    checks = []
    for claim, fn in units:
        try:
            checks.append(VerificationCheck(claim, "pass", fn()))
        except ClaimFailure as exc:
            checks.append(VerificationCheck(claim, "fail", str(exc)))
        except Exception as exc:  # noqa: BLE001 - a crash is a failed claim
            checks.append(VerificationCheck(claim, "fail", f"{type(exc).__name__}: {exc}"))
    elapsed = time.perf_counter() - started
    return VerificationSuite(
        name=name, genus_max=genus_max, checks=tuple(checks), elapsed_seconds=elapsed
    )
