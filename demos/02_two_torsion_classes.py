"""The 2-torsion subgroup as combinatorics of ramification points.

Every nontrivial 2-torsion class is an even subset of the 2g+2 ramification
points, unique up to complementation; symmetric difference is the group
law.  The canonical subset size 2k defines the invariant k that drives
every twisted invariant in this package.
"""

from collections import Counter

from prymlab import (
    Divisor,
    cantor_add,
    enumerate_two_torsion,
    is_linearly_equivalent,
    standard_curve,
    two_torsion_from_subset,
)

curve = standard_curve(3)  # genus 3: 2^6 - 1 = 63 classes
classes = enumerate_two_torsion(curve)
histogram = Counter(c.k for c in classes)
print(f"genus {curve.genus}: {len(classes)} nontrivial classes, per k: {dict(histogram)}")

# A subset larger than g+1 is stored as its complement.
eta = two_torsion_from_subset(curve, ["w1", "w2", "w3", "w4", "w5", "w6"])
print(f"\n{{w1..w6}} canonicalizes to {eta} with k = {eta.k}")

# Group law: symmetric difference, checked against Cantor arithmetic in
# Mumford form and against the h0 oracle.
a = two_torsion_from_subset(curve, ["w1", "w2"])
b = two_torsion_from_subset(curve, ["w2", "w3"])
c = a.combine(b)
print(f"\n{a} + {b} = {c}")
print(f"Mumford forms agree: {cantor_add(curve, a.mumford(), b.mumford()) == c.mumford()}")
print(
    "h0 oracle agrees: "
    f"{is_linearly_equivalent(curve, a.beta_divisor() + b.beta_divisor(), c.beta_divisor())}"
)
print(f"every class is an involution: {all(x.combine(x).is_trivial for x in classes)}")

# Splitting the subset into its first k points (positive) and last k
# points (negative) writes the class another way; the two writings differ
# by the principal divisors 2w - 2oo, so they are linearly equivalent.
eta = two_torsion_from_subset(curve, ["w1", "w3", "w5", "w7"])
points = [curve.weierstrass_point(i) for i in sorted(eta.subset)]
positive, negative = Divisor.of_points(points[: eta.k]), Divisor.of_points(points[eta.k :])
print(f"\n{eta}: positive {positive}, negative {negative}")
print(
    "pair writing ~ beta writing: "
    f"{is_linearly_equivalent(curve, positive - negative, eta.beta_divisor())}"
)
