"""How the index value is reflected in the geometry of the twisted
canonical map to P^{g-2}.

k = 1: the system has exactly two base points (the subset points).
k = 2: base point free, but some pairs of points are never separated.
k = 3: an embedding whose image has a trisecant line.
The minimal degree e with a divisor on the first secant variety is k.
"""

from prymlab import (
    closed_form_report,
    enumerate_two_torsion,
    geometry_probes,
    min_secant_degree,
    secant_membership,
    standard_curve,
)

curve = standard_curve(5)
by_k = {}
for eta in enumerate_two_torsion(curve):
    by_k.setdefault(eta.k, eta)

for k in (1, 2, 3):
    eta = by_k[k]
    probe = geometry_probes(curve, eta)
    e0 = min_secant_degree(curve, eta)
    print(f"k = {k} ({eta}):")
    print(f"  base points          : {[str(p) for p in probe.base_points]}")
    print(f"  unseparated pairs    : {len(probe.unseparated_pairs)}")
    print(f"  trisecant witnesses  : {len(probe.trisecant_witnesses)}")
    print(f"  minimal secant degree: {e0} (= k)")

# Secant membership is a single h0 inequality, cross-checked internally
# against the residual form.
eta = by_k[3]
witness = closed_form_report(curve, eta).witness
print(f"\n{witness} on the first degree-3 secant variety: "
      f"{secant_membership(curve, eta, witness, f=1)}")
