"""The twisted Clifford index: closed form, exhaustive search, witnesses.

For a bundle presented by a divisor d with sections on both sides of the
eta-twist, the index is deg d - h0(d) - h0(d twisted) + 1; the curve-level
invariant minimizes over contributing bundles of degree <= g-1.  On these
split hyperelliptic curves the minimum is k-1, witnessed by the sum of the
first k subset points, and the search certifies that against the full
ramification pool.
"""

import json

from prymlab import (
    Divisor,
    clifford_of_divisor,
    closed_form_report,
    enumerate_two_torsion,
    h0,
    search_report,
    standard_curve,
)
from prymlab.serialize import prym_report_to_dict

curve = standard_curve(3)

# One bundle by hand: eta from four points, d = w1 + w2.
eta = [e for e in enumerate_two_torsion(curve) if e.k == 2][0]
d = eta.divisor_pair().positive
print(f"eta = {eta}, d = {d}")
print(f"h0(d) = {h0(curve, d)}, h0(d twisted) = {h0(curve, eta.twist(d))}")
print(f"index of the bundle: {clifford_of_divisor(curve, eta, d)}")

# The curve-level invariant: search vs closed form, for every class.
print("\nk-1 law over all 63 classes:")
agreements = 0
for e in enumerate_two_torsion(curve):
    searched = search_report(curve, e)
    closed = closed_form_report(curve, e)
    if not searched.cliff_eta == closed.cliff_eta == e.k - 1:
        raise SystemExit(f"{e}: search {searched.cliff_eta}, closed form {closed.cliff_eta}, k-1 = {e.k - 1}")
    if searched.cliff_dim != (0, 0):
        raise SystemExit(f"{e}: dimension pair {searched.cliff_dim}, expected (0, 0)")
    agreements += 1
print(f"  search == closed form == k-1 with dimension pair (0,0): {agreements} classes")

# A full report as JSON (this is what the CLI emits).
report = search_report(curve, eta, include_probes=True)
print("\nsearch report for one class:")
print(json.dumps(prym_report_to_dict(report, curve), indent=2, sort_keys=True)[:600] + " ...")

# Restricted pools give honest upper bounds and say so.
tiny = search_report(curve, eta, pool=[curve.weierstrass_point("w8")], max_degree=1)
print(f"\npool {{w8}} finds: cliff_eta = {tiny.cliff_eta} (pool: {tiny.pool_description})")
