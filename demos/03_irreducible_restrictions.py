"""Counting the labels whose restriction stays irreducible.

Three independent tests agree: the crystal eps-profile, the border-edge
sums, and the canonical-basis restriction row.  Their generating series by
core are branching functions; this prints both routes side by side.
"""

from fcl.branching import branching_series_stable, chi_js, fermionic_poly
from fcl.canonical import js_canonical
from fcl.crystal import js_crystal
from fcl.partitions import enumerate_partitions, format_partition
from fcl.paths import chi_js_direct, js_combinatorial, js_members

n = 3
print("all three tests on the 3-regular partitions of 6:")
for lam in enumerate_partitions(6, regular=3):
    flags = (js_crystal(lam, n), js_combinatorial(lam, n), js_canonical(lam, n))
    assert len(set(flags)) == 1
    print(f"  {format_partition(lam):12s} {'irreducible' if flags[0] else '-'}")

print()
for core in ((), (1,), (2,), (1, 1)):
    closed = chi_js(n, core, 2).coeffs_upto(2)
    direct = chi_js_direct(n, core, 2).coeffs_upto(2)
    print(f"core {format_partition(core):4s}: series {closed} (direct {direct})")
    members = js_members(n, core, 2)
    print("           weight-2 members:", ", ".join(format_partition(x) for x in members))

print()
print("the same numbers from the constant-sign formula (sector j=0, target (1,2)):")
fb = fermionic_poly(3, 0, (1, 2), 12)
print("  polynomial:", fb.normalized.to_text())
print("  normalizing shift q^max(0, s + t - n):", fb.shift)
print("  stabilized series:", branching_series_stable(3, 0, (1, 2), 6).coeffs_upto(6))
