"""Representation matrices and height-model configuration sums.

Straightens tableau vectors to print a generator matrix, verifies the
defining relations, then compares a configuration sum against its closed
form and the minimal-model character it converges to.
"""

from fcl.branching import abf_closed, rocha_caridi, x_limit
from fcl.paths import abf_sum_direct
from fcl.specht import rep_matrix, rep_word, standard_tableaux, straighten, tableau_text

shape = (3, 2)
print("standard tableaux of (3,2):", [tableau_text(t) for t in standard_tableaux(shape)])
print("straighten the swap 1<->2 of 123/45:", straighten(((2, 1, 3), (4, 5))).to_text())

print()
print("generator matrix T_1 (dots for zeros):")
for row in rep_matrix(shape, 1):
    print("  ", [e.to_text("v") if not e.is_zero() else "." for e in row])

print("braid relation holds:", rep_word(shape, (1, 2, 1)) == rep_word(shape, (2, 1, 2)))

print()
L, a, b, c = 4, 1, 1, 2
for m in (0, 2, 4, 6, 8):
    direct = abf_sum_direct(L, a, b, c, m)
    closed = abf_closed(L, a, b, c, m)
    off = closed.min_exp() - direct.min_exp()
    print(f"m={m}: sum {direct.to_text():28s} closed/offset q^{off}")
print("limit series     :", x_limit(L, a, b, c, 8).to_poly().to_text())
print("vacuum character :", rocha_caridi(3, 1, 1, 8).to_poly().to_text())
