"""From generator actions to decomposition numbers.

Builds a few Fock-space vectors, walks the crystal with the good-node rule,
and assembles the canonical basis whose q=1 values are the decomposition
numbers of the deformed symmetric-group algebra at a root of unity.
"""

from fcl.cli import dispatch
from fcl.crystal import crystal_graph, signature
from fcl.fock import FockVector, divided_f, f_apply

n = 2
v = FockVector.basis(n, ())
print("f_0 on the vacuum          :", f_apply(0, v).to_text())
print("f_1 f_0 on the vacuum      :", f_apply(1, f_apply(0, v)).to_text())
print("divided square of f_1 there:", divided_f(1, 2, f_apply(0, v)).to_text())

print()
lam = (16, 13, 11, 10, 9, 8, 7, 5, 2)
for i in range(3):
    s = signature(lam, 3, i)
    print(f"signature i={i}: {s.word()}  ->  {s.word(reduced=True)}")

print()
g = crystal_graph(2, 5)
print("crystal component sizes by weight:", [len(v) for _, v in sorted(g.levels().items())])

print()
print("canonical-basis table, n=2, weight 5 (dots are zeros):")
dispatch(["canonical-basis", "--n", "2", "--m", "5"])

print("restriction multiplicities, n=2, weight 3:")
dispatch(["restriction", "--n", "2", "--m", "3"])
