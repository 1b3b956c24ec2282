"""The level-1 q-deformed Fock space for affine type A.

Basis vectors are indexed by partitions.  The generator action inserts or
removes single nodes of a fixed residue i, weighted by a signed count of the
addable (+1) and removable (-1) i-nodes strictly to one side of the touched
node in column order: f_i multiplies by q^count, counting strictly to the
right in lam; e_i by q^-count, counting strictly to the left in the smaller
partition (validated by relation_check).

Both read one sweep per partition, ``partitions._inodes``, which lists the
i-nodes in column order: f_i walks it from the right (``_lowerings``, which
the packed canonical columns read too) and e_i from the left, keeping the
running count.  Only for n = 1 can an addable and a removable i-node share a
column, and only then does removing a node change the count to its left;
each walk corrects for that in one line.  Each output
coefficient is summed as integer exponents and built once.

The divided power f_i^(k) = f_i^k / [k]! adds k i-nodes in one step, by the
formula of Lascoux, Leclerc and Thibon (Commun. Math. Phys. 181 (1996)):
f_i^(k) v[lam] sums q^(sum of w(g) over S - k(k-1)/2) v[lam + S] over the
k-sets S of addable i-nodes g, w(g) being g's right count in lam.  (For
n >= 2 an added i-node turns from addable to removable and changes no other
i-node, so the k! orders of adding S sum to q^(sum of w) q^(-k(k-1)/2) [k]!.)
For n = 1 this fails and [k]! need not divide f_0^k: f_0^2 v[()] is
v[2] + q v[1,1].  So divided powers with k >= 2 need n >= 2.

A ``FockVector`` is the one combination type, ``qseries.Combination``,
labelled by n; its arithmetic, ``minus_scaled`` included, lives there.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from . import partitions as pt
from .qseries import (Combination, LaurentPoly, _add_shifted, _built, _lattice, gauss_balanced,
                      q_int)

__all__ = [
    "FockVector",
    "f_apply",
    "e_apply",
    "diag_apply",
    "divided_f",
    "relation_check",
    "RelationReport",
]


class FockVector(Combination):
    """Finite combination of partitions with LaurentPoly coefficients; the label is the modulus n."""

    __slots__ = ()
    n = property(lambda self: self.label)

    @staticmethod
    def basis(n: int, lam: pt.Partition) -> "FockVector":
        return FockVector(n, {tuple(lam): LaurentPoly.one()})

    def support(self) -> list[pt.Partition]:
        return sorted(self.terms, reverse=True)

    _ordered = support

    @staticmethod
    def _key_text(lam: pt.Partition) -> str:
        return f"v[{pt.format_partition(lam)}]"


def _lowerings(lam: pt.Partition, n: int, i: int, k: int) -> list[tuple[pt.Partition, int]]:
    """f_i^(k) on the basis vector lam: (lam plus a k-set of addable i-nodes, exponent of q),
    each set grown row by row in ascending order; the exponent is the set's sum of right
    counts less k(k-1)/2 (module docstring)."""
    adds, count = [], 0  # (row, right count) of each addable i-node, ascending rows
    for r, col, s in reversed(pt._inodes(lam, n, i)):
        if s > 0:
            w = count
            if n == 1 and r and lam[r - 1] == col:
                w += 1  # n = 1: the counted removable end of row r-1 is in this column
            adds.append((r, w))
        count += s
    out, least = [], -k * (k - 1) // 2
    for nodes in combinations(adds, k):
        nu, e = lam, least
        for r, w in nodes:
            nu, e = pt._grown(nu, r), e + w
        out.append((nu, e))
    return out


def f_apply(i: int, u: FockVector) -> FockVector:
    """Lowering generator: add one i-node, weighted by the right count."""
    return divided_f(i, 1, u)


def e_apply(i: int, u: FockVector) -> FockVector:
    """Raising generator: remove one i-node, weighted by the left count."""
    n = u.n
    den = _lattice(u)
    acc: dict[pt.Partition, dict[int, int]] = {}
    for lam, c in u.terms.items():
        count = 0
        for r, _, s in pt._inodes(lam, n, i):
            if s < 0:
                # n = 1 only: either the addable node of row r+1 shares this
                # column (counted, though not strictly left), or removing the
                # node makes (r, col-1) removable (in the smaller partition,
                # not counted); either way the count is one too high.
                w = count - 1 if n == 1 else count
                _add_shifted(acc.setdefault(pt._shrunk(lam, r), {}), c, -w * den, den)
            count += s
    return FockVector._of(n, _built(acc, den))


def diag_apply(kind: str, lam: pt.Partition, n: int, i: int = 0) -> LaurentPoly:
    """Eigenvalue of q^(h_i) (kind='h') or q^D (kind='D') on a basis vector."""
    if kind == "h":
        return LaurentPoly.q_power(sum(s for _, _, s in pt._inodes(lam, n, i)))
    if kind == "D":
        return LaurentPoly.q_power(-pt.residue_counts(lam, n)[0])
    raise ValueError(f"unknown diagonal kind {kind!r}")


def divided_f(i: int, k: int, u: FockVector) -> FockVector:
    """Divided power f_i^(k): add k i-nodes in one step (module docstring)."""
    n = u.n
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > 1 and n < 2:
        raise ValueError(f"divided powers need n >= 2 for k >= 2: [{k}]! does not divide f_0^{k}"
                         " at n = 1")
    den = _lattice(u)
    acc: dict[pt.Partition, dict[int, int]] = {}
    for lam, c in u.terms.items():
        for nu, w in _lowerings(lam, n, i, k):
            _add_shifted(acc.setdefault(nu, {}), c, w * den, den)
    return FockVector._of(n, _built(acc, den))


class RelationReport(namedtuple("RelationReport", "n max_weight failures")):
    __slots__ = ()
    ok = property(lambda self: not self.failures)


def relation_check(n: int, m: int = 6) -> RelationReport:
    """Verify the defining relations on the span of all partitions of <= m.

    Checks [e_i, f_j], both q-Serre relations, and the weight compatibility
    of e_i/f_i with the q^(h_i) eigenvalues.  Failure is reported as data.
    """
    failures: list[str] = []
    fail = failures.append
    basis = [
        lam for size in range(m + 1) for lam in pt.enumerate_partitions(size)
    ]
    alpha = [pt.weight_basics(n, j)[0] for j in range(n)]

    for lam in basis:
        v = FockVector.basis(n, lam)
        ni = [diag_apply("h", lam, n, i) for i in range(n)]
        for i in range(n):
            for j in range(n):
                lhs = e_apply(i, f_apply(j, v)) - f_apply(j, e_apply(i, v))
                if i == j:
                    k = sum(s for _, _, s in pt._inodes(lam, n, i))
                    rhs = v.scaled(q_int(abs(k)) * (1 if k >= 0 else -1))
                else:
                    rhs = FockVector(n, {})
                if lhs != rhs:
                    fail(f"[e_{i}, f_{j}] failed on {lam}")
            # weight compatibility: f_j shifts every h_i eigenvalue by -<alpha_j, h_i>
            for j in range(n):
                for nu in f_apply(j, v).terms:
                    got = diag_apply("h", nu, n, i)
                    want = ni[i].shifted(-alpha[j].pair_h(i))
                    if got != want:
                        fail(f"weight relation failed on {lam} -> {nu} (i={i}, j={j})")
        # q-Serre relations
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                order = 1 - alpha[j].pair_h(i)
                for op in (e_apply, f_apply):
                    acc = FockVector(n, {})
                    for k in range(order + 1):
                        w = v
                        for _ in range(k):
                            w = op(i, w)
                        w = op(j, w)
                        for _ in range(order - k):
                            w = op(i, w)
                        coef = gauss_balanced(order, k)
                        if k % 2:
                            coef = -coef
                        acc = acc + w.scaled(coef)
                    if not acc.is_zero():
                        name = "e" if op is e_apply else "f"
                        fail(f"{name}-Serre failed on {lam} (i={i}, j={j})")
    return RelationReport(n, m, failures)
