"""The level-1 q-deformed Fock space for affine type A.

Basis vectors are indexed by partitions.  The generator action inserts or
removes single nodes of a fixed residue i, weighted by a signed count of the
addable (+1) and removable (-1) i-nodes strictly to one side of the touched
node in column order: f_i multiplies by q^count, counting strictly to the
right in lam; e_i by q^-count, counting strictly to the left in the smaller
partition (validated by relation_check).

Both read one sweep per partition, ``partitions._inodes``, which lists the
i-nodes in column order: f_i walks it from the right and e_i from the left,
keeping the running count.  Only for n = 1 can an addable and a removable
i-node share a column, and only then does removing a node change the count
to its left; each walk corrects for that in one line.  Each output
coefficient is summed as integer exponents and built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from . import partitions as pt
from .errors import ExactDivisionError
from .qseries import LaurentPoly, gauss_balanced, q_fact, q_int

__all__ = [
    "FockVector",
    "f_apply",
    "e_apply",
    "diag_apply",
    "divided_f",
    "relation_check",
    "RelationReport",
]


class FockVector:
    """Finitely-supported combination of partitions with LaurentPoly coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[pt.Partition, LaurentPoly] | None = None):
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "terms", {k: v for k, v in (terms or {}).items() if not v.is_zero()}
        )

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("FockVector is immutable")

    @staticmethod
    def _of(n: int, terms: dict[pt.Partition, LaurentPoly]) -> "FockVector":
        """Wrap ``terms`` as they are; the caller guarantees no zero coefficient."""
        v = object.__new__(FockVector)
        object.__setattr__(v, "n", n)
        object.__setattr__(v, "terms", terms)
        return v

    @staticmethod
    def basis(n: int, lam: pt.Partition) -> "FockVector":
        return FockVector(n, {tuple(lam): LaurentPoly.one()})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam: pt.Partition) -> LaurentPoly:
        return self.terms.get(tuple(lam), LaurentPoly.zero())

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.n != other.n:
            raise ValueError("mixed moduli")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, LaurentPoly.zero()) + v
        return FockVector(self.n, out)

    def __sub__(self, other: "FockVector") -> "FockVector":
        if self.n != other.n:
            raise ValueError("mixed moduli")
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out[k] - v if k in out else -v
        return FockVector(self.n, out)

    def scaled(self, c: LaurentPoly) -> "FockVector":
        return FockVector(self.n, {k: v * c for k, v in self.terms.items()})

    def minus_scaled(self, other: "FockVector", c: LaurentPoly) -> "FockVector":
        """self - c * other, in one pass.

        Each coefficient that other touches is summed as exponent numerators
        on the common lattice and built once; the rest are kept as they are.
        """
        if self.n != other.n:
            raise ValueError("mixed moduli")
        den = lcm(_lattice(self), _lattice(other), c.den)
        fc = den // c.den
        minus_c = [(k * fc, -v) for k, v in c.terms.items()]
        acc: dict[pt.Partition, dict[int, int]] = {}
        for lam, b in other.terms.items():
            t = acc[lam] = {}
            a = self.terms.get(lam)
            if a is not None:
                _add_shifted(t, a, 0, den)
            fb = den // b.den
            for kb, vb in b.terms.items():
                kb *= fb
                for kc, vc in minus_c:
                    k = kb + kc
                    t[k] = t.get(k, 0) + vb * vc
        built = _build(self.n, acc, den).terms
        out = dict(self.terms)
        out.update(built)
        for lam in acc.keys() - built.keys():
            out.pop(lam, None)
        return FockVector._of(self.n, out)

    def map_coeffs(self, f) -> "FockVector":
        return FockVector(self.n, {k: f(v) for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def support(self) -> list[pt.Partition]:
        return sorted(self.terms, reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for lam in self.support():
            c = self.terms[lam]
            ctext = c.to_text()
            if len(c.terms) > 1 or ctext.startswith("-"):
                ctext = f"({ctext})"
            chunks.append(f"{ctext} * v[{pt.format_partition(lam)}]")
        return " + ".join(chunks)

    def __repr__(self):
        return f"FockVector({self.to_text()!r})"


def _lattice(u: FockVector) -> int:
    """The common exponent denominator of u's coefficients."""
    den = 1
    for c in u.terms.values():
        if c.den != den:
            den = lcm(den, c.den)
    return den


def _add_shifted(t: dict[int, int], c: LaurentPoly, e: int, den: int) -> None:
    """Add q**e * c into the numerators ``t`` of the lattice ``den``."""
    f = den // c.den
    e *= den
    for k, v in c.terms.items():
        k = k * f + e
        t[k] = t.get(k, 0) + v


def _build(n: int, acc: dict[pt.Partition, dict[int, int]], den: int) -> FockVector:
    """The FockVector of the accumulated numerators, each coefficient built once."""
    out = {}
    for nu, t in acc.items():
        if 0 in t.values():  # contributions cancelled
            t = {k: v for k, v in t.items() if v}
        if t:
            out[nu] = LaurentPoly._from_canonical(t) if den == 1 else LaurentPoly(t, den)
    return FockVector._of(n, out)


def f_apply(i: int, u: FockVector) -> FockVector:
    """Lowering generator: add one i-node, weighted by the right count."""
    n = u.n
    den = _lattice(u)
    acc: dict[pt.Partition, dict[int, int]] = {}
    for lam, c in u.terms.items():
        count = 0
        for r, col, s in reversed(pt._inodes(lam, n, i)):
            if s > 0:
                w = count
                if n == 1 and r and lam[r - 1] == col:
                    w += 1  # n = 1: the counted removable end of row r-1 is in this column
                _add_shifted(acc.setdefault(pt._grown(lam, r), {}), c, w, den)
            count += s
    return _build(n, acc, den)


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
                _add_shifted(acc.setdefault(pt._shrunk(lam, r), {}), c, -w, den)
            count += s
    return _build(n, acc, den)


def diag_apply(kind: str, lam: pt.Partition, n: int, i: int = 0) -> LaurentPoly:
    """Eigenvalue of q^(h_i) (kind='h') or q^D (kind='D') on a basis vector."""
    if kind in ("h", "h_i"):
        return LaurentPoly.q_power(sum(s for _, _, s in pt._inodes(lam, n, i)))
    if kind in ("D", "d"):
        return LaurentPoly.q_power(-pt.residue_counts(lam, n)[0])
    raise ValueError(f"unknown diagonal kind {kind!r}")


def divided_f(i: int, k: int, u: FockVector) -> FockVector:
    """Divided power f_i^(k): apply f_i k times, then divide by [k]!."""
    if k < 1:
        raise ValueError("k must be >= 1")
    v = u
    for _ in range(k):
        v = f_apply(i, v)
    if k == 1:  # [1]! = 1
        return v
    fact = q_fact(k)
    try:
        return v.map_coeffs(lambda c: c.exact_div(fact))
    except ExactDivisionError as exc:  # pragma: no cover - indicates a rule bug
        raise ExactDivisionError(f"divided power not exact at k={k}: {exc}") from exc


@dataclass
class RelationReport:
    n: int
    max_weight: int
    ok: bool
    failures: list[str] = field(default_factory=list)


def relation_check(n: int, m: int = 6) -> RelationReport:
    """Verify the defining relations on the span of all partitions of <= m.

    Checks [e_i, f_j], both q-Serre relations, and the weight compatibility
    of e_i/f_i with the q^(h_i) eigenvalues.  Failure is reported as data.
    """
    report = RelationReport(n=n, max_weight=m, ok=True)
    basis = [
        lam for size in range(m + 1) for lam in pt.enumerate_partitions(size)
    ]
    alpha = [pt.weight_basics(n, j)[0] for j in range(n)]

    def fail(msg: str):
        report.ok = False
        report.failures.append(msg)

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
    return report
