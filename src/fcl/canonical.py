"""Lower global basis of the basic representation inside the q-Fock space.

Each n-regular mu yields a bar-invariant monomial vector A(mu) built from
ladder-wise divided powers; Gaussian correction against previously computed
basis vectors removes the bar-noninvariant part of every other coefficient,
leaving the canonical column d_(lambda,mu)(q).  Evaluating at q=1 gives the
decomposition matrix of the type-A Hecke algebra at an n-th root of unity;
pushing the lowering operators through the basis gives restriction
multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import partitions as pt
from .errors import ConventionError
from .fock import FockVector, divided_f, f_apply
from .qseries import LaurentPoly

__all__ = [
    "ladders",
    "monomial_A",
    "DecompositionMatrix",
    "global_lower_basis",
    "global_basis_vectors",
    "decomposition_matrix",
    "restriction_coeffs",
    "js_canonical",
]


def ladders(mu: pt.Partition, n: int) -> list[tuple[int, int, int]]:
    """Ladder decomposition [(ladder index, residue, node count), ...].

    The node (row, col) sits on ladder row + (n-1)(col-1); every node of a
    ladder has residue (1 - ladder) mod n.  Listed in increasing ladder index.
    """
    pt.check_regular(mu, n)
    counts: dict[int, int] = {}
    for row, p in enumerate(mu, start=1):
        for col in range(1, p + 1):
            ell = row + (n - 1) * (col - 1)
            counts[ell] = counts.get(ell, 0) + 1
    return [(ell, (1 - ell) % n, counts[ell]) for ell in sorted(counts)]


def _leading_ok(vec: FockVector, mu: pt.Partition) -> bool:
    if vec.coeff(mu) != LaurentPoly.one():
        return False
    return all(
        lam == mu or (lam != mu and pt.dominates(mu, lam)) for lam in vec.terms
    )


def monomial_A(mu: pt.Partition, n: int) -> FockVector:
    """Bar-invariant first approximation with unit leading coefficient.

    Applies the ladder divided powers lowest ladder first.
    """
    vec = FockVector.basis(n, ())
    for _, res, k in ladders(mu, n):
        vec = divided_f(res, k, vec)
    if _leading_ok(vec, mu):
        return vec
    raise ConventionError(
        f"monomial for {mu} has no unit dominance-triangular leading term"
    )


def _bar_closure(c: LaurentPoly) -> LaurentPoly:
    """The unique bar-invariant Laurent polynomial congruent to c mod qZ[q]."""
    if c.den != 1:
        raise ConventionError("canonical-basis coefficient off the integer lattice")
    out: dict[int, int] = {}
    for e, k in c.terms.items():
        if e <= 0:
            out[e] = k
            if e < 0:
                out[-e] = k
    return LaurentPoly(out)


@dataclass
class DecompositionMatrix:
    """Columns d_(lambda,mu)(q) of the lower global basis at a fixed weight."""

    n: int
    m: int
    rows: list[pt.Partition]
    cols: list[pt.Partition]
    entries: list[list[LaurentPoly]]

    def entry(self, lam: pt.Partition, mu: pt.Partition) -> LaurentPoly:
        return self.entries[self.rows.index(lam)][self.cols.index(mu)]

    def at_one(self) -> list[list[int]]:
        return [[e.eval_one() for e in row] for row in self.entries]


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2 (q is a primitive n-th root of unity), got {n}")


@lru_cache(maxsize=None)
def global_basis_vectors(n: int, m: int) -> dict[pt.Partition, FockVector]:
    """The basis vectors G(mu) for all n-regular mu of m.

    Processing runs in ascending lexicographic order (a linear extension of
    dominance), so every correction target is already available.
    """
    _check_n(n)
    regulars = sorted(pt.enumerate_partitions(m, regular=n), reverse=True)
    done: dict[pt.Partition, FockVector] = {}
    for mu in reversed(regulars):  # ascending lex = dominance-compatible
        vec = monomial_A(mu, n)
        for nu in regulars:
            c = vec.terms.get(nu)
            if c is None or nu == mu:
                continue
            gamma = _bar_closure(c)
            if gamma.is_zero():
                continue
            if nu not in done:
                raise ConventionError(
                    f"triangularity breach: column {mu} needs uncomputed {nu}"
                )
            if not gamma.is_bar_invariant():
                raise ConventionError("correction coefficient not bar-invariant")
            vec = vec.minus_scaled(done[nu], gamma)
        for lam, c in vec.terms.items():
            if lam != mu and not c.in_qZq():
                raise ConventionError(
                    f"column {mu}: coefficient at {lam} not in qZ[q]: {c.to_text()}"
                )
        if vec.coeff(mu) != LaurentPoly.one():
            raise ConventionError(f"column {mu}: leading coefficient not 1")
        done[mu] = vec
    return done


def global_lower_basis(n: int, m: int) -> DecompositionMatrix:
    vecs = global_basis_vectors(n, m)
    rows = pt.enumerate_partitions(m)
    cols = pt.enumerate_partitions(m, regular=n)
    entries = [[vecs[mu].coeff(lam) for mu in cols] for lam in rows]
    return DecompositionMatrix(n, m, rows, cols, entries)


def decomposition_matrix(n: int, m: int) -> list[list[int]]:
    """Composition multiplicities at an n-th root of unity (q = 1 values)."""
    return global_lower_basis(n, m).at_one()


@lru_cache(maxsize=None)
def restriction_coeffs(n: int, m: int) -> DecompositionMatrix:
    """Matrix c_(lambda,mu)(q), rows over regulars of m, cols of m-1.

    c_(lambda,mu) is the G(lambda) coordinate of (sum_i f_i) G(mu), which by
    adjointness under the contravariant form equals the multiplicity of the
    upper-basis element for mu in the restriction of the one for lambda.
    """
    _check_n(n)
    if m < 1:
        raise ValueError("m must be >= 1")
    low = global_basis_vectors(n, m - 1)
    high = global_basis_vectors(n, m)
    rows = pt.enumerate_partitions(m, regular=n)
    cols = pt.enumerate_partitions(m - 1, regular=n)
    coeffs: dict[tuple[pt.Partition, pt.Partition], LaurentPoly] = {}
    for mu in cols:
        vec = FockVector(n, {})
        for i in range(n):
            vec = vec + f_apply(i, low[mu])
        for lam in sorted(rows, reverse=True):
            c = vec.coeff(lam)
            if c.is_zero():
                continue
            coeffs[(lam, mu)] = c
            vec = vec.minus_scaled(high[lam], c)
        if not vec.is_zero():
            raise ConventionError(
                f"restriction image of {mu} does not lie in the basis span"
            )
    entries = [
        [coeffs.get((lam, mu), LaurentPoly.zero()) for mu in cols] for lam in rows
    ]
    return DecompositionMatrix(n, m, rows, cols, entries)


def js_canonical(lam: pt.Partition, n: int) -> bool:
    """Irreducible restriction via the canonical basis.

    True iff the lam-row of the restriction matrix has exactly one nonzero
    entry, equal to 1 at q = 1.
    """
    pt.check_regular(lam, n)
    if not lam:
        return True
    m = sum(lam)
    mat = restriction_coeffs(n, m)
    row = mat.entries[mat.rows.index(lam)]
    nonzero = [c for c in row if not c.is_zero()]
    return len(nonzero) == 1 and nonzero[0].eval_one() == 1

