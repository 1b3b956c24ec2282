"""Lower global basis of the basic representation inside the q-Fock space.

Each n-regular mu starts from A(mu) = f_r^(k) G(mu_bar), mu_bar being mu
without its highest ladder (k nodes of residue r); Gaussian correction
against the finished basis vectors removes the bar-noninvariant part of every
other coefficient, leaving the canonical column d_(lambda,mu)(q).  Finished
columns share one tuple per partition and one LaurentPoly per coefficient.
Evaluating at q=1 gives the decomposition matrix of the type-A Hecke algebra
at an n-th root of unity; pushing the lowering operators through the basis
gives restriction multiplicities.
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
    "DecompositionMatrix",
    "global_lower_basis",
    "global_basis_vectors",
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
    return all(lam == mu or pt.dominates(mu, lam) for lam in vec.terms)


def _top_ladder(mu: pt.Partition, n: int) -> tuple[int, int, pt.Partition]:
    """(r, k, mu_bar): the highest ladder of mu holds k nodes of residue r; mu_bar lacks them."""
    top, res, k = ladders(mu, n)[-1]
    rows = [p - (r + (n - 1) * (p - 1) == top) for r, p in enumerate(mu, start=1)]
    if sum(rows) != sum(mu) - k or any(a < b for a, b in zip(rows, rows[1:])):
        raise ConventionError(f"top ladder of {mu} has a node that is not a row end")
    return res, k, tuple(p for p in rows if p)


# Finished columns share their keys and coefficients through these tables.
_PARTS: dict[pt.Partition, pt.Partition] = {}
_COEFFS: dict[LaurentPoly, LaurentPoly] = {}


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


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2 (q is a primitive n-th root of unity), got {n}")


@lru_cache(maxsize=None)
def global_basis_vectors(n: int, m: int) -> dict[pt.Partition, FockVector]:
    """The basis vectors G(mu) for all n-regular mu of m."""
    return _bases(n, m)[m]


def _bases(n: int, m: int) -> list[dict[pt.Partition, FockVector]]:
    """G(mu) for the n-regular mu of each size 0..m, smallest size first.

    The smaller sizes are this call's own, so its cost does not depend on
    earlier calls.  Ascending lex order within a size (a linear extension of
    dominance) makes every correction target available when it is needed.
    """
    _check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    sizes: list[dict[pt.Partition, FockVector]] = []
    for s in range(m + 1):
        regulars = sorted(pt.enumerate_partitions(s, regular=n), reverse=True)
        done: dict[pt.Partition, FockVector] = {}
        sizes.append(done)
        for mu in reversed(regulars):  # ascending lex = dominance-compatible
            vec = FockVector.basis(n, ())  # G(()); every other mu starts from f_r^(k) G(mu_bar)
            if mu:
                res, k, bar = _top_ladder(mu, n)
                vec = divided_f(res, k, sizes[s - k][bar])
            if not _leading_ok(vec, mu):
                raise ConventionError(f"start for {mu} has no unit dominance-triangular leading term")
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
            terms = {_PARTS.setdefault(lam, lam): _COEFFS.setdefault(c, c)
                     for lam, c in vec.terms.items()}
            done[_PARTS.setdefault(mu, mu)] = FockVector._of(n, terms)
    return sizes


def global_lower_basis(n: int, m: int) -> DecompositionMatrix:
    vecs = global_basis_vectors(n, m)
    rows = pt.enumerate_partitions(m)
    cols = pt.enumerate_partitions(m, regular=n)
    entries = [[vecs[mu].coeff(lam) for mu in cols] for lam in rows]
    return DecompositionMatrix(n, m, rows, cols, entries)


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
    low, high = _bases(n, m)[-2:]
    rows = pt.enumerate_partitions(m, regular=n)
    cols = pt.enumerate_partitions(m - 1, regular=n)
    coeffs: dict[tuple[pt.Partition, pt.Partition], LaurentPoly] = {}
    for mu in cols:
        vec = FockVector(n, {})
        for i in {(p - r) % n for lam in low[mu].terms  # the addable nodes' residues
                  for r, p in enumerate(lam + (0,)) if not r or lam[r - 1] > p}:
            vec = vec + f_apply(i, low[mu])
        for lam in rows:  # descending lex order, as the elimination needs
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

