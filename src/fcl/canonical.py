"""Lower global basis of the basic representation inside the q-Fock space.

Each n-regular mu starts from A(mu) = f_r^(k) G(mu_bar), mu_bar being mu
without its highest ladder (k nodes of residue r, all of them row ends, so
the ladder is read from the row ends alone), in one packed lowering whatever
k is; Gaussian correction against the finished basis vectors removes the
bar-noninvariant part of every other coefficient, leaving the canonical
column d_(lambda,mu)(q).  Evaluating at q=1 gives the decomposition matrix
of the type-A Hecke algebra at an n-th root of unity; pushing the lowering
operators through the basis gives restriction multiplicities.

A column is {partition: int}, each coefficient sum c_e q^e packed as
sum c_e 2^(64 (e + off)) with one lift off per column, so that every exponent
e >= -off and every q^w is a left shift; ``qseries._pack`` and ``_unpack``
write and read the digits.  The bar closure, the qZ[q] test and the unit
leading term read the low off + 1 digits, the exponents -off..0.  Each column
carries a bound on the L1 norm of every coefficient: a lowering by f_r^(k)
multiplies it by C(most, k), most being the most removable nodes a partition
of the new size can have, a correction by gamma G(nu) adds |gamma|_1 times
G(nu)'s bound, and a finished column resets it to its largest exact norm.  A
bound of 2^63, where a digit could wrap into the next, is refused before any
digit is read, so every digit unpacks exactly.  Finished columns have lift 0
and share one tuple per partition and one int per coefficient; only the size
asked for is unpacked, into LaurentPoly objects shared through ``_unpack``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import islice, repeat
from math import comb, isqrt

from . import partitions as pt
from . import qseries
from .errors import ConventionError
from .fock import FockVector, _lowerings
from .qseries import LaurentPoly, _checked, _dense, _pack, _unpack

__all__ = [
    "DecompositionMatrix",
    "global_lower_basis",
    "global_basis_vectors",
    "restriction_coeffs",
    "js_canonical",
]


def _top_ladder(mu: pt.Partition, n: int) -> tuple[int, int, pt.Partition]:
    """(r, k, mu_bar): the highest ladder of mu holds k nodes of residue r; mu_bar lacks them.

    The node (row, col) sits on ladder row + (n-1)(col-1), which has residue
    (1 - ladder) mod n, so the highest ladder is met at row ends only: a node left
    of a row end is n-1 ladders lower, and of two rows of equal length the lower
    one's end is the higher, so removing the ends leaves a partition.
    """
    ends = [r + (n - 1) * (p - 1) for r, p in enumerate(mu, start=1)]
    top = max(ends)
    rows = (p - (e == top) for p, e in zip(mu, ends))
    return (1 - top) % n, ends.count(top), tuple(p for p in rows if p)


# Finished columns share their keys and packed coefficients through these tables;
# each packed coefficient is kept with its L1 norm.
_PARTS: dict[pt.Partition, pt.Partition] = {}
_PACKED: dict[int, tuple[int, int]] = {}
Column = dict[pt.Partition, int]  # partition -> packed coefficient


def _lowered(n: int, residues: tuple[int, ...] | set[int], col: Column, bound: int, k: int
             ) -> tuple[Column, int, int]:
    """The sum of f_i^(k) over the residues on a finished packed column (lift 0) with
    coefficient bound: (image, lift, bound).

    Every q^w of ``fock._lowerings`` is a left shift by w plus the lift, which is the most
    negative w.  A partition nu of size s has r removable nodes, r(r+1)/2 <= s, so r is at
    most the largest such r, ``most``; nu is reached from at most C(r, k) partitions, one per
    k-set of its removable nodes, so C(most, k) times the bound bounds the image.
    """
    digit = qseries._DIGIT
    found = [(x, _lowerings(lam, n, i, k)) for lam, x in col.items() for i in residues]
    lift = max(0, -min((w for _, steps in found for _, w in steps), default=0))
    acc: Column = {}
    for x, steps in found:
        for nu, w in steps:
            acc[nu] = acc.get(nu, 0) + (x << digit * (w + lift))
    most = (isqrt(8 * sum(next(iter(acc), ())) + 1) - 1) // 2
    return {nu: x for nu, x in acc.items() if x}, lift, bound * comb(most, k)


def _decoded(n: int, col: Column) -> FockVector:
    return FockVector._of(n, {lam: _unpack(x) for lam, x in col.items()})


def _norm(p: LaurentPoly) -> int:
    return sum(map(abs, p.terms.values()))


def _bar_closure(x: int, off: int) -> tuple[int, int]:
    """The packed bar-invariant polynomial congruent to x mod qZ[q], and its L1 norm.

    x and the result have lift off; the closure reads x's low off + 1 digits, the
    exponents -off..0, and mirrors the negative ones.
    """
    half = 1 << qseries._DIGIT * (off + 1) - 1
    low = ((x + half) & (2 * half - 1)) - half
    terms: dict[int, int] = {}
    for p, c in _unpack(low).terms.items():
        terms[p - off] = terms[off - p] = c
    gamma = LaurentPoly._from_canonical(terms)
    if not gamma.is_bar_invariant():
        raise ConventionError("correction coefficient not bar-invariant")
    return _pack(terms, off), _norm(gamma)


class DecompositionMatrix(namedtuple("DecompositionMatrix", "n m rows cols entries")):
    """Columns d_(lambda,mu)(q) of the lower global basis at a fixed weight."""

    __slots__ = ()

    def entry(self, lam: pt.Partition, mu: pt.Partition) -> LaurentPoly:
        return self.entries[self.rows.index(lam)][self.cols.index(mu)]


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"n must be at least 2 (q is a primitive n-th root of unity), got {n}")


@lru_cache(maxsize=None)
def global_basis_vectors(n: int, m: int) -> dict[pt.Partition, FockVector]:
    """The basis vectors G(mu) for all n-regular mu of m."""
    return {mu: _decoded(n, col) for mu, (col, _) in _bases(n, m)[m].items()}


def _bases(n: int, m: int) -> list[dict[pt.Partition, tuple[Column, int]]]:
    """G(mu) for the n-regular mu of each size 0..m, smallest size first, each as its
    packed column (lift 0) and the largest L1 norm of its coefficients.

    The smaller sizes are this call's own, so its cost does not depend on
    earlier calls.  Ascending lex order within a size (a linear extension of
    dominance) makes every correction target available when it is needed.
    """
    _check_n(n)
    if m < 0:
        raise ValueError("m must be >= 0")
    digit = qseries._DIGIT
    sizes: list[dict[pt.Partition, tuple[Column, int]]] = []
    for s in range(m + 1):
        regulars = sorted(pt.enumerate_partitions(s, regular=n), reverse=True)
        done: dict[pt.Partition, tuple[Column, int]] = {}
        sizes.append(done)
        for j in range(len(regulars) - 1, -1, -1):  # ascending lex = dominance-compatible
            mu = regulars[j]
            col, off, bound = {(): 1}, 0, 1  # G(()); every other mu starts from f_r^(k) G(mu_bar)
            if mu:
                res, k, bar = _top_ladder(mu, n)
                col, off, bound = _lowered(n, (res,), *sizes[s - k][bar], k)
            _checked(bound, lambda: f"column {mu}: coefficients")
            unit = 1 << digit * off
            if col.get(mu) != unit or not all(map(pt.dominates, repeat(mu), col)):
                raise ConventionError(f"start for {mu} has no unit dominance-triangular leading term")
            mask = (1 << digit * (off + 1)) - 1  # the digits of q^-off .. q^0
            for nu in islice(regulars, j + 1, None):  # the start is dominated by mu: lex below it
                x = col.get(nu)
                if x is None or not x & mask:  # in qZ[q]: nothing to correct
                    continue
                gamma, norm = _bar_closure(x, off)
                if nu not in done:
                    raise ConventionError(
                        f"triangularity breach: column {mu} needs uncomputed {nu}"
                    )
                target, target_norm = done[nu]
                for lam, y in target.items():
                    col[lam] = col.get(lam, 0) - gamma * y
                bound += norm * target_norm
                _checked(bound, lambda: f"column {mu}: coefficients")
            for lam, x in col.items():
                if lam != mu and x & mask:
                    raise ConventionError(
                        f"column {mu}: coefficient at {lam} not in qZ[q]: "
                        f"{_unpack(x).shifted(-off).to_text()}"
                    )
            if col.get(mu) != unit:
                raise ConventionError(f"column {mu}: leading coefficient not 1")
            finished: Column = {}
            bound = 0
            for lam, x in col.items():
                if x:
                    x >>= digit * off
                    shared = _PACKED.get(x)
                    if shared is None:
                        shared = _PACKED[x] = (x, _norm(_unpack(x)))
                    finished[_PARTS.setdefault(lam, lam)] = shared[0]
                    if shared[1] > bound:
                        bound = shared[1]
            done[_PARTS.setdefault(mu, mu)] = (finished, bound)
    return sizes


def global_lower_basis(n: int, m: int) -> DecompositionMatrix:
    vecs = global_basis_vectors(n, m)
    cols = pt.enumerate_partitions(m, regular=n)
    rows = pt.enumerate_partitions(m)
    return DecompositionMatrix(n, m, rows, cols, _dense(rows, [vecs[mu].terms for mu in cols]))


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
    columns = []
    for mu in cols:
        col, bound = low[mu]
        residues = {(p - r) % n for lam in col  # the addable nodes' residues
                    for r, p in enumerate(lam + (0,)) if not r or lam[r - 1] > p}
        vec, off, bound = _lowered(n, residues, col, bound, 1)
        coeffs = {}
        for lam in rows:  # descending lex order, as the elimination needs
            x = vec.get(lam)
            if not x:
                continue
            _checked(bound, lambda: f"restriction image of {mu}: coefficients")
            c = coeffs[lam] = _unpack(x).shifted(-off) if off else _unpack(x)
            target, target_norm = high[lam]
            for nu, y in target.items():
                vec[nu] = vec.get(nu, 0) - x * y
            bound += _norm(c) * target_norm
        if any(vec.values()):
            raise ConventionError(
                f"restriction image of {mu} does not lie in the basis span"
            )
        columns.append(coeffs)
    return DecompositionMatrix(n, m, rows, cols, _dense(rows, columns))


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

