"""Young tableaux and Specht-module representation matrices over Z[v].

The module for a shape is spanned by tableau vectors subject to column
relations (a column transposition flips the sign) and Garnir relations;
straightening rewrites any tableau vector in the standard-tableau basis,
and generator images assembled column by column give integer-polynomial
representation matrices for the deformed symmetric-group algebra.
"""

from __future__ import annotations

from functools import lru_cache

from . import partitions as pt
from .errors import StraighteningError
from .qseries import LaurentPoly

__all__ = [
    "Tableau",
    "shape_of",
    "tableau_text",
    "parse_tableau",
    "t_minus",
    "standard_tableaux",
    "is_column_standard",
    "column_word",
    "precedes",
    "perm_length",
    "garnir",
    "SpechtVector",
    "straighten",
    "rep_matrix",
    "rep_word",
    "jucys_murphy",
    "specialize",
    "cyclotomic_poly",
]

Tableau = tuple[tuple[int, ...], ...]


def shape_of(t: Tableau) -> pt.Partition:
    return tuple(len(row) for row in t)


def tableau_text(t: Tableau) -> str:
    m = sum(len(row) for row in t)
    if m <= 9:
        return "/".join("".join(str(e) for e in row) for row in t)
    return "/".join(",".join(str(e) for e in row) for row in t)


def parse_tableau(text: str) -> Tableau:
    comma_form = "," in text
    rows = []
    for chunk in text.split("/"):
        if comma_form:
            rows.append(tuple(int(x) for x in chunk.split(",")))
        else:
            rows.append(tuple(int(ch) for ch in chunk))
    return tuple(rows)


def t_minus(shape: pt.Partition) -> Tableau:
    """Entries 1..m filled down the leftmost column first."""
    cols = pt.conjugate(shape)
    grid = [[0] * p for p in shape]
    entry = 1
    for c, height in enumerate(cols):
        for r in range(height):
            grid[r][c] = entry
            entry += 1
    return tuple(tuple(row) for row in grid)


def is_column_standard(t: Tableau) -> bool:
    for r in range(len(t) - 1):
        for c in range(len(t[r + 1])):
            if t[r][c] > t[r + 1][c]:
                return False
    return True


def _entry_rows(t: Tableau) -> dict[int, int]:
    return {e: r for r, row in enumerate(t) for e in row}


def _sort_key(t: Tableau):
    """Rows of the entries read from the largest entry down.

    This is the deterministic basis order: the leading tableau fills the
    leftmost column first, and the order reproduces the printed generator
    matrices.
    """
    rows = _entry_rows(t)
    m = len(rows)
    return tuple(rows[e] for e in range(m, 0, -1))


@lru_cache(maxsize=None)
def standard_tableaux(shape: pt.Partition) -> tuple[Tableau, ...]:
    shape = pt.check_partition(shape)
    m = sum(shape)
    out: list[Tableau] = []

    def rec(sub: list[int], grid: list[list[int]], entry: int):
        if entry > m:
            out.append(tuple(tuple(row[: shape[r]]) for r, row in enumerate(grid)))
            return
        for r in range(len(shape)):
            c = sub[r]
            if c >= shape[r]:
                continue
            if r > 0 and sub[r - 1] <= c:
                continue
            grid[r][c] = entry
            sub[r] += 1
            rec(sub, grid, entry + 1)
            sub[r] -= 1
        return

    rec([0] * len(shape), [[0] * (shape[0] if shape else 0) for _ in shape], 1)
    out.sort(key=_sort_key)
    return tuple(out)


def column_word(t: Tableau) -> tuple[int, ...]:
    """Entries read down the leftmost column, then subsequent columns."""
    shape = shape_of(t)
    cols = pt.conjugate(shape)
    return tuple(t[r][c] for c, height in enumerate(cols) for r in range(height))


def precedes(a: int, b: int, t: Tableau) -> bool:
    word = column_word(t)
    return word.index(a) < word.index(b)


def perm_length(t: Tableau) -> int:
    """Inversions of the permutation carrying the column-first filling to t."""
    word = column_word(t)
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def _swap_entries(t: Tableau, a: int, b: int) -> Tableau:
    return tuple(
        tuple(b if e == a else (a if e == b else e) for e in row) for row in t
    )


def _column_sort(t: Tableau) -> tuple[int, Tableau]:
    """Sort every column, returning the sign picked up from the column relations."""
    shape = shape_of(t)
    cols = pt.conjugate(shape)
    grid = [list(row) for row in t]
    sign = 1
    for c, height in enumerate(cols):
        col = [grid[r][c] for r in range(height)]
        inv = sum(
            1
            for i in range(height)
            for j in range(i + 1, height)
            if col[i] > col[j]
        )
        if inv % 2:
            sign = -sign
        col.sort()
        for r in range(height):
            grid[r][c] = col[r]
    return sign, tuple(tuple(row) for row in grid)


def garnir(z: Tableau, row: int, col: int) -> list[tuple[Tableau, LaurentPoly]]:
    """The straightening relation at a row violation of a column-standard tableau.

    ``row``/``col`` are 1-based; the entry at (row, col) must exceed the entry
    at (row, col+1).  The permuted node set is the violating pair together
    with everything below the left node and above the right node; summands
    run over fillings increasing down both column segments.  Coefficients are
    normalized so the input tableau carries coefficient 1 and the whole
    relation sums to zero.
    """
    if not is_column_standard(z):
        raise ValueError("Garnir relation needs a column-standard tableau")
    shape = shape_of(z)
    cols = pt.conjugate(shape)
    r0, c0 = row - 1, col - 1
    if c0 + 1 >= shape[r0] or z[r0][c0] <= z[r0][c0 + 1]:
        raise ValueError(f"no row violation at ({row}, {col})")
    left = [(r, c0) for r in range(r0, cols[c0])]
    right = [(r, c0 + 1) for r in range(0, r0 + 1)]
    entries = sorted(z[r][c] for r, c in left + right)
    lz = perm_length(z)
    out: list[tuple[Tableau, LaurentPoly]] = []
    from itertools import combinations

    for lset in combinations(entries, len(left)):
        rset = [e for e in entries if e not in lset]
        grid = [list(rw) for rw in z]
        for (r, c), e in zip(left, lset):
            grid[r][c] = e
        for (r, c), e in zip(right, rset):
            grid[r][c] = e
        t = tuple(tuple(rw) for rw in grid)
        k = lz - perm_length(t)
        coeff = LaurentPoly.q_power(k, -1 if k % 2 else 1)
        out.append((t, coeff))
    out.sort(key=lambda pair: (pair[1].min_exp(), column_word(pair[0])))
    return out


class SpechtVector:
    """Combination of same-shape standard tableaux with Z[v] coefficients."""

    __slots__ = ("shape", "terms")

    def __init__(self, shape: pt.Partition, terms: dict[Tableau, LaurentPoly] | None = None):
        object.__setattr__(self, "shape", tuple(shape))
        object.__setattr__(
            self, "terms", {k: v for k, v in (terms or {}).items() if not v.is_zero()}
        )

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("SpechtVector is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, t: Tableau) -> LaurentPoly:
        return self.terms.get(t, LaurentPoly.zero())

    def __add__(self, other: "SpechtVector") -> "SpechtVector":
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, LaurentPoly.zero()) + v
        return SpechtVector(self.shape, out)

    def scaled(self, c: LaurentPoly) -> "SpechtVector":
        return SpechtVector(self.shape, {k: v * c for k, v in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, SpechtVector):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.terms.items()))))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for t in sorted(self.terms, key=_sort_key):
            c = self.terms[t].to_text("v")
            if " " in c or c.startswith("-"):
                c = f"({c})"
            chunks.append(f"{c} * [{tableau_text(t)}]")
        return " + ".join(chunks)

    def __repr__(self):
        return f"SpechtVector({self.to_text()!r})"


def _first_violation(t: Tableau) -> tuple[int, int] | None:
    for r, rw in enumerate(t):
        for c in range(len(rw) - 1):
            if rw[c] > rw[c + 1]:
                return r + 1, c + 1
    return None


_STRAIGHTEN_CACHE: dict[Tableau, tuple[tuple[Tableau, LaurentPoly], ...]] = {}


def _straighten_sorted(
    z: Tableau, _active: set[Tableau] | None = None
) -> tuple[tuple[Tableau, LaurentPoly], ...]:
    """Express a column-standard tableau vector in the standard basis."""
    cached = _STRAIGHTEN_CACHE.get(z)
    if cached is not None:
        return cached
    if _active is None:
        _active = set()
    if z in _active:
        raise StraighteningError("straightening revisited a tableau (cycle)")
    violation = _first_violation(z)
    if violation is None:
        result = ((z, LaurentPoly.one()),)
    else:
        _active.add(z)
        acc: dict[Tableau, LaurentPoly] = {}
        for t, coeff in garnir(z, *violation):
            if t == z:
                continue
            sign, sorted_t = _column_sort(t)
            factor = coeff if sign == 1 else -coeff
            for b, c in _straighten_sorted(sorted_t, _active):
                acc[b] = acc.get(b, LaurentPoly.zero()) - factor * c
        _active.discard(z)
        result = tuple((b, c) for b, c in acc.items() if not c.is_zero())
    _STRAIGHTEN_CACHE[z] = result
    return result


def straighten(t: Tableau) -> SpechtVector:
    """Rewrite a tableau vector in the standard basis."""
    entries = sorted(e for row in t for e in row)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError("tableau entries must be a bijective filling by 1..m")
    sign, z = _column_sort(t)
    terms = {
        b: (c if sign == 1 else -c) for b, c in _straighten_sorted(z)
    }
    return SpechtVector(shape_of(t), terms)


def _generator_image(t: Tableau, i: int) -> SpechtVector:
    """T_i on a standard tableau vector, straightened."""
    x = _swap_entries(t, i, i + 1)
    if precedes(i, i + 1, t):
        return straighten(x)
    v = LaurentPoly.q_power(1)
    return straighten(x).scaled(v) + SpechtVector(
        shape_of(t), {t: LaurentPoly({0: -1, 1: 1})}
    )


def _rows(basis: tuple[Tableau, ...], cols: list[SpechtVector]) -> list[list[LaurentPoly]]:
    """Dense rows of the matrix whose j-th column is cols[j]."""
    index = {t: k for k, t in enumerate(basis)}
    dense = [[LaurentPoly.zero()] * len(basis) for _ in cols]
    for col, vec in zip(dense, cols):
        for b, c in vec.terms.items():
            col[index[b]] = c
    return [list(row) for row in zip(*dense)]


@lru_cache(maxsize=None)
def rep_matrix(shape: pt.Partition, i: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Matrix of the i-th generator; columns are images of basis vectors."""
    shape = pt.check_partition(shape)
    m = sum(shape)
    if not 1 <= i <= m - 1:
        raise ValueError(f"generator index {i} out of range for m={m}")
    basis = standard_tableaux(shape)
    return tuple(map(tuple, _rows(basis, [_generator_image(t, i) for t in basis])))


def _word_image(t: Tableau, word: tuple[int, ...], images: dict) -> SpechtVector:
    """A generator word on a standard tableau vector, letters right to left.

    Each letter T_i sums the straightened images of the current tableaux,
    memoized in ``images`` by (tableau, i), into one dict.
    """
    vec = SpechtVector(shape_of(t), {t: LaurentPoly.one()})
    for i in reversed(word):
        acc: dict[Tableau, LaurentPoly] = {}
        for u, c in vec.terms.items():
            img = images.get((u, i))
            if img is None:
                img = images[(u, i)] = _generator_image(u, i)
            for b, d in img.terms.items():
                prev = acc.get(b)
                acc[b] = c * d if prev is None else prev + c * d
        vec = SpechtVector(vec.shape, acc)
    return vec


def rep_word(shape: pt.Partition, word: tuple[int, ...]) -> list[list[LaurentPoly]]:
    """Matrix of the basis element attached to a reduced generator word."""
    shape = pt.check_partition(shape)
    m = sum(shape)
    if not all(1 <= i <= m - 1 for i in word):
        raise ValueError(f"generator word {word} out of range for m={m}")
    basis = standard_tableaux(shape)
    images: dict = {}
    return _rows(basis, [_word_image(t, word, images) for t in basis])


def _transposition_word(i: int, k: int) -> tuple[int, ...]:
    """Reduced word for the transposition (i, k), i < k."""
    up = list(range(i, k))
    down = list(range(k - 2, i - 1, -1))
    return tuple(up + down)


def jucys_murphy(shape: pt.Partition, k: int, use_v: bool = True) -> list[list[LaurentPoly]]:
    """The k-th twisted-transposition sum; q=1 flag gives the plain one."""
    shape = pt.check_partition(shape)
    if not 2 <= k <= sum(shape):
        raise ValueError("k out of range")
    basis = standard_tableaux(shape)
    words = [(LaurentPoly.q_power(i - k), _transposition_word(i, k)) for i in range(1, k)]
    images: dict = {}
    cols = []
    for t in basis:
        col = SpechtVector(shape)
        for scale, word in words:
            col = col + _word_image(t, word, images).scaled(scale)
        cols.append(col)
    total = _rows(basis, cols)
    if not use_v:
        total = [
            [LaurentPoly.const(x.eval_one()) for x in row] for row in total
        ]
    return total


@lru_cache(maxsize=None)
def cyclotomic_poly(k: int) -> tuple[int, ...]:
    """Coefficients of the k-th cyclotomic polynomial, ascending degree."""
    if k < 1:
        raise ValueError("k must be >= 1")
    num = LaurentPoly({0: -1, k: 1})  # v^k - 1
    for d in range(1, k):
        if k % d == 0:
            num = num.exact_div(LaurentPoly(dict(enumerate(cyclotomic_poly(d)))))
    return tuple(num.terms.get(e, 0) for e in range(max(num.terms) + 1))


def _reduce_cyclotomic(p: LaurentPoly, k: int) -> tuple[int, ...]:
    """Image of an integer Laurent polynomial in Z[v]/(k-th cyclotomic)."""
    if p.den != 1:
        raise ValueError("fractional exponents cannot be specialized")
    phi = list(cyclotomic_poly(k))
    deg = len(phi) - 1
    coeffs = [0] * k
    for e, c in p.terms.items():
        coeffs[e % k] += c  # v^k = 1 holds in the quotient
    for top in range(k - 1, deg - 1, -1):
        q = coeffs[top]  # phi is monic
        if q:
            pos = top - deg
            for j, pc in enumerate(phi):
                coeffs[pos + j] -= q * pc
    return tuple(coeffs[:deg])


def specialize(mat, v0):
    """Evaluate a Z[v] matrix at an integer or at a primitive root of unity.

    ``v0`` is either an integer or ("root", k); the latter returns entries as
    coefficient tuples in the quotient by the k-th cyclotomic polynomial.
    """
    if isinstance(v0, int):
        return [[x.eval_int(v0) for x in row] for row in mat]
    kind, k = v0
    if kind != "root":
        raise ValueError("v0 must be an int or ('root', k)")
    return [[_reduce_cyclotomic(x, k) for x in row] for row in mat]
