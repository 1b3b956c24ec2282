"""Young tableaux and Specht-module representation matrices over Z[v].

The module for a shape is spanned by tableau vectors subject to column
relations (a column transposition flips the sign) and Garnir relations;
straightening rewrites any tableau vector in the standard-tableau basis,
and generator images assembled column by column give integer-polynomial
representation matrices for the deformed symmetric-group algebra.

Straightening multiplies only by signs and powers v^k, k >= 0, so each of its
coefficients is packed as one int sum c_e 2^(64 e), read back by ``qseries._unpack``.
Each cached entry carries a bound on the L1 norm of its coefficients, 1 for a
standard tableau and else the sum of its Garnir summands' bounds; ``qseries._checked``
refuses a bound of 2^63, where a digit could wrap into the next, so every digit unpacks exactly.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, repeat

from . import partitions as pt
from . import qseries
from .errors import ConventionError
from .qseries import (_MINUS_ONE, Combination, LaurentPoly, _add_shifted, _built, _checked, _dense,
                      _unpack)

__all__ = [
    "Tableau",
    "shape_of",
    "tableau_text",
    "parse_tableau",
    "standard_tableaux",
    "is_column_standard",
    "garnir",
    "SpechtVector",
    "straighten",
    "rep_matrix",
    "rep_word",
    "jucys_murphy",
]

Tableau = tuple[tuple[int, ...], ...]


def shape_of(t: Tableau) -> pt.Partition:
    return tuple(map(len, t))


def tableau_text(t: Tableau) -> str:
    sep = "" if sum(map(len, t)) <= 9 else ","
    return "/".join(sep.join(map(str, row)) for row in t)


def parse_tableau(text: str) -> Tableau:
    comma = "," in text
    return tuple(tuple(map(int, chunk.split(",") if comma else chunk)) for chunk in text.split("/"))


def is_column_standard(t: Tableau) -> bool:
    pt.check_partition(shape_of(t))
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
    """Every standard tableau of the shape, in the basis order.

    The entries 1, 2, ... are placed in turn, each at the end of every row
    where the filling stays standard.  A partial filling is its row lengths
    and the chain (row of its last entry, chain of the entries before).
    """
    shape = pt.check_partition(shape)
    m = sum(shape)
    fillings = [((0,) * len(shape), ())]
    for _ in range(m):
        fillings = [(ends[:r] + (c + 1,) + ends[r + 1:], (r, chain))
                    for ends, chain in fillings for r, c in enumerate(ends)
                    if c < shape[r] and (r == 0 or ends[r - 1] > c)]
    out = []
    for _, chain in fillings:
        grid: list[list[int]] = [[] for _ in shape]
        for entry in range(m, 0, -1):
            r, chain = chain
            grid[r].append(entry)
        out.append(tuple(tuple(row[::-1]) for row in grid))
    return tuple(sorted(out, key=_sort_key))


@lru_cache(maxsize=None)
def _heights(shape: pt.Partition) -> pt.Partition:
    """Column heights of a shape, worked out once per shape."""
    return pt.conjugate(shape)


def _inversions(word) -> int:
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])


def _swap_entries(t: Tableau, a: int, b: int) -> Tableau:
    return tuple(
        tuple(b if e == a else (a if e == b else e) for e in row) for row in t
    )


def _cell(t: Tableau, e: int) -> tuple[int, int]:
    return next((r, row.index(e)) for r, row in enumerate(t) if e in row)


def _column_sort(t: Tableau) -> tuple[int, Tableau]:
    """Sort every column, returning the sign picked up from the column relations."""
    grid = [list(row) for row in t]
    sign = 1
    for c, height in enumerate(_heights(shape_of(t))):
        col = [grid[r][c] for r in range(height)]
        if _inversions(col) % 2:
            sign = -sign
        col.sort()
        for r in range(height):
            grid[r][c] = col[r]
    return sign, tuple(tuple(row) for row in grid)


def _crossings(left, right) -> int:
    """Pairs (a, b), a in left and b in right, with a > b; right increases."""
    return sum(map(bisect_left, repeat(right, len(left)), left))


def _garnir_terms(z: Tableau, r0: int, c0: int, heights: pt.Partition):
    """The summands of the Garnir relation at the 0-based violation (r0, c0).

    Each summand is (k, left, right): ``left`` fills column c0 from row r0
    down and ``right`` fills column c0+1 down to row r0, both increasing,
    and the summand's coefficient is (-v)^k.  These cells are one
    contiguous stretch of the column word, so k, the drop in inversions
    from z, is counted on that stretch alone.  Sorted by (k, stretch); the
    first summand is z itself, with k = 0.
    """
    left0 = tuple(z[r][c0] for r in range(r0, heights[c0]))
    right0 = tuple(z[r][c0 + 1] for r in range(r0 + 1))
    entries = sorted(left0 + right0)
    base = _crossings(left0, right0)
    out = []
    for left in combinations(entries, len(left0)):
        right = tuple(e for e in entries if e not in left)
        out.append((base - _crossings(left, right), left, right))
    out.sort()
    return out


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
    r0, c0 = row - 1, col - 1
    if c0 + 1 >= len(z[r0]) or z[r0][c0] <= z[r0][c0 + 1]:
        raise ValueError(f"no row violation at ({row}, {col})")
    heights = _heights(shape_of(z))
    out = []
    for k, left, right in _garnir_terms(z, r0, c0, heights):
        grid = [list(rw) for rw in z]
        for r, e in enumerate(left, r0):
            grid[r][c0] = e
        for r, e in enumerate(right):
            grid[r][c0 + 1] = e
        out.append((tuple(map(tuple, grid)), LaurentPoly.q_power(k, -1 if k % 2 else 1)))
    return out


def _sorted_summand(z: Tableau, c0: int, above, below, left, right) -> tuple[int, Tableau]:
    """A Garnir summand of z with columns c0 and c0+1 sorted, and the sign that costs.

    Only those two columns change, and each is two increasing runs: ``above``,
    the rows of z's column c0 above ``left``, and ``left``; ``right`` and
    ``below``, the rows of z's column c0+1 below it.
    """
    sign = -1 if (_crossings(above, left) + _crossings(right, below)) % 2 else 1
    col0 = sorted(above + left)
    col1 = sorted(right + below)
    grid = list(z)
    for r, e in enumerate(col0):
        row = z[r]
        if r < len(col1):
            grid[r] = (*row[:c0], e, col1[r], *row[c0 + 2:])
        else:
            grid[r] = (*row[:c0], e, *row[c0 + 1:])
    return sign, tuple(grid)


class SpechtVector(Combination):
    """Combination of same-shape standard tableaux with Z[v] coefficients; the label is the shape."""

    __slots__ = ()
    _var = "v"
    shape = property(lambda self: self.label)

    def __init__(self, shape: pt.Partition, terms: dict[Tableau, LaurentPoly] | None = None):
        super().__init__(tuple(shape), terms)

    def _ordered(self) -> list[Tableau]:
        return sorted(self.terms, key=_sort_key)

    @staticmethod
    def _key_text(t: Tableau) -> str:
        return f"[{tableau_text(t)}]"


_STRAIGHTEN_CACHE: dict[Tableau, tuple[tuple[tuple[Tableau, int], ...], int]] = {}


def _straighten_sorted(z: Tableau, _active: set[Tableau] | None = None) -> tuple[tuple, int]:
    """A column-standard tableau vector in the standard basis, as its
    (tableau, packed coefficient) pairs and their bound.

    At the first row violation, z is minus the sum of its other Garnir
    summands; each is column-sorted and straightened in turn, and its packed
    coefficients, shifted by v^k, are summed as ints.
    """
    cached = _STRAIGHTEN_CACHE.get(z)
    if cached is not None:
        return cached
    if _active is None:
        _active = set()
    if z in _active:
        raise ConventionError("straightening revisited a tableau (cycle)")
    violation = next(((r, c) for r, rw in enumerate(z) for c in range(len(rw) - 1)
                      if rw[c] > rw[c + 1]), None)
    if violation is None:
        result = (((z, 1),), 1)
    else:
        _active.add(z)
        (r0, c0), heights = violation, _heights(shape_of(z))
        above = tuple(z[r][c0] for r in range(r0))
        below = tuple(z[r][c0 + 1] for r in range(r0 + 1, heights[c0 + 1]))
        digit, acc, bound = qseries._DIGIT, {}, 0
        for k, left, right in _garnir_terms(z, r0, c0, heights)[1:]:
            sign, u = _sorted_summand(z, c0, above, below, left, right)
            f = sign if k % 2 else -sign  # minus the summand's (-v)^k, times the sign
            pairs, b = _straighten_sorted(u, _active)
            bound += b
            for t, c in pairs:
                acc[t] = acc.get(t, 0) + (f * c << digit * k)
        _active.discard(z)
        _checked(bound, lambda: f"straightened coefficients of {tableau_text(z)}")
        result = (tuple((t, c) for t, c in acc.items() if c), bound)
    _STRAIGHTEN_CACHE[z] = result
    return result


def straighten(t: Tableau) -> SpechtVector:
    """Rewrite a tableau vector in the standard basis."""
    pt.check_partition(shape_of(t))
    entries = sorted(e for row in t for e in row)
    if entries != list(range(1, len(entries) + 1)):
        raise ValueError("tableau entries must be a bijective filling by 1..m")
    sign, z = _column_sort(t)
    terms = {b: _unpack(sign * c) for b, c in _straighten_sorted(z)[0]}
    return SpechtVector(shape_of(t), terms)


_V = LaurentPoly.q_power(1)
_V_MINUS_ONE = LaurentPoly({0: -1, 1: 1})


def _generator_image(t: Tableau, i: int) -> dict[Tableau, LaurentPoly]:
    """T_i on a standard tableau vector, straightened, as {tableau: coefficient}.

    With i directly above i+1, T_i acts as -1.  With i directly left of
    i+1, the swap is column-standard and straightens through the cache.
    Otherwise the swap x is standard: T_i t is x when i's column comes
    first, else v x + (v - 1) t.
    """
    (ri, ci), (rj, cj) = _cell(t, i), _cell(t, i + 1)
    if ci == cj:
        return {t: _MINUS_ONE}
    x = _swap_entries(t, i, i + 1)
    if ri == rj:
        return {b: _unpack(c) for b, c in _straighten_sorted(x)[0]}
    if ci < cj:
        return {x: LaurentPoly.one()}
    return {x: _V, t: _V_MINUS_ONE}


def _times(vec: dict[Tableau, LaurentPoly], cols: dict, s: int = 0) -> dict[Tableau, LaurentPoly]:
    """v^s times the sum over u of vec[u] * cols[u], as {tableau: coefficient};
    each product of two coefficients runs over the terms of the shorter one."""
    acc = {}
    for u, c in vec.items():
        for b, d in cols[u].items():
            p, q = (c, d) if len(c.terms) <= len(d.terms) else (d, c)
            t = acc.setdefault(b, {})
            for e, x in p.terms.items():
                _add_shifted(t, q, e + s, 1, x)
    return _built(acc)


@lru_cache(maxsize=None)
def rep_matrix(shape: pt.Partition, i: int) -> tuple[tuple[LaurentPoly, ...], ...]:
    """Matrix of the i-th generator; columns are images of basis vectors."""
    shape = pt.check_partition(shape)
    m = sum(shape)
    if not 1 <= i <= m - 1:
        raise ValueError(f"generator index {i} out of range for m={m}")
    basis = standard_tableaux(shape)
    return tuple(map(tuple, _dense(basis, [_generator_image(t, i) for t in basis])))


def rep_word(shape: pt.Partition, word: tuple[int, ...]) -> list[list[LaurentPoly]]:
    """Matrix of the basis element attached to a reduced generator word,
    as one sparse product per letter, right to left."""
    shape = pt.check_partition(shape)
    m = sum(shape)
    if not all(1 <= i <= m - 1 for i in word):
        raise ValueError(f"generator word {word} out of range for m={m}")
    basis = standard_tableaux(shape)
    gens = {i: {t: _generator_image(t, i) for t in basis} for i in set(word)}
    cols = {t: {t: LaurentPoly.one()} for t in basis}
    for i in reversed(word):
        cols = {t: _times(vec, gens[i]) for t, vec in cols.items()}
    return _dense(basis, cols.values())


def jucys_murphy(shape: pt.Partition, k: int) -> list[list[LaurentPoly]]:
    """The k-th twisted-transposition sum L_k = sum over i < k of v^(i-k) T_(i,k), by
    L_1 = 0 and L_(j+1) = v^-1 T_j (L_j T_j + 1), as T_(i,j+1) = T_j T_(i,j) T_j;
    ``eval_one`` of its entries gives the plain one."""
    shape = pt.check_partition(shape)
    if not 2 <= k <= sum(shape):
        raise ValueError("k out of range")
    basis = standard_tableaux(shape)
    cols = {t: {} for t in basis}
    for j in range(1, k):
        gen = {t: _generator_image(t, j) for t in basis}
        nxt = {}
        for t in basis:
            vec = _times(gen[t], cols)  # column t of L_j T_j
            vec[t] = vec.get(t, LaurentPoly.zero()) + LaurentPoly.one()
            nxt[t] = _times(vec, gen, -1)
        cols = nxt
    return _dense(basis, cols.values())
