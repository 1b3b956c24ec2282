"""Second implementations that the tests compare the library against.

Dense matrices over Z[v] (lists of rows of ``LaurentPoly``) with the plain
triple-loop product, the column-first tableau and the column word with its
inversion count, Specht straightening through whole-tableau Garnir
relations and column sorts with one ``LaurentPoly`` operation per term, the
generator matrices built from it, the generator-word and Jucys-Murphy
matrices as dense products of those, n-rim-hooks found by walking the rim, with
the n-core obtained by removing them one at a time, residue counts row by
row, branching counts that list the edge-sum partitions and classify them
one by one, the edge-sum test as a congruence on each pair of adjacent
blocks, dominance by prefix sums over both partitions padded with zeros,
Gaussian binomials as quotients of q-factorials by long division, divided
powers f_i^(k) as f_i applied k times and divided by [k]!, q-products as
repeated ``TruncatedSeries`` products, the node model of addable and
removable ``Node``s with the classical (q = 1) node operators, the
signature reduced by deleting RA pairs and rescanning (and e~_i, which
removes its good removable node), the crystal graph grown by breadth-first
f~_i steps, the ladders of a partition counted node by node, its top ladder
removed node by node, the lower global basis corrected from ladder monomials
built from the empty partition by those divided powers, the qZ[q] test read
off ``Fraction`` exponents, and restriction
coefficients read off (sum_i f_i) G(mu) by eliminating G(lambda) with
``FockVector`` arithmetic.  The arithmetic of Fock and Specht vectors is checked key by key
with ``LaurentPoly`` operations, polynomial text is built from ``Fraction``
exponents, and a labelled matrix is written cell by cell through one
``csv.writer``.
"""

import csv
import io
import json
from fractions import Fraction
from itertools import combinations
from math import isqrt
from typing import NamedTuple

from fcl import specht
from fcl.canonical import global_basis_vectors
from fcl.crystal import eps_phi
from fcl.fock import FockVector, f_apply
from fcl.partitions import (
    Partition, check_partition, check_regular, conjugate, dominates, enumerate_partitions,
    multiplicities, residue_counts, weight_target_profile,
)
from fcl.paths import ALL_J, fow_classify, js_partitions_upto
from fcl.qseries import LaurentPoly, TruncatedSeries, q_int

Matrix = list[list[LaurentPoly]]
Tableau = specht.Tableau


def mat_identity(k: int) -> Matrix:
    return [
        [LaurentPoly.one() if i == j else LaurentPoly.zero() for j in range(k)]
        for i in range(k)
    ]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    k, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[LaurentPoly.zero()] * cols for _ in range(k)]
    for i in range(k):
        for l in range(mid):
            ail = a[i][l]
            if ail.is_zero():
                continue
            for j in range(cols):
                if not b[l][j].is_zero():
                    out[i][j] = out[i][j] + ail * b[l][j]
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c: LaurentPoly) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


def minus_scaled(u, w, c: LaurentPoly) -> dict:
    """The terms of u - c * w for two combinations, one ``LaurentPoly``
    operation per key, zero coefficients dropped."""
    out = {k: u.coeff(k) - c * w.coeff(k) for k in u.terms.keys() | w.terms.keys()}
    return {k: v for k, v in out.items() if not v.is_zero()}


def t_minus(shape: Partition) -> Tableau:
    """Entries 1..m filled down the leftmost column first."""
    grid = [[0] * p for p in shape]
    entry = 1
    for c, height in enumerate(conjugate(shape)):
        for r in range(height):
            grid[r][c] = entry
            entry += 1
    return tuple(tuple(row) for row in grid)


def column_word(t: Tableau) -> tuple[int, ...]:
    """Entries read down the leftmost column, then subsequent columns."""
    return tuple(t[r][c] for c, height in enumerate(conjugate(specht.shape_of(t)))
                 for r in range(height))


def precedes(a: int, b: int, t: Tableau) -> bool:
    word = column_word(t)
    return word.index(a) < word.index(b)


def perm_length(t: Tableau) -> int:
    """Inversions of the permutation carrying the column-first filling to t."""
    word = column_word(t)
    return sum(1 for i in range(len(word)) for j in range(i + 1, len(word)) if word[i] > word[j])


def garnir(z: Tableau, row: int, col: int) -> list[tuple[Tableau, LaurentPoly]]:
    """The Garnir relation at (row, col), 1-based: every interleaving filled in
    whole, its coefficient (-v)^k with k the drop in inversions of the whole
    column word, sorted by (k, column word)."""
    cols = conjugate(specht.shape_of(z))
    r0, c0 = row - 1, col - 1
    left = [(r, c0) for r in range(r0, cols[c0])]
    right = [(r, c0 + 1) for r in range(0, r0 + 1)]
    entries = sorted(z[r][c] for r, c in left + right)
    lz = perm_length(z)
    out = []
    for lset in combinations(entries, len(left)):
        rset = [e for e in entries if e not in lset]
        grid = [list(rw) for rw in z]
        for (r, c), e in zip(left, lset):
            grid[r][c] = e
        for (r, c), e in zip(right, rset):
            grid[r][c] = e
        t = tuple(tuple(rw) for rw in grid)
        k = lz - perm_length(t)
        out.append((t, LaurentPoly.q_power(k, -1 if k % 2 else 1)))
    out.sort(key=lambda pair: (pair[1].min_exp(), column_word(pair[0])))
    return out


def column_sort(t: Tableau) -> tuple[int, Tableau]:
    """Every column sorted, with the sign of the column relations used."""
    grid = [list(row) for row in t]
    sign = 1
    for c, height in enumerate(conjugate(specht.shape_of(t))):
        col = [grid[r][c] for r in range(height)]
        inv = sum(1 for i in range(height) for j in range(i + 1, height) if col[i] > col[j])
        if inv % 2:
            sign = -sign
        col.sort()
        for r in range(height):
            grid[r][c] = col[r]
    return sign, tuple(tuple(row) for row in grid)


def _straighten_sorted(z: Tableau, memo: dict) -> dict[Tableau, LaurentPoly]:
    """A column-standard tableau in the standard basis: at the first row
    violation, minus the other Garnir summands, column-sorted and
    straightened one LaurentPoly operation at a time."""
    if z in memo:
        return memo[z]
    violation = next(((r + 1, c + 1) for r, rw in enumerate(z)
                      for c in range(len(rw) - 1) if rw[c] > rw[c + 1]), None)
    if violation is None:
        return {z: LaurentPoly.one()}
    acc: dict[Tableau, LaurentPoly] = {}
    for t, coeff in garnir(z, *violation):
        if t == z:
            continue
        sign, sorted_t = column_sort(t)
        factor = coeff if sign == 1 else -coeff
        for b, c in _straighten_sorted(sorted_t, memo).items():
            acc[b] = acc.get(b, LaurentPoly.zero()) - factor * c
    memo[z] = {b: c for b, c in acc.items() if not c.is_zero()}
    return memo[z]


_STRAIGHTENED: dict[Tableau, dict[Tableau, LaurentPoly]] = {}


def straighten(t: Tableau) -> dict[Tableau, LaurentPoly]:
    """Any filling of a shape by 1..m in the standard basis."""
    sign, z = column_sort(t)
    return {b: c if sign == 1 else -c for b, c in _straighten_sorted(z, _STRAIGHTENED).items()}


def generator_image(t: Tableau, i: int) -> dict[Tableau, LaurentPoly]:
    """T_i on a standard tableau: the straightened swap x of i and i+1 when
    i comes first in the column word, else v x + (v - 1) t."""
    x = tuple(tuple(i + 1 if e == i else (i if e == i + 1 else e) for e in row) for row in t)
    img = straighten(x)
    if precedes(i, i + 1, t):
        return img
    out = {b: c * LaurentPoly.q_power(1) for b, c in img.items()}
    out[t] = out.get(t, LaurentPoly.zero()) + LaurentPoly({0: -1, 1: 1})
    return {b: c for b, c in out.items() if not c.is_zero()}


def rep_matrix(shape: Partition, i: int) -> Matrix:
    """Generator matrix whose j-th column is the image of the j-th standard tableau."""
    basis = specht.standard_tableaux(tuple(shape))
    images = [generator_image(t, i) for t in basis]
    return [[img.get(b, LaurentPoly.zero()) for img in images] for b in basis]


def rep_word(shape: Partition, word: tuple[int, ...]) -> Matrix:
    """Product of the generator matrices of a word, multiplied in from the
    right end, so that the sparse generator is always the left factor."""
    basis = specht.standard_tableaux(tuple(shape))
    out = mat_identity(len(basis))
    for i in reversed(word):
        out = mat_mul(rep_matrix(shape, i), out)
    return out


def jucys_murphy(shape: Partition, k: int) -> Matrix:
    """Sum of q^(i-k) times the matrix of the transposition (i, k), i < k."""
    shape = check_partition(shape)
    basis = specht.standard_tableaux(shape)
    total = mat_scale(mat_identity(len(basis)), LaurentPoly.zero())
    for i in range(1, k):
        word = tuple(range(i, k)) + tuple(range(k - 2, i - 1, -1))
        total = mat_add(total, mat_scale(rep_word(shape, word), LaurentPoly.q_power(i - k)))
    return total


def rim_hooks(lam: Partition, n: int) -> list[tuple[tuple[tuple[int, int], ...], Partition]]:
    """Removable n-rim-hooks as (cells, resulting partition) pairs.

    A hook starts at the rightmost node of some row, walks down when a node
    exists directly below, else left, for n nodes.  Walks that leave the
    diagram or whose removal breaks the shape are discarded.
    """
    if n < 1:
        raise ValueError("hook length must be >= 1")
    out = []
    for start in range(len(lam)):
        r, c = start, lam[start]
        cells = [(r + 1, c)]
        ok = True
        for _ in range(n - 1):
            if r + 1 < len(lam) and lam[r + 1] >= c:
                r += 1
            else:
                c -= 1
                if c < 1:
                    ok = False
                    break
            cells.append((r + 1, c))
        if not ok:
            continue
        removed = [0] * len(lam)
        for row, _ in cells:
            removed[row - 1] += 1
        new = [p - k for p, k in zip(lam, removed)]
        if all(new[i] >= new[i + 1] for i in range(len(new) - 1)) and all(
            p >= 0 for p in new
        ):
            out.append((tuple(cells), tuple(p for p in new if p)))
    return out


def beta_hook_results(lam: Partition, n: int) -> list[Partition]:
    """Rim-hook removals via first-column hook lengths (beta numbers)."""
    r = len(lam)
    beta = [lam[i] + r - 1 - i for i in range(r)]
    bset = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b - n >= 0 and b - n not in bset:
            nb = sorted(beta, reverse=True)
            nb[nb.index(b)] = b - n
            nb.sort(reverse=True)
            new = tuple(
                p for p in (nb[j] - (r - 1 - j) for j in range(r)) if p > 0
            )
            out.append(new)
    return out


def n_core_walk(lam: Partition, n: int) -> tuple[Partition, int]:
    """(n-core, n-weight) by removing the first rim hook found until none is left."""
    weight = 0
    cur = lam
    while True:
        hooks = rim_hooks(cur, n)
        if not hooks:
            return cur, weight
        cur = hooks[0][1]
        weight += 1


def edge_sums_ok(lam: Partition, n: int) -> bool:
    """The edge-sum test: a1 + v1 - v2 + a2 = 0 mod n for adjacent blocks
    (v1, a1), (v2, a2) of a1 rows of length v1 above a2 rows of length v2 < v1."""
    mults = multiplicities(lam)
    return all((a1 + v1 - v2 + a2) % n == 0 for (v1, a1), (v2, a2) in zip(mults, mults[1:]))


def dominates_padded(lam: Partition, mu: Partition) -> bool:
    """lam >= mu in dominance order, prefix sums compared over the longer length."""
    s1 = s2 = 0
    for k in range(max(len(lam), len(mu))):
        s1 += lam[k] if k < len(lam) else 0
        s2 += mu[k] if k < len(mu) else 0
        if s1 < s2:
            return False
    return True


def profile_counts(
    n: int, j: int, c: tuple[int, ...], pool: tuple[Partition, ...]
) -> dict[int, int]:
    """E -> number of pool partitions of colour j (or empty) with m_i = E + c_i."""
    out: dict[int, int] = {}
    for lam in pool:
        jj = fow_classify(lam, n)
        if jj != ALL_J and jj != j % n:
            continue
        m = residue_counts_by_row(lam, n)
        e = m[0]
        if all(m[i] == e + c[i] for i in range(n)):
            out[e] = out.get(e, 0) + 1
    return out


def branching_poly_listed(n: int, j: int, target: tuple[int, int], L: int) -> LaurentPoly:
    """Finite branching polynomial over the listed partitions with parts <= L."""
    prof = weight_target_profile(n, j % n, target)
    if prof is None:
        return LaurentPoly.zero()
    pool = js_partitions_upto(n, (n - 1) * L * (L + 1) // 2, max_part=L)
    return LaurentPoly(profile_counts(n, j, prof[0], pool))


def branching_series_listed(
    n: int, j: int, target: tuple[int, int], degree: int
) -> TruncatedSeries:
    """Stabilized branching series over the listed partitions of bounded size."""
    prof = weight_target_profile(n, j % n, tuple(sorted(target)))
    if prof is None:
        return TruncatedSeries({}, 1, degree)
    c, s0 = prof
    pool = js_partitions_upto(n, n * degree + max(s0, 0))
    return TruncatedSeries(profile_counts(n, j, c, pool), 1, degree)


def branching_series_crystal_listed(
    n: int, j: int, target: tuple[int, int], degree: int
) -> TruncatedSeries:
    """Crystal-vertex branching series: the n-regular partitions of n*e + s0
    nodes with residue counts e + c_i whose eps profile is at most [i = j]."""
    prof = weight_target_profile(n, j, target)
    terms: dict[int, int] = {}
    if prof is not None:
        c, s0 = prof
        for e in range(degree + 1):
            want = tuple(e + ci for ci in c)
            if min(want) < 0:  # n * e + s0 = sum(want) nodes
                continue
            count = sum(
                1 for lam in enumerate_partitions(n * e + s0, regular=n)
                if residue_counts(lam, n) == want
                and all(eps_phi(lam, n, i)[0] <= (i == j) for i in range(n))
            )
            if count:
                terms[e] = count
    return TruncatedSeries(terms, 1, degree)


def cartan_gram(n: int) -> tuple[tuple[int, ...], ...]:
    """G = n C^-1 for the (n-1)x(n-1) finite type-A Cartan matrix C, as a
    matrix: G_ij = min(i, j) * (n - max(i, j))."""
    return tuple(
        tuple(min(i, j) * (n - max(i, j)) for j in range(1, n)) for i in range(1, n)
    )


def _unit(n: int, i: int) -> tuple[int, ...]:
    """e_i as an (n-1)-vector; e_0 = e_n = 0."""
    return tuple(int(k == i) for k in range(1, n))


def _apply(G: tuple[tuple[int, ...], ...], v) -> tuple[int, ...]:
    return tuple(sum(g * x for g, x in zip(row, v)) for row in G)


def m_vectors(n: int, t: int, total: int):
    """Nonnegative (n-1)-vectors m with sum(m) <= total and
    t + sum(i*m_i) = 0 mod n, by a recursive walk over the entries."""

    def walk(i: int, left: int, res: int):
        if i == n:
            if res % n == 0:
                yield ()
            return
        for mi in range(left + 1):
            for rest in walk(i + 1, left - mi, res + i * mi):
                yield (mi, *rest)

    return walk(1, total, t)


def _n_exponent(G, m, g_st, s: int, t: int) -> int:
    """n times m C^-1 m - m C^-1 e_(s-t+n) + st/n, for g_st = G e_(s-t+n)."""
    return sum(mi * (gm - g) for mi, gm, g in zip(m, _apply(G, m), g_st)) + s * t


def fermionic_raw(n: int, s: int, t: int, L: int) -> LaurentPoly:
    """The constant-sign sum of the finite branching polynomial (s <= t) on
    dense (n-1)-vectors: l = C^-1 (base - 2m) is the full vector G(base - 2m)/n,
    every entry tested for sign and divisibility."""
    G = cartan_gram(n)
    e_st = _unit(n, s - t + n)
    g_st = _apply(G, e_st)
    base = [L * u + a + b for u, a, b in zip(_unit(n, n - 1), _unit(n, (L - s - t) % n), e_st)]
    out = LaurentPoly.zero()
    for m in m_vectors(n, t, sum(base) // 2):
        nl = _apply(G, [b - 2 * mi for b, mi in zip(base, m)])  # n * l
        if any(x < 0 or x % n for x in nl):
            continue
        prod = LaurentPoly.one()
        for x, mi in zip(nl, m):
            prod = prod * qbinom_lower_divided(x // n + mi, mi)
        out = out + prod.shifted(Fraction(_n_exponent(G, m, g_st, s, t), n))
    return out


def fermionic_limit_dense(n: int, j: int, target: tuple[int, int], degree: int) -> TruncatedSeries:
    """The limit series of the constant-sign sum on dense (n-1)-vectors, each
    term's 1/prod (q)_(m_i) a repeated series product, shifted down by
    q^max(0, s + t - n); the zero series for an unreachable sector."""
    if weight_target_profile(n, j, target) is None:
        return TruncatedSeries({}, 1, degree)
    s, t = sorted(target)
    G = cartan_gram(n)
    g_st = _apply(G, _unit(n, s - t + n))
    shift = max(0, s + t - n)
    ncap = n * (degree + shift)
    c = max(g_st)  # the exponent is at least S^2 - c S for S = sum(m)
    out = LaurentPoly.zero()
    for m in m_vectors(n, t, (c + isqrt(c * c + 4 * ncap)) // 2):
        e = _n_exponent(G, m, g_st, s, t)
        if e <= ncap:  # the term's exponents e/n - shift + k reach the degree at k = (ncap - e)/n
            term = geometric_product([b for mi in m for b in range(1, mi + 1)], (ncap - e) // n)
            out = out + term.poly.shifted(Fraction(e, n) - shift)
    return TruncatedSeries.from_poly(out, degree)


def matrix_text(fmt: str, head: dict, rows: list[str], cols: list[str], entries, cell) -> str:
    """The CLI's matrix output: every entry tested with ``is_zero`` and
    written as '.' (CSV) or cell of the zero (JSON), else as cell(entry), and
    every CSV row, labels and cells alike, written through one csv.writer."""
    zero = cell(LaurentPoly.zero()) if fmt == "json" else "."
    body = [[zero if e.is_zero() else cell(e) for e in row] for row in entries]
    if fmt == "json":
        return json.dumps({**head, "entries": body}, sort_keys=True)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        [["", *cols], *([label, *cells] for label, cells in zip(rows, body))])
    return buf.getvalue()


def laurent_text(p: LaurentPoly, var: str = "q") -> str:
    """p's canonical text with each exponent built as a ``Fraction``."""
    if not p.terms:
        return "0"
    parts = []
    for n in sorted(p.terms):
        c = p.terms[n]
        e = Fraction(n, p.den)
        if e == 0:
            body = str(abs(c))
        else:
            if e == 1:
                x = var
            elif e.denominator == 1:
                x = f"{var}^{e.numerator}"
            else:
                x = f"{var}^{e.numerator}/{e.denominator}"
            body = x if abs(c) == 1 else f"{abs(c)}*{x}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def pochhammer(k: int) -> LaurentPoly:
    """(q)_k = (1-q)(1-q^2)...(1-q^k)."""
    out = LaurentPoly.one()
    for i in range(1, k + 1):
        out = out * LaurentPoly({0: 1, i: -1})
    return out


def q_fact(k: int) -> LaurentPoly:
    """[k]! = [1][2]...[k] over balanced q-integers."""
    out = LaurentPoly.one()
    for j in range(1, k + 1):
        out = out * q_int(j)
    return out


def qbinom_lower_divided(m: int, k: int) -> LaurentPoly:
    """(q)_m / (q)_(m-k) / (q)_k by two exact divisions; 0 outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return LaurentPoly.zero()
    return pochhammer(m).exact_div(pochhammer(m - k)).exact_div(pochhammer(k))


def gauss_balanced_divided(m: int, k: int) -> LaurentPoly:
    """[m]! / [m-k]! / [k]! over balanced q-integers; 0 outside 0 <= k <= m."""
    if k < 0 or m < 0 or k > m:
        return LaurentPoly.zero()
    return q_fact(m).exact_div(q_fact(m - k)).exact_div(q_fact(k))


def residue_counts_by_row(lam: Partition, n: int, colour: int = 0) -> tuple[int, ...]:
    """Residue multiplicities summed row by row and residue by residue."""
    m = [0] * n
    for i, p in enumerate(lam):
        c0 = colour - i  # content + colour of the first node in row i+1
        for r in range(n):
            off = (r - c0) % n  # nodes x in [0, p) with (c0 + x) % n == r
            if off < p:
                m[r] += (p - off + n - 1) // n
    return tuple(m)


def geometric_product(exponents, order: int) -> TruncatedSeries:
    """The product of the series 1 + q^b + q^2b + ... over b in exponents."""
    out = TruncatedSeries({0: 1}, 1, order)
    for b in exponents:
        out = out * TruncatedSeries({t * b: 1 for t in range(order // b + 1)}, 1, order)
    return out


def euler_product(order: int) -> TruncatedSeries:
    """(1-q)(1-q^2)... as a product of binomials, truncated at the order."""
    out = TruncatedSeries({0: 1}, 1, order)
    for a in range(1, order + 1):
        out = out * LaurentPoly({0: 1, a: -1})
    return out


def partition_counts(order: int) -> TruncatedSeries:
    """Sum of p(k) q^k, p(k) from the bounded-part recurrence table."""
    table = [[0] * (order + 1) for _ in range(order + 1)]
    for j in range(order + 1):
        table[j][0] = 1
    for j in range(1, order + 1):
        for k in range(1, order + 1):
            table[j][k] = table[j - 1][k] + (table[j][k - j] if k >= j else 0)
    return TruncatedSeries({k: table[order][k] for k in range(order + 1)}, 1, order)


class Node(NamedTuple):
    row: int
    col: int
    content: int

    def residue(self, n: int, colour: int = 0) -> int:
        return (self.content + colour) % n


def addable_nodes(lam: Partition) -> list[Node]:
    """All addable nodes (1-based), in increasing column order."""
    out = [Node(len(lam) + 1, 1, -len(lam))]
    for i, p in enumerate(lam):
        if i == 0 or lam[i - 1] > p:
            out.append(Node(i + 1, p + 1, p + 1 - (i + 1)))
    return sorted(out, key=lambda nd: nd.col)


def removable_nodes(lam: Partition) -> list[Node]:
    """All removable nodes (1-based), in increasing column order."""
    out = []
    for i, p in enumerate(lam):
        if i == len(lam) - 1 or lam[i + 1] < p:
            out.append(Node(i + 1, p, p - (i + 1)))
    return sorted(out, key=lambda nd: nd.col)


def node_lists(lam: Partition, n: int, i: int) -> tuple[list[Node], list[Node]]:
    """(addable i-nodes, removable i-nodes), increasing column order."""
    return (
        [nd for nd in addable_nodes(lam) if nd.residue(n) == i % n],
        [nd for nd in removable_nodes(lam) if nd.residue(n) == i % n],
    )


def content_lists(lam: Partition) -> tuple[list[int], list[int]]:
    """(addable contents, removable contents), ascending."""
    return (
        sorted(nd.content for nd in addable_nodes(lam)),
        sorted(nd.content for nd in removable_nodes(lam)),
    )


def add_node(lam: Partition, nd: Node) -> Partition:
    rows = list(lam) + [0]
    rows[nd.row - 1] += 1
    return tuple(p for p in rows if p)


def remove_node(lam: Partition, nd: Node) -> Partition:
    rows = list(lam)
    rows[nd.row - 1] -= 1
    return tuple(p for p in rows if p)


def classical_apply(kind: str, index: int, lam: Partition, n: int | None = None) -> list[Partition]:
    """Classical (q = 1) node operators.

    With ``n=None``, ``index`` is an integer content and the operator moves
    along a single edge (at most one result).  With ``n`` given, ``index`` is
    a residue and the folded operator sums over all contents congruent to it.
    """
    if kind not in ("e", "f"):
        raise ValueError("kind must be 'e' or 'f'")
    nodes, move = (addable_nodes, add_node) if kind == "f" else (removable_nodes, remove_node)
    if n is None:
        picked = [nd for nd in nodes(lam) if nd.content == index]
    else:
        picked = [nd for nd in nodes(lam) if nd.residue(n) == index % n]
    return [move(lam, nd) for nd in picked]


def restart_signature(lam: Partition, n: int, i: int):
    """Delete the first adjacent RA pair and rescan, until none is left.

    Returns (word, reduced word, good removable node, good addable node).
    """
    add, rem = node_lists(lam, n, i)
    raw = sorted([("A", nd) for nd in add] + [("R", nd) for nd in rem], key=lambda t: t[1].col)
    word = list(raw)
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            if word[k][0] == "R" and word[k + 1][0] == "A":
                del word[k : k + 2]
                changed = True
                break
    removals = [nd for s, nd in word if s == "R"]
    addables = [nd for s, nd in word if s == "A"]

    def text(w):
        return " ".join(f"{s}{nd.col}" for s, nd in w)

    return (
        text(raw),
        text(word),
        removals[0] if removals else None,
        addables[-1] if addables else None,
    )


def e_tilde(lam: Partition, n: int, i: int) -> Partition | None:
    """The good removable i-node of the restart signature, removed."""
    good_r = restart_signature(lam, n, i)[2]
    return remove_node(lam, good_r) if good_r else None


def crystal_graph_bfs(n: int, max_m: int, component_of_empty: bool = True):
    """(nodes, edges) of the crystal graph on partitions of weight <= max_m.

    Grown by f~_i steps (the good addable node of ``restart_signature``)
    breadth first from the empty partition, or from every partition.
    """
    if component_of_empty:
        frontier = [()]
    else:
        frontier = [lam for m in range(max_m + 1) for lam in enumerate_partitions(m)]
    nodes, edges = set(frontier), set()
    while frontier:
        grown = []
        for lam in frontier:
            if sum(lam) == max_m:
                continue
            for i in range(n):
                good = restart_signature(lam, n, i)[3]
                if good is None:
                    continue
                mu = add_node(lam, good)
                edges.add((lam, i, mu))
                if mu not in nodes:
                    nodes.add(mu)
                    grown.append(mu)
        frontier = grown
    return nodes, edges


def divided_f(i: int, k: int, u: FockVector) -> FockVector:
    """f_i^(k): f_i applied k times, then every coefficient divided by [k]! by long division."""
    for _ in range(k):
        u = f_apply(i, u)
    return FockVector(u.n, {lam: c.exact_div(q_fact(k)) for lam, c in u.terms.items()})


def ladders(mu: Partition, n: int) -> list[tuple[int, int, int]]:
    """Ladder decomposition [(ladder index, residue, node count), ...].

    The node (row, col) sits on ladder row + (n-1)(col-1); every node of a
    ladder has residue (1 - ladder) mod n.  Listed in increasing ladder index.
    """
    check_regular(mu, n)
    counts: dict[int, int] = {}
    for row, p in enumerate(mu, start=1):
        for col in range(1, p + 1):
            ell = row + (n - 1) * (col - 1)
            counts[ell] = counts.get(ell, 0) + 1
    return [(ell, (1 - ell) % n, counts[ell]) for ell in sorted(counts)]


def top_ladder(mu: Partition, n: int) -> tuple[int, int, Partition]:
    """(r, k, mu_bar): the top ladder of ``ladders``, and mu with that ladder's nodes
    removed one by one, top row first, each checked to be removable when it goes."""
    top, res, k = ladders(mu, n)[-1]
    rows = [*mu, 0]
    for row, p in enumerate(mu):
        for col in range(1, p + 1):
            if row + 1 + (n - 1) * (col - 1) == top:
                assert col == rows[row] > rows[row + 1], (mu, row, col)
                rows[row] -= 1
    return res, k, tuple(p for p in rows if p)


def in_qZq(p: LaurentPoly) -> bool:
    """True iff every exponent of p is a positive integer."""
    return all(e > 0 and e.denominator == 1 for e in (Fraction(num, p.den) for num in p.terms))


def monomial_A(mu: Partition, n: int) -> FockVector:
    """The ladder monomial: every ladder's divided power, lowest ladder first, on v[()].

    Bar-invariant with leading coefficient 1 at mu and only dominated terms.
    """
    vec = FockVector.basis(n, ())
    for _, res, k in ladders(mu, n):
        vec = divided_f(res, k, vec)
    assert vec.coeff(mu) == LaurentPoly.one(), mu
    assert all(dominates(mu, lam) for lam in vec.terms), mu
    return vec


def global_basis_from_monomials(n: int, m: int) -> dict[Partition, FockVector]:
    """G(mu) for every n-regular mu of m, each corrected from monomial_A(mu).

    Columns run in ascending lexicographic order; each coefficient c off the
    diagonal is cleared of its part outside qZ[q] by subtracting
    gamma * G(nu), gamma the bar-invariant polynomial agreeing with c in
    exponents <= 0.
    """
    done: dict[Partition, FockVector] = {}
    for mu in reversed(enumerate_partitions(m, regular=n)):
        vec = monomial_A(mu, n)
        for nu in enumerate_partitions(m, regular=n):
            c = vec.coeff(nu)
            low = {e: k for e, k in c.terms.items() if e <= 0}
            if nu == mu or not low:
                continue
            gamma = LaurentPoly({**low, **{-e: k for e, k in low.items()}})
            vec = vec - done[nu].scaled(gamma)
        assert all(lam == mu or in_qZq(c) for lam, c in vec.terms.items()), mu
        done[mu] = vec
    return done


def restriction_coeffs(n: int, m: int) -> list[list[LaurentPoly]]:
    """c_(lambda,mu)(q) as dense rows over the n-regular lambda of m, columns over the
    n-regular mu of m - 1: (sum_i f_i) G(mu) = sum_lambda c_(lambda,mu) G(lambda), the G(lambda)
    eliminated in descending lex order."""
    low, high = global_basis_vectors(n, m - 1), global_basis_vectors(n, m)
    rows = enumerate_partitions(m, regular=n)
    cols = enumerate_partitions(m - 1, regular=n)
    entries = [[LaurentPoly.zero()] * len(cols) for _ in rows]
    for j, mu in enumerate(cols):
        vec = FockVector(n, {})
        for i in range(n):
            vec = vec + f_apply(i, low[mu])
        for r, lam in enumerate(rows):
            c = entries[r][j] = vec.coeff(lam)
            if not c.is_zero():
                vec = vec - high[lam].scaled(c)
        assert vec.is_zero(), mu
    return entries
