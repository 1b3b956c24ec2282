"""Second implementations that the tests compare the library against.

Dense matrices over Z[v] (lists of rows of ``LaurentPoly``) with the plain
triple-loop product, the generator-word and Jucys-Murphy matrices as dense
products of ``rep_matrix``, n-rim-hooks found by walking the rim, with
the n-core obtained by removing them one at a time, branching counts
that list the edge-sum partitions and classify them one by one, and
Gaussian binomials as quotients of q-factorials by long division.
"""

from collections import Counter

from fcl import specht
from fcl.partitions import Partition, check_partition, residue_counts, weight_target_profile
from fcl.paths import ALL_J, fow_classify, js_partitions_upto
from fcl.qseries import LaurentPoly, TruncatedSeries, q_fact

Matrix = list[list[LaurentPoly]]


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


def rep_word(shape: Partition, word: tuple[int, ...]) -> Matrix:
    """Product of the generator matrices of a word, left to right."""
    basis = specht.standard_tableaux(tuple(shape))
    out = mat_identity(len(basis))
    for i in word:
        out = mat_mul(out, [list(r) for r in specht.rep_matrix(tuple(shape), i)])
    return out


def jucys_murphy(shape: Partition, k: int, use_v: bool = True) -> Matrix:
    """Sum of q^(i-k) times the matrix of the transposition (i, k), i < k."""
    shape = check_partition(shape)
    basis = specht.standard_tableaux(shape)
    total = mat_scale(mat_identity(len(basis)), LaurentPoly.zero())
    for i in range(1, k):
        word = tuple(range(i, k)) + tuple(range(k - 2, i - 1, -1))
        total = mat_add(total, mat_scale(rep_word(shape, word), LaurentPoly.q_power(i - k)))
    if not use_v:
        total = [[LaurentPoly.const(x.eval_one()) for x in row] for row in total]
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


def class_histogram(n: int, max_size: int, max_part: int | None = None) -> Counter:
    """(colour, residue counts) of every listed edge-sum partition."""
    return Counter(
        (fow_classify(lam, n), residue_counts(lam, n))
        for lam in js_partitions_upto(n, max_size, max_part)
    )


def profile_counts(
    n: int, j: int, c: tuple[int, ...], pool: tuple[Partition, ...]
) -> dict[int, int]:
    """E -> number of pool partitions of colour j (or empty) with m_i = E + c_i."""
    out: dict[int, int] = {}
    for lam in pool:
        jj = fow_classify(lam, n)
        if jj != ALL_J and jj != j % n:
            continue
        m = residue_counts(lam, n)
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


def pochhammer(k: int) -> LaurentPoly:
    """(q)_k = (1-q)(1-q^2)...(1-q^k)."""
    out = LaurentPoly.one()
    for i in range(1, k + 1):
        out = out * LaurentPoly({0: 1, i: -1})
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
