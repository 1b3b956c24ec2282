"""Closed-form q-series: constant-sign branching polynomials, minimal-model
characters, height-model closed forms, and irreducible-restriction series
through the rectangular-core identity.

Rational exponents are exact.  The constant-sign sums carry n times their
exponents as integers, on G = n C^-1, read entry by entry from its closed form
(``partitions._gram``), and walk the simplices their bounds prove sufficient
with nothing of length n.  An m-vector is a sorted multiset of the indices
1..n-1 from ``combinations_with_replacement``; the residue t + sum(i m_i) = 0
mod n fixes its largest index, so only the others are chosen.  The finite
sums never build l = C^-1 (base - 2m): G_ik = -ik mod n makes (n l)_i = -iX
mod n with X = sum(k base_k) - 2 sum(i m_i) = -2t + 2t = 0 mod n, so l is
integral; each column G e_k is linear on [0, k] and on [k, n], so l >= 0 iff
it is at 1, at n - 1 and at the supports of base and m; and the q-binomials
read l only where m_i > 0.  The sums are normalized by a fixed rule (see
``fermionic_poly``) and never consult the path enumeration; the tests compare
the two, and the sums over dense vectors in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, groupby
from math import isqrt

from . import partitions as pt
from . import paths
from .qseries import LaurentPoly, TruncatedSeries, _add_shifted, inv_phi, q_product, qbinom_lower

__all__ = [
    "FermionicBranching",
    "fermionic_poly",
    "fermionic_limit",
    "branching_series_stable",
    "rocha_caridi",
    "abf_closed",
    "x_limit",
    "chi_js",
    "principal_char",
]


class FermionicBranching(namedtuple("FermionicBranching", "raw normalized shift")):
    __slots__ = ()


def _multisets(n: int, t: int, top: int):
    """The m-vectors with sum(m) <= top and t + sum(i m_i) = 0 mod n, as sorted
    multisets of the indices 1..n-1, each given by its distinct indices i and
    their counts m_i.  The residue fixes the largest index, so only the others
    are chosen."""
    if t % n == 0:
        yield []
    for k in range(top):  # no pool of n - 1 indices for the one empty rest
        for rest in combinations_with_replacement(range(1, n), k) if k else [()]:
            a = -(t + sum(rest)) % n
            if (rest[-1] if rest else 1) <= a:
                yield [(i, len(list(g))) for i, g in groupby((*rest, a))]


def _n_l(n: int, w: dict[int, int], i: int) -> int:
    """(G w)_i = n l_i for the sparse vector w = C l."""
    return sum(x * pt._gram(n, i, k) for k, x in w.items())


def _n_exponent(n: int, m: list[tuple[int, int]], u: int, s: int, t: int) -> int:
    """n times the exponent m C^-1 m - m C^-1 e_u + st/n, over the distinct
    indices of m and their counts."""
    return sum(c * (sum(d * pt._gram(n, a, b) for b, d in m) - pt._gram(n, a, u))
               for a, c in m) + s * t


def _fermionic_raw(n: int, s: int, t: int, L: int) -> LaurentPoly:
    """Constant-sign sum for the finite branching polynomial.

    Sum over nonnegative (n-1)-vectors m with t + sum(i*m_i) = 0 mod n of
    q^(m C^-1 m - m C^-1 e_u + st/n) prod binom(l_i + m_i, m_i), where
    u = s - t + n, l = C^-1 (base - 2m), base = L e_(n-1) + e_r + e_u and
    r = L - (s+t) mod n, with e_0 = e_n = 0.  Terms with any l_i < 0 vanish.
    The entries of C l = base - 2m sum to l_1 + l_(n-1) >= 0, so the walk
    stops at 2 sum(m) <= sum(base).
    """
    u = s - t + n
    base: dict[int, int] = {}  # index -> entry, on 1..n-1
    for k, x in ((n - 1, L), ((L - s - t) % n, 1), (u, 1)):
        if 0 < k < n:
            base[k] = base.get(k, 0) + x
    acc: dict[int, int] = {}  # n * exponent -> coefficient
    for m in _multisets(n, t, sum(base.values()) // 2):
        w = base.copy()  # base - 2m
        for a, c in m:
            w[a] = w.get(a, 0) - 2 * c
        if any(_n_l(n, w, i) < 0 for i in (1, n - 1, *w)):
            continue
        prod = LaurentPoly.one()
        for a, c in m:
            prod = prod * qbinom_lower(_n_l(n, w, a) // n + c, c)
        _add_shifted(acc, prod, _n_exponent(n, m, u, s, t), n)
    return LaurentPoly(acc, n)


def _shift(n: int, s: int, t: int) -> int:
    """The normalizing q-shift of target (s <= t): the raw sums start at q^s,
    the branching functions at q^min(s, n - t)."""
    return max(0, s + t - n)


def fermionic_poly(
    n: int, j: int, target: tuple[int, int], L: int
) -> FermionicBranching:
    """Constant-sign polynomial, normalized by a fixed rule.

    The raw rational-exponent sum is divided by q^max(0, s + t - n) for the
    sorted target (s, t); it vanishes exactly when no restricted path exists.
    The tests pin this rule against the path enumeration for every sector.
    An unreachable sector gives the zero polynomial, as it does for the paths.
    """
    reachable = pt.check_target(n, j, target)
    s, t = sorted(target)
    raw = _fermionic_raw(n, s, t, L) if reachable else LaurentPoly.zero()
    shift = Fraction(_shift(n, s, t) if not raw.is_zero() else 0)
    return FermionicBranching(raw, raw.shifted(-shift), shift)


def fermionic_limit(
    n: int, j: int, target: tuple[int, int], degree: int
) -> TruncatedSeries:
    """Limit series of the constant-sign sum, normalized by the same rule as
    ``fermionic_poly``; an unreachable sector gives the zero series."""
    if not pt.check_target(n, j, target):
        return TruncatedSeries({}, 1, degree)
    s, t = sorted(target)
    u = s - t + n
    shift = _shift(n, s, t)
    ncap = n * (degree + shift)  # n times the exponent cap
    # every entry of G is >= 1, so with S = sum(m) and c = G_uu = max(G e_u)
    # the n-scaled exponent is at least S^2 - c S; above the root it passes ncap
    c = pt._gram(n, u, u)
    acc: dict[int, int] = {}  # n * (exponent - shift) -> coefficient
    for m in _multisets(n, t, (c + isqrt(c * c + 4 * ncap)) // 2):
        e = _n_exponent(n, m, u, s, t)
        if e > ncap:
            continue
        # prod 1/(q)_(m_i), one factor 1/(1 - q^b) for each b <= m_i
        term = q_product((), [b for _, k in m for b in range(1, k + 1)], (ncap - e) // n)
        _add_shifted(acc, term.poly, e - n * shift, n)
    return TruncatedSeries(acc, n, degree)


def branching_series_stable(
    n: int, j: int, target: tuple[int, int], degree: int
) -> TruncatedSeries:
    """Stabilized branching series by counting edge-sum partitions of bounded
    size."""
    prof = pt.weight_target_profile(n, j, tuple(sorted(target)))
    if prof is None:
        return TruncatedSeries({}, 1, degree)
    c, s0 = prof
    cap = n * degree + max(s0, 0)
    return TruncatedSeries(paths._chain_counts(n, j, c, cap, cap), 1, degree)


def rocha_caridi(mparam: int, r: int, s: int, order: int) -> TruncatedSeries:
    """Minimal-model character as an alternating sum over the Euler product.

    Exponents live on the 1/(4m(m+1)) lattice; the summation window follows
    from the quadratic growth of the exponents.
    """
    if mparam < 3:
        raise ValueError("mparam must be >= 3")
    if not (1 <= r <= mparam - 1 and 1 <= s <= mparam):
        raise ValueError("(r, s) out of range")
    m = mparam
    denom = 4 * m * (m + 1)
    period = 2 * m * (m + 1)
    vmax = max(abs((m + 1) * r + m * s), abs((m + 1) * r - m * s))
    K = (isqrt(denom * order + 1) + vmax) // period + 2
    acc: dict[int, int] = {}
    for k in range(-K, K + 1):
        for sign, v in ((-1, (m + 1) * r + m * s), (1, (m + 1) * r - m * s)):
            num = (period * k + v) ** 2 - 1  # exponent numerator over denom
            if num <= denom * order:
                acc[num] = acc.get(num, 0) + sign
    theta = TruncatedSeries(acc, denom, order)
    return theta * inv_phi(order)


def _delta_series(L: int, a: int, d: int, order: int) -> TruncatedSeries:
    """Alternating two-sided theta sum; exponents on the quarter lattice."""
    terms: dict[int, int] = {}
    K = isqrt(order + 1) + abs(a) + abs(d) + 4
    base4 = a * (a - 1)  # 4 * a(a-1)/4
    for nn in range(-K, K + 1):
        quad4 = 4 * (L * (L - 1) * nn * nn + L * d * nn) + base4
        lin4 = 4 * (L - 1) * a * nn + 2 * a * d
        for sign, e4 in ((1, quad4 - lin4), (-1, quad4 + lin4)):
            if e4 <= 4 * order:
                terms[e4] = terms.get(e4, 0) + sign
    return TruncatedSeries(terms, 4, order)


def abf_closed(L: int, a: int, b: int, c: int, m: int) -> LaurentPoly:
    """Closed form of the configuration sum (same admissibility checks).

    The quarter-lattice boundary weight enters the alternating sum with a
    negative sign; this orientation is the one validated against the direct
    enumeration (constant offset per (L, a, b, c), coefficients equal).
    """
    paths._check_heights(L, a, b, c)
    if m < 0:
        raise ValueError("m must be >= 0")

    def F(aa: int) -> LaurentPoly:
        out = LaurentPoly.zero()
        if (m + aa - b) % 2 != 0:
            return out
        K = m // (2 * L) + 2
        for nn in range(-K, K + 1):
            k = (m + aa - b) // 2 - nn * L
            binom = qbinom_lower(m, k)
            if binom.is_zero():
                continue
            expo4 = (4 * nn * (L - 1) * (nn * L - aa) - b * c
                     + (2 * nn * L - aa) * (b + c - 1))  # 4 * exponent
            out = out + binom.shifted((expo4, 4))
        return out

    return (F(a) - F(-a)).shifted((a * (a - 1), 4))


def x_limit(L: int, a: int, b: int, c: int, order: int) -> TruncatedSeries:
    """Thermodynamic limit of the configuration sum on the quarter lattice."""
    paths._check_heights(L, a, b, c)
    d = (b + c - 1) // 2
    series = _delta_series(L, a, d, order) * inv_phi(order)
    return series.shifted((b * c, 4)).truncate(order)


def chi_js(n: int, core: pt.Partition, degree: int) -> TruncatedSeries:
    """Irreducible-restriction series from branching functions.

    Only rectangular n-cores k^l occur (their largest hook k + l - 1 is below
    n); the empty core uses the summed vacuum-sector identity with its
    overcount correction.
    """
    pt.check_core(core, n)
    mults = pt.multiplicities(core)
    if len(mults) > 1:
        raise ValueError(f"{pt._quoted(mults)} is not rectangular")
    if not core:
        total = TruncatedSeries({}, 1, degree)
        for k in range(n):
            total = total + branching_series_stable(
                n, k, tuple(sorted((k % n, 0))), degree
            )
        return total - TruncatedSeries({0: n - 1}, 1, degree)
    k, l = mults[0]
    s = min(k, l)
    j = (k - l) % n
    target = tuple(sorted((k % n, (-l) % n)))
    b = branching_series_stable(n, j, target, degree + s)
    return b.shifted(-s).truncate(degree)


@lru_cache(maxsize=None)
def principal_char(n: int, order: int) -> TruncatedSeries:
    """Product over exponents prime to the modulus; counts regular partitions.

    Cached: the cost estimates of the CLI (``cli._counts``) ask for the same
    few (n, order) again with every command a process runs."""
    return q_product((), [b for b in range(1, order + 1) if b % n], order)
