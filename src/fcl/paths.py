"""Level-1 lattice paths, the highest-lift bijection, restricted paths and
border-edge classification, together with branching polynomials counted by
a DP over the part values of the edge-sum partitions (``_chain_counts``,
which lists none of them), irreducible-restriction generating series by
listing, and height-model configuration sums.

A path is stored as its residue word gamma(0..k*-1); beyond the stored word
the residues follow the ground pattern gamma(k) = k mod n.

The edge-sum rule, read upward from the shortest rows: a block of a rows of
length v leaves the state s = (v - a) mod n; the next longer length v' then
comes (s - v') mod n times, 0 times meaning that v' is absent; the state
after the top block is the colour j.  ``fow_classify`` checks it,
``js_partitions_upto`` lists by it and ``_chain_counts`` counts by it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache

from . import partitions as pt
from .qseries import LaurentPoly, TruncatedSeries

__all__ = [
    "PathWord",
    "ALL_J",
    "to_partition",
    "to_path",
    "energy_weight",
    "is_restricted",
    "fow_classify",
    "js_combinatorial",
    "js_partitions_upto",
    "js_members",
    "chi_js_direct",
    "branching_poly_paths",
    "abf_sum_direct",
]


class PathWord(namedtuple("PathWord", "gamma n")):
    __slots__ = ()

    def __new__(cls, gamma: tuple[int, ...], n: int):
        if any(not 0 <= g < n for g in gamma):
            raise ValueError("residues out of range")
        return super().__new__(cls, gamma, n)

    def residue(self, k: int) -> int:
        return self.gamma[k] if k < len(self.gamma) else k % self.n


# Marker returned for the empty partition, which is restricted for every j.
ALL_J = "all"


def to_partition(p: PathWord) -> pt.Partition:
    """Highest-lift: backward column-length recursion along the word."""
    n = p.n
    kstar = len(p.gamma)
    t = [0] * (kstar + 1)
    for k in range(kstar - 1, -1, -1):
        r = (k - p.gamma[k]) % n
        base = t[k + 1]
        # smallest t_k >= base with t_k = r mod n, and t_k - base < n
        t[k] = base + ((r - base) % n)
    cols = tuple(c for c in t[:kstar] if c > 0)
    return pt.conjugate(cols)


def to_path(lam: pt.Partition, n: int) -> PathWord:
    pt.check_regular(lam, n)
    cols = pt.conjugate(lam)
    kstar = len(cols)
    gamma = tuple((k - cols[k]) % n for k in range(kstar))
    return PathWord(gamma, n)


def _h(a: int, b: int) -> int:
    return 0 if a < b else 1


def energy_weight(p: PathWord) -> tuple[int, pt.Weight]:
    """(E, wt) from the word; agrees with the highest-lift statistics."""
    n = p.n
    kstar = len(p.gamma)
    e = 0
    for k in range(1, kstar + 1):
        e += k * (
            _h(p.residue(k - 1), p.residue(k)) - _h((k - 1) % n, k % n)
        )
    # p_0 = Lambda_{k*} - sum_{k < k*} eps_{gamma(k)}
    p0 = pt.fundamental(n, kstar % n)
    for k in range(kstar):
        p0 = p0 - pt.weight_basics(n, p.gamma[k])[1]
    return e, p0 - pt.Weight(n, (0,) * n, 1).scaled(e)


def is_restricted(p: PathWord, j: int) -> bool:
    """True iff every point of Lambda_j + path stays dominant at level 2."""
    n = p.n
    kstar = len(p.gamma)
    cur = pt.fundamental(n, j)
    pts = []
    # compute p_k = Lambda_j + (Lambda_0-path value at k), walking backwards
    val = pt.fundamental(n, kstar % n)
    for k in range(kstar - 1, -1, -1):
        pts.append(val)
        val = val - pt.weight_basics(n, p.gamma[k])[1]
    pts.append(val)  # value at k = 0
    for w in pts:
        if not (cur + w).is_dominant():
            return False
    return True


def fow_classify(lam: pt.Partition, n: int):
    """Border-edge classification: the colour j, ALL_J for empty, else None."""
    pt.check_regular(lam, n)
    if not lam:
        return ALL_J
    blocks = pt.multiplicities(lam)[::-1]
    s = sum(blocks[0]) % n  # the one state in which the shortest block may start
    for v, a in blocks:
        if (s - v) % n != a:
            return None
        s = (v - a) % n
    return s


def js_combinatorial(lam: pt.Partition, n: int) -> bool:
    """Irreducible restriction by the border-edge sums alone."""
    return fow_classify(lam, n) is not None


@lru_cache(maxsize=None)
def js_partitions_upto(
    n: int, max_size: int, max_part: int | None = None
) -> tuple[pt.Partition, ...]:
    """All partitions passing the edge-sum test, |lam| <= max_size.

    One walk up the part values over chains (parts, s, size), each state s
    starting with the empty chain: each v is skipped or taken (s - v) mod n
    times.
    """
    out: list[pt.Partition] = [()]
    chains = [((), s, 0) for s in range(n)]
    for v in range(1, (max_size if max_part is None else max_part) + 1):
        grown = []
        for chain in chains:
            lam, s, size = chain
            if size + v <= max_size:  # else no room for v or any larger part
                grown.append(chain)
                if (a := (s - v) % n) and size + v * a <= max_size:
                    out.append((v,) * a + lam)
                    grown.append((out[-1], (v - a) % n, size + v * a))
        chains = grown
    out.sort(reverse=True)  # then stably by size: no partition of a size prefixes another
    return tuple(sorted(out, key=sum))


def _chain_counts(
    n: int, j: int, c: tuple[int, ...], max_part: int, max_size: int
) -> dict[int, int]:
    """E -> number of edge-sum partitions of colour j (or empty), with parts
    <= max_part and at most max_size nodes, whose residue counts are E + c_i.

    A DP over the part values v = max_part..1 that lists no partition: the
    module's rule read downward, since the residues of a block depend on the
    rows above it.  A state (s, rows mod n, m - m_0) carries {m_0: count},
    where s = (v' + a') mod n for the last block (v', a') and s = j before
    the first block.  Each v is skipped or comes a = (v - s) mod n times, a =
    0 forcing the skip; a top block of colour (v - a) mod n = j has that a.
    """
    states = {(j, 0, (0,) * n): {0: 1}}
    for v in range(max_part, 0, -1):
        grown = {key: dict(m0s) for key, m0s in states.items()}  # v skipped
        for (s, row, d), m0s in states.items():
            if not (a := (v - s) % n):
                continue
            b = pt._block_counts(n, row, v, a)
            nd = tuple(x + y - b[0] for x, y in zip(d, b))
            room = max_size - sum(nd)
            for m0, count in m0s.items():
                if n * (m0 + b[0]) <= room:
                    into = grown.setdefault(((v + a) % n, (row + a) % n, nd), {})
                    into[m0 + b[0]] = into.get(m0 + b[0], 0) + count
        states = grown
    out: Counter = Counter()
    for (_, _, d), m0s in states.items():
        if d == c:
            out.update(m0s)
    return dict(out)


def js_members(n: int, core: pt.Partition, d: int) -> list[pt.Partition]:
    """Irreducible-restriction labels with the given core and hook weight d."""
    pt.check_core(core, n)
    size = sum(core) + n * d
    return [
        lam
        for lam in js_partitions_upto(n, size)
        if sum(lam) == size and pt.n_core(lam, n) == (core, d)
    ]


def chi_js_direct(n: int, core: pt.Partition, degree: int) -> TruncatedSeries:
    """Generating series counting irreducible restrictions by hook weight."""
    pt.check_core(core, n)
    terms: Counter = Counter()
    for lam in js_partitions_upto(n, sum(core) + n * degree):
        got_core, d = pt.n_core(lam, n)
        if got_core == core:
            terms[d] += 1
    return TruncatedSeries(terms, 1, degree)


def branching_poly_paths(n: int, j: int, target: tuple[int, int], L: int) -> LaurentPoly:
    """Finite branching polynomial by counting restricted paths.

    Paths are counted through their highest-lift partitions: the length
    bound is the bound on the largest part, and the starting weight pins the
    residue-count profile.
    """
    prof = pt.weight_target_profile(n, j, target)
    if prof is None:
        return LaurentPoly.zero()
    return LaurentPoly(_chain_counts(n, j, prof[0], L, (n - 1) * L * (L + 1) // 2))


def _check_heights(L: int, a: int, b: int, c: int) -> None:
    """The boundary heights of every configuration sum: a, b, c in 1..L-1, |b - c| = 1."""
    if not (1 <= a <= L - 1 and 1 <= b <= L - 1 and 1 <= c <= L - 1):
        raise ValueError("heights must lie in 1..L-1")
    if abs(b - c) != 1:
        raise ValueError("|b - c| must be 1")


def abf_sum_direct(L: int, a: int, b: int, c: int, m: int) -> LaurentPoly:
    """Configuration sum over height sequences on the quarter lattice.

    Heights run 1..L-1 with unit steps; the boundary is (l_1, l_{m+1},
    l_{m+2}) = (a, b, c).  Returns 0 when no admissible sequence exists.
    """
    _check_heights(L, a, b, c)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return LaurentPoly.one() if a == b else LaurentPoly.zero()
    # states: (height pair (l_k, l_{k+1})) -> accumulated polynomial
    states: dict[tuple[int, int], LaurentPoly] = {}
    for l2 in (a - 1, a + 1):
        if 1 <= l2 <= L - 1:
            states[(a, l2)] = LaurentPoly.one()
    for jstep in range(1, m + 1):
        nxt: dict[tuple[int, int], LaurentPoly] = {}
        for (lj, lj1), poly in states.items():
            for lj2 in (lj1 - 1, lj1 + 1):
                if not 1 <= lj2 <= L - 1:
                    continue
                w = poly.shifted((jstep * abs(lj - lj2), 4))
                key = (lj1, lj2)
                nxt[key] = nxt.get(key, LaurentPoly.zero()) + w
        states = nxt
        if not states:
            return LaurentPoly.zero()
    return states.get((b, c), LaurentPoly.zero())

