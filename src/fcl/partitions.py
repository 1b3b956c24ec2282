"""Partition combinatorics and the affine type-A weight lattice.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ``()``.  A node in the 1-based row r and column c has content
c - r; its residue is (content + colour) mod n, colour 0 by default.  The
i-nodes of a partition are read off its rim in one sweep (``_inodes``), and
``_grown``/``_shrunk`` add or remove the node at the end of a row.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import add, ge

__all__ = [
    "Partition",
    "Weight",
    "check_partition",
    "parse_multiplicities",
    "parse_partition",
    "format_partition",
    "conjugate",
    "is_n_regular",
    "check_regular",
    "check_core",
    "check_target",
    "residue_counts",
    "residue_data",
    "n_core",
    "rim_hook_count",
    "enumerate_partitions",
    "dominates",
    "weight_basics",
    "fundamental",
    "weight_target_profile",
]

Partition = tuple[int, ...]
_PART = re.compile(r"([0-9]+)(?:\^([0-9]+))?")  # a part, or value^count


def check_partition(parts) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def parse_multiplicities(text: str) -> list[tuple[int, int]]:
    """Parse '10,8,7' or exponent shorthand '3^2,1' as [(value, multiplicity), ...],
    values descending, without expanding a multiplicity; '', '0' and '∅' are empty."""
    text = text.strip()
    if text in ("", "0", "∅", "[]", "()"):
        return []
    out: list[tuple[int, int]] = []
    for tok in text.split(","):
        part = _PART.fullmatch(tok.strip())  # ASCII digits only
        value, count = (int(part[1]), int(part[2] or 1)) if part else (0, 1)  # (0, 1) is refused
        if count and (value <= 0 or out and out[-1][0] < value):
            raise ValueError(
                f"{text!r} is not a partition: give weakly decreasing positive parts"
                " separated by commas, a repeated part as value^count (3^2,1 is 3,3,1)")
        if out and out[-1][0] == value:
            out[-1] = (value, out[-1][1] + count)
        elif count:
            out.append((value, count))
    return out


def parse_partition(text: str) -> Partition:
    """The partition ``parse_multiplicities`` reads, expanded."""
    return tuple(v for v, a in parse_multiplicities(text) for _ in range(a))


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"


def _quoted(mults: list[tuple[int, int]]) -> str:
    """A partition, given by its (value, multiplicity) pairs, for an error
    message: each run of c >= 3 equal parts as value^c."""
    return ",".join(f"{v}^{c}" if c >= 3 else ",".join([str(v)] * c) for v, c in mults) or "0"


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > c) for c in range(lam[0]))


def multiplicities(lam: Partition) -> list[tuple[int, int]]:
    """Exponent form [(value, multiplicity), ...] with values descending."""
    out: list[tuple[int, int]] = []
    for p in lam:
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + 1)
        else:
            out.append((p, 1))
    return out


def is_n_regular(lam: Partition, n: int) -> bool:
    if n < 2:
        raise ValueError("regularity needs n >= 2")
    return all(a < n for _, a in multiplicities(lam))


def check_regular(lam: Partition, n: int) -> None:
    if not is_n_regular(lam, n):
        raise ValueError(f"{_quoted(multiplicities(lam))} is not {n}-regular")


def check_core(core: Partition, n: int) -> None:
    if n_core(core, n)[1]:
        raise ValueError(f"{_quoted(multiplicities(core))} is not a {n}-core")


@lru_cache(maxsize=None)
def _block_counts(n: int, row: int, v: int, a: int) -> tuple[int, ...]:
    """Residue counts of a rows of length v, the first of them 0-based row `row` mod n."""
    q, rem = divmod(v, n)
    m = [q * a] * n
    for r in range(row, row + a):
        for k in range(rem):
            m[(k - r) % n] += 1
    return tuple(m)


def residue_counts(lam: Partition, n: int, colour: int = 0) -> tuple[int, ...]:
    """Multiplicity of each residue among the nodes, colour-v colouring."""
    m = (0,) * n
    row = -colour  # colour v shifts every residue by v, as moving up v rows does
    for v, a in multiplicities(lam):
        m = tuple(map(add, m, _block_counts(n, row % n, v, a)))
        row += a
    return m


class Weight(namedtuple("Weight", "n fund delta")):
    """Integer vector over the fundamental weights plus a delta coefficient."""

    __slots__ = ()

    def __new__(cls, n: int, fund: tuple[int, ...], delta: int = 0):
        if len(fund) != n:
            raise ValueError("fund must have length n")
        return super().__new__(cls, n, fund, delta)

    def level(self) -> int:
        return sum(self.fund)

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.fund)

    def pair_h(self, i: int) -> int:
        """Pairing with the coroot h_i."""
        return self.fund[i % self.n]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(
            self.n,
            tuple(a + b for a, b in zip(self.fund, other.fund)),
            self.delta + other.delta,
        )

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(
            self.n,
            tuple(a - b for a, b in zip(self.fund, other.fund)),
            self.delta - other.delta,
        )

    def __neg__(self) -> "Weight":
        return Weight(self.n, tuple(-a for a in self.fund), -self.delta)

    def scaled(self, k: int) -> "Weight":
        return Weight(self.n, tuple(k * a for a in self.fund), k * self.delta)

    def vector(self) -> str:
        return ";".join(str(a) for a in (*self.fund, self.delta))

    def __str__(self):
        parts = []
        for i, a in enumerate(self.fund):
            if a:
                parts.append((a, f"L{i}"))
        if self.delta:
            parts.append((self.delta, "d"))
        if not parts:
            return "0"
        out = ""
        for k, (a, sym) in enumerate(parts):
            sign = "-" if a < 0 else ("+" if k else "")
            mag = "" if abs(a) == 1 else str(abs(a)) + "*"
            out += f"{sign}{mag}{sym}"
        return out


def fundamental(n: int, i: int) -> Weight:
    return Weight(n, tuple(1 if j == i % n else 0 for j in range(n)))


def weight_basics(n: int, i: int) -> tuple[Weight, Weight]:
    """(alpha_i, eps_i): the simple root and fundamental vector, indices mod n."""
    if not 0 <= i < n:
        raise ValueError("residue out of range")
    alpha = (
        fundamental(n, i).scaled(2)
        - fundamental(n, i - 1)
        - fundamental(n, i + 1)
        + Weight(n, (0,) * n, 1 if i == 0 else 0)
    )
    eps = fundamental(n, i + 1) - fundamental(n, i)
    return alpha, eps


def residue_data(lam: Partition, n: int) -> tuple[tuple[int, ...], int, Weight]:
    """(residue multiplicities m, E = m_0, wt = Lambda_0 - sum m_i alpha_i)."""
    m = residue_counts(lam, n)
    wt = fundamental(n, 0)
    for i, mi in enumerate(m):
        if mi:
            wt = wt - weight_basics(n, i)[0].scaled(mi)
    return m, m[0], wt


def _inodes(lam: Partition, n: int, i: int) -> list[tuple[int, int, int]]:
    """The i-nodes of lam as (row, col, sign) in increasing column order.

    Rows are 0-based indices into lam and columns are 1-based; sign is +1 for
    an addable node and -1 for a removable one.  Every step down the rim,
    where row k is longer than row k+1, carries the addable node at the end
    of row k+1 and then the removable last node of row k.  A step of width
    one puts the two in the same column; both are i-nodes only for n = 1.
    """
    out = []
    below = 0  # length of row k+1
    for k in range(len(lam) - 1, -1, -1):
        p = lam[k]
        if p > below:
            if (below - k - 1 - i) % n == 0:
                out.append((k + 1, below + 1, 1))
            if (p - k - 1 - i) % n == 0:
                out.append((k, p, -1))
        below = p
    if (below - i) % n == 0:
        out.append((0, below + 1, 1))
    return out


def _grown(lam: Partition, r: int) -> Partition:
    """lam with one more node in the 0-based row r (the row just below when r = len(lam))."""
    return lam[:r] + (lam[r] + 1,) + lam[r + 1 :] if r < len(lam) else lam + (1,)


def _shrunk(lam: Partition, r: int) -> Partition:
    """lam without the last node of the 0-based row r."""
    return lam[:r] + (lam[r] - 1,) + lam[r + 1 :] if lam[r] > 1 else lam[:r]


def _beads(lam: Partition) -> list[int]:
    """Beta numbers lam_i + r - 1 - i (r = len(lam)), decreasing.

    They are the beads of an abacus with n runners, bead b on runner b mod n.
    Removing an n-rim-hook moves one bead a step up its runner into a free
    position.
    """
    r = len(lam)
    return [p + r - 1 - i for i, p in enumerate(lam)]


def n_core(lam: Partition, n: int) -> tuple[Partition, int]:
    """(n-core, n-weight): slide every bead up its runner as far as it goes.

    The core is what the slid beads spell; the weight counts the steps.
    """
    if n < 2:
        raise ValueError("core needs n >= 2")
    on_runner = [0] * n
    slid = []
    weight = 0
    for b in reversed(_beads(lam)):
        top = b % n + n * on_runner[b % n]
        on_runner[b % n] += 1
        weight += (b - top) // n
        slid.append(top)
    slid.sort(reverse=True)
    r = len(lam)
    return tuple(p for p in (b - (r - 1 - i) for i, b in enumerate(slid)) if p > 0), weight


def rim_hook_count(lam: Partition, n: int) -> int:
    """Number of removable n-rim-hooks: beads b >= n with b - n free."""
    if n < 1:
        raise ValueError("hook length must be >= 1")
    beads = set(_beads(lam))
    return sum(1 for b in beads if b >= n and b - n not in beads)


def enumerate_partitions(m: int, regular: int | None = None) -> list[Partition]:
    """All partitions of m in descending lexicographic order.

    With ``regular=n``, only n-regular partitions are kept.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    out: list[Partition] = []
    _extend_partitions(out, m, m, [], regular)
    return out


def _extend_partitions(out: list[Partition], remaining: int, cap: int, acc: list[int],
                       regular: int | None) -> None:
    """Append acc plus each partition of remaining into parts <= cap, descending.

    A module-level function rather than a closure that calls itself, so the
    list it fills is freed as soon as the caller drops it, not at the next
    cyclic garbage collection.
    """
    if remaining == 0:
        out.append(tuple(acc))
        return
    for p in range(min(cap, remaining), 0, -1):
        if regular is not None:
            run = 1
            for q in reversed(acc):
                if q == p:
                    run += 1
                else:
                    break
            if run >= regular:
                continue
        acc.append(p)
        _extend_partitions(out, remaining - p, p, acc, regular)
        acc.pop()


def dominates(lam: Partition, mu: Partition) -> bool:
    """True iff lam >= mu in dominance order (same total size assumed, so the
    prefix sums need comparing only up to the shorter length)."""
    return all(map(ge, accumulate(lam), accumulate(mu)))


def _gram(n: int, i: int, j: int) -> int:
    """Entry (i, j) of G = n C^-1 for the (n-1)x(n-1) finite type-A Cartan
    matrix C: min(i, j)(n - max(i, j)) (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Plate I).  It is 0 when i or j is 0 or n, so e_0 = e_n = 0."""
    return i * (n - j) if i <= j else j * (n - i)


def check_target(n: int, j: int, target: tuple[int, int]) -> bool:
    """Whether the target Lambda_s + Lambda_t lies in the sector of j, s + t = j
    mod n; a ValueError unless both target indices and j lie in 0..n-1, n >= 2."""
    s, t = target
    if not (0 <= s < n and 0 <= t < n):
        raise ValueError(f"target {s},{t} needs both indices in 0..n-1 = 0..{n - 1}")
    if not 0 <= j < n:
        raise ValueError(f"j {j} needs to lie in 0..n-1 = 0..{n - 1}")
    if n == 1:
        raise ValueError("n must be >= 2")
    return (s + t - j) % n == 0


def weight_target_profile(
    n: int, j: int, target: tuple[int, int]
) -> tuple[tuple[int, ...], int] | None:
    """Residue-count profile forced by a branching target.

    For the target Lambda_s + Lambda_t inside V(Lambda_j) x V(Lambda_0), a
    contributing partition has residue counts m_i = E + c_i with c_0 = 0.
    Returns (c, sum(c)), or None when the target lies outside the sector of j
    (s + t != j mod n).  A target index or j outside 0..n-1 is a ValueError.
    """
    if not check_target(n, j, target):
        return None
    s, t = target
    # n c = G T for T = e_0 + e_j - e_s - e_t on the indices 1..n-1 (G e_0 = 0).
    # G_ik = -ik mod n, so n divides (G T)_i = -i(j - s - t) mod n; the rows of
    # the affine Cartan matrix sum to 0, as T does, so the equation at 0 holds.
    c = (0, *((_gram(n, i, j) - _gram(n, i, s) - _gram(n, i, t)) // n for i in range(1, n)))
    return c, sum(c)
