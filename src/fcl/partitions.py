"""Partition combinatorics and the affine type-A weight lattice.

Partitions are plain tuples of weakly decreasing positive ints; the empty
partition is ``()``.  Nodes are 1-based (row, col) with content col - row.
Default colouring assigns residue (content mod n); the colour-v variant is
available where needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

__all__ = [
    "Partition",
    "Node",
    "Weight",
    "check_partition",
    "parse_partition",
    "format_partition",
    "conjugate",
    "is_n_regular",
    "residue_counts",
    "residue_data",
    "addable_nodes",
    "removable_nodes",
    "node_lists",
    "content_lists",
    "n_core",
    "rim_hook_count",
    "enumerate_partitions",
    "dominates",
    "weight_basics",
    "fundamental",
    "weight_target_profile",
]

Partition = tuple[int, ...]


class Node(NamedTuple):
    row: int
    col: int
    content: int

    def residue(self, n: int, colour: int = 0) -> int:
        return (self.content + colour) % n


def check_partition(parts) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse '10,8,7' or exponent shorthand '3^2,1'; '' , '0' and '∅' are empty."""
    text = text.strip()
    if text in ("", "0", "∅", "[]", "()"):
        return ()
    parts: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        if "^" in tok:
            v, a = tok.split("^")
            parts.extend([int(v)] * int(a))
        else:
            parts.append(int(tok))
    return check_partition(parts)


def format_partition(lam: Partition) -> str:
    return ",".join(str(p) for p in lam) if lam else "0"


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


def _row_residue_count(start_content: int, length: int, r: int, n: int) -> int:
    """Number of x in [0, length) with (start_content + x) % n == r."""
    off = (r - start_content) % n
    if off >= length:
        return 0
    return (length - off + n - 1) // n


def residue_counts(lam: Partition, n: int, colour: int = 0) -> tuple[int, ...]:
    """Multiplicity of each residue among the nodes, colour-v colouring."""
    m = [0] * n
    for i, p in enumerate(lam):
        c0 = colour - i  # content + colour of the first node in row i+1
        for r in range(n):
            m[r] += _row_residue_count(c0, p, r, n)
    return tuple(m)


@dataclass(frozen=True)
class Weight:
    """Integer vector over the fundamental weights plus a delta coefficient."""

    n: int
    fund: tuple[int, ...]
    delta: int = 0

    def __post_init__(self):
        if len(self.fund) != self.n:
            raise ValueError("fund must have length n")

    def level(self) -> int:
        return sum(self.fund)

    def is_dominant(self) -> bool:
        return all(a >= 0 for a in self.fund)

    def pair_h(self, i: int) -> int:
        """Pairing with the coroot h_i."""
        return self.fund[i % self.n]

    def fund_part(self) -> "Weight":
        return Weight(self.n, self.fund, 0)

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


def addable_nodes(lam: Partition) -> list[Node]:
    """All addable nodes, in increasing column order."""
    out = [Node(len(lam) + 1, 1, -len(lam))]
    for i, p in enumerate(lam):
        if i == 0 or lam[i - 1] > p:
            out.append(Node(i + 1, p + 1, p + 1 - (i + 1)))
    return sorted(out, key=lambda nd: nd.col)


def removable_nodes(lam: Partition) -> list[Node]:
    """All removable nodes, in increasing column order."""
    out = []
    for i, p in enumerate(lam):
        if i == len(lam) - 1 or lam[i + 1] < p:
            out.append(Node(i + 1, p, p - (i + 1)))
    return sorted(out, key=lambda nd: nd.col)


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


def node_lists(lam: Partition, n: int, i: int) -> tuple[list[Node], list[Node]]:
    """(addable i-nodes, removable i-nodes), increasing column order."""
    add, rem = [], []
    for r, c, s in _inodes(lam, n, i):
        (add if s > 0 else rem).append(Node(r + 1, c, c - r - 1))
    return add, rem


def content_lists(lam: Partition) -> tuple[list[int], list[int]]:
    """(addable contents, removable contents), integer contents, ascending."""
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


def enumerate_partitions(
    m: int, regular: int | None = None, max_part: int | None = None
) -> list[Partition]:
    """All partitions of m in descending lexicographic order.

    With ``regular=n``, only n-regular partitions are kept.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    out: list[Partition] = []

    def rec(remaining: int, cap: int, acc: list[int]):
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
            rec(remaining - p, p, acc)
            acc.pop()

    rec(m, m if max_part is None else min(m, max_part), [])
    return out


def dominates(lam: Partition, mu: Partition) -> bool:
    """True iff lam >= mu in dominance order (same total size assumed)."""
    s1 = s2 = 0
    for k in range(max(len(lam), len(mu))):
        s1 += lam[k] if k < len(lam) else 0
        s2 += mu[k] if k < len(mu) else 0
        if s1 < s2:
            return False
    return True


@lru_cache(maxsize=None)
def _cartan_inverse(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of the (n-1)x(n-1) finite type-A Cartan matrix."""
    return tuple(
        tuple(Fraction(min(i, j) * (n - max(i, j)), n) for j in range(1, n))
        for i in range(1, n)
    )


def weight_target_profile(
    n: int, j: int, target: tuple[int, int]
) -> tuple[tuple[int, ...], int] | None:
    """Residue-count profile forced by a branching target.

    For the target Lambda_s + Lambda_t inside V(Lambda_j) x V(Lambda_0), a
    contributing partition has residue counts m_i = E + c_i with c_0 = 0.
    Returns (c, sum(c)) or None when the target is unreachable (including
    j != s + t mod n).
    """
    s, t = target
    if (s + t - j) % n != 0:
        return None
    T = [0] * n
    T[0] += 1
    T[j % n] += 1
    T[s % n] -= 1
    T[t % n] -= 1
    if n == 1:
        raise ValueError("n must be >= 2")
    inv = _cartan_inverse(n)
    c = [Fraction(0)] * n
    for i in range(1, n):
        c[i] = sum(inv[i - 1][k - 1] * T[k] for k in range(1, n))
    # consistency at the wrap-around equation k = 0
    if 2 * c[0] - c[n - 1] - c[1 % n] != T[0]:
        return None
    if any(ci.denominator != 1 for ci in c):
        return None
    return tuple(int(ci) for ci in c), int(sum(c))
