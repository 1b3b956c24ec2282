"""Crystal structure on partitions: signature rule, the Kashiwara operator f~_i,
crystal graphs, branching multiplicities and the crystal irreducibility test.

The signature of a partition reads its i-node sweep (columns left to right)
as A for an addable i-node and R for a removable one; a stack cancels RA
pairs in that one pass and the survivors A..AR..R locate the good nodes.

Branching multiplicities count vertices in one walk that places rows top
down and reads the rim right to left: row 0 adds an A of residue lam_0, a
step lam_k < lam_(k-1) adds an R of residue lam_(k-1) - k, then an A of
residue lam_k - k, and the last row closes with an R of residue lam_(L-1) - L
(mod n).  An R cancels a pending A of its residue or else raises eps_i, the
same bracket matching from the other end.  Later rows only add letters to
the left, where no R read so far can meet them, so eps only grows: a row
that pushes an eps_i or a residue count past its bound is dropped with
everything below it.
"""

from __future__ import annotations

from collections import namedtuple

from . import partitions as pt
from .errors import ConventionError
from .qseries import TruncatedSeries

__all__ = [
    "SignatureWord",
    "signature",
    "f_tilde",
    "eps_phi",
    "CrystalGraph",
    "crystal_graph",
    "branching_series_crystal",
    "js_crystal",
    "to_dot",
]


class SignatureWord(namedtuple("SignatureWord", "symbols reduced good_removable good_addable")):
    """The i-node sweep read as letters (A addable, R removable) with their columns, the
    letters left after cancellation, and the columns of the good removable and addable nodes."""

    __slots__ = ()

    @property
    def eps(self) -> int:
        return sum(1 for s, _ in self.reduced if s == "R")

    @property
    def phi(self) -> int:
        return sum(1 for s, _ in self.reduced if s == "A")

    def word(self, reduced: bool = False) -> str:
        syms = self.reduced if reduced else self.symbols
        return " ".join(f"{s}{c}" for s, c in syms)


def _reduce(lam: pt.Partition, n: int, i: int):
    """(i-node sweep of lam, its uncancelled entries A..A R..R).

    Read left to right, each A (addable) cancels the nearest R (removable)
    before it that is still on the stack.
    """
    sweep = pt._inodes(lam, n, i)
    stack = []
    for node in sweep:
        if node[2] > 0 and stack and stack[-1][2] < 0:
            stack.pop()
        else:
            stack.append(node)
    return sweep, stack


def _letters(nodes) -> tuple[tuple[str, int], ...]:
    return tuple(("A" if s > 0 else "R", col) for _, col, s in nodes)


def signature(lam: pt.Partition, n: int, i: int) -> SignatureWord:
    sweep, stack = _reduce(lam, n, i)
    removals = [col for _, col, s in stack if s < 0]
    addables = [col for _, col, s in stack if s > 0]
    return SignatureWord(
        symbols=_letters(sweep),
        reduced=_letters(stack),
        good_removable=removals[0] if removals else None,
        good_addable=addables[-1] if addables else None,
    )


def f_tilde(lam: pt.Partition, n: int, i: int) -> pt.Partition | None:
    """Add the good i-node: the last A left after cancellation."""
    _, stack = _reduce(lam, n, i)
    rows = [r for r, _, s in stack if s > 0]
    if not rows:
        return None
    return pt._grown(lam, rows[-1])


def eps_phi(lam: pt.Partition, n: int, i: int) -> tuple[int, int]:
    sig = signature(lam, n, i)
    return sig.eps, sig.phi


def js_crystal(lam: pt.Partition, n: int) -> bool:
    """True iff the eps profile is a single 1 (the empty partition counts)."""
    pt.check_regular(lam, n)
    if not lam:
        return True
    eps = [eps_phi(lam, n, i)[0] for i in range(n)]
    return sorted(eps) == [0] * (n - 1) + [1]


class CrystalGraph(namedtuple("CrystalGraph", "n max_m component_of_empty nodes edges")):
    """The nodes in size order and the edges (lam, i, f~_i lam)."""

    __slots__ = ()

    def levels(self) -> dict[int, list[pt.Partition]]:
        out: dict[int, list[pt.Partition]] = {}
        for lam in self.nodes:
            out.setdefault(sum(lam), []).append(lam)
        return out


def crystal_graph(n: int, max_m: int, component_of_empty: bool = True) -> CrystalGraph:
    """The crystal graph on partitions of weight <= max_m.

    With component_of_empty=True the nodes are the n-regular partitions, and
    they are checked to be the component of the empty partition: closed
    under every f~_i, and every nonempty node reached by one.
    """
    if component_of_empty and n < 2:
        raise ValueError("regularity needs n >= 2")
    if n < 1:
        raise ValueError(f"a crystal graph needs n >= 1, got {n}")
    regular = n if component_of_empty else None
    nodes: list[pt.Partition] = []
    for m in range(max_m + 1):
        nodes.extend(pt.enumerate_partitions(m, regular=regular))
    members = set(nodes)
    edges = []
    for lam in nodes:
        if sum(lam) == max_m:
            break
        for i in range(n):
            mu = f_tilde(lam, n, i)
            if mu is None:
                continue
            if mu not in members:
                raise ConventionError(f"f~_{i} leads from {lam} out of the graph to {mu}")
            edges.append((lam, i, mu))
    if component_of_empty:
        unreached = members - {mu for _, _, mu in edges} - {()}
        if unreached:
            raise ConventionError(f"no f~_i reaches {sorted(unreached)[0]}")
    return CrystalGraph(n, max_m, component_of_empty, nodes, edges)


def branching_series_crystal(
    n: int, j: int, target: tuple[int, int], degree: int
) -> TruncatedSeries:
    """Graded multiplicity of the target weight by crystal-vertex counting.

    The q^e coefficient counts n-regular partitions of weight
    Lambda_s + Lambda_t - Lambda_j - e*delta (exactly, delta included) whose
    eps profile vanishes away from j and is at most 1 at j.
    """
    prof = pt.weight_target_profile(n, j, target)
    terms: dict[int, int] = {}
    if prof is not None:
        for e in range(degree + 1):
            want = [e + ci for ci in prof[0]]
            if min(want) >= 0 and (count := _vertices(n, j, want)):
                terms[e] = count
    return TruncatedSeries(terms, 1, degree)


def _vertices(n: int, j: int, want: list[int]) -> int:
    """The n-regular partitions with residue counts `want` and eps_i <= [i = j].

    `rows(k, prev, run, left)` places row k below `run` rows of length `prev`,
    `left` nodes to go.  Row -1 is longer than any row; a seeded A meets the
    R closing it.
    """
    size = sum(want)
    pending, eps = [0] * n, [0] * n
    pending[(size + 1) % n] = 1

    def rows(k: int, prev: int, run: int, left: int) -> int:
        r = (prev - k) % n  # the R closing row k - 1, read if row k is shorter
        tally, step = (pending, -1) if pending[r] else (eps, 1)
        closes = tally is pending or eps[r] < (r == j)
        if not left:
            return int(closes)
        if closes:
            tally[r] += step
        count = p = 0
        while p < min(prev, left) and want[(p - k) % n]:
            want[(p - k) % n] -= 1  # the node in column p + 1 of row k
            p += 1
            if p < prev and closes:
                pending[(p - k) % n] += 1  # the A just right of row k
                count += rows(k + 1, p, 1, left - p)
                pending[(p - k) % n] -= 1
        if closes:
            tally[r] -= step
        if p == prev and run < n - 1:
            count += rows(k + 1, p, run + 1, left - p)
        for q in range(p):
            want[(q - k) % n] += 1
        return count

    return rows(0, size + 1, 0, size)


def to_dot(graph: CrystalGraph) -> str:
    """DOT rendering; irreducible-restriction nodes get peripheries=2.

    The marking needs n >= 2 (n-regularity); an n = 1 graph has no marks.
    """
    from .paths import js_combinatorial

    lines = ["digraph crystal {"]
    for lam in graph.nodes:
        attrs = []
        if graph.n >= 2 and pt.is_n_regular(lam, graph.n) and js_combinatorial(lam, graph.n):
            attrs.append("peripheries=2")
        attr = (" [" + ",".join(attrs) + "]") if attrs else ""
        lines.append(f'  "{pt.format_partition(lam)}"{attr};')
    for lam, i, mu in graph.edges:
        lines.append(
            f'  "{pt.format_partition(lam)}" -> "{pt.format_partition(mu)}" [label="{i}"];'
        )
    lines.append("}")
    return "\n".join(lines)
