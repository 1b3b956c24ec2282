"""Command-line front end: every computation as a subcommand with
reproducible text/json/csv/dot output.

Each subparser sets a ``cost`` estimate from the parsed arguments, and
``dispatch`` refuses a command whose estimate is over ``BUDGET`` before any
work starts; a partition flag is counted from its (value, count) pairs, so
``value^count`` is expanded only once the command is admitted.  Exit codes: 0
success, 2 invalid arguments, 3 internal convention-violation assertion, 4 over
the cost budget (or an input too large for the stack or memory at hand).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import chain, compress, repeat
from math import comb, factorial, prod
from operator import is_not

from . import branching, canonical, crystal, fock, paths, specht
from . import partitions as pt
from .errors import ConventionError, ResourceBoundError
from .qseries import _ZERO, LaurentPoly, TruncatedSeries, inv_phi

__all__ = ["main", "dispatch", "BUDGET"]


def _csv(rows) -> str:
    """The rows, streamed through one csv.writer: every CSV table the CLI prints."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _matrix(fmt: str, head: dict, rows: list[str], cols: list[str], entries, cell) -> str:
    """A matrix of LaurentPoly entries labelled by rows and cols, each shown as cell(entry).

    CSV has a header of column labels, one line per row label and '.' for a
    zero entry; JSON has the head fields plus "entries".  ``qseries._dense``
    fills every empty cell with the one zero ``_ZERO``, so one scan by identity
    finds a row's other entries, and the texts of those that are not zero
    either are patched into a row of zero cells.  Entries share few distinct
    objects, so each object is rendered once per matrix.  No cell text holds a
    comma, quote or line break, so only the labels need CSV quoting.
    """
    blank = [cell(_ZERO) if fmt == "json" else "."] * len(cols)
    show = cell if fmt == "json" else lambda e: str(cell(e))
    texts: dict[int, object] = {}  # id of an entry -> its cell, None for a zero

    def patched(row) -> list:
        cells = blank.copy()
        for j in compress(range(len(row)), map(is_not, row, repeat(_ZERO))):
            e = row[j]
            if id(e) not in texts:
                texts[id(e)] = None if e.is_zero() else show(e)
            if texts[id(e)] is not None:
                cells[j] = texts[id(e)]
        return cells

    if fmt == "json":  # the head's text around the entries, written row by row
        before, after = json.dumps({**head, "entries": 0}, sort_keys=True).split('"entries": 0')
        rows_json = ((", " if i else "") + json.dumps(patched(row)) for i, row in enumerate(entries))
        return "".join(chain([before, '"entries": ['], rows_json, ["]", after]))
    labels = _csv([r] for r in rows).splitlines()
    return _csv([["", *cols]]) + "".join(
        f"{label},{','.join(patched(row))}\n" for label, row in zip(labels, entries))


def _emit(x: LaurentPoly | TruncatedSeries, fmt: str, var: str = "q") -> str:
    if fmt == "csv":
        rows = ([num if x.den == 1 else f"{num}/{x.den}", c] for num, c in sorted(x.terms.items()))
        return _csv(chain([["exponent", "coefficient"]], rows))
    if fmt == "json":
        payload = {"den": x.den, "terms": {str(k): v for k, v in sorted(x.terms.items())}}
        if isinstance(x, TruncatedSeries):
            payload["order"] = str(x.order)
        return json.dumps(payload, sort_keys=True)
    return x.to_text(var)


def _int_at_least(low: int, what: str):
    """An argparse type: an integer >= low, else exit 2 saying it must be ``what``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value

    return integer


_NONNEGATIVE = _int_at_least(0, "nonnegative")
_ROOT_ORDER = _int_at_least(2, "at least 2 (q is a primitive n-th root of unity)")


def _parse_target(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be two integers s,t (the target Lambda_s + Lambda_t), got {text!r}"
        ) from None


def cmd_crystal_graph(args) -> str:
    g = crystal.crystal_graph(args.n, args.max_m, component_of_empty=not args.full)
    if args.format == "dot":
        return crystal.to_dot(g)
    edges = [(pt.format_partition(a), i, pt.format_partition(b)) for a, i, b in g.edges]
    if args.format == "json":
        nodes = [pt.format_partition(x) for x in g.nodes]
        payload = {"n": g.n, "max_m": g.max_m, "nodes": nodes, "edges": [list(e) for e in edges]}
        return json.dumps(payload, sort_keys=True)
    lines = [f"{a} -{i}-> {b}" for a, i, b in edges]
    return "\n".join([f"nodes {len(g.nodes)} edges {len(g.edges)}", *lines])


def cmd_decomposition(args) -> str:
    """canonical-basis, decomp-matrix (the same matrix at q = 1) and restriction."""
    if args.command == "restriction":
        mat = canonical.restriction_coeffs(args.n, args.m)
    else:
        mat = canonical.global_lower_basis(args.n, args.m)
    cell = LaurentPoly.eval_one if args.command == "decomp-matrix" else LaurentPoly.to_text
    rows = [pt.format_partition(r) for r in mat.rows]
    cols = [pt.format_partition(c) for c in mat.cols]
    head = {"n": mat.n, "m": mat.m, "rows": rows, "cols": cols}
    return _matrix(args.format, head, rows, cols, mat.entries, cell)


def cmd_specht_matrix(args) -> str:
    shape = pt.parse_partition(args.shape)
    mat = specht.rep_matrix(shape, args.gen)
    basis = [specht.tableau_text(t) for t in specht.standard_tableaux(shape)]
    head = {"shape": pt.format_partition(shape), "gen": args.gen, "basis": basis}
    return _matrix(args.format, head, basis, basis, mat, lambda e: e.to_text("v"))


def cmd_tableaux(args) -> str:
    shape = pt.parse_partition(args.shape)
    rows = [specht.tableau_text(t) for t in specht.standard_tableaux(shape)]
    return "\n".join(rows)


def _partition_flag(text: str, n: int, core: bool = False) -> pt.Partition:
    """The partition a flag spells, refused before it is expanded if its (value,
    count) pairs hold n equal parts: it is then not n-regular, nor an n-core
    (n parts v leave an n-hook ending in the first of the block's last n rows)."""
    mults = pt.parse_multiplicities(text)
    if n >= 2 and any(c >= n for _, c in mults):
        raise ValueError(f"{pt._quoted(mults)} is not {f'a {n}-core' if core else f'{n}-regular'}")
    return pt.parse_partition(text)


def cmd_js_list(args) -> str:
    core = pt.parse_partition(args.core)
    members = paths.js_members(args.n, core, args.weight)
    rows = [pt.format_partition(x) for x in members]
    if args.format == "csv":
        return _csv(chain([["partition"]], ([r] for r in rows)))
    if args.format == "json":
        return json.dumps(rows)
    return "\n".join(rows)


def cmd_fow(args) -> str:
    n = args.n

    def row(lam: pt.Partition) -> list:
        jj = paths.fow_classify(lam, n)  # checks regularity first
        _, e, wt = pt.residue_data(lam, n)
        core, w = pt.n_core(lam, n)
        fow_j = ";".join(map(str, range(n))) if jj == paths.ALL_J else ("" if jj is None else jj)
        return [pt.format_partition(lam), e, wt.vector(), fow_j, int(jj is not None),
                pt.format_partition(core), w]

    if args.partition is not None:
        lams = [_partition_flag(args.partition, n)]
    else:
        lams = pt.enumerate_partitions(args.m, regular=n)
    header = ["partition", "E", "wt", "fow_j", "js", "core", "weight"]
    return _csv(chain([header], map(row, lams)))


def cmd_branching(args) -> str:
    if args.source == "paths":
        poly = paths.branching_poly_paths(args.n, args.j, args.target, args.L)
        return _emit(poly, args.format)
    if args.source == "crystal":
        series = crystal.branching_series_crystal(args.n, args.j, args.target, args.degree)
        return _emit(series, args.format)
    fb = branching.fermionic_poly(args.n, args.j, args.target, args.L)
    body = _emit(fb.normalized, args.format)
    note = f"# raw shift q^{fb.shift} (direct reading)"
    return body + ("\n" if not body.endswith("\n") else "") + note


def cmd_chi(args) -> str:
    core = _partition_flag(args.core, args.n, core=True)
    if args.source == "direct":
        series = paths.chi_js_direct(args.n, core, args.degree)
    else:
        series = branching.chi_js(args.n, core, args.degree)
    return _emit(series, args.format)


def cmd_abf(args) -> str:
    if args.source == "limit":
        series = branching.x_limit(args.L, args.a, args.b, args.c, args.degree)
        return _emit(series, args.format)
    if args.source == "closed":
        poly = branching.abf_closed(args.L, args.a, args.b, args.c, args.m)
    else:
        poly = paths.abf_sum_direct(args.L, args.a, args.b, args.c, args.m)
    return _emit(poly, args.format)


def cmd_virasoro(args) -> str:
    series = branching.rocha_caridi(args.mparam, args.r, args.s, args.degree)
    return _emit(series, args.format)


def cmd_cores(args) -> str:
    lam = pt.parse_partition(args.partition)
    core, weight = pt.n_core(lam, args.n)
    hooks = pt.rim_hook_count(lam, args.n)
    if args.format == "json":
        payload = {"partition": pt.format_partition(lam), "n": args.n,
                   "core": pt.format_partition(core), "weight": weight, "hooks": hooks}
        return json.dumps(payload, sort_keys=True)
    return f"core={pt.format_partition(core)} weight={weight} hooks={hooks}"


def cmd_selfcheck(args) -> tuple[str, int]:
    lines = []

    def record(name: str, ok: bool, detail: str = ""):
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")

    for n in (2, 3):
        rep = fock.relation_check(n, 4)
        record(f"fock-relations n={n} m<=4", rep.ok, "; ".join(rep.failures[:2]))
    for n in (2, 3):
        lams = [lam for m in range(7) for lam in pt.enumerate_partitions(m, regular=n)]
        record(f"js-three-way n={n} m<=6", all(
            crystal.js_crystal(lam, n) == paths.js_combinatorial(lam, n) == canonical.js_canonical(lam, n)
            for lam in lams))
    for n in (2, 3):
        lams = [lam for m in range(9) for lam in pt.enumerate_partitions(m, regular=n)]
        record(f"path-bijection n={n} m<=8",
               all(paths.to_partition(paths.to_path(lam, n)) == lam for lam in lams))
    ok = True
    for (j, st) in ((0, (0, 0)), (0, (1, 2)), (1, (0, 1)), (1, (2, 2)), (2, (0, 2)), (2, (1, 1))):
        fb = branching.fermionic_poly(3, j, st, 9)
        series = crystal.branching_series_crystal(3, j, st, 3)
        ok = ok and all(fb.normalized.coeff(e) == series.coeff(e) for e in range(4))
    record("branching-three-way n=3 deg<=3", ok)
    failures = sum(line.startswith("FAIL") for line in lines)
    if failures:
        lines.append(f"{failures} failing invariant(s)")
    return "\n".join(lines), failures


# The cost budget of one command.  Each subparser's estimate is a closed count
# of the command's innermost steps, weighted so that a unit is about 1 us on a
# 2-vCPU x86-64 host with CPython 3.11 (a Specht matrix cell, about 30 bytes,
# is a unit): admitted commands take up to about 10 s there.  Past _CAP nodes a
# partition count is at least q(200) = 487,067,746, so it is not needed exactly.
BUDGET, _CAP = 10_000_000, 200


def _counts(m: int, n: int | None = None) -> list[int]:
    """p(s), or with n the n-regular count r_n(s) (the principal character: no
    part divisible by n; 0 for s > 0 when n < 2), for s = 0..min(m, _CAP), s = 0 if m < 0."""
    k = max(min(m, _CAP), 0)
    series = inv_phi(k) if n is None else branching.principal_char(max(n, 1), k)
    return [series.terms.get(s, 0) for s in range(k + 1)]  # exponents on the integers


def _tableau_count(mults: list[tuple[int, int]]) -> int:
    """f, the number of standard tableaux of the shape with these (value,
    multiplicity) pairs, by the hook length formula.  A shape of m >= 5 cells,
    not a row or a column, has f >= m - 1 (the least degree of a character of
    S_m beyond the trivial and sign ones): m - 1 stands in for f once m(m - 1)
    is over the budget, and the shape is not expanded."""
    m = sum(v * a for v, a in mults)
    if m * (m - 1) > BUDGET:
        return 1 if mults[0] in ((m, 1), (1, m)) else m - 1  # a row or a column has f = 1
    shape = tuple(v for v, a in mults for _ in range(a))
    cols = pt.conjugate(shape)
    return factorial(m) // prod(r - c + cols[c] - i - 1 for i, r in enumerate(shape)
                                for c in range(r))


def _specht_cost(a):
    mults = pt.parse_multiplicities(a.shape)
    m, f = sum(v * c for v, c in mults), _tableau_count(mults)
    basis = f * m * (sum(c for _, c in mults) + 2) // 2  # each entry placed by a scan of the rows
    if a.command == "tableaux":
        return basis, "the m entries of each of the f standard tableaux"
    if not 1 <= a.gen < m:
        return 0, ""  # the command refuses the generator
    return f * f + basis, "the f x f cells of the matrix and its basis of f tableaux"


def _beads(text: str, n: int) -> int:
    """The parts a partition flag spells, counted without expanding it, plus n:
    the beads and runners of the abacus that n-cores and residue counts read."""
    return sum(c for _, c in pt.parse_multiplicities(text)) + n


_BEADS = "the parts of the partition and its n runners"


def _edge_sum_cost(a, weight: int):
    beads = _beads(a.core, a.n)
    if beads > BUDGET:
        return beads, _BEADS
    core = _partition_flag(a.core, a.n, core=True)
    pt.check_core(core, a.n)
    size = sum(core) + a.n * weight  # a set of part values and a first multiplicity fix one
    return a.n * size * sum(_counts(size, 2)) // 700, f"the edge-sum partitions of size <= {size}"


def _fow_cost(a):
    if a.partition is None:
        return _counts(a.m, a.n)[-1] * a.n * a.m, "the n-regular partitions of m"
    return a.n * _beads(a.partition, a.n), "n residue counts for each part and runner of the partition"


def _chi_cost(a):
    if a.source == "direct":
        return _edge_sum_cost(a, a.degree)
    return max((_beads(a.core, a.n), _BEADS),
               (a.n * (a.n * a.degree) ** 2 // 8, "the stable branching series to the degree"))


def _branching_cost(a):
    n, L, d = a.n, a.L, a.degree
    pt.check_target(n, a.j, a.target)
    if a.source == "paths":
        cost = n * n * L**3 // 40, "the path DP over part values up to L"
    elif a.source == "fermionic":
        # 100 us of fixed work, then the C(n - 2 + top, top - 1) multisets (a lower bound past C(., 64)),
        # each a kink test and q-binomials of about L^3/600 at n <= 3, a third of that per further n
        top = L // 2 + 1
        each = 3 + L**3 // 600 // 3 ** min(max(n - 3, 0), 40)
        cost = 100 + comb(n - 2 + top, min(top - 1, n - 1, 64)) * each, "the multisets of the constant-sign sum"
    else:
        r = _counts(n * d, n)
        steps = sum(r[min(n * e, _CAP)] * n * n * e for e in range(min(d, _CAP) + 1))
        cost = steps // 3, "the n-regular partitions of n * e nodes, e <= degree"
    return max(cost, (2 * n, "the n residue counts of the target"))


def _abf_cost(a):
    m = max(a.m, 0)
    paths._check_heights(a.L, a.a, a.b, a.c)
    if a.source == "limit":
        return a.degree**2 // 12, "the products of series to the degree"
    if a.source == "closed":
        return (m // (2 * a.L) + 2) * m**3 // 20, "the Gaussian binomials of length m"
    return m**3 * min(a.L, 2 * m) // 12, "the height sequences of length m"


_PARSER: argparse.ArgumentParser | None = None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser: built on the first call, then the same one for the process.

    Parsing keeps no state between calls, so every ``dispatch`` can share it.
    """
    global _PARSER
    if _PARSER is not None:
        return _PARSER
    p = argparse.ArgumentParser(
        prog="fcl",
        description="Exact combinatorics of level-1 paths, q-Fock spaces, "
        "crystal and canonical bases, and Specht modules.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, cost=lambda a: (0, ""), **kw):
        """A subcommand; ``cost`` maps its parsed arguments to (estimate, what it counts)."""
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn, cost=cost)
        return sp

    sp = add("crystal-graph", cmd_crystal_graph, lambda a: (
        sum(_counts(a.max_m, None if a.full else a.n)) * a.n * a.max_m // 2,
        "the graph's nodes, n arrows each"), help="crystal graph as dot/json/text")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--max-m", type=_NONNEGATIVE, default=5)
    sp.add_argument("--full", action="store_true", help="all partitions, not just the component of the empty one")
    sp.add_argument("--format", choices=("dot", "json", "text"), default="dot")

    def matrix_cost(a):
        return 8 * _counts(a.m)[-1] * _counts(a.m, a.n)[-1], "the p(m) x r_n(m) matrix cells"

    for name, what in (("canonical-basis", "q-decomposition matrix d(q)"),
                       ("decomp-matrix", "decomposition matrix at q=1"),
                       ("restriction", "restriction multiplicities c(q)")):
        sp = add(name, cmd_decomposition, matrix_cost, help=what)
        sp.add_argument("--n", type=int, default=2)
        sp.add_argument("--m", type=int if name == "restriction" else _NONNEGATIVE, default=5)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("specht-matrix", cmd_specht_matrix, _specht_cost, help="generator matrix on a Specht module")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--gen", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("tableaux", cmd_tableaux, _specht_cost, help="standard tableaux of a shape")
    sp.add_argument("--shape", required=True)

    sp = add("js-list", cmd_js_list, lambda a: _edge_sum_cost(a, a.weight),
             help="irreducible-restriction labels by core and weight")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--core", default="")
    sp.add_argument("--weight", type=_NONNEGATIVE, default=0)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("fow", cmd_fow, _fow_cost, help="border-edge classification table")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--m", type=int, default=5)
    sp.add_argument("--partition", default=None)

    sp = add("branching", cmd_branching, _branching_cost, help="branching series/polynomials")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--target", type=_parse_target, default=(0, 0))
    sp.add_argument("--L", type=_NONNEGATIVE, default=8)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=6)
    sp.add_argument("--source", choices=("paths", "crystal", "fermionic"), default="paths")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("chi", cmd_chi, _chi_cost, help="irreducible-restriction generating series")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--core", default="")
    sp.add_argument("--degree", type=_NONNEGATIVE, default=4)
    sp.add_argument("--source", choices=("jscor", "direct"), default="jscor")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("abf", cmd_abf, _abf_cost, help="height-model configuration sums")
    sp.add_argument("--L", type=_NONNEGATIVE, default=4)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--c", type=int, default=2)
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=8)
    sp.add_argument("--source", choices=("direct", "closed", "limit"), default="direct")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("virasoro", cmd_virasoro, lambda a: (a.degree**2 // 12, "the series to the degree"),
             help="minimal-model character series")
    sp.add_argument("--mparam", type=int, default=3)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=10)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("cores", cmd_cores, lambda a: (_beads(a.partition, a.n), _BEADS),
             help="core, hook weight and hook count")
    sp.add_argument("--partition", required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--format", choices=("text", "json"), default="text")

    add("selfcheck", cmd_selfcheck, help="run internal consistency oracles")
    _PARSER = p
    return p


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cost, what = args.cost(args)
        if cost > BUDGET:
            raise ResourceBoundError(f"{args.command} is estimated at {cost:,} steps for"
                                     f" {what}, over the budget of {BUDGET:,}")
        result = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConventionError, AssertionError) as exc:
        print(f"internal convention violation: {exc}", file=sys.stderr)
        return 3
    except ResourceBoundError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except (RecursionError, MemoryError):
        print("resource cap: input too large for the stack or memory at hand", file=sys.stderr)
        return 4
    text, failures = result if isinstance(result, tuple) else (result, 0)
    print(text)
    return 1 if failures else 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
