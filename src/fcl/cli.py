"""Command-line front end: every computation as a subcommand with
reproducible text/json/csv/dot output.

Exit codes: 0 success, 2 invalid arguments, 3 internal convention-violation
assertion, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from itertools import chain

from . import branching, canonical, crystal, fock, paths, specht
from . import partitions as pt
from .errors import ConventionError, ExactDivisionError, ResourceBoundError
from .qseries import _ZERO, LaurentPoly, TruncatedSeries

__all__ = ["main", "dispatch"]


def _max_degree_cap() -> int:
    cap = os.environ.get("FCL_MAX_DEGREE") or "64"
    if not cap.strip().isdecimal():
        raise ValueError(f"FCL_MAX_DEGREE must be a nonnegative integer, got {cap!r}")
    return int(cap)


def _check_degree(d: int):
    cap = _max_degree_cap()
    if d > cap:
        raise ResourceBoundError(f"degree {d} exceeds FCL_MAX_DEGREE={cap}")


def _csv(rows) -> str:
    """The rows, streamed through one csv.writer: every CSV table the CLI prints."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _matrix(fmt: str, head: dict, rows: list[str], cols: list[str], entries, cell) -> str:
    """A matrix of LaurentPoly entries labelled by rows and cols, each shown as cell(entry).

    CSV has a header of column labels, one line per row label and '.' for a
    zero entry; JSON has the head fields plus "entries".  The library fills
    its matrices with the one zero ``_ZERO``, so a zero is found by identity
    first; ``is_zero`` catches any other.
    """
    zero = cell(_ZERO) if fmt == "json" else "."
    body = (
        [zero if e is _ZERO or e.is_zero() else cell(e) for e in row] for row in entries
    )
    if fmt == "json":
        return json.dumps({**head, "entries": list(body)}, sort_keys=True)
    lines = ([label, *cells] for label, cells in zip(rows, body))
    return _csv(chain([["", *cols]], lines))


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
    _check_degree(args.max_m)
    g = crystal.crystal_graph(
        args.n, args.max_m, component_of_empty=not args.full, max_nodes=args.max_nodes
    )
    if args.format == "dot":
        return crystal.to_dot(g)
    if args.format == "json":
        return json.dumps(
            {
                "n": g.n,
                "max_m": g.max_m,
                "nodes": [pt.format_partition(x) for x in g.nodes],
                "edges": [
                    [pt.format_partition(a), i, pt.format_partition(b)]
                    for a, i, b in g.edges
                ],
            },
            sort_keys=True,
        )
    lines = [f"nodes {len(g.nodes)} edges {len(g.edges)}"]
    for a, i, b in g.edges:
        lines.append(f"{pt.format_partition(a)} -{i}-> {pt.format_partition(b)}")
    return "\n".join(lines)


def _decomposition(fmt: str, mat: canonical.DecompositionMatrix, cell) -> str:
    rows = [pt.format_partition(r) for r in mat.rows]
    cols = [pt.format_partition(c) for c in mat.cols]
    head = {"n": mat.n, "m": mat.m, "rows": rows, "cols": cols}
    return _matrix(fmt, head, rows, cols, mat.entries, cell)


def cmd_canonical_basis(args) -> str:
    _check_degree(args.m)
    mat = canonical.global_lower_basis(args.n, args.m)
    return _decomposition(args.format, mat, LaurentPoly.to_text)


def cmd_decomp_matrix(args) -> str:
    _check_degree(args.m)
    mat = canonical.global_lower_basis(args.n, args.m)
    return _decomposition(args.format, mat, LaurentPoly.eval_one)


def cmd_restriction(args) -> str:
    _check_degree(args.m)
    mat = canonical.restriction_coeffs(args.n, args.m)
    return _decomposition(args.format, mat, LaurentPoly.to_text)


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
        _, e, wt = pt.residue_data(lam, n)
        jj = paths.fow_classify(lam, n)
        core, w = pt.n_core(lam, n)
        fow_j = ";".join(map(str, range(n))) if jj == paths.ALL_J else ("" if jj is None else jj)
        return [pt.format_partition(lam), e, wt.vector(), fow_j, int(jj is not None),
                pt.format_partition(core), w]

    if args.partition is not None:
        lams = [pt.parse_partition(args.partition)]
    else:
        lams = pt.enumerate_partitions(args.m, regular=n)
    header = ["partition", "E", "wt", "fow_j", "js", "core", "weight"]
    return _csv(chain([header], map(row, lams)))


def cmd_branching(args) -> str:
    _check_degree(args.degree)
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
    _check_degree(args.degree)
    core = pt.parse_partition(args.core)
    if args.source == "direct":
        series = paths.chi_js_direct(args.n, core, args.degree)
    else:
        series = branching.chi_js(args.n, core, args.degree)
    return _emit(series, args.format)


def cmd_abf(args) -> str:
    if args.source == "limit":
        _check_degree(args.degree)
        series = branching.x_limit(args.L, args.a, args.b, args.c, args.degree)
        return _emit(series, args.format)
    if args.source == "closed":
        _check_degree(args.m)
        poly = branching.abf_closed(args.L, args.a, args.b, args.c, args.m)
    else:
        poly = paths.abf_sum_direct(args.L, args.a, args.b, args.c, args.m)
    return _emit(poly, args.format)


def cmd_virasoro(args) -> str:
    _check_degree(args.degree)
    series = branching.rocha_caridi(args.mparam, args.r, args.s, args.degree)
    return _emit(series, args.format)


def cmd_cores(args) -> str:
    lam = pt.parse_partition(args.partition)
    core, weight = pt.n_core(lam, args.n)
    hooks = pt.rim_hook_count(lam, args.n)
    if args.format == "json":
        return json.dumps(
            {
                "partition": pt.format_partition(lam),
                "n": args.n,
                "core": pt.format_partition(core),
                "weight": weight,
                "hooks": hooks,
            },
            sort_keys=True,
        )
    return f"core={pt.format_partition(core)} weight={weight} hooks={hooks}"


def cmd_selfcheck(args) -> str:
    lines = []
    failures = 0

    def record(name: str, ok: bool, detail: str = ""):
        nonlocal failures
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}{(' ' + detail) if detail else ''}")
        if not ok:
            failures += 1

    for n in (2, 3):
        rep = fock.relation_check(n, 4)
        record(f"fock-relations n={n} m<=4", rep.ok, "; ".join(rep.failures[:2]))
    for n in (2, 3):
        ok = True
        for m in range(0, 7):
            for lam in pt.enumerate_partitions(m, regular=n):
                a = crystal.js_crystal(lam, n)
                b = paths.js_combinatorial(lam, n)
                c = canonical.js_canonical(lam, n)
                if not (a == b == c):
                    ok = False
        record(f"js-three-way n={n} m<=6", ok)
    for n in (2, 3):
        ok = True
        for m in range(0, 9):
            for lam in pt.enumerate_partitions(m, regular=n):
                if paths.to_partition(paths.to_path(lam, n)) != lam:
                    ok = False
        record(f"path-bijection n={n} m<=8", ok)
    ok = True
    for (j, st) in ((0, (0, 0)), (0, (1, 2)), (1, (0, 1)), (1, (2, 2)), (2, (0, 2)), (2, (1, 1))):
        fb = branching.fermionic_poly(3, j, st, 9)
        series = crystal.branching_series_crystal(3, j, st, 3)
        for e in range(4):
            if fb.normalized.coeff(e) != series.coeff(e):
                ok = False
    record("branching-three-way n=3 deg<=3", ok)
    if failures:
        lines.append(f"{failures} failing invariant(s)")
    return "\n".join(lines), failures


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

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        return sp

    sp = add("crystal-graph", cmd_crystal_graph, help="crystal graph as dot/json/text")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--max-m", type=_NONNEGATIVE, default=5)
    sp.add_argument("--full", action="store_true", help="all partitions, not just the component of the empty one")
    sp.add_argument("--max-nodes", type=_NONNEGATIVE, default=None)
    sp.add_argument("--format", choices=("dot", "json", "text"), default="dot")

    sp = add("canonical-basis", cmd_canonical_basis, help="q-decomposition matrix d(q)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=_NONNEGATIVE, default=5)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("decomp-matrix", cmd_decomp_matrix, help="decomposition matrix at q=1")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=_NONNEGATIVE, default=5)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("restriction", cmd_restriction, help="restriction multiplicities c(q)")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--m", type=int, default=5)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("specht-matrix", cmd_specht_matrix, help="generator matrix on a Specht module")
    sp.add_argument("--shape", required=True)
    sp.add_argument("--gen", type=int, default=1)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")

    sp = add("tableaux", cmd_tableaux, help="standard tableaux of a shape")
    sp.add_argument("--shape", required=True)

    sp = add("js-list", cmd_js_list, help="irreducible-restriction labels by core and weight")
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--core", default="")
    sp.add_argument("--weight", type=_NONNEGATIVE, default=0)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("fow", cmd_fow, help="border-edge classification table")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--m", type=int, default=5)
    sp.add_argument("--partition", default=None)

    sp = add("branching", cmd_branching, help="branching series/polynomials")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--j", type=int, default=0)
    sp.add_argument("--target", type=_parse_target, default=(0, 0))
    sp.add_argument("--L", type=_NONNEGATIVE, default=8)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=6)
    sp.add_argument("--source", choices=("paths", "crystal", "fermionic"), default="paths")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("chi", cmd_chi, help="irreducible-restriction generating series")
    sp.add_argument("--n", type=_ROOT_ORDER, default=2)
    sp.add_argument("--core", default="")
    sp.add_argument("--degree", type=_NONNEGATIVE, default=4)
    sp.add_argument("--source", choices=("jscor", "direct"), default="jscor")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("abf", cmd_abf, help="height-model configuration sums")
    sp.add_argument("--L", type=_NONNEGATIVE, default=4)
    sp.add_argument("--a", type=int, default=1)
    sp.add_argument("--b", type=int, default=1)
    sp.add_argument("--c", type=int, default=2)
    sp.add_argument("--m", type=int, default=4)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=8)
    sp.add_argument("--source", choices=("direct", "closed", "limit"), default="direct")
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("virasoro", cmd_virasoro, help="minimal-model character series")
    sp.add_argument("--mparam", type=int, default=3)
    sp.add_argument("--r", type=int, default=1)
    sp.add_argument("--s", type=int, default=1)
    sp.add_argument("--degree", type=_NONNEGATIVE, default=10)
    sp.add_argument("--format", choices=("text", "csv", "json"), default="text")

    sp = add("cores", cmd_cores, help="core, hook weight and hook count")
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
        result = args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConventionError, ExactDivisionError, AssertionError) as exc:
        print(f"internal convention violation: {exc}", file=sys.stderr)
        return 3
    except ResourceBoundError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 4
    except RecursionError:
        print("resource cap: input too large to enumerate", file=sys.stderr)
        return 4
    if isinstance(result, tuple):
        text, failures = result
        print(text)
        return 1 if failures else 0
    print(result)
    return 0


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
