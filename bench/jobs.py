"""Job pools of the benchmark workloads and the seeded job-list generator.

A job is a JSON-able dict, either a CLI call

    {"kind": "cli", "argv": ["decomp-matrix", "--n", "2", "--m", "18"]}

run in-process through ``fcl.cli.dispatch``, or a library call

    {"kind": "lib", "call": "branching.fermionic_limit", "args": [4, 0, [0, 0], 8]}

for computations that have no CLI command (list arguments become tuples).

Each workload is a list of strata.  A stratum holds candidate *units* (a unit
is a short list of jobs that belong together, such as every generator of one
Specht module) and the number of units the seed draws from it.  The seed picks
the units of every stratum and then shuffles all their jobs into one order.
Because every seed draws the same number of units from each stratum, and the
units of a stratum cost about the same (measured cold, one process per job
list, on a 2-core x86-64 container with CPython 3.11), total work is similar
across seeds while the job lists differ.
"""

from __future__ import annotations

import json
import random
from typing import NamedTuple


class Stratum(NamedTuple):
    name: str
    pick: int
    units: list[list[dict]]


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def lib(call: str, *args) -> dict:
    return {"kind": "lib", "call": call, "args": list(args)}


def job_key(job: dict) -> str:
    """Stable text name of a job; keys the pinned output digests."""
    if job["kind"] == "cli":
        return "fcl " + " ".join(job["argv"])
    return f"{job['call']}{json.dumps(job['args'], separators=(',', ':'))}"


# --- canonical -------------------------------------------------------------
# Lower global basis, q-decomposition and restriction matrices.  The work is
# the Fock action (f_apply/divided_f), LaurentPoly add/shift, node_lists and
# the canonical correction loop.  Light units repeat their (n, m) pair and
# restriction units read their matrix again, so global_basis_vectors and
# restriction_coeffs cache hits are part of every list: a cold restriction
# (2, 15) costs about 0.5 s, reading it again well under 1 ms.  m stops at
# 18: (2, 20) alone takes about 4 s.


def _canonical_restriction(n: int) -> list[dict]:
    # restriction (n, 15) builds the bases of 14 and 15.  Whichever of the
    # two jobs comes first pays for it; the other reads the cached
    # restriction matrix.
    return [
        cli("restriction", "--n", n, "--m", 15),
        lib("canonical.js_canonical", [5, 4, 3, 2, 1], n),  # distinct parts: n-regular
    ]


# Every unit holds one cold computation, so each list has the same number of
# cold jobs and cache hits whatever the order, and no unit warms another's
# cache.  The counts put the median job in the middle of the three light
# cold jobs: 5 cheaper (hits) and 5 dearer (medium, restriction, heavy).
CANONICAL = [
    # (2, 18) and (3, 18) cost the same, about 1.6 s cold; (4, 18) and
    # (5, 18) are 30-40% cheaper.  Both are in every list, so with 6 or more
    # passes the 10 slowest jobs of a run and the tail job are all heavy.
    Stratum("heavy", 2, [[cli("canonical-basis", "--n", n, "--m", 18)] for n in (2, 3)]),
    # restriction (2, 15) and (3, 15) take about 0.7 s, (4, 15) and (5, 15)
    # 0.4-0.5 s: one of each pair in every list
    Stratum("restriction-2-3", 1, [_canonical_restriction(n) for n in (2, 3)]),
    Stratum("restriction-4-5", 1, [_canonical_restriction(n) for n in (4, 5)]),
    # 0.12-0.13 s cold; (2, 13) is dearer and (5, 13) cheaper
    Stratum("medium", 1, [[cli("canonical-basis", "--n", n, "--m", 13)] for n in (3, 4)]),
    # 49-53 ms cold ((5, 11) takes 41 ms), then a cache hit of a few ms
    Stratum("light", 3, [[cli(cmd, "--n", n, "--m", 11)
                          for cmd in ("canonical-basis", "decomp-matrix")]
                         for n in (2, 3, 4)]),
]


# --- specht ----------------------------------------------------------------
# Generator matrices on Specht modules over Z[v]: straightening (Garnir
# expansions), LaurentPoly multiplication and dense matrix storage.  Every
# unit runs all generators of one shape, so the straightening cache filled by
# the first generator serves the rest.  (5,4,3) is left out: its 11
# generators take about 23 s, too long to repeat in every run.


def _all_generators(shape: tuple[int, ...]) -> list[dict]:
    text = ",".join(map(str, shape))
    return [cli("specht-matrix", "--shape", text, "--gen", i) for i in range(1, sum(shape))]


def _jucys_murphy(shape: tuple[int, ...], ks: tuple[int, ...]) -> list[dict]:
    return [lib("specht.jucys_murphy", list(shape), k) for k in ks]


SPECHT = [
    # size 10, 252-315 tableaux, 0.85-1.3 s per shape: all three in every
    # list, since no two of them cost the same.
    Stratum("heavy", 3, [_all_generators(s) for s in ((5, 4, 1), (6, 3, 1), (4, 4, 2))]),
    # size 9, about 0.4 s per shape
    Stratum("medium", 1, [_all_generators(s) for s in ((5, 3, 1), (4, 3, 2))]),
    # size 8-9, about 0.11 s per shape
    Stratum("light", 2, [_all_generators(s) for s in ((4, 3, 1), (5, 4), (5, 2, 1))]),
    # twisted Jucys-Murphy sums on size-7 shapes: products of rep_matrix
    # words, about 0.35 s per unit
    Stratum("jucys-murphy-7", 1, [_jucys_murphy(s, (6, 7)) for s in ((4, 2, 1), (3, 2, 1, 1))]),
    # size-8 shapes outside the specht-matrix pool, 0.17 and 0.22 s: both
    # in every list
    Stratum("jucys-murphy-8", 2, [_jucys_murphy(s, (8,)) for s in ((5, 3), (5, 1, 1, 1))]),
]


# --- series ----------------------------------------------------------------
# Branching polynomials and series, chi series and configuration sums: path
# enumeration (js_partitions_upto), the Fraction-heavy fermionic sums,
# crystal vertex counting and TruncatedSeries arithmetic on the rational
# lattice.  The tier-1 suite's slowest test (criterion 09) is this same
# path/fermionic work, so it is not a workload of its own.

_N3_TARGETS = ((0, (0, 0)), (0, (1, 2)), (1, (0, 1)), (1, (2, 2)), (2, (0, 2)), (2, (1, 1)))


def _target(st: tuple[int, int]) -> str:
    return f"{st[0]},{st[1]}"


def _branching(n: int, j: int, st, source: str, *cutoff) -> dict:
    return cli("branching", "--n", n, "--j", j, "--target", _target(st), *cutoff,
               "--source", source)


def _paths_and_fermionic(j: int, st, jf: int, stf) -> list[dict]:
    # paths at L = 21 lists 75k edge-sum partitions; the fermionic form at
    # the same L reuses that enumeration for its shift.
    return [_branching(3, j, st, "paths", "--L", 21),
            _branching(3, jf, stf, "fermionic", "--L", 21)]


_N4_TARGETS = ((0, (0, 0)), (1, (0, 1)), (2, (0, 2)), (3, (0, 3)))


def _chi_both(n: int, core: str, degree: int) -> list[dict]:
    # the direct count against the rectangular-core identity
    return [cli("chi", "--n", n, "--core", core, "--degree", degree, "--source", src)
            for src in ("direct", "jscor")]


def _abf_both(L: int, a: int, b: int, c: int) -> list[dict]:
    # the height-sequence sum against its closed form, m = 40 (about 0.5 s)
    return [cli("abf", "--L", L, "--a", a, "--b", b, "--c", c, "--m", 40, "--source", src)
            for src in ("direct", "closed")]


# Strata are split where their units' costs differ, so each holds units of
# about the same cost; units share an enumeration only within a stratum.
# A list has 23 jobs: 8 cheaper than 60 ms (the chi identities, the direct
# chi counts for small cores, one direct abf sum), the 6 fermionic limit sums
# at about 60 ms, and 9 dearer jobs, so the median job is one of the limit
# sums whatever the seed.
SERIES = [
    # 55-65 ms each, all six targets in every list.
    # The n = 4 limit sum is left out: its box search alone takes 6-7 s,
    # which would leave room for only three passes in a run.
    Stratum("fermionic-limit-3", 6, [[lib("branching.fermionic_limit", 3, j, list(st), 12)]
                                     for j, st in _N3_TARGETS]),
    # all four jobs of the two units share one L = 21 enumeration: the first
    # takes about 1.3 s, the other three 0.7-0.9 s, in whatever order.  With
    # four of them in a pass, the 10 slowest jobs of a run of three or more
    # passes are all L = 21 branching jobs.  The three pairs cost the same
    # to within 1%.
    Stratum("paths-21", 2, [_paths_and_fermionic(*_N3_TARGETS[a], *_N3_TARGETS[b])
                            for a, b in ((2, 4), (4, 0), (1, 3))]),
    # n = 4 by paths (L = 13, 0.09-0.1 s) and by the fermionic form (L = 12,
    # 0.12-0.15 s); the two cutoffs keep their enumerations apart, so neither
    # job's cost depends on which runs first
    Stratum("paths-n4", 1, [[_branching(4, j, st, "paths", "--L", 13)] for j, st in _N4_TARGETS]),
    Stratum("fermionic-n4", 1, [[_branching(4, j, st, "fermionic", "--L", 12)]
                                for j, st in _N4_TARGETS]),
    # crystal vertex counting to degree 12: 0.22-0.24 s for these targets
    # (0.33-0.37 s for the other three)
    Stratum("crystal", 1, [[_branching(3, *_N3_TARGETS[k], "crystal", "--degree", 12)]
                           for k in (1, 3, 5)]),
    # the direct count for the empty core, about 0.4 s, and its identity,
    # about 60 ms ((2, "", 24) takes 0.5 s)
    Stratum("chi-empty-core", 1, [_chi_both(3, "", 15)]),
    # 25-36 ms direct, 9-14 ms by the identity
    Stratum("chi-core", 3, [_chi_both(3, "1", 10), _chi_both(3, "2", 10),
                            _chi_both(3, "1,1", 10), _chi_both(2, "1", 16)]),
    # 15-25 ms direct, about 0.5 s closed
    Stratum("abf", 1, [_abf_both(5, 2, 2, 1), _abf_both(6, 1, 1, 2), _abf_both(6, 2, 2, 3)]),
]

WORKLOADS: dict[str, list[Stratum]] = {"canonical": CANONICAL, "specht": SPECHT, "series": SERIES}


def job_list(workload: str, seed: int) -> list[dict]:
    """The seeded, ordered job list of one run: same seed, same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [job for s in WORKLOADS[workload]
            for unit in rng.sample(s.units, s.pick) for job in unit]
    rng.shuffle(jobs)
    return jobs


def pooled_jobs(workload: str) -> list[dict]:
    """Every job any seed can draw for the workload, without repeats."""
    seen: dict[str, dict] = {}
    for s in WORKLOADS[workload]:
        for unit in s.units:
            for job in unit:
                seen.setdefault(job_key(job), job)
    return list(seen.values())
