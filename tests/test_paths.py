from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcl.partitions import (
    enumerate_partitions,
    format_partition,
    fundamental,
    multiplicities,
    n_core,
    parse_partition,
    residue_data,
)
from fcl.paths import (
    ALL_J,
    PathWord,
    abf_sum_direct,
    branching_poly_paths,
    chi_js_direct,
    energy_weight,
    fow_classify,
    is_restricted,
    js_combinatorial,
    js_members,
    js_partitions_upto,
    to_partition,
    to_path,
)
from fcl.qseries import LaurentPoly
from oracles import branching_poly_listed, edge_sums_ok

EXAMPLE_WORD = PathWord((0, 0, 0, 1, 1, 0, 1, 1, 1, 0), 2)


def test_highest_lift_golden():
    assert to_partition(EXAMPLE_WORD) == (10, 8, 7, 4, 2, 1)
    assert to_partition(PathWord((), 2)) == ()
    assert to_path((10, 8, 7, 4, 2, 1), 2) == EXAMPLE_WORD


def test_roundtrip_bijection():
    for n in (2, 3):
        for m in range(11):
            for lam in enumerate_partitions(m, regular=n):
                assert to_partition(to_path(lam, n)) == lam
    with pytest.raises(ValueError):
        to_path((1, 1), 2)


@st.composite
def regular_partitions(draw):
    n = draw(st.integers(2, 8))
    m = draw(st.integers(0, 40))
    return n, draw(st.sampled_from(enumerate_partitions(m, regular=n)))


@settings(max_examples=100, deadline=None)
@given(regular_partitions())
def test_roundtrip_bijection_on_random_regular_partitions(case):
    n, lam = case
    assert to_partition(to_path(lam, n)) == lam


def test_energy_weight_golden():
    e, wt = energy_weight(EXAMPLE_WORD)
    assert e == 16
    assert wt == residue_data((10, 8, 7, 4, 2, 1), 2)[2]
    e0, wt0 = energy_weight(PathWord((), 3))
    assert e0 == 0 and wt0 == fundamental(3, 0)


def test_energy_weight_agrees_with_partition_statistics():
    for n in (2, 3):
        for m in range(9):
            for lam in enumerate_partitions(m, regular=n):
                p = to_path(lam, n)
                e, wt = energy_weight(p)
                _, e2, wt2 = residue_data(lam, n)
                assert (e, wt) == (e2, wt2), lam


def test_is_restricted_examples():
    for j in range(2):
        assert is_restricted(PathWord((), 2), j)
        assert not is_restricted(EXAMPLE_WORD, j)
    # a known irreducible-restriction label is restricted for its colour
    p = to_path((2, 1), 3)
    assert is_restricted(p, fow_classify((2, 1), 3))


def test_fow_classify_examples():
    lam = parse_partition("13^2,10,6,5,4,1^2")
    assert fow_classify(lam, 3) == 2
    with pytest.raises(ValueError):
        fow_classify(lam, 2)  # not 2-regular input is rejected
    assert fow_classify((), 3) == ALL_J
    assert fow_classify((10, 8, 7, 4, 2, 1), 2) is None


@pytest.mark.parametrize("n", range(2, 7))
def test_fow_classify_is_the_pairwise_congruence(n):
    for m in range(1, 17):
        for lam in enumerate_partitions(m, regular=n):
            v_top, a_top = multiplicities(lam)[0]
            expected = (v_top - a_top) % n if edge_sums_ok(lam, n) else None
            assert fow_classify(lam, n) == expected, lam


def _edge_sum_partitions(n, max_size, max_part=None):
    """The n-regular partitions of size <= max_size passing the pairwise
    congruence, ordered by size and then descending lexicographically."""
    return tuple(lam for m in range(max_size + 1) for lam in enumerate_partitions(m, regular=n)
                 if edge_sums_ok(lam, n) and max(lam, default=0) <= (max_part or max_size))


@pytest.mark.parametrize("n", range(2, 7))
def test_js_partitions_upto_lists_the_pairwise_congruence(n):
    for size in range(17):
        assert js_partitions_upto(n, size) == _edge_sum_partitions(n, size), size
    L = 1
    while (size := (n - 1) * L * (L + 1) // 2) <= 30:
        assert js_partitions_upto(n, size, max_part=L) == _edge_sum_partitions(n, size, L), L
        L += 1


def test_fow_matches_restricted_paths():
    for n in (2, 3):
        for m in range(9):
            for lam in enumerate_partitions(m, regular=n):
                jj = fow_classify(lam, n)
                p = to_path(lam, n)
                for j in range(n):
                    expected = jj == ALL_J or jj == j
                    assert is_restricted(p, j) == expected, (lam, j)


def test_js_combinatorial_examples():
    assert js_combinatorial((3, 3, 1, 1), 3)
    assert not js_combinatorial((10, 8, 7, 4, 2, 1), 2)
    assert js_combinatorial((5,), 3)


def test_branching_poly_examples():
    for n, j in ((2, 0), (2, 1), (3, 0), (3, 2)):
        target = tuple(sorted((j % n, 0)))
        assert branching_poly_paths(n, j, target, 0) == LaurentPoly.one()
    got = branching_poly_paths(3, 0, (1, 2), 15)
    assert [got.coeff(k) for k in range(4)] == [0, 1, 2, 2]
    got = branching_poly_paths(3, 1, (2, 2), 15)
    assert [got.coeff(k) for k in range(4)] == [0, 1, 1, 2]


def test_branching_poly_stabilization():
    # coefficients freeze once the cutoff passes the supporting sizes
    for (n, j, st) in ((2, 0, (0, 0)), (3, 0, (1, 2)), (3, 1, (0, 1))):
        polys = {L: branching_poly_paths(n, j, st, L) for L in (4, 8, 12, 16)}
        for e in range(4):
            vals = [polys[L].coeff(e) for L in (8, 12, 16)]
            assert vals[0] == vals[1] == vals[2]
            assert polys[4].coeff(e) <= vals[0]


def _sectors(n):
    """Every (j, (s, t)) with s <= t; the unreachable ones count nothing."""
    return [(j, (s, t)) for j in range(n) for s in range(n) for t in range(s, n)]


# The largest cutoff whose listing oracle stays under about a second.
LISTED_CUTOFFS = {2: 24, 3: 19, 4: 16, 5: 14}


@pytest.mark.parametrize("n, top", [(2, 14), (3, 12), (4, 9), (5, 7)])
def test_branching_poly_is_the_listed_count(n, top):
    nonzero = 0
    for L in range(top + 1):
        for j, target in _sectors(n):
            got = branching_poly_paths(n, j, target, L)
            assert got == branching_poly_listed(n, j, target, L), (j, target, L)
            nonzero += not got.is_zero()
    assert nonzero > top
    # one sector per colour j at the largest listed cutoff
    L = LISTED_CUTOFFS[n]
    for j in range(n):
        got = branching_poly_paths(n, j, (0, j), L)
        assert not got.is_zero() and got == branching_poly_listed(n, j, (0, j), L), (j, L)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4))
def test_branching_poly_is_the_listed_count_on_random_sectors(n, L, j, s, t):
    target = tuple(sorted((s % n, t % n)))
    assert branching_poly_paths(n, j % n, target, L) == branching_poly_listed(n, j % n, target, L)


def test_fow_partition_of_js():
    # the sector decomposition partitions the irreducible-restriction set
    # (the empty partition alone belongs to every sector, so skip m = 0)
    for n in (2, 3):
        for m in range(1, 11):
            js_set = {
                lam
                for lam in enumerate_partitions(m, regular=n)
                if js_combinatorial(lam, n)
            }
            seen: dict = {}
            for j in range(n):
                for k in range(n):
                    target = tuple(sorted((k % n, (j - k) % n)))
                    from fcl.partitions import weight_target_profile

                    prof = weight_target_profile(n, j, target)
                    if prof is None:
                        continue
                    c, s0 = prof
                    for lam in js_set:
                        mres = residue_data(lam, n)[0]
                        e = mres[0]
                        if all(mres[i] == e + c[i] for i in range(n)):
                            jj = fow_classify(lam, n)
                            if jj == ALL_J or jj == j:
                                key = lam
                                assert key not in seen or seen[key] == (j, target), (
                                    lam,
                                    seen[key],
                                    (j, target),
                                )
                                seen[key] = (j, target)
            assert set(seen) == js_set, m


def test_js_members_twelve_sets():
    expected = {
        ((), 0): ["0"],
        ((), 1): ["3", "2,1"],
        ((), 2): ["6", "5,1", "4,1,1", "3,3", "3,2,1"],
        ((1,), 0): ["1"],
        ((1,), 1): ["4", "2,2"],
        ((1,), 2): ["7", "4,3"],
        ((2,), 0): ["2"],
        ((2,), 1): ["5"],
        ((2,), 2): ["8", "3,3,1,1"],
        ((1, 1), 0): ["1,1"],
        ((1, 1), 1): ["3,2"],
        ((1, 1), 2): ["6,2", "4,4"],
    }
    for (core, d), want in expected.items():
        got = [format_partition(x) for x in js_members(3, core, d)]
        assert sorted(got) == sorted(want), (core, d)
        # emitted order is descending lexicographic
        parsed = [parse_partition(x) for x in got]
        assert parsed == sorted(parsed, reverse=True)
    with pytest.raises(ValueError):
        js_members(3, (2, 1), 1)  # not a 3-core


def test_js_core_is_rectangular():
    for n in (2, 3):
        for m in range(11):
            for lam in enumerate_partitions(m, regular=n):
                if js_combinatorial(lam, n):
                    core, _ = n_core(lam, n)
                    mults = multiplicities(core)
                    assert len(mults) <= 1
                    if mults:
                        k, l = mults[0]
                        assert k + l <= n


def test_js_energy_identity():
    # E = min(k, l) + hook weight for a label with rectangular core (k^l)
    for n in (2, 3):
        for m in range(11):
            for lam in enumerate_partitions(m, regular=n):
                if not js_combinatorial(lam, n):
                    continue
                core, w = n_core(lam, n)
                mults = multiplicities(core)
                s = min(mults[0]) if mults else 0
                assert residue_data(lam, n)[1] == s + w, lam


def test_chi_js_direct_goldens():
    assert chi_js_direct(3, (), 2).coeffs_upto(2) == [1, 2, 5]
    assert chi_js_direct(3, (1,), 2).coeffs_upto(2) == [1, 2, 2]
    assert chi_js_direct(3, (2,), 2).coeffs_upto(2) == [1, 1, 2]
    assert chi_js_direct(3, (1, 1), 2).coeffs_upto(2) == [1, 1, 2]


def test_chi_js_direct_counts_js_members():
    for n in (2, 3, 4):
        cores = [lam for m in range(7) for lam in enumerate_partitions(m)
                 if n_core(lam, n)[1] == 0]
        for core in cores:
            for degree in (0, 3, 6):
                want = [len(js_members(n, core, d)) for d in range(degree + 1)]
                assert chi_js_direct(n, core, degree).coeffs_upto(degree) == want, (n, core)
    with pytest.raises(ValueError):
        chi_js_direct(3, (2, 1), 2)  # not a 3-core


def test_abf_sum_examples():
    assert abf_sum_direct(4, 1, 1, 2, 0) == LaurentPoly.one()
    assert abf_sum_direct(4, 2, 1, 2, 0).is_zero()
    got = abf_sum_direct(4, 1, 2, 3, 1)
    assert got == LaurentPoly.q_power(Fraction(1, 2))
    # parity obstruction
    assert abf_sum_direct(4, 1, 2, 1, 2).is_zero()
    with pytest.raises(ValueError):
        abf_sum_direct(4, 1, 1, 3, 2)
    with pytest.raises(ValueError):
        abf_sum_direct(4, 0, 1, 2, 2)


def test_path_word_validation():
    with pytest.raises(ValueError):
        PathWord((0, 2), 2)
    with pytest.raises(ValueError, match="residues out of range"):
        PathWord((0, 5), 3)
