from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fcl.branching import (
    _multisets,
    abf_closed,
    branching_series_stable,
    chi_js,
    fermionic_limit,
    fermionic_poly,
    principal_char,
    rocha_caridi,
    x_limit,
)
from fcl.crystal import crystal_graph
from fcl.partitions import _gram, enumerate_partitions
from fcl.paths import abf_sum_direct, branching_poly_paths, chi_js_direct
from fcl.qseries import LaurentPoly, TruncatedSeries
from oracles import branching_series_listed, geometric_product

SECTORS = {
    2: ((0, (0, 0)), (0, (1, 1)), (1, (0, 1))),
    3: (
        (0, (0, 0)),
        (0, (1, 2)),
        (1, (0, 1)),
        (1, (2, 2)),
        (2, (0, 2)),
        (2, (1, 1)),
    ),
}


def test_cartan_gram_is_n_times_the_inverse():
    # the closed form G_ij = min(i, j)(n - max(i, j)) satisfies G C = n I,
    # and vanishes on the indices 0 and n
    for n in range(2, 13):
        C = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(1, n)]
             for i in range(1, n)]
        GC = [[sum(_gram(n, i, k) * C[k - 1][j - 1] for k in range(1, n)) for j in range(1, n)]
              for i in range(1, n)]
        assert GC == [[n if i == j else 0 for j in range(1, n)] for i in range(1, n)], n
        assert all(_gram(n, i, e) == _gram(n, e, i) == 0 for i in range(n + 1) for e in (0, n))
        assert oracles.cartan_gram(n) == tuple(
            tuple(_gram(n, i, j) for j in range(1, n)) for i in range(1, n))


def test_multisets_are_the_m_vectors():
    # each multiset once, its (index, count) pairs the count vector of the
    # recursive walk over entries
    for n in range(2, 10):
        for t in range(n):
            for total in range(7):
                got = [tuple(dict(m).get(i, 0) for i in range(1, n)) for m in _multisets(n, t, total)]
                assert all(m == sorted(m) and 0 not in dict(m).values() for m in _multisets(n, t, total))
                assert sorted(got) == sorted(oracles.m_vectors(n, t, total)), (n, t, total)
                assert len(set(got)) == len(got)


def _assert_raw_is_the_dense_sum(n, j, target, L):
    fb = fermionic_poly(n, j, target, L)
    in_sector = (sum(target) - j) % n == 0
    want = oracles.fermionic_raw(n, *sorted(target), L) if in_sector else LaurentPoly.zero()
    assert (fb.raw.terms, fb.raw.den) == (want.terms, want.den), (n, j, target, L)


def test_constant_sign_sums_are_the_dense_sums():
    # 2,937 polynomials and 672 limit series: every j and ordered target of
    # n = 2..6 at L <= 8 (L <= 5 for n >= 5), and of n = 2..5 at degrees 0, 3, 8
    for n in range(2, 7):
        for j, s, t in product(range(n), repeat=3):
            for L in range(9 if n < 5 else 6):
                _assert_raw_is_the_dense_sum(n, j, (s, t), L)
            if n < 6:
                for degree in (0, 3, 8):
                    want = oracles.fermionic_limit_dense(n, j, (s, t), degree)
                    assert fermionic_limit(n, j, (s, t), degree) == want, (n, j, s, t, degree)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.data(), st.integers(0, 4))
def test_constant_sign_sums_are_the_dense_sums_on_random_sectors(n, data, L):
    j, s, t = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    _assert_raw_is_the_dense_sum(n, j, (s, t), L)


# cutoffs up to 24 for n = 2..5; n = 6 stops at 16 to bound the time
RULE_CUTOFFS = {**{n: range(25) for n in range(2, 6)}, 6: range(17)}


def _assert_normalization_rule(n, j, target, L):
    s, t = sorted(target)
    fb = fermionic_poly(n, j, target, L)
    oracle = branching_poly_paths(n, j, (s, t), L)
    assert fb.normalized == oracle, (n, j, target, L)
    assert fb.raw.is_zero() == oracle.is_zero(), (n, j, target, L)
    if oracle.is_zero():
        assert fb.shift == 0
    else:
        assert fb.raw.min_exp() == s, (n, j, target, L)
        assert fb.shift == max(0, s + t - n), (n, j, target, L)


def test_fermionic_matches_paths_up_to_L12():
    # every sector (j, s <= t) of n = 2..6 at every cutoff in RULE_CUTOFFS;
    # j is fixed by s + t = j mod n
    for n, cutoffs in RULE_CUTOFFS.items():
        for s in range(n):
            for t in range(s, n):
                for L in cutoffs:
                    _assert_normalization_rule(n, (s + t) % n, (s, t), L)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(n, s, t) for n in RULE_CUTOFFS for s in range(n) for t in range(n)]),
       st.data())
def test_fermionic_normalization_rule_on_random_sectors(target, data):
    n, s, t = target  # unsorted targets too
    L = data.draw(st.integers(0, max(RULE_CUTOFFS[n])))
    _assert_normalization_rule(n, (s + t) % n, (s, t), L)


def test_fermionic_shifts_recorded():
    # all sectors are exactly normalized except the doubled-corner one
    shifts = {}
    for n, sectors in SECTORS.items():
        for j, st in sectors:
            shifts[(n, j, st)] = fermionic_poly(n, j, st, 12).shift
    assert shifts[(3, 1, (2, 2))] == 1
    assert all(v == 0 for k, v in shifts.items() if k != (3, 1, (2, 2)))


def test_fermionic_degenerate_single_term():
    fb = fermionic_poly(2, 0, (0, 0), 2)
    assert fb.normalized.to_text() == "1"  # only the zero vector contributes


def test_fermionic_printed_series():
    fb = fermionic_poly(3, 0, (1, 2), 12)
    assert [fb.normalized.coeff(k) for k in range(4)] == [0, 1, 2, 2]


def test_fermionic_limit_agrees_with_enumeration():
    for n, degrees in ((2, range(9)), (3, range(9)), (4, range(11)), (5, range(7))):
        for s in range(n):
            for t in range(s, n):
                for degree in degrees:
                    lim = fermionic_limit(n, (s + t) % n, (s, t), degree)
                    assert lim == branching_series_stable(n, (s + t) % n, (s, t), degree)
    assert fermionic_limit(3, 1, (0, 0), 4) == TruncatedSeries({}, 1, 4)  # unreachable
    with pytest.raises(ValueError, match="needs both indices in 0..n-1"):
        fermionic_limit(3, 2, (0, 5), 4)


def test_fermionic_unreachable_sector_is_zero():
    for n in (2, 3, 4):
        for j in range(n):
            for s in range(n):
                for t in range(n):
                    if (s + t - j) % n:
                        fb = fermionic_poly(n, j, (s, t), 6)
                        assert fb.raw.is_zero() and fb.normalized.is_zero() and fb.shift == 0
                        assert branching_poly_paths(n, j, (s, t), 6).is_zero()
    for source in (fermionic_poly, branching_poly_paths):
        with pytest.raises(ValueError, match="needs both indices in 0..n-1"):
            source(3, 0, (3, 0), 6)


def test_crystal_counting_agrees_with_paths():
    from fcl.crystal import branching_series_crystal

    for n, sectors in SECTORS.items():
        for j, st in sectors:
            a = branching_series_crystal(n, j, st, 6)
            b = branching_series_stable(n, j, st, 6)
            assert a.coeffs_upto(6) == b.coeffs_upto(6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_branching_series_is_the_listed_count(n):
    nonzero = 0
    for degree in range(27 // n + 1):
        for j in range(n):
            for s in range(n):
                for t in range(s, n):
                    got = branching_series_stable(n, j, (s, t), degree)
                    assert got == branching_series_listed(n, j, (s, t), degree), (j, s, t)
                    nonzero += bool(got.terms)
    assert nonzero > 27 // n


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 27), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4))
def test_branching_series_is_the_listed_count_on_random_sectors(n, size, j, s, t):
    degree = size // n
    target = (s % n, t % n)
    got = branching_series_stable(n, j % n, target, degree)
    assert got == branching_series_listed(n, j % n, target, degree)


def test_rocha_caridi_vacuum():
    got = rocha_caridi(3, 1, 1, 8)
    assert got.coeffs_upto(8) == [1, 0, 1, 1, 2, 2, 3, 3, 5]


def test_rocha_caridi_leading_one():
    for r in (1, 2):
        for s in (1, 2, 3):
            ch = rocha_caridi(3, r, s, 6)
            assert ch.coeff(ch.min_exp()) == 1
    ch = rocha_caridi(4, 2, 3, 6)
    assert ch.coeff(ch.min_exp()) == 1


def test_ising_identification():
    # every level-1 x level-1 sector matches a minimal-model character
    chars = {}
    for r in (1, 2):
        for s in (1, 2, 3):
            ch = rocha_caridi(3, r, s, 12)
            lo = ch.min_exp()
            chars[(r, s)] = [ch.coeff(lo + k) for k in range(11)]
    expected = {
        (0, (0, 0)): [(1, 1), (2, 3)],
        (0, (1, 1)): [(1, 3), (2, 1)],
        (1, (0, 1)): [(1, 2), (2, 2)],
    }
    for (j, st), want in expected.items():
        b = branching_series_stable(2, j, st, 12)
        lo = b.min_exp()
        seq = [b.coeff(lo + k) for k in range(11)]
        matches = sorted(rs for rs, cseq in chars.items() if cseq == seq)
        assert matches == want, (j, st, matches)


def _admissible_boundaries(L):
    for a in range(1, L):
        for b in range(1, L):
            for c in (b - 1, b + 1):
                if 1 <= c <= L - 1:
                    yield a, b, c


def test_abf_closed_equals_direct_after_offset():
    for L in (4, 5):
        for a, b, c in _admissible_boundaries(L):
            offsets = set()
            for m in range(9):
                direct = abf_sum_direct(L, a, b, c, m)
                closed = abf_closed(L, a, b, c, m)
                assert direct.is_zero() == closed.is_zero(), (L, a, b, c, m)
                if direct.is_zero():
                    continue
                off = closed.min_exp() - direct.min_exp()
                offsets.add(off)
                assert closed.shifted(-off) == direct, (L, a, b, c, m)
            assert len(offsets) <= 1, (L, a, b, c, offsets)


def test_abf_closed_m0():
    poly = abf_closed(4, 1, 1, 2, 0)
    assert len(poly.terms) == 1 and list(poly.terms.values()) == [1]
    assert abf_closed(4, 2, 1, 2, 0).is_zero()


def test_x_limit_stabilization():
    # at m <= 8 the first three normalized coefficients have stabilized
    for L in (4, 5):
        for a, b, c in _admissible_boundaries(L):
            m0 = 8 if (a - b) % 2 == 0 else 7
            direct = abf_sum_direct(L, a, b, c, m0)
            if direct.is_zero():
                continue
            lim = x_limit(L, a, b, c, 12).to_poly()
            lo_d, lo_x = direct.min_exp(), lim.min_exp()
            for k in range(3):
                assert direct.coeff(lo_d + k) == lim.coeff(lo_x + k), (L, a, b, c, k)


def test_chi_js_goldens_and_cross_check():
    assert chi_js(3, (), 2).coeffs_upto(2) == [1, 2, 5]
    assert chi_js(3, (1,), 2).coeffs_upto(2) == [1, 2, 2]
    assert chi_js(3, (2,), 2).coeffs_upto(2) == [1, 1, 2]
    assert chi_js(3, (1, 1), 2).coeffs_upto(2) == [1, 1, 2]
    for core in ((), (1,), (2,), (1, 1)):
        a = chi_js(3, core, 4)
        b = chi_js_direct(3, core, 4)
        assert a.coeffs_upto(4) == b.coeffs_upto(4), core
    for core in ((), (1,)):
        a = chi_js(2, core, 4)
        b = chi_js_direct(2, core, 4)
        assert a.coeffs_upto(4) == b.coeffs_upto(4), core


def test_chi_js_rejects_bad_cores():
    with pytest.raises(ValueError, match="2,1 is not a 3-core"):
        chi_js(3, (2, 1), 2)
    with pytest.raises(ValueError, match="2,2 is not a 3-core"):
        chi_js(3, (2, 2), 2)  # a rectangle with k + l > n is not an n-core
    with pytest.raises(ValueError, match="2,1 is not rectangular"):
        chi_js(4, (2, 1), 2)


def test_x_limit_matches_minimal_model_characters():
    # every L=4 limit series is a minimal-model character up to a q-shift
    chars = {}
    for r in (1, 2):
        for s in (1, 2, 3):
            ch = rocha_caridi(3, r, s, 14)
            lo = ch.min_exp()
            chars[(r, s)] = [ch.coeff(lo + k) for k in range(11)]
    for a in range(1, 4):
        for b in range(1, 4):
            for c in (b - 1, b + 1):
                if not 1 <= c <= 3:
                    continue
                xl = x_limit(4, a, b, c, 14)
                lo = xl.min_exp()
                seq = [xl.coeff(lo + k) for k in range(11)]
                matches = sorted(rs for rs, cs in chars.items() if cs == seq)
                assert matches, (a, b, c)
                # stable assignment: (r, s) = ((b+c-1)/2, a) up to equivalence
                r, s = (b + c - 1) // 2, a
                rs = (r, s) if (r, s) in matches else (3 - r, 4 - s)
                assert (r, s) in matches or (3 - r, 4 - s) in matches, (a, b, c)
                assert rs in matches


def test_principal_char_is_the_series_product():
    for n in range(1, 7):
        full = geometric_product([b for b in range(1, 31) if b % n], 30)
        for order in range(31):
            assert principal_char(n, order) == full.truncate(order), (n, order)


def test_principal_char_counts():
    assert principal_char(2, 5).coeff(5) == 3
    assert principal_char(2, 0).coeffs_upto(0) == [1]
    for n in (2, 3, 4):
        series = principal_char(n, 12)
        graph = crystal_graph(n, 12)
        levels = graph.levels()
        for m in range(13):
            count = len(enumerate_partitions(m, regular=n))
            assert series.coeff(m) == count
            assert len(levels.get(m, [])) == count
