import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcl import qseries
from fcl.errors import ExactDivisionError
from fcl.partitions import enumerate_partitions
from fcl.qseries import (
    LaurentPoly,
    TruncatedSeries,
    gauss_balanced,
    inv_phi,
    q_int,
    q_product,
    qbinom_lower,
)
from oracles import (
    euler_product,
    gauss_balanced_divided,
    geometric_product,
    laurent_text,
    partition_counts,
    q_fact,
    qbinom_lower_divided,
)

Q = LaurentPoly.q_power
one = LaurentPoly.one()


def test_bar_examples():
    p = Q(1) + Q(3)
    assert p.bar() == Q(-1) + Q(-3)
    assert LaurentPoly.const(5).bar() == LaurentPoly.const(5)
    sym = Q(-1) + Q(1)
    assert sym.bar() == sym


def test_bar_is_involution():
    p = Q(-2, 3) + Q(0, -1) + Q(5, 7)
    assert p.bar().bar() == p


def test_q_int_and_balanced_binomial():
    assert q_int(2) == Q(1) + Q(-1)
    assert gauss_balanced(2, 1) == q_int(2)
    expected = Q(-4) + Q(-2) + LaurentPoly.const(2) + Q(2) + Q(4)
    assert gauss_balanced(4, 2) == expected
    assert gauss_balanced(4, 2).is_bar_invariant()
    assert gauss_balanced(3, 5).is_zero()
    assert gauss_balanced(3, -1).is_zero()


@pytest.mark.parametrize("m", range(9))
def test_gauss_balanced_bar_invariant_and_counts(m):
    for k in range(m + 1):
        g = gauss_balanced(m, k)
        assert g.is_bar_invariant()
        assert g.eval_one() == math.comb(m, k)


def test_qbinom_lower_examples():
    assert qbinom_lower(2, 1) == one + Q(1)
    assert qbinom_lower(4, 2) == LaurentPoly({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert qbinom_lower(1, 3).is_zero()
    assert qbinom_lower(-1, 0).is_zero()
    for m in range(9):
        for k in range(m + 1):
            b = qbinom_lower(m, k)
            assert b.den == 1 and min(b.terms) >= 0
            assert b.eval_one() == math.comb(m, k)


def test_binomials_match_the_division_oracle():
    cases = [(m, k) for m in range(21) for k in range(-1, m + 2)]
    cases += [(m, k) for m in (33, 40) for k in (0, 1, 5, m // 2, m - 1, m)]
    for m, k in cases:
        assert qbinom_lower(m, k) == qbinom_lower_divided(m, k), (m, k)
        assert gauss_balanced(m, k) == gauss_balanced_divided(m, k), (m, k)


def test_inv_phi():
    assert inv_phi(0).coeffs_upto(0) == [1]
    assert inv_phi(5).coeffs_upto(5) == [1, 1, 2, 3, 5, 7]
    prod = euler_product(12) * inv_phi(12)
    assert prod.coeffs_upto(12) == [1] + [0] * 12


def test_inv_phi_counts_partitions():
    series = inv_phi(20)
    for k in range(21):
        assert series.coeff(k) == len(enumerate_partitions(k))


def test_products_match_the_series_constructions():
    # a truncated product cut further is the product at the lower order
    for k in range(21):
        full = geometric_product(range(1, k + 1), 30)
        for order in range(31):
            assert q_product((), range(1, k + 1), order) == full.truncate(order), (k, order)
    for order in range(31):
        assert q_product(range(1, order + 1), (), order) == euler_product(order), order
        assert inv_phi(order) == partition_counts(order), order
    # (1 - q^2)(1 - q^3) / (1 - q)^2 = (1 + q)(1 + q + q^2)
    assert q_product((2, 3), (1, 1), 6) == TruncatedSeries({0: 1, 1: 2, 2: 2, 3: 1}, 1, 6)
    assert q_product((1,), (), -1) == TruncatedSeries({}, 1, -1)


def test_exact_division_checked():
    num = (one + Q(1)) * (one + Q(2))
    assert num.exact_div(one + Q(1)) == one + Q(2)
    with pytest.raises(ExactDivisionError):
        (one + Q(1)).exact_div(one + Q(2))
    with pytest.raises(ExactDivisionError):
        one.exact_div(LaurentPoly.zero())


LAURENT_POLYS = st.builds(
    LaurentPoly, st.dictionaries(st.integers(-30, 30), st.integers(-9, 9), max_size=6), st.integers(1, 6)
)


@settings(max_examples=100, deadline=None)
@given(LAURENT_POLYS, LAURENT_POLYS.filter(lambda d: not d.is_zero()), st.data())
def test_bar_and_exact_division_round_trips(p, d, data):
    # on random polynomials, their exponent lattices mixed
    assert p.bar().bar() == p
    assert (p * d).exact_div(d) == p
    # a nonzero remainder whose span is below d's is never a multiple of d
    span = Fraction(max(d.terms) - min(d.terms), d.den)
    if span:
        den = data.draw(st.integers(1, 6))
        ks = data.draw(st.dictionaries(st.integers(0, math.ceil(span * den) - 1),
                                       st.integers(-9, 9).filter(bool), min_size=1, max_size=4))
        shift = data.draw(st.integers(-30, 30))
        r = LaurentPoly({k + shift: c for k, c in ks.items()}, den)
        with pytest.raises(ExactDivisionError):
            (p * d + r).exact_div(d)


def test_rational_lattice_promotion():
    half = Q((1, 2))
    quarter = Q((1, 4))
    s = half * quarter
    assert s == Q((3, 4))
    mixed = half + Q(1)
    assert mixed.coeff((1, 2)) == 1 and mixed.coeff(1) == 1
    assert (half * half) == Q(1)


def test_text_forms():
    assert (one + Q(2)).to_text() == "1 + q^2"
    assert (Q(-1) + Q(1)).to_text() == "q^-1 + q"
    assert Q((1, 2)).to_text() == "q^1/2"
    assert (LaurentPoly.const(-3) * Q(2)).to_text() == "-3*q^2"
    assert (one - Q(1)).to_text() == "1 - q"
    assert LaurentPoly.zero().to_text() == "0"


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.integers(-40, 40), st.integers(-12, 12), max_size=8),
    st.integers(1, 6),
    st.sampled_from(["q", "v"]),
)
def test_text_matches_the_fraction_oracle(terms, den, var):
    p = LaurentPoly(terms, den)
    assert p.to_text(var) == laurent_text(p, var)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 20),
                       st.integers(-(2**63) + 1, 2**63 - 1) | st.integers(-3, 3), max_size=8))
def test_unpack_reads_back_the_packed_coefficients(terms):
    # a negative digit borrows from the next, so the int's base-2^64 digits
    # are not the coefficients; the balanced digits are
    x = sum(c << 64 * e for e, c in terms.items())
    p = qseries._unpack(x)
    assert p == LaurentPoly(terms)
    assert qseries._unpack(x) is p  # one polynomial per packed value
    assert qseries._unpack(-x) == -p


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 20000),
                       st.integers(-(2**63) + 1, 2**63 - 1).filter(bool), max_size=6))
def test_unpack_inverts_pack_at_sparse_high_exponents(terms):
    assert qseries._unpack(qseries._pack(terms, 0)).terms == terms


def test_unpack_skips_runs_of_zero_digits():
    # one shift per run: stepping through 10^5 zero digits one at a time takes about 30 s each
    assert qseries._unpack(-1 << 64 * 10**5).terms == {10**5: -1}
    assert qseries._unpack((1 << 64 * 10**5) + 3).terms == {0: 3, 10**5: 1}


def test_unpack_at_the_digit_edges():
    for c in (2**63 - 1, -(2**63) + 1, -1, 1):
        assert qseries._unpack(c << 64 * 3).terms == {3: c}
    assert qseries._unpack((1 << 64) - 1).terms == {0: -1, 1: 1}  # v - 1
    assert qseries._unpack(0) == LaurentPoly.zero()


def test_sparse_matrix_is_its_dense_rows():
    v, zero = Q(1), qseries._ZERO
    m = qseries.SparseMatrix("abc", "xy", [{"a": one, "c": LaurentPoly({0: 0})}, {"b": v}])
    assert m.columns == [{0: one}, {1: v}]  # a zero entry is not kept
    assert len(m) == 3 and list(m) == [[one, zero], [zero, v], [zero, zero]]
    assert m[1][1] is v and m[-1] == m[2] and all(e is zero for e in m[2])
    assert m.entry("b", "y") is v and m.entry("c", "x") is zero
    with pytest.raises(IndexError):
        m[3]


def test_text_reduces_each_exponent():
    p = LaurentPoly({1: 1, 2: -1, -3: 2}, 2)  # exponents 1/2, 2/2 and -3/2
    assert p.den == 2
    assert p.to_text("v") == "2*v^-3/2 + v^1/2 - v" == laurent_text(p, "v")
    assert LaurentPoly({-6: 1, 4: 3}, 6).to_text() == "q^-1 + 3*q^2/3"
    assert LaurentPoly({1: 1, 3: -1, 12: 1}, 6).to_text() == "q^1/6 - q^1/2 + q^2"


def test_q_fact_degrees():
    # the oracle's q-factorial, the divisor of its divided powers
    assert q_fact(0) == one
    assert q_fact(3) == q_int(1) * q_int(2) * q_int(3)


def test_truncated_series_order_guard():
    s = TruncatedSeries({0: 1, 1: 2}, 1, 1)
    assert s.coeff(1) == 2
    with pytest.raises(ValueError):
        s.coeff(2)
    t = s * s
    assert t.order == 1
    assert t.coeffs_upto(1) == [1, 4]


def test_truncated_series_mixed_lattices():
    a = TruncatedSeries({0: 1, 5: 1}, 2, 3)  # 1 + q^5/2 + O(q^4)
    b = TruncatedSeries({0: 1, 1: 1}, 3, 2)  # 1 + q^1/3 + O(q^3)
    # sums and products of two series cut at the smaller order
    total = a + b
    assert total.order == 2 and total.den == 3 and total.terms == {0: 2, 1: 1}
    assert (a - b).to_text() == "-q^1/3 + O(q^3)"
    prod = a * b
    assert prod == TruncatedSeries({0: 1, 1: 1}, 3, 2)
    assert prod.to_text() == "1 + q^1/3 + O(q^3)"
    # a polynomial factor is exact: the series keeps its order
    scaled = a * Q((1, 3))
    assert scaled.order == 3 and scaled.den == 6 and scaled.terms == {2: 1, 17: 1}
    assert (a * Q(1)).to_text() == "q + O(q^4)"
    assert (3 * a).terms == {0: 3, 5: 3}
    # shifting moves the order with the exponents
    moved = a.shifted((1, 4))
    assert moved.order == Fraction(13, 4)
    assert moved.to_text() == "q^1/4 + q^11/4 + O(q^17/4)"
    assert a.truncate((1, 2)).to_text() == "1 + O(q^3/2)"
    with pytest.raises(ValueError):
        a.truncate(4)
