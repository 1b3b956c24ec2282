import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fcl import qseries, specht
from fcl.cli import dispatch
from fcl.errors import ConventionError
from fcl.partitions import enumerate_partitions
from fcl.qseries import LaurentPoly
from fcl.specht import (
    SpechtVector,
    garnir,
    is_column_standard,
    jucys_murphy,
    parse_tableau,
    rep_matrix,
    rep_word,
    standard_tableaux,
    straighten,
    tableau_text,
)
from oracles import (
    column_word, mat_add, mat_eq, mat_identity, mat_is_zero, mat_mul, mat_scale, perm_length,
    precedes, removable_nodes, t_minus,
)

Q = LaurentPoly.q_power
one = LaurentPoly.one()
V = Q(1)
V_MINUS_1 = LaurentPoly({0: -1, 1: 1})

PAPER_42 = {
    "1356/24", "1346/25", "1256/34", "1246/35", "1345/26",
    "1236/45", "1245/36", "1235/46", "1234/56",
}


def test_standard_tableaux_42():
    tabs = standard_tableaux((4, 2))
    assert len(tabs) == 9
    assert tabs[0] == t_minus((4, 2)) == ((1, 3, 5, 6), (2, 4))
    assert {tableau_text(t) for t in tabs} == PAPER_42


def test_standard_tableaux_32_order():
    # the order underlying the printed generator matrix
    assert [tableau_text(t) for t in standard_tableaux((3, 2))] == [
        "135/24",
        "125/34",
        "134/25",
        "124/35",
        "123/45",
    ]


def test_single_row_and_column_counts():
    assert len(standard_tableaux((6,))) == 1
    assert len(standard_tableaux((1, 1, 1, 1))) == 1


def test_column_first_filling_leads_everywhere():
    for m in range(1, 8):
        for lam in enumerate_partitions(m):
            assert standard_tableaux(lam)[0] == t_minus(lam), lam


def test_counts_satisfy_branching_recursion():
    for m in range(1, 9):
        for lam in enumerate_partitions(m):
            f = len(standard_tableaux(lam))
            total = 0
            for nd in removable_nodes(lam):
                rows = list(lam)
                rows[nd.row - 1] -= 1
                mu = tuple(p for p in rows if p)
                total += len(standard_tableaux(mu)) if mu else 1
            assert f == total, lam


def test_precedes_and_length():
    tm = t_minus((4, 2))
    for a in range(1, 7):
        for b in range(1, 7):
            if a != b:
                assert precedes(a, b, tm) == (a < b)
    assert perm_length(tm) == 0
    swapped = ((2, 3, 5, 6), (1, 4))  # swap the adjacent column pair 1,2
    assert perm_length(swapped) == 1
    # independent inversion count for a bigger case
    t = ((1, 2, 4, 6), (3, 5))
    word = column_word(t)
    brute = sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )
    assert perm_length(t) == brute == 2


def test_garnir_paper_example():
    z = parse_tableau("1,2,3,10,4,12/6,8,5/9,11,7/13")
    rel = garnir(z, 2, 2)
    assert len(rel) == 6  # C(4, 2) interleavings
    got = {(tableau_text(t)): c for t, c in rel}
    expected = {
        "1,2,3,10,4,12/6,8,5/9,11,7/13": one,
        "1,2,3,10,4,12/6,5,8/9,11,7/13": -V,
        "1,2,5,10,4,12/6,3,8/9,11,7/13": Q(2),
        "1,2,3,10,4,12/6,5,11/9,8,7/13": Q(2),
        "1,2,5,10,4,12/6,3,11/9,8,7/13": -Q(3),
        "1,2,8,10,4,12/6,3,11/9,5,7/13": Q(4),
    }
    assert got == expected
    # ordered coefficients as printed
    assert [c for _, c in rel] == [one, -V, Q(2), Q(2), -Q(3), Q(4)]
    # the whole relation straightens to zero
    total = SpechtVector((6, 3, 3, 1))
    for t, c in rel:
        total = total + straighten(t).scaled(c)
    assert total.is_zero()


def test_garnir_minimal_2x2():
    z = ((2, 1), (3, 4))
    rel = garnir(z, 1, 1)
    assert len(rel) == 3
    got = {tableau_text(t): c for t, c in rel}
    assert got == {
        "21/34": one,
        "12/34": -V,
        "13/24": Q(2),
    }


def test_garnir_rejects_bad_input():
    with pytest.raises(ValueError):
        garnir(((1, 2), (3, 4)), 1, 1)  # no violation
    with pytest.raises(ValueError):
        garnir(((3, 1), (2, 4)), 1, 1)  # not column-standard


@pytest.mark.parametrize("rows", [((1,), (2, 3)), ((1, 2), ()), ((1,), (2,), (3, 4))], ids=str)
def test_rows_that_are_not_a_partition_shape_are_refused(rows):
    # a filling by 1..m, so only the shape is wrong: no vector labelled by a non-partition,
    # and no IndexError from reading a cell that the shape does not have
    for call in (straighten, is_column_standard, lambda t: garnir(t, 1, 1)):
        with pytest.raises(ValueError, match="parts must be"):
            call(rows)


def test_straighten_basics():
    tm = t_minus((3, 2))
    assert straighten(tm) == SpechtVector((3, 2), {tm: one})
    swapped = ((2, 3, 5), (1, 4))
    assert straighten(swapped) == SpechtVector((3, 2), {tm: -one})
    # straightening an already standard expression is the identity
    for t in standard_tableaux((4, 2)):
        assert straighten(t) == SpechtVector((4, 2), {t: one})


def test_straighten_worked_example():
    got = straighten(((2, 1, 3), (4, 5)))
    want = SpechtVector(
        (3, 2),
        {
            ((1, 2, 3), (4, 5)): V,
            ((1, 3, 4), (2, 5)): -Q(3),
            ((1, 3, 5), (2, 4)): Q(4),
        },
    )
    assert got == want


def test_rep_matrix_t1_golden():
    mat = rep_matrix((3, 2), 1)
    as_text = [[e.to_text("v") for e in row] for row in mat]
    assert as_text == [
        ["-1", "-v^2", "0", "0", "v^4"],
        ["0", "v", "0", "0", "0"],
        ["0", "0", "-1", "-v^2", "-v^3"],
        ["0", "0", "0", "v", "0"],
        ["0", "0", "0", "0", "v"],
    ]


def test_rep_matrix_one_dimensional():
    for m in (2, 3, 4):
        for i in range(1, m):
            assert rep_matrix((m,), i)[0][0] == V
            assert rep_matrix((1,) * m, i)[0][0] == LaurentPoly.const(-1)


def test_entries_are_integer_polynomials():
    for m in range(2, 6):
        for lam in enumerate_partitions(m):
            for i in range(1, m):
                for row in rep_matrix(lam, i):
                    for e in row:
                        assert e.den == 1 and min(e.terms, default=0) >= 0, (lam, i)


def test_hecke_defining_relations():
    for m in range(2, 6):
        for lam in enumerate_partitions(m):
            mats = {i: [list(r) for r in rep_matrix(lam, i)] for i in range(1, m)}
            k = len(standard_tableaux(lam))
            ident = mat_identity(k)
            for i in range(1, m):
                lhs = mat_mul(mats[i], mats[i])
                rhs = mat_add(
                    mat_scale(mats[i], V_MINUS_1), mat_scale(ident, V)
                )
                assert mat_eq(lhs, rhs), (lam, i, "quadratic")
                for j in range(i + 1, m):
                    if j == i + 1:
                        lhs = mat_mul(mat_mul(mats[i], mats[j]), mats[i])
                        rhs = mat_mul(mat_mul(mats[j], mats[i]), mats[j])
                        assert mat_eq(lhs, rhs), (lam, i, "braid")
                    else:
                        assert mat_eq(
                            mat_mul(mats[i], mats[j]), mat_mul(mats[j], mats[i])
                        ), (lam, i, j, "commute")


def test_rep_word_identity_and_braid():
    assert mat_eq(rep_word((3, 2), ()), mat_identity(5))
    assert mat_eq(rep_word((3, 2), (1, 2, 1)), rep_word((3, 2), (2, 1, 2)))


ORACLE_SHAPES = [lam for m in range(2, 8) for lam in enumerate_partitions(m)]
ORACLE_SHAPES += [(4, 3, 1), (5, 2, 1)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
def test_rep_matrix_is_the_oracle(shape):
    for i in range(1, sum(shape)):
        assert [list(row) for row in rep_matrix(shape, i)] == oracles.rep_matrix(shape, i), i


@pytest.fixture
def narrow_digits(monkeypatch):
    """Straighten on 4-bit digits, so a coefficient must stay within +-7,
    with fresh caches; every cache is put back afterwards."""
    monkeypatch.setattr(qseries, "_DIGIT", 4)
    monkeypatch.setattr(qseries, "_UNPACKED", {})
    monkeypatch.setattr(specht, "_STRAIGHTEN_CACHE", {})
    rep_matrix.cache_clear()
    yield
    rep_matrix.cache_clear()


def test_packed_digits_are_refused_before_they_could_wrap(narrow_digits, capsys):
    # (3,2,1): the straightenings of T_1..T_3 carry bounds of at most 6, below
    # the narrowed limit 2^3, and stay exact; T_4 carries a bound of 8
    for i in (1, 2, 3):
        assert [list(row) for row in rep_matrix((3, 2, 1), i)] == oracles.rep_matrix((3, 2, 1), i)
    assert max(bound for _, bound in specht._STRAIGHTEN_CACHE.values()) < 8
    with pytest.raises(ConventionError, match="2\\^3"):
        rep_matrix((3, 2, 1), 4)
    assert dispatch(["specht-matrix", "--shape", "3,2,1", "--gen", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal convention violation: straightened coefficients of ")


@st.composite
def fillings(draw, max_size=8):
    """A shape of size <= max_size filled by a random permutation of 1..m.

    Sorting its columns gives every column-standard filling of the shape
    equally often.
    """
    shape = draw(st.sampled_from([lam for m in range(1, max_size + 1)
                                  for lam in enumerate_partitions(m)]))
    entries = iter(draw(st.permutations(range(1, sum(shape) + 1))))
    return tuple(tuple(next(entries) for _ in range(p)) for p in shape)


@settings(max_examples=300, deadline=None)
@given(fillings())
def test_straighten_and_garnir_are_the_oracle(t):
    assert straighten(t).terms == oracles.straighten(t)
    # SpechtVector arithmetic against key-by-key LaurentPoly arithmetic, on the
    # straightened filling and the one with every entry e replaced by m + 1 - e
    m = sum(map(len, t))
    u, w = straighten(t), straighten(tuple(tuple(m + 1 - e for e in row) for row in t))
    for c in (V_MINUS_1, -Q(-2), one):
        assert u.minus_scaled(w, c).terms == oracles.minus_scaled(u, w, c)
    assert (u + w).terms == oracles.minus_scaled(u, w, -one)
    assert (u - w).terms == oracles.minus_scaled(u, w, one)
    assert (u - u).is_zero() and not (u + u).is_zero()
    _, z = oracles.column_sort(t)
    for r, row in enumerate(z):
        for c in range(len(row) - 1):
            if row[c] > row[c + 1]:
                assert garnir(z, r + 1, c + 1) == oracles.garnir(z, r + 1, c + 1)


def test_arithmetic_on_two_shapes_is_a_value_error():
    u, w = straighten(t_minus((3, 2))), straighten(t_minus((2, 2, 1)))
    for op in (SpechtVector.__add__, SpechtVector.__sub__):
        with pytest.raises(ValueError, match=r"mixed labels \(3, 2\) and \(2, 2, 1\)"):
            op(u, w)


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_rep_word_is_the_dense_product(shape, data):
    m = sum(shape)
    word = tuple(data.draw(st.lists(st.integers(1, m - 1), max_size=6)))
    assert rep_word(shape, word) == oracles.rep_word(shape, word)


def test_rep_word_rejects_letters_out_of_range():
    with pytest.raises(ValueError, match="out of range for m=5"):
        rep_word((3, 2), (1, 5))


@pytest.mark.parametrize("shape", ORACLE_SHAPES, ids=str)
def test_jucys_murphy_is_the_dense_sum(shape):
    m = sum(shape)
    for k in range(2, m + 1) if m <= 6 else (m,):  # the dense sums grow fast with m
        want = oracles.jucys_murphy(shape, k)
        assert jucys_murphy(shape, k) == want, k


def _v_int(c: int) -> LaurentPoly:
    if c >= 0:
        return LaurentPoly({e: 1 for e in range(c)})
    return LaurentPoly({e: -1 for e in range(c, 0)})


def test_jucys_murphy_annihilation():
    for m in range(2, 6):
        for lam in enumerate_partitions(m):
            k = len(standard_tableaux(lam))
            L = jucys_murphy(lam, m)
            prod = mat_identity(k)
            for nd in removable_nodes(lam):
                factor = mat_add(
                    L, mat_scale(mat_identity(k), -_v_int(nd.content))
                )
                prod = mat_mul(prod, factor)
            assert mat_is_zero(prod), lam


def test_jucys_murphy_symmetric_group():
    # at v=1 the operator is diagonalizable with content eigenvalues
    lam = (2, 1)
    L = [[LaurentPoly.const(x.eval_one()) for x in row] for row in jucys_murphy(lam, 3)]
    prod = mat_identity(2)
    for c in (1, -1):
        factor = mat_add(L, mat_scale(mat_identity(2), LaurentPoly.const(-c)))
        prod = mat_mul(prod, factor)
    assert mat_is_zero(prod)


def test_jucys_murphy_sums_commute():
    # L_2, ..., L_m span a commutative subalgebra of the Hecke algebra
    for m in range(3, 7):
        for lam in enumerate_partitions(m):
            L = {k: jucys_murphy(lam, k) for k in range(2, m + 1)}
            for j in range(2, m + 1):
                for k in range(j + 1, m + 1):
                    assert mat_mul(L[j], L[k]) == mat_mul(L[k], L[j]), (lam, j, k)


def test_specialize_integer_points():
    # T_1 with v set to an integer v0 keeps the quadratic relation T^2 = (v0 - 1) T + v0
    mat = rep_matrix((3, 2), 1)
    k = len(mat)
    for v0 in (1, -1):
        t = [[sum(c * v0**e for e, c in x.terms.items()) for x in row] for row in mat]
        sq = [[sum(t[i][l] * t[l][j] for l in range(k)) for j in range(k)] for i in range(k)]
        assert sq == [[(v0 - 1) * t[i][j] + v0 * (i == j) for j in range(k)] for i in range(k)], v0


def test_tableau_text_roundtrip():
    t = ((1, 3, 5), (2, 4))
    assert parse_tableau(tableau_text(t)) == t
    big = ((1, 2, 3, 10, 4, 12), (6, 8, 5), (9, 11, 7), (13,))
    assert parse_tableau(tableau_text(big)) == big
