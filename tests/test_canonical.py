
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fcl import canonical, qseries
from fcl.canonical import (
    global_basis_vectors,
    global_lower_basis,
    js_canonical,
    restriction_coeffs,
)
from fcl.cli import dispatch
from fcl.crystal import eps_phi
from fcl.errors import ConventionError
from fcl.fock import FockVector, f_apply
from fcl.partitions import enumerate_partitions, is_n_regular, n_core
from fcl.qseries import LaurentPoly, q_int
from oracles import ladders

Q = LaurentPoly.q_power
one = LaurentPoly.one()


def test_ladders():
    assert ladders((2, 1), 2) == [(1, 0, 1), (2, 1, 2)]
    assert ladders((1,), 2) == [(1, 0, 1)]
    assert ladders((1,), 5) == [(1, 0, 1)]
    assert ladders((3,), 2) == [(1, 0, 1), (2, 1, 1), (3, 0, 1)]
    with pytest.raises(ValueError):
        ladders((1, 1), 2)


def test_ladder_counts_sum():
    for m in range(9):
        for lam in enumerate_partitions(m, regular=3):
            assert sum(k for _, _, k in ladders(lam, 3)) == m


def test_monomial_examples():
    monomial_A = oracles.monomial_A
    assert monomial_A((2, 1), 2) == FockVector.basis(2, (2, 1))
    got = monomial_A((3,), 2)
    assert got == FockVector(2, {(3,): one, (1, 1, 1): Q(1)})
    assert monomial_A((1,), 3) == FockVector.basis(3, (1,))


def test_basis_matches_the_monomial_oracle():
    for n in (2, 3, 4, 5):
        for m in range(13):
            assert global_basis_vectors(n, m) == oracles.global_basis_from_monomials(n, m), (n, m)


@st.composite
def regular_partitions(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 14))
    return n, draw(st.sampled_from(enumerate_partitions(m, regular=n)))


@settings(max_examples=300, deadline=None)
@given(regular_partitions())
def test_top_ladder_removal(case):
    n, mu = case
    top = ladders(mu, n)[-1][0]
    nodes = [(r, c) for r, p in enumerate(mu, start=1) for c in range(1, p + 1)
             if r + (n - 1) * (c - 1) == top]
    assert all(c == mu[r - 1] for r, c in nodes)  # every removed node is a row end
    res, k, bar = canonical._top_ladder(mu, n)
    assert (res, k) == ladders(mu, n)[-1][1:] and k == len(nodes)
    assert list(bar) == sorted(bar, reverse=True) and is_n_regular(bar, n)
    assert sum(bar) == sum(mu) - k
    assert ladders(bar, n) == ladders(mu, n)[:-1]


def test_top_ladder_read_from_the_row_ends_is_the_oracle():
    # every n-regular mu, n = 2..3 up to size 18 and n = 4..6 up to size 14: the row
    # ends alone give the top ladder that counting every node gives, and its removal
    for n, top in ((2, 18), (3, 18), (4, 14), (5, 14), (6, 14)):
        for m in range(1, top + 1):
            for mu in enumerate_partitions(m, regular=n):
                assert canonical._top_ladder(mu, n) == oracles.top_ladder(mu, n), (n, mu)


def test_monomial_without_unit_leading_term_is_a_convention_error(monkeypatch, capsys):
    # a packed lowering off by a factor q leaves the leading coefficient q, not 1;
    # the first column built by a lowering is (1,)
    exact = canonical._lowered

    def times_q(*args):
        col, off, bound = exact(*args)
        return {lam: x << qseries._DIGIT for lam, x in col.items()}, off, bound

    monkeypatch.setattr(canonical, "_lowered", times_q)
    global_basis_vectors.cache_clear()
    with pytest.raises(ConventionError, match="no unit dominance-triangular leading term"):
        global_basis_vectors(2, 3)
    assert dispatch(["canonical-basis", "--n", "2", "--m", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "internal convention violation: start for (1,) has no unit" in err
    global_basis_vectors.cache_clear()


def test_basis_m3():
    vecs = global_basis_vectors(2, 3)
    assert vecs[(3,)] == FockVector(2, {(3,): one, (1, 1, 1): Q(1)})
    assert vecs[(2, 1)] == FockVector.basis(2, (2, 1))


def test_negative_size_is_a_value_error():
    for fn in (global_basis_vectors, global_lower_basis):
        with pytest.raises(ValueError, match="m must be >= 0"):
            fn(3, -1)


def test_basis_m1_identity():
    for n in (2, 3, 4):
        mat = global_lower_basis(n, 1)
        assert mat.rows == [(1,)] and mat.cols == [(1,)]
        assert mat.entries[0][0] == one


def test_lgcb_table_n2_m5():
    mat = global_lower_basis(2, 5)
    expected = {
        ((5,), (5,)): one,
        ((4, 1), (4, 1)): one,
        ((3, 2), (3, 2)): one,
        ((3, 1, 1), (5,)): Q(1),
        ((3, 1, 1), (3, 2)): Q(1),
        ((2, 2, 1), (3, 2)): Q(2),
        ((2, 1, 1, 1), (4, 1)): Q(1),
        ((1, 1, 1, 1, 1), (5,)): Q(2),
    }
    for lam in mat.rows:
        for mu in mat.cols:
            want = expected.get((lam, mu), LaurentPoly.zero())
            assert mat.entry(lam, mu) == want, (lam, mu)


def test_decomposition_matrix_n2_m5():
    mat = global_lower_basis(2, 5)
    rows = mat.rows
    at1 = [[e.eval_one() for e in row] for row in mat.entries]
    table = {
        (5,): (1, 0, 0),
        (4, 1): (0, 1, 0),
        (3, 2): (0, 0, 1),
        (3, 1, 1): (1, 0, 1),
        (2, 2, 1): (0, 0, 1),
        (2, 1, 1, 1): (0, 1, 0),
        (1, 1, 1, 1, 1): (1, 0, 0),
    }
    for lam, row in zip(rows, at1):
        assert tuple(row) == table[lam]


def test_diagonal_and_qzq():
    for n in (2, 3):
        for m in range(1, 8):
            mat = global_lower_basis(n, m)
            for lam in mat.rows:
                for mu in mat.cols:
                    e = mat.entry(lam, mu)
                    if lam == mu:
                        assert e == one
                    elif not e.is_zero():
                        assert oracles.in_qZq(e)
                        # conjectured positivity, reported as an assertion here
                        assert all(c > 0 for c in e.terms.values()), (lam, mu)


def test_block_property_same_core():
    for n in (2, 3):
        for m in range(1, 9):
            mat = global_lower_basis(n, m)
            for lam in mat.rows:
                for mu in mat.cols:
                    if not mat.entry(lam, mu).is_zero():
                        assert n_core(lam, n)[0] == n_core(mu, n)[0]


def test_singleton_columns_outside_shared_cores_n3():
    for m in range(1, 5):
        mat = global_lower_basis(3, m)
        for mu in mat.cols:
            col = [lam for lam in mat.rows if not mat.entry(lam, mu).is_zero()]
            shared = [lam for lam in mat.rows if n_core(lam, 3)[0] == n_core(mu, 3)[0]]
            if len(shared) == 1:
                assert col == [mu]


def test_restriction_examples():
    mat = restriction_coeffs(2, 1)
    assert mat.entry((1,), ()) == one
    mat = restriction_coeffs(2, 3)
    assert mat.entry((2, 1), (2,)) == q_int(2)
    assert mat.entry((3,), (2,)) == one


def test_js_rows_have_single_unit_entry():
    from fcl.paths import js_combinatorial

    for n in (2, 3):
        for m in range(1, 8):
            mat = restriction_coeffs(n, m)
            for lam in mat.rows:
                row = [c for c in mat.entries[mat.rows.index(lam)] if not c.is_zero()]
                if js_combinatorial(lam, n):
                    assert len(row) == 1 and row[0].eval_one() == 1, lam
                else:
                    assert not (len(row) == 1 and row[0].eval_one() == 1), lam


def test_restriction_weak_form_of_raising_identity():
    # single-1 eps profile forces a unit coefficient on the predecessor column
    for n in (2, 3):
        for m in range(1, 8):
            mat = restriction_coeffs(n, m)
            for lam in mat.rows:
                eps = [eps_phi(lam, n, i)[0] for i in range(n)]
                if sorted(eps) == [0] * (n - 1) + [1]:
                    i = eps.index(1)
                    mu = oracles.e_tilde(lam, n, i)
                    assert mat.entry(lam, mu) == one, (lam, i)


def test_js_canonical_goldens():
    assert js_canonical((3, 2), 3)
    assert js_canonical((1,), 2)
    assert js_canonical((1,), 3)
    assert not js_canonical((2, 1), 2)
    with pytest.raises(ValueError):
        js_canonical((3, 1, 1), 2)  # not 2-regular: rejected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_packed_lowering_is_f_apply(n):
    # every basis vector of size <= 10, lowered by every residue: f_i against f_apply,
    # f_i^(2) and f_i^(3) against the k-fold oracle, each within the carried bound
    for m in range(11):
        for mu, (col, bound) in canonical._bases(n, m)[m].items():
            vec = global_basis_vectors(n, m)[mu]
            for i in range(n):
                for k in (1, 2, 3):
                    got, off, got_bound = canonical._lowered(n, (i,), col, bound, k)
                    want = f_apply(i, vec) if k == 1 else oracles.divided_f(i, k, vec)
                    assert FockVector(n, {lam: c.shifted(-off) for lam, c in
                                          canonical._decoded(n, got).terms.items()}) == want
                    assert all(sum(map(abs, c.terms.values())) <= got_bound
                               for c in want.terms.values()), (mu, i, k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_restriction_is_the_oracle(n):
    for m in range(1, 11):
        assert list(restriction_coeffs(n, m).entries) == oracles.restriction_coeffs(n, m), (n, m)


@pytest.fixture
def narrow_digits(monkeypatch):
    """Pack on 4-bit digits, so a coefficient must stay within +-7, with fresh
    caches; every cache is put back afterwards."""
    monkeypatch.setattr(qseries, "_DIGIT", 4)
    monkeypatch.setattr(qseries, "_UNPACKED", {})
    monkeypatch.setattr(canonical, "_PACKED", {})
    global_basis_vectors.cache_clear()
    yield
    global_basis_vectors.cache_clear()


def test_packed_digits_are_refused_before_they_could_wrap(narrow_digits, capsys):
    # up to (2, 8) every carried bound stays below the narrowed limit 2^3 and
    # the columns stay exact; at (2, 9) the column (7, 2) carries a bound of 8
    for m in range(9):
        assert global_basis_vectors(2, m) == oracles.global_basis_from_monomials(2, m), m
    with pytest.raises(ConventionError, match=r"column \(7, 2\): coefficients could pass 2\^3"):
        global_basis_vectors(2, 9)
    assert dispatch(["canonical-basis", "--n", "2", "--m", "9"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal convention violation: column (7, 2)")
