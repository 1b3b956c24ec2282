"""Generator-action tests.

The expected q-powers for single-node moves are recomputed here by a naive
oracle that scans the diagram cell by cell, independent of the library's
node bookkeeping.
"""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from fcl import partitions
from fcl.fock import (
    FockVector,
    diag_apply,
    divided_f,
    e_apply,
    f_apply,
    relation_check,
)
from fcl.partitions import enumerate_partitions, residue_data
from fcl.errors import ExactDivisionError
from fcl.qseries import LaurentPoly, gauss_balanced
from oracles import classical_apply

Q = LaurentPoly.q_power


def naive_addable(lam):
    """(row, col) of every addable cell, by direct shape inspection."""
    lam = list(lam)
    out = []
    for r in range(len(lam) + 1):
        cur = lam[r] if r < len(lam) else 0
        above = lam[r - 1] if r > 0 else None
        if above is None or above > cur:
            out.append((r + 1, cur + 1))
    return out


def naive_removable(lam):
    lam = list(lam)
    out = []
    for r in range(len(lam)):
        below = lam[r + 1] if r + 1 < len(lam) else 0
        if lam[r] > below:
            out.append((r + 1, lam[r]))
    return out


def naive_f(i, lam, n):
    """Oracle for the lowering action computed straight from the counts."""
    out = {}
    for (r, c) in naive_addable(lam):
        if (c - r) % n != i % n:
            continue
        power = 0
        for (r2, c2) in naive_addable(lam):
            if (c2 - r2) % n == i % n and c2 > c:
                power += 1
        for (r2, c2) in naive_removable(lam):
            if (c2 - r2) % n == i % n and c2 > c:
                power -= 1
        mu = list(lam) + [0]
        mu[r - 1] += 1
        out[tuple(p for p in mu if p)] = Q(power)
    return FockVector(n, out)


def naive_e(i, lam, n):
    out = {}
    for (r, c) in naive_removable(lam):
        if (c - r) % n != i % n:
            continue
        mu_list = list(lam)
        mu_list[r - 1] -= 1
        mu = tuple(p for p in mu_list if p)
        power = 0
        for (r2, c2) in naive_addable(mu):
            if (c2 - r2) % n == i % n and c2 < c:
                power += 1
        for (r2, c2) in naive_removable(mu):
            if (c2 - r2) % n == i % n and c2 < c:
                power -= 1
        out[mu] = Q(-power)
    return FockVector(n, out)


def test_f_examples():
    v = FockVector.basis(2, ())
    assert f_apply(0, v) == FockVector.basis(2, (1,))
    got = f_apply(1, FockVector.basis(2, (1,)))
    assert got == FockVector(2, {(2,): LaurentPoly.one(), (1, 1): Q(1)})
    assert f_apply(1, FockVector.basis(2, (2,))) == FockVector(2, {(2, 1): Q(-1)})


def test_e_examples_pinned_by_oracle():
    # oracle output computed first, then frozen
    got = e_apply(1, FockVector.basis(2, (2, 1)))
    assert naive_e(1, (2, 1), 2) == got
    assert got == FockVector(2, {(2,): LaurentPoly.one(), (1, 1): Q(1)})
    for i in range(2):
        assert e_apply(i, FockVector.basis(2, ())).is_zero()


def test_adjointness_spot_check():
    f1 = f_apply(1, FockVector.basis(2, (1,)))
    assert f1.coeff((2,)) == LaurentPoly.one()
    e1 = e_apply(1, FockVector.basis(2, (2,)))
    assert e1.coeff((1,)) == naive_e(1, (2,), 2).coeff((1,))


def test_action_matches_naive_oracle():
    # n = 1 makes every node an i-node, so addable and removable nodes share
    # columns and the "strictly to one side" rule is exercised
    for n in range(1, 6):
        for m in range(9):
            for lam in enumerate_partitions(m):
                v = FockVector.basis(n, lam)
                for i in range(n):
                    assert f_apply(i, v) == naive_f(i, lam, n), (n, lam, i)
                    assert e_apply(i, v) == naive_e(i, lam, n), (n, lam, i)


def naive_span(op, i, u):
    """The oracle extended linearly, summed with FockVector arithmetic."""
    out = FockVector(u.n, {})
    for lam, c in u.terms.items():
        out = out + op(i, lam, u.n).scaled(c)
    return out


def test_linear_combination_cancels_without_zero_terms():
    # f_1 sends both v[2] and v[1,1] to a multiple of v[2,1] when n = 2
    a = naive_f(1, (2,), 2).coeff((2, 1))
    b = naive_f(1, (1, 1), 2).coeff((2, 1))
    u = FockVector(2, {(2,): b, (1, 1): -a})
    got = f_apply(1, u)
    assert (2, 1) not in got.terms
    assert got == naive_span(naive_f, 1, u)
    assert all(not c.is_zero() for c in got.terms.values())


def test_half_integer_lattice_goldens():
    half = LaurentPoly.q_power((1, 2))
    u = FockVector(2, {(1,): half, (2,): LaurentPoly.one(), (1, 1): LaurentPoly({-1: 1, 2: -3})})
    assert f_apply(1, u).to_text() == (
        "(2*q^-1 - 3*q^2) * v[2,1] + q^1/2 * v[2] + q^3/2 * v[1,1]"
    )
    assert e_apply(1, u).to_text() == "(2*q^-1 - 3*q^2) * v[1]"
    assert e_apply(0, u).to_text() == "q^1/2 * v[0]"
    # the half-integer parts cancel and the coefficient drops back to Z[q, 1/q]
    u = FockVector(2, {(2,): LaurentPoly.one() + half, (1, 1): -half.shifted(-1)})
    got = f_apply(1, u)
    assert got == FockVector(2, {(2, 1): Q(-1)})
    assert got.coeff((2, 1)).den == 1


exponents = st.integers(-4, 4)
coefficients = st.builds(
    LaurentPoly,
    st.dictionaries(exponents, st.integers(-3, 3), max_size=3),
    st.sampled_from((1, 1, 2)),
)


@st.composite
def spans(draw):
    """(n, i, u): a small combination of partitions of one size m <= 6."""
    n = draw(st.integers(1, 5))
    parts = enumerate_partitions(draw(st.integers(0, 6)))
    support = draw(st.lists(st.sampled_from(parts), min_size=1, max_size=4, unique=True))
    terms = {lam: draw(coefficients) for lam in support}
    return n, draw(st.integers(0, n - 1)), FockVector(n, terms)


def canonical(c):
    return not c.is_zero() and c == LaurentPoly(dict(c.terms), c.den)


@settings(max_examples=150, deadline=None)
@given(spans())
def test_action_is_the_linear_oracle_on_spans(case):
    n, i, u = case
    for op, oracle in ((f_apply, naive_f), (e_apply, naive_e)):
        got = op(i, u)
        assert got == naive_span(oracle, i, u)
        assert all(canonical(c) for c in got.terms.values())


@settings(max_examples=150, deadline=None)
@given(spans(), spans(), coefficients, st.booleans())
def test_minus_scaled_is_subtracting_the_scaled_vector(a, b, c, cancel):
    """self - c * other in one pass, on mixed lattices and with full cancellation,
    against key-by-key LaurentPoly arithmetic; + and - are the cases c = -1, 1."""
    u = a[2]
    w = FockVector(u.n, b[2].terms)
    one = LaurentPoly.one()
    if cancel:
        u, c = FockVector(u.n, oracles.minus_scaled(u, w, -one)), one
    got = u.minus_scaled(w, c)
    assert got.terms == oracles.minus_scaled(u, w, c)
    assert all(canonical(x) for x in got.terms.values())
    assert (u + w).terms == oracles.minus_scaled(u, w, -one)
    assert (u - w).terms == oracles.minus_scaled(u, w, one)


def test_arithmetic_on_two_moduli_is_a_value_error():
    u, w = FockVector.basis(2, (1,)), FockVector.basis(3, (1,))
    for op in (FockVector.__add__, FockVector.__sub__):
        with pytest.raises(ValueError, match="mixed labels 2 and 3"):
            op(u, w)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(3, 6),
    st.sampled_from(((f_apply, naive_f), (e_apply, naive_e))),
    st.data(),
)
def test_action_cancels_to_no_term(n, m, action, data):
    """a*v[lam] + b*v[mu] chosen so that the nu-coefficients of the images cancel."""
    op, oracle = action
    i = data.draw(st.integers(0, n - 1))
    images = {lam: oracle(i, lam, n) for lam in enumerate_partitions(m)}
    shared = [
        (lam, mu, nu)
        for lam, mu in combinations(images, 2)
        for nu in sorted(images[lam].terms.keys() & images[mu].terms.keys())
    ]
    assume(shared)
    lam, mu, nu = data.draw(st.sampled_from(shared))
    u = FockVector(n, {lam: images[mu].coeff(nu), mu: -images[lam].coeff(nu)})
    got = op(i, u)
    assert nu not in got.terms
    assert got == naive_span(oracle, i, u)


def test_degree_shift():
    for n in (2, 3):
        for m in range(7):
            for lam in enumerate_partitions(m):
                v = FockVector.basis(n, lam)
                for i in range(n):
                    for mu in f_apply(i, v).terms:
                        assert sum(mu) == m + 1
                    for mu in e_apply(i, v).terms:
                        assert sum(mu) == m - 1


def test_diag_examples():
    assert diag_apply("h", (), 2, 0) == Q(1)
    assert diag_apply("D", (), 2) == LaurentPoly.one()
    assert diag_apply("h", (1,), 2, 0) == Q(-1)
    for kind in ("h_i", "d", "x"):
        with pytest.raises(ValueError, match="unknown diagonal kind"):
            diag_apply(kind, (), 2)


def test_diag_matches_weight_pairing():
    for n in (2, 3):
        for m in range(11):
            for lam in enumerate_partitions(m):
                wt = residue_data(lam, n)[2]
                for i in range(n):
                    assert diag_apply("h", lam, n, i) == Q(wt.pair_h(i))


def test_divided_powers():
    v0 = FockVector.basis(2, ())
    assert divided_f(0, 1, v0) == f_apply(0, v0)
    got = divided_f(1, 2, f_apply(0, v0))
    assert got == FockVector.basis(2, (2, 1))
    assert divided_f(0, 2, FockVector.basis(3, ())).is_zero()


def test_one_step_divided_power_is_the_oracle():
    # f_i^(k) in one step against f_i applied k times and divided by [k]!: every
    # v[lam] of size <= 10, n = 1..5 (k = 1 only at n = 1), every i, k = 1..4
    cases = 0
    for n in range(1, 6):
        for m in range(11):
            for lam in enumerate_partitions(m):
                v = FockVector.basis(n, lam)
                for i in range(n):
                    for k in range(1, 5 if n > 1 else 2):
                        assert divided_f(i, k, v) == oracles.divided_f(i, k, v), (n, lam, i, k)
                        cases += 1
    assert cases == 7923
    # half-integer exponents: the accumulator works on the vector's lattice
    u = FockVector(2, {(2, 1): LaurentPoly({1: 1, -3: 2}, 2), (1,): LaurentPoly({2: -1}),
                       (): LaurentPoly({-1: 3}, 2)})
    for i in range(2):
        for k in (1, 2, 3):
            assert divided_f(i, k, u) == oracles.divided_f(i, k, u), (i, k)
    assert divided_f(0, 3, u) == FockVector(2, {(3, 2, 1): LaurentPoly({1: 1, -3: 2}, 2)})


def test_divided_powers_need_n_at_least_2():
    # f_0^2 v[()] = v[2] + q v[1,1] at n = 1, and [2] = q^-1 + q does not divide it
    v = FockVector.basis(1, ())
    assert f_apply(0, f_apply(0, v)) == FockVector(1, {(2,): LaurentPoly.one(), (1, 1): Q(1)})
    for m in range(11):
        for lam in enumerate_partitions(m):
            v = FockVector.basis(1, lam)
            assert divided_f(0, 1, v) == f_apply(0, v)
            for k in (2, 3, 4):
                with pytest.raises(ValueError, match=r"divided powers need n >= 2"):
                    divided_f(0, k, v)
                with pytest.raises(ExactDivisionError):
                    oracles.divided_f(0, k, v)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.integers(0, 7), st.integers(1, 3), st.integers(1, 2), st.data())
def test_divided_powers_compose(n, m, a, b, data):
    # f_i^(a) f_i^(b) = [a+b choose a] f_i^(a+b)
    lam = data.draw(st.sampled_from(enumerate_partitions(m)))
    i = data.draw(st.integers(0, n - 1))
    v = FockVector.basis(n, lam)
    assert divided_f(i, a, divided_f(i, b, v)) == divided_f(i, a + b, v).scaled(
        gauss_balanced(a + b, a))


def test_classical_action():
    # single-content operators move along one edge
    assert classical_apply("e", 0, (4, 2)) == [(4, 1)]
    assert classical_apply("e", 3, (4, 2)) == [(3, 2)]
    assert classical_apply("e", 1, (4, 2)) == []
    # folded operator at residue 1, n=2
    assert sorted(classical_apply("f", 1, (1,), 2)) == [(1, 1), (2,)]
    # complete restriction sums every removable content
    got = sorted(
        mu for c in range(-10, 11) for mu in classical_apply("e", c, (4, 2))
    )
    assert got == [(3, 2), (4, 1)]


def test_q_one_specialization_matches_folded():
    for n in (2, 3):
        for m in range(9):
            for lam in enumerate_partitions(m):
                v = FockVector.basis(n, lam)
                for i in range(n):
                    qone = {
                        mu: c.eval_one() for mu, c in f_apply(i, v).terms.items()
                    }
                    folded = classical_apply("f", i, lam, n)
                    assert qone == {mu: 1 for mu in folded}
                    qone = {
                        mu: c.eval_one() for mu, c in e_apply(i, v).terms.items()
                    }
                    folded = classical_apply("e", i, lam, n)
                    assert qone == {mu: 1 for mu in folded}


def test_relation_check_passes():
    report = relation_check(2, 3)
    assert report.ok is True and report.failures == []
    assert relation_check(2, 4).ok
    assert relation_check(3, 5).ok


def test_relation_check_negative_control(monkeypatch):
    # Move the first i-node of every sweep to its end.  Each node still moves
    # and every h_i eigenvalue stays, but the running counts, and so the
    # q-powers, go wrong.  (Reversing the sweep would not do: it gives the
    # opposite, equally valid convention.)
    original = partitions._inodes

    def corrupted(lam, n, i):
        sweep = original(lam, n, i)
        return sweep[1:] + sweep[:1]

    monkeypatch.setattr(partitions, "_inodes", corrupted)
    report = relation_check(2, 4)
    assert not report.ok
    assert report.failures  # a witness is named
    assert not any(f.startswith("weight") for f in report.failures)


def test_fock_vector_text():
    v = FockVector(2, {(3,): LaurentPoly.one(), (1, 1, 1): Q(1)})
    assert v.to_text() == "1 * v[3] + q * v[1,1,1]"
