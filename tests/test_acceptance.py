"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value here is either a table golden or the output
of an independent enumeration oracle.
"""

import pytest

import oracles
from fcl import branching, canonical, crystal, fock, paths, specht
from fcl import partitions as pt
from fcl.cli import dispatch
from fcl.qseries import LaurentPoly

Q = LaurentPoly.q_power
one = LaurentPoly.one()


def report(num: int, text: str):
    print(f"ACCEPTANCE {num:02d}: PASS - {text}")


def test_criterion_01_specht_goldens(capsys):
    code = dispatch(["specht-matrix", "--shape", "3,2", "--gen", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[1:] == [
        "135/24,-1,-v^2,.,.,v^4",
        "125/34,.,v,.,.,.",
        "134/25,.,.,-1,-v^2,-v^3",
        "124/35,.,.,.,v,.",
        "123/45,.,.,.,.,v",
    ]
    code = dispatch(["tableaux", "--shape", "4,2"])
    out = capsys.readouterr().out
    assert code == 0
    rows = out.strip().splitlines()
    assert len(rows) == 9
    assert rows[0] == "1356/24"
    assert set(rows) == {
        "1356/24", "1346/25", "1256/34", "1246/35", "1345/26",
        "1236/45", "1245/36", "1235/46", "1234/56",
    }
    with capsys.disabled():
        report(1, "T1 matrix on shape (3,2) and the nine standard (4,2) tableaux")


def test_criterion_02_hecke_relations(capsys):
    v_minus_1 = LaurentPoly({0: -1, 1: 1})
    for m in range(2, 6):
        for lam in pt.enumerate_partitions(m):
            mats = {
                i: [list(r) for r in specht.rep_matrix(lam, i)] for i in range(1, m)
            }
            k = len(specht.standard_tableaux(lam))
            ident = oracles.mat_identity(k)
            for i in range(1, m):
                quad = oracles.mat_mul(mats[i], mats[i])
                rhs = oracles.mat_add(
                    oracles.mat_scale(mats[i], v_minus_1),
                    oracles.mat_scale(ident, Q(1)),
                )
                assert oracles.mat_eq(quad, rhs), (lam, i)
                for j in range(i + 1, m):
                    if j == i + 1:
                        assert oracles.mat_eq(
                            oracles.mat_mul(oracles.mat_mul(mats[i], mats[j]), mats[i]),
                            oracles.mat_mul(oracles.mat_mul(mats[j], mats[i]), mats[j]),
                        ), (lam, i, "braid")
                    else:
                        assert oracles.mat_eq(
                            oracles.mat_mul(mats[i], mats[j]),
                            oracles.mat_mul(mats[j], mats[i]),
                        ), (lam, i, j)
    with capsys.disabled():
        report(2, "braid/commutation/quadratic relations exact for all shapes m<=5")


def test_criterion_03_garnir_golden(capsys):
    z = specht.parse_tableau("1,2,3,10,4,12/6,8,5/9,11,7/13")
    rel = specht.garnir(z, 2, 2)
    assert [c for _, c in rel] == [one, -Q(1), Q(2), Q(2), -Q(3), Q(4)]
    total = specht.SpechtVector((6, 3, 3, 1))
    for t, c in rel:
        total = total + specht.straighten(t).scaled(c)
    assert total.is_zero()
    with capsys.disabled():
        report(3, "6-term relation with coefficients (1,-v,v^2,v^2,-v^3,v^4), sums to 0")


def test_criterion_04_canonical_basis_goldens(capsys):
    code = dispatch(["canonical-basis", "--n", "2", "--m", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines() == [
        ',5,"4,1","3,2"',
        "5,1,.,.",
        '"4,1",.,1,.',
        '"3,2",.,.,1',
        '"3,1,1",q,.,q',
        '"2,2,1",.,.,q^2',
        '"2,1,1,1",.,q,.',
        '"1,1,1,1,1",q^2,.,.',
    ]
    code = dispatch(["decomp-matrix", "--n", "2", "--m", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines() == [
        ',5,"4,1","3,2"',
        "5,1,.,.",
        '"4,1",.,1,.',
        '"3,2",.,.,1',
        '"3,1,1",1,.,1',
        '"2,2,1",.,.,1',
        '"2,1,1,1",.,1,.',
        '"1,1,1,1,1",1,.,.',
    ]
    with capsys.disabled():
        report(4, "q-decomposition table and its q=1 specialization, n=2 m=5")


def test_criterion_05_signature_golden(capsys):
    lam = (16, 13, 11, 10, 9, 8, 7, 5, 2)
    words = [crystal.signature(lam, 3, i).word(reduced=True) for i in range(3)]
    assert words == ["A1 A3 R16", "A6 A8 A17", "R2 R11 R13"]
    with capsys.disabled():
        report(5, "reduced signature words A1A3R16 / A6A8A17 / R2R11R13")


def test_criterion_06_cores_golden(capsys):
    lam = (7, 5, 4, 4)
    assert pt.n_core(lam, 3) == ((4, 2, 1, 1), 4)
    assert pt.n_core(lam, 4) == ((), 5)
    assert pt.n_core(lam, 5) == ((2, 2, 1), 3)
    assert pt.rim_hook_count(lam, 5) == 2
    assert pt.rim_hook_count(lam, 4) == 4
    assert pt.rim_hook_count(lam, 3) == 2
    with capsys.disabled():
        report(6, "cores/weights of (7,5,4,4) and hook counts 2/4/2")


def test_criterion_07_bijection_golden(capsys):
    word = paths.PathWord((0, 0, 0, 1, 1, 0, 1, 1, 1, 0), 2)
    lam = paths.to_partition(word)
    assert lam == (10, 8, 7, 4, 2, 1)
    assert paths.to_path(lam, 2) == word
    for n in (2, 3):
        for m in range(11):
            for mu in pt.enumerate_partitions(m, regular=n):
                assert paths.to_partition(paths.to_path(mu, n)) == mu
    with capsys.disabled():
        report(7, "residue word <-> highest lift, round trip exact for m<=10")


def test_criterion_08_fow_js_goldens(capsys):
    lam = pt.parse_partition("13^2,10,6,5,4,1^2")
    assert paths.fow_classify(lam, 3) == 2
    # for n=2 the partition is not even 2-regular, so no colour exists;
    # the classifier rejects it rather than returning a value
    assert not pt.is_n_regular(lam, 2)
    with pytest.raises(ValueError):
        paths.fow_classify(lam, 2)
    twelve = {
        ("", 0): ["0"],
        ("", 1): ["3", "2,1"],
        ("", 2): ["6", "5,1", "4,1,1", "3,3", "3,2,1"],
        ("1", 0): ["1"],
        ("1", 1): ["4", "2,2"],
        ("1", 2): ["7", "4,3"],
        ("2", 0): ["2"],
        ("2", 1): ["5"],
        ("2", 2): ["8", "3,3,1,1"],
        ("1,1", 0): ["1,1"],
        ("1,1", 1): ["3,2"],
        ("1,1", 2): ["6,2", "4,4"],
    }
    for (core, d), want in twelve.items():
        code = dispatch(["js-list", "--n", "3", "--core", core, "--weight", str(d)])
        out = capsys.readouterr().out
        assert code == 0
        assert sorted(out.strip().splitlines()) == sorted(want), (core, d)
    with capsys.disabled():
        report(8, "border-edge classification and the twelve listed sets")


def test_criterion_09_branching_three_way(capsys):
    printed = {
        (0, (0, 0)): [1, 0, 1],
        (0, (1, 2)): [0, 1, 2, 2],
        (1, (0, 1)): [1, 1, 2],
        (1, (2, 2)): [0, 1, 1, 2],
        (2, (0, 2)): [1, 1, 2],
        (2, (1, 1)): [0, 1, 1, 2],
    }
    for (j, st), prefix in printed.items():
        a = paths.branching_poly_paths(3, j, st, 21)
        b = crystal.branching_series_crystal(3, j, st, 6)
        fb = branching.fermionic_poly(3, j, st, 21)
        for e in range(7):
            assert a.coeff(e) == b.coeff(e) == fb.normalized.coeff(e), (j, st, e)
        assert [a.coeff(e) for e in range(len(prefix))] == prefix, (j, st)
    with capsys.disabled():
        report(9, "six series agree to degree 6 across paths/crystal/fermionic")


def test_criterion_10_chi_goldens(capsys):
    expected = {
        (): [1, 2, 5],
        (1,): [1, 2, 2],
        (2,): [1, 1, 2],
        (1, 1): [1, 1, 2],
    }
    for core, prefix in expected.items():
        closed = branching.chi_js(3, core, 2)
        direct = paths.chi_js_direct(3, core, 2)
        assert closed.coeffs_upto(2) == prefix, core
        assert direct.coeffs_upto(2) == prefix, core
    with capsys.disabled():
        report(10, "chi series for the four rectangular cores, both routes")


def test_criterion_11_three_way_js_equivalence(capsys):
    for n in (2, 3):
        for m in range(9):
            for lam in pt.enumerate_partitions(m, regular=n):
                a = crystal.js_crystal(lam, n)
                b = paths.js_combinatorial(lam, n)
                c = canonical.js_canonical(lam, n)
                assert a == b == c, (lam, n)
    with capsys.disabled():
        report(11, "crystal/combinatorial/canonical tests agree, m<=8, n=2,3")


def test_criterion_12_fock_relations(capsys):
    for n in (2, 3):
        rep = fock.relation_check(n, 6)
        assert rep.ok, rep.failures[:3]
        for m in range(7):
            for lam in pt.enumerate_partitions(m):
                v = fock.FockVector.basis(n, lam)
                for i in range(n):
                    got = {
                        mu: c.eval_one()
                        for mu, c in fock.f_apply(i, v).terms.items()
                    }
                    want = {mu: 1 for mu in oracles.classical_apply("f", i, lam, n)}
                    assert got == want
    with capsys.disabled():
        report(12, "commutator, q-Serre and weight relations on weights <= 6")


def test_criterion_13_jucys_murphy(capsys):
    for m in range(2, 6):
        for lam in pt.enumerate_partitions(m):
            k = len(specht.standard_tableaux(lam))
            L = specht.jucys_murphy(lam, m)
            prod = oracles.mat_identity(k)
            for nd in oracles.removable_nodes(lam):
                c = nd.content
                if c >= 0:
                    ev = LaurentPoly({e: 1 for e in range(c)})
                else:
                    ev = LaurentPoly({e: -1 for e in range(c, 0)})
                prod = oracles.mat_mul(
                    prod,
                    oracles.mat_add(L, oracles.mat_scale(oracles.mat_identity(k), -ev)),
                )
            assert oracles.mat_is_zero(prod), lam
    with capsys.disabled():
        report(13, "twisted-transposition operator annihilated by content products")


def test_criterion_14_principal_character(capsys):
    for n in (2, 3, 4):
        series = branching.principal_char(n, 12)
        levels = crystal.crystal_graph(n, 12).levels()
        for m in range(13):
            count = len(pt.enumerate_partitions(m, regular=n))
            assert series.coeff(m) == count
            assert len(levels.get(m, [])) == count
    with capsys.disabled():
        report(14, "product coefficients = regular-partition and crystal level counts")


def test_criterion_15_abf_oracle_equivalence(capsys):
    for L in (4, 5):
        for a in range(1, L):
            for b in range(1, L):
                for c in (b - 1, b + 1):
                    if not 1 <= c <= L - 1:
                        continue
                    offsets = set()
                    for m in range(9):
                        direct = paths.abf_sum_direct(L, a, b, c, m)
                        closed = branching.abf_closed(L, a, b, c, m)
                        assert direct.is_zero() == closed.is_zero()
                        if direct.is_zero():
                            continue
                        off = closed.min_exp() - direct.min_exp()
                        offsets.add(off)
                        assert closed.shifted(-off) == direct, (L, a, b, c, m)
                    assert len(offsets) <= 1, (L, a, b, c)
                    # low-order stabilization to the limit series
                    m0 = 8 if (a - b) % 2 == 0 else 7
                    direct = paths.abf_sum_direct(L, a, b, c, m0)
                    if direct.is_zero():
                        continue
                    lim = branching.x_limit(L, a, b, c, 12).to_poly()
                    lo_d, lo_x = direct.min_exp(), lim.min_exp()
                    for k in range(3):
                        assert direct.coeff(lo_d + k) == lim.coeff(lo_x + k)
    with capsys.disabled():
        report(15, "direct sums = closed form after constant offset; limit stabilizes")


def test_criterion_16_ising_identification(capsys):
    chars = {}
    for r in (1, 2):
        for s in (1, 2, 3):
            ch = branching.rocha_caridi(3, r, s, 12)
            lo = ch.min_exp()
            chars[(r, s)] = [ch.coeff(lo + k) for k in range(11)]
    assignment = {}
    for (j, st) in ((0, (0, 0)), (0, (1, 1)), (1, (0, 1))):
        b = branching.branching_series_stable(2, j, st, 12)
        lo = b.min_exp()
        seq = [b.coeff(lo + k) for k in range(11)]
        matches = sorted(rs for rs, cseq in chars.items() if cseq == seq)
        assert matches, (j, st)
        assignment[(j, st)] = matches
    assert assignment == {
        (0, (0, 0)): [(1, 1), (2, 3)],
        (0, (1, 1)): [(1, 3), (2, 1)],
        (1, (0, 1)): [(1, 2), (2, 2)],
    }
    with capsys.disabled():
        report(16, "each n=2 sector matches a minimal-model character to order 10")
