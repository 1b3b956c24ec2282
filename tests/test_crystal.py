import pytest

from fcl.crystal import (
    branching_series_crystal,
    crystal_graph,
    eps_phi,
    f_tilde,
    js_crystal,
    signature,
    to_dot,
)
from fcl import crystal
from fcl.cli import dispatch
from fcl.errors import ConventionError
from fcl.partitions import enumerate_partitions, weight_target_profile
from oracles import (
    add_node, branching_series_crystal_listed, crystal_graph_bfs, e_tilde, restart_signature,
)

BIG = (16, 13, 11, 10, 9, 8, 7, 5, 2)


def test_signature_goldens():
    s0 = signature(BIG, 3, 0)
    assert s0.word() == "A1 A3 R5 R7 A9 R10 A12 A14 R16"
    assert s0.word(reduced=True) == "A1 A3 R16"
    assert s0.good_addable == 3 and s0.good_removable == 16
    s1 = signature(BIG, 3, 1)
    assert s1.word(reduced=True) == "A6 A8 A17"
    assert s1.good_removable is None and s1.good_addable == 17
    s2 = signature(BIG, 3, 2)
    assert s2.word(reduced=True) == "R2 R11 R13"
    assert s2.good_addable is None and s2.good_removable == 2


def test_signature_matches_restart_oracle():
    # n = 1 puts an addable and a removable node in one column; the word
    # reads the addable one first
    for n in range(1, 6):
        for m in range(9):
            for lam in enumerate_partitions(m):
                for i in range(n):
                    word, reduced, good_r, good_a = restart_signature(lam, n, i)
                    sig = signature(lam, n, i)
                    assert (sig.word(), sig.word(reduced=True)) == (word, reduced), (n, lam, i)
                    assert sig.good_removable == (good_r.col if good_r else None)
                    assert sig.good_addable == (good_a.col if good_a else None)
                    assert f_tilde(lam, n, i) == (add_node(lam, good_a) if good_a else None)


def test_kashiwara_operator_goldens():
    for n in (2, 3, 4):
        assert f_tilde((), n, 0) == (1,)
        for i in range(1, n):
            assert f_tilde((), n, i) is None
    assert e_tilde(BIG, 3, 2) == (16, 13, 11, 10, 9, 8, 7, 5, 1)


def test_operator_roundtrip():
    for n in (2, 3):
        for m in range(9):
            for lam in enumerate_partitions(m, regular=n):
                for i in range(n):
                    mu = e_tilde(lam, n, i)
                    if mu is not None:
                        assert f_tilde(mu, n, i) == lam
                    nu = f_tilde(lam, n, i)
                    if nu is not None:
                        assert e_tilde(nu, n, i) == lam


def test_f_tilde_adds_residue_i_node():
    for n in (2, 3):
        for m in range(9):
            for lam in enumerate_partitions(m):
                for i in range(n):
                    nu = f_tilde(lam, n, i)
                    if nu is None:
                        continue
                    padded = lam + (0,) * (len(nu) - len(lam))
                    (row,) = [r for r in range(len(nu)) if nu[r] != padded[r]]
                    col = nu[row]
                    assert (col - row - 1) % n == i % n


def test_eps_phi_goldens():
    for i in range(3):
        assert eps_phi((), 3, i) == (0, 1 if i == 0 else 0)
    assert [eps_phi(BIG, 3, i)[0] for i in range(3)] == [1, 0, 3]
    profile = [eps_phi((3, 2), 3, i)[0] for i in range(3)]
    assert sorted(profile) == [0, 0, 1]


def test_eps_matches_iterated_raising():
    for n in (2, 3):
        for m in range(11):
            for lam in enumerate_partitions(m, regular=n):
                for i in range(n):
                    eps, phi_i = eps_phi(lam, n, i)
                    k, cur = 0, lam
                    while (nxt := e_tilde(cur, n, i)) is not None:
                        cur, k = nxt, k + 1
                    assert k == eps, (lam, i)
                    k, cur = 0, lam
                    while (nxt := f_tilde(cur, n, i)) is not None:
                        cur, k = nxt, k + 1
                    assert k == phi_i, (lam, i)


def test_component_counts_and_membership():
    g = crystal_graph(2, 5)
    levels = g.levels()
    assert [len(levels.get(m, [])) for m in range(6)] == [1, 1, 1, 2, 2, 3]
    for n in (2, 3, 4):
        g = crystal_graph(n, 12)
        levels = g.levels()
        for m in range(13):
            assert len(levels.get(m, [])) == len(enumerate_partitions(m, regular=n))


def test_in_degree_at_most_one_per_residue():
    g = crystal_graph(3, 8)
    seen = set()
    for _, i, mu in g.edges:
        assert (i, mu) not in seen
        seen.add((i, mu))


def test_full_graph_heads():
    g = crystal_graph(2, 6, component_of_empty=False)
    expected = set()
    for m in range(7):
        for lam in enumerate_partitions(m):
            star = tuple(p for p in lam for _ in range(2))
            if sum(star) <= 6:
                expected.add(star)
    assert set(g.nodes) - {mu for _, _, mu in g.edges} == expected


def _node_order(lam):
    return (sum(lam), tuple(-p for p in lam))


@pytest.mark.parametrize("component_of_empty", [True, False])
def test_crystal_graph_is_the_breadth_first_walk(component_of_empty):
    for n in range(2, 6):
        for max_m in range(10):
            g = crystal_graph(n, max_m, component_of_empty)
            nodes, edges = crystal_graph_bfs(n, max_m, component_of_empty)
            assert g.nodes == sorted(nodes, key=_node_order), (n, max_m)
            assert g.edges == sorted(edges, key=lambda e: (_node_order(e[0]), e[1])), (n, max_m)


def test_irregular_f_tilde_is_a_convention_error(monkeypatch, capsys):
    # an f~ that doubles the last part of (2,) leaves the 2-regular partitions
    real = crystal.f_tilde

    def leaky(lam, n, i):
        return (2, 2) if lam == (2,) else real(lam, n, i)

    monkeypatch.setattr(crystal, "f_tilde", leaky)
    with pytest.raises(ConventionError, match=r"leads from \(2,\) out of the graph"):
        crystal_graph(2, 4)
    assert dispatch(["crystal-graph", "--n", "2", "--max-m", "4"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "internal convention violation" in err


def test_unreached_regular_partition_is_a_convention_error(monkeypatch):
    # an f~ that never reaches (2,) leaves a regular partition outside the component
    real = crystal.f_tilde
    monkeypatch.setattr(crystal, "f_tilde",
                        lambda lam, n, i: None if lam == (1,) and i == 1 else real(lam, n, i))
    with pytest.raises(ConventionError, match=r"no f~_i reaches \(2,\)"):
        crystal_graph(2, 3)


def test_branching_series_goldens():
    assert branching_series_crystal(3, 0, (0, 0), 3).coeffs_upto(3) == [1, 0, 1, 2]
    assert branching_series_crystal(3, 0, (1, 2), 3).coeffs_upto(3) == [0, 1, 2, 2]
    assert branching_series_crystal(3, 1, (0, 1), 2).coeffs_upto(2) == [1, 1, 2]
    assert branching_series_crystal(3, 1, (2, 2), 3).coeffs_upto(3) == [0, 1, 1, 2]
    assert branching_series_crystal(3, 2, (0, 2), 2).coeffs_upto(2) == [1, 1, 2]
    assert branching_series_crystal(3, 2, (1, 1), 3).coeffs_upto(3) == [0, 1, 1, 2]


@pytest.mark.parametrize("n, degree", [(2, 16), (3, 10), (4, 7), (5, 5)])
def test_branching_walk_is_the_filtered_listing(n, degree):
    # every target, the unreachable ones (no profile) and those with fewer
    # nodes than n * e (s0 < 0) among them; the e = 0 term is the empty partition
    profiles = []
    for j in range(n):
        for st in ((s, t) for s in range(n) for t in range(n)):
            profiles.append(weight_target_profile(n, j, st))
            walk = branching_series_crystal(n, j, st, degree)
            listed = branching_series_crystal_listed(n, j, st, degree)
            assert walk == listed, (n, j, st)
    assert None in profiles and any(p and p[1] < 0 for p in profiles)
    assert branching_series_crystal(n, 0, (0, 0), degree).coeff(0) == 1


def test_js_crystal_goldens():
    assert js_crystal((2, 1), 3)
    assert js_crystal((4, 4), 3)
    assert not js_crystal((2, 1), 2)
    assert js_crystal((), 3)
    with pytest.raises(ValueError):
        js_crystal((2, 2), 2)


def test_dot_output():
    g = crystal_graph(2, 3)
    dot = to_dot(g)
    assert dot.startswith("digraph crystal {")
    assert dot.count('";') + dot.count('"];') >= 5  # five nodes up to weight 3
    assert '"2" -> "2,1" [label="1"]' in dot
    assert 'peripheries=2' in dot
