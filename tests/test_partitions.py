import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcl import partitions
from fcl.partitions import (
    Weight,
    check_partition,
    conjugate,
    dominates,
    enumerate_partitions,
    format_partition,
    fundamental,
    is_n_regular,
    multiplicities,
    n_core,
    parse_partition,
    residue_counts,
    residue_data,
    rim_hook_count,
    weight_basics,
    weight_target_profile,
)
from oracles import (
    Node,
    add_node,
    addable_nodes,
    beta_hook_results,
    content_lists,
    dominates_padded,
    n_core_walk,
    node_lists,
    removable_nodes,
    remove_node,
    residue_counts_by_row,
    rim_hooks,
)

BIG = (16, 13, 11, 10, 9, 8, 7, 5, 2)


def test_parse_and_format():
    assert parse_partition("3^2,1") == (3, 3, 1)
    assert parse_partition("") == ()
    assert parse_partition("0") == ()
    assert parse_partition("10,8,7") == (10, 8, 7)
    assert format_partition(()) == "0"
    assert format_partition((4, 3, 1)) == "4,3,1"
    assert parse_partition(" 3^2 , 1 ") == (3, 3, 1)
    assert parse_partition("2^0,1") == (1,)
    with pytest.raises(ValueError):
        check_partition((1, 2))


def test_quoted_writes_long_runs_as_powers():
    # _quoted reads the (value, multiplicity) pairs, so no flag is expanded for it
    def quoted(lam):
        return partitions._quoted(partitions.multiplicities(lam))

    assert quoted(()) == "0"
    assert quoted((4, 2, 2, 1)) == "4,2,2,1"
    assert quoted((5, 3, 3, 3, 1, 1, 1, 1)) == "5,3^3,1^4"
    assert partitions._quoted([(1, 10**12)]) == "1^1000000000000"
    # the quoted text parses back to the partition
    for lam in [(7,) * 9 + (2, 2), (1,) * 50]:
        assert parse_partition(quoted(lam)) == lam


@pytest.mark.parametrize("text", ["3,x", "3^2^1", "3,,2", "3^-1", "1,2", "3,0", "-1", "2^"])
def test_parse_rejects_malformed_text_in_domain_terms(text):
    with pytest.raises(ValueError) as err:
        parse_partition(text)
    assert str(err.value) == (
        f"{text!r} is not a partition: give weakly decreasing positive parts"
        " separated by commas, a repeated part as value^count (3^2,1 is 3,3,1)"
    )


def test_conjugate_examples():
    assert conjugate((4, 3, 1)) == (3, 2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((6, 5, 4, 4, 3, 3, 3, 2, 1, 1)) == (10, 8, 7, 4, 2, 1)


def test_conjugate_involution():
    for m in range(13):
        for lam in enumerate_partitions(m):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == m


def test_regularity():
    assert not is_n_regular((2, 2, 1), 2)
    assert is_n_regular((3, 2), 2)
    assert [x for x in enumerate_partitions(5, regular=2)] == [
        (5,),
        (4, 1),
        (3, 2),
    ]
    # multiplicity form agrees with the conjugate-difference form
    for m in range(11):
        for lam in enumerate_partitions(m):
            for n in (2, 3, 4):
                conj = conjugate(lam)
                alt = all(
                    (conj[i] - (conj[i + 1] if i + 1 < len(conj) else 0)) < n
                    for i in range(len(conj))
                )
                assert is_n_regular(lam, n) == alt, (lam, n)


def test_residue_data_examples():
    m, e, wt = residue_data((), 3)
    assert m == (0, 0, 0) and e == 0 and wt == fundamental(3, 0)
    m, e, wt = residue_data((5, 5, 4, 1, 1), 3)
    assert m == (6, 5, 5)
    m, e, wt = residue_data((3,), 3)
    assert m == (1, 1, 1)
    assert wt == Weight(3, (1, 0, 0), -1)  # highest weight minus the null root


def test_residue_counts_sum():
    for m in range(13):
        for lam in enumerate_partitions(m):
            for n in (2, 3, 4, 5):
                assert sum(residue_counts(lam, n)) == m


def test_colour_shift():
    # colour-v colouring shifts every residue by v
    lam = (5, 3, 1)
    for n in (2, 3, 4):
        base = residue_counts(lam, n)
        for v in range(n):
            shifted = residue_counts(lam, n, colour=v)
            assert shifted == tuple(base[(r - v) % n] for r in range(n))


def test_residue_counts_match_the_row_rule():
    for m in range(13):
        for lam in enumerate_partitions(m):
            for n in range(1, 7):
                for colour in range(n):
                    assert residue_counts(lam, n, colour) == residue_counts_by_row(lam, n, colour), (
                        lam, n, colour)


def test_sweep_is_the_node_model():
    # the i-node sweep lists the oracle's addable and removable i-nodes merged
    # in column order; for n = 1 an addable node precedes a removable one in
    # the same column
    for n in range(1, 6):
        for m in range(11):
            for lam in enumerate_partitions(m):
                for i in range(n):
                    add, rem = node_lists(lam, n, i)
                    want = sorted([(nd.col, 0, nd.row - 1, 1) for nd in add]
                                  + [(nd.col, 1, nd.row - 1, -1) for nd in rem])
                    got = partitions._inodes(lam, n, i)
                    assert got == [(r, c, s) for c, _, r, s in want], (lam, n, i)
                    for r, c, s in got:
                        nd = Node(r + 1, c, c - r - 1)
                        if s > 0:
                            assert partitions._grown(lam, r) == add_node(lam, nd)
                        else:
                            assert partitions._shrunk(lam, r) == remove_node(lam, nd)


def test_node_lists_examples():
    add_c, rem_c = content_lists((7, 5, 5, 2, 1, 1))
    assert rem_c == [-5, -2, 2, 6]
    assert add_c == [-6, -3, -1, 4, 7]
    add, rem = node_lists((), 3, 0)
    assert [(nd.row, nd.col) for nd in add] == [(1, 1)]
    assert rem == []
    add, rem = node_lists(BIG, 3, 0)
    assert [nd.col for nd in add] == [1, 3, 9, 12, 14]
    assert [nd.col for nd in rem] == [5, 7, 10, 16]


def test_node_add_remove_roundtrip():
    for m in range(9):
        for lam in enumerate_partitions(m):
            for nd in addable_nodes(lam):
                mu = add_node(lam, nd)
                assert sum(mu) == m + 1
            for nd in removable_nodes(lam):
                mu = remove_node(lam, nd)
                assert sum(mu) == m - 1
                assert add_node(mu, nd) == lam


def test_core_examples():
    assert n_core((7, 5, 4, 4), 3) == ((4, 2, 1, 1), 4)
    assert n_core((7, 5, 4, 4), 4) == ((), 5)
    assert n_core((7, 5, 4, 4), 5) == ((2, 2, 1), 3)
    core, w = n_core((4, 2, 1, 1), 3)
    assert core == (4, 2, 1, 1) and w == 0


def test_rim_hook_examples():
    assert len(rim_hooks((7, 5, 4, 4), 5)) == 2
    assert len(rim_hooks((7, 5, 4, 4), 4)) == 4
    assert len(rim_hooks((7, 5, 4, 4), 3)) == 2
    assert rim_hooks((1,), 2) == []


def test_rim_hooks_agree_with_beta_numbers():
    for m in range(11):
        for lam in enumerate_partitions(m):
            for n in (2, 3, 4, 5):
                walk = sorted(res for _, res in rim_hooks(lam, n))
                beta = sorted(beta_hook_results(lam, n))
                assert walk == beta, (lam, n)


def test_rim_hook_drops_one_zero_node():
    for m in range(11):
        for lam in enumerate_partitions(m):
            for n in (2, 3, 4):
                m0 = residue_counts(lam, n)[0]
                for _, res in rim_hooks(lam, n):
                    assert residue_counts(res, n)[0] == m0 - 1


def test_core_weight_size_identity_and_order_independence():
    for m in range(11):
        for lam in enumerate_partitions(m):
            for n in (2, 3, 4):
                core, w = n_core(lam, n)
                assert n * w + sum(core) == m
                # removing hooks in a different order gives the same core
                cur = lam
                w2 = 0
                while True:
                    hooks = rim_hooks(cur, n)
                    if not hooks:
                        break
                    cur = hooks[-1][1]
                    w2 += 1
                assert (cur, w2) == (core, w)


def test_abacus_matches_the_rim_hook_walk():
    for m in range(13):
        for lam in enumerate_partitions(m):
            for n in range(2, 7):
                assert n_core(lam, n) == n_core_walk(lam, n), (lam, n)
                assert rim_hook_count(lam, n) == len(rim_hooks(lam, n)), (lam, n)


@st.composite
def partitions_upto(draw, size):
    parts: list[int] = []
    while size and draw(st.booleans()):
        parts.append(draw(st.integers(1, min([size, *parts[-1:]]))))
        size -= parts[-1]
    return tuple(parts)


@given(partitions_upto(30), st.integers(2, 6))
def test_abacus_matches_the_rim_hook_walk_up_to_30(lam, n):
    assert n_core(lam, n) == n_core_walk(lam, n)
    assert rim_hook_count(lam, n) == len(rim_hooks(lam, n))


def test_core_rejects_n_below_two():
    for n in (1, 0, -3):
        with pytest.raises(ValueError, match="core needs n >= 2"):
            n_core((3, 1), n)


def test_enumerate_examples():
    assert enumerate_partitions(5) == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]
    assert enumerate_partitions(0) == [()]
    reg8 = enumerate_partitions(8, regular=3)
    assert (8,) in reg8 and (3, 3, 1, 1) in reg8


def test_weight_basics():
    a0, _ = weight_basics(2, 0)
    assert a0 == Weight(2, (2, -2), 1)
    _, e1 = weight_basics(3, 1)
    assert e1 == Weight(3, (0, -1, 1), 0)
    total = Weight(3, (0, 0, 0), 0)
    for i in range(3):
        total = total + weight_basics(3, i)[0]
    assert total == Weight(3, (0, 0, 0), 1)  # the null root
    assert Weight(3, (0, 0, 1)).delta == 0
    with pytest.raises(ValueError, match="fund must have length n"):
        Weight(3, (1, 0))


def test_weight_level_one():
    for m in range(11):
        for lam in enumerate_partitions(m):
            for n in (2, 3):
                assert residue_data(lam, n)[2].level() == 1


def test_young_lattice_edges():
    # edge labels = removable-node contents; targets agree with brute force
    for m in range(1, 9):
        for lam in enumerate_partitions(m):
            downs = {remove_node(lam, nd): nd.content for nd in removable_nodes(lam)}
            brute = {
                mu
                for mu in enumerate_partitions(m - 1)
                if len(mu) <= len(lam)
                and all(mu[i] <= lam[i] for i in range(len(mu)))
            }
            assert set(downs) == brute
            for mu, c in downs.items():
                rows_changed = [
                    i for i in range(len(lam)) if (mu + (0,) * 9)[i] != lam[i]
                ]
                (i,) = rows_changed
                assert c == lam[i] - (i + 1)


def test_dominance():
    assert dominates((5,), (3, 2))
    assert not dominates((3, 2), (5,))
    assert dominates((3, 2), (3, 2))
    assert dominates((3, 1, 1), (2, 2, 1))
    assert not dominates((2, 2, 1), (3, 1, 1))
    # incomparable pair
    assert not dominates((4, 1, 1), (3, 3)) and not dominates((3, 3), (4, 1, 1))


def test_dominance_by_prefix_sums_is_the_padded_walk():
    for m in range(13):
        parts = enumerate_partitions(m)
        for lam in parts:
            for mu in parts:
                assert dominates(lam, mu) == dominates_padded(lam, mu), (lam, mu)


def test_weight_target_profile():
    assert weight_target_profile(3, 0, (0, 0)) == ((0, 0, 0), 0)
    assert weight_target_profile(3, 0, (1, 2)) == ((0, -1, -1), -2)
    assert weight_target_profile(2, 1, (0, 1)) == ((0, 0), 0)
    assert weight_target_profile(3, 1, (0, 0)) is None  # wrong sector
    c, s0 = weight_target_profile(3, 1, (2, 2))
    assert c == (0, 0, -1) and s0 == -1
    for target in ((3, 0), (0, 3), (-1, 1), (2, 5)):
        with pytest.raises(ValueError, match=r"needs both indices in 0..n-1 = 0..2"):
            weight_target_profile(3, 0, target)


def test_target_profile_exists_exactly_on_its_sector():
    for n in range(2, 8):
        for j in range(n):
            for s in range(n):
                for t in range(n):
                    prof = weight_target_profile(n, j, (s, t))
                    assert (prof is not None) == ((s + t - j) % n == 0), (n, j, s, t)


def test_multiplicities():
    assert multiplicities((3, 3, 1)) == [(3, 2), (1, 1)]
    assert multiplicities(()) == []
