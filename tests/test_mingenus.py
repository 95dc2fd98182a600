import pytest

from genus_spectrum import (
    AbelianPGroup,
    HalfInt,
    OutOfRangeError,
    UnsupportedError,
    classify_gamma_seq,
    epsilon_i,
    gamma,
    index_set,
    is_admissible,
    maclachlan_nu,
    min_gamma_A,
    mu0,
    reduced_genus,
)
from helpers import all_groups, brute_min_reduced


def test_epsilon_examples():
    assert epsilon_i(AbelianPGroup(3, (0, 1)), 1) == 2  # s = (2,2,1)
    assert epsilon_i(AbelianPGroup(2, (0, 1)), 1) == 2
    assert epsilon_i(AbelianPGroup(3, (1, 1)), 1) == 1  # s = (3,2,1)
    for G in (AbelianPGroup(3, (1, 1)), AbelianPGroup(2, (2, 0, 1))):
        assert epsilon_i(G, G.e) == 0
        assert epsilon_i(G, 0) == 0
    # drop of one onto an odd lower value needs no bump
    assert epsilon_i(AbelianPGroup(2, (2, 1)), 1) == 0  # s = (4,2,1): drop 2
    assert epsilon_i(AbelianPGroup(2, (1, 2)), 1) == 0  # s = (4,3,1): drop 1, odd
    with pytest.raises(OutOfRangeError):
        epsilon_i(AbelianPGroup(2, (1, 1)), 3)


def test_min_gamma_examples():
    # cyclic groups: the interior blocks bottom out at p^e - p^(e-i)
    for p in (2, 3, 5):
        for e in (2, 3, 4):
            G = AbelianPGroup(p, (0,) * (e - 1) + (1,))
            for i in range(1, e):
                m = min_gamma_A(G, i)
                assert m.mu == 0
                assert m.min_value == HalfInt.of(p**e - p ** (e - i))

    m = min_gamma_A(AbelianPGroup(3, (1, 1)), 2)
    assert m.mu == m.min_value == HalfInt.of(2)

    m = min_gamma_A(AbelianPGroup(3, (0, 1)), 0)
    assert m.mu == 0 and m.attaining == (2, 2, 2)


def test_min_gamma_attaining_membership():
    for G in all_groups((2, 3), 3, 3, max_log_order=7):
        for i in range(G.e + 1):
            m = min_gamma_A(G, i)
            assert classify_gamma_seq(G, m.attaining) == i
            assert gamma(G.p, G.e, m.attaining) == m.min_value


def test_monotone_drop():
    # a bumped block never beats the one before it
    for G in all_groups((2, 3, 5), 3, 3, max_log_order=8):
        for i in range(1, G.e + 1):
            if epsilon_i(G, i) != 0:
                assert min_gamma_A(G, i).min_value >= min_gamma_A(G, i - 1).min_value


def test_index_set_examples():
    assert index_set(AbelianPGroup(3, (0, 1))) == (0, 2)
    assert index_set(AbelianPGroup(3, (1, 1))) == (0, 2)
    assert index_set(AbelianPGroup(3, (2, 2))) == (0, 1, 2)
    # index 0 is redundant exactly when s_1 is even
    assert index_set(AbelianPGroup(3, (0, 1))).zero_droppable
    assert index_set(AbelianPGroup(2, (3,))).zero_droppable
    assert not index_set(AbelianPGroup(3, (1, 1))).zero_droppable
    assert not index_set(AbelianPGroup(2, (2,))).zero_droppable


def test_orbit_genus_injectivity():
    # i -> floor(s_{i+1}/2) is strictly decreasing on the index set
    for G in all_groups((2, 3, 5), 3, 3):
        hs = [G.s[i] // 2 for i in index_set(G)]
        assert all(a > b for a, b in zip(hs, hs[1:]))


def test_mu0_examples():
    report = mu0(AbelianPGroup(2, (2,)))
    assert report.mu0 == HalfInt(-1)
    assert [d.encode() for d in report.attaining_data] == ["3;0"]
    assert report.minimum_genus == 0

    assert mu0(AbelianPGroup(3, (2,))).mu0 == 0

    report = mu0(AbelianPGroup(3, (2, 2)))
    assert report.mu0 == HalfInt.of(9)
    assert brute_min_reduced(AbelianPGroup(3, (2, 2)))[0] == HalfInt.of(9)


def test_mu0_against_brute_force():
    for G in all_groups((2, 3), 3, 8, max_log_order=8):
        report = mu0(G)
        best, witnesses = brute_min_reduced(G)
        assert report.mu0 == best, G
        assert report.zero_droppable == index_set(G).zero_droppable
        # every attaining datum is admissible, reproduces the minimum, and
        # the report lists exactly the brute-force witnesses
        for d in report.attaining_data:
            assert is_admissible(G, d)
            assert reduced_genus(G, d) == best
        assert sorted(d.encode() for d in report.attaining_data) == sorted(
            d.encode() for d in witnesses
        ), G


def test_attaining_data_large_invariants():
    # for large invariants the minimum is afforded exactly by bumping r_i at
    # the indices i past which all invariants equal p-1 (even e-i for p=2)
    from genus_spectrum import has_large_invariants

    for G in all_groups((2, 3), 3, 4):
        if not has_large_invariants(G):
            continue
        p, e = G.p, G.e
        j = e
        while j >= 1 and G.r[j - 1] == p - 1:
            j -= 1
        expected = set()
        for i in range(j, e + 1):
            if p == 2 and (e - i) % 2 == 1:
                continue
            x = list(G.r[:i]) + [0] * (e - i)
            if i >= 1:
                x[i - 1] += 1
            expected.add((tuple(x), (e - i) * (p - 1) // 2))
        got = {(d.x, d.h) for d in mu0(G).attaining_data}
        assert got == expected, G


def test_minimum_genus_value():
    G = AbelianPGroup(3, (2, 9, 1))
    report = mu0(G)
    assert report.mu0 == HalfInt.of(125)
    assert report.minimum_genus == 1 + 3**20 * 125


def test_maclachlan_examples():
    assert maclachlan_nu(AbelianPGroup(3, (1, 1)), 0) == HalfInt.of(2)
    assert maclachlan_nu(AbelianPGroup(2, (2,)), 0) == HalfInt(-1)
    assert maclachlan_nu(AbelianPGroup(2, (0, 2)), 1) == 0
    with pytest.raises(UnsupportedError):
        maclachlan_nu(AbelianPGroup(2, (0, 1)), 0)
    with pytest.raises(OutOfRangeError):
        maclachlan_nu(AbelianPGroup(2, (2,)), 2)


def test_maclachlan_identity():
    # nu at orbit genus floor(s_{i+1}/2) equals mu_i, over the index set
    for G in all_groups((2, 3, 5), 3, 3):
        if G.is_cyclic:
            continue
        rank = G.rank
        for i in index_set(G):
            h = G.s[i] // 2
            if h > rank // 2:
                assert i == 0 and G.s[0] % 2 == 0  # only the droppable index
                continue
            assert maclachlan_nu(G, h) == min_gamma_A(G, i).mu, (G, i)


def test_maclachlan_minimum():
    for G in all_groups((2, 3), 3, 3, max_log_order=6):
        if G.is_cyclic:
            continue
        nus = [maclachlan_nu(G, h) for h in range(G.rank // 2 + 1)]
        assert min(nus) == mu0(G).mu0, G
