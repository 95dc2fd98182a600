import dataclasses
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_spectrum import (
    AbelianPGroup,
    HalfInt,
    IndexMinimum,
    IndexSet,
    MinGenusReport,
    OutOfRangeError,
    PDatum,
    UnsupportedError,
    VerificationError,
    attaining_datum,
    classify_gamma_seq,
    epsilon_i,
    gamma,
    index_set,
    is_admissible,
    maclachlan_nu,
    min_gamma_A,
    mingenus,
    mu0,
    reduced_genus,
)
from helpers import all_groups, back_indices, brute_min_reduced, mu0_by_route

groups = st.builds(
    lambda p, r, top: AbelianPGroup(p, (*r, top)),
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.lists(st.integers(0, 6), max_size=5),
    st.integers(1, 6),
)


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


def test_attaining_datum_refuses_an_index_outside_0_to_e():
    # the block indices are 0, ..., e, as for epsilon_i
    G = AbelianPGroup(2, (1, 1, 1))
    assert attaining_datum(G, 0).x == (0, 0, 0) and attaining_datum(G, 3).x == (1, 1, 2)
    for i in (-1, G.e + 1):
        with pytest.raises(OutOfRangeError, match=rf"index {i} outside \[0, 3\]"):
            attaining_datum(G, i)


def test_epsilon_is_the_least_bump_that_works():
    # the definition: the first of 0, 1, 2 making the drop onto 2 floor(s_{i+1}/2)
    # at least 2, and 0 at i = 0, which has no drop
    for G in all_groups((2, 3, 5), 4, 3):
        s = G.s
        for i in range(G.e + 1):
            bumps = (b for b in (0, 1, 2) if s[i - 1] + b - 2 * (s[i] // 2) >= 2)
            assert epsilon_i(G, i) == (next(bumps) if i else 0), (G, i)


def test_back_indices_match_the_backward_scan():
    for G in all_groups((2, 3), 6, 3):
        for i in range(1, G.e + 1):
            assert mingenus._back_indices(G.s, i) == back_indices(G, i), (G, i)


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
    with pytest.raises(OutOfRangeError):
        min_gamma_A(AbelianPGroup(3, (0, 1)), 3)


@given(groups)
@settings(max_examples=300, deadline=None)
def test_mu0_matches_the_route_per_block(G):
    # one pass over the blocks against wp_eval, hull and gamma on each block
    report = mu0(G)
    assert report == mu0_by_route(G)
    assert report.zero_droppable == (G.s[0] % 2 == 0)


def test_a_wrong_correction_raises(monkeypatch):
    # s = (3, 2, 1): block 1 needs a bump of 1, whose correction reads (i'', i')
    monkeypatch.setattr(mingenus, "_back_indices", lambda s, i: (i, i))
    with pytest.raises(VerificationError, match="block 1 of 3:1,1"):
        mu0(AbelianPGroup(3, (1, 1)))


def test_a_wrong_correction_raises_under_optimization():
    # python -O strips assert statements; the per-block check must not be one
    code = (
        "from genus_spectrum import AbelianPGroup, VerificationError, mingenus, mu0\n"
        "mingenus._back_indices = lambda s, i: (i, i)\n"
        "try:\n"
        "    mu0(AbelianPGroup(3, (1, 1)))\n"
        "except VerificationError:\n"
        "    print('raised')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.stdout == "raised\n", proc.stderr


def test_mu0_checks_that_index_0_can_be_dropped(monkeypatch):
    # s_1 = 2 is even, so index 0 is droppable; a block 0 below the others
    # would make dropping it change the minimum
    blocks = mingenus._blocks

    def lowered(G):
        out = blocks(G)
        eps, _, value, attaining = out[0]
        out[0] = (eps, min(mu for _, mu, _, _ in out) - 2, value, attaining)
        return out

    monkeypatch.setattr(mingenus, "_blocks", lowered)
    with pytest.raises(VerificationError, match="dropping index 0 changes the reduced minimum of 2:1"):
        mu0(AbelianPGroup(2, (1,)))


def test_report_objects_behave_like_public_builds():
    # every object of a report, built from the block pass's plain ints, must
    # be indistinguishable from the public build of its fields
    def same(built, public):
        assert built == public and repr(built) == repr(public) and vars(built) == vars(public)
        assert pickle.loads(pickle.dumps(built)) == built
        assert dataclasses.replace(built) == built == dataclasses.replace(public)
        if not isinstance(built, MinGenusReport):  # a report holds a dict
            assert hash(built) == hash(public)

    for G in all_groups((2, 3, 5), 3, 3):
        report = mu0(G)
        for i, m in report.per_index.items():
            mu, value = HalfInt(m.mu.twice), HalfInt(m.min_value.twice)
            public = IndexMinimum(i, m.epsilon, mu, value, m.attaining)
            same(m.mu, public.mu)
            same(m.min_value, public.min_value)
            same(m, public)
            same(min_gamma_A(G, i), public)
            d = attaining_datum(G, i)
            assert type(d.x) is tuple and str(d) == d.encode()
            same(d, PDatum(list(d.x), d.h))
        data = tuple(PDatum(list(d.x), d.h) for d in report.attaining_data)
        for d, public in zip(report.attaining_data, data):
            same(d, public)
        public = MinGenusReport(
            HalfInt(report.mu0.twice),
            report.minimum_genus,
            IndexSet(report.index_set, report.zero_droppable),
            dict(report.per_index),
            data,
        )
        same(report, public)
        assert pickle.loads(pickle.dumps(report)).zero_droppable == report.zero_droppable


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
