import pytest
from hypothesis import given
from hypothesis import strategies as st

from genus_spectrum import (
    AbelianPGroup,
    HalfInt,
    InputError,
    PDatum,
    VerificationError,
    alpha,
    alpha_inv,
    classify_gamma_seq,
    e_prime,
    gamma,
    genus,
    invariants,
    is_admissible,
    parse_datum,
    reduced_genus,
)
from genus_spectrum.signature import genus_of, period_weights
from helpers import all_groups, data_within, nonincreasing_seqs, weights

Z2Z4 = AbelianPGroup(2, (1, 1))
Z8 = AbelianPGroup(2, (0, 0, 1))
Z2Z8 = AbelianPGroup(2, (1, 0, 1))


def membership_count(G, seq):
    """Independent restatement of the block conditions, counting matches."""
    s, ep = G.s, e_prime(G)
    count = 0
    for i in range(G.e + 1):
        ok = all(seq[j] >= s[j] for j in range(i))
        ok = ok and len(set(seq[i:])) == 1 and seq[i] >= s[i] - 1
        if i >= 1:
            ok = ok and seq[i - 1] - seq[i] >= 2
            if G.p == 2 and i > ep:
                ok = ok and (seq[i - 1] - seq[i]) % 2 == 0
        count += ok
    return count


def test_datum_basics():
    d = parse_datum("1,2;0")
    assert (d.x, d.h, d.f, d.f_prime) == ((1, 2), 0, 2, 2)
    assert parse_datum("0,0;3").f == 0
    assert parse_datum("0,1;2").f_prime == 0
    assert parse_datum("1,0,1;0").f_prime == 1
    assert d.encode() == "1,2;0"
    with pytest.raises(InputError):
        parse_datum("1,2")
    with pytest.raises(InputError):
        PDatum((1, 2), -1)
    with pytest.raises(InputError):
        PDatum((), 0)


def test_genus_examples():
    assert genus(Z8, parse_datum("0,0,2;0")) == 0
    assert genus(AbelianPGroup(2, (2,)), parse_datum("3;0")) == 0
    for G in (Z2Z4, Z8, AbelianPGroup(3, (2, 2))):
        assert genus(G, PDatum((0,) * G.e, 1)) == 1
    with pytest.raises(InputError):
        genus(Z8, parse_datum("1,2;0"))
    # right length, but the lift 1 + 1 * (-3/2) is not an integer
    with pytest.raises(InputError):
        genus(AbelianPGroup(2, (1,)), PDatum((1,), 0))


def test_genus_of_rejects_a_non_integral_lift():
    Z2 = AbelianPGroup(2, (1,))
    assert genus_of(Z2.p_delta, HalfInt(-2)) == 0
    with pytest.raises(VerificationError):
        genus_of(Z2.p_delta, HalfInt(-3))


def test_period_weights_match_the_reference():
    for p in (2, 3, 5):
        for e in range(1, 7):
            assert period_weights(p, e) == tuple(weights(p, e))


def test_reduced_genus_examples():
    assert reduced_genus(Z2Z4, parse_datum("1,2;0")) == 0
    assert reduced_genus(AbelianPGroup(3, (2,)), parse_datum("3;0")) == 0
    assert reduced_genus(AbelianPGroup(2, (0, 2)), parse_datum("0,3;0")) == HalfInt(1)


def test_alpha_examples():
    assert alpha(parse_datum("1,2;0")) == (3, 2, 0)
    assert alpha_inv((3, 2, 0)) == parse_datum("1,2;0")
    assert alpha(PDatum((0, 0), 3)) == (6, 6, 6)
    with pytest.raises(InputError):
        alpha_inv((2, 3, 0))
    with pytest.raises(InputError):
        alpha_inv((3, 2, 1))


def test_gamma_examples():
    assert gamma(3, 1, (3, 0)) == 0
    assert gamma(2, 2, (3, 2, 0)) == 0
    assert gamma(2, 4, (2, 2, 2, 2, 2)) == 0
    # constant sequences (2a,...,2a) evaluate to (a-1) p^e
    for a in range(4):
        assert gamma(3, 2, (2 * a,) * 3) == HalfInt.of((a - 1) * 9)
    with pytest.raises(InputError):
        gamma(2, 3, (3, 2, 0))


def test_admissibility_examples():
    assert is_admissible(Z2Z4, parse_datum("1,2;0"))
    assert not is_admissible(AbelianPGroup(2, (0, 1)), parse_datum("0,1;0"))
    assert not is_admissible(Z2Z8, parse_datum("1,0,1;0"))
    # period-free data need 2h to cover the rank
    assert is_admissible(Z2Z4, parse_datum("0,0;1"))
    assert not is_admissible(AbelianPGroup(2, (3,)), parse_datum("0;1"))
    assert is_admissible(AbelianPGroup(2, (3,)), parse_datum("0;2"))
    assert is_admissible(AbelianPGroup(2, (3,)), parse_datum("4;0"))
    assert not is_admissible(AbelianPGroup(2, (3,)), parse_datum("3;0"))


def test_classify_examples():
    assert classify_gamma_seq(AbelianPGroup(3, (1, 1)), (3, 2, 0)) == 2
    assert classify_gamma_seq(AbelianPGroup(3, (0, 1)), (2, 2, 2)) == 0
    assert classify_gamma_seq(Z2Z8, (3, 2, 2, 0)) == 3
    # odd drop above e' is rejected for p = 2
    assert classify_gamma_seq(Z2Z8, (3, 3, 3, 0)) is None
    assert classify_gamma_seq(Z2Z4, (1, 0, 0)) is None



@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 5), min_size=1, max_size=5))
def test_e_prime_is_the_f_prime_of_the_invariants(p, r):
    # e' of G and f' of the datum with periods r are the same index, and
    # both match the definition read off the tail sums directly
    G = AbelianPGroup(p, tuple(r[:-1]) + (max(r[-1], 1),))
    expected = max((d for d in range(1, G.e + 1) if sum(G.r[d - 1 :]) >= 2), default=0)
    assert e_prime(G) == PDatum(G.r, 0).f_prime == expected


data = st.builds(
    PDatum,
    st.lists(st.integers(0, 6), min_size=1, max_size=4).map(tuple),
    st.integers(0, 5),
)


@given(data)
def test_alpha_round_trip(d):
    seq = alpha(d)
    assert all(a >= b for a, b in zip(seq, seq[1:])) and seq[-1] % 2 == 0
    assert alpha_inv(seq) == d


@given(st.lists(st.integers(0, 9), min_size=2, max_size=5))
def test_alpha_inv_round_trip(raw):
    seq = tuple(sorted(raw, reverse=True))
    seq = seq[:-1] + (seq[-1] - seq[-1] % 2,)
    assert alpha(alpha_inv(seq)) == seq


@given(st.sampled_from([2, 3, 5]), data)
def test_gamma_matches_reduced_genus(p, d):
    G = AbelianPGroup(p, (0,) * (len(d.x) - 1) + (1,))
    assert gamma(p, G.e, alpha(d)) == reduced_genus(G, d)


def test_predicate_matches_blocks_exhaustively():
    for G in all_groups((2, 3), 3, 2):
        for seq in nonincreasing_seqs(G.e + 1, 6):
            if seq[-1] % 2 != 0:
                continue
            count = membership_count(G, seq)
            assert count <= 1, (G, seq)
            idx = classify_gamma_seq(G, seq)
            assert (idx is not None) == (count == 1), (G, seq)
            assert (idx is not None) == is_admissible(G, alpha_inv(seq)), (G, seq)


def test_blocks_match_predicate_on_data():
    for G in all_groups((2, 3), 2, 2):
        for h in range(4):
            for d in (PDatum(x, h) for x in nonincreasing_seqs(G.e, 6)):
                assert is_admissible(G, d) == (classify_gamma_seq(G, alpha(d)) is not None)


def test_kulkarni_containment():
    for G in all_groups((2, 3), 3, 2):
        eps = invariants(G).epsilon
        for d in data_within(G, 12):
            if not is_admissible(G, d):
                continue
            v = reduced_genus(G, d)
            assert v >= HalfInt(-2 // eps)
            if eps == 1:
                assert v.is_integral
