import pytest
from hypothesis import given
from hypothesis import strategies as st

from genus_spectrum import (
    AbelianPGroup,
    InputError,
    InvalidInvariantsError,
    InvalidPrimeError,
    OutOfRangeError,
    VerificationError,
    e_prime,
    invariants,
    is_prime,
    new_group,
    parse_group,
)
from genus_spectrum.group import kulkarni_n
from helpers import all_groups


def test_construction():
    G = new_group(2, (1, 1))
    assert (G.p, G.e, G.r) == (2, 2, (1, 1))
    assert G.describe() == "Z_2 + Z_4"
    assert new_group(3, (0, 2)).describe() == "Z_9^2"
    with pytest.raises(InvalidInvariantsError):
        new_group(2, (1, 0))
    with pytest.raises(InvalidInvariantsError):
        new_group(2, ())
    with pytest.raises(InvalidInvariantsError):
        new_group(2, (-1, 1))
    with pytest.raises(InvalidPrimeError):
        new_group(4, (1,))
    with pytest.raises(InvalidPrimeError):
        new_group(1, (1,))


def test_parse():
    assert parse_group("3:2,9,1").r == (2, 9, 1)
    assert parse_group("2:1,1") == AbelianPGroup(2, (1, 1))
    with pytest.raises(InvalidPrimeError):
        parse_group("4:1")
    with pytest.raises(InputError):
        parse_group("2")
    with pytest.raises(InputError):
        parse_group("2:1,x")


def test_invariants_examples():
    inv = invariants(new_group(2, (1, 1)))  # Z_2 + Z_4
    assert (inv.s, inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == ((3, 2, 1), 1, 1, 1, 2)

    inv = invariants(new_group(2, (0, 2)))  # Z_4^2
    assert (inv.s, inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == ((3, 3, 1), 2, 2, 2, 2)

    for p, e in ((2, 1), (3, 2), (5, 3)):
        inv = invariants(new_group(p, (0,) * (e - 1) + (1,)))
        assert inv.s == (2,) * e + (1,)
        assert (inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == (0, 0, 1, 1)


def test_kulkarni_n_checks_divisibility():
    assert kulkarni_n(8, 2) == 4 and kulkarni_n(9, 1) == 9
    with pytest.raises(VerificationError):
        kulkarni_n(9, 2)


def test_e_prime_examples():
    assert e_prime(new_group(2, (1, 0, 1))) == 1  # Z_2 + Z_8
    assert e_prime(new_group(2, (0, 0, 0, 1))) == 0  # Z_16
    assert e_prime(new_group(3, (0, 2))) == 2  # Z_9^2


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_invariant_relations():
    for G in all_groups((2, 3, 5), 3, 3):
        inv = invariants(G)
        # s determines r and vice versa
        assert tuple(inv.s[i] - inv.s[i + 1] for i in range(G.e)) == G.r
        assert inv.s[G.e] == 1 and inv.s[G.e - 1] >= 2
        assert inv.kulkarni_n * inv.epsilon == G.p**inv.delta
        assert (inv.delta == 0) == G.is_cyclic
        assert (inv.e_prime < G.e) == (G.r[-1] == 1)
        assert G.order == G.p**inv.log_order
        assert inv.log_order == inv.delta + G.e


@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(0, 5), min_size=1, max_size=4))
def test_encode_parse_round_trip(p, r):
    if r[-1] < 1:
        r = r[:-1] + [1]
    G = AbelianPGroup(p, tuple(r))
    assert parse_group(G.encode()) == G


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(-2, 20000) if is_prime(n)] == [
        n for n in range(-2, 20000) if trial(n)
    ]


def test_is_prime_rejects_pseudoprimes_and_decides_large_primes():
    # a Carmichael number, two strong pseudoprimes to small bases, and one to
    # every prime base up to 37, which only the base 41 exposes
    for n in (561, 2047, 3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert is_prime(399165290221) and is_prime(798330580441)
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_is_prime_refuses_beyond_its_exact_range():
    with pytest.raises(OutOfRangeError):
        is_prime(4 * 10**24)
