import pytest
from hypothesis import given
from hypothesis import strategies as st

from genus_spectrum import (
    AbelianPGroup,
    GenusSpectrumError,
    InputError,
    InvalidInvariantsError,
    InvalidPrimeError,
    OutOfRangeError,
    VerificationError,
    e_prime,
    invariants,
    is_prime,
    parse_group,
    varying_exponent_pair,
)
from genus_spectrum.group import _MR_LIMIT, POWER_BITS_LIMIT, kulkarni_n
from helpers import all_groups, refused


def test_construction():
    G = AbelianPGroup(2, (1, 1))
    assert (G.p, G.e, G.r) == (2, 2, (1, 1))
    assert G.describe() == "Z_2 + Z_4"
    assert AbelianPGroup(3, (0, 2)).describe() == "Z_9^2"
    with pytest.raises(InvalidInvariantsError):
        AbelianPGroup(2, (1, 0))
    with pytest.raises(InvalidInvariantsError):
        AbelianPGroup(2, ())
    with pytest.raises(InvalidInvariantsError):
        AbelianPGroup(2, (-1, 1))
    with pytest.raises(InvalidPrimeError):
        AbelianPGroup(4, (1,))
    with pytest.raises(InvalidPrimeError):
        AbelianPGroup(1, (1,))


@pytest.mark.parametrize("p, r", [(2, (1.9,)), (2.0, (1, 1)), (2, ("1",)), ("2", (1,))])
def test_non_integer_invariants_are_refused(p, r):
    # int() would truncate 1.9 to 1 and parse "1"; p and r must be ints
    with pytest.raises(InputError, match="expected an integer"):
        AbelianPGroup(p, r)


class _Int(int):
    pass


_NO_TOP = "r_e = 0 in (1, 0): group would not have exponent p^2"
_UNDECIDED = f"primality of {_MR_LIMIT} is only decided below {_MR_LIMIT}"

# each input the build refuses, with the exception class and the text it
# raises: p is checked before r, and an entry's type before its sign
BUILD_REFUSALS = [
    ((True, (1,)), InvalidPrimeError, "1 is not prime"),
    ((False, (1,)), InvalidPrimeError, "0 is not prime"),
    ((2.0, (1, 1)), InputError, "expected an integer, got 2.0"),
    (("2", (1,)), InputError, "expected an integer, got '2'"),
    ((2, (1.9,)), InputError, "expected an integer, got 1.9"),
    ((2, (1.0,)), InputError, "expected an integer, got 1.0"),
    ((2, ("1",)), InputError, "expected an integer, got '1'"),
    ((2, (1, "x")), InputError, "expected an integer, got 'x'"),
    ((2, (-1, 1)), InvalidInvariantsError, "invariant list must have entries >= 0, got (-1, 1)"),
    ((2, (0, -1)), InvalidInvariantsError, "invariant list must have entries >= 0, got (0, -1)"),
    ((2, ()), InvalidInvariantsError, "invariant list must be non-empty"),
    ((2, []), InvalidInvariantsError, "invariant list must be non-empty"),
    ((2, (1, 0)), InvalidInvariantsError, _NO_TOP),
    ((2, [1, False]), InvalidInvariantsError, _NO_TOP),
    ((4, (1,)), InvalidPrimeError, "4 is not prime"),
    ((4, ("x",)), InvalidPrimeError, "4 is not prime"),
    ((_Int(9), (1,)), InvalidPrimeError, "9 is not prime"),
    ((_MR_LIMIT, (1,)), OutOfRangeError, _UNDECIDED),
    ((_MR_LIMIT, ("x",)), OutOfRangeError, _UNDECIDED),
]

# inputs the build accepts, with the exact p and r it keeps
BUILDS = [
    ((3, (0, 1)), (3, (0, 1))),
    ((_Int(3), (1, 2)), (3, (1, 2))),
    ((3, (_Int(1), _Int(2))), (3, (1, 2))),
    ((_Int(2), [_Int(0), _Int(1)]), (2, (0, 1))),
    ((3, [1, 2]), (3, (1, 2))),
    ((2, (True,)), (2, (1,))),
    ((2, (1, True)), (2, (1, 1))),
    ((5, range(1, 3)), (5, (1, 2))),
]


@pytest.mark.parametrize("args, error, text", BUILD_REFUSALS)
def test_build_refusals_keep_their_class_and_text(args, error, text):
    with pytest.raises(GenusSpectrumError) as info:
        AbelianPGroup(*args)
    assert (type(info.value), str(info.value)) == (error, text)


@pytest.mark.parametrize("args, kept", BUILDS)
def test_builds_keep_exact_ints(args, kept):
    g = AbelianPGroup(*args)
    assert type(g.p) is int and type(g.r) is tuple and all(type(x) is int for x in g.r)
    assert (g.p, g.r) == kept and g == AbelianPGroup(*kept)
    # an exact prime and a tuple of exact ints are kept as given
    r = kept[1]
    assert AbelianPGroup(kept[0], r).r is r


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
    inv = invariants(AbelianPGroup(2, (1, 1)))  # Z_2 + Z_4
    assert (inv.s, inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == ((3, 2, 1), 1, 1, 1, 2)

    inv = invariants(AbelianPGroup(2, (0, 2)))  # Z_4^2
    assert (inv.s, inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == ((3, 3, 1), 2, 2, 2, 2)

    for p, e in ((2, 1), (3, 2), (5, 3)):
        inv = invariants(AbelianPGroup(p, (0,) * (e - 1) + (1,)))
        assert inv.s == (2,) * e + (1,)
        assert (inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n) == (0, 0, 1, 1)


def test_kulkarni_n_checks_divisibility():
    assert kulkarni_n(8, 2) == 4 and kulkarni_n(9, 1) == 9
    with pytest.raises(VerificationError):
        kulkarni_n(9, 2)


def test_e_prime_examples():
    assert e_prime(AbelianPGroup(2, (1, 0, 1))) == 1  # Z_2 + Z_8
    assert e_prime(AbelianPGroup(2, (0, 0, 0, 1))) == 0  # Z_16
    assert e_prime(AbelianPGroup(3, (0, 2))) == 2  # Z_9^2


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
    below = "is only decided below 3317044064679887385961981"
    with refused(f"primality of 4000000000000000000000000 {below}"):
        is_prime(4 * 10**24)
    # the last n below the limit is decided, the limit itself is refused
    assert _MR_LIMIT == 3_317_044_064_679_887_385_961_981
    assert is_prime(_MR_LIMIT - 1) is False
    with refused(f"primality of 3317044064679887385961981 {below}"):
        is_prime(_MR_LIMIT)


def test_power_bits_boundary_is_the_estimates():
    # p^k may pass the limit, and is refused, exactly when k * bitlen(p^64 - 1)
    # > 64 * (POWER_BITS_LIMIT - 1); neither side computes p^k
    from genus_spectrum.group import _power_exponent

    for p in (2, 3, 5, 7, 1000003):
        last = 64 * (POWER_BITS_LIMIT - 1) // (p**64 - 1).bit_length()
        assert _power_exponent(p, last, "p^e") == last
        with refused(f"p^e = {p}^{last + 1} may pass the limit of 4000000 bits"):
            _power_exponent(p, last + 1, "p^e")


def test_huge_powers_are_refused_before_they_are_computed():
    # past POWER_BITS_LIMIT = 4 * 10^6 bits p^delta and |G| raise at once
    # instead of hanging
    G = AbelianPGroup(2, (10**12,))
    with refused("p^delta = 2^999999999999 of 2:1000000000000 may pass the limit of 4000000 bits"):
        G.p_delta
    with refused("|G| = 2^1000000000000 of 2:1000000000000 may pass the limit of 4000000 bits"):
        G.order
    edge = AbelianPGroup(2, (4 * 10**6,))
    assert edge.p_delta.bit_length() == 4 * 10**6
    with refused("|G| = 2^4000000 of 2:4000000 may pass the limit of 4000000 bits"):
        edge.order
    # the estimate is within 1 % above the bit length at p = 3
    assert AbelianPGroup(3, (2_480_001,)).p_delta.bit_length() > 3.9 * 10**6
    # the p = 17 series group of criterion 05 stays well inside the limit
    for big in varying_exponent_pair(17):
        assert big.delta == 101535 and big.p_delta.bit_length() < 5 * 10**5
