import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_spectrum import (
    INFINITY,
    InputError,
    OutOfRangeError,
    envelope,
    gap_norm,
    hull,
    is_mainline,
    mainline,
    mainline_profile,
    wp_eval,
)
from helpers import naive_mainline_members

seqs = st.lists(st.integers(0, 8), min_size=1, max_size=4).map(tuple)
noninc = seqs.map(hull)
primes = st.sampled_from([2, 3, 5])


def test_wp_eval():
    assert wp_eval(3, (2, 1)) == 7
    assert wp_eval(2, (0, 0, 0)) == 0
    assert wp_eval(2, (6, 4, 2)) == 34 == (3 - 1) * 2**4 + 2
    assert wp_eval(1, (3, 1, 4)) == 8
    with pytest.raises(InputError):
        wp_eval(2, ())
    with pytest.raises(InputError):
        wp_eval(0, (1,))
    with pytest.raises(InputError):
        wp_eval(2, (1, -1))


def test_hull():
    assert hull((1, 3, 2)) == (3, 3, 2)
    assert hull((5, 2, 2)) == (5, 2, 2)
    assert hull((0, 7)) == (7, 7)


def test_envelope():
    assert envelope(3, (2, 2)) == (4, 2)
    assert envelope(3, (5, 2)) == (5, 2)
    assert envelope(1, (3, 3, 1)) == (3, 3, 1)
    with pytest.raises(InputError):
        envelope(3, (1, 2))


def test_gap_norm():
    assert gap_norm((5, 2)) == 3
    assert gap_norm((4,)) is INFINITY
    assert gap_norm((3, 3, 2)) == 0
    assert INFINITY > 10**100
    assert not INFINITY < 0
    with pytest.raises(InputError):
        gap_norm((2, 5))


def test_is_mainline_examples():
    # 7 is not reachable from (2,2) at p=2: checked against the enumerator below
    assert naive_mainline_members(2, (2, 2), 7) == {6}
    assert not is_mainline(2, (2, 2), 7)
    assert is_mainline(2, (2, 2), 6)
    # gap norm 2 >= p-1 at p=3, so everything from wp on is reachable
    for k in range(40):
        assert is_mainline(3, (4, 2), 14 + k)
    assert not is_mainline(3, (4, 2), 13)
    assert not is_mainline(2, (2, 2), -1)
    assert is_mainline(2, (0,) * 1200, 0) is True  # 1 200 loop levels, no recursion
    with pytest.raises(InputError):
        is_mainline(1, (2, 2), 5)


def test_profile_examples():
    assert naive_mainline_members(2, (2, 2), 10) == {6, 8, 9, 10}
    p = mainline_profile(2, (2, 2))
    assert (p.mu, p.sigma, p.gaps) == (6, 8, (7,))
    p = mainline_profile(3, (4, 2))
    assert (p.mu, p.sigma, p.gaps) == (14, 14, ())
    assert mainline_profile(2, (1, 3, 2)) == mainline_profile(2, (3, 3, 2))


def test_profile_refuses_an_oversized_sieve(monkeypatch):
    # wp(envelope) - mu is about 10^12 integers; nothing is enumerated
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the preflight")

    monkeypatch.setattr(mainline, "_progressions", enumerate_nothing)
    with pytest.raises(OutOfRangeError, match="over the limit of 1000000"):
        mainline_profile(1000003, (1000, 0))


@given(seqs)
def test_hull_fixed_point(a):
    t = hull(a)
    assert hull(t) == t
    assert all(x >= y for x, y in zip(t, t[1:]))
    assert all(x <= y for x, y in zip(a, t))


@given(primes, noninc)
def test_envelope_fixed_point(p, a):
    env = envelope(p, a)
    assert envelope(p, env) == env
    assert all(x <= y for x, y in zip(a, env))
    assert gap_norm(env) is INFINITY or gap_norm(env) >= p - 1
    # the envelope is a fixed point exactly on sequences of gap norm >= p-1
    assert (env == a) == (gap_norm(a) is INFINITY or gap_norm(a) >= p - 1)


@given(primes, seqs, st.data())
@settings(max_examples=300, deadline=None)
def test_membership_matches_enumerator(p, a, data):
    # every integer past the envelope's value is a member, so this limit
    # leaves p^e known members above the last gap
    limit = wp_eval(p, envelope(p, hull(a))) + p ** len(a)
    m = data.draw(st.integers(0, 60) | st.integers(0, limit))
    assert is_mainline(p, a, m) == (m in naive_mainline_members(p, a, m))


def test_membership_of_a_huge_integer_enumerates_only_to_the_envelope(monkeypatch):
    # each residue mod p^(e-1) has its least member below wp(envelope) + p^(e-1)
    t = (4, 2, 1)
    cap = wp_eval(3, envelope(3, t)) + 3**2 - 1
    engine = mainline._mainline_progressions

    def capped(p, t, bound):
        assert bound <= cap, bound
        return engine(p, t, bound)

    monkeypatch.setattr(mainline, "_mainline_progressions", capped)
    assert is_mainline(3, t, 10**12)
    assert is_mainline(3, t, 10**30 + 1)
    assert not is_mainline(3, t, 54)  # the last gap, see mainline_profile


def test_membership_far_above_the_minimum_reads_the_residues():
    # mu = 0 and wp(envelope) = 18 874 370: both integers lie more than
    # SIEVE_LIMIT above mu and below the envelope, where no sieve is built
    assert is_mainline(2, (0,) * 20, 2**20 - 1)
    assert not is_mainline(2, (0,) * 20, 5 * 10**6)


def test_coefficients_are_the_values_of_leading_ones(monkeypatch):
    # the engine's coefficients, built by one addition each, are q_j = wp(1^j 0^(e-j))
    seen = []
    engine = mainline._progressions

    def recording(coeffs, floors, bound, starts):
        seen.append(list(coeffs))
        return engine(coeffs, floors, bound, starts)

    monkeypatch.setattr(mainline, "_progressions", recording)
    for p in (2, 3, 5):
        for e in range(1, 9):
            seen.clear()
            is_mainline(p, (0,) * e, 0)
            assert seen == [[wp_eval(p, [1] * j + [0] * (e - j)) for j in range(1, e + 1)]]


@given(primes, seqs, st.integers(0, 60))
def test_hull_invariance_of_membership(p, a, m):
    assert is_mainline(p, a, m) == is_mainline(p, hull(a), m)


@given(primes, st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_enforced_gap_profile(p, increments):
    # build a sequence with consecutive differences >= p-1 from the right
    a = []
    level = increments[-1]
    for inc in reversed(increments):
        a.append(level)
        level += (p - 1) + inc
    a = tuple(reversed(a))
    profile = mainline_profile(p, a)
    w = wp_eval(p, a)
    assert (profile.mu, profile.sigma, profile.gaps) == (w, w, ())


@given(primes, noninc, st.integers(0, 8))
def test_cofinite_beyond_envelope(p, a, extra):
    assert is_mainline(p, a, wp_eval(p, envelope(p, a)) + extra)


@given(primes, st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple))
@settings(max_examples=150, deadline=None)
def test_profile_matches_enumerator(p, a):
    limit = wp_eval(p, envelope(p, hull(a))) + p ** len(a)
    members = naive_mainline_members(p, a, limit)
    mu = min(members)
    gaps = tuple(m for m in range(mu + 1, limit + 1) if m not in members)
    profile = mainline_profile(p, a)
    assert (profile.mu, profile.sigma, profile.gaps) == (mu, gaps[-1] + 1 if gaps else mu, gaps)


@given(primes, seqs)
@settings(max_examples=200, deadline=None)
def test_profile_consistency(p, a):
    profile = mainline_profile(p, a)
    assert profile.mu == wp_eval(p, hull(a))
    assert profile.mu <= profile.sigma <= wp_eval(p, envelope(p, hull(a)))
    assert all(profile.mu < g < profile.sigma for g in profile.gaps)
    if profile.sigma > profile.mu:
        assert not is_mainline(p, a, profile.sigma - 1)
    for g in profile.gaps:
        assert not is_mainline(p, a, g)
    assert is_mainline(p, a, profile.sigma)
