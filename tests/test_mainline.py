import itertools
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genus_spectrum import (
    INFINITY,
    InputError,
    envelope,
    gap_norm,
    hull,
    is_mainline,
    mainline,
    mainline_profile,
    wp_eval,
)
from helpers import naive_mainline_members, nonincreasing_seqs, profile_holes_by_walk, refused

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


@pytest.mark.parametrize(
    "call",
    [
        lambda: mainline_profile(2, [2.7, 1]),
        lambda: wp_eval(2, (1.0,)),
        lambda: hull(("3",)),
    ],
)
def test_non_integer_entries_are_refused(call):
    # int() would truncate 2.7 to 2 and parse "3"; the entries must be ints
    with pytest.raises(InputError, match="expected an integer"):
        call()


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


def test_envelope_of_a_hull_is_one_majorant_fold():
    # for p >= 2 the envelope of the hull is the least majorant with gaps
    # >= p - 1, which scan_bound, is_mainline and mainline_profile take as one fold
    for p in (2, 3, 5, 7):
        for n in range(1, 5):
            for a in itertools.product(range(6), repeat=n):
                assert envelope(p, hull(a)) == mainline._majorant(a, p - 1), (p, a)

def test_gap_norm():
    assert gap_norm((5, 2)) == 3
    assert gap_norm((4,)) is INFINITY
    assert gap_norm((3, 3, 2)) == 0
    assert INFINITY > 10**100
    assert not INFINITY < 0
    assert INFINITY >= INFINITY and INFINITY <= INFINITY
    assert not INFINITY <= 5 and 5 <= INFINITY
    assert repr(INFINITY) == "INFINITY"
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

    monkeypatch.setattr(mainline, "_reach", enumerate_nothing)
    with refused(
        "the mainline profile of (1000, 0) at p = 1000003 spans 999004997006 values, "
        "over the limit of 1000000"
    ):
        mainline_profile(1000003, (1000, 0))
    # 3 * 10^8 bits from mu = 0 on, more than 10^6 bytes: refused before any bitset
    with refused(
        f"the membership test of 300000000 for {(0,) * 24} at p = 2 needs 37500001 bitset "
        "bytes, over the limit of 1000000"
    ):
        is_mainline(2, (0,) * 24, 3 * 10**8)


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
    # integers past wp(envelope) need no bitset, and those below it none past it
    t = (4, 2, 1)
    cap = wp_eval(3, envelope(3, t)) + 3**2 - 1
    engine = mainline._reach

    def capped(coeffs, floors, lo, bound, starts):
        assert bound <= cap, bound
        return engine(coeffs, floors, lo, bound, starts)

    monkeypatch.setattr(mainline, "_reach", capped)
    assert is_mainline(3, t, 10**12)
    assert is_mainline(3, t, 10**30 + 1)
    assert not is_mainline(3, t, 54)  # the last gap, see mainline_profile


def test_membership_far_above_the_minimum_reads_the_residues():
    # mu = 0 and wp(envelope) = 18 874 370: both integers lie more than
    # SIEVE_LIMIT above mu and below the envelope, and their bitsets hold
    # fewer than SIEVE_LIMIT bytes
    assert is_mainline(2, (0,) * 20, 2**20 - 1)
    assert not is_mainline(2, (0,) * 20, 5 * 10**6)


def test_coefficients_are_the_values_of_leading_ones(monkeypatch):
    # the engine's coefficients, built by one addition each, are q_j = wp(1^j 0^(e-j))
    seen = []
    engine = mainline._reach

    def recording(coeffs, floors, lo, bound, starts):
        seen.append(list(coeffs))
        return engine(coeffs, floors, lo, bound, starts)

    monkeypatch.setattr(mainline, "_reach", recording)
    for p in (2, 3, 5):
        for e in range(1, 9):
            seen.clear()
            mainline._mainline_reach(p, (0,) * e, 0, 0)
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


@given(primes, noninc)
@settings(deadline=None)
def test_every_integer_from_the_envelope_on_is_reached(p, a):
    # is_mainline answers m >= U = wp(envelope) without a bitset.  Members are
    # closed under adding q_1 = p^(e-1), so one full window [U, U + q_1) of
    # members proves the claim; both the engine and the enumerator must reach it
    mu, upper, q1 = wp_eval(p, a), wp_eval(p, envelope(p, a)), p ** (len(a) - 1)
    window = range(upper, upper + q1)
    bits = mainline._mainline_reach(p, a, mu, window[-1])
    assert bits >> upper - mu == (1 << q1) - 1
    assert set(window) <= naive_mainline_members(p, a, window[-1])


def test_membership_past_the_envelope_needs_no_bitset(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("built a bitset past the envelope")

    monkeypatch.setattr(mainline, "_reach", enumerate_nothing)
    # U = 369 098 754; a bitset up to 10^30 would be refused by the preflight
    assert is_mainline(2, (0,) * 24, 10**30)
    assert is_mainline(2, (0,) * 24, wp_eval(2, envelope(2, (0,) * 24)))


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


def test_profiles_match_the_walk():
    # the bitset engine against the level walk of partial values it replaced
    for p in (2, 3, 5):
        for length in (1, 2, 3, 4):
            for a in nonincreasing_seqs(length, 6):
                assert mainline_profile(p, a).gaps == profile_holes_by_walk(p, a), (p, a)


def _capped_memory():
    # the walk of partial values that the bitset engine replaced held about
    # 1.1 GB on (10^7, 0) and failed under this cap
    resource.setrlimit(resource.RLIMIT_AS, (5 * 10**8, 5 * 10**8))


def test_profile_of_a_huge_hull_stays_small():
    # (10^7, 0) is its own envelope, so no integer lies between mu and
    # wp(envelope), and the bitset is empty
    code = "from genus_spectrum import mainline_profile; print(mainline_profile(2, (10**7, 0)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=_capped_memory,
    )
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "MainlineProfile(mu=20000000, sigma=20000000, gaps=())\n"


def test_profile_far_below_its_first_floor_skips_the_empty_tails():
    # hull (10^15, 0, 0) at p = 3: the one loop head sits 10^15 tail sums
    # below the cap and its carry empties after a few steps; a sweep that
    # walked on to the cap would not finish
    code = "from genus_spectrum import mainline_profile as f; print(f(3, (10**15, 0, 0)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-300:]
    mu = 9 * 10**15
    assert proc.stdout == f"MainlineProfile(mu={mu}, sigma={mu + 6}, gaps={(mu + 1, mu + 2, mu + 5)})\n"


def test_deep_drops_in_wide_windows_are_one_closure():
    # the top loop head sits 10^6 tail sums below its next floor, in a window
    # of 990 000 bits (the profile), or 10^7 below it in a window of 8·10^6
    # bits (the query).  Those steps share the floor's key and are one bounded
    # closure; taken one at a time, each ORs a bitset of up to the window
    code = (
        "from genus_spectrum import is_mainline, mainline_profile, wp_eval\n"
        "print(mainline_profile(100, (10**6, 10**6, 0)))\n"
        "t = (10**7,) * 18 + (0,)\n"
        "print(is_mainline(2, t, wp_eval(2, t) + 8 * 10**6 - 1))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-300:]
    assert proc.stdout == "MainlineProfile(mu=10100000000, sigma=10100000000, gaps=())\nTrue\n"
