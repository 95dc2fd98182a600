import copy
import dataclasses
import pickle

import pytest

from genus_spectrum import (
    AbelianPGroup,
    HalfInt,
    InputError,
    OutOfRangeError,
    SmallClass,
    SpectrumDescriptor,
    UnsupportedError,
    VerificationError,
    classify_small,
    closed_form_spectrum,
    full_spectrum,
    genus_view,
    group_for_spectrum,
    has_large_invariants,
    invariants,
    mu0,
    mu0_plus,
    oracle_reduced_spectrum,
    parse_group,
    spectrum_bound_formula,
)
from genus_spectrum import mainline as mainline_module
from genus_spectrum import spectrum as spectrum_module
from helpers import admissible_values, all_groups, block_route_values, marks_by_sets


def hi(v):  # doubled-value literal
    return HalfInt(v)


def test_has_large_invariants():
    assert has_large_invariants(parse_group("3:2,9,1"))
    assert has_large_invariants(parse_group("2:1,1,1,18"))
    assert not has_large_invariants(parse_group("5:3,4"))
    assert not has_large_invariants(parse_group("3:1,1"))
    assert has_large_invariants(parse_group("2:1,1"))


def test_closed_form_examples():
    assert closed_form_spectrum(parse_group("3:2,9,1")).min_reduced == 125
    d = closed_form_spectrum(parse_group("2:1,6,2"))
    assert d.min_reduced == d.stable_reduced == hi(45)
    assert d.epsilon == 2 and d.gaps_reduced == () and d.verified_bound is None

    d = closed_form_spectrum(parse_group("2:1,1"))
    assert d.min_reduced == 0 and d.epsilon == 1
    assert genus_view(parse_group("2:1,1"), d).render() == "1+2ℕ_0"

    with pytest.raises(UnsupportedError):
        closed_form_spectrum(parse_group("3:1,1"))


def test_oracle_examples():
    assert oracle_reduced_spectrum(parse_group("3:0,1"), 6) == tuple(
        map(HalfInt.of, (-1, 0, 2, 3, 5, 6))
    )
    # 8 is afforded by the datum (2,0,0,0;1), so it belongs to the spectrum
    assert oracle_reduced_spectrum(parse_group("2:0,0,0,1"), 9) == tuple(
        map(HalfInt.of, (-1, 0, 3, 5, 6, 7, 8, 9))
    )
    assert oracle_reduced_spectrum(parse_group("2:0,2"), 2) == (
        hi(0),
        hi(1),
        hi(3),
        hi(4),
    )
    with pytest.raises(OutOfRangeError):
        oracle_reduced_spectrum(parse_group("2:0,2"), HalfInt.of(-2))


def test_oracle_against_dumb_enumerations():
    # the bounds below 1 leave the period-free progression empty or at one value
    for bound in (HalfInt.of(-1), HalfInt(-1), HalfInt.of(0), HalfInt.of(10)):
        for G in all_groups((2, 3, 5), 3, 2):
            got = oracle_reduced_spectrum(G, bound)
            assert got == admissible_values(G, bound), (G, bound)
            assert got == block_route_values(G, bound), (G, bound)


def test_oracle_huge_exponent_small_bound():
    # p^e = 1000003^2: the scan must not touch the range [-2 p^e, 2 bound]
    assert oracle_reduced_spectrum(parse_group("1000003:0,1"), 5) == (HalfInt.of(-1), hi(0))
    # 1 200 loop levels: the enumeration must not recurse once per level
    G = AbelianPGroup(2, (0,) * 1199 + (1,))
    assert oracle_reduced_spectrum(G, 0) == (HalfInt.of(-1), hi(0))


def test_oracle_far_beyond_the_scan_bound():
    # the enumeration's work grows linearly with the bound
    G = parse_group("3:0,1")
    want = tuple(HalfInt.of(v) for v in range(-1, 20001) if v not in (1, 4))
    assert oracle_reduced_spectrum(G, 20000) == want
    G = parse_group("2:0,0,0,0,0,0,0,1")
    assert oracle_reduced_spectrum(G, 3000) == full_spectrum(G).reduced_values_up_to(3000)
    # 17 268 gaps: the descriptor's membership must not scan them per value
    G = parse_group("13:0,0,1")
    d = full_spectrum(G)
    assert oracle_reduced_spectrum(G, d.verified_bound) == d.reduced_values_up_to(d.verified_bound)


# 0, 1, 3, 4 and on: epsilon = 1, minimum 0, stable 3, gap 2
GOOD_DESCRIPTOR = dict(
    epsilon=1,
    min_reduced=HalfInt.of(0),
    stable_reduced=HalfInt.of(3),
    gaps_reduced=(HalfInt.of(2),),
    verified_bound=None,
)
INVALID_CHANGES = (
    dict(epsilon=3),
    dict(min_reduced=hi(1)),  # 1/2 is off the integer lattice
    dict(min_reduced=HalfInt.of(-2)),  # below the lattice minimum -1
    dict(epsilon=2, min_reduced=hi(-3)),  # below the lattice minimum -1/2
    dict(stable_reduced=hi(7)),
    dict(gaps_reduced=(HalfInt.of(2), hi(3))),
    dict(gaps_reduced=(HalfInt.of(0),)),  # at the minimum
    dict(gaps_reduced=(HalfInt.of(3),)),  # at the stable value
    dict(gaps_reduced=(HalfInt.of(-1),)),  # below the minimum
    dict(gaps_reduced=(HalfInt.of(4),)),  # above the stable value
)


def test_descriptor_constructor_checks():
    good = GOOD_DESCRIPTOR
    d = SpectrumDescriptor(**good)
    assert d.reduced_values_up_to(5) == tuple(map(HalfInt.of, (0, 1, 3, 4, 5)))
    for change in INVALID_CHANGES:
        with pytest.raises(InputError):
            SpectrumDescriptor(**{**good, **change})

    # membership follows a replaced gap list, not one cached from the original
    assert not d.contains_reduced(2)
    moved = dataclasses.replace(d, gaps_reduced=(HalfInt.of(1),))
    assert moved.contains_reduced(2) and not moved.contains_reduced(1)
    assert moved.reduced_values_up_to(5) == tuple(map(HalfInt.of, (0, 2, 3, 4, 5)))


def _from_twice(fields):
    # the scan's constructor, given the public constructor's arguments
    return SpectrumDescriptor._from_twice(
        fields["epsilon"],
        fields["min_reduced"].twice,
        fields["stable_reduced"].twice,
        tuple(g.twice for g in fields["gaps_reduced"]),
        fields["verified_bound"],
    )


def test_descriptor_from_doubled_ints_runs_every_check():
    assert _from_twice(GOOD_DESCRIPTOR) == SpectrumDescriptor(**GOOD_DESCRIPTOR)
    for change in INVALID_CHANGES:
        with pytest.raises(InputError):
            _from_twice({**GOOD_DESCRIPTOR, **change})


def test_scan_keeps_its_gaps_as_doubled_ints(monkeypatch):
    # 17 268 gaps: the scan builds no HalfInt per gap
    made = []
    check = HalfInt.__post_init__

    def counting_check(v):
        made.append(v.twice)
        check(v)

    monkeypatch.setattr(HalfInt, "__post_init__", counting_check)
    d = full_spectrum(parse_group("13:0,0,1"))
    assert len(made) < 100
    assert len(d.gaps_twice) == 17268 and "gaps_reduced" not in vars(d)


def test_lazy_gaps_match_the_public_constructor():
    # integral gaps at epsilon = 1, half-integral ones at epsilon = 2
    for enc in ("3:0,0,0,0,0,1", "2:0,0,3"):
        G = parse_group(enc)
        d = full_spectrum(G)
        public = SpectrumDescriptor(
            d.epsilon,
            d.min_reduced,
            d.stable_reduced,
            tuple(HalfInt(t) for t in d.gaps_twice),
            d.verified_bound,
        )
        # each comparison on a descriptor whose gaps_reduced was never read
        assert full_spectrum(G) == public and public == full_spectrum(G), enc
        assert hash(full_spectrum(G)) == hash(public), enc
        assert repr(full_spectrum(G)) == repr(public), enc
        assert pickle.loads(pickle.dumps(full_spectrum(G))) == public, enc
        assert copy.copy(full_spectrum(G)) == dataclasses.replace(full_spectrum(G)) == public
        assert d.gaps_reduced is d.gaps_reduced
        assert d.gaps_reduced == public.gaps_reduced and d.gaps_twice == public.gaps_twice
        assert d.to_json_dict() == public.to_json_dict(), enc
    with pytest.raises(AttributeError):
        getattr(full_spectrum(parse_group("2:0,2")), "no_such_field")


def test_scan_window_check_fires_on_a_short_bound(monkeypatch):
    # 1 and 4 are gaps of 3:0,1, so a bound of 9 leaves them in the window [0, 9]
    monkeypatch.setattr(spectrum_module, "scan_bound", lambda G: HalfInt.of(9))
    with pytest.raises(VerificationError, match=r"incomplete at \[HalfInt\(1\), HalfInt\(4\)\]"):
        full_spectrum(parse_group("3:0,1"))


def test_scan_and_oracle_refuse_oversized_sieves(monkeypatch):
    # the preflight runs before any enumeration
    def enumerate_nothing(*args):
        raise AssertionError("enumerated past the preflight")

    monkeypatch.setattr(spectrum_module, "_progressions", enumerate_nothing)
    with pytest.raises(OutOfRangeError, match="1000003:0,1"):
        full_spectrum(parse_group("1000003:0,1"))  # B is about 10^18
    with pytest.raises(OutOfRangeError, match="over the limit of 1000000"):
        oracle_reduced_spectrum(parse_group("2:1"), 10**8)
    # one value past the limit: 2:1 has the integer lattice from -1 on
    limit = mainline_module.SIEVE_LIMIT
    with pytest.raises(OutOfRangeError, match="spans 1000001 values"):
        oracle_reduced_spectrum(parse_group("2:1"), limit - 1)
    assert mainline_module._sieve_length(0, limit - 1, 1, str) == limit
    with pytest.raises(OutOfRangeError):
        mainline_module._sieve_length(0, limit, 1, str)


def test_value_listing_refuses_an_oversized_range():
    # the count (bound - min) / step + 1 is known before any value is built;
    # one value past SIEVE_LIMIT is refused, on the integer and the half lattice
    limit = mainline_module.SIEVE_LIMIT
    d = closed_form_spectrum(parse_group("3:2,9,1"))  # min 125, step 1
    with pytest.raises(OutOfRangeError, match=f"spans {limit + 1} values"):
        d.reduced_values_up_to(125 + limit)
    assert d.reduced_values_up_to(130) == tuple(map(HalfInt.of, range(125, 131)))
    d = closed_form_spectrum(parse_group("2:1,6,2"))  # min 45/2, step 1/2
    with pytest.raises(OutOfRangeError, match=f"spans {limit + 1} values"):
        d.reduced_values_up_to(d.min_reduced + HalfInt(limit))
    assert len(d.reduced_values_up_to(d.min_reduced + 3)) == 7


def test_sieve_matches_marking_by_sets(monkeypatch):
    seen = []
    sieve = spectrum_module._sieve

    def recording(*args):
        seen.append((args, sieve(*args)))
        return seen[-1][1]

    monkeypatch.setattr(spectrum_module, "_sieve", recording)
    for enc, bound in (("13:0,0,1", 400), ("2:0,0,3", 99), ("3:1,1", 0), ("5:0,1", -1)):
        oracle_reduced_spectrum(parse_group(enc), bound)
    full_spectrum(parse_group("3:0,0,0,0,0,1"))
    assert len(seen) == 5
    # progressions starting one step before, at and past the sieve's last value
    short = ([(4, 8), (2, 10), (6, 100)], 0, 2, 6)
    seen.append((short, sieve(*short)))
    for args, marks in seen:
        assert marks == marks_by_sets(*args), args[1:]


def test_sieve_refuses_a_progression_off_the_lattice():
    for progressions in ([(2, -4)], [(2, 1)], [(3, 0)]):
        with pytest.raises(VerificationError):
            spectrum_module._sieve(progressions, -2, 2, 10)


def test_full_spectrum_anchors():
    # stable value and gap count of two deep scans, as the engine has always given them
    for enc, stable, ngaps in (("2:0,0,0,0,0,0,0,1", 517, 289), ("3:0,0,0,0,0,1", 3281, 1560)):
        d = full_spectrum(parse_group(enc))
        assert (d.stable_reduced, len(d.gaps_reduced)) == (stable, ngaps), enc


EXPECTED_SPECTRA = {
    # group -> (min_genus, step, gap genera, rendered form)
    "2:0,0,0,1": (0, 1, (2, 3, 5), "ℕ_0 ∖ {2,3,5}"),
    "3:0,1": (0, 1, (2, 5), "ℕ_0 ∖ {2,5}"),
    "2:0,2": (1, 2, (5,), "(1+2ℕ_0) ∖ {5}"),
    "2:1,0,1": (1, 2, (), "1+2ℕ_0"),
    "3:1,1": (1, 3, (4, 13), "(1+3ℕ_0) ∖ {4,13}"),
    "2:4": (5, 4, (), "5+4ℕ_0"),
    "2:2,1": (5, 4, (), "5+4ℕ_0"),
    "2:1": (0, 1, (), "ℕ_0"),
    "2:0,1": (0, 1, (), "ℕ_0"),
    "2:2": (0, 1, (), "ℕ_0"),
    "2:0,0,1": (0, 1, (), "ℕ_0"),
    "2:1,1": (1, 2, (), "1+2ℕ_0"),
    "2:3": (1, 2, (), "1+2ℕ_0"),
    "3:2": (1, 3, (), "1+3ℕ_0"),
    "3:3": (10, 9, (), "10+9ℕ_0"),
}


def test_full_spectrum_small_groups():
    for enc, (min_g, step, gaps, text) in EXPECTED_SPECTRA.items():
        G = parse_group(enc)
        view = genus_view(G, full_spectrum(G))
        assert (view.min_genus, view.step, view.gap_genera) == (min_g, step, gaps), enc
        assert view.render() == text, enc


def test_full_spectrum_membership():
    # genus-level membership of sp(Z_16) over a window
    G = parse_group("2:0,0,0,1")
    d = full_spectrum(G)
    got = {g for g in range(30) if d.contains_reduced(HalfInt.of(g - 1))}
    assert got == set(range(30)) - {2, 3, 5}

    G = parse_group("3:1,1")
    d = full_spectrum(G)
    # reduced values lift to genera 1 + 3 g0
    genera = {1 + 3 * v.to_int() for v in d.reduced_values_up_to(20)}
    assert genera == {1 + 3 * k for k in range(21)} - {4, 13}


def test_full_spectrum_verified_bounds():
    for enc in EXPECTED_SPECTRA:
        G = parse_group(enc)
        d = full_spectrum(G)
        if d.verified_bound is None:
            continue
        # the scan bound leaves a clear window above the stable value
        assert d.verified_bound >= d.stable_reduced + G.p**G.e
        # and the oracle agrees with the descriptor throughout
        values = set(oracle_reduced_spectrum(G, d.verified_bound))
        v = d.lattice_min
        while v <= d.verified_bound:
            assert d.contains_reduced(v) == (v in values), (enc, v)
            v = v + d.step


def test_spectrum_shift_closure():
    # the spectrum self-certification rests on closure under + p^e
    for enc in ("2:0,0,0,1", "3:0,1", "2:1,0,1", "5:2"):
        G = parse_group(enc)
        pe = G.p**G.e
        values = set(oracle_reduced_spectrum(G, 3 * pe))
        for v in values:
            if v + pe <= 3 * pe:
                assert v + pe in values, (enc, v)


def test_kulkarni_periodicity():
    for G in all_groups((2, 3), 2, 3, max_log_order=6):
        inv = invariants(G)
        for v in oracle_reduced_spectrum(G, 12):
            g = 1 + (G.p**inv.delta * v.twice) // 2
            if g != 0:
                assert (g - 1) % inv.kulkarni_n == 0, (G, v)


def test_group_for_spectrum_examples():
    assert group_for_spectrum(2, 3, 34).r == (2, 2, 1)
    assert group_for_spectrum(3, 2, 20).r == (4, 1)
    G = group_for_spectrum(2, 3, 35)
    assert G.r == (2, 1, 2) and closed_form_spectrum(G).epsilon == 2
    with pytest.raises(OutOfRangeError):
        group_for_spectrum(2, 3, 33)
    with pytest.raises(OutOfRangeError):
        group_for_spectrum(3, 2, 19)


def test_group_for_spectrum_round_trip():
    for p, e in ((2, 2), (2, 3), (3, 2), (3, 3)):
        base = spectrum_bound_formula(p, e)
        for m in range(base, base + 26):
            G = group_for_spectrum(p, e, m)
            assert has_large_invariants(G)
            d = closed_form_spectrum(G)
            assert d.min_reduced == HalfInt(-2 * p**e + (p - 1) * m)
            assert d.epsilon == (2 if p == 2 and m % 2 == 1 else 1)


def test_classify_small():
    assert classify_small(parse_group("2:2")) is SmallClass.GENUS_ZERO
    assert classify_small(parse_group("2:3")) is SmallClass.GENUS_ONE
    assert classify_small(parse_group("3:2")) is SmallClass.GENUS_ONE
    assert classify_small(parse_group("5:0,0,1")) is SmallClass.GENUS_ZERO
    assert classify_small(parse_group("3:1,1")) is SmallClass.GENUS_ONE
    assert classify_small(parse_group("2:4")) is SmallClass.POSITIVE
    assert classify_small(parse_group("3:2,2")) is SmallClass.POSITIVE
    for G in all_groups((2, 3, 5), 3, 2, max_log_order=6):
        classify_small(G)  # internal sign assertion must hold


def test_mu0_plus_examples():
    assert mu0_plus(parse_group("3:0,1")) == 2
    assert mu0_plus(parse_group("2:0,2")) == hi(1)
    assert mu0_plus(parse_group("2:1,1")) == 1


def test_mu0_plus_against_oracle():
    for G in all_groups((2, 3), 2, 3, max_log_order=6):
        positive = [v for v in oracle_reduced_spectrum(G, 30) if v > 0]
        assert mu0_plus(G) == positive[0], G
