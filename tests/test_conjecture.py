import dataclasses
import gc
import hashlib
import pickle
import resource
import subprocess
import sys
import time
from collections import Counter, defaultdict
from functools import reduce
from heapq import merge
from itertools import product
from math import gcd
from operator import or_
from pathlib import Path

import pytest

from genus_spectrum import (
    RELATION_MIXED,
    RELATION_SAME,
    AbelianPGroup,
    HalfInt,
    InputError,
    OutOfFamilyError,
    SpectrumDescriptor,
    UnsupportedError,
    VerificationError,
    e3_family,
    genus_progression,
    has_large_invariants,
    mu0,
    oracle_reduced_spectrum,
    parse_group,
    rho,
    search_counterexamples,
    spectra_equal,
    varying_exponent_pair,
)
from genus_spectrum import conjecture as conjecture_module
from genus_spectrum.conjecture import (
    PAIR_LIMIT,
    _floor_group,
    _overlap_classes,
    _search_class,
    _Side,
    _value_offset,
)

from helpers import (
    bitset_join,
    envelope_tables,
    free_vectors,
    overlap_windows_by_scan,
    refused,
    weights,
)


def test_rho():
    assert rho(3) == (5, -7, 3)
    assert rho(2) == (4, -5, 2)
    with pytest.raises(InputError):
        rho(4)


def test_rho_kernel_identity():
    for p in range(2, 101):
        try:
            v = rho(p)
        except InputError:
            continue
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
        assert (
            v[0] * (p**3 - p**2) + v[1] * (p**3 - p) + v[2] * (p**3 - 1) == 0
        )


def test_e3_family_examples():
    assert e3_family(parse_group("3:2,9,1"), 1).r == (7, 2, 4)
    assert e3_family(parse_group("2:1,6,2"), 1).r == (5, 1, 4)
    G = parse_group("3:2,9,1")
    assert e3_family(G, 0) == G
    with pytest.raises(OutOfFamilyError):
        e3_family(G, -1)  # r_2 would become 16, but r_1 drops below p-1
    with pytest.raises(OutOfFamilyError, match="top-summand parity class"):
        e3_family(parse_group("2:1,6,1"), 1)  # top-summand class flips
    with pytest.raises(OutOfFamilyError, match="hypothesis"):
        e3_family(parse_group("3:1,1,1"), 1)  # the source is outside the family
    with pytest.raises(UnsupportedError):
        e3_family(parse_group("3:2,2"), 1)


def test_e3_family_soundness():
    for G0, l in ((parse_group("3:2,23,1"), 3), (parse_group("2:1,16,2"), 3)):
        family = [e3_family(G0, k) for k in range(l + 1)]
        assert len({g.r for g in family}) == l + 1
        orders = {g.log_order for g in family}
        mus = {mu0(g).mu0 for g in family}
        assert len(orders) == 1 and len(mus) == 1
        for g in family[1:]:
            assert spectra_equal(family[0], g)


def test_spectra_equal_examples():
    assert spectra_equal(parse_group("3:2,9,1"), parse_group("3:7,2,4"))
    assert spectra_equal(parse_group("2:1,1,1,18"), parse_group("2:69,1,2"))
    assert spectra_equal(parse_group("2:1,1,1,21"), parse_group("2:80,1,1,1"))
    assert not spectra_equal(parse_group("2:1,1"), parse_group("2:0,2"))
    # descriptor route for groups without large invariants
    assert spectra_equal(parse_group("2:1,1"), parse_group("2:1,0,1"))
    assert spectra_equal(parse_group("2:1,1"), parse_group("2:3"))
    assert not spectra_equal(parse_group("3:0,1"), parse_group("2:0,0,0,1"))
    assert spectra_equal(parse_group("2:1"), parse_group("2:0,0,1"))


def test_progression_examples():
    start, step = genus_progression(parse_group("3:2,9,1"))
    assert (start, step) == (1 + 3**20 * 125, 3**20)
    # delta = 16 and epsilon = 2: start 1 + 2^16 * 45/2, step 2^15
    start, step = genus_progression(parse_group("2:1,6,2"))
    assert (start, step) == (1 + 2**15 * 45, 2**15)
    with pytest.raises(UnsupportedError, match="hypothesis"):
        genus_progression(parse_group("3:0,1"))


def test_genus_progression_checks_the_ambient_lattice(monkeypatch):
    # the progression is read off genus_view, whose check guards it too
    desc = SpectrumDescriptor(1, HalfInt(2), HalfInt(2), (), None)
    monkeypatch.setattr(conjecture_module, "closed_form_spectrum", lambda G: desc)
    with pytest.raises(VerificationError, match="3:1 has ambient lattice N_0 but minimum genus 2"):
        genus_progression(parse_group("3:1"))


def brute_pairs(p, e, et, delta_max):
    """Reference search by direct enumeration, feasible for tiny bounds."""

    def sequences(ee):
        top = max(p - 2, 1)
        bound = delta_max + ee
        ranges = [range(p - 1, bound // i + 1) for i in range(1, ee)]
        ranges.append(range(top, bound // ee + 1))
        for r in product(*ranges):
            G = AbelianPGroup(p, r)
            if G.delta <= delta_max and has_large_invariants(G):
                yield G

    out = set()
    for g1 in sequences(e):
        for g2 in sequences(et):
            if g1 == g2:
                continue
            if p == 2 and g1.r[-1] == 1:
                continue  # search convention: the first group carries r_e >= 2
            if spectra_equal(g1, g2):
                key = (g1.encode(), g2.encode())
                if e == et and g1.epsilon == g2.epsilon:
                    key = tuple(sorted(key))
                out.add(key)
    return out


def test_search_matches_brute_force_small():
    for p, e, et, dmax in ((3, 2, 2, 10), (2, 2, 2, 8), (2, 3, 2, 10), (2, 3, 3, 12)):
        found = {
            (q.g1.encode(), q.g2.encode()) for q in search_counterexamples(p, e, et, dmax)
        }
        assert found == brute_pairs(p, e, et, dmax), (p, e, et, dmax)


def test_search_43():
    pairs = search_counterexamples(2, 4, 3, 74)
    assert [q.to_json_dict() for q in pairs] == [
        {
            "g1": "2:1,1,1,18",
            "g2": "2:69,1,2",
            "delta": [74, 74],
            "mu0": ["287/2", "287/2"],
            "relation": RELATION_SAME,
        }
    ]
    assert search_counterexamples(2, 4, 3, 73) == []


def _compositions(e, delta_max):
    # all r with r_i >= 1 and deficiency at most delta_max
    bound = delta_max + e
    for r in product(*(range(1, bound // i + 1) for i in range(1, e + 1))):
        if sum(i * x for i, x in enumerate(r, start=1)) - e <= delta_max:
            yield r


def test_search_44_mixed_matches_progression_join():
    # independent route: bucket all exponent-2^4 groups by genus progression
    buckets: dict[tuple[int, int], tuple[list, list]] = {}
    for r in _compositions(4, 86):
        G = AbelianPGroup(2, r)
        key = genus_progression(G)
        two, one = buckets.setdefault(key, ([], []))
        (two if r[-1] >= 2 else one).append(G)
    expected = {
        (g1.encode(), g2.encode())
        for two, one in buckets.values()
        for g1 in two
        for g2 in one
    }
    got = search_counterexamples(2, 4, 4, 86, relation=RELATION_MIXED)
    assert {(q.g1.encode(), q.g2.encode()) for q in got} == expected


def test_search_44_mixed():
    pairs = search_counterexamples(2, 4, 4, 86, relation=RELATION_MIXED)
    assert [(q.g1.encode(), q.g2.encode(), q.delta, str(q.mu1)) for q in pairs] == [
        ("2:1,1,1,21", "2:80,1,1,1", 86, "166")
    ]


def test_p2_same_lattice_pairs_both_top_summand_classes():
    # the same-lattice relation pairs two groups with r_e >= 2 or two with
    # r_e = 1; the mixed one pairs r_e >= 2 with r_e = 1
    pairs = search_counterexamples(2, 5, 4, 74)
    classes = Counter((q.relation, q.g1.r[-1] >= 2, q.g2.r[-1] >= 2) for q in pairs)
    assert classes == {(RELATION_SAME, True, True): 535, (RELATION_SAME, False, False): 1}
    single = [q for q in pairs if q.g1.r[-1] == 1]
    assert [(q.g1.encode(), q.g2.encode(), q.delta, str(q.mu1)) for q in single] == [
        ("2:1,1,1,17,1", "2:69,1,1,1", 74, "288")
    ]


def test_search_validation():
    with pytest.raises(InputError):
        search_counterexamples(2, 3, 4, 10)
    with pytest.raises(InputError):
        search_counterexamples(3, 3, 3, 10, relation=RELATION_MIXED)
    with pytest.raises(InputError):
        search_counterexamples(2, 3, 3, 10, relation="nonsense")


def test_search_output_contract():
    for args in ((2, 4, 4, 20), (2, 4, 4, 86, RELATION_MIXED)):
        pairs = search_counterexamples(*args)
        assert pairs, "same-exponent pairs exist from deficiency 16 on, a mixed one at 86"
        deltas = [q.delta for q in pairs]
        assert deltas == sorted(deltas)
        for q in pairs:
            assert q.g1.r != q.g2.r
            assert has_large_invariants(q.g1) and has_large_invariants(q.g2)
            assert q.delta <= args[3]
            assert (q.delta1, q.delta2) == (q.g1.delta, q.g2.delta)
            assert mu0(q.g1).mu0 == q.mu1 and mu0(q.g2).mu0 == q.mu2
            if q.relation == RELATION_MIXED:
                assert q.delta2 == q.delta1 - 1 and q.mu2 == q.mu1 * 2
            else:
                assert q.delta1 == q.delta2 and q.mu1 == q.mu2
            # spectra agree, re-checked through the oracle near the minimum
            lift = 2 if q.relation == RELATION_MIXED else 1
            w1 = oracle_reduced_spectrum(q.g1, q.mu1 + 3)
            w2 = oracle_reduced_spectrum(q.g2, q.mu2 + 3 * lift)
            g1 = {2 + q.g1.p_delta * v.twice for v in w1}
            g2 = {2 + q.g2.p_delta * v.twice for v in w2}
            assert g1 == g2, q


def test_search_builds_each_side_once_and_recovers_each_witness_set_once(monkeypatch):
    # wrap the side constructor and witness recovery the way bench/tracer.py
    # does; a witness walk is keyed by its class, its side and the weight of
    # the side's last reach
    built: list[_Side] = []
    asked: list[tuple] = []
    derived: list[tuple[int, tuple]] = []
    weight: dict[int, int] = {}
    running: list[tuple] = []
    init, reach, witnesses, kids = _Side.__init__, _Side.reach, _Side.witnesses, _Side._kids
    search_class = conjecture_module._search_class

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def recording_reach(self, d, lo, hi):
        weight[id(self)] = d
        return reach(self, d, lo, hi)

    def counting_witnesses(self, wanted):
        asked.append((running[-1], id(self), weight[id(self)]))
        return witnesses(self, wanted)

    def counting_kids(self, key):
        if key[0]:
            derived.append((id(self), key))
        return kids(self, key)

    def recording_class(side1, side2, *args):
        running.append((id(side1), id(side2), args[4]))
        return search_class(side1, side2, *args)

    monkeypatch.setattr(_Side, "__init__", counting_init)
    monkeypatch.setattr(_Side, "reach", recording_reach)
    monkeypatch.setattr(_Side, "witnesses", counting_witnesses)
    monkeypatch.setattr(_Side, "_kids", counting_kids)
    monkeypatch.setattr(conjecture_module, "_search_class", recording_class)

    assert len(search_counterexamples(2, 5, 4, 60)) == 65
    # one side per (exponent, top floor): the mixed class reads the sides of
    # the two same-lattice classes
    assert sorted((len(side.floors), side.floors[-1]) for side in built) == [
        (4, 1), (4, 2), (5, 1), (5, 2)
    ]
    assert len(running) == 3
    # one witness walk per class, side and deficiency, whatever the matched values
    assert asked and len(asked) == len(set(asked))
    # each part of a (coin, weight) window below a root is derived once per
    # side, and no two parts of one (coin, weight) overlap: the witness walk
    # follows the memo's links instead
    assert derived and len(derived) == len(set(derived))
    parts = defaultdict(list)
    for side, (j, rd, lo, hi) in derived:
        parts[side, j, rd].append((lo, hi))
    for windows in parts.values():
        windows.sort()
        assert all(a[1] < b[0] for a, b in zip(windows, windows[1:])), windows
    built.clear()
    search_counterexamples(2, 4, 4, 40)
    # equal exponents: each same-lattice class reads one side, and the mixed
    # class reads both
    assert len(built) == 2


def test_varying_exponent_minimality_p3():
    # the tabulated p=3 pair really is the deficiency-minimal one: nothing
    # below 189 across all relation classes, and exactly one pair at 189
    pairs = search_counterexamples(3, 5, 4, 189)
    assert [(q.g1.encode(), q.g2.encode(), q.delta) for q in pairs] == [
        ("3:2,2,2,3,34", "3:177,3,2,1", 189)
    ]


@pytest.mark.parametrize("p, delta", [(5, 1119), (7, 3725)])
def test_varying_exponent_minimality(p, delta):
    # the p = 5 and p = 7 members of the series are deficiency-minimal too
    pairs = search_counterexamples(p, p + 2, p + 1, delta)
    assert [(q.g1, q.g2, q.delta) for q in pairs] == [(*varying_exponent_pair(p), delta)]


def test_varying_exponent_pair():
    g1, g2 = varying_exponent_pair(3)
    assert g1.r == (2, 2, 2, 3, 34) and g2.r == (177, 3, 2, 1)
    with pytest.raises(UnsupportedError):
        varying_exponent_pair(2)
    for p in (3, 5, 7):
        g1, g2 = varying_exponent_pair(p)
        assert (g1.e, g2.e) == (p + 2, p + 1)
        assert g1.delta == g2.delta
        assert spectra_equal(g1, g2)
        # tabulated closed forms for the common deficiency and minimum
        assert 2 * g1.delta == 2 * p**4 + 7 * p**3 + 6 * p**2 - 5 * p - 12
        expect = HalfInt((p**3 + 2 * p**2 - 4) * p ** (p + 2) - p**3 - p**2 + 1)
        assert mu0(g1).mu0 == expect == mu0(g2).mu0


def test_varying_exponent_pair_refuses_a_huge_p_delta():
    # p^delta passes POWER_BITS_LIMIT from p = 31 on; p = 29 reads 3.86 * 10^6 bits
    for p in (11, 13, 17, 29):
        g1, g2 = varying_exponent_pair(p)
        assert (g1.e, g2.e) == (p + 2, p + 1)
        assert 2 * g1.delta == 2 * g2.delta == 2 * p**4 + 7 * p**3 + 6 * p**2 - 5 * p - 12
    for p, delta in ((31, 1030589), (1_000_000_007, 1000000031500000370500001926000003725)):
        start = time.perf_counter()
        with refused(
            f"p^delta = {p}^{delta} of the varying-exponent pair may pass the limit of 4000000 bits"
        ):
            varying_exponent_pair(p)
        assert time.perf_counter() - start < 1


def test_witness_recovery_leaves_no_reference_cycles():
    side = _Side(_floor_group(3, 5, 1))
    targets = []
    for d in range(max(60 - side.delta0, 0) + 1):
        lo, hi = side._envelope(0, d)
        bits = side.reach(d, lo, hi)
        if bits:
            targets.append((d, lo, hi, bits))
    gc.collect()
    gc.disable()
    try:
        found = []
        for d, lo, hi, bits in targets[:5]:
            side.reach(d, lo, hi)
            found.append(side.witnesses(bits))
        leaked = gc.collect()
    finally:
        gc.enable()
    assert len(found) == 5 and all(found)
    assert leaked == 0


def test_search_matches_bitset_join_reference(monkeypatch):
    # the windowed join against the full-width bitset join of tests/helpers.py:
    # the same matched (deficiency, value) on each side of each class and the
    # same pairs.  A value is recorded with its class's mu_0 scale: 2 on the
    # first side of the mixed class, else 1
    seen: set[tuple] = set()
    window: dict[int, tuple[int, int]] = {}
    scales: list[dict[int, int]] = []
    reach, witnesses = _Side.reach, _Side.witnesses
    search_class = conjecture_module._search_class

    def recording_reach(self, d, lo, hi):
        window[id(self)] = d, lo
        return reach(self, d, lo, hi)

    def recording_witnesses(self, wanted):
        d, lo = window[id(self)]
        scale = scales[-1][id(self)]
        for b in range(wanted.bit_length()):
            if wanted >> b & 1:
                value = scale * (self.base_twice + self.unit * (lo + b))
                seen.add((self.floors, scale, self.delta0 + d, value))
        return witnesses(self, wanted)

    def recording_class(side1, side2, *args):
        scales.append({id(side2): 1, id(side1): 2 if args[4] == RELATION_MIXED else 1})
        return search_class(side1, side2, *args)

    monkeypatch.setattr(_Side, "reach", recording_reach)
    monkeypatch.setattr(_Side, "witnesses", recording_witnesses)
    monkeypatch.setattr(conjecture_module, "_search_class", recording_class)
    total = 0
    for p, dmax in ((2, 40), (3, 60), (5, 100)):
        relations = (None, RELATION_SAME, RELATION_MIXED) if p == 2 else (None, RELATION_SAME)
        for e in range(1, 4):
            for et in range(1, e + 1):
                for relation in relations:
                    seen.clear()
                    pairs = search_counterexamples(p, e, et, dmax, relation)
                    matched, expected = bitset_join(p, e, et, dmax, relation)
                    got = [
                        (q.delta1, q.delta2, q.g1.r, q.g2.r, q.mu1, q.mu2, q.relation)
                        for q in pairs
                    ]
                    assert seen == matched, (p, e, et, relation)
                    assert got == expected, (p, e, et, relation)
                    total += len(got)
    assert total > 1000


def test_witnesses_return_exactly_the_wanted_values():
    # every other reachable value is wanted; the walk must return all vectors
    # of those values, in ascending order, and none of the others
    side = _Side(_floor_group(3, 4, 1))
    checked = 0
    for d in range(max(60 - side.delta0, 0) + 1):
        lo, hi = side._envelope(0, d)
        bits = side.reach(d, lo, hi)
        reached = [b for b in range(bits.bit_length()) if bits >> b & 1]
        wanted = sum(1 << b for b in reached[::2])
        expected = sorted(
            (y, t)
            for y, ts in free_vectors(side.coins, d).items()
            if wanted >> (y - lo) & 1
            for t in ts
        )
        found = side.witnesses(wanted)
        assert [t for _, t in found] == sorted(t for _, t in found)
        assert sorted(found) == expected, d
        checked += len(found)
    assert checked > 100


def test_search_walks_a_long_coin_chain_without_recursion():
    # 1 200 coins: the memo and the witness walk are one key deep per coin,
    # past the interpreter's recursion limit
    floor = AbelianPGroup(3, (2,) * 1199 + (1,))
    assert search_counterexamples(3, 1200, 1200, floor.delta) == []


def test_envelope_tables_match_the_closed_form():
    # the closed-form envelope of every coin suffix and weight against the
    # relaxation tables of tests/helpers.py, on coins rebuilt from the
    # reference weights; delta_max below the floor deficiency leaves the
    # single weight 0.  The side derives its pinned top from p and the top
    # floor, the spec lists it explicitly.
    checked = 0
    for p in (2, 3, 5, 7):
        specs = [(2, False), (1, True)] if p == 2 else [(max(p - 2, 1), False)]
        for e in range(1, 7):
            for top, pin in specs:
                assert pin == (p == 2 and top == 1)
                floor = AbelianPGroup(p, (p - 1,) * (e - 1) + (top,))
                for delta_max in (floor.delta - 1, floor.delta + 120):
                    side = _Side(_floor_group(p, e, top))
                    dmax = max(delta_max - side.delta0, 0)
                    values = weights(p, e)[: e - 1 if pin else e]
                    unit = gcd(*values)
                    coins = [(i, v // unit) for i, v in enumerate(values, start=1)]
                    assert (side.delta0, side.unit, side.coins) == (floor.delta, unit, coins)
                    smin, smax = envelope_tables(coins, dmax)
                    for j in range(len(coins) + 1):
                        for d in range(dmax + 1):
                            lo, hi = smin[j][d], smax[j][d]
                            expected = None if lo is None else (lo, hi)
                            assert side._envelope(j, d) == expected, (p, e, top, pin, j, d)
                            checked += 1
    assert checked > 15000


def test_side_setup_does_not_grow_with_delta_max():
    # the envelopes are closed forms, so a side for deficiencies up to 10^12
    # builds at once; at the largest weight the bounds are attained by
    # explicit vectors: all coin 1, and dmax // n coins of weight n plus one
    # of weight dmax mod n
    side = _Side(_floor_group(3, 5, 1))
    floor = AbelianPGroup(3, (2, 2, 2, 2, 1))
    assert side.delta0 == floor.delta
    dmax = 10**12 - side.delta0
    n = len(side.coins)
    q, r = divmod(dmax, n)
    least = [0] * n
    least[-1] = q
    if r:
        least[r - 1] += 1
    greatest = [dmax] + [0] * (n - 1)
    for t in (least, greatest):
        assert sum(k * w for (w, _), k in zip(side.coins, t)) == dmax
    lo, hi = (sum(k * v for (_, v), k in zip(side.coins, t)) for t in (least, greatest))
    assert side._envelope(0, dmax) == (lo, hi)


def test_count_cut_keeps_every_child(monkeypatch):
    # the counts of _counts leave out only children the envelope test rejects:
    # on every side of the relation table (the pinned p = 2 side too), for
    # root windows of several widths, every part of a window
    # derived below them and every memo entry's whole window, the children
    # equal those found when every count of the coin is tried
    cut = []
    kids = _Side._kids

    def recording_kids(self, key):
        out = kids(self, key)
        if key[0]:
            cut.append((self, key, out))
        return out

    monkeypatch.setattr(_Side, "_kids", recording_kids)
    for p in (2, 3, 5, 7):
        tops = (2, 1) if p == 2 else (p - 2,)
        for e in range(1, 6):
            for top in tops:
                side = _Side(_floor_group(p, e, top))
                n = len(side.coins)
                roots = []
                for d in range(81):
                    env = side._envelope(0, d)
                    if env is not None:
                        lo, hi = env
                        third = (hi - lo) // 3
                        roots += [(0, d, lo, hi), (0, d, lo + third, hi - third), (0, d, hi, hi)]
                for key in roots:
                    if n:
                        side.reach(*key[1:])
                memo = [(j, rd, lo, hi) for (j, rd), (lo, hi, _, _) in side._memo.items()]
                for key in roots + memo:
                    if key[0] < n:
                        cut.append((side, key, kids(side, key)))

    def every_count(self, key):
        return range(key[1] // self.coins[key[0]][0] + 1)

    monkeypatch.setattr(_Side, "_kids", kids)
    monkeypatch.setattr(_Side, "_counts", every_count)
    for side, key, kids in cut:
        assert side._kids(key) == kids, (side.p, side.floors, key)
    assert len(cut) > 10000


def test_memo_entries_link_their_live_children(monkeypatch):
    # after a search, every memo entry of each side is [lo, hi, bits, live]:
    # bits, relative to lo, are the OR of the live children's bits at the
    # shifts their window lows give, cut to [lo, hi]; each child listed is
    # the entry the memo holds for its (coin, weight) and reaches a value in
    # the window, no other child does, the counts ascend, and the key past
    # the last coin is the leaf [0, 0, 1, ()]
    built: list[_Side] = []
    init = _Side.__init__

    def recording_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(_Side, "__init__", recording_init)
    assert search_counterexamples(2, 5, 4, 80)
    assert search_counterexamples(3, 5, 4, 350)
    checked = 0
    for side in built:
        n = len(side.coins)
        for (j, rd), entry in side._memo.items():
            if j == n:
                assert (rd, entry) == (0, [0, 0, 1, ()])
                continue
            lo, hi, bits, live = entry
            w, v = side.coins[j]

            def part(k, kid):
                shift = kid[0] + k * v - lo
                return (kid[2] << shift if shift >= 0 else kid[2] >> -shift) % (1 << hi - lo + 1)

            for k, kid in live:
                assert kid is side._memo[j + 1, rd - k * w], (j, rd, k)
            ks = [k for k, _ in live]
            assert ks == sorted(set(ks)), (j, rd)
            assert bits == reduce(or_, (part(k, kid) for k, kid in live), 0), (j, rd)
            every = [(k, side._memo[kid]) for k, kid, _, _ in side._kids((j, rd, lo, hi))]
            assert ks == [k for k, kid in every if part(k, kid)], (j, rd)
            checked += 1
    assert checked > 500


def test_memo_keeps_one_growing_window_per_coin_and_weight(monkeypatch):
    # every memo key is a (coin, weight) pair below the roots; its entry's
    # window is the hull of the windows asked of it, and the parts derived
    # for it do not overlap, so their summed width is at most that hull
    built: list[_Side] = []
    asked, derived = defaultdict(list), defaultdict(list)
    init, kids = _Side.__init__, _Side._kids

    def recording_init(self, *args):
        built.append(self)
        init(self, *args)

    def recording_kids(self, key):
        derived[id(self), key[:2]].append(key[2:])
        out = kids(self, key)
        for _, kid, lo, hi in out:
            asked[id(self), kid].append((lo, hi))
        return out

    monkeypatch.setattr(_Side, "__init__", recording_init)
    monkeypatch.setattr(_Side, "_kids", recording_kids)
    assert len(search_counterexamples(3, 5, 4, 350)) == 7205
    assert search_counterexamples(2, 5, 4, 80)
    checked = 0
    for side in built:
        n = len(side.coins)
        for node, (lo, hi, _, _) in side._memo.items():
            j, rd = node
            assert 1 <= j <= n and type(j) is type(rd) is int, node
            windows = asked[id(side), node]
            assert (lo, hi) == (min(a for a, _ in windows), max(b for _, b in windows)), node
            if j < n:
                parts = sorted(derived[id(side), node])
                assert all(a[1] < b[0] for a, b in zip(parts, parts[1:])), node
                assert sum(b - a + 1 for a, b in parts) <= hi - lo + 1, node
                checked += 1
    assert checked > 500


# SHA-256 of the pairs of search_counterexamples(5, 8, 7, 800), as in
# PAIR_DIGESTS below
MEMORY_DIGEST = "89b5e6ba30d971387af1f96a250d78c85f73b571f140408aec9e62c6fecaee9c"


def test_search_memo_fits_a_capped_address_space():
    # (5, 8, 7, 800) lists 546 pairs.  With a memo entry per (coin, weight,
    # window) the search peaked near 290 MB, far past a 150 MB address
    # space; with one entry per (coin, weight) it peaks near 35 MB
    code = (
        "import hashlib\n"
        "from genus_spectrum import search_counterexamples\n"
        "pairs = search_counterexamples(5, 8, 7, 800)\n"
        "rows = [(q.g1.r, q.g2.r, q.delta1, q.delta2, q.mu1.twice, q.mu2.twice, q.relation)\n"
        "        for q in pairs]\n"
        "print(len(pairs), hashlib.sha256(repr(rows).encode()).hexdigest())\n"
    )
    limit = 15 * 10**7
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == f"546 {MEMORY_DIGEST}\n"


def test_count_cut_tries_few_counts_at_the_roots(monkeypatch):
    # at (2, 8, 7, 8220, mixed) each root window is a few values wide; trying
    # every count of coin 1 would take 8 000+ per root
    tried = []
    counts = _Side._counts

    def recording_counts(self, key):
        ks = counts(self, key)
        if key[0] == 0:
            tried.append(len(ks))
        return ks

    monkeypatch.setattr(_Side, "_counts", recording_counts)
    assert len(search_counterexamples(2, 8, 7, 8220, RELATION_MIXED)) == 1
    assert tried and sum(tried) < 100


def _relation_classes(p, e, et):
    # (side1, side2, deficiency offset, mu_0 scale of side 1) per row of the
    # search's relation table
    rows = [(2, 2, 0, 1), (1, 1, 0, 1), (2, 1, -1, 2)] if p == 2 else [(p - 2, p - 2, 0, 1)]
    for top1, top2, offset, scale in rows:
        side1 = _Side(_floor_group(p, e, top1))
        side2 = side1 if (e, top1) == (et, top2) else _Side(_floor_group(p, et, top2))
        yield side1, side2, offset, scale


def test_overlap_listing_matches_the_scan():
    # the residue-class listing and its closed-form summed width against the
    # scan of tests/helpers.py on every relation class, the coinless pinned
    # p = 2, e = 1 side and the mixed offset -1 included, at the class's own
    # value offset and shifted ones, for deficiency bounds below, at and past
    # the floors
    checked = coinless = 0
    for p in (2, 3, 5, 7):
        for e in range(1, 6):
            for et in range(1, e + 1):
                for side1, side2, offset, scale in _relation_classes(p, e, et):
                    coinless += not (side1.coins and side2.coins)
                    own = (side2.base_twice - scale * side1.base_twice) // (
                        scale * side1.unit or side2.unit or 1
                    )
                    floor = max(side1.delta0, side2.delta0 - offset)
                    for delta_max in (floor - 1, floor, floor + 7, floor + 90, floor + 400):
                        for off in (own - 40, own - 1, own, own + 1, own + 40):
                            args = (side1, side2, offset, delta_max, off)
                            classes, width = _overlap_classes(*args)
                            expected = overlap_windows_by_scan(*args)
                            assert list(merge(*classes)) == [d for d, _, _ in expected], args
                            assert width == sum(hi - lo + 1 for _, lo, hi in expected), args
                            checked += len(expected)
    assert coinless and checked > 50000


@pytest.mark.parametrize(
    "p, e, et, delta_max, count",
    [(3, 5, 4, 350, 164), (7, 9, 8, 3725, 67), (11, 13, 12, 19629, 177), (13, 15, 14, 36719, 250)],
)
def test_overlap_listing_counts_passing_deficiencies(p, e, et, delta_max, count):
    # the listing alone, with no memo: odd p has the one same-lattice class
    ((side1, side2, offset, scale),) = _relation_classes(p, e, et)
    classes, _ = _overlap_classes(side1, side2, offset, delta_max, _value_offset(side1, side2, scale))
    assert sum(map(len, classes)) == count


def test_overlap_listing_of_the_mixed_search():
    # one deficiency of 8 185 passes at (2, 8, 7, 8220, mixed), one value wide
    side1, side2 = _Side(_floor_group(2, 8, 2)), _Side(_floor_group(2, 7, 1))
    classes, width = _overlap_classes(side1, side2, -1, 8220, _value_offset(side1, side2, 2))
    assert (list(merge(*classes)), width) == ([8220], 1)


def test_search_reads_few_envelopes_at_weight_zero(monkeypatch):
    # testing every deficiency up to 8 220 took 16 370 envelopes of coin 1 on;
    # the listing reads four for the slopes, two per residue class and two
    # per passing deficiency
    calls = []
    envelope = _Side._envelope

    def counting_envelope(self, j, d):
        if j == 0:
            calls.append(d)
        return envelope(self, j, d)

    monkeypatch.setattr(_Side, "_envelope", counting_envelope)
    assert len(search_counterexamples(2, 8, 7, 8220, RELATION_MIXED)) == 1
    assert calls and len(calls) < 200


def test_listed_windows_are_checked_against_the_envelopes():
    # each window is recomputed from the envelopes at its deficiency: a listed
    # deficiency whose envelopes miss, or a summed width the windows do not
    # add up to, is a broken listing, not an empty one
    ((side1, side2, offset, scale),) = _relation_classes(3, 5, 4)
    off = _value_offset(side1, side2, scale)
    classes, width = _overlap_classes(side1, side2, offset, 350, off)
    assert len(_search_class(side1, side2, offset, off, classes, width, RELATION_SAME)) == 7205
    listed = set(merge(*classes))
    missing = next(d for d in range(side1.delta0, 351) if d not in listed)
    broken = classes + [range(missing, missing + 1)]
    with pytest.raises(VerificationError, match=f"deficiency {missing}"):
        _search_class(side1, side2, offset, off, broken, width, RELATION_SAME)
    # one below side 1's floor that side has no vector, so its envelope is None
    below = side1.delta0 - 1
    broken = classes + [range(below, below + 1)]
    with pytest.raises(VerificationError, match=f"^deficiency {below} was listed, but its envelopes miss"):
        _search_class(side1, side2, offset, off, broken, width, RELATION_SAME)
    with pytest.raises(VerificationError, match="summed width"):
        _search_class(side1, side2, offset, off, classes, width + 1, RELATION_SAME)


def test_search_refuses_oversized_windows_before_any_memo(monkeypatch):
    # the p = 11 series search sums 3.35 * 10^14 window units, a search up to
    # deficiency 10^12 far more; both are refused from the closed-form
    # listing, before any reach set or memo key exists
    def no_reach(self, *args):
        raise AssertionError("reach ran before the preflight")

    monkeypatch.setattr(_Side, "reach", no_reach)
    limit = "over the search's limit of 1000000000 units"
    with refused(
        "177 deficiencies up to 19629 have overlapping envelopes, with windows summing to "
        f"335495427835587 units, {limit}"
    ):
        search_counterexamples(11, 13, 12, 19629)
    with refused(
        "999999999814 deficiencies up to 1000000000000 have overlapping envelopes, with windows "
        f"summing to 1399999999477600000048854 units, {limit}"
    ):
        search_counterexamples(3, 5, 4, 10**12)
    # the count stays exact past sys.maxsize, where len() of a range overflows
    with refused(
        f"{10**26 - 186} deficiencies up to {10**26} have overlapping envelopes, with windows "
        f"summing to 13999999999999999999999947760000000000000000000048854 units, {limit}"
    ):
        search_counterexamples(3, 5, 4, 10**26)


def test_classes_that_cannot_pair_are_skipped(monkeypatch):
    # a shared side with at most one coin has one vector per weight, so no
    # two of its groups share a deficiency: brute force finds no pair either
    for p, e, dmax in ((3, 1, 30), (5, 1, 20), (2, 1, 30), (2, 2, 14)):
        found = {(q.g1.encode(), q.g2.encode()) for q in search_counterexamples(p, e, e, dmax)}
        assert found == brute_pairs(p, e, e, dmax), (p, e, dmax)

    def no_reach(self, *args):
        raise AssertionError("reach ran on a class that cannot pair")

    monkeypatch.setattr(_Side, "reach", no_reach)
    assert search_counterexamples(3, 1, 1, 10**6) == []


def test_pair_count_is_capped_before_the_pairs_are_built():
    # each deficiency's pairs are counted first, per matched value len(gs1) *
    # len(gs2), or n (n - 1) / 2 on a shared side; past the budget the class is refused
    assert PAIR_LIMIT == 10**5
    for e, et, dmax, total in ((5, 4, 350, 7205), (4, 4, 60, 13256)):
        side1, side2, offset, scale = next(_relation_classes(3, e, et))
        off = _value_offset(side1, side2, scale)
        listed = _overlap_classes(side1, side2, offset, dmax, off)
        pairs = _search_class(side1, side2, offset, off, *listed, RELATION_SAME)
        assert len(pairs) == total
        assert _search_class(side1, side2, offset, off, *listed, RELATION_SAME, len(pairs)) == pairs
        with refused(
            f"equal_spectrum_same_lattice pairs up to deficiency {dmax} take the search past "
            "its limit of 100000 pairs"
        ):
            _search_class(side1, side2, offset, off, *listed, RELATION_SAME, len(pairs) - 1)


def test_pair_limit_counts_the_pairs_of_every_class():
    # (2, 5, 5, 59) lists 71 020, 34 681 and 28 pairs in its three classes:
    # each is under PAIR_LIMIT, and the second class takes the search past it
    with refused(
        "equal_spectrum_same_lattice pairs up to deficiency 58 take the search past its "
        "limit of 100000 pairs"
    ):
        search_counterexamples(2, 5, 5, 59)


def _search_broken(how: str) -> str:
    """Run search_counterexamples(2, 5, 4, 60) with one part of its join
    broken as `how` says (on the exponent-2^4 side, where a side is named),
    and return the message of the VerificationError its check raises."""
    mu_of, group_of = _Side.mu_of, _Side.group_of
    value_offset = conjecture_module._value_offset

    def shifted_mu(self, units):
        mu = mu_of(self, units)
        return mu + 1 if len(self.floors) == 4 else mu

    def shifted_offset(side1, side2, scale):
        # side 2's values line up with side 1's one unit off: each side's
        # groups keep their own mu_0, but the two no longer agree
        off = value_offset(side1, side2, scale)
        return None if off is None else off + 1

    def changed_group(self, t):
        g = group_of(self, t)
        if len(self.floors) != 4:
            return g
        r0 = 0 if how == "group_of drops r_1" else g.r[0] + 1
        return AbelianPGroup(g.p, (r0,) + g.r[1:])

    patches = {
        "mu_of": [(_Side, "mu_of", shifted_mu)],
        "_value_offset": [(conjecture_module, "_value_offset", shifted_offset)],
        "group_of bumps r_1": [(_Side, "group_of", changed_group)],
        "group_of drops r_1": [(_Side, "group_of", changed_group)],
    }[how]
    saved = [(target, name, getattr(target, name)) for target, name, _ in patches]
    try:
        for target, name, value in patches:
            setattr(target, name, value)
        search_counterexamples(2, 5, 4, 60)
    except VerificationError as exc:
        return str(exc)
    finally:
        for target, name, value in saved:
            setattr(target, name, value)
    return "no VerificationError"


BROKEN_SEARCHES = {
    "mu_of": "search group 2:34,1,1,2 does not have deficiency 43, mu_0 = 313/2",
    "_value_offset": "have unequal spectra",
    "group_of bumps r_1": "search group 2:35,1,1,2 does not have deficiency 43, mu_0 = 311/2",
    "group_of drops r_1": "search group 2:0,1,1,2 lacks large invariants",
}


@pytest.mark.parametrize("how", sorted(BROKEN_SEARCHES))
def test_search_check_fires(how):
    # a mu_0 or a group that does not match its deficiency and value, or
    # two sides whose genus progressions differ, fail loudly
    assert BROKEN_SEARCHES[how] in _search_broken(how)


def test_search_check_fires_under_optimized_interpreter():
    tests, src = Path(__file__).parent, Path(conjecture_module.__file__).parents[1]
    code = (
        f"import sys; sys.path[:0] = [{str(tests)!r}, {str(src)!r}]\n"
        "from test_conjecture import BROKEN_SEARCHES, _search_broken\n"
        "for how, message in BROKEN_SEARCHES.items():\n"
        "    print(message in _search_broken(how))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.stdout == "True\n" * len(BROKEN_SEARCHES), proc.stderr


def test_search_names_a_bad_exponent():
    # e is checked before e_tilde, so the error names the argument at fault
    for e, et in ((0, 0), (-3, 1)):
        with pytest.raises(InputError, match=f"^e must be >= 1, got {e}$"):
            search_counterexamples(2, e, et, 5)
    with pytest.raises(InputError, match=r"^e_tilde 3 outside \[1, 2\]$"):
        search_counterexamples(2, 2, 3, 5)


@pytest.mark.parametrize(
    "first, partner, args", [("2:1,1", "2:3", (2, 2, 1, 60)), ("2:2,1,1", "2:1,3", (2, 3, 2, 60))]
)
def test_search_leaves_out_the_mixed_class_read_backwards(first, partner, args):
    # the exponent-2^e group with r_e = 1 and a partner of smaller exponent
    # with r_e >= 2 and deficiency one more: both have large invariants and
    # the oracle finds one genus set, but no relation class of the search
    # holds the pair, so the search does not list it
    g1, g2 = parse_group(first), parse_group(partner)
    assert (g1.e, g2.e) == args[1:3] and (g1.r[-1], g2.delta - g1.delta) == (1, 1) and g2.r[-1] >= 2
    assert has_large_invariants(g1) and has_large_invariants(g2)
    top = 250
    genera = [
        {g for v in oracle_reduced_spectrum(G, HalfInt.of(top)) if (g := 1 + G.p_delta * v.twice // 2) <= top}
        for G in (g1, g2)
    ]
    assert genera[0] == genera[1] and len(genera[0]) > 2
    assert (g1, g2) not in {(q.g1, q.g2) for q in search_counterexamples(*args)}


def test_value_offset_checks_the_units():
    with pytest.raises(VerificationError, match="search sides count in units 2 and 1"):
        _value_offset(_Side(_floor_group(3, 3, 1)), _Side(_floor_group(2, 3, 2)), 1)


def test_search_checks_each_matched_value_once(monkeypatch):
    # one _window per side and listed deficiency (the witness walk reuses the
    # root reach built); one checked pass per side and matched deficiency,
    # which reads the floors, p^e and the weights, p^delta and N once, and
    # checks each witness's group; one mu_of per value and side; one
    # reduced_min_large per side's floor group; no per-group
    # genus_progression
    windows, minima, returned, passes, readers, checked, mus, steps = ([] for _ in range(8))
    window, witnesses, mu_of = _Side._window, _Side.witnesses, _Side.mu_of
    reduced_min = conjecture_module.reduced_min_large
    checked_groups = conjecture_module._checked_groups
    large_test = conjecture_module._large_test
    twice_min_reader = conjecture_module._twice_min_reader
    kulkarni_n = conjecture_module.kulkarni_n

    def counting_window(self, key):
        windows.append(key)
        return window(self, key)

    def counting_witnesses(self, *args):
        out = witnesses(self, *args)
        returned.append(len(out))
        return out

    def counting_pass(side, wanted, delta):
        passes.append((id(side), delta))
        return checked_groups(side, wanted, delta)

    def counting_reader(factory, name):
        def make(*args):
            readers.append(name)
            read = factory(*args)

            def counted(r):
                checked.append((name, r))
                return read(r)

            return counted

        return make

    def counting_mu(self, units):
        mus.append((len(passes), units))
        return mu_of(self, units)

    def counting_min(G):
        minima.append(G)
        return reduced_min(G)

    def counting_n(p_delta, epsilon):
        steps.append(p_delta)
        return kulkarni_n(p_delta, epsilon)

    def no_progression(G):
        raise AssertionError("genus_progression ran per group")

    monkeypatch.setattr(_Side, "_window", counting_window)
    monkeypatch.setattr(_Side, "witnesses", counting_witnesses)
    monkeypatch.setattr(_Side, "mu_of", counting_mu)
    monkeypatch.setattr(conjecture_module, "_checked_groups", counting_pass)
    monkeypatch.setattr(conjecture_module, "_large_test", counting_reader(large_test, "large"))
    monkeypatch.setattr(
        conjecture_module, "_twice_min_reader", counting_reader(twice_min_reader, "twice")
    )
    monkeypatch.setattr(conjecture_module, "kulkarni_n", counting_n)
    monkeypatch.setattr(conjecture_module, "reduced_min_large", counting_min)
    monkeypatch.setattr(conjecture_module, "genus_progression", no_progression)
    assert len(search_counterexamples(3, 5, 4, 350)) == 7205
    assert len(windows) == 2 * 164 == 328
    assert len(passes) == len(set(passes)) == 2 * 144 == 288
    assert sum(returned) == 11315 and len(returned) == 288
    assert Counter(readers) == {"large": 288, "twice": 288}
    assert Counter(name for name, _ in checked) == {"large": 11315, "twice": 11315}
    assert len(mus) == len(set(mus)) == 8396
    assert len(steps) == 288
    assert len(minima) == 2


def test_search_lists_pairs_by_deficiency_then_invariants():
    # each class lists its pairs in (delta, g1.r, g2.r) order, and the p = 2
    # classes' lists are merged into it; no two pairs share the key.  At
    # (2, 5, 4, 100) two of the three classes list pairs, interleaved
    for args, classes in (((3, 5, 4, 350), 1), ((2, 5, 4, 100), 2)):
        pairs = search_counterexamples(*args)
        keys = [(q.delta, q.g1.r, q.g2.r) for q in pairs]
        assert all(a < b for a, b in zip(keys, keys[1:])), args
        of = [(q.relation, q.g1.epsilon, q.g2.epsilon) for q in pairs]
        assert len(set(of)) == classes
        assert (sum(a != b for a, b in zip(of, of[1:])) > 1) == (classes > 1)


def test_deep_search_lists_nothing_under_small_caps():
    # at p = 2, e = 10^5 every class's floor deficiency is past 5, so no side
    # is built: a side's set-up alone would take gigabytes
    code = (
        "import sys\n"
        "from genus_spectrum import search_counterexamples\n"
        "from genus_spectrum.cli import run\n"
        "print(search_counterexamples(2, 100000, 1, 5))\n"
        "sys.exit(run(sys.argv[1:]))\n"
    )
    argv = ["search-talu", "--p", "2", "--e", "100000", "--e-tilde", "1", "--delta-max", "5"]

    def caps():
        resource.setrlimit(resource.RLIMIT_AS, (2 * 10**8, 2 * 10**8))
        resource.setrlimit(resource.RLIMIT_CPU, (10, 10))

    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=caps,
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout == "[]\n0 pair(s) with deficiency <= 5\n"


def test_classes_past_delta_max_are_dropped_before_their_sides(monkeypatch):
    # a class is dropped when delta_max is below its first side's floor
    # deficiency, or delta_max plus its offset below its second side's:
    # there its listing has no deficiency to try
    for p in (2, 3, 5):
        for e in range(1, 5):
            for et in range(1, e + 1):
                for side1, side2, offset, scale in _relation_classes(p, e, et):
                    floor = max(side1.delta0, side2.delta0 - offset)
                    off = _value_offset(side1, side2, scale) or 0
                    for delta_max in (floor - 2, floor - 1):
                        classes, _ = _overlap_classes(side1, side2, offset, delta_max, off)
                        assert classes == [], (p, e, et, offset, delta_max)
    built = []
    init = _Side.__init__

    def recording_init(self, floor_group):
        built.append((floor_group.e, floor_group.r[-1]))
        init(self, floor_group)

    monkeypatch.setattr(_Side, "__init__", recording_init)
    # side (6, 2) starts at deficiency 21, side (6, 1) at 15 and the e_tilde
    # = 1 sides at 1 and 0.  Up to 17 only the class of the two pinned
    # sides is kept, and below 15 none
    assert search_counterexamples(2, 6, 1, 17) == []
    assert built == [(6, 1), (1, 1)]
    built.clear()
    assert search_counterexamples(2, 6, 1, 14) == [] and built == []


# SHA-256 of each search's pairs as (g1.r, g2.r, delta1, delta2, 2 mu1, 2 mu2,
# relation): a change to the search's internals must list the same pairs
PAIR_DIGESTS = {
    (3, 5, 4, 350, None): "bcaa249d14fb2bd6ff7182d366d284c94eafe03dfd1c57c0d59673092d3b4105",
    (2, 5, 4, 100, None): "305ef219c0a4af24584628773ecd9f1f1fdacae2afafe501fb823c6f461bc23b",
    (2, 4, 4, 86, RELATION_MIXED): "9573fd37c8fa38ec4a3f63bb60e1f78ad8dbecf51e1faa9543cffc373cf16bba",
    (5, 7, 6, 1119, None): "fc2478f7ead79c140ea160b69ec16aaf85ff7f1b0fd3b25ceb52c4cb2d4054bd",
    (2, 8, 7, 8220, RELATION_MIXED): "ce1a3cf1223f75c581728d07f25f5f4ceabbc255b9634dc8e9945ec414b61ab1",
}


@pytest.mark.parametrize("args", sorted(PAIR_DIGESTS, key=str))
def test_search_pair_lists_are_pinned(args):
    pairs = search_counterexamples(*args)
    rows = [(q.g1.r, q.g2.r, q.delta1, q.delta2, q.mu1.twice, q.mu2.twice, q.relation) for q in pairs]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == PAIR_DIGESTS[args]


@pytest.mark.parametrize("args", [(3, 5, 4, 350), (2, 5, 4, 100)])
def test_search_groups_behave_like_public_builds(args):
    # each group _Side.group_of builds from its floors and a free vector must
    # be indistinguishable from the public build of the same p and r
    groups = {g.r: g for q in search_counterexamples(*args) for g in (q.g1, q.g2)}
    assert len(groups) > 1000
    for g in groups.values():
        public = AbelianPGroup(g.p, g.r)
        assert vars(g) == vars(public) and type(g.p) is int
        assert g == public and hash(g) == hash(public)
        assert repr(g) == repr(public) and str(g) == g.encode() == public.encode()
        assert g.s == public.s and vars(g) == vars(public)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g == public and vars(copy) == vars(g)
        assert dataclasses.replace(g) == g == dataclasses.replace(public)
