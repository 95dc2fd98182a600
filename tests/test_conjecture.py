import gc
import subprocess
import sys
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
    OutOfRangeError,
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
    with pytest.raises(OutOfFamilyError):
        e3_family(parse_group("2:1,6,1"), 1)  # top-summand class flips
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
    # wrap the side constructor and witness recovery the way bench/tracer.py does
    built: list[_Side] = []
    asked: list[tuple[int, int]] = []
    derived: list[tuple[int, tuple]] = []
    init, witnesses, kids = _Side.__init__, _Side.witnesses, _Side._kids

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    def counting_witnesses(self, d, lo, hi, wanted):
        asked.append((id(self), d))
        return witnesses(self, d, lo, hi, wanted)

    def counting_kids(self, key):
        if key[0]:
            derived.append((id(self), key))
        return kids(self, key)

    monkeypatch.setattr(_Side, "__init__", counting_init)
    monkeypatch.setattr(_Side, "witnesses", counting_witnesses)
    monkeypatch.setattr(_Side, "_kids", counting_kids)

    assert len(search_counterexamples(2, 5, 4, 60)) == 65
    # one witness walk per side and deficiency, whatever the matched values
    assert asked and len(asked) == len(set(asked))
    # each memo key below a root derives its children once per side: the
    # witness walk follows the memo's links instead
    assert derived and len(derived) == len(set(derived))
    built.clear()
    search_counterexamples(2, 4, 4, 40)
    # the two same-lattice classes each read one side; the mixed class two
    assert len(built) == 4


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


def test_witness_recovery_leaves_no_reference_cycles():
    side = _Side(3, 5, 1, 1)
    targets = []
    for d in range(max(60 - side.delta0, 0) + 1):
        lo, hi = side._envelope(0, d)
        bits = side.reach(d, lo, hi)
        if bits:
            targets.append((d, lo, hi, bits))
    gc.collect()
    gc.disable()
    try:
        found = [side.witnesses(d, lo, hi, bits) for d, lo, hi, bits in targets[:5]]
        leaked = gc.collect()
    finally:
        gc.enable()
    assert len(found) == 5 and all(found)
    assert leaked == 0


def test_search_matches_bitset_join_reference(monkeypatch):
    # the windowed join against the full-width bitset join of tests/helpers.py:
    # the same matched (deficiency, value) on each side and the same pairs
    seen: set[tuple] = set()
    witnesses = _Side.witnesses

    def recording_witnesses(self, d, lo, hi, wanted):
        base = self.scale * self.base_twice
        for b in range(wanted.bit_length()):
            if wanted >> b & 1:
                seen.add((self.floors, self.scale, self.delta0 + d, base + self.unit * (lo + b)))
        return witnesses(self, d, lo, hi, wanted)

    monkeypatch.setattr(_Side, "witnesses", recording_witnesses)
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
    side = _Side(3, 4, 1, 1)
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
        found = side.witnesses(d, lo, hi, wanted)
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
        specs = [(2, False, 1), (1, True, 1), (2, False, 2)] if p == 2 else [(max(p - 2, 1), False, 1)]
        for e in range(1, 7):
            for top, pin, scale in specs:
                assert pin == (p == 2 and top == 1)
                floor = AbelianPGroup(p, (p - 1,) * (e - 1) + (top,))
                for delta_max in (floor.delta - 1, floor.delta + 120):
                    side = _Side(p, e, top, scale)
                    dmax = max(delta_max - side.delta0, 0)
                    values = [scale * c for c in weights(p, e)][: e - 1 if pin else e]
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
    side = _Side(3, 5, 1, 1)
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
    # on every relation-table row (the pinned p = 2 side and the scale-2 side
    # too), for root windows of several widths and every memo key below them
    # the children equal those found when every count of the coin is tried
    cut = []
    for p in (2, 3, 5, 7):
        specs = [(2, 1), (1, 1), (2, 2)] if p == 2 else [(p - 2, 1)]
        for e in range(1, 6):
            for top, scale in specs:
                side = _Side(p, e, top, scale)
                n = len(side.coins)
                roots = []
                for d in range(41):
                    env = side._envelope(0, d)
                    if env is not None:
                        lo, hi = env
                        third = (hi - lo) // 3
                        roots += [(0, d, lo, hi), (0, d, lo + third, hi - third), (0, d, hi, hi)]
                for key in roots:
                    if n:
                        side.reach(*key[1:])
                for key in roots + list(side._memo):
                    if key[0] < n:
                        cut.append((side, key, side._kids(key)))

    def every_count(self, key):
        return range(key[1] // self.coins[key[0]][0] + 1)

    monkeypatch.setattr(_Side, "_counts", every_count)
    for side, key, kids in cut:
        assert side._kids(key) == kids, (side.p, side.floors, side.scale, key)
    assert len(cut) > 10000


def test_memo_entries_link_their_live_children(monkeypatch):
    # after a search, every memo entry of each side is (bits, live) with bits
    # the OR of its live children's bits at their shifts; every listed child
    # reaches a value and is an entry the memo holds, the counts ascend, and
    # every key past the last coin is the leaf (1, ())
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
        held = {id(entry) for entry in side._memo.values()}
        for key, (bits, live) in side._memo.items():
            if key[0] == n:
                assert (bits, live) == (1, ()), key
                continue
            assert bits == reduce(or_, (kid[0] << shift for _, shift, kid in live), 0), key
            assert all(kid[0] and id(kid) in held for _, _, kid in live), key
            ks = [k for k, _, _ in live]
            assert ks == sorted(set(ks)), key
            checked += 1
    assert checked > 5000


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
    # (side1, side2, deficiency offset) per row of the search's relation table
    rows = [((2, 1), (2, 1), 0), ((1, 1), (1, 1), 0), ((2, 2), (1, 1), -1)] if p == 2 else [
        ((p - 2, 1), (p - 2, 1), 0)
    ]
    for spec1, spec2, offset in rows:
        side1 = _Side(p, e, *spec1)
        yield side1, side1 if (e, spec1) == (et, spec2) else _Side(p, et, *spec2), offset


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
                for side1, side2, offset in _relation_classes(p, e, et):
                    coinless += not (side1.coins and side2.coins)
                    own = (side2.scale * side2.base_twice - side1.scale * side1.base_twice) // (
                        side1.unit or side2.unit or 1
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
    ((side1, side2, offset),) = _relation_classes(p, e, et)
    classes, _ = _overlap_classes(side1, side2, offset, delta_max, _value_offset(side1, side2))
    assert sum(map(len, classes)) == count


def test_overlap_listing_of_the_mixed_search():
    # one deficiency of 8 185 passes at (2, 8, 7, 8220, mixed), one value wide
    side1, side2 = _Side(2, 8, 2, 2), _Side(2, 7, 1, 1)
    classes, width = _overlap_classes(side1, side2, -1, 8220, _value_offset(side1, side2))
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
    ((side1, side2, offset),) = _relation_classes(3, 5, 4)
    off = _value_offset(side1, side2)
    classes, width = _overlap_classes(side1, side2, offset, 350, off)
    assert len(_search_class(side1, side2, offset, off, classes, width, RELATION_SAME)) == 7205
    listed = set(merge(*classes))
    missing = next(d for d in range(side1.delta0, 351) if d not in listed)
    broken = classes + [range(missing, missing + 1)]
    with pytest.raises(VerificationError, match=f"deficiency {missing}"):
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
    with pytest.raises(OutOfRangeError, match="177 deficiencies .* 335495427835587 units"):
        search_counterexamples(11, 13, 12, 19629)
    with pytest.raises(OutOfRangeError, match="up to 1000000000000 "):
        search_counterexamples(3, 5, 4, 10**12)


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
    # each matched value's pairs are counted first: len(gs1) * len(gs2), or
    # n (n - 1) / 2 on a shared side; past the budget the class is refused
    assert PAIR_LIMIT == 10**5
    for e, et, dmax, total in ((5, 4, 350, 7205), (4, 4, 60, 13256)):
        side1, side2, offset = next(_relation_classes(3, e, et))
        off = _value_offset(side1, side2)
        listed = _overlap_classes(side1, side2, offset, dmax, off)
        pairs = _search_class(side1, side2, offset, off, *listed, RELATION_SAME)
        assert len(pairs) == total
        assert _search_class(side1, side2, offset, off, *listed, RELATION_SAME, len(pairs)) == pairs
        with pytest.raises(OutOfRangeError, match="limit of 100000 pairs"):
            _search_class(side1, side2, offset, off, *listed, RELATION_SAME, len(pairs) - 1)


def _search_broken(how: str) -> str:
    """Run search_counterexamples(2, 5, 4, 60) with one part of its join
    broken as `how` says (on the exponent-2^4 side, where a side is named),
    and return the message of the VerificationError its check raises."""
    mu_of, group_of = _Side.mu_of, _Side.group_of
    value_offset = conjecture_module._value_offset

    def shifted_mu(self, units):
        mu = mu_of(self, units)
        return mu + 1 if len(self.floors) == 4 else mu

    def shifted_offset(side1, side2):
        # side 2's values line up with side 1's one unit off: each side's
        # groups keep their own mu_0, but the two no longer agree
        off = value_offset(side1, side2)
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


def test_search_checks_each_matched_value_once(monkeypatch):
    # one _window per side and listed deficiency (the witness walk reuses the
    # root reach built), one reduced_min_large per witness and per side's
    # floor group, and no per-group genus_progression
    windows, minima, returned = [], [], []
    window, witnesses = _Side._window, _Side.witnesses
    reduced_min = conjecture_module.reduced_min_large

    def counting_window(self, key):
        windows.append(key)
        return window(self, key)

    def counting_witnesses(self, *args):
        out = witnesses(self, *args)
        returned.append(len(out))
        return out

    def counting_min(G):
        minima.append(G)
        return reduced_min(G)

    def no_progression(G):
        raise AssertionError("genus_progression ran per group")

    monkeypatch.setattr(_Side, "_window", counting_window)
    monkeypatch.setattr(_Side, "witnesses", counting_witnesses)
    monkeypatch.setattr(conjecture_module, "reduced_min_large", counting_min)
    monkeypatch.setattr(conjecture_module, "genus_progression", no_progression)
    assert len(search_counterexamples(3, 5, 4, 350)) == 7205
    assert len(windows) == 2 * 164 == 328
    assert sum(returned) == 11315
    assert len(minima) == 11315 + 2
