"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately dumb: plain bounded enumeration with no
pruning cleverness, so that agreement with the production code means two
independent routes reached the same answer.
"""

from __future__ import annotations

import re
from itertools import product

import pytest

from genus_spectrum import (
    RELATION_MIXED,
    RELATION_SAME,
    AbelianPGroup,
    HalfInt,
    IndexMinimum,
    MinGenusReport,
    OutOfRangeError,
    PDatum,
    attaining_datum,
    classify_gamma_seq,
    e_prime,
    envelope,
    epsilon_i,
    gamma,
    hull,
    index_set,
    is_admissible,
    mu0,
    reduced_genus,
    wp_eval,
)
from genus_spectrum.signature import genus_of


def refused(text: str):
    """pytest.raises for an OutOfRangeError whose message is exactly text."""
    return pytest.raises(OutOfRangeError, match=f"^{re.escape(text)}$")


def nonincreasing_seqs(length: int, max_entry: int, min_entry: int = 0):
    """All non-increasing sequences of the given length with bounded entries."""
    if length == 0:
        yield ()
        return
    for first in range(min_entry, max_entry + 1):
        for rest in nonincreasing_seqs(length - 1, first, min_entry):
            yield (first,) + rest


def naive_mainline_members(p: int, a, limit: int) -> set[int]:
    """All wp(b) <= limit over non-increasing b dominating a, by enumeration."""
    t = hull(a)
    e = len(t)
    out: set[int] = set()

    def rec(i: int, ceiling: int | None, value: int) -> None:
        if i == e:
            out.add(value)
            return
        weight = p ** (e - 1 - i)
        b = t[i]
        while (ceiling is None or b <= ceiling) and value + b * weight <= limit:
            rec(i + 1, b, value + b * weight)
            b += 1

    rec(0, None, 0)
    return out


def marks_by_sets(progressions, lo: int, step: int, n: int) -> str:
    """The marks of lo, lo + step, ... (n values), "1" where some progression
    (c, v) lands, by collecting every value in a set."""
    found: set[int] = set()
    for c, v in progressions:
        found.update(range(v, lo + n * step, c))
    return "".join("01"[lo + k * step in found] for k in range(n))


def progressions_by_walk(coeffs, floors, bound: int, starts) -> list[tuple[int, int]]:
    """Values <= bound of v + sum(y_i * coeffs[i-1]) as (step, least start)
    pairs, for the starts of `mainline._reach`, by walking partial values.

    Each level holds the set of states (partial value, tail sum capped at
    floors[0], step) that its loops pass; each loop runs to its end or to a
    state already passed, and adds each state's child loop head, unless past
    the bound, to the level below.  The innermost y_1 is unbounded above, so
    its values form one progression; per (step, residue) only the least
    start is kept.  A start at f = 0 is the progression v + x + step * N_0.
    """
    cap = floors[0]
    level: list[set[tuple[int, int, int]]] = [set() for _ in coeffs]
    out = [(step, v + x) for f, v, _, x, step in starts if f == 0]
    for i, v, cover, x, step in starts:
        if i:
            level[i - 1].add((v + coeffs[i - 1] * x, min(cover + x, cap), step))
    for i in range(len(coeffs) - 1, 0, -1):
        c, low, floor, below = coeffs[i], coeffs[i - 1], floors[i - 1], level[i - 1]
        passed = level.pop()
        for v, tail, step in list(passed):
            while v <= bound:
                if tail >= floor:
                    below.add((v, tail, 1))
                elif (first := v + low * (floor - tail)) <= bound:
                    below.add((first, floor, 1))
                v, tail = v + c * step, min(tail + step, cap)
                if (state := (v, tail, step)) in passed:
                    break
                passed.add(state)
    c = coeffs[0]
    lowest: dict[tuple[int, int], int] = {}  # (step, residue) -> least start
    for v, _, step in level.pop():
        key = (c * step, v % (c * step))
        if v < lowest.get(key, bound + 1):
            lowest[key] = v
    return out + [(c, v) for (c, _), v in lowest.items()]


def admissible_marks_by_walk(G: AbelianPGroup, twice_bound: int) -> str:
    """The marks of `spectrum._admissible_twice`, from the same loop starts,
    by `progressions_by_walk` and `marks_by_sets`."""
    lo, step = -2 // G.epsilon, 2 // G.epsilon
    p, e, s, ep = G.p, G.e, G.s, e_prime(G)
    pe = p**e
    starts = [
        (f, 2 * (h - 1) * pe, 2 * h, max(2, s[f - 1] - 2 * h), 2 if p == 2 and ep < f else 1)
        for h in range(twice_bound // (2 * pe) + 2)
        for f in range(1, e + 1)
        if 2 * h >= s[f] - 1
    ]
    starts.append((0, 2 * (s[0] // 2 - 1) * pe, 0, 0, 2 * pe))
    progressions = progressions_by_walk(weights(p, e), s, twice_bound, starts)
    return marks_by_sets(progressions, lo, step, max((twice_bound - lo) // step + 1, 0))


def profile_holes_by_walk(p: int, a) -> tuple[int, ...]:
    """The integers from mu + 1 to wp(envelope) - 1 that are not mainline, by
    `progressions_by_walk` and `marks_by_sets`."""
    t = hull(a)
    e = len(t)
    mu, upper = wp_eval(p, t), wp_eval(p, envelope(p, t))
    q = [wp_eval(p, [1] * j + [0] * (e - j)) for j in range(1, e + 1)]
    progressions = progressions_by_walk(q, t, upper - 1, [(e, 0, 0, t[-1], 1)])
    marks = marks_by_sets(progressions, mu, 1, upper - mu)
    return tuple(mu + k for k in range(1, upper - mu) if marks[k] == "0")


def weights(p: int, e: int) -> list[int]:
    """The period weights p^e - p^{e-i}, i = 1..e."""
    pe = p**e
    return [pe - p ** (e - i) for i in range(1, e + 1)]


def data_within(G: AbelianPGroup, bound: HalfInt | int):
    """Every datum with reduced genus <= bound, admissible or not."""
    bound = HalfInt.coerce(bound)
    p, e = G.p, G.e
    pe = p**e
    twice = bound.twice
    h_max = max(twice // (2 * pe) + 1, 0)
    x_max = [(twice + 2 * pe) // c for c in weights(p, e)]
    for h in range(h_max + 1):
        for x in product(*(range(m + 1) for m in x_max)):
            d = PDatum(x, h)
            if reduced_genus(G, d) <= bound:
                yield d


def admissible_values(G: AbelianPGroup, bound: HalfInt | int) -> tuple[HalfInt, ...]:
    """Reduced spectrum up to bound via the arithmetic criterion, dumbly."""
    vals = {reduced_genus(G, d) for d in data_within(G, bound) if is_admissible(G, d)}
    return tuple(sorted(vals))


def block_route_values(G: AbelianPGroup, bound: HalfInt | int) -> tuple[HalfInt, ...]:
    """Reduced spectrum up to bound via block membership of gamma sequences."""
    bound = HalfInt.coerce(bound)
    p, e = G.p, G.e
    # gamma >= -p^e + ((p-1)/2) a_1 p^(e-1), so a_1 is bounded by the target
    cap = (bound.twice + 2 * p**e) // ((p - 1) * p ** (e - 1)) + 2
    vals = set()
    for seq in nonincreasing_seqs(e + 1, cap):
        if seq[-1] % 2 != 0:
            continue
        value = gamma(p, e, seq)
        if value <= bound and classify_gamma_seq(G, seq) is not None:
            vals.add(value)
    return tuple(sorted(vals))


def all_groups(primes, max_e: int, max_r: int, min_log_order: int = 1, max_log_order: int = 10**9):
    """Every group with the given prime list, exponent bound and entry bound."""
    for p in primes:
        for e in range(1, max_e + 1):
            for r in product(*(range(max_r + 1) for _ in range(e))):
                if r[-1] < 1:
                    continue
                G = AbelianPGroup(p, r)
                if min_log_order <= G.log_order <= max_log_order:
                    yield G


def brute_min_reduced(G: AbelianPGroup) -> tuple[HalfInt, tuple[PDatum, ...]]:
    """Minimum of the reduced genus over admissible data, with its witnesses.

    Enumeration is exhaustive below the candidate minimum + 1, which is
    enough to confirm or refute a claimed minimum.
    """
    best: HalfInt | None = None
    witnesses: list[PDatum] = []
    # start from a generous cap: the period-free datum with 2h = s_1 (+1)
    h0 = (G.s[0] + 1) // 2
    cap = reduced_genus(G, PDatum((0,) * G.e, h0))
    for d in data_within(G, cap):
        if not is_admissible(G, d):
            continue
        v = reduced_genus(G, d)
        if best is None or v < best:
            best, witnesses = v, [d]
        elif v == best:
            witnesses.append(d)
    assert best is not None
    return best, tuple(witnesses)


def blocks_containing(G: AbelianPGroup, seq) -> list[int]:
    """The indices i = 0, ..., e of the admissibility blocks holding the gamma
    sequence seq, by testing every block in turn against its definition."""
    s, ep = G.s, e_prime(G)
    out = []
    for i in range(G.e + 1):
        ok = all(seq[j] >= s[j] for j in range(i))
        ok = ok and len(set(seq[i:])) == 1 and seq[i] >= s[i] - 1
        if i >= 1:
            drop = seq[i - 1] - seq[i]
            ok = ok and drop >= 2 and not (G.p == 2 and i > ep and drop % 2 != 0)
        if ok:
            out.append(i)
    return out


def back_indices(G: AbelianPGroup, i: int) -> tuple[int, int]:
    """(i'', i'): maximal j < i with s_j - s_i >= 2 resp. >= 1; 0 if none."""
    s = G.s
    i_prime = next((j for j in range(i - 1, 0, -1) if s[j - 1] - s[i - 1] >= 1), 0)
    i_dprime = next((j for j in range(i_prime, 0, -1) if s[j - 1] - s[i - 1] >= 2), 0)
    return i_dprime, i_prime


def min_gamma_by_route(G: AbelianPGroup, i: int) -> IndexMinimum:
    """One block's minimum by wp_eval, hull and gamma on that block alone."""
    p, e, s = G.p, G.e, G.s
    eps = epsilon_i(G, i)
    tail = 2 * (s[i] // 2)
    prefix_wp = wp_eval(p, s[:i]) if i > 0 else 0
    mu = HalfInt(-2 * p**e + p ** (e - i) * (tail + (p - 1) * prefix_wp))
    correction = HalfInt(0)
    if eps:
        i_dprime, i_prime = back_indices(G, i)
        correction = HalfInt(p ** (e - i_prime) - p ** (e - i))
        if eps == 2:
            correction += HalfInt(p ** (e - i_dprime) - p ** (e - i))
    bumped = list(s[:i])
    if i > 0:
        bumped[i - 1] += eps
    attaining = hull(tuple(bumped) + (tail,) * (e + 1 - i))
    min_value = gamma(p, e, attaining)
    assert min_value == mu + correction, (G, i)
    return IndexMinimum(index=i, epsilon=eps, mu=mu, min_value=min_value, attaining=attaining)


def mu0_by_route(G: AbelianPGroup) -> MinGenusReport:
    """The reduced minimum genus report, one block at a time."""
    per_index = {i: min_gamma_by_route(G, i) for i in range(G.e + 1)}
    idx = index_set(G)
    value = min(per_index[i].mu for i in idx)
    data = tuple(attaining_datum(G, i) for i in idx if per_index[i].mu == value)
    return MinGenusReport(
        mu0=value,
        minimum_genus=genus_of(G.p_delta, value),
        index_set=idx,
        per_index=per_index,
        attaining_data=data,
    )


def _bitset_side(p: int, e: int, top_floor: int, pin_top: bool, scale: int, delta_max: int):
    """One side of a search class: floors, their deficiency, the scaled base
    scale * (twice mu_0 of the floor group, by the block route), the coins
    (i, scale * c_i) and the full-width reach slices: bit x of slice d is set
    when some t >= 0 with sum(i t_i) = d has sum(scale c_i t_i) = x."""
    floors = (p - 1,) * (e - 1) + (top_floor,)
    floor_group = AbelianPGroup(p, floors)
    base = scale * mu0(floor_group).mu0.twice
    coins = [
        (i, scale * c) for i, c in enumerate(weights(p, e), start=1) if not (pin_top and i == e)
    ]
    slices = [1]
    for d in range(1, max(delta_max - floor_group.delta, 0) + 1):
        cur = 0
        for w, v in coins:
            if d >= w:
                cur |= slices[d - w] << v
        slices.append(cur)
    return floors, floor_group.delta, base, coins, slices


def envelope_tables(coins, dmax: int):
    """(smin, smax): entry [j][d] is the least / greatest value of the vectors
    of weight d over coins[j:], or None when none has weight d, for d = 0 ..
    dmax, by relaxation over every weight instead of a closed form.  Row j
    copies row j + 1 (no coin j) and relaxes it in place in ascending d, so
    entry d - w is final when d reads it and coin j may repeat."""
    lo_row: list[int | None] = [0] + [None] * dmax
    hi_row = lo_row[:]
    smin, smax = [lo_row], [hi_row]
    for w, v in reversed(coins):
        lo_row, hi_row = lo_row[:], hi_row[:]
        for d in range(w, dmax + 1):
            lo, hi = lo_row[d - w], hi_row[d - w]
            if lo is None:
                continue
            if lo_row[d] is None:
                lo_row[d], hi_row[d] = lo + v, hi + v
            else:
                lo_row[d], hi_row[d] = min(lo_row[d], lo + v), max(hi_row[d], hi + v)
        smin.append(lo_row)
        smax.append(hi_row)
    return smin[::-1], smax[::-1]


def overlap_windows_by_scan(side1, side2, offset: int, delta_max: int, off: int) -> list[tuple]:
    """(delta1, lo, hi) for each deficiency delta1 <= delta_max, ascending, at
    which side 1's envelope meets side 2's at delta1 + offset shifted by off,
    with [lo, hi] the overlap, by testing every deficiency in turn instead of
    listing them by residue class."""
    out = []
    for delta1 in range(max(side1.delta0, side2.delta0 - offset), delta_max + 1):
        env1 = side1._envelope(0, delta1 - side1.delta0)
        env2 = side2._envelope(0, delta1 + offset - side2.delta0)
        if env1 is None or env2 is None:
            continue
        (lo1, hi1), (lo2, hi2) = env1, env2
        if lo1 <= hi2 + off and lo2 + off <= hi1:
            out.append((delta1, max(lo1, lo2 + off), min(hi1, hi2 + off)))
    return out


def free_vectors(coins, d: int) -> dict[int, list[tuple[int, ...]]]:
    """Every t >= 0 over the coins with weight d, keyed by its value."""
    out: dict[int, list[tuple[int, ...]]] = {}

    def rec(j: int, rest: int, value: int, t: tuple[int, ...]) -> None:
        if j == len(coins):
            if rest == 0:
                out.setdefault(value, []).append(t)
            return
        w, v = coins[j]
        for k in range(rest // w + 1):
            rec(j + 1, rest - k * w, value + k * v, t + (k,))

    rec(0, d, 0, ())
    return out


def bitset_join(p: int, e: int, e_tilde: int, delta_max: int, relation: str | None = None):
    """The varying-exponent search by full-width bitset slices per deficiency.

    Returns (matched, pairs).  matched holds (floors, scale, deficiency,
    scale * twice mu_0) for each side of every value both sides of a class
    reach; pairs lists (delta1, delta2, r1, r2, mu1, mu2, relation) in the
    order of search_counterexamples.  The classes and the p = 2 convention
    are the search's; the join, the shifts and the witnesses are not.  A
    class whose two sides are one side with at most one coin adds no
    matched value, as the search skips it, but its pairs are still joined.
    """
    top = max(p - 2, 1)
    if p != 2:
        classes = [((top, False, 1), (top, False, 1), 0, RELATION_SAME)]
    else:
        classes = [
            ((2, False, 1), (2, False, 1), 0, RELATION_SAME),
            ((1, True, 1), (1, True, 1), 0, RELATION_SAME),
            ((2, False, 2), (1, True, 1), -1, RELATION_MIXED),
        ]
    matched: set[tuple] = set()
    pairs: list[tuple] = []
    for spec1, spec2, offset, label in classes:
        if relation not in (None, label):
            continue
        shared = (e, spec1) == (e_tilde, spec2)
        floors1, delta01, base1, coins1, slices1 = _bitset_side(p, e, *spec1, delta_max)
        floors2, delta02, base2, coins2, slices2 = _bitset_side(p, e_tilde, *spec2, delta_max)
        origin = min(base1, base2)
        for delta1 in range(delta01, delta_max + 1):
            delta2 = delta1 + offset
            if not 0 <= delta2 - delta02 < len(slices2):
                continue
            both = (slices1[delta1 - delta01] << (base1 - origin)) & (
                slices2[delta2 - delta02] << (base2 - origin)
            )
            if not both:
                continue
            vectors1 = free_vectors(coins1, delta1 - delta01)
            vectors2 = free_vectors(coins2, delta2 - delta02)
            for x in range(both.bit_length()):
                if not both >> x & 1:
                    continue
                value = origin + x
                if not (shared and len(coins1) <= 1):
                    matched.add((floors1, spec1[2], delta1, value))
                    matched.add((floors2, spec2[2], delta2, value))
                # a pinned top takes no coin, so its t is one short and r_e
                # keeps its floor
                for t1 in vectors1[value - base1]:
                    for t2 in vectors2[value - base2]:
                        r1 = tuple(f + k for f, k in zip(floors1, t1 + (0,)))
                        r2 = tuple(f + k for f, k in zip(floors2, t2 + (0,)))
                        if not shared or r1 < r2:
                            mu1 = HalfInt(value // spec1[2])
                            mu2 = HalfInt(value // spec2[2])
                            pairs.append((delta1, delta2, r1, r2, mu1, mu2, label))
    pairs.sort(key=lambda q: (max(q[0], q[1]), q[2], q[3]))
    return matched, pairs
