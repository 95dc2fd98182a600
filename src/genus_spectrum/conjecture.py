"""Searches for non-isomorphic abelian p-groups sharing a genus spectrum.

For groups with large invariants the spectrum is the arithmetic progression
start + step * N_0 with start = 1 + p^delta mu_0 and step = p^delta / epsilon,
so spectrum equality is a finite arithmetic condition.  Two constructions
produce equal-spectrum pairs:

* fixed exponent p^3: the defining invariants may be shifted by integer
  multiples of the kernel vector rho(p) = (p+2, -2p-1, p) of the matrix
  pairing (order, mu_0) against the invariants;

* varying exponent: an exhaustive search over invariant sequences, grouped
  by cyclic deficiency.  Sequences of exponent p^e and deficiency delta form
  a knapsack family (weights i, values p^e - p^{e-i}).  The values are
  concave in i, so the exact min/max envelopes of the mu_0 values of each
  exponent are closed forms in the deficiency, linear on each residue class
  of deficiencies modulo the lcm of the two coin counts.  The deficiencies
  whose envelopes overlap are therefore listed class by class, not tested
  one by one, and only the overlap of the two envelopes is searched: each
  side computes, as a bitset over that window, the values it reaches, from a
  memo with one entry per (coin, remaining weight) that serves every
  deficiency.  An entry keeps one window of values, which only grows: a
  request outside it derives only the missing part and ORs it in, so each
  value of an entry's window is derived once.
  Each entry keeps links to the children that reach a value, so the witness
  recovery follows the links and derives nothing again.  A part of a window
  tries only the counts of its coin that can meet it: the later coins'
  least and greatest value per weight bound every value below each count,
  and a count whose bounds miss the part would fail the exact envelope test
  anyway.  This keeps the search exhaustive for deficiencies in the
  thousands, far beyond direct enumeration.

For p = 2 the varying-exponent search runs three classes, by whether each
group repeats its top summand (r_e >= 2, the half-integral reduced lattice)
or not (r_e = 1).  The same-lattice relation covers two of them, both groups
with r_e >= 2 or both with r_e = 1, at equal deficiency and equal mu_0.  The
mixed relation pairs a group of exponent p^e (the first one) with r_e >= 2
with a partner with r_e = 1, of deficiency smaller by one and doubled mu_0.
The mixed class read backwards, r_e = 1 on the exponent-p^e side, is not
searched (see search_counterexamples).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from math import gcd, lcm
from operator import add

from .errors import (
    InputError,
    InvalidInvariantsError,
    OutOfFamilyError,
    UnsupportedError,
    VerificationError,
    _as_int,
    _int_in,
    _within,
)
from .group import AbelianPGroup, _power_exponent, _prime
from .group import is_prime, kulkarni_n
from .halfint import HalfInt
from .signature import genus_of, period_weights
from .spectrum import closed_form_spectrum, full_spectrum, genus_view, has_large_invariants
from .spectrum import _large_test, _twice_min_reader, reduced_min_large

RELATION_SAME = "equal_spectrum_same_lattice"
RELATION_MIXED = "equal_spectrum_p2_mixed"

# Most overlap-window units, summed over every deficiency and relation class,
# that one search may work on (see search_counterexamples).
SEARCH_WIDTH_LIMIT = 10**9

# Most pairs, summed over every relation class, that one search may list (see
# search_counterexamples).
PAIR_LIMIT = 10**5


def rho(p: int) -> tuple[int, int, int]:
    """Kernel vector (p+2, -2p-1, p) of the (order, mu_0) pairing at e = 3."""
    p = _prime(p)
    return (p + 2, -2 * p - 1, p)


def e3_family(G: AbelianPGroup, k: int) -> AbelianPGroup:
    """Shift the invariants of an exponent-p^3 group by k * rho(p).

    Source and image must both satisfy the large-invariant hypothesis and
    share epsilon (for p = 2, whether the top summand repeats); then the
    shifted group shares order, exponent and full spectrum with G.
    """
    if G.e != 3:
        raise UnsupportedError(f"the kernel family needs exponent p^3, got {G}")
    if not has_large_invariants(G):
        raise OutOfFamilyError(f"{G} does not satisfy the large-invariant hypothesis")
    vec = rho(G.p)
    k = _as_int(k)
    r = tuple(G.r[i] + k * vec[i] for i in range(3))
    try:
        shifted = AbelianPGroup(G.p, r)
    except InvalidInvariantsError:
        shifted = None
    if shifted is None or not has_large_invariants(shifted):
        raise OutOfFamilyError(f"shift by k={k} leaves the large-invariant family: {r}")
    if shifted.epsilon != G.epsilon:
        raise OutOfFamilyError(
            f"shift by k={k} changes the top-summand parity class: {G.r} -> {r}"
        )
    return shifted


def genus_progression(G: AbelianPGroup) -> tuple[int, int]:
    """(start, step) with sp(G) = start + step * N_0, for large invariants."""
    view = genus_view(G, closed_form_spectrum(G))
    return view.min_genus, view.step


def spectra_equal(g1: AbelianPGroup, g2: AbelianPGroup) -> bool:
    """Exact spectrum equality: the spectrum descriptors agree at the genus level."""
    return genus_view(g1, full_spectrum(g1)) == genus_view(g2, full_spectrum(g2))


def varying_exponent_pair(p: int) -> tuple[AbelianPGroup, AbelianPGroup]:
    """The equal-spectrum series with exponents p^(p+2) and p^(p+1), p odd.

    Both groups have the deficiency delta, 2 delta = 2p^4 + 7p^3 + 6p^2 - 5p
    - 12.  Where p^delta may pass POWER_BITS_LIMIT bits (p >= 31) it raises
    OutOfRangeError before building the p + 2 invariants."""
    p = _as_int(p)
    if not is_prime(p) or p == 2:
        raise UnsupportedError(f"the varying-exponent series needs an odd prime, got {p}")
    delta = (2 * p**4 + 7 * p**3 + 6 * p**2 - 5 * p - 12) // 2
    _power_exponent(p, delta, "p^delta", "the varying-exponent pair")
    r = (p - 1,) * p + (p, p**3 + p**2 - 2)
    if p == 3:
        rt: tuple[int, ...] = (177, 3, 2, 1)
    else:
        rt = (p**4 + 3 * p**3 + 2 * p**2 - p - 1,) + (p - 1,) * (p - 4) + (p, p, p - 1, p - 2)
    return AbelianPGroup(p, r), AbelianPGroup(p, rt)


@dataclass(frozen=True)
class CounterexamplePair:
    """Two non-isomorphic groups with identical genus spectra."""

    g1: AbelianPGroup
    g2: AbelianPGroup
    delta1: int
    delta2: int
    mu1: HalfInt
    mu2: HalfInt
    relation: str

    @property
    def delta(self) -> int:
        return max(self.delta1, self.delta2)

    def to_json_dict(self) -> dict:
        return {
            "g1": self.g1.encode(),
            "g2": self.g2.encode(),
            "delta": [self.delta1, self.delta2],
            "mu0": [str(self.mu1), str(self.mu2)],
            "relation": self.relation,
        }


def _floor_group(p: int, e: int, top_floor: int) -> AbelianPGroup:
    """The group of a search side's floor invariants: p - 1 below the top."""
    return AbelianPGroup(p, [p - 1] * (e - 1) + [top_floor])


class _Side:
    """One exponent class of the search: floor invariants plus free coins.

    Writing r_i = floor_i + t_i, the group is determined by the free vector
    t >= 0.  The floor group (r = floors, `_floor_group`) is the home of the
    base values: its deficiency delta0, its doubled reduced minimum
    base_twice and the epsilon every group of the side has.  A free vector
    adds sum(i t_i) to the deficiency and sum(c_i t_i) to twice mu_0,
    with c_i = p^e - p^{e-i}; a relation class's mu_0 scale is applied by
    `_value_offset` alone.  For p = 2 a top floor of 1 pins r_e = 1, so coin
    e is left out.  The least and the greatest value at each weight are
    closed forms (`_envelope`), so set-up needs no deficiency bound.  The
    caller chooses the window of values, inside the envelope; the memo keeps
    one growing window per (coin, weight) but never a root (`_window`), and
    `witnesses` walks the root entry that `reach` built last.  A part of a
    window tries only the counts of its coin whose value-per-weight bounds
    meet it (`_counts`); the others have no child to keep.
    """

    def __init__(self, floor_group: AbelianPGroup):
        # p and the floors as the build of `_floor_group` checked them
        p, e = floor_group.p, floor_group.e
        self.p, self.floors = p, floor_group.r
        self.delta0, self.epsilon = floor_group.delta, floor_group.epsilon
        self.base_twice = reduced_min_large(floor_group).twice
        pinned = p == 2 and floor_group.r[-1] == 1
        values = period_weights(p, e)[: e - 1 if pinned else e]
        # every free value is a multiple of unit (0 without coins), so the
        # envelopes, windows and memo count in units: p - 1 times fewer bits
        # for odd p.  The gcd starts at the top coin, p^e - 1 or p^e - p, so it
        # is small at once; from c_1 up it stays p^(e-i) wide, cubic in e.
        # Coin i has weight i.
        self.unit = gcd(*reversed(values))
        self.coins = [(i, v // self.unit) for i, v in enumerate(values, start=1)]

        # value of the coin of weight i, with 0 at weight 0
        self._values = [0] + [v for _, v in self.coins]
        # zero counts for the floors past the last coin (the pinned top)
        self._pad = (0,) * (e - len(self.coins))

        # (coin index j, remaining weight rd) -> [lo, hi, bits, live children]:
        # what coins j.. reach at weight rd in [lo, hi], see _window
        self._memo: dict[tuple[int, int], list] = {}
        # the root entry that reach built last, an empty window before it
        self._root: list = [0, -1, 0, ()]

    def _envelope(self, j: int, d: int) -> tuple[int, int] | None:
        """(least, greatest) value, in units, of the free vectors of weight d
        over coins j.., or None when none has weight d.

        Those coins have the weights a = j + 1 .. n and values proportional
        to c_i = p^e - p^(e-i), concave in i with c_0 = 0.  So at a fixed
        weight more coins, and more even ones, give a larger value: the
        greatest takes kmax = d // a coins as evenly as possible, and the
        least takes kmin = ceil(d / n) coins spread as far as possible: n's,
        one middle coin, then a's.  With coin 1 (j = 0) that is d coins of
        weight 1, and d // n coins of weight n plus one of weight d mod n.
        """
        v = self._values
        n = len(v) - 1
        if d == 0:
            return 0, 0
        if j == n:
            return None
        a = j + 1
        kmax, kmin = d // a, -(-d // n)
        if kmin > kmax:
            return None
        q, r = divmod(d, kmax)
        full, extra = divmod(d - kmin * a, n - a) if n > a else (kmin, 0)
        lo = full * v[n] + v[a + extra] + (kmin - full - 1) * v[a]
        return lo, (kmax - r) * v[q] + (r * v[q + 1] if r else 0)

    def _counts(self, key: tuple[int, int, int, int]) -> range:
        """The counts k of coin j whose child can meet the window [lo, hi].

        Value per weight falls along the coins (c_i / i falls, as c is
        concave with c_0 = 0), so among the coins after j the least value per
        weight, a, is the last coin's and the greatest, b, is coin j + 1's.
        The child of count k has weight nd = rd - k w, and its envelope
        plus k v lies in [k v + a nd, k v + b nd].  A count whose interval
        misses [lo, hi] therefore fails the envelope test of `_kids`, so the
        range keeps only k v + a nd <= hi and k v + b nd >= lo.  Both are
        linear in k; where k's coefficient is not positive, that end stays
        uncut.
        """
        j, rd, lo, hi = key
        coins = self.coins
        w, v = coins[j]
        # (weight, value) of a and b; value 0 past the last coin
        (ad, an), (bd, bn) = (coins[-1], coins[j + 1]) if j + 1 < len(coins) else ((1, 0), (1, 0))
        k_lo, k_hi = 0, rd // w
        slope = v * ad - an * w
        if slope > 0:
            k_hi = min(k_hi, (hi * ad - an * rd) // slope)
        slope = v * bd - bn * w
        if slope > 0:
            k_lo = max(k_lo, -((bn * rd - lo * bd) // slope))
        return range(k_lo, k_hi + 1)

    def _kids(self, key: tuple[int, int, int, int]) -> list[tuple]:
        """(count k of coin j, child (j + 1, rd - k w), child lo, child hi)
        for each child of the window key (j, rd, lo, hi) whose window,
        clipped to its envelope, is not empty.  The counts tried are those of
        `_counts`, which leaves out only children this test rejects.
        `_window` calls it once per part of a window that it derives."""
        j, rd, lo, hi = key
        w, v = self.coins[j]
        out = []
        for k in self._counts(key):
            nd, kv = rd - k * w, k * v
            env = self._envelope(j + 1, nd)
            if env is not None and env[0] + kv <= hi and lo <= env[1] + kv:
                # conditional expressions: max() and min() calls, here and in
                # the hull merge of `_window`, took a sixth of its time
                kid_lo = env[0] if env[0] > lo - kv else lo - kv
                kid_hi = env[1] if env[1] < hi - kv else hi - kv
                out.append((k, (j + 1, nd), kid_lo, kid_hi))
        return out

    def _window(self, key: tuple[int, int, int, int]) -> list:
        """The entry [lo, hi, bits, live] of the root `key` (all coins,
        weight d, window [lo, hi]): the bits, relative to lo, of the values
        in the window that the coins reach, and (k, child entry) for each
        count k of the first coin whose child reaches one of them, in
        ascending k.  Child bit b is parent bit b + shift, where shift is the
        child's lo plus k v less the parent's lo.

        The memo holds the same per (coin j, remaining weight rd), for one
        window that only grows.  A request inside it does no work; outside
        it, only the missing part, below lo or above hi, is derived and ORed
        in (re-basing the bits when lo moves down), so each (j, rd) derives
        each value of its window once.  Entries grow in place, so links to
        them stay valid, and link only to the next coin's entries, so the
        links form no cycle.  The parts to derive are listed coin by coin,
        with the hull of the windows this pass asks of each child, and built
        from the last coin back.  The root leaves the memo: it is never a
        child, and roots are the widest windows.
        """
        memo = self._memo
        _, d, lo, hi = key
        # the hull of the windows this pass asks of each (j, rd) of one coin
        asked: dict[tuple[int, int], tuple[int, int]] = {(0, d): (lo, hi)}
        # per coin, each part of a window to derive, with its children
        parts: list[list[tuple]] = []
        for _ in self.coins:
            below: dict[tuple[int, int], tuple[int, int]] = {}
            parts.append([])
            for node, (lo, hi) in asked.items():
                entry = memo.get(node)
                missing = [(lo, hi)] if entry is None else [(lo, entry[0] - 1), (entry[1] + 1, hi)]
                for part_lo, part_hi in missing:
                    if part_lo > part_hi:
                        continue
                    kids = self._kids((node[0], node[1], part_lo, part_hi))
                    parts[-1].append((node, part_lo, part_hi, kids))
                    for _, kid, kid_lo, kid_hi in kids:
                        was = below.get(kid)
                        if was is None:
                            below[kid] = kid_lo, kid_hi
                        elif kid_lo < was[0] or kid_hi > was[1]:
                            below[kid] = min(was[0], kid_lo), max(was[1], kid_hi)
            asked = below
        # past the last coin only weight 0 and value 0 are left
        for node in asked:
            memo.setdefault(node, [0, 0, 1, ()])
        while parts:
            v = self.coins[len(parts) - 1][1]
            for node, lo, hi, kids in parts.pop():
                width = hi - lo + 1
                bits, live = 0, []
                for k, kid, _, _ in kids:
                    entry = memo[kid]
                    shift = entry[0] + k * v - lo
                    got = entry[2] << shift if shift >= 0 else entry[2] >> -shift
                    if got.bit_length() > width:
                        got &= (1 << width) - 1
                    if got:
                        bits |= got
                        live.append((k, entry))
                entry = memo.get(node)
                if entry is None:
                    memo[node] = [lo, hi, bits, tuple(live)]
                    continue
                old_lo, old_hi, old_bits, old_live = entry
                if lo < old_lo:
                    bits, hi = bits | old_bits << (old_lo - lo), old_hi
                else:
                    bits, lo = old_bits | bits << (lo - old_lo), old_lo
                # a count live in both parts links the same child entry
                entry[:] = lo, hi, bits, tuple(sorted(dict(old_live + tuple(live)).items()))
        return memo.pop((0, d))

    def reach(self, d: int, lo: int, hi: int) -> int:
        """Bitset, relative to lo, of the free values in [lo, hi] (in units)
        that the coins reach at exact weight d.  The window lies inside the
        envelope at d.  The side keeps the root entry for `witnesses`."""
        self._root = self._window((0, d, lo, hi))
        return self._root[2]

    def witnesses(self, wanted: int) -> list[tuple[int, tuple[int, ...]]]:
        """(value, t) for every free vector t of the weight and window of the
        last `reach` whose value, in units, has its bit, relative to the
        window's low, set in `wanted`.

        The walk follows the live children of the root entry that `reach`
        built.  Each child's shift is worked out here from the two window
        lows, as the memo's windows grow after a link is made.  The walk
        carries the mask of still-wanted values and ANDs it with each child's
        bits, so every node it visits lies on a path to an output.  It makes
        one pass per coin over the partial vectors, taking each one's
        children in ascending count, so vectors come out in ascending order.
        """
        lo, _, bits, live = self._root
        mask = wanted & bits
        # (window low, live children, wanted bits relative to that low, value
        # so far, prefix of t)
        partial = [(lo, live, mask, 0, ())] if mask else []
        for _, v in self.coins:
            partial, last = [], partial
            for lo, live, mask, acc, t in last:
                for k, (kid_lo, _, kid_bits, kid_live) in live:
                    kv = k * v
                    shift = kid_lo + kv - lo
                    sub = (mask >> shift if shift >= 0 else mask << -shift) & kid_bits
                    if sub:
                        partial.append((kid_lo, kid_live, sub, acc + kv, t + (k,)))
        return [(acc, t) for _, _, _, acc, t in partial]

    def group_of(self, t: tuple[int, ...]) -> AbelianPGroup:
        # coin i has weight i, so t[i - 1] counts the summands of order p^i
        return AbelianPGroup(self.p, tuple(map(add, self.floors, t + self._pad)))

    def mu_of(self, units: int) -> HalfInt:
        return HalfInt(self.base_twice + units * self.unit)


def _overlap(env1, env2, off: int) -> tuple[int, int] | None:
    """The window [lo, hi], in side-1 units, where the envelope env1 meets
    env2 shifted by off, or None when they miss or a side has no vector."""
    if env1 is None or env2 is None:
        return None
    lo, hi = max(env1[0], env2[0] + off), min(env1[1], env2[1] + off)
    return (lo, hi) if lo <= hi else None


def _positive_sum(c: int, s: int, q0: int, q1: int) -> int:
    """The sum of max(c + s q, 0) over the integers q0 <= q <= q1."""
    if s > 0:
        q0 = max(q0, -c // s + 1)
    elif s < 0:
        q1 = min(q1, -(c // s) - 1)
    elif c <= 0:
        return 0
    n = q1 - q0 + 1
    return n * c + s * ((q0 + q1) * n // 2) if n > 0 else 0


def _value_offset(side1: _Side, side2: _Side, scale: int) -> int | None:
    """off such that a side-2 value y lines up with the side-1 value y + off
    when side 2's twice mu_0 is scale times side 1's, or None when no value
    is congruent to both bases."""
    # side 1's value y stands for scale * (base + unit * y), so both sides
    # count in scale * unit (a side without coins has unit 0 and only y = 0)
    unit = scale * side1.unit or side2.unit or 1
    if side2.unit not in (0, unit):
        raise VerificationError(f"search sides count in units {unit} and {side2.unit}")
    off, rem = divmod(side2.base_twice - scale * side1.base_twice, unit)
    return None if rem else off


def _overlap_classes(
    side1: _Side, side2: _Side, delta_offset: int, delta_max: int, off: int
) -> tuple[list[range], int]:
    """(classes, width): the deficiencies delta1 <= delta_max at which side
    1's envelope meets side 2's at delta1 + delta_offset shifted by off, as
    one ascending range per residue class, and the summed width of their
    overlap windows.

    With n coins, `_envelope(0, d)` is lo = (d // n) v_n + v_(d mod n) and
    hi = d v_1.  On a residue class d1 = r + L q, with L = lcm(n1, n2), both
    sides' lo and hi are therefore linear in q, with the same slopes on every
    class, read off at d and d + L.  Each overlap inequality, a + b q <= 0,
    then bounds q on one side, so a class passes on one q-interval, and
    there the window's width is a sum of linear terms and their positive
    parts.  The cost is O(L), not one test per deficiency.  A side with no
    coins reaches weight 0 alone, so it passes one deficiency at most.
    """
    shift = side1.delta0 + delta_offset - side2.delta0  # d2 = d1 + shift
    first, last = max(0, -shift), delta_max - side1.delta0
    env1, env2 = side1._envelope, side2._envelope
    if not (side1.coins and side2.coins):
        d1 = -shift if side1.coins else 0
        window = first <= d1 <= last and _overlap(env1(0, d1), env2(0, d1 + shift), off)
        if not window:
            return [], 0
        return [range(side1.delta0 + d1, side1.delta0 + d1 + 1)], window[1] - window[0] + 1
    step = lcm(len(side1.coins), len(side2.coins))
    (lo1, hi1), (lo2, hi2) = env1(0, first), env2(0, first + shift)
    (lo1s, hi1s), (lo2s, hi2s) = env1(0, first + step), env2(0, first + shift + step)
    dlo1, dhi1, dlo2, dhi2 = lo1s - lo1, hi1s - hi1, lo2s - lo2, hi2s - hi2
    classes, width = [], 0
    for r in range(first, min(first + step, last + 1)):
        (lo1, hi1), (lo2, hi2) = env1(0, r), env2(0, r + shift)
        lo2, hi2 = lo2 + off, hi2 + off
        q_lo, q_hi = 0, (last - r) // step
        for a, b in ((lo1 - hi2, dlo1 - dhi2), (lo2 - hi1, dlo2 - dhi1)):
            if b > 0:
                q_hi = min(q_hi, -a // b)
            elif b < 0:
                q_lo = max(q_lo, -(a // b))
            elif a > 0:
                q_hi = -1
        if q_lo > q_hi:
            continue
        start = side1.delta0 + r
        classes.append(range(start + q_lo * step, start + q_hi * step + 1, step))
        # min(hi1, hi2) - max(lo1, lo2) + 1 is hi1 - lo1 + 1 less the positive
        # parts of hi1 - hi2 and lo2 - lo1
        width += (
            _positive_sum(hi1 - lo1 + 1, dhi1 - dlo1, q_lo, q_hi)
            - _positive_sum(hi1 - hi2, dhi1 - dhi2, q_lo, q_hi)
            - _positive_sum(lo2 - lo1, dlo2 - dlo1, q_lo, q_hi)
        )
    return classes, width


def _checked_groups(side: _Side, wanted: int, delta: int) -> tuple:
    """(N, p^delta, rows, by_value) of the groups at deficiency delta whose
    values have their bits in `wanted`, after a `reach` there: rows holds
    (group, value, mu_0) in ascending r, by_value maps a value to (mu_0, its
    groups, the data they are checked against).  Each group, built by
    `group_of`, must have large invariants, the deficiency delta, the side's
    epsilon, p and e and its value's mu_0 (one `mu_of` per value), or
    VerificationError is raised.  The floors, p^e and the weights are read
    once per pass, and p^delta and N once, off the checked groups.
    """
    p, e, epsilon = side.p, len(side.floors), side.epsilon
    large, twice_min = _large_test(p), _twice_min_reader(p, e)
    group_of, mu_of = side.group_of, side.mu_of
    rows = []
    by_value: dict[int, tuple] = {}
    for y, t in side.witnesses(wanted):
        g, got = group_of(t), by_value.get(y)
        if got is None:
            mu = mu_of(y)
            got = by_value[y] = mu, [], (delta, epsilon, mu.twice, p, e)
        r = g.r
        if not large(r):
            raise VerificationError(f"search group {g} lacks large invariants")
        if (g.delta, g.epsilon, twice_min(r), g.p, len(r)) != got[2]:
            raise VerificationError(
                f"search group {g} does not have deficiency {delta}, mu_0 = {got[0]} "
                f"and epsilon = {epsilon} at exponent {p}^{e}"
            )
        got[1].append(g)
        rows.append((g, y, got[0]))
    p_delta = rows[0][0].p_delta
    return kulkarni_n(p_delta, epsilon), p_delta, rows, by_value


def _search_class(
    side1: _Side,
    side2: _Side,
    delta_offset: int,
    off: int,
    classes: list[range],
    width: int,
    relation: str,
    budget: int = PAIR_LIMIT,
) -> list[CounterexamplePair]:
    """The pairs of one relation class, from its `_value_offset` and
    `_overlap_classes`, at most `budget` of them, sorted by (delta, g1.r,
    g2.r).

    The deficiencies of all residue classes are taken in ascending order, and
    each window is recomputed from the two envelopes at its deficiency: a
    listed deficiency whose envelopes miss, or windows whose widths do not
    sum to `width`, fail loudly.  On each window both sides reach values,
    and the witness walks recover the groups behind the values both reach.

    Per deficiency, each side makes one checked pass (`_checked_groups`):
    per group, large invariants, the deficiency, the side's epsilon and the
    value's mu_0; p^delta and N = p^delta / epsilon once.  Per value both
    reach, the two sides' genus 1 + p^delta mu_0 and step N must be equal,
    or VerificationError is raised.  The deficiency's pair count then joins
    a running total, and past `budget` OutOfRangeError is raised before any
    of its pairs is built.  The pairs are built in side 1's ascending r,
    each with side 2's groups of its value in ascending r.
    """
    shared, count = side1 is side2, 0
    pairs: list[CounterexamplePair] = []
    for delta1 in merge(*classes):
        delta2 = delta1 + delta_offset
        d1, d2 = delta1 - side1.delta0, delta2 - side2.delta0
        window = _overlap(side1._envelope(0, d1), side2._envelope(0, d2), off)
        if window is None:
            raise VerificationError(f"deficiency {delta1} was listed, but its envelopes miss")
        lo, hi = window
        width -= hi - lo + 1
        matched = side1.reach(d1, lo, hi)
        if not shared:
            matched &= side2.reach(d2, lo - off, hi - off)
        if not matched:
            continue

        # the witness walks return the matched values and no others
        n1, pd1, rows1, by1 = checked = _checked_groups(side1, matched, delta1)
        n2, pd2, _, by2 = checked if shared else _checked_groups(side2, matched, delta2)
        for y1, (mu1, gs1, _) in by1.items():
            mu2, gs2, _ = by2[y1 - off]
            count += len(gs1) * (len(gs1) - 1) // 2 if shared else len(gs1) * len(gs2)
            if not shared and (genus_of(pd1, mu1), n1) != (genus_of(pd2, mu2), n2):
                raise VerificationError(f"search groups {gs1[0]} ~ {gs2[0]} have unequal spectra")
        text = "{} pairs up to deficiency {} take the search past its limit of {} pairs"
        _within(count, budget, text.format, relation, delta1, PAIR_LIMIT)
        for g1, y1, mu1 in rows1:
            mu2, gs2, _ = by2[y1 - off]
            for g2 in gs2:
                if not shared or g1.r < g2.r:
                    pairs.append(CounterexamplePair(g1, g2, delta1, delta2, mu1, mu2, relation))
    if width:
        raise VerificationError(f"{relation} windows miss their summed width by {width}")
    return pairs


def search_counterexamples(
    p: int,
    e: int,
    e_tilde: int,
    delta_max: int,
    relation: str | None = None,
) -> list[CounterexamplePair]:
    """The equal-spectrum pairs (G, G~) of exponents p^e and p^e_tilde with
    large invariants and cyclic deficiencies at most delta_max, in the
    relation classes below.

    `relation` restricts to one of the two p = 2 relations; by default both
    are searched (odd p only has the same-lattice relation).  For p = 2 the
    same-lattice relation is two classes, both groups with r_e >= 2 or both
    with r_e = 1, and the mixed one is a third: the exponent-p^e group with
    r_e >= 2, the exponent-p^e_tilde one with r_e = 1.  That class read
    backwards is not searched, so for e > e_tilde pairs such as 2:1,1 ~ 2:3
    (both of spectrum 1 + 2 N_0, deficiencies 1 and 2) are missing.  The
    result is exhaustive in these classes within the bound and sorted by
    (delta, g1.r, g2.r), the order each class lists.  It lists every pair,
    so where several groups of each exponent share one deficiency and one
    mu_0 its size is the product of their counts, and it grows quickly with
    delta_max.

    A class whose sides' floor groups start past delta_max lists nothing and
    is dropped before its sides are built.  Before any reach set is built,
    the search lists the deficiencies whose envelopes overlap in every
    class it runs and sums their window widths, the widths of the reach
    bitsets and of the memo's root keys, in closed form per residue class.
    Above SEARCH_WIDTH_LIMIT = 10^9 units it raises OutOfRangeError.  The
    p = 7 series search up to its deficiency 3 725 sums 1.9 * 10^8 units;
    the p = 11 one, 3.35 * 10^14.  A class whose two sides are one side
    with at most one coin has one group per deficiency, so it cannot pair
    and is not searched.

    The pairs are counted per deficiency, before any of its pairs is built,
    and past PAIR_LIMIT = 10^5 pairs in all the search raises
    OutOfRangeError; no keyword lifts either limit.  (2, 5, 4) lists 8 308
    pairs up to deficiency 100 and 242 438 up to 150.  The search checks
    itself as it goes (`_search_class`): per group, large invariants and
    the deficiency, epsilon and mu_0 of its side and value; per value, that
    the two sides' genus 1 + p^delta mu_0 and step N agree, with p^delta
    and N worked out once per side and deficiency.
    """
    p, e = _prime(p), _int_in(e, "e", 1)
    e_tilde, delta_max = _int_in(e_tilde, "e_tilde", 1, e), _as_int(delta_max)
    if relation not in (None, RELATION_SAME, RELATION_MIXED):
        raise InputError(f"unknown relation {relation!r}")
    if relation == RELATION_MIXED and p != 2:
        raise InputError("the mixed-lattice relation exists only for p = 2")

    # The relation classes, one row each: (relation, top floor of the
    # exponent-p^e side, top floor of the p^e_tilde side, mu_0 scale of the
    # first side, deficiency offset).  A p = 2 top floor of 1 is the pinned
    # single top summand, and scale 2 on the mixed class's first side doubles
    # its mu_0.
    table = [
        (RELATION_SAME, 2, 2, 1, 0),
        (RELATION_SAME, 1, 1, 1, 0),
        (RELATION_MIXED, 2, 1, 2, -1),
    ] if p == 2 else [(RELATION_SAME, p - 2, p - 2, 1, 0)]
    table = [row for row in table if relation in (None, row[0])]
    # one floor group and one side per (exponent, top floor), shared by the
    # classes that read it
    keys = dict.fromkeys(key for _, t1, t2, _, _ in table for key in ((e, t1), (e_tilde, t2)))
    floors = {key: _floor_group(p, *key) for key in keys}
    sides: dict[tuple[int, int], _Side] = {}
    plan = []
    for label, top1, top2, scale, offset in table:
        # a side's deficiencies start at its floor group's, so past delta_max
        # the class lists nothing; it is dropped before a side is built (at
        # p = 2 a side of exponent 2^e holds e coins of up to e bits)
        if floors[e, top1].delta > delta_max or floors[e_tilde, top2].delta > delta_max + offset:
            continue
        for key in (e, top1), (e_tilde, top2):
            if key not in sides:
                sides[key] = _Side(floors[key])
        side1, side2 = sides[e, top1], sides[e_tilde, top2]
        if side1 is side2 and len(side1.coins) <= 1:
            # one vector per weight: no two groups share a deficiency
            continue
        off = _value_offset(side1, side2, scale)
        if off is not None:
            listed = _overlap_classes(side1, side2, offset, delta_max, off)
            plan.append((side1, side2, offset, off, *listed, label))
    width = sum(row[5] for row in plan)
    _within(width, SEARCH_WIDTH_LIMIT, _width_text, plan, delta_max, width)

    lists: list[list[CounterexamplePair]] = []
    for row in plan:  # each class lists its pairs in the merge's order
        lists.append(_search_class(*row, PAIR_LIMIT - sum(map(len, lists))))
    return list(merge(*lists, key=lambda q: (q.delta, q.g1.r, q.g2.r)))


def _width_text(plan: list, delta_max: int, width: int) -> str:
    # not len(r): past sys.maxsize it raises OverflowError, and delta_max is unbounded
    count = sum((r[-1] - r[0]) // r.step + 1 for row in plan for r in row[4] if r)
    text = f"{count} deficiencies up to {delta_max} have overlapping envelopes, with windows"
    return f"{text} summing to {width} units, over the search's limit of {SEARCH_WIDTH_LIMIT} units"
