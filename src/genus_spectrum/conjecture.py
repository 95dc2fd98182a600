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
  memo of (coin, remaining weight, window) states that serves every
  deficiency.
  Each state derives its children once and keeps links to those that reach
  a value, so the witness recovery follows the links and derives nothing
  again.  A state tries only the counts of its coin that can meet its
  window: the later coins' least and greatest value per weight bound every
  value below each count, and a count whose bounds miss the window would
  fail the exact envelope test anyway.  This keeps the search exhaustive
  for deficiencies in the thousands, far beyond direct enumeration.

For p = 2 the convention of the varying-exponent search is that the group of
exponent p^e (the first one) has r_e >= 2, i.e. carries the half-integral
reduced lattice.  The partner either also has a repeated top summand
(same-lattice relation: equal deficiency and equal mu_0) or has a single one
(mixed relation: deficiency smaller by one and doubled mu_0).
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
    OutOfRangeError,
    UnsupportedError,
    VerificationError,
    _as_int,
    _int_in,
)
from .group import AbelianPGroup, _prime, is_prime, kulkarni_n
from .halfint import HalfInt
from .signature import genus_of, period_weights
from .spectrum import full_spectrum, genus_view, has_large_invariants, reduced_min_large

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

    Source and image must both satisfy the large-invariant hypothesis, and
    for p = 2 they must agree on whether the top summand repeats; then the
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
    if G.p == 2 and (G.r[2] >= 2) != (r[2] >= 2):
        raise OutOfFamilyError(
            f"shift by k={k} changes the top-summand parity class: {G.r} -> {r}"
        )
    return shifted


def genus_progression(G: AbelianPGroup) -> tuple[int, int]:
    """(start, step) with sp(G) = start + step * N_0, for large invariants."""
    if not has_large_invariants(G):
        raise UnsupportedError(f"{G} does not satisfy the large-invariant hypothesis")
    return _lift(G.p_delta, reduced_min_large(G), G.epsilon)


def _lift(p_delta: int, mu: HalfInt, epsilon: int) -> tuple[int, int]:
    """The genus progression (1 + p^delta mu, p^delta / epsilon) of a group
    with large invariants, reduced minimum mu and the given p^delta and
    epsilon."""
    return genus_of(p_delta, mu), kulkarni_n(p_delta, epsilon)


def spectra_equal(g1: AbelianPGroup, g2: AbelianPGroup) -> bool:
    """Exact spectrum equality: the spectrum descriptors agree at the genus level."""
    return genus_view(g1, full_spectrum(g1)) == genus_view(g2, full_spectrum(g2))


def varying_exponent_pair(p: int) -> tuple[AbelianPGroup, AbelianPGroup]:
    """The equal-spectrum series with exponents p^(p+2) and p^(p+1), p odd."""
    p = _as_int(p)
    if not is_prime(p) or p == 2:
        raise UnsupportedError(f"the varying-exponent series needs an odd prime, got {p}")
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


class _Side:
    """One exponent class of the search: floor invariants plus free coins.

    Writing r_i = floor_i + t_i, the group is determined by the free vector
    t >= 0.  The floor group (r = floors) is the home of the base values: its
    deficiency delta0 and its doubled reduced minimum base_twice.  A free
    vector adds sum(i t_i) to the deficiency and sum(c_i t_i) to twice mu_0,
    with c_i = p^e - p^{e-i}.  `scale` pre-multiplies the values so that
    doubled-mu relations become plain translations.  For p = 2 a top floor
    of 1 pins r_e = 1, so coin e is left out.  The least and the greatest
    value at each weight are closed forms (`_envelope`), so set-up needs no
    deficiency bound.  The caller chooses the window of values, inside the
    envelope; the memo never keeps a root (`_window`), but the side keeps
    the last root `reach` built, for the witness walk on the same window.
    A memo state tries only the counts of its coin whose value-per-weight
    bounds meet its window (`_counts`); the others have no child to keep.
    """

    def __init__(self, p: int, e: int, top_floor: int, scale: int):
        self.p = p
        self.scale = scale
        self.floors = tuple([p - 1] * (e - 1) + [top_floor])
        floor_group = AbelianPGroup(p, self.floors)
        self.delta0 = floor_group.delta
        self.base_twice = reduced_min_large(floor_group).twice
        pinned = p == 2 and top_floor == 1
        values = [scale * c for c in period_weights(p, e)[: e - 1 if pinned else e]]
        # every free value is a multiple of unit (0 without coins), so the
        # envelopes, windows and memo count in units: p - 1 times fewer bits
        # for odd p.  Coin i has weight i.
        self.unit = gcd(*values)
        self.coins = [(i, v // self.unit) for i, v in enumerate(values, start=1)]

        # value of the coin of weight i, with 0 at weight 0
        self._values = [0] + [v for _, v in self.coins]
        # zero counts for the floors past the last coin (the pinned top)
        self._pad = (0,) * (e - len(self.coins))

        # (coin index j, remaining weight rd, lo, hi) -> (bits, live children):
        # what coins j.. reach at weight rd in [lo, hi], see _window
        self._memo: dict[tuple[int, int, int, int], tuple[int, tuple]] = {}
        # (key, entry) of the root that reach built last
        self._root: tuple = (None, None)

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

    def _kids(self, key: tuple[int, int, int, int]) -> list[tuple[int, tuple, int]]:
        """(count k of coin j, child key, shift) for each child whose window,
        clipped to its envelope, is not empty; child bit b is parent bit
        b + shift.  The counts tried are those of `_counts`, which leaves
        out only children this test rejects.  `_window` calls it once per
        memo key."""
        j, rd, lo, hi = key
        w, v = self.coins[j]
        out = []
        for k in self._counts(key):
            nd, kv = rd - k * w, k * v
            env = self._envelope(j + 1, nd)
            if env is not None and env[0] + kv <= hi and lo <= env[1] + kv:
                kid_lo = max(lo - kv, env[0])
                out.append((k, (j + 1, nd, kid_lo, min(hi - kv, env[1])), kid_lo - lo + kv))
        return out

    def _window(self, key: tuple[int, int, int, int]) -> tuple[int, tuple]:
        """(bits, live children) of the root `key` (all coins, weight d): the
        bits, relative to its lo, of the values in its window that the coins
        reach, and (k, shift, child entry) for each count k of the first coin
        whose child has any bit set, in ascending k.  A child entry is the
        child's own (bits, live children), the object the memo holds, so the
        entries link down to the leaves (1, ()).

        The memo holds the same per key.  A key's children are keys of the
        next coin, so the keys missing from the memo are listed coin by coin,
        each with its children, and their entries are built from the last
        coin back.  The root leaves the memo: it is never a child, and roots
        are the widest windows.
        """
        memo = self._memo
        # per coin, each missing key with its children, in first-listed order
        levels: list[dict[tuple, list]] = [{key: []}]
        for _ in self.coins:
            below: dict[tuple, list] = {}
            for node in levels[-1]:
                kids = levels[-1][node] = self._kids(node)
                for _, kid, _ in kids:
                    if kid not in memo:
                        below[kid] = []
            levels.append(below)
        # past the last coin only weight 0 and value 0 are left
        for node in levels.pop():
            memo[node] = (1, ())
        while levels:
            for node, kids in levels.pop().items():
                bits, live = 0, []
                for k, kid, shift in kids:
                    entry = memo[kid]
                    if entry[0]:
                        bits |= entry[0] << shift
                        live.append((k, shift, entry))
                memo[node] = (bits, tuple(live))
        return memo.pop(key)

    def reach(self, d: int, lo: int, hi: int) -> int:
        """Bitset, relative to lo, of the free values in [lo, hi] (in units)
        that the coins reach at exact weight d.  The window lies inside the
        envelope at d."""
        key = (0, d, lo, hi)
        self._root = key, self._window(key)
        return self._root[1][0]

    def witnesses(
        self, d: int, lo: int, hi: int, wanted: int
    ) -> list[tuple[int, tuple[int, ...]]]:
        """(value, t) for every free vector t of weight d whose value, in
        units, lies in [lo, hi] and has its bit, relative to lo, set in
        `wanted`.  The window lies inside the envelope at d.

        The walk follows the live children of the root entry: the one
        `reach` built last when its window is this one, else a new one from
        `_window`.  It carries the mask of still-wanted values and ANDs it
        with each child's bits, so every node it visits lies on a path to an
        output.  It makes one pass per coin over the partial vectors, taking
        each one's children in ascending count, so vectors come out in
        ascending order.
        """
        key = (0, d, lo, hi)
        root_key, entry = self._root
        bits, live = entry if root_key == key else self._window(key)
        mask = wanted & bits
        # (live children, wanted bits relative to the node's lo, value so
        # far, prefix of t)
        partial = [(live, mask, 0, ())] if mask else []
        for _, v in self.coins:
            partial, last = [], partial
            for live, mask, acc, t in last:
                for k, shift, (kid_bits, kid_live) in live:
                    sub = (mask >> shift) & kid_bits
                    if sub:
                        partial.append((kid_live, sub, acc + k * v, t + (k,)))
        return [(acc, t) for _, _, acc, t in partial]

    def group_of(self, t: tuple[int, ...]) -> AbelianPGroup:
        # coin i has weight i, so t[i - 1] counts the summands of order p^i
        return AbelianPGroup(self.p, tuple(map(add, self.floors, t + self._pad)))

    def mu_of(self, units: int) -> HalfInt:
        value = units * self.unit
        if value % self.scale != 0:
            raise VerificationError(f"weighted value {value} is not a multiple of {self.scale}")
        return HalfInt(self.base_twice + value // self.scale)


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


def _value_offset(side1: _Side, side2: _Side) -> int | None:
    """off such that a side-2 value y lines up with the side-1 value y + off,
    or None when no value is congruent to both bases."""
    # A free value y of a side stands for scale * (twice mu_0) = base + unit * y,
    # so with scales (2, 1) a match is mu_2 = 2 mu_1.  The two sides of a class
    # count in one unit (a side without coins has unit 0 and only y = 0).
    unit = side1.unit or side2.unit or 1
    if side2.unit not in (0, unit):
        raise VerificationError(f"search sides count in units {side1.unit} and {side2.unit}")
    off, rem = divmod(side2.scale * side2.base_twice - side1.scale * side1.base_twice, unit)
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


def _checked_progression(
    gs: list[AbelianPGroup], delta: int, mu: HalfInt, p_delta: int
) -> tuple[int, int]:
    """The genus progression of the groups gs, which a witness walk found at
    deficiency delta and reduced minimum mu: each must have large
    invariants, that deficiency and that minimum, and all one epsilon, or
    VerificationError is raised.  p_delta is p^delta."""
    epsilon = gs[0].epsilon
    for g in gs:
        if not has_large_invariants(g):
            raise VerificationError(f"search group {g} lacks large invariants")
        if g.delta != delta or g.epsilon != epsilon or reduced_min_large(g) != mu:
            raise VerificationError(
                f"search group {g} does not have deficiency {delta}, mu_0 = {mu} "
                f"and epsilon = {epsilon}"
            )
    return _lift(p_delta, mu, epsilon)


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
    `_overlap_classes`, at most `budget` of them.

    The deficiencies of all residue classes are taken in ascending order, and
    each window is recomputed from the two envelopes at its deficiency: a
    listed deficiency whose envelopes miss, or windows whose widths do not
    sum to `width`, fail loudly.  On each window both sides reach values,
    and the witness walks recover the groups behind the values both reach.

    Each value both reach is checked once, before its pairs are built: its
    pair count joins a running total, and past `budget` OutOfRangeError is
    raised; each group behind it is checked against the value's deficiency
    and mu_0 (`_checked_progression`), and the two sides' genus
    progressions must be equal, or VerificationError is raised.
    """
    shared = side1 is side2

    def groups(side: _Side, d: int, lo: int, hi: int, wanted: int) -> dict[int, list]:
        by_value: dict[int, list[AbelianPGroup]] = {}
        for y, t in side.witnesses(d, lo, hi, wanted):
            by_value.setdefault(y, []).append(side.group_of(t))
        return by_value

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
        groups1 = groups(side1, d1, lo, hi, matched)
        groups2 = groups1 if shared else groups(side2, d2, lo - off, hi - off, matched)
        # p^delta of each side, read off one of its groups, which
        # _checked_progression then checks for this deficiency
        pd1 = next(iter(groups1.values()))[0].p_delta
        pd2 = pd1 if shared else next(iter(groups2.values()))[0].p_delta
        for y1, gs1 in groups1.items():
            gs2 = groups2[y1 - off]
            budget -= len(gs1) * (len(gs1) - 1) // 2 if shared else len(gs1) * len(gs2)
            if budget < 0:
                raise OutOfRangeError(
                    f"{relation} pairs up to deficiency {delta1} take the search past its "
                    f"limit of {PAIR_LIMIT} pairs"
                )
            mu1, mu2 = side1.mu_of(y1), side2.mu_of(y1 - off)
            spectrum1 = _checked_progression(gs1, delta1, mu1, pd1)
            spectrum2 = spectrum1 if shared else _checked_progression(gs2, delta2, mu2, pd2)
            if spectrum1 != spectrum2:
                raise VerificationError(f"search groups {gs1[0]} ~ {gs2[0]} have unequal spectra")
            for g1 in gs1:
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
    """All equal-spectrum pairs (G, G~) of exponents p^e and p^e_tilde with
    large invariants and cyclic deficiencies at most delta_max.

    `relation` restricts to one of the two p = 2 relation classes; by
    default both are searched (odd p only has the same-lattice relation).
    The result is exhaustive within the bound and sorted by deficiency.  It
    lists every pair, so where several groups of each exponent share one
    deficiency and one mu_0 its size is the product of their counts, and it
    grows quickly with delta_max.

    Before any reach set is built, the search lists the deficiencies whose
    envelopes overlap in every class it runs and sums their window widths,
    the widths of the reach bitsets and of the memo's root keys, in closed
    form per residue class.  Above SEARCH_WIDTH_LIMIT = 10^9 units it raises
    OutOfRangeError.  The p = 7 series search up to its deficiency 3 725
    sums 1.9 * 10^8 units; the p = 11 one, 3.35 * 10^14.  A class whose
    two sides are one side with at most one coin has one group per
    deficiency, so it cannot pair and is not searched.

    The pairs are counted per value both sides reach, before any is built,
    and past PAIR_LIMIT = 10^5 pairs in all the search raises
    OutOfRangeError; no keyword lifts either limit.  (2, 5, 4) lists 8 308
    pairs up to deficiency 100 and 242 438 up to 150.  The same values
    carry the spectrum check: every group behind a value is checked once
    against its deficiency and mu_0, and the two sides' genus progressions
    are compared once per value, not once per pair.
    """
    p, e = _prime(p), _as_int(e)
    e_tilde, delta_max = _int_in(e_tilde, "e_tilde", 1, e), _as_int(delta_max)
    if relation not in (None, RELATION_SAME, RELATION_MIXED):
        raise InputError(f"unknown relation {relation!r}")
    if relation == RELATION_MIXED and p != 2:
        raise InputError("the mixed-lattice relation exists only for p = 2")

    # The relation classes, one row each: (relation, (top floor, scale) of
    # the exponent-p^e side, the same for the p^e_tilde side, deficiency
    # offset).  A p = 2 top floor of 1 is the pinned single top summand, and
    # scale 2 on the mixed class's first side doubles its mu_0.
    table = [
        (RELATION_SAME, (2, 1), (2, 1), 0),
        (RELATION_SAME, (1, 1), (1, 1), 0),
        (RELATION_MIXED, (2, 2), (1, 1), -1),
    ] if p == 2 else [(RELATION_SAME, (p - 2, 1), (p - 2, 1), 0)]

    plan = []
    for label, spec1, spec2, offset in table:
        if relation not in (None, label):
            continue
        # an equal-exponent class is one side
        side1 = _Side(p, e, *spec1)
        side2 = side1 if (e, spec1) == (e_tilde, spec2) else _Side(p, e_tilde, *spec2)
        if side1 is side2 and len(side1.coins) <= 1:
            # one vector per weight: no two groups share a deficiency
            continue
        off = _value_offset(side1, side2)
        if off is not None:
            listed = _overlap_classes(side1, side2, offset, delta_max, off)
            plan.append((side1, side2, offset, off, *listed, label))
    # not len(r): past sys.maxsize it raises OverflowError, and delta_max is unbounded
    count = sum((r[-1] - r[0]) // r.step + 1 for row in plan for r in row[4] if r)
    width = sum(row[5] for row in plan)
    if width > SEARCH_WIDTH_LIMIT:
        raise OutOfRangeError(
            f"{count} deficiencies up to {delta_max} have overlapping envelopes, with "
            f"windows summing to {width} units, over the search's limit of "
            f"{SEARCH_WIDTH_LIMIT} units"
        )

    pairs: list[CounterexamplePair] = []
    for row in plan:
        pairs.extend(_search_class(*row, PAIR_LIMIT - len(pairs)))
    pairs.sort(key=lambda q: (q.delta, q.g1.r, q.g2.r))
    return pairs
