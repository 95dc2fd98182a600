"""Combinatorics of p-mainline integers.

Fix an integer p >= 1.  A sequence a = (a_1, ..., a_e) of non-negative
integers evaluates to wp(a) = sum(a_i * p^(e-i)).  Its mainline integers are
the values wp(b) over all *non-increasing* b dominating a componentwise.
This set only depends on the hull of a (the least non-increasing majorant),
it contains every integer from wp of the p-enveloping sequence on, and is
therefore co-finite in N_0.  The profile of a records the minimum mu(a),
the stabilisation point sigma(a) past which every integer is attained, and
the finitely many gaps in between.

Substituting b_i = y_i + ... + y_e turns the non-increasing b into arbitrary
y >= 0 with wp(b) = sum(y_j * q_j), where q_j = wp(1^j 0^(e-j)), and turns
domination of the hull t into the tail-sum floors y_i + ... + y_e >= t_i.
This tail-bounded knapsack has the shape of the reduced genera of admissible
data, so one engine, `_reach`, enumerates both as int bitsets.  No closed
form for sigma(a) or the gap set is known in general; the profile is read
off that bitset below the proven enveloping bound.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate, compress
from operator import mul, neg, sub
from typing import Callable

from .errors import InputError, OutOfRangeError, VerificationError, _as_int

# Most values mainline_profile, spectrum.full_spectrum and spectrum.
# oracle_reduced_spectrum may mark, and most bitset bytes of is_mainline.
SIEVE_LIMIT = 10**6


class _Infinity:
    """Distinguished infinite value for the gap norm of length-1 sequences."""

    def __gt__(self, other: object) -> bool:
        return not isinstance(other, _Infinity)

    def __ge__(self, other: object) -> bool:
        return True

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return isinstance(other, _Infinity)

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()

IntSeq = tuple[int, ...]


def _checked(entries) -> IntSeq:
    seq = tuple(map(_as_int, entries))
    if not seq:
        raise InputError("sequence must be non-empty")
    if any(x < 0 for x in seq):
        raise InputError(f"sequence entries must be non-negative, got {seq}")
    return seq


def is_nonincreasing(entries) -> bool:
    seq = tuple(entries)
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def wp_eval(p: int, entries) -> int:
    """Evaluate sum(a_i * p^(e-i)) for the length-e sequence a."""
    if p < 1:
        raise InputError(f"base must be >= 1, got {p}")
    seq = _checked(entries)
    value = 0
    for x in seq:
        value = value * p + x
    return value


def hull(entries) -> IntSeq:
    """Least non-increasing majorant: fold max from the right."""
    seq = _checked(entries)
    out = list(seq)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1])
    return tuple(out)


def envelope(p: int, entries) -> IntSeq:
    """Least majorant whose consecutive differences are all >= p - 1.

    Defined for non-increasing input only; for p = 1 it is the identity.
    """
    if p < 1:
        raise InputError(f"base must be >= 1, got {p}")
    seq = _checked(entries)
    if not is_nonincreasing(seq):
        raise InputError(f"envelope needs a non-increasing sequence, got {seq}")
    out = list(seq)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i + 1] + (p - 1), out[i])
    return tuple(out)


def gap_norm(entries) -> "int | _Infinity":
    """Minimum consecutive difference; INFINITY for length-1 sequences."""
    seq = _checked(entries)
    if not is_nonincreasing(seq):
        raise InputError(f"gap norm needs a non-increasing sequence, got {seq}")
    if len(seq) == 1:
        return INFINITY
    return min(seq[i] - seq[i + 1] for i in range(len(seq) - 1))


def _closure(bits: int, stride: int, width: int, count: int | None = None) -> int:
    """The union of bits << j * stride, 0 <= j < count (or all j), cut to width bits."""
    mask, span = (1 << width) - 1, 1
    count = min(width // stride + 1, count or width + 1)
    while 2 * span <= count:
        bits |= bits << span * stride & mask
        span *= 2
    return bits | bits << (count - span) * stride & mask


def _reach(coeffs, floors, lo: int, bound: int, starts) -> int:
    """Bitset of the values <= bound of v + sum(y_i * coeffs[i-1]), bit k for lo + k.

    Each start (f, v, cover, x, step) opens a loop y_f = x, x + step, ...;
    below it each y_i (i < f) runs from max(0, floors[i-1] - cover - y_{i+1}
    - ... - y_f) up by 1.  At f = 0 the coefficient is 1 with no loop below.
    The coefficients increase and the floors do not.

    From the top level down, each level keeps one bitset per loop head
    (tail sum capped at cap = floors[0], step).  A bit counts from the least
    value its branch can end at, the floors below met by the cheapest, lowest
    coordinates: a child loop inherits it, and a branch past the bound drops
    out.  Loop steps below the next floor share its key at a fixed distance:
    one bounded closure.  Up to cap each step is a shift into its own key.
    From cap on every floor is met, so capping is exact and the rest is one
    closure, as are level 1 and f = 0.  A start below lo raises VerificationError.
    """
    cap, width = floors[0], bound - lo + 1
    mask = (1 << width) - 1
    pre = list(accumulate(map(mul, coeffs, map(sub, floors, floors[1:])), initial=0))

    def least(tail: int, i: int) -> int:
        # least sum(y_j * coeffs[j-1]), j < i: fill the m floors over the tail
        m = 0 if tail >= cap else min(bisect_left(floors, -tail, key=neg), i - 1)
        return coeffs[m - 1] * (floors[m - 1] - tail) + pre[m - 1] if m > 0 else 0

    heads = [defaultdict(int) for _ in range(len(coeffs) + 1)]  # {(tail, step): bits} per level
    for f, v, cover, x, step in starts:
        tail = min(cover + x, cap)
        k = v + (coeffs[f - 1] if f else 1) * x + least(tail, f) - lo
        if k < 0:
            raise VerificationError(f"a start at level {f} reaches {lo + k}, below {lo}")
        if k < width:
            heads[f][tail, step] |= 1 << k
    for i in range(len(coeffs), 1, -1):
        c, floor, below = coeffs[i - 1], floors[i - 2], heads[i - 1]
        for (tail, step), bits in heads.pop().items():
            low, base = (bits & -bits).bit_length() - 1, least(tail, i) + c * tail
            if tail < floor:
                n = -((tail - floor) // step)
                below[floor, 1] |= _closure(bits, (c - coeffs[i - 2]) * step, width, n)
                tail += n * step
            shift = c * tail + least(tail, i) - base
            while tail < cap and low + shift < width:
                below[tail, 1] |= bits << shift & mask
                tail += step
                shift = c * tail + least(tail, i) - base
            if low + shift < width:
                below[cap, 1] |= _closure(bits << shift & mask, c * step, width)
    out = 0
    for c, level in zip((1, coeffs[0]), heads):  # at level 1 every tail is cap
        for (_, step), bits in level.items():
            out |= _closure(bits, c * step, width)
    return out


def _sieve_length(lo: int, hi: int, step: int, what: Callable[[], str]) -> int:
    """Count of lo, lo + step, ... <= hi; above SIEVE_LIMIT, OutOfRangeError naming what()."""
    n = max((hi - lo) // step + 1, 0)
    if n > SIEVE_LIMIT:
        raise OutOfRangeError(f"{what()} spans {n} values, over the limit of {SIEVE_LIMIT}")
    return n


def _marks(bits: int, lo: int, bound: int, step: int) -> str:
    """The marks "1" (bit set) or "0" of lo, lo + step, ... <= bound; a set bit off them raises."""
    marks = format(bits | 1 << bound - lo + 1, "b")[:0:-step]  # the top bit fixes the length
    if marks.count("1") != bits.bit_count():
        raise VerificationError(f"reached values leave the lattice {lo} + {step}N_0")
    return marks


def _holes(marks: str, lo: int, step: int, first: int) -> tuple[int, ...]:
    """The values lo + k * step, k >= first, marked "0"; compress drops the "1"s, made NULs."""
    values = range(lo + first * step, lo + len(marks) * step, step)
    return tuple(compress(values, marks[first:].encode().replace(b"1", b"\0")))


def _mainline_reach(p: int, t: IntSeq, lo: int, bound: int) -> int:
    # wp(b) = sum(y_j * q_j), y_i + ... + y_e >= t_i, q_j = q_(j-1) + p^(e-j)
    e = len(t)
    q = list(accumulate(p ** (e - j) for j in range(1, e + 1)))
    return _reach(q, t, lo, bound, [(e, 0, 0, t[-1], 1)])


def is_mainline(p: int, entries, m: int) -> bool:
    """Is m = wp(b) for some non-increasing b dominating a?

    Every integer from U = wp(envelope) on is a member, so m >= U answers
    True at once.  Below U the bitset (see `_reach`) runs from mu = wp(hull)
    to m, and above SIEVE_LIMIT = 10^6 bitset bytes it raises
    OutOfRangeError first.
    """
    if p < 2:
        raise InputError(f"mainline membership needs p >= 2, got {p}")
    t = hull(entries)
    mu = wp_eval(p, t)
    if m < mu:
        return False
    if m >= wp_eval(p, envelope(p, t)):
        return True
    if (size := (m - mu) // 8 + 1) > SIEVE_LIMIT:
        what = f"the membership test of {m} for {t} at p = {p}"
        raise OutOfRangeError(f"{what} needs {size} bitset bytes, over the limit of {SIEVE_LIMIT}")
    return bool(_mainline_reach(p, t, mu, m) >> m - mu & 1)


@dataclass(frozen=True)
class MainlineProfile:
    """Minimum, stabilisation point, and gap set of the mainline integers."""

    mu: int
    sigma: int
    gaps: tuple[int, ...]


def mainline_profile(p: int, entries) -> MainlineProfile:
    """Profile of the mainline integers of a.

    mu is wp of the hull.  Every integer >= wp of the p-enveloping sequence
    of the hull is a member, so enumerating up to that bound finds all
    non-members; sigma is one past the largest of them (mu itself when
    there are none above mu).  The bitset holds one bit per integer from mu
    to that bound; above SIEVE_LIMIT = 10^6 bits it raises OutOfRangeError
    before enumerating anything.
    """
    if p < 2:
        raise InputError(f"mainline profile needs p >= 2, got {p}")
    t = hull(entries)
    mu, upper = wp_eval(p, t), wp_eval(p, envelope(p, t))
    _sieve_length(mu, upper - 1, 1, lambda: f"the mainline profile of {t} at p = {p}")
    gaps = _holes(_marks(_mainline_reach(p, t, mu, upper - 1), mu, upper - 1, 1), mu, 1, 1)
    sigma = gaps[-1] + 1 if gaps else mu
    return MainlineProfile(mu=mu, sigma=sigma, gaps=gaps)
