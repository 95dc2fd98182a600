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
data, so one engine, `_progressions`, enumerates both.  No closed form for
sigma(a) or the gap set is known in general; the profile is read off that
enumeration below the proven enveloping bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable

from .errors import InputError, OutOfRangeError, VerificationError

# Most values one sieve may hold, at one byte each: the preflight limit of
# mainline_profile, spectrum.full_spectrum and spectrum.oracle_reduced_spectrum.
SIEVE_LIMIT = 10**6

# bytes.translate table that turns a sieve's marks into its holes
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


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
    seq = tuple(int(x) for x in entries)
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


def _progressions(coeffs, floors, bound: int, starts) -> list[tuple[int, int]]:
    """Values <= bound of v + sum(y_i * coeffs[i-1]) as (step, least start) pairs.

    Each start (f, v, cover, x, step) opens a loop y_f = x, x + step, ...;
    below it each y_i (i < f) runs from max(0, floors[i-1] - cover - y_{i+1}
    - ... - y_f) up by 1.  The coefficients are positive, the floors
    non-increasing and each step is 1 or 2.

    The loops run level by level, from the top down.  A level's passed set
    of states (partial value, tail sum capped at floors[0], step) starts as
    its loops' first states, and each loop runs to its end or to a state
    the set holds, adding at each state its child loop's first state, unless
    past the bound, to the level below.  As the floors are non-increasing, a
    state fixes the rest of its loop and every child loop, and the set holds
    only states whose loops run, so that stop loses nothing.  With
    O(k floors[0] (bound - min v)) passed states for k levels, the work grows
    linearly with the bound, not as a power of it.  The innermost coordinate
    y_1 is unbounded above, so its values form one arithmetic progression;
    per (step, residue) only the least start is kept.
    """
    cap = floors[0]
    level: list[set[tuple[int, int, int]]] = [set() for _ in coeffs]
    for i, v, cover, x, step in starts:
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
    return [(c, v) for (c, _), v in lowest.items()]


def _sieve_length(lo: int, hi: int, step: int, what: Callable[[], str]) -> int:
    """Count of lo, lo + step, ... <= hi.  Above SIEVE_LIMIT it raises
    OutOfRangeError, naming the job by what(), which only then is called."""
    n = max((hi - lo) // step + 1, 0)
    if n > SIEVE_LIMIT:
        raise OutOfRangeError(f"{what()} spans {n} values, over the limit of {SIEVE_LIMIT}")
    return n


def _sieve(progressions, lo: int, step: int, n: int) -> bytearray:
    """Byte k is 1 when lo + k * step lies on one of the progressions.

    Each (c, v) from `_progressions` is marked by one slice assignment.  A
    progression off the lattice lo + step * N_0 raises VerificationError.
    """
    sieve = bytearray(n)
    ones = memoryview(b"\1" * n)
    for c, v in progressions:
        k, off = divmod(v - lo, step)
        if k < 0 or off or c % step:
            raise VerificationError(f"progression {v} + {c}N_0 leaves the lattice {lo} + {step}N_0")
        if k < n:
            stride = c // step
            sieve[k::stride] = ones[: (n - 1 - k) // stride + 1]
    return sieve


def _holes(sieve: bytearray, lo: int, step: int, first: int) -> tuple[int, ...]:
    """The values lo + k * step, k >= first, left unmarked in the sieve."""
    values = range(lo + first * step, lo + len(sieve) * step, step)
    return tuple(compress(values, sieve[first:].translate(_FLIP)))


def _mainline_progressions(p: int, t: IntSeq, bound: int) -> list[tuple[int, int]]:
    # wp(b) = sum(y_j * q_j) over y_j >= 0 with y_i + ... + y_e >= t_i
    # q_j = wp(1^j 0^(e-j)) = q_(j-1) + p^(e-j)
    e = len(t)
    q = list(accumulate(p ** (e - j) for j in range(1, e + 1)))
    return _progressions(q, t, bound, [(e, 0, 0, t[-1], 1)])


def is_mainline(p: int, entries, m: int) -> bool:
    """Is m = wp(b) for some non-increasing b dominating a?

    Every progression has step q_1 = p^(e-1), and every integer from
    U = wp(envelope) on is a member, so each residue mod q_1 has its least
    member below U + q_1.  The enumeration (see `_progressions`) therefore
    stops at min(m, U + q_1 - 1): its cost grows with m up to that bound and
    stays flat beyond it.
    """
    if p < 2:
        raise InputError(f"mainline membership needs p >= 2, got {p}")
    if m < 0:
        return False
    t = hull(entries)
    bound = min(m, wp_eval(p, envelope(p, t)) + p ** (len(t) - 1) - 1)
    return any((m - v) % c == 0 for c, v in _mainline_progressions(p, t, bound))


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
    there are none above mu).  The members below the bound are marked in a
    sieve of one byte per integer from mu on, so above SIEVE_LIMIT = 10^6
    integers between mu and that bound it raises OutOfRangeError before
    enumerating anything.
    """
    if p < 2:
        raise InputError(f"mainline profile needs p >= 2, got {p}")
    t = hull(entries)
    mu = wp_eval(p, t)
    upper = wp_eval(p, envelope(p, t))
    n = _sieve_length(mu, upper - 1, 1, lambda: f"the mainline profile of {t} at p = {p}")
    sieve = _sieve(_mainline_progressions(p, t, upper - 1), mu, 1, n)
    gaps = _holes(sieve, mu, 1, 1)
    sigma = gaps[-1] + 1 if gaps else mu
    return MainlineProfile(mu=mu, sigma=sigma, gaps=gaps)
