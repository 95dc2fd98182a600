"""Full reduced spectra: closed forms, oracle enumeration, and bounded scans.

Groups with large invariants (r_i >= p-1 below the top, r_e >= max(p-2, 1))
have no spectral gap: the reduced spectrum is the full epsilon-lattice from

    mu_0 = sigma_0 = (1/2) (-1 - p^e + sum (p^e - p^{e-i}) r_i)

on.  For everything else the spectrum is computed exactly by exhausting the
admissible data up to a completeness bound B and locating the gaps.  The
enumeration visits admissible data only: the admissibility criterion's
tail-sum bounds are its loops' lower limits, and the last coordinate is
taken as a whole arithmetic progression.  The tests cross-check it against
a per-datum application of the criterion.

The values reached form one int bitset, a bit per doubled value from the
lattice's least value -1 (doubled: -2 // epsilon) up to B; a set bit off the
lattice raises.  The minimum is the first lattice mark and the gaps are the
unmarked values after it, kept as doubled ints until gaps_reduced is read.
Above SIEVE_LIMIT = 10^6 lattice values a scan raises OutOfRangeError before
enumerating.  The longest runs in the tests and the benchmark mark 38 456
values (the scan of 13:0,0,1), 300 002 (the oracle of 3:3000,0,1 up to
300 000) and 323 633 (7:100,0,0,1 at three times its scan bound).

The scan is self-certifying: adding 2 to every coordinate of an
admissibility block element stays in the block and raises the reduced
genus by exactly p^e, so once a full window of length p^e below B is
present, everything above it is too.  The window is checked at runtime and
a failure raises instead of reporting a wrong stable genus.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import mul

from .errors import (
    InputError,
    InvalidPrimeError,
    OutOfRangeError,
    UnsupportedError,
    VerificationError,
    _as_int,
    _int_in,
)
from .group import AbelianPGroup, _may_pass_power_bits, _power_bits_error, _prime
from .group import e_prime, kulkarni_n
from .halfint import HalfInt, twice_text
from .mainline import _closure, _holes, _majorant, _marks, _reach, _sieve_length, wp_eval
from .mingenus import _reduced_minimum
from .signature import genus_of, genus_of_twice, period_weights


@dataclass(frozen=True)
class SpectrumDescriptor:
    """Co-finite subset of the lattice (1/epsilon)({-1} u N_0).

    Everything at or above stable_reduced is present; between min_reduced
    and stable_reduced exactly the listed gaps are absent.  verified_bound
    records how far an exhaustive scan confirmed membership (None when the
    closed form proves the whole tail).

    gaps_twice holds the gaps as doubled ints, in the order of gaps_reduced.
    A scan builds its descriptor from those ints alone (`_from_twice`), and
    its gaps_reduced is made from them on first read; it equals, hashes and
    reprs like the one passed to the public constructor.  Both routes run
    the same checks, once, on the doubled values.
    """

    epsilon: int
    min_reduced: HalfInt
    stable_reduced: HalfInt
    gaps_reduced: tuple[HalfInt, ...]
    verified_bound: HalfInt | None

    def __post_init__(self) -> None:
        self._check(tuple(g.twice for g in self.gaps_reduced))

    @classmethod
    def _from_twice(
        cls,
        epsilon: int,
        min_twice: int,
        stable_twice: int,
        gaps_twice: tuple[int, ...],
        verified_bound: HalfInt | None,
    ) -> "SpectrumDescriptor":
        # every field but gaps_reduced, stored as the frozen __init__ stores them
        desc = cls.__new__(cls)
        desc.__dict__.update(
            epsilon=epsilon,
            min_reduced=HalfInt(min_twice),
            stable_reduced=HalfInt(stable_twice),
            verified_bound=verified_bound,
        )
        desc._check(gaps_twice)
        return desc

    def _check(self, gaps_twice: tuple[int, ...]) -> None:
        if self.epsilon not in (1, 2):
            raise InputError(f"epsilon must be 1 or 2, got {self.epsilon}")
        for v in (self.min_reduced, self.stable_reduced):
            if not self.in_lattice(v):
                raise InputError(f"{v} is not in the epsilon={self.epsilon} lattice")
        lo, hi, step = self.min_reduced.twice, self.stable_reduced.twice, _lattice(self.epsilon)[1]
        for t in gaps_twice:
            if t % step:
                raise InputError(f"{twice_text(t)} is not in the epsilon={self.epsilon} lattice")
            if not lo < t < hi:
                raise InputError("gaps must lie strictly between minimum and stable value")
        self.__dict__["gaps_twice"] = gaps_twice

    def __getattr__(self, name: str):
        # only reached when the field is unset: a descriptor from _from_twice
        if name != "gaps_reduced" or "gaps_twice" not in self.__dict__:
            raise AttributeError(name)
        gaps = self.__dict__[name] = tuple(map(HalfInt, self.gaps_twice))
        return gaps

    @property
    def step(self) -> HalfInt:
        return HalfInt(_lattice(self.epsilon)[1])

    @property
    def lattice_min(self) -> HalfInt:
        return HalfInt(_lattice(self.epsilon)[0])

    def in_lattice(self, v: HalfInt) -> bool:
        lo, step = _lattice(self.epsilon)
        return v.twice >= lo and v.twice % step == 0

    @cached_property
    def _gap_set(self) -> frozenset[int]:
        return frozenset(self.gaps_twice)

    def contains_reduced(self, v: HalfInt | int) -> bool:
        v = HalfInt.coerce(v)
        if not self.in_lattice(v) or v < self.min_reduced:
            return False
        return v >= self.stable_reduced or v.twice not in self._gap_set

    def reduced_values_up_to(self, bound: HalfInt | int) -> tuple[HalfInt, ...]:
        """The reduced genera up to bound, ascending.  Above SIEVE_LIMIT = 10^6
        lattice values from min_reduced to bound it raises OutOfRangeError
        before building any."""
        bound = HalfInt.coerce(bound)
        lo, hi, step = self.min_reduced.twice, bound.twice, self.step.twice
        _sieve_length(lo, hi, step, lambda: f"the values from {self.min_reduced} to {bound}")
        gaps = self._gap_set
        return tuple(HalfInt(t) for t in range(lo, hi + 1, step) if t not in gaps)

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "min": str(self.min_reduced),
            "stable": str(self.stable_reduced),
            "gaps": [twice_text(t) for t in self.gaps_twice],
            "verified_bound": "inf" if self.verified_bound is None else str(self.verified_bound),
        }


def has_large_invariants(G: AbelianPGroup) -> bool:
    """r_i >= p-1 for i < e and r_e >= max(p-2, 1)."""
    return _large_test(G.p)(G.r)


def _large_test(p: int) -> Callable[[tuple[int, ...]], bool]:
    """has_large_invariants on the invariants r of a group of prime p, with
    the floors worked out once: the search tests many groups of one p."""
    low, top = p - 1, max(p - 2, 1)
    # min()'s default keyword took half the test's time
    return lambda r: min(r[:-1] or (low,)) >= low and r[-1] >= top


def reduced_min_large(G: AbelianPGroup) -> HalfInt:
    """Closed-form mu_0 = sigma_0 for groups with large invariants."""
    return HalfInt(_twice_min_reader(G.p, G.e)(G.r))


def _twice_min_reader(p: int, e: int) -> Callable[[tuple[int, ...]], int]:
    """r -> 2 mu_0 = -1 - p^e + sum c_i r_i, the c_i of `period_weights`, for
    the invariants r of a group of exponent p^e with large invariants.  p^e
    and the weights are read once, for the search's many groups of one p^e."""
    pe, weights = p**e, period_weights(p, e)
    return lambda r: -1 - pe + sum(map(mul, weights, r))


def closed_form_spectrum(G: AbelianPGroup) -> SpectrumDescriptor:
    if not has_large_invariants(G):
        raise UnsupportedError(f"{G} does not satisfy the large-invariant hypothesis")
    value = reduced_min_large(G)
    return SpectrumDescriptor(
        epsilon=G.epsilon,
        min_reduced=value,
        stable_reduced=value,
        gaps_reduced=(),
        verified_bound=None,
    )


def _lattice(epsilon: int) -> tuple[int, int]:
    """Doubled least value and step of the reduced lattice (1/epsilon)({-1} u N_0)."""
    return -2 // epsilon, 2 // epsilon


def _admissible_twice(G: AbelianPGroup, twice_bound: int) -> str:
    """Marks ("1" or "0") of the lattice values lo + k * step <= twice_bound,
    (lo, step) = _lattice(G.epsilon): "1" for the doubled reduced genera of
    admissible data, the only data enumerated: the criterion's tail-sum
    bounds 2h + x_i + ... + x_f >= s_i are the loops' lower limits.  The
    period-free datum (2h >= s_1 - 1) is the start f = 0.  Otherwise the top
    period index f is fixed (2h >= s_{f+1} - 1), x_f starts at max(2, s_f -
    2h) (even, stepping by 2, for p = 2 above e'), and `_reach` runs the
    lower x_i.  From h = s_1 // 2 on each start is the one before shifted by
    2p^e, so the starts stop there and the bitset is closed under + 2p^e.
    Above SIEVE_LIMIT lattice values it raises OutOfRangeError first."""
    lo, step = _lattice(G.epsilon)
    _sieve_length(lo, twice_bound, step, lambda: f"the scan of {G} up to {twice_text(twice_bound)}")
    p, e, s, ep = G.p, G.e, G.s, e_prime(G)
    pe = p**e
    # above e' the criterion asks for an even x_f, and there s_f <= 2
    starts = [
        (f, 2 * (h - 1) * pe, 2 * h, max(2, s[f - 1] - 2 * h), 2 if p == 2 and ep < f else 1)
        for h in range(min(s[0] // 2, twice_bound // (2 * pe) + 1) + 1)
        for f in range(1, e + 1)
        if 2 * h >= s[f] - 1
    ]
    starts.append((0, 2 * (s[0] // 2 - 1) * pe, 0, 0, 2 * pe))
    bits = _reach(period_weights(p, e), s, lo, twice_bound, starts)
    return _marks(_closure(bits, 2 * pe, twice_bound - lo + 1), lo, twice_bound, step)


def oracle_reduced_spectrum(G: AbelianPGroup, bound: HalfInt | int) -> tuple[HalfInt, ...]:
    """All reduced genera <= bound, by exhaustive enumeration of admissible data.

    Every coordinate of the reduced genus map has a positive coefficient
    (p^e for h, (p^e - p^{e-i})/2 for x_i), so coordinates are bounded by
    the target.  The criterion is never tested per datum: its tail-sum
    bounds are the loops' lower limits (see `_admissible_twice`).  Above
    SIEVE_LIMIT = 10^6 lattice values up to the bound it raises
    OutOfRangeError.
    """
    bound = HalfInt.coerce(bound)
    if bound < HalfInt(-2):
        raise OutOfRangeError(f"bound must be >= -1, got {bound}")
    lo, step = _lattice(G.epsilon)
    marks = _admissible_twice(G, bound.twice).encode().replace(b"0", b"\0")
    return tuple(map(HalfInt, compress(range(lo, bound.twice + 1, step), marks)))


def scan_bound(G: AbelianPGroup) -> HalfInt:
    """Completeness bound B(G) for the general spectrum scan.

    (p-1)/2 times one more than the enveloping evaluation of the hull of the
    s-sequence whose last entry is first raised to p-1, so that every
    residue class of the lattice is reached inside the top block.  Without
    that raise and the + 1 the estimate is never larger, since hull,
    envelope and wp are monotone.  The envelope of a hull is one majorant
    fold with gaps p - 1.  The scan independently re-verifies the window
    below the returned bound, so B only has to be generous, not sharp.
    """
    p, s = G.p, G.s[: G.e]
    env = _majorant([*s[:-1], max(s[-1], p - 1)], p - 1)  # envelope(p, hull(raised s))
    return HalfInt((p - 1) * (wp_eval(p, env) + 1))


def full_spectrum(G: AbelianPGroup) -> SpectrumDescriptor:
    """Exact spectrum descriptor for an arbitrary abelian p-group.

    Outside the large-invariant family the lattice is marked up to
    scan_bound(G); above SIEVE_LIMIT = 10^6 lattice values up to that bound
    it raises OutOfRangeError before enumerating anything.
    """
    if has_large_invariants(G):
        return closed_form_spectrum(G)

    bound = scan_bound(G)
    marks = _admissible_twice(G, bound.twice)
    first = marks.find("1")
    if first < 0:
        raise VerificationError(f"no admissible data below {bound} for {G}")

    lo, step = _lattice(G.epsilon)
    window_low = bound.twice - 2 * G.p**G.e
    # a hole at or after the first lattice value >= window_low
    hole = marks.find("0", max(-((lo - window_low) // step), 0))
    if hole >= 0:
        bad = [HalfInt(t) for t in _holes(marks, lo, step, hole)[:5]]
        raise VerificationError(
            f"scan window [{twice_text(window_low)}, {bound}] for {G} is incomplete at {bad}; "
            "the completeness bound is too small"
        )

    min_twice = lo + first * step
    gaps = _holes(marks, lo, step, first + 1)
    return SpectrumDescriptor._from_twice(
        G.epsilon, min_twice, gaps[-1] + step if gaps else min_twice, gaps, bound
    )


def spectrum_bound_formula(p: int, e: int) -> int:
    """Least m accepted by group_for_spectrum, for a prime p and e >= 1.
    Where p^e may pass POWER_BITS_LIMIT bits it raises OutOfRangeError."""
    p, e = _prime(p, InvalidPrimeError), _int_in(e, "exponent index", 1, error=OutOfRangeError)
    if _may_pass_power_bits(p, e):
        raise _power_bits_error(f"p^e = {p}^{e}")
    pe = p**e
    if p == 2:
        return (e - 1) * 2 * pe + 2
    return (2 * e - 1) * pe - 2 * (pe - 1) // (p - 1) + 1


def group_for_spectrum(p: int, e: int, m: int) -> AbelianPGroup:
    """A group of exponent p^e with reduced spectrum starting (and stable) at
    -p^e + ((p-1)/2) m.

    The base sequence a_e = max(p-1, 2), a_{e-i} = a_e + 2i(p-1) evaluates
    exactly to the least admissible m; the excess is absorbed digit-wise in
    a partial p-adic expansion whose carries keep all invariants large.
    """
    p = _int_in(p, "p", 2)
    e = _int_in(e, "exponent index", 1, error=OutOfRangeError)
    m = _as_int(m)
    least = spectrum_bound_formula(p, e)  # refuses a p^e past the limit before the e entries
    if m < least:  # so is a small m: evaluating the entries is quadratic in e
        raise OutOfRangeError(f"m = {m} below the least admissible value {least}")
    a = [max(p - 1, 2) + 2 * (p - 1) * (e - j) for j in range(1, e + 1)]
    base = wp_eval(p, a)
    if base != least:
        raise VerificationError(f"base sequence for p = {p}, e = {e} evaluates to {base}")

    rem = m - base
    b = [0] * e
    for j in range(e - 1, 0, -1):
        b[j] = rem % p
        rem //= p
    b[0] = rem
    s = [ai + bi for ai, bi in zip(a, b)]
    r = [s[i] - s[i + 1] for i in range(e - 1)] + [s[e - 1] - 1]
    G = AbelianPGroup(p, tuple(r))
    if not has_large_invariants(G):
        raise VerificationError(f"constructed {G} for m = {m} lacks large invariants")
    return G


class SmallClass(enum.Enum):
    GENUS_ZERO = "genus_zero"
    GENUS_ONE = "genus_one"
    POSITIVE = "positive"


def classify_small(G: AbelianPGroup) -> SmallClass:
    """Minimum genus 0, 1, or larger, by the closed classification.

    Genus 0: cyclic groups and the Klein four-group.  Genus 1: the remaining
    rank-2 groups and Z_2^3.  The minimum genus 1 + p^delta mu_0 of the
    computed reduced minimum is checked against the classification; it is
    below 1, 1 or above 1 as mu_0 is negative, 0 or positive.
    """
    if G.is_cyclic or (G.p == 2 and G.r == (2,)):
        out = SmallClass.GENUS_ZERO
    elif G.rank == 2 or (G.p == 2 and G.r == (3,)):
        out = SmallClass.GENUS_ONE
    else:
        out = SmallClass.POSITIVE

    twice = _reduced_minimum(G)[2]
    genus = genus_of_twice(G.p_delta, twice)
    expected = (
        SmallClass.GENUS_ZERO
        if genus < 1
        else SmallClass.GENUS_ONE if genus == 1 else SmallClass.POSITIVE
    )
    if out is not expected:
        raise VerificationError(
            f"{G} classifies as {out.value} but has reduced minimum {twice_text(twice)}"
        )
    return out


def mu0_plus(G: AbelianPGroup) -> HalfInt:
    """Smallest positive reduced genus.

    Rank <= 2 with p^e > 4 has closed forms in three families: cyclic, two
    top summands, and one top summand.  Every other group, the rank <= 2
    groups of exponent 2, 3 or 4 included, is read off the verified
    spectrum descriptor as its first candidate `max(min, step)`, which is
    checked to lie in the spectrum.  When the minimum is positive the
    candidate is the minimum, never a gap.  The minimum is <= 0 only for
    minimum genus <= 1, on this branch the eight groups 2:1, 3:1, 2:0,1,
    2:2, 3:2, 2:1,1, 2:0,2 and 2:3, and for each the candidate is in the
    spectrum.
    """
    if G.rank <= 2 and G.exponent > 4:
        weights = period_weights(G.p, G.e)
        if G.is_cyclic:
            return HalfInt(weights[0] - 2)
        if G.r[-1] == 2:
            return HalfInt(G.exponent - 3)
        return HalfInt(weights[e_prime(G) - 1] - 2)

    desc = full_spectrum(G)
    v = max(desc.min_reduced, desc.step)
    if not desc.contains_reduced(v):
        raise VerificationError(f"{G}: the first positive candidate {v} is a gap")
    return v


@dataclass(frozen=True)
class GenusView:
    """Genus-level rendering of a reduced descriptor."""

    min_genus: int
    step: int
    stable_genus: int
    gap_genera: tuple[int, ...]
    ambient_is_n0: bool

    def render(self) -> str:
        gaps = ",".join(str(g) for g in self.gap_genera)
        if self.ambient_is_n0:
            return f"ℕ_0 ∖ {{{gaps}}}" if gaps else "ℕ_0"
        core = f"{self.min_genus}+{self.step}ℕ_0"
        return f"({core}) ∖ {{{gaps}}}" if gaps else core


def genus_view(G: AbelianPGroup, desc: SpectrumDescriptor) -> GenusView:
    pd = G.p_delta
    step = kulkarni_n(pd, desc.epsilon)
    ambient = step == 1
    min_genus = genus_of(pd, desc.min_reduced)
    if ambient and min_genus != 0:
        raise VerificationError(f"{G} has ambient lattice N_0 but minimum genus {min_genus}")
    return GenusView(
        min_genus=min_genus,
        step=step,
        stable_genus=genus_of(pd, desc.stable_reduced),
        gap_genera=tuple(genus_of_twice(pd, t) for t in desc.gaps_twice),
        ambient_is_n0=ambient,
    )
