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

Each progression is marked in a sieve, one byte per value of the lattice
from its least value -1 (doubled: -2 // epsilon) up to B, by one slice
assignment.  The minimum is the first mark and the gaps are the holes after
it, read in one pass and kept as doubled ints: a descriptor built by the
scan makes its HalfInt gaps only when gaps_reduced is read, and the genus
view and the CLI lift and print the ints directly.  A sieve longer than
SIEVE_LIMIT = 10^6 values is refused with OutOfRangeError before anything
is enumerated.  In the tests and the benchmark the longest scan sieve has
38 456 values (13:0,0,1 up to its B) and the longest oracle sieve 200 002
(2:1 up to 200 000).

The scan is self-certifying: adding 2 to every coordinate of an
admissibility block element stays in the block and raises the reduced
genus by exactly p^e, so once a full window of length p^e below B is
present, everything above it is too.  The window is checked at runtime and
a failure raises instead of reporting a wrong stable genus.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import mul

from .errors import InputError, OutOfRangeError, UnsupportedError, VerificationError
from .group import AbelianPGroup, e_prime, kulkarni_n
from .halfint import HalfInt, twice_text
from .mainline import _holes, _progressions, _sieve, _sieve_length, envelope, hull, wp_eval
from .mingenus import mu0
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
        lo, hi, step = self.min_reduced.twice, self.stable_reduced.twice, 2 // self.epsilon
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
        return HalfInt(2 // self.epsilon)

    @property
    def lattice_min(self) -> HalfInt:
        return HalfInt(-2 // self.epsilon)

    def in_lattice(self, v: HalfInt) -> bool:
        if v.twice < -2 // self.epsilon:
            return False
        return self.epsilon == 2 or v.twice % 2 == 0

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
    return all(x >= G.p - 1 for x in G.r[:-1]) and G.r[-1] >= max(G.p - 2, 1)


def reduced_min_large(G: AbelianPGroup) -> HalfInt:
    """Closed-form mu_0 = sigma_0 for groups with large invariants."""
    return HalfInt(-1 - G.exponent + sum(map(mul, period_weights(G.p, G.e), G.r)))


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


def _admissible_twice(G: AbelianPGroup, twice_bound: int) -> bytearray:
    """Sieve of the doubled reduced genera <= twice_bound of all admissible
    data: byte k marks lo + k * step, with (lo, step) = _lattice(G.epsilon).

    Only admissible data are enumerated: the criterion's tail-sum bounds
    2h + x_i + ... + x_f >= s_i are the loops' lower limits.  The period-free
    datum counts when 2h >= s_1 - 1, which gives one progression in h.
    Otherwise the top period index f is fixed (2h >= s_{f+1} - 1), x_f
    starts at max(2, s_f - 2h) (even, stepping by 2, for p = 2 above e'),
    and the lower x_i are left to the shared engine `_progressions`.  Above
    SIEVE_LIMIT lattice values up to the bound it raises OutOfRangeError
    before enumerating anything.
    """
    lo, step = _lattice(G.epsilon)
    n = _sieve_length(
        lo, twice_bound, step, lambda: f"the scan of {G} up to {twice_text(twice_bound)}"
    )
    p, e = G.p, G.e
    pe = p**e
    s = G.s
    ep = e_prime(G)
    # above e' the criterion asks for an even x_f; there s_f <= 2, so x_f
    # starts at 2 and steps by 2
    starts = [
        (f, 2 * (h - 1) * pe, 2 * h, max(2, s[f - 1] - 2 * h), 2 if p == 2 and ep < f else 1)
        for h in range(twice_bound // (2 * pe) + 2)
        for f in range(1, e + 1)
        if 2 * h >= s[f] - 1
    ]
    progressions = _progressions(period_weights(p, e), s, twice_bound, starts)
    progressions.append((2 * pe, 2 * (s[0] // 2 - 1) * pe))
    return _sieve(progressions, lo, step, n)


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
    sieve = _admissible_twice(G, bound.twice)
    return tuple(map(HalfInt, compress(range(lo, bound.twice + 1, step), sieve)))


def scan_bound(G: AbelianPGroup) -> HalfInt:
    """Completeness bound B(G) for the general spectrum scan.

    Two estimates are combined: (p-1)/2 times the enveloping evaluation of
    the s-sequence, and a tail bound obtained by first raising the last
    entry to p-1 so that every residue class of the lattice is reached
    inside the top block.  The scan independently re-verifies the window
    below the returned bound, so B only has to be generous, not sharp.
    """
    p, e = G.p, G.e
    s = list(G.s[:e])
    if p == 2 and e_prime(G) < e and s[-1] % 2 == 1:
        s[-1] += 1
    spec_twice = (p - 1) * wp_eval(p, envelope(p, hull(s)))

    raised = hull(s[:-1] + [max(s[-1], p - 1)])
    tail_twice = (p - 1) * (wp_eval(p, envelope(p, raised)) + 1)
    return HalfInt(max(spec_twice, tail_twice))


def full_spectrum(G: AbelianPGroup) -> SpectrumDescriptor:
    """Exact spectrum descriptor for an arbitrary abelian p-group.

    Outside the large-invariant family the lattice is sieved up to
    scan_bound(G); above SIEVE_LIMIT = 10^6 lattice values up to that bound
    it raises OutOfRangeError before enumerating anything.
    """
    if has_large_invariants(G):
        return closed_form_spectrum(G)

    bound = scan_bound(G)
    sieve = _admissible_twice(G, bound.twice)
    first = sieve.find(1)
    if first < 0:
        raise VerificationError(f"no admissible data below {bound} for {G}")

    lo, step = _lattice(G.epsilon)
    window_low = bound.twice - 2 * G.p**G.e
    # a hole at or after the first lattice value >= window_low
    hole = sieve.find(0, max(-((lo - window_low) // step), 0))
    if hole >= 0:
        bad = [HalfInt(t) for t in _holes(sieve, lo, step, hole)[:5]]
        raise VerificationError(
            f"scan window [{twice_text(window_low)}, {bound}] for {G} is incomplete at {bad}; "
            "the completeness bound is too small"
        )

    min_twice = lo + first * step
    gaps = _holes(sieve, lo, step, first + 1)
    return SpectrumDescriptor._from_twice(
        G.epsilon, min_twice, gaps[-1] + step if gaps else min_twice, gaps, bound
    )


def spectrum_bound_formula(p: int, e: int) -> int:
    """Least m accepted by group_for_spectrum."""
    if p == 2:
        return (e - 1) * 2 ** (e + 1) + 2
    return (2 * e - 1) * p**e - 2 * (p**e - 1) // (p - 1) + 1


def group_for_spectrum(p: int, e: int, m: int) -> AbelianPGroup:
    """A group of exponent p^e with reduced spectrum starting (and stable) at
    -p^e + ((p-1)/2) m.

    The base sequence a_e = max(p-1, 2), a_{e-i} = a_e + 2i(p-1) evaluates
    exactly to the least admissible m; the excess is absorbed digit-wise in
    a partial p-adic expansion whose carries keep all invariants large.
    """
    if e < 1:
        raise OutOfRangeError(f"exponent index must be >= 1, got {e}")
    a = [max(p - 1, 2) + 2 * (p - 1) * (e - j) for j in range(1, e + 1)]
    base = wp_eval(p, a)
    if base != spectrum_bound_formula(p, e):
        raise VerificationError(f"base sequence for p = {p}, e = {e} evaluates to {base}")
    if m < base:
        raise OutOfRangeError(f"m = {m} below the least admissible value {base}")

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
    rank-2 groups and Z_2^3.  The sign of the computed reduced minimum is
    checked against the classification.
    """
    if G.is_cyclic or (G.p == 2 and G.r == (2,)):
        out = SmallClass.GENUS_ZERO
    elif G.rank == 2 or (G.p == 2 and G.r == (3,)):
        out = SmallClass.GENUS_ONE
    else:
        out = SmallClass.POSITIVE

    value = mu0(G).mu0
    expected = (
        SmallClass.GENUS_ZERO
        if value < 0
        else SmallClass.GENUS_ONE if value == 0 else SmallClass.POSITIVE
    )
    if out is not expected:
        raise VerificationError(f"{G} classifies as {out.value} but has reduced minimum {value}")
    return out


def mu0_plus(G: AbelianPGroup) -> HalfInt:
    """Smallest positive reduced genus.

    Rank <= 2 has closed forms (three families plus six small exceptions);
    larger ranks fall back to the verified spectrum descriptor.
    """
    p, e = G.p, G.e
    pe = p**e
    if G.is_cyclic:
        if pe in (2, 3, 4):
            return HalfInt.of(1)
        return HalfInt(period_weights(p, e)[0] - 2)
    if G.rank == 2:
        if G.p == 2 and G.r == (2,):
            return HalfInt(1)
        if G.p == 2 and G.r == (1, 1):
            return HalfInt.of(1)
        if G.p == 3 and G.r == (2,):
            return HalfInt.of(1)
        if G.r[-1] == 2:
            return HalfInt(pe - 3)
        ep = e_prime(G)
        return HalfInt(period_weights(p, e)[ep - 1] - 2)

    desc = full_spectrum(G)
    v = max(desc.min_reduced, desc.step)
    while not desc.contains_reduced(v):
        v = v + desc.step
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
