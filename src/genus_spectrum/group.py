"""Finite abelian p-groups and their numeric invariants.

A group is recorded by its prime p and the multiplicities r = (r_1, ..., r_e)
of the cyclic summands of order p, p^2, ..., p^e; r_e >= 1 pins the exponent.
Derived data: the partial-sum sequence s_i = 1 + r_i + ... + r_e, the largest
index e' from which at least two summands remain, the cyclic deficiency
delta = log_p(|G| / exp(G)), and the Kulkarni invariant N = p^delta / epsilon
governing the arithmetic progression that contains the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .errors import (
    InputError,
    InvalidInvariantsError,
    InvalidPrimeError,
    VerificationError,
    _as_int,
    _naturals,
    _parse_ints,
    _within,
)

# Most bits of p^delta and |G| the library computes, checked before the
# power is: str() of 2^(10^6) took 1.7 s, and of 2^(4 * 10^6) 27 s.
POWER_BITS_LIMIT = 4 * 10**6

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Miller-Rabin with the bases above has no strong pseudoprime below this
# bound (Sorenson and Webster, 2015), so the test is exact there.
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.317 * 10^24.

    Larger n raise OutOfRangeError rather than risk a wrong answer.
    """
    if type(n) is not int:  # is_prime runs on every group build, and an int needs no call
        n = _as_int(n)
    if n <= _MR_BASES[-1]:
        return n in _MR_BASES
    _within(n, _MR_LIMIT - 1, "primality of {} is only decided below {}".format, n, _MR_LIMIT)
    if any(n % q == 0 for q in _MR_BASES):
        return False
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(p, error=InputError) -> int:
    """p as an int (`_as_int`) that is prime; error "p is not prime" otherwise."""
    p = _as_int(p)
    if not is_prime(p):
        raise error(f"{p} is not prime")
    return p


def _power_exponent(p: int, k: int, what: str, of=None) -> int:
    """k, once p^k is known to have at most POWER_BITS_LIMIT bits; checked before
    p^k is computed, and a refusal names the power what = p^k (of `of`, if given)."""
    # p^64 <= 2^b for b = bitlen(p^64 - 1), so p^k has at most 1 + ceil(k * b
    # / 64) bits, exactly that many for p = 2
    _within(1 - k * _power_bits(p) // -64, POWER_BITS_LIMIT, _power_text, what, p, k, of)
    return k


@lru_cache(maxsize=64)
def _power_bits(p: int) -> int:
    # bitlen(p^64 - 1), the per-prime constant of `_power_exponent`'s estimate
    return (p**64 - 1).bit_length()


def _power_text(what: str, p: int, k: int, of) -> str:
    owner = "" if of is None else f" of {of}"
    return f"{what} = {p}^{k}{owner} may pass the limit of {POWER_BITS_LIMIT} bits"


_EXACT_INT = {int}


@dataclass(frozen=True)
class AbelianPGroup:
    """Direct sum of r_i copies of Z_{p^i}, of exponent exactly p^e."""

    p: int
    r: tuple[int, ...]

    def __post_init__(self) -> None:
        p, r = self.p, self.r
        # an exact prime int and a non-empty tuple of exact ints >= 0 are kept as
        # given, and any other input is coerced or refused field by field.  The
        # entry types are tested first: min(r) raises TypeError on a str entry
        if not (
            type(r) is tuple and r and set(map(type, r)) == _EXACT_INT
            and min(r) >= 0 and type(p) is int and is_prime(p)
        ):
            object.__setattr__(self, "p", _prime(p, InvalidPrimeError))
            r = _naturals(r, "invariant list", InvalidInvariantsError)
            object.__setattr__(self, "r", r)
        if r[-1] < 1:
            raise InvalidInvariantsError(
                f"r_e = 0 in {r}: group would not have exponent p^{len(r)}"
            )

    @property
    def e(self) -> int:
        return len(self.r)

    @property
    def rank(self) -> int:
        return sum(self.r)

    @property
    def is_cyclic(self) -> bool:
        return self.rank == 1

    @property
    def s(self) -> tuple[int, ...]:
        """(s_1, ..., s_{e+1}) with s_i = 1 + sum(r_j for j >= i); s_{e+1} = 1.

        Computed on each read, so a caller that indexes it in a loop reads it
        into a local first."""
        return tuple(accumulate(reversed(self.r), initial=1))[::-1]

    @property
    def log_order(self) -> int:
        return self.delta + len(self.r)

    @property
    def order(self) -> int:
        return self.p ** _power_exponent(self.p, self.log_order, "|G|", self)

    @property
    def exponent(self) -> int:
        return self.p ** self.e

    @property
    def delta(self) -> int:
        # log_p |G| = sum(i r_i), less e = log_p exp(G)
        return sum(map(mul, range(1, len(self.r) + 1), self.r)) - len(self.r)

    @property
    def p_delta(self) -> int:
        """p^delta = |G| / exp(G), computed on each read: a cache would keep an
        int of that size on every group, and the search holds thousands."""
        return self.p ** _power_exponent(self.p, self.delta, "p^delta", self)

    @property
    def epsilon(self) -> int:
        # The abelian specialisation of the Kulkarni dichotomy: epsilon = 2
        # exactly for 2-groups with a repeated top summand (r_e >= 2).
        return 2 if self.p == 2 and self.r[-1] >= 2 else 1

    def encode(self) -> str:
        return f"{self.p}:{','.join(str(x) for x in self.r)}"

    def __str__(self) -> str:
        return self.encode()

    def describe(self) -> str:
        """Direct-sum notation, e.g. 'Z_2 + Z_4^2'."""
        parts = [
            f"Z_{self.p ** (i + 1)}" + (f"^{x}" if x > 1 else "")
            for i, x in enumerate(self.r)
            if x > 0
        ]
        return " + ".join(parts)


def parse_group(text: str) -> AbelianPGroup:
    """Parse the canonical encoding 'p:r1,r2,...,re' (no whitespace)."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise InputError(f"group encoding {text!r} lacks ':'")
    nums = _parse_ints((head, *tail.split(",")), "group encoding", text)
    return AbelianPGroup(nums[0], nums[1:])


def top_pair_index(counts: tuple[int, ...]) -> int:
    """Largest d with counts[d-1] + ... + counts[-1] >= 2, or 0 when the
    counts sum to less than 2."""
    tail = 0
    for d in range(len(counts), 0, -1):
        tail += counts[d - 1]
        if tail >= 2:
            return d
    return 0


def e_prime(G: AbelianPGroup) -> int:
    """Largest d with r_d + ... + r_e >= 2, and 0 for cyclic groups.

    Equals e exactly when r_e >= 2; e' < e characterises groups whose
    top-order layer is a single cyclic summand.
    """
    return top_pair_index(G.r)


def kulkarni_n(p_delta: int, epsilon: int) -> int:
    """The Kulkarni invariant N = p^delta / epsilon, the genus step."""
    n, rem = divmod(p_delta, epsilon)
    if rem:
        raise VerificationError(f"epsilon = {epsilon} does not divide p^delta = {p_delta}")
    return n


@dataclass(frozen=True)
class GroupInvariants:
    """The numeric invariants of a group: s, e', delta, epsilon, N and log_p |G|."""

    s: tuple[int, ...]
    e_prime: int
    delta: int
    epsilon: int
    kulkarni_n: int
    log_order: int


def invariants(G: AbelianPGroup) -> GroupInvariants:
    eps = G.epsilon
    return GroupInvariants(
        s=G.s,
        e_prime=e_prime(G),
        delta=G.delta,
        epsilon=eps,
        kulkarni_n=kulkarni_n(G.p_delta, eps),
        log_order=G.log_order,
    )
