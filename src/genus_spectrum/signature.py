"""p-data, the genus maps, and the admissibility criterion.

A p-datum (x_1, ..., x_e; h) abbreviates a surface-kernel signature for a
p-group of exponent p^e: x_i counts periods equal to p^i and h is the orbit
genus.  The Riemann-Hurwitz relation turns an admissible datum into a genus;
removing the |G|-dependent scaling leaves the reduced genus, which lives in
(1/2)Z.

Admissibility, i.e. existence of a smooth (torsion-free-kernel) epimorphism
onto the group, is decided by a purely arithmetic criterion: the partial sums
2h + x_i + ... + x_f must dominate 1 + r_i + ... + r_e, the handles alone
must cover the summands above the largest period, and for p = 2 a parity
condition on the top period count applies when the top-order layer of the
group is a single cyclic summand.

The coordinate change alpha turns data into non-increasing integer sequences
with even last entry; under it the reduced genus becomes an affine function
gamma of a mainline evaluation, and the admissible sequences split into
explicit blocks A_0, ..., A_e (with parity-restricted variants for p = 2)
indexed by where the sequence leaves its constant tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import lt

from .errors import InputError, VerificationError, _as_int, _int_in, _naturals, _parse_ints
from .group import AbelianPGroup, e_prime, top_pair_index
from .halfint import HalfInt, twice_text
from .mainline import is_nonincreasing, wp_eval

GammaSeq = tuple[int, ...]


@dataclass(frozen=True)
class PDatum:
    """Period multiplicities x_1..x_e plus orbit genus h."""

    x: tuple[int, ...]
    h: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _naturals(self.x, "period list"))
        object.__setattr__(self, "h", _int_in(self.h, "orbit genus", 0))

    @property
    def f(self) -> int:
        """Largest index with x_f > 0, or 0 for the period-free datum."""
        for i in range(len(self.x), 0, -1):
            if self.x[i - 1] > 0:
                return i
        return 0

    @property
    def f_prime(self) -> int:
        """Largest d with x_d + ... + x_f >= 2, or 0 when fewer than 2 periods."""
        return top_pair_index(self.x)

    def encode(self) -> str:
        return f"{','.join(str(v) for v in self.x)};{self.h}"

    def __str__(self) -> str:
        return self.encode()


def parse_datum(text: str) -> PDatum:
    """Parse 'x1,x2,...,xe;h'."""
    body, sep, tail = text.partition(";")
    if not sep:
        raise InputError(f"datum encoding {text!r} lacks ';'")
    nums = _parse_ints((*body.split(","), tail), "datum encoding", text)
    return PDatum(nums[:-1], nums[-1])


def _check_length(G: AbelianPGroup, d: PDatum) -> None:
    if len(d.x) != G.e:
        raise InputError(
            f"datum has {len(d.x)} period slots but the group has exponent p^{G.e}"
        )


@lru_cache(maxsize=256)
def period_weights(p: int, e: int) -> tuple[int, ...]:
    """(c_1, ..., c_e) with c_i = p^e - p^{e-i}, twice the reduced-genus cost
    of one period p^i."""
    pe = p**e
    return tuple(pe - p ** (e - i) for i in range(1, e + 1))


def reduced_genus(G: AbelianPGroup, d: PDatum) -> HalfInt:
    """(h-1)p^e + (1/2) sum x_i c_i, exactly."""
    _check_length(G, d)
    weights = period_weights(G.p, G.e)
    return HalfInt(2 * (d.h - 1) * G.exponent + sum(x * c for x, c in zip(d.x, weights)))


def genus_of(p_delta: int, v: HalfInt) -> int:
    """The genus 1 + p^delta * v lifted from the reduced genus v."""
    return genus_of_twice(p_delta, v.twice)


def genus_of_twice(p_delta: int, twice: int) -> int:
    """genus_of for the reduced genus twice/2, given by its doubled value."""
    lifted = 2 + p_delta * twice
    if lifted % 2 != 0:
        raise VerificationError(
            f"reduced genus {twice_text(twice)} has a non-integral lift at p^delta = {p_delta}"
        )
    return lifted // 2


def genus(G: AbelianPGroup, d: PDatum) -> int:
    """1 + p^delta * reduced_genus; an integer for every admissible datum."""
    try:
        return genus_of(G.p_delta, reduced_genus(G, d))
    except VerificationError:
        raise InputError(f"datum {d} does not yield an integral genus for {G}") from None


def alpha(d: PDatum) -> GammaSeq:
    """Suffix-sum coordinates (x_i + ... + x_e + 2h)_i, ending in 2h."""
    return tuple(accumulate(reversed(d.x), initial=2 * d.h))[::-1]


def _gamma_seq(a, length: int | None = None) -> GammaSeq:
    """a checked as a gamma sequence, of the given length if any; InputError if it is none."""
    seq = _naturals(a, "gamma sequence")
    if length is not None and len(seq) != length:
        raise InputError(f"gamma sequence must have length {length}, got {len(seq)}")
    if len(seq) < 2:
        raise InputError("gamma sequence needs length e+1 >= 2")
    if not is_nonincreasing(seq):
        raise InputError(f"gamma sequence must be non-increasing, got {seq}")
    if seq[-1] % 2 != 0:
        raise InputError(f"gamma sequence must end in an even entry, got {seq}")
    return seq


def alpha_inv(a) -> PDatum:
    """Inverse of alpha on non-increasing sequences with even last entry."""
    seq = _gamma_seq(a)
    x = tuple(seq[i] - seq[i + 1] for i in range(len(seq) - 1))
    return PDatum(x, seq[-1] // 2)


def gamma(p: int, e: int, a) -> HalfInt:
    """-p^e + a_{e+1}/2 + ((p-1)/2) wp(a_1..a_e); equals reduced_genus o alpha_inv."""
    p, e = _as_int(p), _as_int(e)
    seq = _gamma_seq(a, e + 1)
    return HalfInt(-2 * p**e + seq[-1] + (p - 1) * wp_eval(p, seq[:-1]))


def is_admissible(G: AbelianPGroup, d: PDatum) -> bool:
    """Does a smooth epimorphism afford this datum?

    Necessary and sufficient: the datum's top period index f satisfies
    f' = f (so there are either no periods at all or at least two of the top
    order), each tail sum 2h + x_i + ... + x_f covers 1 + r_i + ... + r_e,
    the handles cover the invariants above f, and for p = 2 with e'(G) < f
    the count x_f is even.
    """
    _check_length(G, d)
    f = d.f
    if d.f_prime != f:
        return False
    s = G.s
    tail_x = 0
    for i in range(f, 0, -1):
        tail_x += d.x[i - 1]
        if 2 * d.h + tail_x < s[i - 1]:
            return False
    # s[f] = 1 + sum of invariants strictly above f
    if 2 * d.h < s[f] - 1:
        return False
    if G.p == 2 and f > 0 and e_prime(G) < f and d.x[f - 1] % 2 != 0:
        return False
    return True


def classify_gamma_seq(G: AbelianPGroup, a) -> int | None:
    """Index i of the admissibility block containing a, or None.

    Block i collects the sequences dominating (s_1, ..., s_i) that are
    constant from position i+1 on with value >= s_{i+1} - 1 and drop by at
    least 2 at position i; for p = 2 and i above e'(G) the drop must also be
    even.  The blocks are pairwise disjoint, and a lies in one of them
    exactly when alpha_inv(a) is admissible.

    By that drop, block i holds only sequences whose constant tail starts at
    position i + 1, so one backward pass finds the one block to test.
    """
    seq = _gamma_seq(a, G.e + 1)
    s, i = G.s, G.e
    while i and seq[i - 1] == seq[i]:
        i -= 1
    drop = seq[i - 1] - seq[i] if i else 2  # block 0 asks for no drop
    if seq[i] < s[i] - 1 or any(map(lt, seq[:i], s)) or drop < 2:
        return None
    return None if G.p == 2 and i > e_prime(G) and drop % 2 else i
