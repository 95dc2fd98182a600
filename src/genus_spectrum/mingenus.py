"""The reduced-minimum-genus machine.

For each block index i the minimal reduced genus over block A_i has a closed
form: evaluate gamma at the hull of the sequence (s_1, ..., s_i + eps_i,
T, ..., T) with constant tail T = 2*floor(s_{i+1}/2), where eps_i in {0,1,2}
is the least bump making the drop at position i at least 2.  Writing mu_i
for gamma of the unbumped sequence, the bump costs an explicit correction
read off from the last two positions i'' <= i' < i where the s-sequence
still exceeds s_i by at least 2 resp. 1.

Only the indices with eps_i = 0 can realise the global minimum, so the
reduced minimum genus is the minimum of mu_i over the index set
I(G) = {i : s_i - s_{i+1} >= 2} u {i : s_i - s_{i+1} = 1, s_{i+1} odd}
(always containing 0 and e), and each minimising index yields an explicit
attaining datum.  Restricted to p-groups this sharpens Maclachlan's
minimum-genus bound, whose per-orbit-genus values nu_h are reproduced here
for comparison.

All blocks come from one pass over i = 0, ..., e on plain doubled ints
(`_blocks`): a running Horner prefix carries wp(s_1, ..., s_i), a table holds
the powers of p, and each block is the tuple (eps_i, 2 mu_i, 2 min, attaining
sequence).  The pass keeps a self-check per block: gamma at the hull of the
bumped sequence, evaluated by its own Horner loop, must equal mu_i plus the
correction, or VerificationError is raised.  `_reduced_minimum` reads the
index set and 2 mu_0 off the pass's eps_i and mu_i, checking that index 0
can be dropped; `index_set` applies the same rule (`_index_set`) to eps_i
read off s.

Three readers share the pass.  `classify_small` (in spectrum) takes only the
doubled minimum from `_reduced_minimum` and builds no objects.  `mu0` builds
its full report from `_reduced_minimum`, and `min_gamma_A` one IndexMinimum
from `_blocks`; the HalfInts and IndexMinimums are built only there
(`_index_minimum`), and the attaining data only in `attaining_datum`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import neg

from .errors import OutOfRangeError, UnsupportedError, VerificationError, _int_in
from .group import AbelianPGroup
from .halfint import HalfInt, twice_text
from .signature import GammaSeq, PDatum, genus_of_twice, period_weights


def epsilon_i(G: AbelianPGroup, i: int) -> int:
    """Least bump in {0,1,2} with s_i + bump - 2*floor(s_{i+1}/2) >= 2, that
    is max(0, 2 - s_i + 2*floor(s_{i+1}/2)), at most 2 as s does not increase.

    0 at the ends: i = 0 has no drop constraint, and at i = e the formula
    gives 0, as the drop s_e - 2*floor(1/2) = s_e >= 2 holds already.
    """
    return _epsilon(G.s, _int_in(i, "index", 0, G.e, OutOfRangeError))


def _epsilon(s: tuple[int, ...], i: int) -> int:
    # epsilon_i for an index already in range
    return max(0, 2 - s[i - 1] + s[i] - s[i] % 2) if i else 0


def _back_indices(s: tuple[int, ...], i: int) -> tuple[int, int]:
    """(i'', i'): maximal j < i with s_j - s_i >= 2 resp. >= 1; 0 if none; 1 <= i <= e.

    s does not increase, so the j with s_j >= s_i + k form a prefix 1, ...,
    m of the indices, all below i, and the maximal one is its length m,
    found by bisection.  Index 0 stands for the formal s_0 = infinity,
    covering the degenerate cases s_1 = s_i and s_1 - s_i <= 1.
    """
    return bisect_right(s, -s[i - 1] - 2, key=neg), bisect_right(s, -s[i - 1] - 1, key=neg)


@dataclass(frozen=True)
class IndexMinimum:
    """Closed-form minimum of the reduced genus over one block."""

    index: int
    epsilon: int
    mu: HalfInt
    min_value: HalfInt
    attaining: GammaSeq


# One block of the pass: (eps_i, 2 mu_i, 2 min over A_i, attaining sequence).
_Block = tuple[int, int, int, GammaSeq]


def _blocks(G: AbelianPGroup) -> list[_Block]:
    """Every block's minimum, i = 0, ..., e, in one pass (module docstring)."""
    p, e, s = G.p, G.e, G.s
    pw = [1]
    for _ in range(e):
        pw.append(pw[-1] * p)
    top_twice = 2 * pw[e]
    blocks = []
    prefix = 0  # wp(s_1, ..., s_i)
    for i in range(e + 1):
        eps = _epsilon(s, i)
        tail = s[i] - s[i] % 2  # T = 2 * floor(s_{i+1} / 2)
        if i:
            prefix = prefix * p + s[i - 1]
        mu = pw[e - i] * (tail + (p - 1) * prefix) - top_twice
        correction = 0
        if eps:
            i_dprime, i_prime = _back_indices(s, i)
            correction = pw[e - i_prime] - pw[e - i]
            if eps == 2:
                correction += pw[e - i_dprime] - pw[e - i]

        attaining = s[:i] + (tail,) * (e + 1 - i)
        if eps:  # the hull lifts the earlier entries that are smaller than the bumped one
            bump = s[i - 1] + eps
            attaining = tuple(max(x, bump) for x in s[:i]) + attaining[i:]
        wp = 0
        for x in attaining[:-1]:
            wp = wp * p + x
        value = (p - 1) * wp + tail - top_twice
        if value != mu + correction:
            raise VerificationError(
                f"block {i} of {G}: gamma{attaining} = {twice_text(value)}, "
                f"closed form gives {twice_text(mu + correction)}"
            )
        blocks.append((eps, mu, value, attaining))
    return blocks


def _reduced_minimum(G: AbelianPGroup) -> tuple[list[_Block], IndexSet, int]:
    """The blocks, the index set (eps_i = 0) and 2 mu_0, checking on the fly
    that dropping i = 0 for even s_1 never changes the minimum."""
    blocks = _blocks(G)
    idx = _index_set([block[0] for block in blocks], 1 + G.rank)  # s_1 = 1 + rank
    mus = [blocks[i][1] for i in idx]  # idx[0] = 0: mus[1:] drops index 0
    twice = min(mus)
    if idx.zero_droppable and twice != min(mus[1:]):
        raise VerificationError(f"dropping index 0 changes the reduced minimum of {G}")
    return blocks, idx, twice


def _index_minimum(i: int, block: _Block) -> IndexMinimum:
    eps, mu, value, attaining = block
    half_mu = HalfInt(mu)  # a block without bump attains mu_i: one HalfInt serves both
    return IndexMinimum(i, eps, half_mu, half_mu if value == mu else HalfInt(value), attaining)


def min_gamma_A(G: AbelianPGroup, i: int) -> IndexMinimum:
    """The minimum over block A_i, read from `_blocks`."""
    i = _int_in(i, "index", 0, G.e, OutOfRangeError)
    return _index_minimum(i, _blocks(G)[i])


class IndexSet(tuple):
    """Sorted block indices that can realise the minimum.

    Always contains 0 and e; `zero_droppable` flags the even-s_1 case in
    which index 0 can be skipped without changing the minimum.
    """

    zero_droppable: bool

    def __new__(cls, indices, zero_droppable: bool) -> "IndexSet":
        obj = super().__new__(cls, indices)
        obj.zero_droppable = zero_droppable
        return obj

    def __getnewargs__(self) -> tuple:
        # what pickle and copy pass back to __new__
        return tuple(self), self.zero_droppable


def index_set(G: AbelianPGroup) -> IndexSet:
    """Indices whose block can realise the minimum (those with eps_i = 0)."""
    s = G.s
    return _index_set([_epsilon(s, i) for i in range(G.e + 1)], s[0])


def _index_set(epsilons: list[int], s_1: int) -> IndexSet:
    # the indices i with eps_i = 0; index 0 can be dropped when s_1 is even
    return IndexSet([i for i, eps in enumerate(epsilons) if eps == 0], s_1 % 2 == 0)


def attaining_datum(G: AbelianPGroup, i: int) -> PDatum:
    """The datum realising mu_i: invariants up to i, one bump if s_{i+1} is
    odd, no further periods, and orbit genus floor(s_{i+1}/2)."""
    i = _int_in(i, "index", 0, G.e, OutOfRangeError)
    x, top = [*G.r[:i], *(0,) * (G.e - i)], G.s[i]
    if i:
        x[i - 1] += top % 2
    return PDatum(tuple(x), top // 2)


@dataclass(frozen=True)
class MinGenusReport:
    """The reduced minimum genus mu_0 of a group, with its blocks and attaining data."""

    mu0: HalfInt
    minimum_genus: int
    index_set: IndexSet
    per_index: dict[int, IndexMinimum]
    attaining_data: tuple[PDatum, ...]

    @property
    def zero_droppable(self) -> bool:
        return self.index_set.zero_droppable


def mu0(G: AbelianPGroup) -> MinGenusReport:
    """Reduced minimum genus with all attaining data.

    Evaluates every block, takes the minimum of mu_i over the index set, and
    checks on the fly that dropping i = 0 for even s_1 never changes the
    result.
    """
    blocks, idx, twice = _reduced_minimum(G)
    return MinGenusReport(
        mu0=HalfInt(twice),
        minimum_genus=genus_of_twice(G.p_delta, twice),
        index_set=idx,
        per_index={i: _index_minimum(i, block) for i, block in enumerate(blocks)},
        attaining_data=tuple(attaining_datum(G, i) for i in idx if blocks[i][1] == twice),
    )


def maclachlan_nu(G: AbelianPGroup, h: int) -> HalfInt:
    """Minimal reduced genus over signatures with orbit genus h, after
    Maclachlan's formula for non-cyclic abelian groups.

    With invariant factors n_1 <= ... <= n_s (here p^i with multiplicity r_i,
    s = rank) and q = s - 2h:

        nu_h = n_s * (h - 1 + (1/2) sum_{k<=q} (1 - 1/n_k) + (1/2)(1 - 1/n_q))

    where the trailing term vanishes for q = 0.
    """
    if G.is_cyclic:
        raise UnsupportedError("the orbit-genus formula excludes cyclic groups")
    rank = G.rank
    h = _int_in(h, "orbit genus", 0, rank // 2, OutOfRangeError)
    q = rank - 2 * h
    weights = period_weights(G.p, G.e)

    twice = 2 * G.exponent * (h - 1)
    remaining = q
    last_weight = 0
    for ri, c in zip(G.r, weights):
        take = min(ri, remaining)
        if take > 0:
            twice += take * c
            last_weight = c
        remaining -= take
        if remaining == 0:
            break
    return HalfInt(twice + last_weight)
