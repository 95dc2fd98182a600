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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import OutOfRangeError, UnsupportedError, VerificationError
from .group import AbelianPGroup
from .halfint import HalfInt
from .mainline import hull, wp_eval
from .signature import GammaSeq, PDatum, alpha_inv, gamma, genus_of, period_weights


def epsilon_i(G: AbelianPGroup, i: int) -> int:
    """Least bump in {0,1,2} with s_i + bump - 2*floor(s_{i+1}/2) >= 2.

    By convention 0 at the ends: i = 0 has no drop constraint, and at i = e
    the drop s_e - 2*floor(1/2) = s_e >= 2 holds already.
    """
    if not 0 <= i <= G.e:
        raise OutOfRangeError(f"index {i} outside [0, {G.e}]")
    if i == 0 or i == G.e:
        return 0
    s = G.s
    diff = s[i - 1] - s[i]
    if diff >= 2:
        return 0
    if diff == 1:
        return 0 if s[i] % 2 == 1 else 1
    return 1 if s[i] % 2 == 1 else 2


def _back_indices(G: AbelianPGroup, i: int) -> tuple[int, int]:
    """(i'', i'): maximal j < i with s_j - s_i >= 2 resp. >= 1; 0 if none.

    Index 0 stands for the formal s_0 = infinity, covering the degenerate
    cases s_1 = s_i and s_1 - s_i <= 1.
    """
    s = G.s
    i_prime = 0
    for j in range(i - 1, 0, -1):
        if s[j - 1] - s[i - 1] >= 1:
            i_prime = j
            break
    i_dprime = 0
    for j in range(i_prime, 0, -1):
        if s[j - 1] - s[i - 1] >= 2:
            i_dprime = j
            break
    return i_dprime, i_prime


@dataclass(frozen=True)
class IndexMinimum:
    """Closed-form minimum of the reduced genus over one block."""

    index: int
    epsilon: int
    mu: HalfInt
    min_value: HalfInt
    attaining: GammaSeq


def min_gamma_A(G: AbelianPGroup, i: int) -> IndexMinimum:
    if not 0 <= i <= G.e:
        raise OutOfRangeError(f"index {i} outside [0, {G.e}]")
    p, e, s = G.p, G.e, G.s
    eps = epsilon_i(G, i)
    tail = 2 * (s[i] // 2)

    prefix_wp = wp_eval(p, s[:i]) if i > 0 else 0
    mu = HalfInt(-2 * p**e + p ** (e - i) * (2 * (s[i] // 2) + (p - 1) * prefix_wp))

    if eps == 0:
        correction = HalfInt(0)
    else:
        i_dprime, i_prime = _back_indices(G, i)
        if eps == 1:
            correction = HalfInt(p ** (e - i_prime) - p ** (e - i))
        else:
            correction = HalfInt(
                p ** (e - i_dprime) + p ** (e - i_prime) - 2 * p ** (e - i)
            )

    bumped = list(s[:i])
    if i > 0:
        bumped[i - 1] += eps
    attaining = hull(tuple(bumped) + (tail,) * (e + 1 - i))
    min_value = gamma(p, e, attaining)
    if min_value != mu + correction:
        raise VerificationError(
            f"block {i} of {G}: gamma{attaining} = {min_value}, "
            f"closed form gives {mu + correction}"
        )
    return IndexMinimum(index=i, epsilon=eps, mu=mu, min_value=min_value, attaining=attaining)


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


def index_set(G: AbelianPGroup) -> IndexSet:
    """Indices whose block can realise the minimum (those with eps_i = 0)."""
    return IndexSet(
        (i for i in range(G.e + 1) if epsilon_i(G, i) == 0),
        zero_droppable=G.s[0] % 2 == 0,
    )


def attaining_datum(G: AbelianPGroup, i: int) -> PDatum:
    """The datum realising mu_i: invariants up to i, one bump if s_{i+1} is
    odd, no further periods, and orbit genus floor(s_{i+1}/2)."""
    s = G.s
    tail = 2 * (s[i] // 2)
    return alpha_inv(s[:i] + (tail,) * (G.e + 1 - i))


@dataclass(frozen=True)
class MinGenusReport:
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
    per_index = {i: min_gamma_A(G, i) for i in range(G.e + 1)}
    idx = index_set(G)
    value = min(per_index[i].mu for i in idx)
    if idx.zero_droppable and value != min(per_index[i].mu for i in idx if i != 0):
        raise VerificationError(f"dropping index 0 changes the reduced minimum of {G}")
    data = tuple(attaining_datum(G, i) for i in idx if per_index[i].mu == value)
    return MinGenusReport(
        mu0=value,
        minimum_genus=genus_of(G.p_delta, value),
        index_set=idx,
        per_index=per_index,
        attaining_data=data,
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
    if not 0 <= h <= rank // 2:
        raise OutOfRangeError(f"orbit genus {h} outside [0, {rank // 2}]")
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
