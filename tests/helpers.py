"""Brute-force reference implementations used to cross-check the library.

Everything here is deliberately dumb: plain bounded enumeration with no
pruning cleverness, so that agreement with the production code means two
independent routes reached the same answer.
"""

from __future__ import annotations

from itertools import product

from genus_spectrum import (
    AbelianPGroup,
    HalfInt,
    PDatum,
    classify_gamma_seq,
    gamma,
    hull,
    is_admissible,
    reduced_genus,
    wp_eval,
)


def nonincreasing_seqs(length: int, max_entry: int, min_entry: int = 0):
    """All non-increasing sequences of the given length with bounded entries."""
    if length == 0:
        yield ()
        return
    for first in range(min_entry, max_entry + 1):
        for rest in nonincreasing_seqs(length - 1, first, min_entry):
            yield (first,) + rest


def naive_mainline_members(p: int, a, limit: int) -> set[int]:
    """All wp(b) <= limit over non-increasing b dominating a, by enumeration."""
    t = hull(a)
    e = len(t)
    out: set[int] = set()

    def rec(i: int, ceiling: int | None, value: int) -> None:
        if i == e:
            out.add(value)
            return
        weight = p ** (e - 1 - i)
        b = t[i]
        while (ceiling is None or b <= ceiling) and value + b * weight <= limit:
            rec(i + 1, b, value + b * weight)
            b += 1

    rec(0, None, 0)
    return out


def weights(p: int, e: int) -> list[int]:
    """The period weights p^e - p^{e-i}, i = 1..e."""
    pe = p**e
    return [pe - p ** (e - i) for i in range(1, e + 1)]


def data_within(G: AbelianPGroup, bound: HalfInt | int):
    """Every datum with reduced genus <= bound, admissible or not."""
    bound = HalfInt.coerce(bound)
    p, e = G.p, G.e
    pe = p**e
    twice = bound.twice
    h_max = max(twice // (2 * pe) + 1, 0)
    x_max = [(twice + 2 * pe) // c for c in weights(p, e)]
    for h in range(h_max + 1):
        for x in product(*(range(m + 1) for m in x_max)):
            d = PDatum(x, h)
            if reduced_genus(G, d) <= bound:
                yield d


def admissible_values(G: AbelianPGroup, bound: HalfInt | int) -> tuple[HalfInt, ...]:
    """Reduced spectrum up to bound via the arithmetic criterion, dumbly."""
    vals = {reduced_genus(G, d) for d in data_within(G, bound) if is_admissible(G, d)}
    return tuple(sorted(vals))


def block_route_values(G: AbelianPGroup, bound: HalfInt | int) -> tuple[HalfInt, ...]:
    """Reduced spectrum up to bound via block membership of gamma sequences."""
    bound = HalfInt.coerce(bound)
    p, e = G.p, G.e
    # gamma >= -p^e + ((p-1)/2) a_1 p^(e-1), so a_1 is bounded by the target
    cap = (bound.twice + 2 * p**e) // ((p - 1) * p ** (e - 1)) + 2
    vals = set()
    for seq in nonincreasing_seqs(e + 1, cap):
        if seq[-1] % 2 != 0:
            continue
        value = gamma(p, e, seq)
        if value <= bound and classify_gamma_seq(G, seq) is not None:
            vals.add(value)
    return tuple(sorted(vals))


def all_groups(primes, max_e: int, max_r: int, min_log_order: int = 1, max_log_order: int = 10**9):
    """Every group with the given prime list, exponent bound and entry bound."""
    for p in primes:
        for e in range(1, max_e + 1):
            for r in product(*(range(max_r + 1) for _ in range(e))):
                if r[-1] < 1:
                    continue
                G = AbelianPGroup(p, r)
                if min_log_order <= G.log_order <= max_log_order:
                    yield G


def brute_min_reduced(G: AbelianPGroup) -> tuple[HalfInt, tuple[PDatum, ...]]:
    """Minimum of the reduced genus over admissible data, with its witnesses.

    Enumeration is exhaustive below the candidate minimum + 1, which is
    enough to confirm or refute a claimed minimum.
    """
    best: HalfInt | None = None
    witnesses: list[PDatum] = []
    # start from a generous cap: the period-free datum with 2h = s_1 (+1)
    h0 = (G.s[0] + 1) // 2
    cap = reduced_genus(G, PDatum((0,) * G.e, h0))
    for d in data_within(G, cap):
        if not is_admissible(G, d):
            continue
        v = reduced_genus(G, d)
        if best is None or v < best:
            best, witnesses = v, [d]
        elif v == best:
            witnesses.append(d)
    assert best is not None
    return best, tuple(witnesses)
