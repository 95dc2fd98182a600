"""The benchmark's workloads: seeded inputs, the library calls, and the checks.

Each workload is a list of items.  An item is one closed-loop call into the
public API of genus_spectrum (`run`) plus a check of its output (`check`,
returning None when correct, else the reason).  Inputs are generated here
from the seed, as plain strings and tuples; every group is parsed inside the
timed call.  Library names are looked up at call time (`gs.full_spectrum`,
not a from-import), so the tracer's rebinding reaches them.

Checks use independent routes where one exists (the block-minimum formula
against the scan, the two admissibility encodings against each other, the
benchmark's own formulas for invariants and closed forms) and known values
for the fixed jobs.  No check reads `verified_bound`: a sharper scan bound
is a legitimate change.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import genus_spectrum as gs
from genus_spectrum import cli

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]


# ---------------------------------------------------------------- helpers
# Independent formulas (not the library's) used by checks and generators.

def _parse(text: str) -> tuple[int, tuple[int, ...]]:
    head, _, tail = text.partition(":")
    return int(head), tuple(int(t) for t in tail.split(","))


def _delta(r) -> int:
    return sum(i * x for i, x in enumerate(r, start=1)) - len(r)


def _large(p: int, r) -> bool:
    return all(x >= p - 1 for x in r[:-1]) and r[-1] >= max(p - 2, 1)


def _twice_sigma0(p: int, r) -> int:
    """Twice the closed-form reduced minimum of a large-invariant group."""
    e = len(r)
    pe = p**e
    return -1 - pe + sum((pe - p ** (e - i)) * x for i, x in enumerate(r, start=1))


def _genus_twice(p: int, r, twice_reduced: int) -> int:
    """Twice the genus 1 + p^delta * mu for a reduced genus given doubled."""
    return 2 + p ** _delta(r) * twice_reduced


def _hull(seq) -> tuple[int, ...]:
    out = list(seq)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1])
    return tuple(out)


def _envelope(p: int, seq) -> tuple[int, ...]:
    out = list(seq)
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i + 1] + p - 1, out[i])
    return tuple(out)


def _wp(p: int, seq) -> int:
    v = 0
    for x in seq:
        v = v * p + x
    return v


def _digest(values) -> str:
    return hashlib.sha256(",".join(str(v) for v in values).encode()).hexdigest()[:16]


def _fail_unless(cond: bool, reason: str) -> "str | None":
    return None if cond else reason


# ---------------------------------------------------------- spectrum-scan

# Baseline anchors of ROADMAP.md: stable reduced genus, gap count, and a
# digest of the gap list as computed by the unchanged engine.
ANCHORS = {
    "2:0,0,0,0,0,0,0,1": ("517", 289, "3ad3ca53996135ae"),
    "5:1,0,3,0,1": ("26563", 7268, "83b4445e92e06756"),
    "13:0,0,1": ("36251", 17268, "2a7b3780719621a8"),
    "7:0,0,0,1": ("25211", 11871, "ec8870aa4ccabac9"),
    "3:0,0,0,0,0,1": ("3281", 1560, "55a3a1f299921fc6"),
}
SCAN_RANDOM = 200


def scan_pool() -> list[tuple[str, int]]:
    """Groups outside the large-invariant family, sorted by scan size.

    p in {2,3,5,7}, e <= 4, small r_i, capped at 1200 oracle leaves
    (is_admissible calls at the unchanged scan bound).  The list is frozen
    in scan_pool.json so that a change to scan_bound does not change the
    inputs.
    """
    with open(HERE / "scan_pool.json", encoding="utf-8") as f:
        return [(g, n) for g, n in json.load(f)]


def scan_groups(seed: int) -> list[str]:
    """The anchors, then one seeded draw from each of SCAN_RANDOM strata.

    The strata are consecutive runs of the pool sorted by scan size, so
    every seed draws the same spread of scan costs and only the groups
    differ; that keeps job_s and the item quantiles comparable across seeds.
    """
    pool = scan_pool()
    rng = random.Random(seed)
    picks = []
    for k in range(SCAN_RANDOM):
        lo = k * len(pool) // SCAN_RANDOM
        hi = max((k + 1) * len(pool) // SCAN_RANDOM, lo + 1)
        picks.append(pool[rng.randrange(lo, hi)][0])
    rng.shuffle(picks)
    return list(ANCHORS) + picks


def check_scan(text: str, desc) -> "str | None":
    G = gs.parse_group(text)
    want = gs.mu0(G).mu0
    if desc.min_reduced != want:
        return f"{text}: scan minimum {desc.min_reduced} != block minimum {want}"
    if text in ANCHORS:
        stable, ngaps, digest = ANCHORS[text]
        got = (str(desc.stable_reduced), len(desc.gaps_reduced), _digest(desc.gaps_reduced))
        if got != (stable, ngaps, digest):
            return f"{text}: (stable, gaps, digest) {got} != {(stable, ngaps, digest)}"
    return None


def spectrum_scan(seed: int) -> list[Item]:
    return [
        Item(
            "scan",
            lambda t=text: gs.full_spectrum(gs.parse_group(t)),
            lambda d, t=text: check_scan(t, d),
        )
        for text in scan_groups(seed)
    ]


# ---------------------------------------------------------- search workloads

BITSET_PAIR = ((2, (1, 1, 1, 1, 1, 1, 1, 1025)), (2, (8199, 1, 1, 1, 1, 1, 1)), 8220, 8219,
               "131328", "262656")
WITNESS_COUNT = 7205
WITNESS_FIRST = ((3, (2, 2, 2, 3, 34)), (3, (177, 3, 2, 1)), 189, 189)
WITNESS_DIGEST = "b52fb0d2e66a6583"


def _pair_key(q) -> tuple:
    return ((q.g1.p, q.g1.r), (q.g2.p, q.g2.r), q.delta1, q.delta2)


def _check_pair(q) -> "str | None":
    """Non-isomorphic, deficiencies as reported, mu_0 by the block route."""
    if (q.g1.p, q.g1.r) == (q.g2.p, q.g2.r):
        return f"isomorphic pair {q.g1} ~ {q.g2}"
    if (_delta(q.g1.r), _delta(q.g2.r)) != (q.delta1, q.delta2):
        return f"{q.g1} ~ {q.g2}: deficiencies {q.delta1},{q.delta2} misreported"
    if (gs.mu0(q.g1).mu0, gs.mu0(q.g2).mu0) != (q.mu1, q.mu2):
        return f"{q.g1} ~ {q.g2}: mu0 {q.mu1},{q.mu2} disagrees with the block minima"
    return None


def check_bitset(pairs) -> "str | None":
    if len(pairs) != 1:
        return f"expected exactly one pair, got {len(pairs)}"
    q = pairs[0]
    got = _pair_key(q) + (str(q.mu1), str(q.mu2))
    if got != BITSET_PAIR or q.relation != gs.RELATION_MIXED:
        return f"pair {got} {q.relation} != criterion-06 pair {BITSET_PAIR}"
    return _check_pair(q)


def check_witness(pairs) -> "str | None":
    if len(pairs) != WITNESS_COUNT:
        return f"expected {WITNESS_COUNT} pairs, got {len(pairs)}"
    if _pair_key(pairs[0]) != WITNESS_FIRST:
        return f"first pair {_pair_key(pairs[0])} != {WITNESS_FIRST}"
    keys = [_pair_key(q) for q in pairs]
    if _digest(keys) != WITNESS_DIGEST:
        return f"pair list digest {_digest(keys)} != {WITNESS_DIGEST}"
    for q in pairs:
        reason = _check_pair(q)
        if reason:
            return reason
    return None


def search_bitset(seed: int) -> list[Item]:
    # One fixed call; the seed selects nothing.
    return [Item(
        "search",
        lambda: gs.search_counterexamples(2, 8, 7, 8220, relation=gs.RELATION_MIXED),
        check_bitset,
    )]


def search_witness(seed: int) -> list[Item]:
    # One fixed call; the seed selects nothing.
    return [Item("search", lambda: gs.search_counterexamples(3, 5, 4, 350), check_witness)]


# ---------------------------------------------------------- query-mix

PRIMES = (2, 3, 5, 7, 11, 13)
MAINLINE_CAP = 1000  # integers scanned per mainline_profile call


def cli_cases() -> list[tuple[list[str], str]]:
    """The README's CLI verbs with their expected stdout."""
    with open(HERE / "cli_expected.json", encoding="utf-8") as f:
        return [(case["argv"], case["stdout"]) for case in json.load(f)]


_BOUND_LINE = re.compile(r"^verified up to (?!infinity).*$", re.M)


def same_cli_output(got: str, want: str) -> bool:
    """Byte equality, except the scan bound B on a 'verified up to' line."""
    return _BOUND_LINE.sub("verified up to B", got) == _BOUND_LINE.sub("verified up to B", want)


def _rand_group(rng, primes=PRIMES, emax=4, rmax=4) -> str:
    p = rng.choice(primes)
    e = rng.randint(1, emax)
    r = [rng.randint(0, rmax) for _ in range(e - 1)] + [rng.randint(1, rmax)]
    return f"{p}:{','.join(map(str, r))}"


def _q_invariants(rng):
    text = _rand_group(rng)

    def check(inv):
        p, r = _parse(text)
        e = len(r)
        s = tuple(1 + sum(r[i:]) for i in range(e)) + (1,)
        tails = [sum(r[d - 1:]) for d in range(e, 0, -1)]
        eprime = next((e - k for k, t in enumerate(tails) if t >= 2), 0)
        eps = 2 if p == 2 and r[-1] >= 2 else 1
        want = (s, eprime, _delta(r), eps, p ** _delta(r) // eps)
        got = (inv.s, inv.e_prime, inv.delta, inv.epsilon, inv.kulkarni_n)
        return _fail_unless(got == want, f"invariants {text}: {got} != {want}")

    return Item("invariants", lambda: gs.invariants(gs.parse_group(text)), check)


def _q_mu0(rng):
    text = _rand_group(rng, emax=5)

    def check(rep):
        G = gs.parse_group(text)
        p, r = _parse(text)
        if not rep.attaining_data:
            return f"mu0 {text}: no attaining datum"
        for d in rep.attaining_data:
            if not gs.is_admissible(G, d) or gs.reduced_genus(G, d) != rep.mu0:
                return f"mu0 {text}: datum {d} does not attain {rep.mu0}"
        return _fail_unless(2 * rep.minimum_genus == _genus_twice(p, r, rep.mu0.twice),
                            f"mu0 {text}: minimum genus {rep.minimum_genus}")

    return Item("mu0", lambda: gs.mu0(gs.parse_group(text)), check)


def _q_classify(rng):
    text = _rand_group(rng, rmax=3)

    def check(cls):
        p, r = _parse(text)
        rank = sum(r)
        if rank == 1 or (p, r) == (2, (2,)):
            want = "genus_zero"
        elif rank == 2 or (p, r) == (2, (3,)):
            want = "genus_one"
        else:
            want = "positive"
        return _fail_unless(cls.value == want, f"classify {text}: {cls.value} != {want}")

    return Item("classify", lambda: gs.classify_small(gs.parse_group(text)), check)


def _q_mu0_plus(rng):
    p = rng.choice(PRIMES)
    e = rng.randint(1, 4)
    r = [0] * e
    r[-1] = 1
    if rng.random() < 0.6:  # rank 2
        r[rng.randrange(e)] += 1
    text = f"{p}:{','.join(map(str, r))}"

    def check(value):
        if value <= 0:
            return f"mu0_plus {text}: {value} is not positive"
        if p**e > 27:
            return None
        # small groups: the least positive member of the scanned spectrum
        desc = gs.full_spectrum(gs.parse_group(text))
        least = next(v for v in desc.reduced_values_up_to(desc.stable_reduced + 2) if v > 0)
        return _fail_unless(value == least, f"mu0_plus {text}: {value} != scanned {least}")

    return Item("mu0_plus", lambda: gs.mu0_plus(gs.parse_group(text)), check)


def _q_admissible(rng):
    text = _rand_group(rng, primes=(2, 3, 5), emax=3, rmax=3)
    e = len(_parse(text)[1])
    x = tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(e))
    h = rng.randint(0, 2)

    def run():
        G = gs.parse_group(text)
        d = gs.PDatum(x, h)
        return gs.is_admissible(G, d), gs.classify_gamma_seq(G, gs.alpha(d))

    def check(out):
        ok, block = out
        return _fail_unless(ok == (block is not None),
                            f"admissible {text} {x};{h}: criterion {ok}, block {block}")

    return Item("admissible", run, check)


def _q_mainline(rng):
    while True:
        p = rng.choice((3, 5, 7, 11))
        seq = tuple(rng.randint(0, 6) for _ in range(rng.randint(3, 4)))
        t = _hull(seq)
        if _wp(p, _envelope(p, t)) - _wp(p, t) - 1 <= MAINLINE_CAP:
            break

    def check(prof):
        mu = _wp(p, _hull(seq))
        upper = _wp(p, _envelope(p, _hull(seq)))
        if prof.mu != mu or prof.sigma != (prof.gaps[-1] + 1 if prof.gaps else mu):
            return f"mainline {p} {seq}: mu/sigma {prof.mu}/{prof.sigma}"
        if any(not mu < g < upper for g in prof.gaps) or list(prof.gaps) != sorted(set(prof.gaps)):
            return f"mainline {p} {seq}: gaps out of range"
        gaps = set(prof.gaps)
        sample = prof.gaps[:3] + prof.gaps[-3:]
        members = [m for m in range(mu, prof.sigma + 3) if m not in gaps][:6]
        if any(gs.is_mainline(p, seq, g) for g in sample):
            return f"mainline {p} {seq}: a reported gap is a member"
        return _fail_unless(all(gs.is_mainline(p, seq, m) for m in members),
                            f"mainline {p} {seq}: a non-gap is not a member")

    return Item("mainline", lambda: gs.mainline_profile(p, seq), check)


def _rand_large(rng, primes=(2, 3, 5, 7), emax=4) -> tuple[int, list[int]]:
    p = rng.choice(primes)
    e = rng.randint(1, emax)
    r = [rng.randint(p - 1, p + 3) for _ in range(e - 1)]
    r.append(rng.randint(max(p - 2, 1), p + 3))
    return p, r


def _q_closed_form(rng):
    p, r = _rand_large(rng)
    text = f"{p}:{','.join(map(str, r))}"

    def run():
        G = gs.parse_group(text)
        desc = gs.full_spectrum(G)
        return desc, gs.genus_view(G, desc).render()

    def check(out):
        desc, rendered = out
        eps = 2 if p == 2 and r[-1] >= 2 else 1
        pd = p ** _delta(r)
        twice = _twice_sigma0(p, r)
        want = "ℕ_0" if pd == eps else f"{_genus_twice(p, r, twice) // 2}+{pd // eps}ℕ_0"
        block = gs.mu0(gs.parse_group(text)).mu0
        if desc.min_reduced.twice != twice or desc.min_reduced != block or desc.gaps_reduced:
            return f"closed form {text}: min {desc.min_reduced}, block {block}"
        return _fail_unless(rendered == want, f"closed form {text}: {rendered!r} != {want!r}")

    return Item("closed_form", run, check)


def _q_construct(rng):
    p = rng.choice((2, 3, 5, 7))
    e = rng.randint(1, 4)
    if p == 2:
        least = (e - 1) * 2 ** (e + 1) + 2
    else:
        least = (2 * e - 1) * p**e - 2 * (p**e - 1) // (p - 1) + 1
    m = least + rng.randint(0, 300)

    def check(G):
        ok = (G.p == p and len(G.r) == e and _large(p, G.r)
              and _twice_sigma0(p, G.r) == -2 * p**e + (p - 1) * m)
        return _fail_unless(ok, f"construct p={p} e={e} m={m}: got {G}")

    return Item("construct", lambda: gs.group_for_spectrum(p, e, m), check)


def _q_e3_family(rng):
    while True:
        p, r = _rand_large(rng, primes=(2, 3, 5), emax=3)
        if len(r) != 3:
            continue
        k = rng.choice((-1, 1, 2))
        shifted = [x + k * v for x, v in zip(r, (p + 2, -2 * p - 1, p))]
        if _large(p, shifted) and (p != 2 or (r[2] >= 2) == (shifted[2] >= 2)):
            break
    text = f"{p}:{','.join(map(str, r))}"

    def run():
        G = gs.parse_group(text)
        H = gs.e3_family(G, k)
        return H, gs.spectra_equal(G, H)

    def check(out):
        H, equal = out
        return _fail_unless(equal and H.p == p and list(H.r) == shifted,
                            f"e3 {text} k={k}: {H} equal={equal}")

    return Item("e3_family", run, check)


def _q_maclachlan(rng):
    while True:
        text = _rand_group(rng, rmax=3)
        rank = sum(_parse(text)[1])
        if rank >= 2:
            break
    h = rng.randint(0, rank // 2)

    def check(nu):
        block = gs.mu0(gs.parse_group(text)).mu0
        return _fail_unless(nu >= block, f"maclachlan {text} h={h}: {nu} < mu0 {block}")

    return Item("maclachlan", lambda: gs.maclachlan_nu(gs.parse_group(text), h), check)


def _cli_item(argv: list[str], want: str) -> Item:
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        return _fail_unless(code == 0 and same_cli_output(text, want),
                            f"cli {' '.join(argv)}: exit {code}, stdout differs")

    return Item("cli", run, check)


# Items per repetition of the query stream, by kind.
QUERY_MIX = {
    _q_invariants: 2400,
    _q_mu0: 2400,
    _q_classify: 1800,
    _q_mu0_plus: 1800,
    _q_admissible: 3000,
    _q_mainline: 500,
    _q_closed_form: 1800,
    _q_construct: 1200,
    _q_e3_family: 1200,
    _q_maclachlan: 1800,
}
CLI_REPEATS = 6  # in-process runs of each README verb


def query_mix(seed: int) -> list[Item]:
    rng = random.Random(seed)
    items = [make(rng) for make, n in QUERY_MIX.items() for _ in range(n)]
    items += [_cli_item(argv, want) for argv, want in cli_cases() for _ in range(CLI_REPEATS)]
    rng.shuffle(items)
    return items


WORKLOADS = {
    "spectrum-scan": spectrum_scan,
    "search-bitset": search_bitset,
    "search-witness": search_witness,
    "query-mix": query_mix,
}
