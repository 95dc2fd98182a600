"""In-memory span tracer for genus_spectrum, installed by rebinding names.

The library is not edited.  `install` replaces each traced function with a
wrapper in every genus_spectrum module namespace that holds it (from-import
aliases such as `spectrum.is_admissible` and the package re-exports
included) and on the classes for methods; `uninstall` puts the originals
back.  Library code looks these names up at call time, so every call goes
through the wrapper.

Three kinds of wrapper, chosen per target:

* span  - records (id, parent id, item, name, start, end, self time, leaves).
          Self time is the duration minus the time covered by child spans
          and leaves.
* leaf  - for hot functions that call nothing traced (`is_admissible`,
          `is_prime`): calls and time are aggregated per parent span
          instead of stored one by one.
* count - counts calls only (dataclass constructors via `__post_init__`).

Time spent in the tracer's own bookkeeping after a call returns is charged
neither to the call nor to its parent.  Observers turn arguments and
results into counters (admitted data, bitset widths, witnesses returned).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

perf = time.perf_counter

PACKAGE = "genus_spectrum"


class Tracer:
    def __init__(self) -> None:
        # a frame is [child seconds, span id, leaf aggregates {name: [calls, seconds]}]
        self.root = [0.0, None, {}]
        self.stack = [self.root]
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.item = None
        self._next_id = 0

    def wrap(self, name: str, fn, kind: str, observe=None):
        stack = self.stack
        counters = self.counters

        if kind == "count":
            counts = self.counts

            def traced(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

        elif kind == "leaf":
            def traced(*args, **kwargs):
                t0 = perf()
                res = fn(*args, **kwargs)
                t1 = perf()
                frame = stack[-1]
                agg = frame[2].get(name)
                if agg is None:
                    agg = frame[2][name] = [0, 0.0]
                agg[0] += 1
                agg[1] += t1 - t0
                if observe is not None:
                    observe(counters, args, res)
                frame[0] += perf() - t0
                return res

        else:  # span
            def traced(*args, **kwargs):
                parent = stack[-1]
                span_id = self._next_id
                self._next_id = span_id + 1
                frame = [0.0, span_id, {}]
                stack.append(frame)
                t0 = perf()
                try:
                    res = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    self.spans.append(
                        (span_id, parent[1], self.item, name, t0, t1, t1 - t0 - frame[0], frame[2])
                    )
                if observe is not None:
                    observe(counters, args, res)
                parent[0] += perf() - t0
                return res

        return traced

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per traced name."""
        calls: dict[str, int] = defaultdict(int, self.counts)
        self_s: dict[str, float] = defaultdict(float)
        leaf_sets = [self.root[2]]
        for rec in self.spans:
            calls[rec[3]] += 1
            self_s[rec[3]] += rec[6]
            leaf_sets.append(rec[7])
        for leaves in leaf_sets:
            for name, (n, secs) in leaves.items():
                calls[name] += n
                self_s[name] += secs
        return calls, self_s


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry of TARGETS; returns the undo list for `uninstall`."""
    importlib.import_module(PACKAGE)
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    undo: list[tuple] = []
    for modname, path, name, kind, observe in TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{modname}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr]
        wrapped = tracer.wrap(name, orig, kind, observe)
        if cls_path:
            undo.append((owner, attr, orig))
            setattr(owner, attr, wrapped)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)
    return undo


def uninstall(undo: list[tuple]) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


# ---------------------------------------------------------------- observers

def _obs_admissible(c, args, res):
    if res:
        c["signature.is_admissible.admitted"] += 1


def _obs_full_spectrum(c, args, res):
    # Closed-form descriptors carry no verified bound; scanned ones carry B.
    if res.verified_bound is None:
        c["spectrum.path_closed_form"] += 1
        return
    G = args[0]
    c["spectrum.path_scan"] += 1
    c["spectrum.bound_twice"] += res.verified_bound.twice
    c["spectrum.window_twice"] += res.stable_reduced.twice + 2 * G.p**G.e


def _obs_reach(c, args, res):
    n = res.bit_length()
    c["reach.bits"] += n
    c["reach.popcount"] += res.bit_count()
    if n > c["reach.width_max"]:
        c["reach.width_max"] = n


def _obs_witnesses(c, args, res):
    c["witnesses.returned"] += len(res)


def _obs_search(c, args, res):
    c["conjecture.pairs"] += len(res)


def _obs_profile(c, args, res):
    from genus_spectrum import mainline

    p, t = args[0], mainline.hull(args[1])
    upper = mainline.wp_eval(p, mainline.envelope(p, t))
    c["mainline.profile_candidates"] += max(upper - mainline.wp_eval(p, t) - 1, 0)
    c["mainline.profile_gaps"] += len(res.gaps)


# The layers, by module.  Names without a metric below still appear in the
# per-name breakdown and keep their callers' self time honest.
TARGETS = [
    ("group", "parse_group", "group.parse_group", "span", None),
    ("group", "invariants", "group.invariants", "span", None),
    ("group", "is_prime", "group.is_prime", "leaf", None),
    ("group", "AbelianPGroup.__post_init__", "group.AbelianPGroup", "count", None),
    ("signature", "is_admissible", "signature.is_admissible", "leaf", _obs_admissible),
    ("signature", "PDatum.__post_init__", "signature.PDatum", "count", None),
    ("signature", "classify_gamma_seq", "signature.classify_gamma_seq", "span", None),
    ("mingenus", "mu0", "mingenus.mu0", "span", None),
    ("mingenus", "min_gamma_A", "mingenus.min_gamma_A", "span", None),
    ("mingenus", "maclachlan_nu", "mingenus.maclachlan_nu", "span", None),
    ("mainline", "mainline_profile", "mainline.mainline_profile", "span", _obs_profile),
    ("spectrum", "full_spectrum", "spectrum.full_spectrum", "span", _obs_full_spectrum),
    ("spectrum", "closed_form_spectrum", "spectrum.closed_form_spectrum", "span", None),
    ("spectrum", "oracle_reduced_spectrum", "spectrum.oracle_reduced_spectrum", "span", None),
    ("spectrum", "scan_bound", "spectrum.scan_bound", "span", None),
    ("spectrum", "classify_small", "spectrum.classify_small", "span", None),
    ("spectrum", "mu0_plus", "spectrum.mu0_plus", "span", None),
    ("spectrum", "genus_view", "spectrum.genus_view", "span", None),
    ("spectrum", "group_for_spectrum", "spectrum.group_for_spectrum", "span", None),
    ("conjecture", "search_counterexamples", "conjecture.search_counterexamples", "span",
     _obs_search),
    ("conjecture", "_search_class", "conjecture._search_class", "span", None),
    ("conjecture", "_Side.__init__", "conjecture._Side.init", "span", None),
    ("conjecture", "_Side.reach", "conjecture._Side.reach", "span", _obs_reach),
    ("conjecture", "_Side.witnesses", "conjecture._Side.witnesses", "span", _obs_witnesses),
    ("conjecture", "spectra_equal", "conjecture.spectra_equal", "span", None),
    ("conjecture", "e3_family", "conjecture.e3_family", "span", None),
    ("cli", "run", "cli.run", "span", None),
    ("cli", "build_parser", "cli.build_parser", "span", None),
]

# (traced name, reported statistics) for the per-layer metrics.
CALLS_SELF = [
    ("group.parse_group", ("calls", "self_s")),
    ("group.is_prime", ("calls", "self_s")),
    ("group.AbelianPGroup", ("calls",)),
    ("signature.is_admissible", ("calls", "self_s")),
    ("signature.PDatum", ("calls",)),
    ("signature.classify_gamma_seq", ("calls", "self_s")),
    ("mingenus.mu0", ("calls", "self_s")),
    ("mingenus.min_gamma_A", ("calls", "self_s")),
    ("mainline.mainline_profile", ("calls", "self_s")),
    ("spectrum.full_spectrum", ("calls", "self_s")),
    ("spectrum.oracle_reduced_spectrum", ("self_s",)),
    ("spectrum.scan_bound", ("self_s",)),
    ("conjecture.search_counterexamples", ("self_s",)),
    ("conjecture._search_class", ("self_s",)),
    ("conjecture._Side.init", ("self_s",)),
    ("conjecture._Side.reach", ("calls", "self_s")),
    ("conjecture._Side.witnesses", ("calls", "self_s")),
    ("conjecture.spectra_equal", ("calls", "self_s")),
    ("cli.run", ("self_s",)),
    ("cli.build_parser", ("self_s",)),
]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced repetition: name -> (value, unit).

    A ratio whose base is zero (the layer did not run) reads 0.
    """
    calls, self_s = tracer.totals()
    c = tracer.counters
    out: dict[str, tuple[float, str]] = {}
    for name, stats in CALLS_SELF:
        if "calls" in stats:
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
        if "self_s" in stats:
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name, value, unit in [
        ("signature.is_admissible.admitted", int(c["signature.is_admissible.admitted"]), "count"),
        ("signature.is_admissible.admit_ratio", _ratio(
            c["signature.is_admissible.admitted"], calls.get("signature.is_admissible", 0)),
         "ratio"),
        ("spectrum.path_scan", int(c["spectrum.path_scan"]), "count"),
        ("spectrum.path_closed_form", int(c["spectrum.path_closed_form"]), "count"),
        ("spectrum.bound_ratio", _ratio(c["spectrum.bound_twice"], c["spectrum.window_twice"]),
         "ratio"),
        ("conjecture._Side.reach.width_bits_max", int(c["reach.width_max"]), "bits"),
        ("conjecture._Side.reach.popcount", int(c["reach.popcount"]), "bits"),
        ("conjecture._Side.reach.fill_ratio", _ratio(c["reach.popcount"], c["reach.bits"]),
         "ratio"),
        ("conjecture._Side.witnesses.returned", int(c["witnesses.returned"]), "count"),
        ("conjecture._Side.witnesses.yield", _ratio(
            c["witnesses.returned"], calls.get("conjecture._Side.witnesses", 0)), "ratio"),
        ("conjecture.pairs", int(c["conjecture.pairs"]), "count"),
        ("mainline.profile_candidates", int(c["mainline.profile_candidates"]), "count"),
        ("mainline.profile_gaps", int(c["mainline.profile_gaps"]), "count"),
    ]:
        out[name] = (value, unit)
    return out
