"""Tests of the benchmark itself: every correctness check fires on a
corrupted result, the tracer accounts time and calls as documented, inputs
follow the seed, and the metric names match BENCHMARK.json.

    python3 -m pytest bench -q        (about 15 s; runs the witness search once)
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import calibration  # noqa: E402
import genus_spectrum as gs  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as w  # noqa: E402


def corrupt(obj, **changes):
    """A stand-in with the fields of a dataclass, some of them changed."""
    fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return SimpleNamespace(**{**fields, **changes})


def plus(v, k=1):
    return v + gs.HalfInt(2 * k)


# ------------------------------------------------------------- spectrum-scan

def test_scan_check_fires_on_wrong_min_stable_or_gaps():
    text = "3:0,0,0,0,0,1"
    desc = gs.full_spectrum(gs.parse_group(text))
    assert w.check_scan(text, desc) is None
    assert w.check_scan(text, corrupt(desc, min_reduced=plus(desc.min_reduced)))
    assert w.check_scan(text, corrupt(desc, stable_reduced=plus(desc.stable_reduced)))
    assert w.check_scan(text, corrupt(desc, gaps_reduced=desc.gaps_reduced[:-1]))
    # the scan bound is not compared
    assert w.check_scan(text, corrupt(desc, verified_bound=plus(desc.verified_bound))) is None


def test_scan_check_fires_on_random_group_min():
    text = "5:2,1"
    desc = gs.full_spectrum(gs.parse_group(text))
    assert w.check_scan(text, desc) is None
    assert w.check_scan(text, corrupt(desc, min_reduced=plus(desc.min_reduced)))


def test_scan_inputs_follow_the_seed():
    a, b = w.scan_groups(7), w.scan_groups(8)
    assert a == w.scan_groups(7) and a != b
    assert a[:5] == b[:5] == list(w.ANCHORS)
    pool = dict(w.scan_pool())
    assert len(a) == 5 + w.SCAN_RANDOM and all(g in pool for g in a[5:])
    assert all(not gs.has_large_invariants(gs.parse_group(g)) for g in pool)


# ------------------------------------------------------------- searches

def bitset_pair(**changes):
    fields = dict(
        g1=gs.AbelianPGroup(2, (1, 1, 1, 1, 1, 1, 1, 1025)),
        g2=gs.AbelianPGroup(2, (8199, 1, 1, 1, 1, 1, 1)),
        delta1=8220, delta2=8219,
        mu1=gs.HalfInt.of(131328), mu2=gs.HalfInt.of(262656),
        relation=gs.RELATION_MIXED,
    )
    fields.update(changes)
    return gs.CounterexamplePair(**fields)


def test_bitset_check_fires():
    assert w.check_bitset([bitset_pair()]) is None
    assert w.check_bitset([])
    assert w.check_bitset([bitset_pair(), bitset_pair()])
    assert w.check_bitset([bitset_pair(mu1=gs.HalfInt.of(131327))])
    assert w.check_bitset([bitset_pair(relation=gs.RELATION_SAME)])
    assert w.check_bitset([bitset_pair(g2=gs.AbelianPGroup(2, (8198, 1, 1, 1, 1, 1, 1)))])


def test_pair_check_fires_on_isomorphic_or_misreported_pairs():
    q = bitset_pair()
    assert w._check_pair(q) is None
    assert w._check_pair(bitset_pair(g2=q.g1, delta2=8220))
    assert w._check_pair(bitset_pair(delta2=8218))
    assert w._check_pair(bitset_pair(mu2=gs.HalfInt.of(262655)))


@pytest.fixture(scope="module")
def witness_pairs():
    return gs.search_counterexamples(3, 5, 4, 350)


def test_witness_check_fires(witness_pairs):
    pairs = witness_pairs
    assert w.check_witness(pairs) is None
    assert "expected" in w.check_witness(pairs[:-1])
    assert "first pair" in w.check_witness([pairs[1], pairs[0]] + pairs[2:])
    moved = dataclasses.replace(pairs[9], g2=gs.AbelianPGroup(3, (178, 3, 2, 1)))
    assert "digest" in w.check_witness(pairs[:9] + [moved] + pairs[10:])
    wrong_mu = dataclasses.replace(pairs[0], mu1=plus(pairs[0].mu1))
    assert "mu0" in w.check_witness([wrong_mu] + pairs[1:])


# ------------------------------------------------------------- query-mix

def first_item(kind: str, accept=lambda out: True):
    rng = random.Random(3)
    make = next(m for m in w.QUERY_MIX if m.__name__ == f"_q_{kind}")
    for _ in range(200):
        item = make(rng)
        out = item.run()
        if accept(out):
            assert item.check(out) is None, item.check(out)
            return item, out
    raise AssertionError(f"no {kind} item accepted")


def test_query_checks_fire():
    item, inv = first_item("invariants")
    assert item.check(dataclasses.replace(inv, delta=inv.delta + 1))
    assert item.check(dataclasses.replace(inv, kulkarni_n=inv.kulkarni_n + 1))

    item, rep = first_item("mu0")
    assert item.check(dataclasses.replace(rep, mu0=plus(rep.mu0)))
    assert item.check(dataclasses.replace(rep, minimum_genus=rep.minimum_genus + 1))

    item, cls = first_item("classify")
    assert item.check(next(c for c in gs.SmallClass if c is not cls))

    item, value = first_item("mu0_plus", accept=lambda v: v < 10)
    assert item.check(plus(value))
    assert item.check(gs.HalfInt(0))

    item, (ok, block) = first_item("admissible")
    assert item.check((not ok, block))

    item, prof = first_item("mainline", accept=lambda pr: len(pr.gaps) >= 2)
    assert item.check(dataclasses.replace(prof, gaps=prof.gaps[:-1]))
    assert item.check(dataclasses.replace(prof, sigma=prof.sigma + 1))
    assert item.check(dataclasses.replace(prof, gaps=prof.gaps[1:]))

    item, (desc, text) = first_item("closed_form")
    assert item.check((desc, text + " "))
    twisted = plus(desc.min_reduced, desc.step.twice // 2)
    assert item.check((corrupt(desc, min_reduced=twisted, stable_reduced=twisted), text))

    item, G = first_item("construct")
    assert item.check(gs.AbelianPGroup(G.p, (G.r[0] + 1,) + G.r[1:]))

    item, (H, equal) = first_item("e3_family")
    assert item.check((H, False))
    assert item.check((gs.AbelianPGroup(H.p, (H.r[0] + 1,) + H.r[1:]), True))

    item, nu = first_item("maclachlan")
    assert item.check(gs.HalfInt(-10**6))

    argv, want = w.cli_cases()[0]
    item = w._cli_item(argv, want)
    code, out = item.run()
    assert item.check((code, out)) is None
    assert item.check((code, out + "\n"))
    assert item.check((1, out))


def test_cli_comparison_masks_only_the_scan_bound():
    want = dict((" ".join(a), s) for a, s in w.cli_cases())["spectrum 2:0,0,0,1"]
    assert "verified up to 65/2" in want
    assert w.same_cli_output(want.replace("65/2", "40"), want)
    assert not w.same_cli_output(want.replace("gaps = {1,2,4}", "gaps = {1,2}"), want)
    assert not w.same_cli_output(want.replace("verified up to", "verified upto"), want)


def test_cold_cli_probe_fires_on_wrong_stdout():
    failures = []
    cases = [(["classify", "2:2"], "group = 2:2\nclass = genus_one\n")]
    probes = run.Probes(run.child_env(), cases, w.same_cli_output, failures)
    probes.round()
    assert len(failures) == 1 and probes.setup and probes.imports


def test_probes_cache_bytecode_and_never_optimize(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONOPTIMIZE", "1")
    env = run.child_env()
    assert "PYTHONDONTWRITEBYTECODE" not in env and "PYTHONOPTIMIZE" not in env
    assert env["PYTHONPATH"].split(run.os.pathsep)[0] == str(run.SRC)


def test_query_inputs_follow_the_seed():
    def fingerprint(seed):
        return [(it.kind, repr(it.run())) for it in w.query_mix(seed)[:300]]

    assert fingerprint(5) == fingerprint(5) != fingerprint(6)


def test_verifier_counts_raises_checks_and_drift():
    items = [w.Item("ok", lambda: 1, lambda out: None),
             w.Item("bad", lambda: 2, lambda out: "wrong")]
    verify = run.Verifier(items)
    verify([1, 2])
    assert verify.failures == ["wrong"]
    verify([3, ValueError("boom")])
    assert verify.attempted == 4
    assert verify.failures[1:] == ["ok #0: output differs from the first repetition",
                                   "bad #1 raised ValueError('boom')"]


# ------------------------------------------------------------- statistics

def test_tail_has_ten_samples_above_it():
    xs = [float(i) for i in range(40)]
    random.Random(0).shuffle(xs)
    assert run.tail(xs) == 29.0
    assert run.tail([3.0, 1.0, 2.0]) == 3.0


def test_item_costs_skip_the_warm_up_and_take_the_lowest():
    reps = [run.Rep([0.0, 0.0], [1.0, 1.0]), run.Rep([0.0, 0.0], [2.0, 5.0]),
            run.Rep([0.0, 0.0], [3.0, 3.0]), run.Rep([0.0, 0.0], [4.0, 4.0])]
    assert run.item_costs(reps) == [2.0, 3.0]
    assert run.item_costs(reps[:1]) == [1.0, 1.0]


def test_item_p50_is_the_median_of_the_timed_repetitions_medians():
    reps = [run.Rep([0.0] * 3, [9.0, 9.0, 9.0]), run.Rep([0.0] * 3, [1.0, 2.0, 50.0]),
            run.Rep([0.0] * 3, [3.0, 4.0, 5.0]), run.Rep([0.0] * 3, [2.0, 3.0, 3.0])]
    assert run.item_p50(reps) == 3.0
    assert run.item_p50(reps[:1]) == 9.0


def test_items_are_split_at_calibration_samples():
    cal = run.Calibrator()
    # samples of 1, 3 and 5 s; pauses [0,1], [4,5], [9,10]; segments [1,4] and [5,9]
    cal.samples = [(0.0, 1.0, 1.0), (4.0, 5.0, 3.0), (9.0, 10.0, 5.0)]
    times, costs = cal.split([(1.0, 2.0), (3.0, 6.0), (7.0, 9.0)])
    assert times == [1.0, 2.0, 2.0]
    assert costs == [1.0 / 3.0, 1.0 / 3.0 + 1.0 / 3.0, 2.0 / 3.0]


def test_a_segments_unit_is_the_median_of_nearby_samples():
    cal = run.Calibrator()
    # one 50-s burst among 1-s samples; the segments next to it keep a unit of 1
    cal.samples = [(float(2 * k), float(2 * k + 1), 50.0 if k == 3 else 1.0)
                   for k in range(8)]
    _, costs = cal.split([(2 * k + 1.0, 2 * k + 2.0) for k in range(7)])
    assert costs == [1.0] * 7


def test_untraced_passes_are_calibrated():
    items = [w.Item("a", lambda: sum(range(20000)), lambda out: None)] * 3
    rep, outputs = run.run_rep(items)
    assert outputs == [sum(range(20000))] * 3 and len(rep.samples) >= 2
    assert all(c > 0 for c in rep.costs) and rep.wall > 0
    traced, _ = run.run_rep(items, tr.Tracer())
    assert traced.costs is None and traced.samples == []


def test_calibration_loop_checks_its_result(monkeypatch):
    assert calibration.sample() > 0
    monkeypatch.setattr(calibration, "EXPECTED", calibration.EXPECTED + 1)
    with pytest.raises(RuntimeError):
        calibration.sample()


# ------------------------------------------------------------- tracer

def test_self_time_excludes_children_and_leaves():
    t = tr.Tracer()

    def leaf():
        time.sleep(0.01)

    def inner():
        time.sleep(0.02)
        wleaf()

    def outer():
        time.sleep(0.03)
        winner()

    wleaf = t.wrap("leaf", leaf, "leaf")
    winner = t.wrap("inner", inner, "span")
    t.wrap("outer", outer, "span")()
    calls, self_s = t.totals()
    assert calls == {"leaf": 1, "inner": 1, "outer": 1}
    assert 0.03 <= self_s["outer"] < 0.045
    assert 0.02 <= self_s["inner"] < 0.035
    assert 0.01 <= self_s["leaf"] < 0.025
    by_name = {rec[3]: rec for rec in t.spans}
    assert by_name["inner"][1] == by_name["outer"][0]  # parent link
    assert by_name["inner"][7]["leaf"][0] == 1  # leaf aggregated under its parent


def test_install_rebinds_aliases_and_uninstall_restores():
    from genus_spectrum import conjecture, signature, spectrum

    originals = (signature.is_admissible, spectrum.full_spectrum, conjecture._Side.reach)
    undo = tr.install(tr.Tracer())
    try:
        assert spectrum.is_admissible is not originals[0]
        assert gs.is_admissible is spectrum.is_admissible is signature.is_admissible
        assert conjecture.full_spectrum is gs.full_spectrum is not originals[1]
        assert conjecture._Side.reach is not originals[2]
    finally:
        tr.uninstall(undo)
    assert (signature.is_admissible, spectrum.full_spectrum, conjecture._Side.reach) == originals
    assert gs.is_admissible is spectrum.is_admissible is originals[0]


def traced_metrics(fn):
    t = tr.Tracer()
    undo = tr.install(t)
    try:
        fn()
    finally:
        tr.uninstall(undo)
    return tr.layer_metrics(t)


def test_counts_repeat_and_match_the_scan():
    job = lambda: gs.full_spectrum(gs.parse_group("3:1,0,1"))  # noqa: E731
    a, b = traced_metrics(job), traced_metrics(job)
    counts = {k: v for k, v in a.items() if v[1] != "s"}
    assert counts == {k: v for k, v in b.items() if v[1] != "s"}
    assert a["spectrum.full_spectrum.calls"][0] == a["spectrum.path_scan"][0] == 1
    assert a["signature.is_admissible.calls"][0] == a["signature.PDatum.calls"][0] > 0
    assert 0 < a["signature.is_admissible.admit_ratio"][0] < 1
    assert a["spectrum.bound_ratio"][0] >= 1


# ------------------------------------------------------------- BENCHMARK.json

def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    fake_probes = SimpleNamespace(setup_s=lambda: 1.0, cli_cold_starts=lambda: 1.0)
    e2e = run.end_to_end([run.Rep([0.5, 0.5], [0.1, 0.1])], 10.0, fake_probes)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}

    items = w.query_mix(1)[:50]
    loop = run.Loop(items, run.Verifier(items), SimpleNamespace(round=lambda: None), traced=True)
    loop.plain.append(loop.rep())
    loop.traced_reps.append(loop.rep())
    loop.per_layer.append(traced_metrics(lambda: run.run_rep(items)))
    layer = run.layer_summary(loop, [])
    layer["import.genus_spectrum_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert set(spec["paths"]) == {"bench"}
    assert [x["name"] for x in spec["workloads"]] == list(w.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cp = subprocess.run([sys.executable, "bench/run.py", "--workload", "query-mix", "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                        timeout=60)
    assert cp.returncode != 0 and cp.stdout == b""
