"""Benchmark runner for genus_spectrum.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
`src/`.  One run, in this fresh interpreter:

1. set-up: fresh interpreters running `import genus_spectrum` (setup_s is
   their median wall time; each also reports its import time alone), then
   two cold `python -m genus_spectrum <verb>` subprocesses per README verb,
   each after a bare `python -c pass`, with their stdout checked
   (cli_cold_starts);
2. the workload's item list, repeated by one caller in a closed loop (the
   next call starts when the previous returns) until S seconds are used.
   The first repetition's outputs are checked in full; later repetitions
   must reproduce them exactly.

The machine is shared and its speed wanders, for whole runs at a time.
So while the job runs, a SIGALRM timer interrupts it every SEGMENT_S
seconds to time the calibration loop (calibration.py).  The samples cut
the run into segments, and each item's time in a segment, the pauses for
sampling left out, is reported as a multiple of the median of the
samples nearest that segment (unit `ref`).  The first repetition is a
warm-up; job_ref and item_p50_ref are medians over the later ones.  The
plain wall times are kept
in the record and on stderr.  peak_rss_mb is read after the first
repetition, and a full garbage collection runs before each one, so that
repeated searches do not pile up garbage.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 untraced and traced repetitions alternate and it holds the
per-layer metrics and the tracing overhead.  A summary goes to stderr and
the full record, spans included, to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibration
import tracer as tr

perf = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SEGMENT_S = 0.1  # wall seconds between two calibration samples
REF_WINDOW = 3  # a segment's unit: the median of this many samples on each side
MIN_PROBE_ROUNDS = 2  # per README verb
PROBE_ROUNDS_PER_REP = 2
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import genus_spectrum; "
    "print(time.perf_counter() - t)"
)
MAX_REPORTED_FAILURES = 20


def child_env() -> dict[str, str]:
    """The cold subprocesses' environment: no -O, and bytecode caching on
    whatever the caller's environment says, so that set-up and cold CLI
    times load cached bytecode, as an installed library does, instead of
    compiling every module in every probe."""
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Probes:
    """Cold subprocesses, sampled between repetitions so that they meet the
    same mix of machine load as the job does.

    Each round runs one fresh `import genus_spectrum` (setup_s is the median
    wall time, import_s the median import time measured inside) and one cold
    bare interpreter start (`python -c pass`) followed by one cold CLI
    verb, cycling through the README verbs.  cli_cold_starts is the median
    over the verbs of each verb's median wall time as a multiple of the
    bare start just before it.  Process start-up on a shared host wanders
    with more than CPU speed, so the calibration loop does not steady it,
    but a bare start next to it does.
    Every CLI stdout is checked.
    """

    def __init__(self, env, cases, same_output, failures: list[str]):
        self.env = env
        self.cases = cases
        self.same_output = same_output
        self.failures = failures
        self.setup: list[float] = []
        self.imports: list[float] = []
        self.cli: list[list[float]] = [[] for _ in cases]
        self.cli_starts: list[list[float]] = [[] for _ in cases]
        self.bare: list[float] = []
        self.rounds = 0
        self._subprocess([sys.executable, "-c", IMPORT_PROBE])  # writes the bytecode cache

    def _subprocess(self, cmd):
        t0 = perf()
        cp = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, timeout=60)
        return perf() - t0, cp

    def round(self) -> None:
        wall, cp = self._subprocess([sys.executable, "-c", IMPORT_PROBE])
        if cp.returncode != 0:
            raise RuntimeError(f"import genus_spectrum failed: {cp.stderr.decode()[-500:]}")
        self.setup.append(wall)
        self.imports.append(float(cp.stdout))

        k = self.rounds % len(self.cases)
        argv, want = self.cases[k]
        bare, _ = self._subprocess([sys.executable, "-c", "pass"])
        self.bare.append(bare)
        wall, cp = self._subprocess([sys.executable, "-m", "genus_spectrum", *argv])
        self.cli[k].append(wall)
        self.cli_starts[k].append(wall / bare)
        if cp.returncode != 0 or not self.same_output(cp.stdout.decode("utf-8", "replace"), want):
            self.failures.append(f"cold cli {' '.join(argv)}: exit {cp.returncode}, stdout differs")
        self.rounds += 1

    def complete(self) -> None:
        while self.rounds < MIN_PROBE_ROUNDS * len(self.cases):
            self.round()

    def setup_s(self) -> float:
        return statistics.median(self.setup)

    def import_s(self) -> float:
        return statistics.median(self.imports)

    def cli_cold_starts(self) -> float:
        return statistics.median(statistics.median(runs) for runs in self.cli_starts)

    def cli_cold_s(self) -> float:
        return statistics.median(statistics.median(runs) for runs in self.cli)


@dataclass
class Rep:
    """One pass over the items: each item's wall seconds and, when the pass
    was calibrated, its time in ref."""

    times: list[float]
    costs: "list[float] | None" = None
    samples: list[float] = field(default_factory=list)  # calibration seconds

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def cost(self) -> float:
        return sum(self.costs)


class Calibrator:
    """Times the calibration loop from a SIGALRM handler every SEGMENT_S
    seconds, and once on entry and on exit.

    The handler runs between bytecodes of whatever the job is doing, inside
    long library calls too, so even a single 4-second search is split into
    segments.  `split` takes the items' wall intervals and gives each
    item's time with the sampling pauses removed, and its time in ref:
    every piece of it divided by the median of the REF_WINDOW samples on
    each side of the segment the piece lies in.  The median keeps a burst
    that hits one 5-ms sample from skewing the unit.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, end, seconds)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf()
        seconds = calibration.sample()
        self.samples.append((t0, perf(), seconds))

    def __enter__(self) -> "Calibrator":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SEGMENT_S, SEGMENT_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def split(self, spans: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        seconds = [x[2] for x in self.samples]
        segments = [(a[1], b[0], statistics.median(seconds[max(0, k + 1 - REF_WINDOW):
                                                           k + 1 + REF_WINDOW]))
                    for k, (a, b) in enumerate(zip(self.samples, self.samples[1:]))]
        times, costs = [], []
        k = 0
        for start, end in spans:
            while segments[k][1] <= start:
                k += 1
            seconds = cost = 0.0
            j = k
            while j < len(segments) and segments[j][0] < end:
                lo, hi, ref = segments[j]
                piece = max(0.0, min(hi, end) - max(lo, start))
                seconds += piece
                cost += piece / ref
                j += 1
            times.append(seconds)
            costs.append(cost)
        return times, costs


def run_rep(items, tracer=None) -> tuple[Rep, list]:
    """One pass over the items: (the Rep, the outputs).  Untraced passes
    are calibrated; traced ones are not, so that no sampling pause lands
    in a span."""
    spans, outputs = [], []
    with contextlib.ExitStack() as stack:
        calibrator = stack.enter_context(Calibrator()) if tracer is None else None
        for idx, item in enumerate(items):
            if tracer is not None:
                tracer.item = idx
            t0 = perf()
            try:
                out = item.run()
            except Exception as exc:  # an unexpected raise is a failed item
                out = exc
            spans.append((t0, perf()))
            outputs.append(out)
    if calibrator is None:
        return Rep([b - a for a, b in spans]), outputs
    return Rep(*calibrator.split(spans), [x[2] for x in calibrator.samples]), outputs


class Verifier:
    """Full checks on the first repetition, exact reproduction afterwards."""

    def __init__(self, items):
        self.items = items
        self.reference = None
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, outputs) -> None:
        self.attempted += len(outputs)
        first = self.reference is None
        if first:
            self.reference = [repr(out) for out in outputs]
        for idx, (item, out) in enumerate(zip(self.items, outputs)):
            if isinstance(out, Exception):
                reason = f"{item.kind} #{idx} raised {out!r}"
            elif first:
                try:
                    reason = item.check(out)
                except Exception as exc:
                    reason = f"{item.kind} #{idx}: check raised {exc!r}"
            elif repr(out) != self.reference[idx]:
                reason = f"{item.kind} #{idx}: output differs from the first repetition"
            else:
                reason = None
            if reason:
                self.failures.append(reason)


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples above it; the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[n - 11] if n >= 11 else ordered[-1]


def timed(reps: list[Rep]) -> list[Rep]:
    """The repetitions that count: all but the first (warm-up) when there
    are two or more."""
    return reps[1:] if len(reps) > 1 else reps


def item_costs(reps: list[Rep]) -> list[float]:
    """Each item's lowest cost in ref over the timed repetitions, for the
    recorded tail.  A burst that hits one short call can double its time,
    and with only two or three repetitions on the slower workloads a median
    would keep it."""
    return [min(c) for c in zip(*(rep.costs for rep in timed(reps)))]


def item_p50(reps: list[Rep]) -> float:
    """The median over the timed repetitions of each repetition's median
    item cost.  The median item ignores bursts that hit a few calls, and
    unlike a minimum over repetitions it does not fall as more repetitions
    fit into the run on a faster machine."""
    return statistics.median(statistics.median(rep.costs) for rep in timed(reps))


def end_to_end(reps: list[Rep], peak_rss_mb, probes: Probes) -> dict[str, tuple[float, str]]:
    job = statistics.median(rep.cost for rep in timed(reps))
    return {
        "job_ref": (job, "ref"),
        "items_per_ref": (len(reps[0].times) / job, "1/ref"),
        "item_p50_ref": (item_p50(reps), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (probes.setup_s(), "s"),
        "cli_cold_starts": (probes.cli_cold_starts(), "start"),
    }


class Loop:
    """Closed loop for `seconds`: repetitions of the job, each after a full
    garbage collection and followed by probe rounds.  With tracing, untraced
    and traced repetitions alternate, at least one of each."""

    def __init__(self, items, verify, probes: Probes, traced: bool):
        self.items = items
        self.verify = verify
        self.probes = probes
        self.traced = traced
        self.plain: list[Rep] = []
        self.traced_reps: list[Rep] = []
        self.per_layer: list[dict] = []
        self.last_tracer = None
        self.peak_rss_mb = 0.0

    def rep(self, tracer=None) -> Rep:
        gc.collect()
        rep, outs = run_rep(self.items, tracer)
        self.verify(outs)
        for _ in range(PROBE_ROUNDS_PER_REP):
            self.probes.round()
        return rep

    def run(self, seconds: float) -> None:
        begin = perf()
        while True:
            t0 = perf()
            self.plain.append(self.rep())
            if len(self.plain) == 1:
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            step = perf() - t0
            if self.traced:
                t0 = perf()
                self.last_tracer = tr.Tracer()
                undo = tr.install(self.last_tracer)
                try:
                    self.traced_reps.append(self.rep(self.last_tracer))
                finally:
                    tr.uninstall(undo)
                self.per_layer.append(tr.layer_metrics(self.last_tracer))
                step += perf() - t0
            if perf() - begin + step > seconds:
                break
        self.probes.complete()


def layer_summary(loop: Loop, failures: list[str]) -> dict[str, tuple[float, str]]:
    """Counts must repeat exactly across traced repetitions; times are medians.
    The overhead compares the median wall time of the traced and the
    untraced repetitions of the same run."""
    out = {}
    for name, (_, unit) in loop.per_layer[0].items():
        values = [rep[name][0] for rep in loop.per_layer]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
            continue
        if any(v != values[0] for v in values):
            failures.append(f"trace metric {name} differs between repetitions: {values}")
        out[name] = (values[0], unit)
    traced_job = statistics.median(rep.wall for rep in loop.traced_reps)
    plain_job = statistics.median(rep.wall for rep in loop.plain)
    out["trace.traced_job_s"] = (traced_job, "s")
    out["trace.untraced_job_s"] = (plain_job, "s")
    out["trace.overhead_s"] = (traced_job - plain_job, "s")
    return out


def breakdown(tracer, job_s: float, top: int = 12) -> list[tuple[str, int, float, float]]:
    """(name, calls, self seconds, share of the traced job) by self time."""
    calls, self_s = tracer.totals()
    rows = sorted(self_s.items(), key=lambda kv: -kv[1])[:top]
    return [(name, calls[name], secs, secs / job_s) for name, secs in rows]


def commit() -> str:
    try:
        cp = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return cp.stdout.strip() if cp.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "genus_spectrum" / "__init__.py").is_file():
        print(f"error: no genus_spectrum sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if sys.flags.optimize:
        print("error: run without -O, so the library's assert self-checks stay on",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    failures: list[str] = []
    cases = workloads.cli_cases()
    probes = Probes(child_env(), cases, workloads.same_cli_output, failures)
    items = workloads.WORKLOADS[args.workload](args.seed)
    verify = Verifier(items)
    loop = Loop(items, verify, probes, traced=bool(args.trace))
    loop.run(args.seconds)
    failures.extend(verify.failures)
    attempted = verify.attempted + probes.rounds

    if args.trace:
        metrics = layer_summary(loop, failures)
        metrics["import.genus_spectrum_s"] = (probes.import_s(), "s")
    else:
        metrics = end_to_end(loop.plain, loop.peak_rss_mb, probes)

    failed = len(failures)
    calibrations = [x for rep in loop.plain for x in rep.samples]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "fail_frac": failed / attempted,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "items_per_rep": len(items),
        "untraced_job_s": [rep.wall for rep in loop.plain],
        "untraced_job_ref": [rep.cost for rep in loop.plain],
        "traced_job_s": [rep.wall for rep in loop.traced_reps],
        "calibration_median_s": statistics.median(calibrations),
        "job_s": statistics.median(rep.wall for rep in timed(loop.plain)),
        "item_cost_ref": item_costs(loop.plain),
        "item_tail_ref": tail(item_costs(loop.plain)),
        "item_s": [statistics.median(t) for t in zip(*(rep.times for rep in timed(loop.plain)))],
        "setup_walls_s": probes.setup,
        "cli_walls_s": probes.cli,
        "bare_start_walls_s": probes.bare,
        "cli_cold_s": probes.cli_cold_s(),
        "result": result,
    }
    print(f"{args.workload} seed={args.seed} reps={len(loop.plain)}+{len(loop.traced_reps)} "
          f"items/rep={len(items)} job_s={record['job_s']:.4g} "
          f"calibration_s={record['calibration_median_s']:.4g} "
          f"item_tail_ref={record['item_tail_ref']:.4g} cli_cold_s={record['cli_cold_s']:.4g} "
          f"fail_frac={record['fail_frac']:.4g} "
          f"commit={record['commit'][:12]} python={record['python']} nproc={record['nproc']}",
          file=sys.stderr)
    for reason in failures[:MAX_REPORTED_FAILURES]:
        print(f"  FAIL {reason}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:>16.6g} {unit}", file=sys.stderr)
    if loop.last_tracer is not None:
        rows = breakdown(loop.last_tracer, loop.traced_reps[-1].wall)
        record["breakdown"] = rows
        record["spans"] = loop.last_tracer.spans
        print("  self time by layer (last traced repetition):", file=sys.stderr)
        for name, calls, secs, share in rows:
            print(f"    {name:40s} {calls:>9d} calls {secs:9.4f} s {share:7.1%}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, default=str)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
