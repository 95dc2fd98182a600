"""Summarise run records into one baseline file.

    python3 bench/summarize.py .bench_out/*.json > BENCH_n.json

Groups the records that bench/run.py writes by workload and mode (--trace
0 or 1), and gives each metric's median, quartiles and run count, together
with the commits, Python versions and nproc values that the runs report.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def summarize(paths: list[str]) -> dict:
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        groups[(record["workload"], record["trace"])].append(record)

    out: dict = {}
    for (workload, trace), records in sorted(groups.items()):
        metrics: dict = {}
        for name, entry in records[0]["result"]["metrics"].items():
            values = sorted(r["result"]["metrics"][name]["value"] for r in records)
            q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                           else (values[0],) * 3)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "unit": entry["unit"]}
        out.setdefault(workload, {})["trace" if trace else "end_to_end"] = {
            "runs": len(records),
            "seeds": sorted(r["seed"] for r in records),
            "correct": all(r["result"]["correct"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "commits": sorted({r["commit"] for r in records}),
            "python": sorted({r["python"] for r in records}),
            "nproc": sorted({r["nproc"] for r in records}),
            "seconds": sorted({r["seconds"] for r in records}),
            "metrics": metrics,
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=1, sort_keys=True)
    print()
