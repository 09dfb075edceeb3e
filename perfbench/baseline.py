"""Repeat ``run.py`` over seeds and workloads and summarise the spread.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-5 --workloads converge_levels --out /tmp/x.json

Workloads are interleaved within each seed's round, with the starting
workload rotated from round to round, so that host drift hits every
workload alike.  For each workload and end-to-end metric the summary gives
the median of the per-run values, their quartiles (``statistics.quantiles``
with n=4) and the spread (q3 - q1) / median next to the metric's bound from
``BENCHMARK.json``.  ``pooled`` pools the raw samples of all runs and gives
the highest percentile that has at least ten samples beyond it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def high_percentile(samples: list[float]):
    """(p, value): the highest percentile with at least ten samples above it."""
    k = len(samples)
    if k < 20:
        return None
    p = math.floor(100 * (k - 10) / k)
    return p, statistics.quantiles(samples, n=100)[p - 1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for i, seed in enumerate(args.seeds):
        order = names[i % len(names):] + names[:i % len(names)]
        for name in order:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            record = json.loads(lines[-2][len("record "):])
            runs.append({"workload": name, "seed": seed, "result": result, "record": record})
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                              if k in bounds)
            print(f"{name:16s} seed {seed:3d} correct={result['correct']} {values}", flush=True)

    summary = {}
    for name in names:
        mine = [r for r in runs if r["workload"] == name]
        summary[name] = {"correct": all(r["result"]["correct"] for r in mine),
                         "attempted": sum(r["result"]["attempted"] for r in mine),
                         "failed": sum(r["result"]["failed"] for r in mine)}
        for metric in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in mine]
            med = statistics.median(values)
            entry = {"median": med, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
            if bounds.get(metric) is not None:
                entry["bound"] = bounds[metric]
            pooled = [s for r in mine for s in r["record"]["samples"].get(metric, [])]
            if pooled:
                entry["pooled"] = {"samples": len(pooled), "median": statistics.median(pooled)}
                hp = high_percentile(pooled)
                if hp:
                    entry["pooled"][f"p{hp[0]}"] = hp[1]
            summary[name][metric] = entry

    print(f"\n{'workload':16s} {'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        for metric, bound in bounds.items():
            e = summary[name].get(metric)
            if e and "spread" in e:
                flag = "" if e["spread"] < bound / 3 else ("  > bound/3" if e["spread"] < bound
                                                            else "  > BOUND")
                print(f"{name:16s} {metric:18s} {e['median']:12.5g} {e['spread']:8.4f} "
                      f"{bound:6.2f}{flag}")
    machine = runs[0]["record"]["machine"]
    for r in runs:
        del r["record"]["machine"]
    args.out.write_text(json.dumps({
        "seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
        "machine": machine, "summary": summary, "runs": runs,
    }, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
