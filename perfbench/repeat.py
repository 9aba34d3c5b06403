#!/usr/bin/env python3
"""Repeat the benchmark over consecutive seeds and summarize each metric.

    python3 perfbench/repeat.py --workload short-calls --runs 10 --seed0 100 --seconds 25

Each run is `run.py --trace 0` in its own process, one after another.
For every end-to-end metric the summary gives the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them), and the spread: the
distance between the quartiles as a share of the median.  With
BENCHMARK.json present, a spread of a third of the metric's bound or more
is marked, since the bounds are set from these spreads.  The summary is
printed and written to `.perfbench-out/repeat-<workload>-seed<seed0>.json`.
Exits 1 if any run failed or reported a wrong output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "min": min(values), "max": max(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--seconds", type=int, required=True)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text())["end_to_end"]}
    ok = True
    for workload in args.workload:
        results, walls = [], []
        for seed in range(args.seed0, args.seed0 + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.perf_counter() - start)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                      f"{proc.stderr}", file=sys.stderr)
                continue
            results.append(json.loads(lines[-1]))
        if not results:
            continue
        summary = {name: summarize([r["metrics"][name]["value"] for r in results])
                   for name in results[0]["metrics"]}
        report = {"workload": workload, "seed0": args.seed0, "runs": args.runs,
                  "seconds": args.seconds,
                  "wall_s": summarize(walls), "metrics": summary,
                  "failed": sum(r["failed"] for r in results),
                  "attempted": sum(r["attempted"] for r in results)}
        out = ROOT / ".perfbench-out"
        out.mkdir(exist_ok=True)
        (out / f"repeat-{workload}-seed{args.seed0}.json").write_text(
            json.dumps(report, indent=1))
        print(f"== {workload}: {len(results)} runs, wall median "
              f"{report['wall_s']['median']:.1f} s, failed {report['failed']} "
              f"of {report['attempted']}")
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = s["spread"]
            mark = ""
            if bound is not None and spread is not None and spread >= bound / 3:
                mark = f"  <-- spread >= bound/3 ({bound / 3:.3f})"
            print(f"{name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread "
                  f"{'n/a' if spread is None else format(spread, '.4f')}{mark}")
        ok = ok and report["failed"] == 0
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
