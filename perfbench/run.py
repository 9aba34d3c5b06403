#!/usr/bin/env python3
"""Run one autokolm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload champ-coder8 --seed 1 --seconds 25 --trace 0

Run it from a checkout of the repository: autokolm is imported from the
checkout's `src/`, never from an installed copy, and the CLI commands run
as `python -m autokolm` against the same sources.  Workloads are listed in
`workloads.py` and explained in NOTES.md.

The run makes `round(seconds / round_s)` rounds of the workload (at least
two when traced), so every run of a workload makes the same calls.  It
lasts about `--seconds` on a 2-core Xeon, up to 1.5x longer while the
host is slow.  The lines it prints are a readable record (seed,
environment, metrics, per-mode breakdown); the last line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`.  The same record, and with `--trace 1` every span, is
written under `.perfbench-out/` in the checkout.

Exit codes: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the arguments are wrong or the checkout
holds no autokolm sources (nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"


def import_program():
    """Import autokolm from the checkout's src/, or exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "autokolm" / "__init__.py").is_file():
        print(f"error: no autokolm sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import autokolm
    if Path(autokolm.__file__).resolve().parent != (src / "autokolm").resolve():
        print(f"error: autokolm imported from {autokolm.__file__}", file=sys.stderr)
        sys.exit(2)
    return autokolm


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="ascii").strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    import_program()
    import workloads  # needs autokolm on the path

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / w.round_s))
    env = environment()
    env["loadavg_start"] = os.getloadavg()
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        bench = workloads.Bench(w, args.seed, ROOT, workdir)
        bench.run(rounds, trace=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()

    rec = bench.rec
    complete = len(bench.rounds) == bench.planned_rounds
    metrics = {}
    if complete:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    correct = complete and rec.failed == 0
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": bench.planned_rounds,
        "champernowne_offset": bench.inputs.offset,
        "environment": env, "correct": correct, "attempted": rec.attempted,
        "failed": rec.failed, "fail_ratio": rec.failed / max(rec.attempted, 1),
        "failures": rec.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": bench.detail() if bench.rounds else {},
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="ascii")
    if args.trace:
        rec.write_spans(OUT_DIR / f"{tag}-spans.json")

    print(f"workload {w.name}  seed {args.seed}  rounds {len(bench.rounds)}  "
          f"champernowne offset {bench.inputs.offset}")
    print("environment " + json.dumps(env))
    for failure in rec.failures[:20]:
        print(f"FAILED {failure}")
    print(f"fail_ratio {record['fail_ratio']:.6g} ({rec.failed} of {rec.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    print("detail " + json.dumps(record["detail"]))
    print(json.dumps({"correct": correct, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
