"""Fast smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs one untraced and one traced round on shrunken inputs.
Every output check must pass, and every metric BENCHMARK.json names must
be produced with its declared unit.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(w: workloads.Workload) -> workloads.Workload:
    whole = bool(w.long_modes)   # long workloads curve over the whole input
    return dataclasses.replace(
        w, bits=2048, per_class=min(w.per_class, 1),
        curve_bits=2048 if whole else 256, curve_step=256 if whole else 64,
        report_bits=512, cli_bits=256)


def units(spec_list) -> dict:
    return {m["name"]: m["unit"] for m in spec_list}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_present_and_outputs_correct(name, tmp_path):
    bench = workloads.Bench(tiny(workloads.WORKLOADS[name]), 1, run.ROOT, tmp_path)
    bench.run(rounds=2, trace=True)
    assert bench.rec.failed == 0, bench.rec.failures
    assert bench.rec.attempted > 0
    e2e = {k: u for k, (_, u) in bench.end_to_end().items()}
    layers = {k: u for k, (_, u) in bench.per_layer().items()}
    assert e2e == units(SPEC["end_to_end"])
    assert layers == units(SPEC["per_layer"])
    assert all(v > 0 for v, _ in bench.end_to_end().values())


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_exits_nonzero_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "short-calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
