#!/usr/bin/env python3
"""Smoke self-test of the benchmark, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs every workload with tiny horizons, tracing off and on, and checks
that every end-to-end and per-layer metric is emitted with its unit, that
no run fails on the code as it stands, and that BENCHMARK.json parses and
lists every workload and metric.  It also checks that the benchmark
refuses to run, without printing a result, where there are no sources.
Exits nonzero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def fail(msg: str) -> None:
    print(f"SELFTEST FAIL: {msg}")
    raise SystemExit(1)


def check_manifest() -> None:
    try:
        committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"BENCHMARK.json does not parse: {exc}")
    if committed != spec.manifest():
        fail("BENCHMARK.json is stale: regenerate with python3 perfbench/spec.py > BENCHMARK.json")
    names = [w["name"] for w in committed["workloads"]]
    if names != list(spec.WORKLOAD_NAMES):
        fail(f"BENCHMARK.json workloads {names}")
    print(f"ok   BENCHMARK.json lists {len(names)} workloads, "
          f"{len(committed['end_to_end'])} end-to-end and {len(committed['per_layer'])} "
          "per-layer metrics")


def check_run(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(spec.DEFAULT_SEED),
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: fail_frac is not 0: {result}\n{proc.stdout}")
    listed = spec.PER_LAYER if trace else spec.END_TO_END
    want = {m[0]: m[1] for m in listed}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace}: missing {sorted(set(want) - set(got))}, "
             f"unexpected {sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m.get("unit") != want[name] or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            fail(f"{workload} trace={trace}: metric {name} = {m}")
    for name, _unit in spec.TRACE_ONLY if trace else ():
        if not any(line.startswith(name + " ") for line in lines):
            fail(f"{workload} trace={trace}: {name} not printed")
    print(f"ok   {workload:<13} trace={trace}: {len(got)} metrics with units, "
          f"0 of {result['attempted']} runs failed")


def check_refuses_without_sources() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", spec.WORKLOAD_NAMES[0],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"benchmark ran without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   refuses to run without sources (exit {proc.returncode})")


def main() -> int:
    check_manifest()
    check_refuses_without_sources()
    for workload in spec.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_run(workload, trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
