"""What the benchmark runs and what it reports.

This module is the single source of truth for the workloads and metrics;
``BENCHMARK.json`` at the repository root is generated from it with

    python3 perfbench/spec.py > BENCHMARK.json

and the self-test checks that the committed file still matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# every config seed is the shipped seed plus the workload seed, so the
# default workload seed (0) runs the shipped seeds
DEFAULT_SEED = 0

# seconds one run measures: about 70 runs (every workload, several seeds,
# two commits) then take under an hour
RUN_SECONDS = 40

# horizons are divided by this in smoke mode (never below SMOKE_MIN_HORIZON)
SMOKE_DIVISOR = 100
SMOKE_MIN_HORIZON = 1000


@dataclass(frozen=True)
class Job:
    """One shipped config, optionally overridden.

    ``sweep_seeds == 0`` runs it once through ``run_experiment``; a
    positive count replays it through ``avgsa sweep --jobs 1`` over that
    many consecutive seeds.
    """

    shipped: str                     # file name under configs/
    overrides: dict = field(default_factory=dict)
    sweep_seeds: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                         # one line, copied into BENCHMARK.json
    jobs: tuple


# The dark-pool configs are not a workload of their own: each of their
# runs takes 2-3.5 s, so a 30-40 s run holds too few of them for its best
# pass to escape the slow stretches of a shared VM (ten runs spread by
# 0.17-0.35 of their median, above the largest bound allowed).  Their
# kernels are timed by the per-layer probes, and every traced run runs
# both shipped configs unchanged (SHIPPED_DARK_POOL below).
WORKLOADS = (
    # Every step goes through engine.run's scalar loop, one source.next()
    # (+470-840 ns/row over block mode) and a Python field, with cheap
    # Halton streams, so this workload isolates engine per-step overhead;
    # the dark-pool, AR(1) and sweep paths never run.  Horizons are raised
    # from 1e5 to 2e5 so the per-step cost dominates the per-run one.
    Workload(
        name="engine-loop",
        why="engine.run's scalar loop over cheap Halton/Euler streams: isolates per-step engine "
            "overhead; dark-pool, AR(1) and sweep paths never run",
        jobs=(
            Job("implicit-correlation.yaml", {"horizon": 200_000}),
            Job("ergodic-investment.yaml", {"horizon": 200_000}),
            Job("rate-fit.yaml", {"horizon": 200_000}),
        ),
    ),
    # avgsa sweep --jobs 1 over seeds derived from the workload seed.
    # Ar1MixingSource's per-row loop dominates both configs (AR(1) bandit
    # events and ar1-mixing var-cvar losses), so this is where loop-free
    # streams and batched replications show their gain; engine.run never
    # runs here.  Each sweep takes about a second, so best-of-passes has
    # short jobs to work with.
    Workload(
        name="mixing-sweep",
        why="avgsa sweep --jobs 1 of the AR(1) bandit and ar1-mixing var-cvar: the per-row "
            "AR(1) loop dominates; where loop-free streams and batching show",
        jobs=(
            Job("two-armed-bandit.yaml", {"source": {"kind": "ar1"}}, sweep_seeds=3),
            Job("var-cvar.yaml", {"horizon": 100_000, "source": {"kind": "ar1-mixing"}},
                sweep_seeds=3),
        ),
    ),
    # rate-fit on iid-uniform and the iid bandit, both recording every
    # step.  Streams are nearly free, so recording in engine.run,
    # write_trajectory_csv and write_line_svg dominate: the write side of
    # the layers the other workloads only pass through, and the only
    # workload where wall_s - compute_s is large.
    Workload(
        name="dense-record",
        why="record_stride 1 on cheap iid streams: recording, CSV and SVG writing dominate, the "
            "only workload where wall_s - compute_s is large",
        jobs=(
            Job("rate-fit.yaml", {"source": {"kind": "iid-uniform"}, "record_stride": 1}),
            Job("two-armed-bandit.yaml", {"record_stride": 1}),
        ),
    ),
)

# Both shipped dark-pool configs, unchanged: they still share
# runs/dark-pool, a known defect that every traced run counts in
# experiments.output_dir_collisions instead of routing around it.
SHIPPED_DARK_POOL = Workload(
    name="darkpool",
    why="both shipped dark-pool configs, unchanged",
    jobs=(Job("dark-pool-four-venues.yaml"), Job("dark-pool-two-venues.yaml")),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(name)


# (name, unit, bound): the figures a user of `avgsa run` / `avgsa sweep`
# sees.  fail_frac is reported too (as failed / attempted in the result
# line) but is 0 on working code, so it cannot carry a relative bound.
# wall_ref_s and compute_ref_s are the workload's wall time and summed
# runtime_seconds at a reference machine speed (run.py explains how):
# raw times on the 2-core shared VM they were measured on move by up to
# 1.8x with its speed, and ten runs' best-of-pass times spread by up to
# 0.42 of their median.  setup_s is raw, and has the largest bound
# allowed.  Bounds come from measured spread across ten runs at
# different seeds (see CHANGES.md).
END_TO_END = (
    ("setup_s", "s", 0.25),
    ("wall_ref_s", "s", 0.25),
    ("compute_ref_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.12),
)

# raw medians of the --trace 0 run, printed beside the end-to-end metrics
# but not in the result line: they move with the machine's speed
RAW_ONLY = (
    ("wall_s", "s"),
    ("compute_s", "s"),
    ("speed_probe_s", "s"),
)

STREAM_KINDS = (
    "iid-uniform", "iid-gaussian", "halton", "halton-gaussian",
    "ar1-mixing", "finite-markov-chain", "euler-decreasing",
)

APP_KERNELS = (
    "var_cvar_trajectory", "bandit_run", "darkpool_run",
    "calibrate_correlation", "investment_run",
)

# (name, unit, better) for the traced run.  The unit costs come from the
# probes, which time a public call on a fresh object at a fixed seed; the
# totals and counts come from the spans of one traced pass of the workload.
PER_LAYER = (
    *((f"innovations.block_ns_per_row.{k}", "ns", "lower") for k in STREAM_KINDS),
    *((f"innovations.next_ns_per_row.{k}", "ns", "lower") for k in STREAM_KINDS),
    ("innovations.star_discrepancy_s", "s", "lower"),
    ("innovations.take_block_s", "s", "lower"),
    ("innovations.rows_drawn", "count", "lower"),
    ("engine.run_us_per_step.scalar", "us", "lower"),
    ("engine.run_us_per_step.vector", "us", "lower"),
    ("engine.steps", "count", "lower"),
    ("engine.record_us_per_row", "us", "lower"),
    ("engine.csv_us_per_row", "us", "lower"),
    ("engine.write_trajectory_csv_s", "s", "lower"),
    ("engine.csv_bytes", "bytes", "lower"),
    *((f"applications.{k}_us_per_step", "us", "lower") for k in APP_KERNELS),
    ("applications.brute_force_allocation_s", "s", "lower"),
    ("applications.synthetic_darkpool_series_s", "s", "lower"),
    ("applications.safeguard_clip_ratio", "ratio", "lower"),
    ("diagnostics.fit_rate_s", "s", "lower"),
    ("diagnostics.fit_rate_calls", "count", "lower"),
    ("experiments.validate_config_s", "s", "lower"),
    ("experiments.artifacts_s", "s", "lower"),
    ("experiments.output_bytes", "bytes", "lower"),
    ("experiments.output_dir_collisions", "count", "lower"),
    ("experiments.target_error.ergodic-investment", "ratio", "lower"),
    ("plotting.write_line_svg_s", "s", "lower"),
    ("plotting.svg_points", "count", "lower"),
    ("plotting.svg_us_per_point", "us", "lower"),
    ("cli.replications", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Span totals that are zero by construction on the workloads that never
# enter the layer.  Every traced run prints them, but they stay out of the
# result line: a time that is 0 on most workloads compares nothing.
TRACE_ONLY = (
    ("engine.run_s", "s"),
    ("cli.sweep_s", "s"),
    ("cli.sweep_overhead_s", "s"),
)


def manifest() -> dict:
    """The contents of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": "lower", "bound": b} for n, u, b in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
