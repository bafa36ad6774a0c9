#!/usr/bin/env python3
"""Benchmark for avgsa, run from the root of a source checkout.

    python3 perfbench/run.py --workload engine-loop --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py                # every workload, tracing off
    python3 perfbench/run.py --trace 1      # every workload, traced
    python3 perfbench/selftest.py           # smoke self-test

It imports avgsa from ``src/`` of the checkout (never an installed copy)
and drives it from outside through ``experiments.run_experiment`` and
``cli.main(["sweep", ...])``.  Each workload is a closed loop with one
client in one process: passes over the workload's configs run back to
back, each starting when the previous one ends, for ``--seconds`` (at
least two passes).

``--trace 0`` reports the end-to-end metrics.  The 2-core shared VM this
was sized on runs the same code up to 1.8x slower or faster from one
second to the next (process CPU time moves with wall time, so it is not
steal), in phases from a second to several minutes.  A 40 s run's raw
median mostly reports which phase it landed in, and its fastest pass
whether it caught a rare fast burst.  So every job of a pass is preceded
by a fixed piece of reference work (``speed_probe``: a small-numpy loop
and a pure-Python loop, no avgsa code), and ``wall_ref_s`` and
``compute_ref_s`` are the sums over jobs (runs) of the median, over
passes, of job wall time (summary ``runtime_seconds``) divided by the
probe time just before it, times ``REF_PROBE_S``: seconds at the speed
at which the probe takes ``REF_PROBE_S``.  They move one for one with
the cost of avgsa's code and not with the machine's phase.  Raw medians
and quartiles (``wall_s``, ``compute_s``) are printed as well.
``setup_s`` is the median of the fresh interpreters started between
passes.  ``--trace 1`` runs the per-layer probes, then alternates
untraced and traced passes and reports per-layer medians; the difference
of the two kinds of pass is the tracing overhead.

Every run of a pass is checked: it must not raise, its summary must say
"ok" with finite ``final`` values, its CSV bytes must match the run's
first pass, and at the default seed ``final`` must match
``reference.json``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A fuller report
(quartiles, CSV sha256 per run, provenance, spans) is written under
``.bench_work/reports/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# final values at the default seed must match reference.json this closely
REL_TOL = 1e-9
ABS_TOL = 1e-12

# fresh-interpreter set-ups: about this many per run, spread across it,
# and never fewer than MIN_SETUPS
SETUPS_PER_RUN = 12
MIN_SETUPS = 5

# seconds speed_probe takes at the reference speed: its median on the
# 2-core Xeon VM the bounds were set on, so *_ref_s read as seconds there
REF_PROBE_S = 0.05

# what `avgsa run` pays before step 1: a fresh interpreter importing the
# CLI and validating the workload's configs
SETUP_SNIPPET = """\
import sys
sys.path.insert(0, sys.argv[1])
import yaml
import avgsa.cli
from avgsa.experiments import validate_config
for path in sys.argv[2:]:
    with open(path) as fh:
        validate_config(yaml.safe_load(fh))
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked (no sources, no configs)."""


def load_avgsa(root: Path):
    src = root / "src"
    if not (src / "avgsa" / "__init__.py").is_file() or not (root / "configs").is_dir():
        raise BenchError(f"{root} holds no avgsa sources (src/avgsa) and configs/")
    sys.path.insert(0, str(src))
    import avgsa
    import avgsa.cli
    from avgsa import diagnostics, engine, experiments, innovations, plotting
    from avgsa.applications import bandit, correlation, darkpool, investment, varcvar

    if not Path(avgsa.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported avgsa from {avgsa.__file__}, not from {src}")
    return types.SimpleNamespace(
        package=avgsa, cli=avgsa.cli, experiments=experiments, engine=engine,
        innovations=innovations, plotting=plotting, diagnostics=diagnostics,
        bandit=bandit, correlation=correlation, darkpool=darkpool,
        investment=investment, varcvar=varcvar,
    )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@dataclass
class Item:
    """One job of a workload, with its config written to the work dir."""

    key: str
    path: Path
    sweep: bool
    seeds: list
    out_dirs: list


def _merge(raw: dict, overrides: dict) -> dict:
    out = dict(raw)
    for k, v in overrides.items():
        out[k] = _merge(out.get(k) or {}, v) if isinstance(v, dict) else v
    return out


def prepare(avgsa, wl: spec.Workload, base_seed: int, smoke: bool, work: Path) -> list:
    """Write the workload's configs, derived from the shipped ones and the
    workload seed, into ``work/configs/<workload>``."""
    import yaml

    config_dir = work / "configs" / wl.name
    config_dir.mkdir(parents=True)
    items = []
    for job in wl.jobs:
        raw = yaml.safe_load((ROOT / "configs" / job.shipped).read_text())
        raw = _merge(raw, job.overrides)
        if smoke:
            raw["horizon"] = max(spec.SMOKE_MIN_HORIZON, raw["horizon"] // spec.SMOKE_DIVISOR)
        count = max(job.sweep_seeds, 1)
        raw["seed"] += base_seed * count
        path = config_dir / job.shipped
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        out_dir = Path(avgsa.experiments.validate_config(raw)["output_dir"])
        seeds = list(range(raw["seed"], raw["seed"] + count))
        if job.sweep_seeds:
            out_dirs = [out_dir / f"seed-{s}" for s in seeds]
        else:
            out_dirs = [out_dir]
        items.append(Item(Path(job.shipped).stem, path, bool(job.sweep_seeds), seeds, out_dirs))
    return items


# ---------------------------------------------------------------------------
# passes and their checks
# ---------------------------------------------------------------------------

def speed_probe() -> float:
    """Seconds a fixed piece of reference work takes now: the machine's
    current speed.  It runs no avgsa code, so no change to avgsa moves it.
    Half of it is a Python loop over tiny numpy arrays, like avgsa's
    per-row stream loops, half plain interpreter arithmetic."""
    import numpy as np

    x = np.zeros(1)
    z = np.full((2000, 1), 0.5)
    out = np.empty_like(z)
    t0 = perf_counter()
    for _ in range(5):
        for i in range(2000):
            x = 0.5 * x + z[i]
            out[i] = x
    s, kept = 0.0, {}
    for i in range(150_000):
        s += (i % 13) * 0.5
        if i & 255 == 0:
            kept[i] = s
    return perf_counter() - t0


@dataclass
class PassResult:
    walls: dict = field(default_factory=dict)      # job -> seconds in run_experiment / cli.main
    computes: dict = field(default_factory=dict)   # run -> summary runtime_seconds
    speeds: dict = field(default_factory=dict)     # job -> speed_probe seconds just before it
    run_jobs: dict = field(default_factory=dict)   # run -> its job
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    collisions: int = 0
    layers: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.walls.values())

    @property
    def compute(self) -> float:
        return sum(self.computes.values())


class Checker:
    """Per-run correctness checks; remembers each run's first CSV hash."""

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.hashes: dict = {}
        self.finals: dict = {}
        self.target_errors: dict = {}
        self.problems: dict = {}

    def check(self, rid: str, out_dir: Path, error: str | None):
        problems = [error] if error else []
        try:
            summary = json.loads((out_dir / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            self.problems.setdefault(rid, []).extend([*problems, f"no readable summary: {exc}"])
            return None, 0
        if summary.get("status") != "ok":
            problems.append(f"status {summary.get('status')!r}: {summary.get('failure')}")
        final = summary.get("final") or []
        if not final or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in final):
            problems.append(f"final is missing or non-finite: {final}")
        names = ["effective_config.yaml", "summary.json", summary.get("csv"), summary.get("plot")]
        files = [out_dir / n for n in names if n]
        try:
            digest = hashlib.sha256((out_dir / summary["csv"]).read_bytes()).hexdigest()
            size = sum(f.stat().st_size for f in files)
        except (OSError, KeyError, TypeError) as exc:
            problems.append(f"artifacts missing: {exc}")
            digest, size = None, 0
        if self.hashes.setdefault(rid, digest) != digest:
            problems.append("CSV bytes differ from this run's first pass")
        self.finals[rid] = final
        if self.reference is not None:
            want = self.reference["finals"].get(rid)
            if want is None:
                problems.append("no reference value stored for this run")
            elif len(want) != len(final) or not all(
                    math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                    for a, b in zip(final, want)):
                problems.append(f"final {final} differs from reference {want}")
        target, err = summary.get("target"), summary.get("error")
        if target and err is not None:
            scale = max(abs(t) for t in target)
            self.target_errors[summary["experiment"]] = err / scale if scale > 0 else err
        if problems:
            self.problems.setdefault(rid, []).extend(problems)
        return summary if not problems else None, size


def run_pass(avgsa, items, checker: Checker, tracer=None) -> PassResult:
    res = PassResult()
    owners: dict = {}
    for item in items:
        if tracer is not None:
            tracer.run_id = item.key
        res.speeds[item.key] = speed_probe()
        t0 = perf_counter()
        try:
            if item.sweep:
                main = avgsa.cli.main
                if tracer is not None:
                    main = tracer.wrap("cli.sweep", main)
                argv = ["sweep", str(item.path), "--seeds",
                        f"{item.seeds[0]}..{item.seeds[-1]}", "--jobs", "1"]
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = main(argv)
                error = None if rc == 0 else f"cli.main returned {rc}"
            else:
                avgsa.experiments.run_experiment(str(item.path))
                error = None
        except (Exception, SystemExit) as exc:    # a run that raises is a failed run
            error = f"raised {exc!r}"
        res.walls[item.key] = perf_counter() - t0
        for seed, out_dir in zip(item.seeds, item.out_dirs):
            rid = f"{item.key}/seed-{seed}" if item.sweep else item.key
            res.attempted += 1
            if owners.setdefault(out_dir, item.key) != item.key:
                res.collisions += 1
            summary, size = checker.check(rid, out_dir, error)
            res.output_bytes += size
            if summary is None:
                res.failed += 1
            else:
                res.computes[rid] = summary["runtime_seconds"]
                res.run_jobs[rid] = item.key
    return res


# ---------------------------------------------------------------------------
# measurement modes
# ---------------------------------------------------------------------------

def measure_setup(items, repeats: int) -> list:
    paths = [str(i.path) for i in items]
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        # no timeout: with one, subprocess polls the child in 50 ms steps
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), *paths],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return times


def stats(values) -> dict:
    vals = sorted(values)
    q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    return {"median": median(vals), "q1": q1, "q3": q3, "n": len(vals)}


def median_sum(per_pass) -> float:
    """Sum over keys (jobs or runs) of the median over passes of each."""
    by_key: dict = {}
    for values in per_pass:
        for key, v in values.items():
            by_key.setdefault(key, []).append(v)
    return sum(median(v) for v in by_key.values())


def ref_walls(p: PassResult) -> dict:
    """Each job's wall time in seconds at the reference speed."""
    return {job: t * REF_PROBE_S / p.speeds[job] for job, t in p.walls.items()}


def ref_computes(p: PassResult) -> dict:
    """Each run's runtime_seconds at the reference speed."""
    return {rid: t * REF_PROBE_S / p.speeds[p.run_jobs[rid]] for rid, t in p.computes.items()}


def fits(start, seconds, rounds) -> bool:
    """Whether one more round, as long as the median past one, ends
    within ``seconds`` of ``start``."""
    return perf_counter() - start + median(rounds) <= seconds


def end_to_end(avgsa, items, checker, seconds):
    """Passes back to back, with a fresh-interpreter set-up between passes
    every ``seconds / SETUPS_PER_RUN``, so set-up is sampled across the
    whole run like the passes are."""
    passes, setup, rounds = [], [], []
    start = last_setup = perf_counter()
    while len(passes) < 2 or fits(start, seconds, rounds):
        t0 = perf_counter()
        if not setup or t0 - last_setup >= seconds / SETUPS_PER_RUN:
            setup += measure_setup(items, 1)
            last_setup = perf_counter()
        passes.append(run_pass(avgsa, items, checker))
        rounds.append(perf_counter() - t0)
    setup += measure_setup(items, max(0, MIN_SETUPS - len(setup)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "setup_s": setup,
        "wall_ref_s": [sum(ref_walls(p).values()) for p in passes],
        "compute_ref_s": [sum(ref_computes(p).values()) for p in passes],
        "peak_rss_mb": [peak_rss_mb],
        "wall_s": [p.wall for p in passes],
        "compute_s": [p.compute for p in passes],
        "speed_probe_s": [t for p in passes for t in p.speeds.values()],
    }
    values = {name: median(v) for name, v in samples.items()}
    values["wall_ref_s"] = median_sum(ref_walls(p) for p in passes)
    values["compute_ref_s"] = median_sum(ref_computes(p) for p in passes)
    extra = {"job_walls": [p.walls for p in passes], "run_computes": [p.computes for p in passes],
             "job_speed_probes": [p.speeds for p in passes]}
    return passes, samples, values, extra


def per_layer(avgsa, items, checker, seconds, smoke, work, base_seed):
    import yaml

    from probes import run_probes
    from tracing import Tracer, layer_metrics

    start = perf_counter()
    probe = run_probes(avgsa, work, shrink=spec.SMOKE_DIVISOR if smoke else 1)
    # the shipped ergodic-investment config, unmodified but for its output
    # directory: its target error is a known defect that must stay visible
    raw = yaml.safe_load((ROOT / "configs" / "ergodic-investment.yaml").read_text())
    raw["seed"] += base_seed
    raw["output_dir"] = str(work / "probe-ergodic-investment")
    s = avgsa.experiments.run_experiment(raw).summary
    probe["experiments.target_error.ergodic-investment"] = s["error"] / abs(s["target"][0])
    dark = run_pass(avgsa, prepare(avgsa, spec.SHIPPED_DARK_POOL, base_seed, smoke, work),
                    checker)
    probe["experiments.output_dir_collisions"] = dark.collisions

    tracer = Tracer(avgsa)
    untraced, traced, spans, rounds = [], [], [], []
    while not traced or fits(start, seconds, rounds):
        t0 = perf_counter()
        untraced.append(run_pass(avgsa, items, checker))
        tracer.reset()
        tracer.install()
        try:
            p = run_pass(avgsa, items, checker, tracer)
        finally:
            tracer.uninstall()
        p.layers = layer_metrics(tracer.spans, tracer.next_calls)
        p.layers["experiments.output_bytes"] = p.output_bytes
        traced.append(p)
        spans.append(tracer.spans)
        rounds.append(perf_counter() - t0)
    samples = {k: [v] for k, v in probe.items()}
    for name in traced[0].layers:
        samples[name] = [p.layers[name] for p in traced]
    overhead = (median_sum(ref_walls(p) for p in traced)
                - median_sum(ref_walls(p) for p in untraced))
    samples["trace.overhead_s"] = [overhead]
    values = {name: median(v) for name, v in samples.items()}
    return [dark, *untraced, *traced], samples, values, {"spans": spans}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def provenance(args, avgsa) -> dict:
    import numpy
    import yaml

    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "avgsa": getattr(avgsa.package, "__version__", None),
        "git_sha": sha,
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


@contextlib.contextmanager
def work_dir(name: str):
    """A fresh directory under .bench_work, made the working directory (so
    configs keep their relative ``output_dir``, runs/...) and removed after."""
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        yield work
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def write_reference() -> int:
    """Store each run's final values and CSV hash at the default seed."""
    avgsa = load_avgsa(ROOT)
    refs = {}
    with work_dir("reference") as work:
        for wl in (*spec.WORKLOADS, spec.SHIPPED_DARK_POOL):
            checker = Checker(None)
            run_pass(avgsa, prepare(avgsa, wl, spec.DEFAULT_SEED, False, work), checker)
            if checker.problems:
                raise BenchError(f"runs failed, no reference written: {checker.problems}")
            refs[wl.name] = {"finals": checker.finals, "csv_sha256": checker.hashes}
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"wrote reference values to {REFERENCE}")
    return 0


def load_reference(wl: spec.Workload) -> dict:
    """Reference finals and CSV hashes of the workload's runs and of the
    shipped dark-pool pair that traced runs add."""
    refs = json.loads(REFERENCE.read_text())
    out: dict = {"finals": {}, "csv_sha256": {}}
    for name in (wl.name, spec.SHIPPED_DARK_POOL.name):
        if name not in refs:
            raise BenchError(f"{REFERENCE} has no reference values for {name}")
        for key in out:
            out[key].update(refs[name][key])
    return out


def run_workload(args) -> int:
    avgsa = load_avgsa(ROOT)
    wl = spec.workload(args.workload)
    default_inputs = args.seed == spec.DEFAULT_SEED and not args.smoke
    with work_dir(wl.name) as work:
        reference = load_reference(wl) if default_inputs else None
        checker = Checker(reference)
        items = prepare(avgsa, wl, args.seed, args.smoke, work)
        if args.trace:
            passes, samples, values, extra = per_layer(avgsa, items, checker, args.seconds,
                                                       args.smoke, work, args.seed)
            listed, extra_names = spec.PER_LAYER, spec.TRACE_ONLY
        else:
            passes, samples, values, extra = end_to_end(avgsa, items, checker, args.seconds)
            listed, extra_names = spec.END_TO_END, spec.RAW_ONLY

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    units = {m[0]: m[1] for m in (*listed, *extra_names)}
    table = {name: {"value": values[name], "unit": units[name], **stats(samples[name])}
             for name in units}
    ref_hashes = reference["csv_sha256"] if reference else {}
    runs = {
        rid: {"csv_sha256": h, "final": checker.finals.get(rid),
              "csv_matches_reference": ref_hashes.get(rid) == h if default_inputs else None,
              "problems": checker.problems.get(rid, [])}
        for rid, h in checker.hashes.items()
    }
    report = {
        "provenance": provenance(args, avgsa), "metrics": table, "samples": samples, "runs": runs,
        "fail_frac": failed / attempted, "target_error": checker.target_errors,
        "passes": len(passes), "reference_tolerance": {"rel": REL_TOL, "abs": ABS_TOL}, **extra,
    }
    WORK_ROOT.joinpath("reports").mkdir(parents=True, exist_ok=True)
    report_path = WORK_ROOT / "reports" / (
        f"{wl.name}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json")
    report_path.write_text(json.dumps(report, indent=2) + "\n")

    print(f"# {wl.name}: {wl.why}")
    print("provenance: " + json.dumps(report["provenance"]))
    for rid, r in runs.items():
        same = {True: "same as reference", False: "DIFFERS from reference",
                None: "no reference at this seed"}[r["csv_matches_reference"]]
        print(f"run {rid:<28} csv sha256 {r['csv_sha256']}  ({same})")
        for problem in r["problems"]:
            print(f"  FAILED: {problem}")
    if default_inputs:
        print(f"final values checked against {REFERENCE.name} within rel {REL_TOL:g}, "
              f"abs {ABS_TOL:g}")
    note_only = ("  (printed only: raw time, moves with the machine's speed)" if not args.trace
                 else "  (printed only: zero on workloads that skip the layer)")
    for name, s in table.items():
        note = note_only if name in dict(extra_names) else ""
        print(f"{name:<46} {s['value']:.6g} {s['unit']}  (samples: median {s['median']:.6g}"
              f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}){note}")
    print(f"{'fail_frac':<46} {failed / attempted:.6g} ratio  ({failed} of {attempted} runs)")
    print(f"{'experiments.output_dir_collisions':<46} {passes[0].collisions} count  (configs of "
          f"{'the shipped dark-pool pair' if args.trace else 'one pass'} sharing an output_dir)")
    for exp, err in sorted(checker.target_errors.items()):
        print(f"experiments.target_error.{exp:<21} {err:.6g} ratio  (last such run)")
    print(f"report: {report_path}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m[0]: {"value": table[m[0]]["value"], "unit": m[1]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results, status = {}, 0
    for name in spec.WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*spec.WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED,
                        help="workload seed; every config seed is derived from it")
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny horizons, for the self-test")
    parser.add_argument("--write-reference", action="store_true",
                        help="store every workload's default-seed final values and CSV "
                             "hashes in reference.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (config seeds are nonnegative)")
    try:
        if args.write_reference:
            return write_reference()
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
