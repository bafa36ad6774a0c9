"""Command-line entry point: run, list, plot, sweep.

`run` executes one configured experiment and reports where the artifacts
went.  `list` names every registered experiment.  `plot` re-renders any
trajectory CSV column as an SVG.  `sweep` replays one config over a seed
range, each replication in its own subdirectory, and prints each seed's
line as its replication ends.

Exit status: 0 on success, 1 when a run aborts on the divergence guard
(the summary is still written) or a sweep has failures, 2 on config or
usage errors, on a config or CSV that cannot be read ("cannot read
config", "cannot plot"), and on artifacts or a plot that cannot be
written ("cannot write artifacts", "cannot plot"); an output directory
that cannot be made is refused before the run.  A config value
outside its key's interval is refused with the key and the interval
before any file is written.
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from pathlib import Path

import yaml

from avgsa.engine import read_csv_columns
from avgsa.experiments import (
    RunArtifacts,
    describe_experiments,
    load_config,
    run_experiment,
    validate_config,
)
from avgsa.plotting import write_line_svg

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgsa",
        description="stochastic-approximation experiments on averaging innovation streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a YAML config")
    p_run.add_argument("config", help="path to the experiment config")

    sub.add_parser("list", help="list registered experiments")

    p_plot = sub.add_parser("plot", help="render a CSV column as an SVG line plot")
    p_plot.add_argument("csv", help="trajectory CSV written by `run`")
    p_plot.add_argument("--channel", required=True, help="column to plot")
    p_plot.add_argument("--target", type=float, default=None,
                        help="draw a horizontal reference line at this value")
    p_plot.add_argument("--logx", action="store_true", help="log-scale the x axis")
    p_plot.add_argument("--out", default=None, help="output SVG path")

    p_sweep = sub.add_parser("sweep", help="replay one config over a seed range")
    p_sweep.add_argument("config", help="path to the experiment config")
    p_sweep.add_argument("--seeds", required=True, metavar="A..B",
                         help="inclusive seed range, e.g. 0..19")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="replications to run in parallel, at most the number "
                              "of CPUs (default 1)")
    return parser


def _print_run_report(arts: RunArtifacts) -> None:
    s = arts.summary
    print(f"{s['experiment']} seed={s['seed']} horizon={s['horizon']}: {s['status']}")
    if s["final"] is not None:
        print(f"  final:       {s['final']}")
    if s["target"] is not None:
        print(f"  target:      {s['target']}")
    if s["error"] is not None:
        print(f"  error:       {s['error']:.6g}")
    if s["fitted_rate"] is not None:
        print(f"  fitted rate: {s['fitted_rate']:.3f} (error ~ C n^-rate)")
    print(f"  artifacts:   {arts.out_dir}/")


def _reports_config_errors(command):
    """Read ``args.config`` and hand it to ``command(args, raw)``.  Exit 2
    with one line on stderr when the file cannot be read, when the run
    fails on its config (malformed YAML, a ``ConfigError``, or a parameter
    an application refuses at run time, also inside a sweep replication),
    or when its artifacts cannot be written."""
    def guarded(args) -> int:
        try:
            try:
                raw = load_config(args.config)
            except OSError as exc:
                print(f"cannot read config: {exc}", file=sys.stderr)
                return 2
            return command(args, raw)
        except (ValueError, yaml.YAMLError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
        except OSError as exc:
            print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return 2

    return guarded


@_reports_config_errors
def _cmd_run(args, raw) -> int:
    arts = run_experiment(raw)
    _print_run_report(arts)
    if arts.summary["status"] != "ok":
        print(f"  failure:     {arts.summary['failure']}", file=sys.stderr)
        return 1
    return 0


def _cmd_list(_args) -> int:
    width = max(len(name) for name, _ in describe_experiments())
    for name, desc in describe_experiments():
        print(f"{name:<{width}}  {desc}")
    return 0


def _cmd_plot(args) -> int:
    try:
        cols = read_csv_columns(args.csv)
    except (OSError, ValueError) as exc:
        print(f"cannot plot: {exc}", file=sys.stderr)
        return 2
    channels = [c for c in cols if c != "n"]
    if args.channel not in channels:
        print(
            f"no channel {args.channel!r} in {args.csv}; available: "
            + ", ".join(channels),
            file=sys.stderr,
        )
        return 2
    try:
        out = Path(args.out) if args.out else Path(args.csv).with_suffix(f".{args.channel}.svg")
        write_line_svg(
            out, cols["n"], cols[args.channel],
            title=Path(args.csv).name, xlabel="n", ylabel=args.channel,
            target=args.target, logx=args.logx,
        )
    except (OSError, ValueError) as exc:
        print(f"cannot plot: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0


_SEED_RANGE = re.compile(r"^(\d+)\.\.(\d+)$")


def _sweep_one(cfg: dict) -> dict:
    return run_experiment(cfg).summary


def _in_pool(configs, jobs: int):
    """Replication summaries in seed order, each one taken queuing the next of
    ``4 * jobs`` runs.  The pool is imported here: only this path uses multiprocessing."""
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        queued = [pool.submit(_sweep_one, cfg) for cfg in itertools.islice(configs, 4 * jobs)]
        while queued:
            queued += [pool.submit(_sweep_one, cfg) for cfg in itertools.islice(configs, 1)]
            yield queued.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)      # drops unstarted runs when one fails


@_reports_config_errors
def _cmd_sweep(args, raw) -> int:
    m = _SEED_RANGE.match(args.seeds)
    if not m:
        print(f"--seeds must look like A..B (got {args.seeds!r})", file=sys.stderr)
        return 2
    lo, hi = int(m.group(1)), int(m.group(2))
    if hi < lo:
        print(f"--seeds range is empty: {args.seeds}", file=sys.stderr)
        return 2
    cap = os.cpu_count() or 1
    if not 1 <= args.jobs <= cap:
        print(f"--jobs must lie in 1..{cap} (the number of CPUs)", file=sys.stderr)
        return 2
    base = validate_config(raw)
    root = base["output_dir"]
    # each replication keeps the base config's key order
    configs = ({**base, "seed": seed, "output_dir": f"{root}/seed-{seed}"}
               for seed in range(lo, hi + 1))

    summaries = map(_sweep_one, configs) if args.jobs == 1 else _in_pool(configs, args.jobs)
    failures = 0
    for s in summaries:
        line = f"seed {s['seed']}: {s['status']}"
        if s["error"] is not None:
            line += f"  error={s['error']:.6g}"
        if s["status"] != "ok":
            line += f"  ({s['failure']})"
            failures += 1
        print(line)
    print(f"{hi - lo + 1} runs, {failures} failed, artifacts under {root}/")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "list": _cmd_list,
        "plot": _cmd_plot,
        "sweep": _cmd_sweep,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
