"""Per-layer probes: each times one public avgsa call on a fresh object at
a fixed seed and reports the median of a few repeats.

Sizes are fixed (divided by ``shrink`` in smoke mode) so a probe's figure
is comparable across commits and workloads; parameters are the shipped
config defaults.
"""

from __future__ import annotations

import math
import warnings
from statistics import median
from time import perf_counter

PROBE_SEED = 0
REPEATS = 3

# four-venue shipped parameters (the zero-rebate venue is clipped)
DARKPOOL_FOUR = dict(mix=[0.4, 0.6, 0.8, 0.2], scale=[0.1, 0.2, 0.3, 0.2])
REBATES_FOUR = [0.0, 0.02, 0.04, 0.06]
# two-venue defaults, the only size the brute-force oracle is run on
DARKPOOL_TWO = dict(mix=[0.5, 0.5], scale=[0.6, 0.15])
REBATES_TWO = [0.02, 0.05]


def _timed(setup, call, repeats):
    """Median seconds of ``call(setup())`` over fresh objects; the last
    result is returned too."""
    times = []
    for _ in range(repeats):
        obj = setup()
        t0 = perf_counter()
        out = call(obj)
        times.append(perf_counter() - t0)
    return median(times), out


def _drain_next(src, rows):
    nxt = src.next
    for _ in range(rows):
        nxt()


def run_probes(avgsa, scratch_dir, shrink: int = 1) -> dict:
    """Every probe metric, keyed by its BENCHMARK.json name."""
    with warnings.catch_warnings():
        # CirParams warns that the Feller condition fails at the shipped
        # parameters; that is expected and says nothing about speed
        warnings.simplefilter("ignore")
        out = _probes(avgsa, scratch_dir, shrink)
    if not all(math.isfinite(v) for v in out.values()):
        raise RuntimeError(f"a probe produced a non-finite figure: {out}")
    return out


def _probes(avgsa, scratch_dir, shrink):
    inn, eng, plot = avgsa.innovations, avgsa.engine, avgsa.plotting
    vc, bd, dp = avgsa.varcvar, avgsa.bandit, avgsa.darkpool
    corr, inv = avgsa.correlation, avgsa.investment
    repeats = 1 if shrink > 1 else REPEATS

    def rows(n):
        return max(n // shrink, 256)

    cir = inv.CirParams(kappa=1.0, vartheta=1.0, sigma=1.5)
    streams = {
        "iid-uniform": lambda: inn.make_source("iid-uniform", 1, PROBE_SEED),
        "iid-gaussian": lambda: inn.make_source("iid-gaussian", 1, PROBE_SEED),
        "halton": lambda: inn.make_source("halton", 1),
        "halton-gaussian": lambda: inn.make_source("halton-gaussian", 2),
        "ar1-mixing": lambda: inn.make_source("ar1-mixing", 1, PROBE_SEED, a=0.5),
        "finite-markov-chain": lambda: inn.make_source(
            "finite-markov-chain", seed=PROBE_SEED,
            transition=[[0.9, 0.1], [0.2, 0.8]], values=[0.0, 1.0]),
        "euler-decreasing": lambda: inv.cir_innovation_source(cir, 1.0, 1.0 / 3.0, PROBE_SEED),
    }
    slow = {"ar1-mixing", "finite-markov-chain", "euler-decreasing"}
    out: dict = {}
    for kind, fresh in streams.items():
        n = rows(16_384 if kind in slow else 65_536)
        t, _ = _timed(fresh, lambda s: s.take_block(n), repeats)
        out[f"innovations.block_ns_per_row.{kind}"] = t / n * 1e9
        n = rows(16_384)
        t, _ = _timed(fresh, lambda s: _drain_next(s, n), repeats)
        out[f"innovations.next_ns_per_row.{kind}"] = t / n * 1e9

    pts = inn.make_source("halton", 2).take_block(rows(4096))
    out["innovations.star_discrepancy_s"], _ = _timed(
        lambda: pts.copy(), inn.star_discrepancy_exact, repeats)

    def trivial_run(dim, steps, stride):
        return _timed(
            lambda: inn.make_source("iid-uniform", dim, PROBE_SEED),
            lambda s: eng.run([0.0] * dim, s, lambda th, y: th,
                              eng.StepSchedule(c=1.0, a=1.0), steps, record_stride=stride),
            repeats)

    n = rows(50_000)
    t_scalar, _ = trivial_run(1, n, n)
    out["engine.run_us_per_step.scalar"] = t_scalar / n * 1e6
    t_dense, traj = trivial_run(1, n, 1)
    out["engine.record_us_per_row"] = (t_dense - t_scalar) / n * 1e6
    nv = rows(10_000)
    t, _ = trivial_run(2, nv, nv)
    out["engine.run_us_per_step.vector"] = t / nv * 1e6

    csv_path = scratch_dir / "probe.csv"
    t, _ = _timed(lambda: traj, lambda tr: eng.write_trajectory_csv(tr, csv_path), repeats)
    out["engine.csv_us_per_row"] = t / len(traj.ns) * 1e6
    svg_path = scratch_dir / "probe.svg"
    t, _ = _timed(lambda: traj,
                  lambda tr: plot.write_line_svg(svg_path, tr.ns, tr.thetas[:, 0]), repeats)
    out["plotting.svg_us_per_point"] = t / len(traj.ns) * 1e6

    def per_step(name, steps, setup, call):
        t, result = _timed(setup, call, repeats)
        out[f"applications.{name}_us_per_step"] = t / steps * 1e6
        return result

    n = rows(100_000)
    per_step("var_cvar_trajectory", n,
             lambda: inn.make_source("iid-gaussian", 1, PROBE_SEED),
             lambda s: vc.var_cvar_trajectory(s, eng.StepSchedule(c=4.0, a=0.75), n))
    n = rows(50_000)
    per_step("bandit_run", n,
             lambda: (bd.make_event_source("iid", 0.6, 0.4, PROBE_SEED),
                      inn.make_source("iid-uniform", 1, PROBE_SEED + 1)),
             lambda ev_u: bd.bandit_run(*ev_u, eng.StepSchedule(c=1.0, a=0.9), n))
    n = rows(5_000)
    volumes, caps = dp.synthetic_darkpool_series(n, PROBE_SEED, **DARKPOOL_FOUR)
    traj = per_step("darkpool_run", n, lambda: (volumes, caps),
                    lambda vd: dp.darkpool_run(*vd, REBATES_FOUR,
                                               eng.StepSchedule(c=2.0, a=0.75)))
    out["applications.safeguard_clip_ratio"] = float(traj.channel("safeguard_count")[-1]) / n
    n = rows(20_000)
    per_step("calibrate_correlation", n,
             lambda: inn.make_source("halton-gaussian", 2),
             lambda s: corr.calibrate_correlation(corr.BestOfCallParams(), s,
                                                  eng.StepSchedule(c=8.0, a=1.0), n))
    per_step("investment_run", n, lambda: None,
             lambda _: inv.investment_run(
                 cir, inv.CobbDouglasParams(alpha=0.8, beta=0.7, cost=0.5),
                 eng.StepSchedule(c=5.0, a=1.0), n, seed=PROBE_SEED, chain_rule=True))

    n = rows(100_000)
    out["applications.synthetic_darkpool_series_s"], (volumes, caps) = _timed(
        lambda: None, lambda _: dp.synthetic_darkpool_series(n, PROBE_SEED, **DARKPOOL_TWO),
        repeats)
    out["applications.brute_force_allocation_s"], _ = _timed(
        lambda: None, lambda _: dp.brute_force_allocation(volumes, caps, REBATES_TWO),
        repeats)
    return out
