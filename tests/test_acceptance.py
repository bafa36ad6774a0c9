"""Release gate: one end-to-end check per headline claim, at pinned
tolerances.

Each test prints a single verdict line (visible under ``pytest -s``) and
asserts it, so a verbose run of this file reads as a checklist.  The
tolerances and protocols here are frozen — a red entry means the claim
is not met as stated, never that the bar moved.  Gate 4 is red by
measurement, deliberately: its docstring and failure message carry the
analysis.

Oracles are computed inline from the standard library (``math.gamma``,
``statistics.NormalDist``, exhaustive enumeration) so every comparison
has a route into the package and an independent route around it.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

from avgsa.applications.bandit import bandit_run, make_event_source
from avgsa.applications.correlation import (
    BestOfCallParams,
    bs_bestof_price,
    calibrate_correlation,
)
from avgsa.applications.darkpool import (
    brute_force_allocation,
    darkpool_field,
    darkpool_run,
    synthetic_darkpool_series,
)
from avgsa.applications.investment import (
    CirParams,
    CobbDouglasParams,
    investment_run,
    theta_star_closed_form,
)
from avgsa.applications.varcvar import (
    cvar_companion_step,
    var_cvar_run,
    var_cvar_trajectory,
    var_field,
)
from avgsa.diagnostics import ErrorPath, fit_rate
from avgsa.engine import (
    RateSpec,
    StepSchedule,
    admissible_power_pair,
    check_schedule_numeric,
)
from avgsa.experiments import experiment_names, run_experiment
from avgsa.innovations import IidUniformSource, make_source, star_discrepancy_exact

# the investment parameters sit outside the Feller region on purpose;
# the constructor's warning is part of gate 3's configuration, not noise
pytestmark = pytest.mark.filterwarnings(
    "ignore:2\\*kappa\\*vartheta:UserWarning"
)


def _verdict(gate: str, ok: bool, detail: str) -> str:
    line = f"[{gate}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


# ---------------------------------------------------------------------------
# gate 1: best-of-two implied correlation
# ---------------------------------------------------------------------------

def test_gate_1_implied_correlation():
    """Low-discrepancy-driven calibration lands on rho = -0.5 within
    0.02 in at most 30 s, and the quasi-Monte Carlo pricer reproduces
    the quoted 30.75 within 0.05 at rho = -0.5."""
    p = BestOfCallParams(
        x1=100.0, x2=100.0, rate=0.10, sigma1=0.30, sigma2=0.30,
        maturity=1.0, strike=100.0, market_price=30.75,
    )
    t0 = time.perf_counter()
    traj = calibrate_correlation(
        p, make_source("halton-gaussian", 2, 0), StepSchedule(c=8.0, a=1.0), 100_000
    )
    elapsed = time.perf_counter() - t0
    rho = math.cos(float(traj.final_theta[0]))
    price = bs_bestof_price(p, -0.5, make_source("halton-gaussian", 2, 0), 1_000_000)

    ok = abs(rho + 0.5) <= 0.02 and elapsed <= 30.0 and abs(price - 30.75) <= 0.05
    line = _verdict(
        "gate 1: implied correlation",
        ok,
        f"|rho_N + 0.5| = {abs(rho + 0.5):.4f} (tol 0.02) in {elapsed:.1f}s "
        f"(limit 30s); pricer at rho=-0.5, n=1e6: {price:.4f} vs 30.75 +/- 0.05",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 2: quantile / expected shortfall
# ---------------------------------------------------------------------------

def test_gate_2_var_cvar():
    """At alpha = 0.95 and N = 1e6 the joint recursion pins the Gaussian
    quantile within 0.02 and the expected shortfall within 0.03 of the
    analytic values, then repeats the feat on uniform losses; both legs
    together within 60 s."""
    z = NormalDist().inv_cdf(0.95)
    es_gauss = math.exp(-z * z / 2.0) / (math.sqrt(2.0 * math.pi) * 0.05)
    sched = StepSchedule(c=4.0, a=0.75)

    t0 = time.perf_counter()
    legs = []
    for kind, q_true, es_true in (
        ("iid-gaussian", z, es_gauss),       # 1.64485 / 2.06271
        ("iid-uniform", 0.95, 0.975),
    ):
        q, es = var_cvar_run(make_source(kind, 1, 5), 0.95, sched, 1_000_000)
        legs.append((kind, abs(q - q_true), abs(es - es_true)))
    elapsed = time.perf_counter() - t0

    ok = elapsed <= 60.0 and all(dq <= 0.02 and des <= 0.03 for _, dq, des in legs)
    detail = "; ".join(
        f"{kind}: |q err| = {dq:.4f} (tol 0.02), |es err| = {des:.4f} (tol 0.03)"
        for kind, dq, des in legs
    )
    line = _verdict(
        "gate 2: VaR/CVaR", ok, f"{detail}; both legs in {elapsed:.1f}s (limit 60s)"
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 3: ergodic investment
# ---------------------------------------------------------------------------

def test_gate_3_ergodic_investment():
    """The closed-form optimal capacity agrees with an independent
    ``math.gamma`` composition to 1e-8, and one decreasing-step Euler
    path recovers it within 5% relative error."""
    cir = CirParams(kappa=1.0, vartheta=1.0, sigma=1.5)
    q = CobbDouglasParams(alpha=0.8, beta=0.7, cost=0.5)

    # independent route: stationary law is Gamma(shape, scale) with
    # shape = 2*kappa*vartheta/sigma^2 and scale = sigma^2/(2*kappa),
    # whose alpha-moment is scale^alpha * Gamma(shape+alpha)/Gamma(shape)
    shape = 2.0 * cir.kappa * cir.vartheta / cir.sigma**2
    scale = cir.sigma**2 / (2.0 * cir.kappa)
    moment = scale**q.alpha * math.gamma(shape + q.alpha) / math.gamma(shape)
    star_oracle = (q.beta * moment / q.cost) ** (1.0 / (1.0 - q.beta))

    star = theta_star_closed_form(cir, q)
    traj = investment_run(
        cir, q, StepSchedule(c=5.0, a=1.0), 100_000,
        step0=1.0, exponent=1.0 / 3.0, seed=0, chain_rule=True,
    )
    capacity = float(traj.monitors["capacity"][-1])
    rel = abs(capacity - star) / star

    ok = abs(star - star_oracle) <= 1e-8 and rel <= 0.05
    line = _verdict(
        "gate 3: ergodic investment",
        ok,
        f"closed form {star:.12f} vs gamma oracle (|diff| = "
        f"{abs(star - star_oracle):.2e}, tol 1e-8); capacity {capacity:.4f}, "
        f"relative error {rel:.4f} (tol 0.05)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 4: two-armed bandit replication study  (RED by measurement)
# ---------------------------------------------------------------------------

def test_gate_4_two_armed_bandit():
    """100-seed replication at nu = (0.6, 0.4), gamma_n = n^{-0.9},
    theta0 = 0.5, N = 1e5: the gate demands every terminal iterate
    within 1e-2 of {0, 1} with at least 80% near 1, and full absorption
    again under serially dependent events.

    This gate is red by measurement, not by bug.  The mean flow is
    E[dtheta] = gamma_n * theta(1-theta) * (nu_A - nu_B), so in log-odds
    the deterministic drift budget is (nu_A - nu_B) * sum(gamma_n)
    ~ 0.2 * 22.19 ~ 4.44, short of the ln(0.99/0.01) ~ 4.60 needed to
    carry theta0 = 0.5 into the 1e-2 band; only paths with favourable
    early fluctuations absorb, and a structural undecided mass remains
    at the horizon.  The same protocol with gamma_n = n^{-0.75} (budget
    ~ 14) absorbs every seed.  The protocol is pinned, so the gate
    asserts it as stated and reports the measured counts.
    """
    sched = StepSchedule(c=1.0, a=0.9)
    failures = []
    measured = {}
    for kind in ("iid", "ar1"):
        counts = Counter()
        worst = 0.0
        for s in range(100):
            res = bandit_run(
                make_event_source(kind, 0.6, 0.4, seed=s, mixing=0.5),
                IidUniformSource(1, seed=100_000 + s),
                sched, 100_000, theta0=0.5, record_stride=100_000,
            )
            counts[res.classification] += 1
            worst = max(worst, min(res.final_theta, 1.0 - res.final_theta))
        measured[kind] = (
            f"{counts['near-0']} near-0 / {counts['near-1']} near-1 / "
            f"{counts['undecided']} undecided, max dist to {{0,1}} = {worst:.3f}"
        )
        if counts["undecided"]:
            failures.append(
                f"{kind}: {counts['undecided']} of 100 seeds end away from "
                f"{{0,1}} (every one must land within 1e-2)"
            )
        if kind == "iid" and counts["near-1"] < 80:
            failures.append(
                f"iid: only {counts['near-1']}% classified near-1 (needs >= 80%)"
            )

    ok = not failures
    line = _verdict(
        "gate 4: two-armed bandit",
        ok,
        f"iid: {measured['iid']}; ar1: {measured['ar1']}"
        + (
            ""
            if ok
            else "; "
            + "; ".join(failures)
            + " -- structural at this schedule: log-odds drift budget "
            "0.2 * sum(n^-0.9) ~ 4.44 < ln(99) ~ 4.60, so a residual "
            "undecided mass is expected at N = 1e5 regardless of seed; "
            "gamma_n = n^{-0.75} absorbs all 100 seeds under the same "
            "protocol"
        ),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 5: dark-pool allocation
# ---------------------------------------------------------------------------

def test_gate_5_dark_pool():
    """Two synthetic venues: the recursion's final allocation sits
    within 0.05 (sup norm) of a brute-force grid argmax over the same
    sample, and the component sum stays 1 to 1e-12 at every step.  Four
    venues in the shortage regime: the running mean of the relative
    cost reduction is positive and its last quintile moves by at most
    20% of its mean."""
    sched = StepSchedule(c=2.0, a=0.75)
    failures = []

    v, d = synthetic_darkpool_series(100_000, seed=7, mix=(0.5, 0.5), scale=(0.6, 0.15))
    rebates = (0.02, 0.05)
    traj = darkpool_run(v, d, rebates, sched, record_stride=1)
    ref = brute_force_allocation(v, d, rebates, resolution=0.01)
    sup_err = float(np.max(np.abs(traj.final_theta - ref)))
    sum_dev = float(np.max(np.abs(traj.thetas.sum(axis=1) - 1.0)))
    if sup_err > 0.05:
        failures.append(f"two venues: sup-norm gap to grid argmax {sup_err:.4f} > 0.05")
    if sum_dev > 1e-12:
        failures.append(f"two venues: allocation sum drifts by {sum_dev:.2e} > 1e-12")

    v4, d4 = synthetic_darkpool_series(
        100_000, seed=0, mix=(0.4, 0.6, 0.8, 0.2), scale=(0.1, 0.2, 0.3, 0.2)
    )
    tr4 = darkpool_run(v4, d4, (0.0, 0.02, 0.04, 0.06), sched)
    cr = tr4.monitors["mean_cost_reduction"][1:]    # drop the n=0 placeholder
    tail = cr[int(0.8 * cr.size):]
    tail_range = float(np.ptp(tail))
    bound = 0.2 * float(np.mean(tail))
    if not (cr[-1] > 0.0 and np.all(tail > 0.0)):
        failures.append("four venues: running mean of cost reduction not positive")
    if tail_range > bound:
        failures.append(
            f"four venues: last-quintile range {tail_range:.2e} > 20% of mean {bound:.2e}"
        )

    ok = not failures
    line = _verdict(
        "gate 5: dark pool",
        ok,
        f"two venues: sup gap {sup_err:.4f} (tol 0.05) to argmax {ref.tolist()}, "
        f"sum deviation {sum_dev:.1e} (tol 1e-12); four venues: mean reduction "
        f"{cr[-1]:.4f} > 0, tail range {tail_range:.1e} <= {bound:.1e}"
        + ("" if ok else "; " + "; ".join(failures)),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 6: property suites
# ---------------------------------------------------------------------------

def _oracle_star_discrepancy(points: np.ndarray) -> float:
    # exhaustive corner enumeration with plain loops; exponential cost,
    # fine for n <= 8
    pts = points if points.ndim == 2 else points[:, None]
    n, dim = pts.shape
    grids = [sorted(set(pts[:, j]) | {1.0}) for j in range(dim)]
    best = 0.0
    for corner in itertools.product(*grids):
        vol = math.prod(corner)
        closed = sum(1 for p in pts if all(p[j] <= corner[j] for j in range(dim)))
        opened = sum(1 for p in pts if all(p[j] < corner[j] for j in range(dim)))
        best = max(best, closed / n - vol, vol - opened / n)
    return best


def test_gate_6_property_suites():
    """Cross-cutting identities: discrepancy vs. enumeration oracle,
    low-discrepancy decay, companion running-mean identity, conservation
    of the allocation field, admissibility closed form vs. numeric
    probe, and rate-fit exactness on synthetic power laws."""
    failures = []

    # discrepancy oracle equivalence on small point sets, 1D and 2D
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for dim in (1, 2):
        for n in range(1, 9):
            for _ in range(3):
                pts = rng.random((n, dim))
                worst = max(
                    worst,
                    abs(star_discrepancy_exact(pts) - _oracle_star_discrepancy(pts)),
                )
    if worst > 1e-12:
        failures.append(f"discrepancy vs enumeration oracle: max gap {worst:.2e} > 1e-12")

    # low-discrepancy decay: D* strictly decreasing over doubling prefixes
    hal = make_source("halton", 2, 0).take_block(4096)
    dstars = [star_discrepancy_exact(hal[: 1 << k]) for k in range(6, 13)]
    if not all(b < a for a, b in zip(dstars, dstars[1:])):
        failures.append(f"halton D* not decreasing over 2^6..2^12: {dstars}")

    # companion identity: the trajectory's shortfall channel equals the
    # hand-iterated running mean to 1e-12
    sched = StepSchedule(c=4.0, a=0.75)
    traj = var_cvar_trajectory(
        make_source("iid-gaussian", 1, 11), sched, 3_000, alpha=0.95, record_stride=1
    )
    ys = make_source("iid-gaussian", 1, 11).take_block(3_000)[:, 0]
    gammas = sched.gamma_array(3_000)
    theta, zeta, gap = 0.0, 0.0, 0.0
    for k, y in enumerate(ys.tolist()):
        zeta = cvar_companion_step(zeta, theta, y, k, 0.95)
        theta -= gammas[k] * var_field(theta, y, 0.95)
        gap = max(gap, abs(zeta - float(traj.monitors["cvar"][k + 1])))
    if gap > 1e-12:
        failures.append(f"companion identity: max gap {gap:.2e} > 1e-12")

    # the allocation field moves mass around the simplex, never creates it
    worst_sum = 0.0
    for i in range(10_000):
        pools = 2 + i % 3
        r = rng.dirichlet(np.ones(pools))
        field = darkpool_field(
            r,
            float(rng.lognormal()),
            rng.lognormal(size=pools),
            rng.uniform(0.0, 1.0, pools),
        )
        worst_sum = max(worst_sum, abs(float(field.sum())))
    if worst_sum > 1e-12:
        failures.append(f"allocation field sum: max |sum H| {worst_sum:.2e} > 1e-12")

    # admissibility: the finite-horizon probe must agree with the closed
    # form wherever it is decisive, and must be decisive on every
    # inadmissible pair of the grid
    grid = [(a, b) for a in (0.2, 0.55, 0.7, 0.85, 1.0) for b in (0.25, 0.5, 0.75, 1.0)]
    endorsed = 0
    for a, b in grid:
        closed = admissible_power_pair(a, b).verdict
        probe = check_schedule_numeric(
            StepSchedule(c=1.0, a=a), RateSpec(b), 2 * 10**5
        ).verdict
        if probe == "not-admissible" and closed != "not-admissible":
            failures.append(f"probe rejects admissible pair (a={a}, beta={b})")
        if probe == "consistent-with-admissible":
            if closed != "admissible":
                failures.append(f"probe endorses inadmissible pair (a={a}, beta={b})")
            endorsed += 1
        if closed == "not-admissible" and probe != "not-admissible":
            failures.append(f"probe misses inadmissible pair (a={a}, beta={b})")
    if endorsed < 8:
        failures.append(f"probe decisive on only {endorsed} admissible grid points")

    # rate fit recovers synthetic power laws essentially exactly
    ns = np.unique(np.logspace(1, 5, 40).astype(np.int64))
    for c, beta in ((3.7, 0.62), (0.5, 1.0)):
        fit = fit_rate(ErrorPath(ns=ns, errors=c * ns.astype(float) ** -beta))
        if abs(fit.beta_hat - beta) > 1e-6 or fit.r_squared < 1.0 - 1e-9:
            failures.append(
                f"rate fit on {c} * n^-{beta}: beta_hat = {fit.beta_hat!r}, "
                f"r^2 = {fit.r_squared!r}"
            )

    ok = not failures
    line = _verdict(
        "gate 6: property suites",
        ok,
        "oracle gap {:.1e}; D* decay over 7 doublings; companion gap {:.1e}; "
        "field sum {:.1e}; admissibility grid 20/20; rate fits exact".format(
            worst, gap, worst_sum
        )
        + ("" if ok else "; " + "; ".join(failures)),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# gate 7: determinism of the experiment harness
# ---------------------------------------------------------------------------

# shortened horizons: determinism is structural, not asymptotic, and the
# full-length runs are already exercised by gates 1-5
_GATE7_OVERRIDES = {
    "implicit-correlation": {"horizon": 20_000},
    "var-cvar": {"horizon": 50_000},
    "ergodic-investment": {"horizon": 20_000},
    "two-armed-bandit": {"horizon": 20_000},
    "dark-pool": {"horizon": 20_000},
    "discrepancy": {"params": {"max_exponent": 9}},
    "rate-fit": {"horizon": 20_000},
}


def test_gate_7_determinism(tmp_path):
    """Every registered experiment, rerun with the same config, writes a
    byte-identical CSV (and, incidentally, a byte-identical plot)."""
    diffs = []
    for name in experiment_names():
        blobs = []
        for tag in ("first", "second"):
            cfg = {
                "experiment": name,
                "seed": 3,
                "output_dir": str(tmp_path / name / tag),
                **_GATE7_OVERRIDES[name],
            }
            art = run_experiment(cfg)
            blobs.append(
                (Path(art.csv_path).read_bytes(), Path(art.plot_path).read_bytes())
            )
        if blobs[0][0] != blobs[1][0]:
            diffs.append(f"{name}: CSV bytes differ between reruns")
        elif blobs[0][1] != blobs[1][1]:
            diffs.append(f"{name}: plot bytes differ between reruns")

    ok = not diffs
    line = _verdict(
        "gate 7: determinism",
        ok,
        f"{len(experiment_names())} experiments rerun byte-identically"
        + ("" if ok else "; " + "; ".join(diffs)),
    )
    assert ok, line
