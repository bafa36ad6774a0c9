"""The recursive procedure and its step-schedule calculus.

A run iterates

    theta_{n+1} = theta_n - gamma_{n+1} * H(theta_n, Y_n)

over an innovation stream (Y_n), where H is the update field whose mean
under the stream's limiting law vanishes exactly at the target.  All the
randomness of a run, if any, comes from the stream itself.

Whether a step schedule is usable depends on how fast the innovation
stream averages.  That bookkeeping lives here too: closed-form rules for
power-law schedule/rate pairs and for the low-discrepancy setting, plus a
finite-horizon numerical probe that cross-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from avgsa.innovations import _BLOCK, InnovationSource

__all__ = [
    "StepSchedule",
    "RateSpec",
    "AdmissibilityReport",
    "admissible_power_pair",
    "admissible_qsa",
    "check_schedule_numeric",
    "DivergenceError",
    "Trajectory",
    "run",
    "write_trajectory_csv",
    "read_csv_columns",
]

DIVERGENCE_BOUND = 1e12


# ---------------------------------------------------------------------------
# Step schedules and rate labels
# ---------------------------------------------------------------------------

@dataclass(frozen=True, kw_only=True)
class StepSchedule:
    """Power-law gain sequence gamma_n = ``c * n**(-a)``, n >= 1."""

    c: float
    a: float

    def __post_init__(self) -> None:
        if not 0.0 < self.c < math.inf:
            raise ValueError(f"scale c must be positive and finite, got {self.c}")
        if not 0.0 <= self.a < math.inf:
            raise ValueError(f"exponent a must be nonnegative and finite, got {self.a}")
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "a", float(self.a))

    def gamma_array(self, count: int, start: int = 1) -> np.ndarray:
        """Vector (gamma_start, ..., gamma_{start + count - 1})."""
        return self.c * np.arange(start, start + count, dtype=float) ** (-self.a)


@dataclass(frozen=True)
class RateSpec:
    """Averaging-rate label eps_n = (log n)**log_exponent * n**(-beta).

    ``beta`` is the polynomial decay of the empirical averages of the
    innovation stream; the optional logarithmic factor covers the mixing
    and low-discrepancy refinements.  Only the polynomial part enters the
    closed-form admissibility rule.
    """

    beta: float
    log_exponent: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")
        if self.log_exponent < 0.0:
            raise ValueError("log exponent must be nonnegative")

    def eps_array(self, horizon: int) -> np.ndarray:
        n = np.arange(1, horizon + 1, dtype=float)
        eps = n ** (-self.beta)
        if self.log_exponent:
            eps *= np.log(np.maximum(n, 1.0)) ** self.log_exponent
        return eps


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of an admissibility check.

    ``verdict`` is one of 'admissible' / 'not-admissible' for the
    closed-form rules, or 'consistent-with-admissible' / 'not-admissible' /
    'inconclusive' for the finite-horizon numerical probe.  ``rule`` states
    the criterion that produced the verdict, ``failed_condition`` names the
    violated requirement when there is one, and ``detail`` carries probe
    checkpoints.
    """

    verdict: str
    rule: str
    failed_condition: str | None = None
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict in ("admissible", "consistent-with-admissible")


def admissible_power_pair(a: float, beta: float) -> AdmissibilityReport:
    """Closed-form rule for a power step ``c * n**(-a)``, any ``c > 0``,
    against a power averaging rate ``n**(-beta)``: admissible iff ``beta``
    lies in (0, 1] and ``1 - beta < a <= 1``."""
    rule = "power/power rule: beta in (0,1] and 1-beta < a <= 1"
    if not 0.0 < beta <= 1.0:
        return AdmissibilityReport("not-admissible", rule, failed_condition="beta outside (0, 1]")
    if not 1.0 - beta < a <= 1.0:
        return AdmissibilityReport(
            "not-admissible", rule,
            failed_condition=f"a = {a:g} outside (1-beta, 1] = ({1.0 - beta:g}, 1]",
        )
    return AdmissibilityReport("admissible", rule)


_QSA_REGULARITIES = ("finite-variation", "lipschitz")


def admissible_qsa(regularity: str, q: int, a: float) -> AdmissibilityReport:
    """Closed-form rule for power steps driven by a q-dimensional
    low-discrepancy stream.

    For update fields of finite variation the empirical averages settle
    like ``(log n)**q / n`` and any exponent ``1/2 < a <= 1`` works; for
    merely Lipschitz fields the rate degrades to ``log n * n**(-1/q)`` and
    the exponent must satisfy ``1 - 1/q < a <= 1``.
    """
    if q < 1:
        raise ValueError("dimension must be >= 1")
    if regularity == "finite-variation":
        rule = f"finite-variation rule (rate (log n)^{q}/n): 1/2 < a <= 1"
        lo = 0.5
    elif regularity == "lipschitz":
        rule = f"lipschitz rule (rate log n * n^(-1/{q})): 1 - 1/{q} < a <= 1"
        lo = 1.0 - 1.0 / q
    else:
        raise ValueError(
            f"unknown regularity {regularity!r}; expected one of {_QSA_REGULARITIES}"
        )
    if lo < a <= 1.0:
        return AdmissibilityReport("admissible", rule)
    return AdmissibilityReport(
        "not-admissible", rule,
        failed_condition=f"a = {a:g} outside ({lo:g}, 1]",
    )


def check_schedule_numeric(
    schedule: StepSchedule,
    rate: RateSpec,
    horizon: int = 10**6,
) -> AdmissibilityReport:
    """Finite-horizon probe of the three admissibility requirements, a
    numerical cross-check of ``admissible_power_pair``.

    Evaluates, up to ``horizon``, the partial sums of gamma_n, the
    sequence ``n * eps_n * gamma_n`` and the partial sums of
    ``n * eps_n * max(gamma_n**2, |gamma_{n+1} - gamma_n|)``, and reports
    their values at checkpoints ``horizon/10, ..., horizon``.

    The verdict is deliberately conservative: 'not-admissible' only when a
    trend is decisive (the step series visibly converges, or
    ``n eps_n gamma_n`` visibly grows), 'consistent-with-admissible' when
    every requirement shows the expected decisive trend, 'inconclusive'
    otherwise.  Decisions are based on dyadic growth ratios, which for
    power-law inputs are exact up to rounding; the weighted square-sum
    requirement never triggers a rejection on its own because slowly
    diverging partial sums are indistinguishable from slowly converging
    ones at any finite horizon.
    """
    if horizon < 10**4:
        raise ValueError("probe needs a horizon of at least 1e4")

    gam = schedule.gamma_array(horizon + 1)
    eps = rate.eps_array(horizon)
    n = np.arange(1, horizon + 1, dtype=float)

    s_gamma = np.cumsum(gam[:horizon])
    t_seq = n * eps * gam[:horizon]
    third_terms = n * eps * np.maximum(gam[:horizon] ** 2, np.abs(np.diff(gam)))
    s_third = np.cumsum(third_terms)

    checkpoints = [int(horizon * j / 10) for j in range(1, 11)]
    detail = {
        "checkpoints": checkpoints,
        "sum_gamma": [float(s_gamma[k - 1]) for k in checkpoints],
        "n_eps_gamma": [float(t_seq[k - 1]) for k in checkpoints],
        "sum_weighted_square": [float(s_third[k - 1]) for k in checkpoints],
    }
    rule = "finite-horizon trend probe of the three step conditions"

    def at(arr: np.ndarray, k: int) -> float:
        return float(arr[min(k, horizon) - 1])

    # (i) divergence of sum gamma_n: dyadic increment ratio ~ 2**(1-a).
    h, h2, h4 = horizon, horizon // 2, horizon // 4
    inc1 = at(s_gamma, h) - at(s_gamma, h2)
    inc2 = at(s_gamma, h2) - at(s_gamma, h4)
    ratio_a = inc1 / inc2 if inc2 > 0 else 0.0
    a_violated = ratio_a <= 0.90
    # For power steps the dyadic increment ratio equals 2**(1-a) up to a
    # finite-size correction of order 1/horizon (the harmonic case a = 1
    # dips below one by about 1.44/horizon), so divergence evidence means
    # a ratio of at least one minus that slack; anything between the two
    # thresholds stays inconclusive.
    a_ok = ratio_a >= 1.0 - max(5e-5, 3.0 / horizon)

    # (ii) n * eps_n * gamma_n -> 0: compare across a 16-fold span.
    t_now, t_then = at(t_seq, h), at(t_seq, h // 16)
    if t_now == 0.0:
        b_ok, b_violated = True, False
    else:
        r_b = t_now / t_then if t_then > 0 else math.inf
        b_ok = r_b <= 0.90
        b_violated = r_b >= 1.10
    # (iii) summability of the weighted max-square series: decisive only
    # when the tail has effectively stopped contributing.
    tail = at(s_third, h) - at(s_third, int(0.95 * h))
    c_ok = s_third[-1] > 0 and tail / s_third[-1] < 1e-3 or s_third[-1] == 0.0

    if a_violated:
        return AdmissibilityReport(
            "not-admissible", rule,
            failed_condition="sum of gamma_n appears convergent (divergence required)",
            detail=detail,
        )
    if b_violated:
        return AdmissibilityReport(
            "not-admissible", rule,
            failed_condition="n * eps_n * gamma_n appears to grow (must vanish)",
            detail=detail,
        )
    if a_ok and b_ok and c_ok:
        return AdmissibilityReport("consistent-with-admissible", rule, detail=detail)
    return AdmissibilityReport("inconclusive", rule, detail=detail)


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the guard ball; carries the step index
    and offending value so a run can be post-mortemed."""

    def __init__(self, step: int, value):
        self.step = step
        self.value = value
        super().__init__(
            f"iterate diverged at step {step}: |theta| > {DIVERGENCE_BOUND:.0e} (theta = {value})"
        )


@dataclass
class Trajectory:
    """Recorded path of a run: iterate snapshots plus optional monitor
    channels evaluated at the same record times.  A diagnostic table
    with no iterate is a trajectory with ``d = 0``: its columns are all
    monitors."""

    ns: np.ndarray                      # record indices; a run's hold 0 and, last, its horizon
    thetas: np.ndarray                  # (records, d)
    monitors: dict[str, np.ndarray]

    @property
    def final_theta(self) -> np.ndarray:
        """Iterate after the last step, shape (d,): the last record."""
        return self.thetas[-1]

    @property
    def dimension(self) -> int:
        return self.thetas.shape[1]

    def channel(self, name: str) -> np.ndarray:
        """Column by name: 'theta_i' or a monitor channel."""
        if name.startswith("theta_"):
            i = int(name.split("_", 1)[1])
            return self.thetas[:, i]
        if name in self.monitors:
            return self.monitors[name]
        raise KeyError(f"no channel {name!r}; have {self.channel_names()}")

    def channel_names(self) -> list[str]:
        return [f"theta_{i}" for i in range(self.dimension)] + list(self.monitors)


def run(
    theta0,
    source: InnovationSource,
    h: Callable,
    schedule: StepSchedule,
    horizon: int,
    *,
    record_stride: int = 1,
    monitors: Mapping[str, Callable] | None = None,
) -> Trajectory:
    """Run the recursion for ``horizon`` steps and record the path.

    This is the one step loop of the package: correlation, VaR/CVaR,
    investment, bandit and rate-fit runs all go through it.  The stream
    is read with ``take_block``, one row per step in stream order.  When
    the iterate is scalar it is a plain float, and ``h`` receives each
    row as a tuple of ``dimension`` Python floats, made from the block's
    columns as the step reaches it and freed after it, so no per-row
    container outlives its step and the loop sets off no garbage
    collections; otherwise the iterate is an array and each row a
    length-``dimension`` numpy vector.  ``h``
    and the monitors receive the iterate in that form.  Iterates are
    recorded at ``record_stride`` spacing; the initial and final
    iterates are always present.  A guard aborts
    the run loudly as soon as the iterate norm exceeds
    ``DIVERGENCE_BOUND`` or stops being finite; it covers every run
    above, VaR/CVaR and the bandit included.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if record_stride < 1:
        raise ValueError("record stride must be >= 1")

    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    mon_items = list((monitors or {}).items())
    if theta.shape[0] == 1:
        # scalar path: plain float arithmetic in the hot loop
        x = float(theta[0])
        drift_of, norm, snap = h, abs, float
        rows_of = lambda block: zip(*block.T.tolist())
    else:
        x = theta
        drift_of = lambda th, y: np.asarray(h(th, y), dtype=float)
        norm = lambda th: np.max(np.abs(th))
        snap = np.copy
        rows_of = lambda block: block

    rec_n: list[int] = []
    rec_theta: list = []
    rec_mon: dict[str, list[float]] = {name: [] for name, _ in mon_items}

    def record(n: int, th) -> None:
        rec_n.append(n)
        rec_theta.append(snap(th))
        for name, fn in mon_items:
            rec_mon[name].append(float(fn(n, th)))

    n = 0
    while n < horizon:
        m = min(_BLOCK, horizon - n)
        # gains are built and made Python floats one block at a time, so
        # memory is set by the block and the records, not by the horizon
        gains = schedule.gamma_array(m, start=n + 1).tolist()
        for y, g in zip(rows_of(source.take_block(m)), gains):
            if n % record_stride == 0:
                record(n, x)
            x = x - g * drift_of(x, y)
            n += 1
            if not norm(x) <= DIVERGENCE_BOUND:
                raise DivergenceError(n, snap(x))
    record(horizon, x)

    return Trajectory(
        ns=np.asarray(rec_n, dtype=np.int64),
        thetas=np.asarray(rec_theta, dtype=float).reshape(len(rec_n), -1),
        monitors={k: np.asarray(v) for k, v in rec_mon.items()},
    )


# ---------------------------------------------------------------------------
# Delimited output
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the recorded path as CSV: column ``n``, one column per iterate
    coordinate, one per monitor channel.  Floats carry 17 significant
    digits so a file round-trips to the exact binary values; reruns of the
    same configuration produce byte-identical files.  Rows are formatted
    and written in blocks of 4096, so memory stays flat in the number of
    records."""
    names = ["n"] + traj.channel_names()
    cols = [traj.ns] + [traj.channel(c) for c in traj.channel_names()]
    row_fmt = "%d" + ",%.17g" * (len(cols) - 1) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for i in range(0, len(traj.ns), _BLOCK):
            block = [col[i:i + _BLOCK].tolist() for col in cols]
            fh.write("".join([row_fmt % row for row in zip(*block)]))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into named columns.  Malformed rows are
    reported with their line number."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if not header or "n" != header.split(",")[0]:
            raise ValueError(f"{path}: first column must be 'n' (got header {header!r})")
        names = header.split(",")
        data: list[list[float]] = [[] for _ in names]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(names)} fields, found {len(parts)}"
                )
            try:
                for j, p in enumerate(parts):
                    data[j].append(float(p))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {line!r}") from None
    return {name: np.asarray(col) for name, col in zip(names, data)}
