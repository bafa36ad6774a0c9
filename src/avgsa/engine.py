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
import re
import warnings
from array import array
from dataclasses import dataclass
from operator import length_hint
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
    """Averaging-rate label eps_n = n**(-beta): ``beta`` is the polynomial
    decay of the empirical averages of the innovation stream."""

    beta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must lie in (0, 1], got {self.beta}")


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of an admissibility check.

    ``verdict`` is one of 'admissible' / 'not-admissible' for the
    closed-form rules, or 'consistent-with-admissible' / 'not-admissible' /
    'inconclusive' for the finite-horizon numerical probe.  ``rule`` states
    the criterion that produced the verdict and ``failed_condition`` names
    the violated requirement when there is one.
    """

    verdict: str
    rule: str
    failed_condition: str | None = None

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
            failed_condition=f"a = {a!r} outside (1-beta, 1] = ({1.0 - beta!r}, 1]",
        )
    return AdmissibilityReport("admissible", rule)


def admissible_qsa(q: int, a: float) -> AdmissibilityReport:
    """Closed-form rule for power steps driven by a q-dimensional
    low-discrepancy stream and an update field of finite variation: the
    empirical averages settle like ``(log n)**q / n``, so any exponent
    ``1/2 < a <= 1`` works."""
    if q < 1:
        raise ValueError("dimension must be >= 1")
    rule = f"finite-variation rule (rate (log n)^{q}/n): 1/2 < a <= 1"
    if 0.5 < a <= 1.0:
        return AdmissibilityReport("admissible", rule)
    return AdmissibilityReport(
        "not-admissible", rule,
        failed_condition=f"a = {a!r} outside (0.5, 1]",
    )


def check_schedule_numeric(schedule: StepSchedule, rate: RateSpec,
                           horizon: int = 10**6) -> AdmissibilityReport:
    """Finite-horizon probe of the three admissibility requirements, a
    numerical cross-check of ``admissible_power_pair`` that evaluates,
    with ``eps_n = n**(-beta)``, only the trends its verdict reads.

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
    h = horizon
    gam = schedule.gamma_array(h + 1)
    weight = np.arange(1, h + 1, dtype=float)
    weight *= weight ** (-rate.beta)                     # n * eps_n

    # (i) divergence of sum gamma_n: dyadic increment ratio ~ 2**(1-a).
    inc2 = float(gam[h // 4:h // 2].sum())
    ratio_a = float(gam[h // 2:h].sum()) / inc2 if inc2 > 0 else 0.0
    # For power steps the dyadic increment ratio equals 2**(1-a) up to a
    # finite-size correction of order 1/horizon (the harmonic case a = 1
    # dips below one by about 1.44/horizon), so divergence evidence means
    # a ratio of at least one minus that slack; anything between the two
    # thresholds stays inconclusive.
    a_ok = ratio_a >= 1.0 - max(5e-5, 3.0 / horizon)
    # (ii) n * eps_n * gamma_n -> 0: compare across a 16-fold span.
    t_now, t_then = (float(weight[k - 1] * gam[k - 1]) for k in (h, h // 16))
    r_b = 0.0 if t_now == 0.0 else t_now / t_then if t_then > 0 else math.inf
    # (iii) summability of the weighted max-square series: decisive only
    # when the tail has effectively stopped contributing.
    terms = np.maximum(gam[:h] ** 2, np.abs(np.diff(gam))) * weight
    total = float(terms.sum())
    c_ok = total > 0 and float(terms[int(0.95 * h):].sum()) / total < 1e-3 or total == 0.0

    rule = "finite-horizon trend probe of the three step conditions"
    failed = ("sum of gamma_n appears convergent (divergence required)" if ratio_a <= 0.90
              else "n * eps_n * gamma_n appears to grow (must vanish)" if r_b >= 1.10 else None)
    if failed:
        return AdmissibilityReport("not-admissible", rule, failed)
    verdict = "consistent-with-admissible" if a_ok and r_b <= 0.90 and c_ok else "inconclusive"
    return AdmissibilityReport(verdict, rule)


# ---------------------------------------------------------------------------
# The recursion
# ---------------------------------------------------------------------------

class DivergenceError(RuntimeError):
    """Raised when an iterate leaves the guard ball, or when a step raises
    an arithmetic error; carries the step index and the offending value so
    a run can be post-mortemed.  The message names the cause: ``theta is
    not finite``, ``|theta| >`` the bound, or the arithmetic error."""

    def __init__(self, step: int, value, error: ArithmeticError | None = None):
        self.step = step
        self.value = value
        cause = (f"{type(error).__name__}: {error}" if error is not None
                 else "theta is not finite" if np.isnan(value).any()
                 else f"|theta| > {DIVERGENCE_BOUND:.0e}")
        super().__init__(f"iterate diverged at step {step}: {cause} (theta = {value})")


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
        """Column by name, one of :meth:`channel_names`: 'theta_i' for
        ``0 <= i < d``, written without leading zeros, or a monitor
        channel.  Any other name raises ``KeyError``."""
        coords = [f"theta_{i}" for i in range(self.dimension)]
        if name in coords:
            return self.thetas[:, coords.index(name)]
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

    Correlation, VaR/CVaR, investment, bandit and rate-fit runs all go
    through it; it steps in ``_walk``, the loop it shares with
    ``darkpool_run``.  The stream is read with ``take_block``, one row
    per step in stream order.  A scalar iterate is a plain float and
    ``h`` gets each row as a tuple of Python floats, made as the step
    reaches it and freed after it, so the loop sets off no garbage
    collections; otherwise the iterate is an array and each row a numpy
    vector.  The path and each monitor's ``float(fn(n, theta))`` are
    recorded at steps ``0, s, 2s, ...`` and at the horizon (``s =
    record_stride``).  Monitors are for state the path does not hold,
    such as var-cvar's tail mean; a column derived from the path, such as
    correlation's ``rho``, is built after the loop.  The run aborts
    with ``DivergenceError`` once ``max |theta_i|`` exceeds
    ``DIVERGENCE_BOUND`` or stops being finite, or once ``h``, a monitor
    or the stream raises an ``ArithmeticError``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    theta = np.atleast_1d(np.asarray(theta0, dtype=float)).copy()
    if theta.shape[0] == 1:
        # scalar path: plain float arithmetic in the hot loop
        return _walk(float(theta[0]), lambda m: zip(*source.take_block(m).T.tolist()), h, abs,
                     schedule, horizon, record_stride, monitors)
    return _walk(theta, source.take_block, lambda th, y: np.asarray(h(th, y), dtype=float),
                 lambda th: np.max(np.abs(th)), schedule, horizon, record_stride, monitors)


def _walk(x, rows, drift_of, size, schedule: StepSchedule, horizon: int, record_stride: int,
          monitors: Mapping[str, Callable] | None) -> Trajectory:
    """Step ``x = x - g * drift_of(x, y)`` over steps 1..horizon and
    return the recorded path: the one step loop of the package.  ``x`` is
    a float or an array, ``rows(m)`` yields the next ``m`` innovations,
    and the gains are made one ``_BLOCK`` at a time as Python floats.

    Records: the iterate a step starts from is kept at ``n = 0, s, 2s,
    ...`` below ``horizon`` (``s = record_stride``, an int >= 1), and the
    last iterate at ``horizon``, in flat ``array("d")`` buffers that the
    ``Trajectory`` wraps without a copy.  Per block, one slice assignment
    sets a bytearray of flags at those steps, so the loop keeps no
    counter; ``n`` comes from the gains left in the block.  Monitors, tallies
    such as dark-pool's clip count: each ``float(fn(n, x))`` is kept at the
    same points, and one named ``n`` or ``theta_i`` is refused before the
    first step.  Guard: ``size(x)`` after each step is the number bounded by
    ``DIVERGENCE_BOUND``; past it, or not finite, ``DivergenceError`` names
    the step.  An iterate with a constraint restores it in place inside
    ``size``: the step has just made that array, so nothing else holds it.  An
    ``ArithmeticError`` from the field, ``size``, a monitor or ``rows`` aborts
    the same way, named in the message.
    """
    if isinstance(record_stride, bool) or not isinstance(record_stride, int) or record_stride < 1:
        raise ValueError(f"record_stride must be an integer >= 1, got {record_stride!r}")
    monitors = dict(monitors or {})
    taken = ["n"] + [f"theta_{i}" for i in range(np.size(x))]
    clash = [name for name in monitors if name in taken]
    if clash:
        raise ValueError(f"monitor {clash[0]!r} collides with a trajectory column")
    thetas, values = array("d"), {name: array("d") for name in monitors}
    keep = thetas.extend if isinstance(x, np.ndarray) else thetas.append
    pairs = [(values[name].append, fn) for name, fn in monitors.items()]

    def watch(n: int, th) -> None:
        for append, fn in pairs:
            append(float(fn(n, th)))

    # a plain local, so a record reads no closure cell to learn there are no monitors
    watch = watch if pairs else None
    end, left = 0, iter(())
    try:
        for start in range(0, horizon, _BLOCK):
            m = min(_BLOCK, horizon - start)
            flags, first = bytearray(m), -start % record_stride
            flags[first::record_stride] = b"\x01" * len(range(first, m, record_stride))
            # the gains not yet stepped give the step index, so no counter runs
            left, end = iter(schedule.gamma_array(m, start=start + 1).tolist()), start + m
            for y, g, record in zip(rows(m), left, flags):
                if record:
                    keep(x)
                    if watch is not None:
                        watch(end - 1 - length_hint(left), x)
                x = x - g * drift_of(x, y)
                if not size(x) <= DIVERGENCE_BOUND:
                    raise DivergenceError(end - length_hint(left), x)
    except ArithmeticError as err:
        raise DivergenceError(end - length_hint(left), x, err) from err
    keep(x)
    if watch is not None:
        watch(horizon, x)
    ns = np.append(np.arange(0, horizon, record_stride, dtype=np.int64), horizon)
    return Trajectory(ns, np.frombuffer(thetas).reshape(ns.size, -1),
                      {k: np.frombuffer(v) for k, v in values.items()})


# ---------------------------------------------------------------------------
# Delimited output
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the recorded path as CSV: column ``n``, one column per iterate
    coordinate, one per monitor channel.  Floats carry 17 significant
    digits (``%.17g``) so a file round-trips to the exact binary values;
    reruns of the same configuration produce byte-identical files.  Rows
    are formatted and written ``csvtext.ROWS`` (4096) at a time, so memory
    stays flat in the number of records."""
    from avgsa import csvtext      # loaded by the first write, not by import avgsa

    names = ["n"] + traj.channel_names()
    ns = np.asarray(traj.ns, dtype=np.int64)
    cols = [traj.channel(c) for c in traj.channel_names()]
    step = csvtext.ROWS
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode())
        for i in range(0, ns.size, step):
            fh.write(csvtext.format_rows(ns[i:i + step], [col[i:i + step] for col in cols]))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV back into named columns with ``np.loadtxt``:
    ``n`` as exact int64 step indices, every other column as float64,
    each ``%.17g`` cell parsed to the exact double written.  Empty lines
    are skipped; a repeated column name, a malformed row or an ``n`` cell
    that is not an integer is reported with its line number."""
    with open(path, "r") as fh:
        header = fh.readline().strip()
    names = header.split(",")
    if not header or "n" != names[0]:
        raise ValueError(f"{path}: first column must be 'n' (got header {header!r})")
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ValueError(f"{path}:1: column {twice[0]!r} appears twice in the header")
    # one field per column, so loadtxt itself refuses a row of another width
    fields = [(f"f{i}", np.int64 if i == 0 else float) for i in range(len(names))]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)     # a header and no rows
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=1, comments=None,
                              dtype=fields)
    except ValueError as err:
        _raise_at_bad_line(path, len(names), err)
    return {name: data[f] for name, (f, _) in zip(names, fields)}


_INT64 = re.compile(r"\s*[+-]?[0-9]+\s*")


def _raise_at_bad_line(path, width: int, err: ValueError):
    """Raise the ``path:line`` error of the first row that does not hold
    ``width`` numbers with an int64 ``n`` first; called only once
    ``np.loadtxt`` has failed."""
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\r\n").split(",")
            if lineno == 1 or parts == [""]:
                continue
            if len(parts) != width:
                raise ValueError(f"{path}:{lineno}: expected {width} fields, found {len(parts)}")
            if not (_INT64.fullmatch(parts[0]) and -2**63 <= int(parts[0]) < 2**63):
                raise ValueError(f"{path}:{lineno}: n must be a 64-bit integer, got {parts[0]!r}")
            try:
                for p in parts[1:]:
                    float(p)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field in {line.strip()!r}") from None
    raise ValueError(f"{path}: {err}") from None
