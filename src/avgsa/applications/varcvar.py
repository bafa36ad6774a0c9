"""Value-at-risk and conditional value-at-risk estimation.

The VaR at level ``alpha`` of a loss distribution is the quantile where
the exceedance probability drops to ``1 - alpha``; the CVaR is the mean
loss beyond it.  The quantile solves a one-dimensional root-finding
recursion on indicator innovations, and the CVaR rides along as a
companion average of the Rockafellar-Uryasev integrand evaluated on the
moving quantile estimate — no second optimisation is needed.
"""

from __future__ import annotations

from avgsa.engine import StepSchedule, Trajectory, run
from avgsa.innovations import InnovationSource

__all__ = [
    "var_field",
    "tail_value",
    "cvar_companion_step",
    "var_cvar_trajectory",
    "var_cvar_run",
]


def var_field(theta: float, y: float, alpha: float) -> float:
    """Quantile update field ``1 - 1{y >= theta} / (1 - alpha)``; its
    mean vanishes exactly at the ``alpha``-quantile of the loss."""
    return 1.0 - (1.0 if y >= theta else 0.0) / (1.0 - alpha)


def tail_value(theta: float, y: float, alpha: float) -> float:
    """Rockafellar-Uryasev integrand ``theta + (y - theta)_+ / (1-alpha)``,
    whose mean at the quantile equals the CVaR."""
    return theta + max(y - theta, 0.0) / (1.0 - alpha)


def cvar_companion_step(zeta: float, theta: float, y: float, n: int, alpha: float) -> float:
    """One step of the companion average with weight ``1/(n+1)``:
    ``zeta - (zeta - v(theta, y)) / (n + 1)`` where ``v`` is the tail
    value.  Iterating from any ``zeta_0`` reproduces the running mean of
    the tail values along the quantile trajectory."""
    if n < 0:
        raise ValueError("step index must be nonnegative")
    return zeta - (zeta - tail_value(theta, y, alpha)) / (n + 1.0)


def var_cvar_trajectory(
    source: InnovationSource,
    schedule: StepSchedule,
    horizon: int,
    alpha: float = 0.95,
    theta0: float = 0.0,
    record_stride: int = 100,
) -> Trajectory:
    """Joint quantile/expected-shortfall recursion over scalar losses.

    The quantile iterate follows the indicator field under ``schedule``
    through :func:`avgsa.engine.run`; the CVaR channel is the running
    mean of tail values, accumulated as a sum for numerical hygiene
    (identical to iterating :func:`cvar_companion_step` from any starting
    point, since the first step overwrites it).  The returned trajectory
    exposes the quantile as ``theta_0`` and the shortfall as monitor
    ``cvar``, which reads ``theta0`` before the first observation.
    """
    if source.dimension != 1:
        raise ValueError("VaR/CVaR estimation needs a scalar loss source")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"confidence level must lie in (0, 1), got {alpha}")

    tail = 1.0 / (1.0 - alpha)
    vsum = 0.0

    def field(theta: float, row) -> float:
        # var_field and tail_value, with the division folded into ``tail``
        nonlocal vsum
        y = row[0]
        vsum += theta + max(y - theta, 0.0) * tail
        return 1.0 - (tail if y >= theta else 0.0)

    return run(
        theta0, source, field, schedule, horizon,
        record_stride=record_stride,
        monitors={"cvar": lambda n, th: vsum / n if n else theta0},
    )


def var_cvar_run(
    source: InnovationSource,
    alpha: float,
    schedule: StepSchedule,
    horizon: int,
    theta0: float = 0.0,
) -> tuple[float, float]:
    """Run the joint recursion and return ``(VaR estimate, CVaR estimate)``
    after ``horizon`` steps."""
    traj = var_cvar_trajectory(
        source, schedule, horizon, alpha=alpha, theta0=theta0, record_stride=horizon
    )
    return float(traj.final_theta[0]), float(traj.monitors["cvar"][-1])
