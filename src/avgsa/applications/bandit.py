"""Two-armed bandit with a rewarding update rule.

Each round plays arm A with the current probability ``theta`` and arm B
otherwise; a played arm that performs well pulls ``theta`` toward
itself.  Both endpoints are absorbing: 1 is the desirable outcome when
arm A outperforms arm B in long-run frequency, 0 is the trap.  The
performance events may be serially dependent: :func:`make_event_source`
thresholds either independent uniforms or an autoregressive chain, the
latter to exercise exactly that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from statistics import NormalDist

import numpy as np

from avgsa.engine import StepSchedule, Trajectory, run
from avgsa.innovations import _BLOCK, Ar1MixingSource, IidUniformSource, InnovationSource
from avgsa.innovations import ar1_stationary_scale

__all__ = [
    "make_event_source",
    "bandit_field",
    "classify_terminal",
    "BanditResult",
    "bandit_run",
]


def make_event_source(
    kind: str, freq_a: float, freq_b: float, seed: int, mixing: float = 0.5
) -> InnovationSource:
    """Build a performance-event stream with marginal frequencies
    ``freq_a`` and ``freq_b``: ``"iid"`` or ``"ar1"``.

    ``"iid"`` thresholds independent uniforms at the frequencies.
    ``"ar1"`` thresholds two independent autoregressive chains
    ``x' = a x + z`` with ``a = mixing``, whose stationary variance is
    ``1/(1-a^2)``, at ``Phi^{-1}(nu) / sqrt(1-a^2)`` (``-inf`` for 0 and
    ``inf`` for 1).  Consecutive events are then positively correlated
    for ``a > 0`` — streaks of good and bad performance.  The chain mixes
    only for ``|a| < 1``.
    """
    if kind not in ("iid", "ar1"):
        raise ValueError(f"unknown event stream kind {kind!r}; use 'iid' or 'ar1'")
    for name, f in (("freq_a", freq_a), ("freq_b", freq_b)):
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"{name} must be a frequency in [0, 1], got {f}")
    if kind == "iid":
        stream, cutoffs = IidUniformSource(2, seed), [freq_a, freq_b]
    else:
        if not abs(mixing) < 1.0:
            raise ValueError(f"mixing must lie in (-1, 1), got {mixing}")
        scale = ar1_stationary_scale(mixing)
        stream = Ar1MixingSource(2, seed, a=mixing)
        cutoffs = [
            -math.inf if f == 0.0 else math.inf if f == 1.0 else NormalDist().inv_cdf(f) * scale
            for f in (freq_a, freq_b)
        ]
    # one 0/1 pair per row: an arm's event occurs when its column of the
    # stream is at most its cutoff
    cutoffs = np.asarray(cutoffs, dtype=float)
    return InnovationSource(2, ((stream.take_block(m) <= cutoffs).astype(float)
                                for m in repeat(_BLOCK)))


def bandit_field(theta: float, y) -> float:
    """Update field of the rewarding rule, ``y = (event A, event B,
    coin)``.  Arm A is played when the coin is at most ``theta``; a
    played arm whose event occurred pulls ``theta`` its way, so a step
    ``theta - gamma * field`` moves ``gamma`` times the remaining
    distance."""
    a_occurred, b_occurred, u = y
    up = (1.0 - theta) if (u <= theta and a_occurred != 0.0) else 0.0
    down = theta if (u > theta and b_occurred != 0.0) else 0.0
    return down - up


def classify_terminal(theta: float) -> str:
    """Bucket a terminal iterate: ``near-1`` (>= 0.99), ``near-0``
    (<= 0.01), or ``undecided``."""
    if theta >= 0.99:
        return "near-1"
    if theta <= 0.01:
        return "near-0"
    return "undecided"


@dataclass(frozen=True)
class BanditResult:
    """A bandit trajectory plus the terminal bucket it landed in."""

    trajectory: Trajectory
    classification: str

    @property
    def final_theta(self) -> float:
        return float(self.trajectory.final_theta[0])


def bandit_run(
    events: InnovationSource,
    uniforms: InnovationSource,
    schedule: StepSchedule,
    horizon: int,
    theta0: float = 0.5,
    record_stride: int = 100,
) -> BanditResult:
    """Run the rewarding rule for ``horizon`` rounds.

    ``events`` yields one 0/1 pair per round (arm A and arm B
    performance); ``uniforms`` yields the independent randomisation
    draws deciding which arm is played.  The iterate stays in [0, 1]
    exactly as long as every step is at most 1.
    """
    if events.dimension != 2:
        raise ValueError("event stream must yield one pair per round")
    if uniforms.dimension != 1:
        raise ValueError("randomisation stream must be scalar")
    if not 0.0 <= theta0 <= 1.0:
        raise ValueError(f"initial play probability must lie in [0, 1], got {theta0}")
    if schedule.c > 1.0:
        # steps never increase, so the first one, c, bounds them all
        raise ValueError(f"step must lie in (0, 1], got {schedule.c}")
    # the event and coin streams side by side, one round per row; each
    # stream's output does not depend on how it is consumed, so stacking
    # them changes no row
    rounds = InnovationSource(3, (np.hstack([events.take_block(m), uniforms.take_block(m)])
                                  for m in repeat(_BLOCK)))
    traj = run(theta0, rounds, bandit_field, schedule, horizon, record_stride=record_stride)
    return BanditResult(traj, classify_terminal(float(traj.final_theta[0])))
