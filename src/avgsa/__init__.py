"""Stochastic approximation driven by averaging innovation streams.

The package bundles three layers:

* :mod:`avgsa.innovations` — the input sequences (i.i.d., quasi-Monte
  Carlo, mixing chains, decreasing-step Euler schemes) and their quality
  measures;
* :mod:`avgsa.engine` — the recursive procedure itself, its step
  schedules and admissibility checks;
* :mod:`avgsa.applications` — ready-to-run financial experiments
  (implicit correlation search, recursive VaR/CVaR, long-term investment
  under an ergodic factor, two-armed bandit, dark-pool allocation).

Power-law rate fitting of error paths lives in :mod:`avgsa.diagnostics`;
the command line in :mod:`avgsa.cli`.
"""

from avgsa.innovations import make_source, star_discrepancy_exact
from avgsa.engine import (
    RateSpec,
    StepSchedule,
    Trajectory,
    admissible_power_pair,
    admissible_qsa,
    check_schedule_numeric,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "make_source",
    "star_discrepancy_exact",
    "RateSpec",
    "StepSchedule",
    "Trajectory",
    "admissible_power_pair",
    "admissible_qsa",
    "check_schedule_numeric",
    "run",
    "__version__",
]
