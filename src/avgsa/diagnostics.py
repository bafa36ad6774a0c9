"""Convergence diagnostics for innovation streams and runs.

Averaging quality is an empirical matter: how fast does the running mean
of a test function along the stream approach its limit, and does the
decay match the rate the theory attaches to the stream family?  The
helpers here measure exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from avgsa.innovations import _BLOCK, InnovationSource

__all__ = [
    "ErrorPath",
    "RateFit",
    "empirical_average_path",
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
    """Log-log least-squares fit error ~ C * n**(-beta_hat)."""

    beta_hat: float
    log_constant: float
    r_squared: float
    points_used: int


def empirical_average_path(
    source: InnovationSource,
    f: Callable[[tuple], float],
    target: float,
    checkpoints: Sequence[int],
) -> ErrorPath:
    """Running-mean error of ``f`` along the stream at the requested
    sample sizes.

    Single pass, constant memory: the stream is consumed once up to the
    largest checkpoint and only the running sum is kept.  ``f`` gets each
    row as a tuple of ``dimension`` Python floats, as the scalar fields of
    ``engine.run`` do.
    """
    cps = sorted(int(c) for c in checkpoints)
    if not cps or cps[0] < 1:
        raise ValueError("checkpoints must be positive sample sizes")
    errors = []
    total = 0.0
    seen = 0
    it = iter(cps)
    nxt = next(it)
    # consume in blocks; evaluate f per row (f need not be vectorised)
    while seen < cps[-1]:
        block = source.take_block(min(_BLOCK, cps[-1] - seen))
        for row in zip(*block.T.tolist()):
            total += f(row)
            seen += 1
            if seen == nxt:
                errors.append(abs(total / seen - target))
                nxt = next(it, None)
    return ErrorPath(ns=np.asarray(cps, dtype=np.int64), errors=np.asarray(errors))


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
    return RateFit(
        beta_hat=float(-slope),
        log_constant=float(intercept),
        r_squared=r2,
        points_used=int(ns.size),
    )
