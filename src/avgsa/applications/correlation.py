"""Implicit correlation search for a best-of-two call.

A best-of call on two lognormal assets is quoted at a market price; the
unknown is the correlation between the two Brownian drivers consistent
with that quote.  Writing the correlation as ``rho = cos(theta)`` turns
the search into a one-dimensional root-finding problem in the rotation
angle ``theta``, solved by the recursion over simulated payoffs: at the
root, the simulated price matches the quote.  The cosine parametrisation
keeps the constraint ``|rho| <= 1`` structural rather than enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from avgsa.engine import StepSchedule, Trajectory, run
from avgsa.innovations import _BLOCK, InnovationSource

__all__ = [
    "BestOfCallParams",
    "bs_bestof_price",
    "calibrate_correlation",
]


@dataclass(frozen=True)
class BestOfCallParams:
    """Market data for the two-asset best-of call quote."""

    x1: float = 100.0
    x2: float = 100.0
    rate: float = 0.10
    sigma1: float = 0.30
    sigma2: float = 0.30
    maturity: float = 1.0
    strike: float = 100.0
    market_price: float = 30.75

    def __post_init__(self) -> None:
        if min(self.x1, self.x2, self.maturity) <= 0.0:
            raise ValueError("spots and maturity must be positive")
        if min(self.sigma1, self.sigma2) < 0.0:
            raise ValueError("volatilities must be nonnegative")
        for key, sigma in (("sigma1", self.sigma1), ("sigma2", self.sigma2)):
            try:
                sigma**2
            except OverflowError:
                raise ValueError(f"{key}={sigma!r} puts its square beyond the float range") from None


def _bestof_kernel(
    p: BestOfCallParams, quote: float = 0.0
) -> Callable[[float, Sequence[float]], float]:
    """Build ``kernel(theta, z)``: the discounted best-of-call payoff for
    one Gaussian pair ``z = (z1, z2)``, with the second asset driven by
    ``z1 cos(theta) + z2 sin(theta)``, minus ``quote``.  With the market
    quote this is the calibration's step field: its mean vanishes exactly
    at angles whose cosine is an implied correlation.  With the default
    zero quote it is the payoff that :func:`bs_bestof_price` averages.

    Everything that does not depend on the draw (``sqrt(T)``, the two
    log-drifts and volatilities, the discount factor) is computed once
    here, so a run builds the kernel once and each step only pays for the
    two exponentials and the angle.  The conditionals give ``max``'s
    results, ties, NaN and ``-0.0`` included, and subtracting the zero
    quote leaves every payoff bit unchanged.
    """
    t = p.maturity
    sq = math.sqrt(t)
    x1, x2, strike = p.x1, p.x2, p.strike
    mu1 = (p.rate - 0.5 * p.sigma1**2) * t
    mu2 = (p.rate - 0.5 * p.sigma2**2) * t
    v1 = p.sigma1 * sq
    v2 = p.sigma2 * sq
    try:
        disc = math.exp(-p.rate * t)
    except OverflowError:
        raise ValueError(
            f"rate={p.rate!r} and maturity={t!r} put the discount factor beyond the float range"
        ) from None
    exp, cos, sin = math.exp, math.cos, math.sin

    def kernel(theta: float, z: Sequence[float]) -> float:
        z1, z2 = z
        s1 = x1 * exp(mu1 + v1 * z1)
        s2 = x2 * exp(mu2 + v2 * (z1 * cos(theta) + z2 * sin(theta)))
        pay = (s2 if s2 > s1 else s1) - strike
        return disc * (0.0 if 0.0 > pay else pay) - quote

    return kernel


def bs_bestof_price(
    p: BestOfCallParams,
    rho: float,
    source: InnovationSource,
    n: int,
) -> float:
    """(Quasi-)Monte Carlo price of the best-of call at correlation
    ``rho``, averaging ``n`` payoffs from a 2D Gaussian source.

    The average is taken over the exact same payoff kernel the
    calibration descends on, so a price computed here and a correlation
    calibrated against it can never drift apart.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if source.dimension != 2:
        raise ValueError("pricing needs a 2-dimensional Gaussian source")
    if n < 1:
        raise ValueError(f"need at least one payoff, got n = {n}")
    theta = math.acos(rho)
    payoff = _bestof_kernel(p)
    total = 0.0
    left = n
    while left > 0:
        z = source.take_block(min(_BLOCK, left))
        for row in zip(*z.T.tolist()):
            total += payoff(theta, row)
        left -= len(z)
    return total / n


def calibrate_correlation(
    p: BestOfCallParams,
    source: InnovationSource,
    schedule: StepSchedule,
    horizon: int,
    theta0: float = 0.0,
    record_stride: int = 100,
) -> Trajectory:
    """Run the angle recursion and record the implied-correlation channel
    ``rho = cos(theta)``, built after the loop from each recorded angle
    with ``math.cos``, the libm call the kernel makes."""
    if source.dimension != 2:
        raise ValueError("calibration needs a 2-dimensional Gaussian source")
    traj = run(theta0, source, _bestof_kernel(p, p.market_price), schedule, horizon,
               record_stride=record_stride)
    # a memoryview hands out the recorded floats without a list as long as the path
    traj.monitors["rho"] = np.fromiter(map(math.cos, memoryview(traj.thetas[:, 0])), float,
                                       traj.ns.size)
    return traj
