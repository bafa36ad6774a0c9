"""Order splitting across rebate-paying execution venues.

A volume ``V`` must be executed across ``N`` venues, each granting a
rebate ``rho_i`` on whatever part of the order it can actually fill
(capped by its capacity ``D_i``); the remainder executes at the
reference price.  The allocation fractions live on the simplex, and the
optimal split equalises the marginal rebate-weighted fill rates.  The
recursion rewards venues that outperform the cross-venue mean and, by
construction, moves only inside the hyperplane ``sum r_i = 1``.

Real capacity data being proprietary, a synthetic generator mimics the
documented construction: capacities are mixtures of the volume itself
and correlated substitute series, scaled to keep the venues in
shortage (total expected capacity below expected volume).
"""

from __future__ import annotations

import logging
import math
from itertools import islice

import numpy as np

from avgsa.engine import DIVERGENCE_BOUND, StepSchedule, Trajectory
from avgsa.engine import _walk
from avgsa.innovations import _BLOCK, Ar1MixingSource

__all__ = [
    "darkpool_field",
    "simplex_safeguard",
    "synthetic_capacities",
    "synthetic_darkpool_series",
    "relative_cost_reduction",
    "brute_force_allocation",
    "darkpool_run",
]

logger = logging.getLogger(__name__)

# darkpool_run renormalises the allocation's component sum to exactly 1
# this often, so roundoff cannot accumulate over long series
_RENORM_EVERY = 10_000


def _checked_series(volumes, capacities, rebates) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(volumes, capacities, rebates)`` as float arrays of shapes (n,),
    (n, pools) and (pools,), refused unless the series has at least one
    order, every rebate lies in [0, 1), every volume and capacity is
    finite and every volume is positive.  The checks run one ``_BLOCK``
    of orders at a time, so their temporaries do not grow with the
    series."""
    v = np.asarray(volumes, dtype=float)
    d = np.asarray(capacities, dtype=float)
    rho = np.asarray(rebates, dtype=float)
    if v.ndim != 1 or d.ndim != 2 or d.shape[0] != v.size or d.shape[1] != rho.size:
        raise ValueError("need volumes (n,), capacities (n, pools), one rebate per pool")
    if v.size < 1:
        raise ValueError("the series needs at least one order")
    if not np.all((0.0 <= rho) & (rho < 1.0)):
        raise ValueError("rebates must lie in [0, 1)")
    for name, series in (("volumes", v), ("capacities", d)):
        for i in range(0, v.size, _BLOCK):
            bad = np.argwhere(~np.isfinite(series[i:i + _BLOCK]))
            if bad.size:
                first = bad[0]
                first[0] += i
                index = ", ".join(str(k) for k in first)
                raise ValueError(f"{name} must be finite; {name}[{index}] is not")
    if any(np.any(v[i:i + _BLOCK] <= 0.0) for i in range(0, v.size, _BLOCK)):
        raise ValueError("volumes must be positive")
    return v, d, rho


def darkpool_field(r, volume: float, capacities, rebates) -> np.ndarray:
    """Mean-centred reward field: venue ``i`` earns ``V rho_i`` when its
    share still fits its capacity (``r_i V < D_i``), minus the cross-venue
    average of the same quantity.  Components sum to zero, so the update
    never leaves the allocation hyperplane."""
    if volume <= 0.0:
        raise ValueError("volume must be positive")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rebates, dtype=float)
    active = rho * (r * volume < np.asarray(capacities, dtype=float))
    return volume * (active - active.mean())


def simplex_safeguard(candidate: np.ndarray, total: float = 1.0) -> tuple[np.ndarray, bool]:
    """Restore nonnegativity after an aggressive step: negative
    components are clipped to zero and the deficit is taken out of the
    positive components proportionally, preserving ``total``.  Returns
    the repaired allocation and whether anything was clipped."""
    neg = candidate < 0.0
    if not neg.any():
        return candidate, False
    repaired = np.where(neg, 0.0, candidate)
    pos_sum = repaired.sum()
    if pos_sum <= 0.0:
        # every component clipped or zero: fall back to the uniform split
        return np.full(candidate.shape, total / candidate.size), True
    return repaired * (total / pos_sum), True


def synthetic_capacities(volumes, substitutes, mix, scale) -> np.ndarray:
    """Capacity series from the documented mixture construction:
    ``D_i = scale_i ((1-mix_i) V + mix_i S_i * mean(V)/mean(S_i))``
    with the means taken empirically over the whole series.  By design
    ``mean(D_i) = scale_i * mean(V)`` exactly, so ``sum scale_i < 1``
    puts the venues in shortage."""
    v = np.asarray(volumes, dtype=float)
    s = np.asarray(substitutes, dtype=float)
    alpha = np.asarray(mix, dtype=float)
    beta = np.asarray(scale, dtype=float)
    if v.ndim != 1 or s.ndim != 2 or s.shape[0] != v.size:
        raise ValueError("need volumes (n,) and substitutes (n, pools)")
    if s.shape[1] != alpha.size or alpha.size != beta.size:
        raise ValueError("mix and scale must have one entry per pool")
    if np.any(alpha < 0.0) or np.any(alpha > 1.0):
        raise ValueError("mix coefficients must lie in [0, 1]")
    if np.any(beta <= 0.0):
        raise ValueError("scale factors must be positive")
    s_means = s.mean(axis=0)
    if np.any(s_means <= 0.0):
        raise ValueError("substitute series must have positive mean")
    return beta * ((1.0 - alpha) * v[:, None] + alpha * s * (v.mean() / s_means))


def synthetic_darkpool_series(
    n: int,
    seed: int,
    mix,
    scale,
    mixing: float = 0.5,
    log_sigma: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Stationary synthetic (volume, capacities) series: the volume and
    one substitute series per venue are lognormals driven by independent
    autoregressive Gaussian chains, then passed through
    :func:`synthetic_capacities`.  A ``log_sigma`` so large that the
    series overflows, or underflows toward 0, is refused."""
    alpha = np.asarray(mix, dtype=float)
    if n < 1:
        raise ValueError("series length must be at least 1")
    pools = alpha.size
    raw = Ar1MixingSource(1 + pools, seed, a=mixing).take_block(n)
    try:
        with np.errstate(over="raise", under="raise"):
            volumes = np.exp(log_sigma * raw[:, 0])
            substitutes = np.exp(log_sigma * raw[:, 1:])
            return volumes, synthetic_capacities(volumes, substitutes, alpha, scale)
    except FloatingPointError:
        raise ValueError(f"log_sigma = {log_sigma} is too large for the lognormal series") from None


def relative_cost_reduction(r, volume: float, capacities, rebates) -> float:
    """Rebate earned by the standing allocation on one order, as a
    fraction of executing the whole volume at the reference price:
    ``sum rho_i min(r_i V, D_i) / V``."""
    if volume <= 0.0:
        raise ValueError("volume must be positive")
    r = np.asarray(r, dtype=float)
    rho = np.asarray(rebates, dtype=float)
    filled = np.minimum(r * volume, np.asarray(capacities, dtype=float))
    return float(np.dot(rho, filled) / volume)


def brute_force_allocation(
    volumes, capacities, rebates, resolution: float = 0.01
) -> np.ndarray:
    """Reference optimiser: evaluate the empirical rebate objective
    ``mean_t sum_i rho_i min(r_i V_t, D_it)`` on a grid of the two-venue
    simplex and return the best grid point.  This is the measuring stick
    the recursion is judged against."""
    v, d, rho = _checked_series(volumes, capacities, rebates)
    if rho.size != 2:
        raise ValueError(f"grid search supports 2 pools only, got {rho.size}")
    r1 = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    grid = np.column_stack([r1, 1.0 - r1])
    best_value = -math.inf
    best = grid[0]
    for point in grid:
        value = float(np.mean(np.minimum(np.outer(v, point), d) @ rho))
        if value > best_value:
            best_value = value
            best = point
    return best.copy()


def darkpool_run(
    volumes,
    capacities,
    rebates,
    schedule: StepSchedule,
    record_stride: int = 100,
) -> Trajectory:
    """Run the allocation recursion once through a (volume, capacity)
    series, from the uniform split.

    The allocation in force when an order arrives earns that order's
    rebates; the trajectory records the allocation path (``theta_i``
    columns), the running mean of the per-order relative cost reduction
    (monitor ``mean_cost_reduction``) and the cumulative safeguard
    trigger count (monitor ``safeguard_count``).  It steps through
    ``run``'s loop with the field negated, so it records and refuses
    strides as ``run`` does and holds O(block + records) memory beyond
    the inputs.  After each step the safeguard repairs the allocation in
    place at the previous component sum, which is renormalised to exactly
    1 every ``_RENORM_EVERY`` (10 000) steps.  ``DivergenceError`` aborts
    the run once that sum, which bounds every component of a repaired
    allocation, exceeds ``DIVERGENCE_BOUND`` or stops being finite.
    """
    v, d, rho = _checked_series(volumes, capacities, rebates)
    r = np.full(rho.size, 1.0 / rho.size)
    total, n, cr_sum, clipped_total = float(r.sum()), 0, 0.0, 0

    def field(r, order) -> np.ndarray:
        nonlocal cr_sum
        vol, cap = order
        cr_sum += relative_cost_reduction(r, vol, cap, rho)
        # r - g * (-F) is r + g * F bit for bit: negation is exact
        return -darkpool_field(r, vol, cap, rho)

    def settle(r) -> float:
        nonlocal total, n, clipped_total
        repaired, clipped = simplex_safeguard(r, total)
        if clipped:
            r[:] = repaired
        n += 1
        total = size = float(r.sum())
        if size <= DIVERGENCE_BOUND:     # a diverged step is not logged before the abort
            if clipped:
                clipped_total += 1
                if clipped_total == 1:
                    logger.warning("allocation safeguard engaged at step %d (a zero-rebate or "
                                   "exhausted venue is being pinned to the boundary); further "
                                   "triggers log at DEBUG and are counted in 'safeguard_count'", n)
                else:
                    logger.debug("allocation safeguard clipped at step %d", n)
            if n % _RENORM_EVERY == 0:
                r /= total
                total = float(r.sum())
        return size

    orders = zip(v, d)
    return _walk(r, lambda m: islice(orders, m), field, settle, schedule, v.size, record_stride, {
        "mean_cost_reduction": lambda n, _: cr_sum / n if n else 0.0,
        "safeguard_count": lambda n, _: clipped_total,
    })
