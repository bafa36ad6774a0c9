"""Power-law rate fitting for error paths.

Averaging quality is an empirical matter: how fast does an error path,
such as the running-mean error that the ``rate-fit`` experiment records
through :func:`avgsa.engine.run`, decay, and does the decay match the
rate the theory attaches to the stream family?  :func:`fit_rate` answers
with a least-squares fit in log-log coordinates.

The fit streams: it reads the path in two passes of ``_BLOCK`` points,
the first for the means of ``log n`` and ``log error``, the second for
the centred sums of squares and products, so it holds O(block) memory at
any path length.  Every sum is a left-to-right fold carried across
blocks (``np.add.accumulate`` is sequential), and no BLAS or LAPACK call
is made, so the fit depends only on the sequence of usable points, not on
where the blocks fall.  Its bits still depend on ``np.log``, whose SIMD
kernels can differ by an ulp from one CPU feature level to another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "ErrorPath",
    "RateFit",
    "fit_rate",
]

# points per block of the fit's two passes: the fit holds a few arrays of
# this length, whatever the length of the path
_BLOCK = 4096


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


def _log_blocks(path: ErrorPath) -> Iterator[np.ndarray]:
    """Per block of ``_BLOCK`` points, the ``(2, m)`` array of ``log n``
    and ``log error`` over the block's m usable points (``n > 0`` and a
    positive error); blocks with none are skipped."""
    for i in range(0, path.ns.size, _BLOCK):
        n, e = path.ns[i : i + _BLOCK], path.errors[i : i + _BLOCK]
        keep = (n > 0) & (e > 0.0)
        m = int(np.count_nonzero(keep))
        if m == 0:
            continue
        if m < keep.size:
            n, e = n[keep], e[keep]
        w = np.empty((2, m))
        np.log(n, out=w[0])
        np.log(e, out=w[1])
        yield w


def _fold(carry: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``carry`` plus the row sums of ``w``, each row added left to right
    onto its running total; the same bits however a row is cut into blocks."""
    w[:, 0] += carry
    np.add.accumulate(w, axis=1, out=w)
    return w[:, -1].copy()


def fit_rate(path: ErrorPath) -> RateFit:
    """Fit a power-law decay to an error path by least squares in log-log
    coordinates.

    Points with ``n <= 0`` or an exact zero error have no logarithm and
    carry no rate information; they are dropped.  At least five usable
    points, at two or more distinct ``n``, are required.

    With ``x = log n`` and ``y = log error``, pass 1 folds ``Σx`` and ``Σy``
    for the means ``mx``, ``my``; pass 2 folds the centred sums ``Sxx``,
    ``Sxy`` and ``Syy`` of ``(x - mx)**2``, ``(x - mx)(y - my)`` and
    ``(y - my)**2``.  Then ``beta_hat = -Sxy / Sxx`` and
    ``r**2 = Sxy**2 / (Sxx * Syy)``, which is 1 for a flat path
    (``Syy == 0``).
    """
    count, sums, lo, hi = 0, np.zeros(2), np.inf, -np.inf
    for w in _log_blocks(path):
        count += w.shape[1]
        lo, hi = min(lo, w[0].min()), max(hi, w[0].max())
        sums = _fold(sums, w)
    if count < 5:
        raise ValueError(f"need at least 5 points with n > 0 and a nonzero error, have {count}")
    if lo == hi:
        raise ValueError("need at least two distinct n to fit a slope")
    mx, my = (sums / count).tolist()
    sq = np.zeros(3)
    for w in _log_blocks(path):
        w[0] -= mx
        w[1] -= my
        p = np.empty((3, w.shape[1]))
        np.multiply(w[0], w, out=p[:2])     # dx dx, dx dy
        np.multiply(w[1], w[1], out=p[2])   # dy dy
        sq = _fold(sq, p)
    sxx, sxy, syy = sq.tolist()
    # Cauchy-Schwarz bounds r**2 by 1, rounding by 1 + a few ulps
    r2 = min(1.0, sxy * sxy / (sxx * syy)) if syy > 0.0 else 1.0
    return RateFit(beta_hat=-sxy / sxx, r_squared=r2)
