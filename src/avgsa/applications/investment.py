"""Long-run capacity planning under square-root-diffusion productivity.

A firm chooses a capacity level to maximise the stationary mean of a
concave production profit ``y^a * theta^b - cost * theta`` where the
productivity ``y`` follows a mean-reverting square-root diffusion.  The
diffusion is simulated with a decreasing-step Euler scheme whose
occupation measure settles on the invariant law, so a single trajectory
both explores the stationary regime and drives the capacity recursion.
The invariant law is a Gamma distribution, which gives a closed form
for the optimal capacity to validate against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from avgsa.engine import StepSchedule, Trajectory, run
from avgsa.innovations import EulerDecreasingSource

__all__ = [
    "CirParams",
    "cir_innovation_source",
    "invariant_moment",
    "CobbDouglasParams",
    "theta_star_closed_form",
    "investment_run",
]


@dataclass(frozen=True)
class CirParams:
    """Square-root diffusion ``dY = kappa (vartheta - Y) dt + sigma sqrt|Y| dW``."""

    kappa: float
    vartheta: float
    sigma: float

    def __post_init__(self) -> None:
        if min(self.kappa, self.vartheta, self.sigma) <= 0.0:
            raise ValueError("kappa, vartheta, sigma must all be positive")
        try:
            shape, scale = self.gamma_shape, self.gamma_scale
            math.lgamma(shape)      # overflows for a shape above about 2.5e305
        except (ArithmeticError, ValueError):   # sigma**2 leaves the float range; lgamma(0.0)
            shape = scale = math.inf
        if not (0.0 < shape < math.inf and 0.0 < scale < math.inf):
            raise ValueError(
                f"kappa={self.kappa!r}, vartheta={self.vartheta!r} and sigma={self.sigma!r} put "
                "the invariant Gamma law's shape or scale outside the range its moments can use"
            )
        if not self.feller:
            # The Feller condition fails: the invariant Gamma law piles up
            # mass near zero and paths touch the origin.  The scheme and the
            # Gamma moments below remain valid, so this is survivable.
            warnings.warn(
                "2*kappa*vartheta <= sigma**2: the diffusion touches zero; "
                "expect slower settling of occupation averages",
                stacklevel=2,
            )

    @property
    def feller(self) -> bool:
        """The Feller condition ``2 kappa vartheta > sigma^2``: paths never reach zero."""
        return 2.0 * self.kappa * self.vartheta > self.sigma**2

    @property
    def gamma_shape(self) -> float:
        """Shape of the invariant Gamma law, ``2 kappa vartheta / sigma^2``."""
        return 2.0 * self.kappa * self.vartheta / self.sigma**2

    @property
    def gamma_scale(self) -> float:
        """Scale of the invariant Gamma law, ``sigma^2 / (2 kappa)``."""
        return self.sigma**2 / (2.0 * self.kappa)


def invariant_moment(p: CirParams, order: float) -> float:
    """Fractional moment ``E[Y^order]`` under the invariant Gamma law."""
    shape = p.gamma_shape
    if shape + order <= 0.0:
        raise ValueError(f"moment of order {order} does not exist")
    return math.exp(math.lgamma(shape + order) - math.lgamma(shape)) * p.gamma_scale**order


def cir_innovation_source(p: CirParams, step0: float, exponent: float,
                          seed: int) -> EulerDecreasingSource:
    """Decreasing-step Euler scheme for the square-root diffusion, as an
    innovation source whose occupation measure settles on the invariant
    Gamma law.

    The step exponent must lie in (0, 1/3]: Gaussian noise has finite
    moments of every order but the scheme's weighted averages are only
    guaranteed to settle when the step decays no faster than ``n^{-1/3}``
    relative to its square-summability trade-off.

    The first row of the stream is the initial productivity, the mean
    ``vartheta``; :class:`EulerDecreasingSource` emits it once, ahead of
    its per-row loop, and the first transition follows it.
    """
    if not 0.0 < exponent <= 1.0 / 3.0:
        raise ValueError(
            f"Euler step exponent must lie in (0, 1/3], got {exponent}"
        )
    kappa, vartheta, sigma, sqrt = p.kappa, p.vartheta, p.sigma, math.sqrt
    return EulerDecreasingSource(
        drift=lambda y: kappa * (vartheta - y),
        diffusion=lambda y: sigma * sqrt(abs(y)),
        step0=step0,
        exponent=exponent,
        y0=vartheta,
        seed=seed,
    )


@dataclass(frozen=True)
class CobbDouglasParams:
    """Production profit ``y^alpha * theta^beta - cost * theta``."""

    alpha: float
    beta: float
    cost: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"productivity exponent must lie in (0,1), got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"capacity exponent must lie in (0,1), got {self.beta}")
        if self.cost <= 0.0:
            raise ValueError(f"cost coefficient must be positive, got {self.cost}")


def _transform_kernel(beta: float) -> Callable[[float], float]:
    """Build ``transform(theta_tilde)``, the map of the free iterate onto
    a positive capacity: ``(theta_tilde + sqrt(theta_tilde^2 + 1))^rho``
    with ``rho = 1/(1-beta)`` (computed once) on the negative half-line
    and 1 on the positive half-line.  Both branches meet at
    ``theta_tilde = 0 -> 1``; the map is increasing with linear growth to
    the right and decays to 0 on the left fast enough to tame the
    ``theta^{beta-1}`` singularity of the marginal profit."""
    left = 1.0 / (1.0 - beta)
    sqrt = math.sqrt

    def transform(theta_tilde: float) -> float:
        base = theta_tilde + sqrt(theta_tilde**2 + 1.0)
        return base**left if theta_tilde < 0.0 else base

    return transform


def _grad_field(
    q: CobbDouglasParams, chain_rule: bool
) -> Callable[[float, Sequence[float]], float]:
    """Build the capacity step field ``field(theta_tilde, row)``: minus
    the marginal profit ``beta y^alpha theta^{beta-1} - cost`` at the
    productivity ``y = row[0]`` and the capacity ``theta`` of
    :func:`_transform_kernel`, inlined here with its
    ``sqrt(theta_tilde**2 + 1)`` shared by the chain-rule factor, so a
    step makes no Python call beyond the field itself.

    With ``chain_rule=True`` the transform's derivative
    ``rho theta / sqrt(theta_tilde^2 + 1)`` multiplies the handle, making
    it the exact gradient in the free variable; the factor is strictly
    positive, so both modes share their roots.  Euler paths of the
    square-root diffusion overshoot below zero now and then; production
    there is ``|y|^alpha``, the diffusion coefficient's convention, so
    brief negative excursions perturb rather than poison the recursion.
    """
    alpha, beta, cost = q.alpha, q.beta, q.cost
    bm1 = beta - 1.0
    left = 1.0 / (1.0 - beta)
    sqrt = math.sqrt

    def field(theta_tilde: float, row: Sequence[float]) -> float:
        root = sqrt(theta_tilde**2 + 1.0)
        if theta_tilde < 0.0:
            theta = (theta_tilde + root) ** left
            rho = left
        else:
            theta = theta_tilde + root
            rho = 1.0
        grad = -(beta * abs(row[0]) ** alpha * theta**bm1 - cost)
        return grad * (rho * theta / root) if chain_rule else grad

    return field


def theta_star_closed_form(p: CirParams, q: CobbDouglasParams) -> float:
    """Optimal capacity under the invariant law:
    ``(beta * E[Y^alpha] / cost)^{1/(1-beta)}``.  Raises ValueError when
    it lies beyond the float range."""
    try:
        # the quotient overflows to inf without raising, its power with OverflowError
        star = (q.beta * invariant_moment(p, q.alpha) / q.cost) ** (1.0 / (1.0 - q.beta))
    except OverflowError:
        star = math.inf
    if star == math.inf:
        raise ValueError(
            f"beta={q.beta!r} and cost={q.cost!r} put the optimal capacity "
            "beyond the float range"
        )
    return star


def investment_run(
    p: CirParams,
    q: CobbDouglasParams,
    schedule: StepSchedule,
    horizon: int,
    step0: float = 1.0,
    exponent: float = 1.0 / 3.0,
    seed: int = 0,
    theta_tilde0: float = 0.0,
    chain_rule: bool = True,
    record_stride: int = 100,
) -> Trajectory:
    """Run the capacity recursion along one decreasing-step Euler path.

    The trajectory records the free iterate as ``theta_0`` and its
    transform, built after the loop, as ``capacity``: the estimate to
    compare against :func:`theta_star_closed_form`.
    ``chain_rule`` defaults, as the config does, to the exact gradient.
    """
    source = cir_innovation_source(p, step0, exponent, seed)
    traj = run(theta_tilde0, source, _grad_field(q, chain_rule), schedule, horizon,
               record_stride=record_stride)
    traj.monitors["capacity"] = np.fromiter(
        map(_transform_kernel(q.beta), memoryview(traj.thetas[:, 0])), float, traj.ns.size)
    return traj
