"""Diagnostics unit tests: error paths and rate fitting."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from avgsa.diagnostics import (
    ErrorPath,
    empirical_average_path,
    fit_rate,
)
from avgsa.innovations import (
    Ar1MixingSource,
    EulerDecreasingSource,
    HaltonSource,
    IidUniformSource,
)


# ---------------------------------------------------------------------------
# empirical average paths
# ---------------------------------------------------------------------------

def test_error_path_matches_direct_replay():
    src = IidUniformSource(1, seed=44)
    cps = [10, 100, 1000]
    path = empirical_average_path(src, lambda r: float(r[0]), 0.5, cps)
    replay = IidUniformSource(1, seed=44).take_block(1000)[:, 0]
    for n, err in zip(path.ns, path.errors):
        assert err == pytest.approx(abs(replay[:n].mean() - 0.5), abs=1e-15)


def test_halton_indicator_average_is_sharp():
    # mass of [0, 1/2) along the van der Corput sequence: exact at dyadic n
    src = HaltonSource(1)
    path = empirical_average_path(
        src, lambda r: 1.0 if r[0] < 0.5 else 0.0, 0.5, [2**10]
    )
    assert path.errors[0] <= 2.0 / 2**10


@pytest.mark.parametrize("dimension", [1, 3])
def test_error_path_hands_f_tuple_rows(dimension):
    rows = []
    src = IidUniformSource(dimension, seed=9)
    path = empirical_average_path(src, lambda r: rows.append(r) or sum(r), 0.0, [5000])
    replay = IidUniformSource(dimension, seed=9).take_block(5000)
    assert all(type(r) is tuple and len(r) == dimension for r in rows)
    assert all(type(x) is float for x in rows[-1])
    assert rows == [tuple(r) for r in replay.tolist()]
    assert path.errors[0] == abs(sum(sum(r) for r in replay.tolist()) / 5000)


def test_error_path_validates_checkpoints():
    with pytest.raises(ValueError):
        empirical_average_path(HaltonSource(1), lambda r: 0.0, 0.0, [])
    with pytest.raises(ValueError):
        empirical_average_path(HaltonSource(1), lambda r: 0.0, 0.0, [0, 5])


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_on_power_law():
    ns = np.array([2**k for k in range(4, 16)], dtype=np.int64)
    errors = 3.0 * ns.astype(float) ** (-0.75)
    fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    assert fit.beta_hat == pytest.approx(0.75, abs=1e-10)
    assert fit.log_constant == pytest.approx(math.log(3.0), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.points_used == ns.size


def test_fit_rate_drops_zero_errors():
    ns = np.array([10, 20, 40, 80, 160, 320, 640], dtype=np.int64)
    errors = 2.0 * ns.astype(float) ** (-0.5)
    errors[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    assert fit.points_used == ns.size - 1
    assert fit.beta_hat == pytest.approx(0.5, abs=1e-10)


def test_fit_rate_drops_points_at_n_zero():
    # a record at n = 0 (the initial iterate) has no logarithm; the fit
    # is the fit of the path without it, bit for bit and without warnings
    ns = np.array([10, 20, 40, 80, 160, 320], dtype=np.int64)
    errors = 2.0 * ns.astype(float) ** (-0.5) * (1.0 + 0.1 * np.sin(ns.astype(float)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with_zero = fit_rate(ErrorPath(ns=np.concatenate([[0], ns]),
                                       errors=np.concatenate([[0.7], errors])))
    assert with_zero == fit_rate(ErrorPath(ns=ns, errors=errors))
    assert with_zero.points_used == ns.size


def test_fit_rate_needs_five_points():
    ns = np.array([10, 20, 30, 40], dtype=np.int64)
    with pytest.raises(ValueError):
        fit_rate(ErrorPath(ns=ns, errors=1.0 / ns.astype(float)))


def test_ar1_mixing_rate_near_one_half():
    # decay of the root-mean-square running-mean error across independent
    # chains: the polynomial exponent should sit near 1/2
    cps = [2**k for k in range(7, 21)]
    errs = []
    for seed in range(8):
        src = Ar1MixingSource(1, seed=seed, a=0.5)
        errs.append(
            empirical_average_path(src, lambda r: float(r[0]), 0.0, cps).errors
        )
    rms = np.sqrt(np.mean(np.square(errs), axis=0))
    fit = fit_rate(ErrorPath(ns=np.asarray(cps, dtype=np.int64), errors=rms))
    assert 0.35 <= fit.beta_hat <= 0.65
    assert fit.r_squared > 0.9


# ---------------------------------------------------------------------------
# decreasing-step Euler occupation averages
# ---------------------------------------------------------------------------

def test_square_root_diffusion_moment_recovered():
    # invariant law of dY = kappa(vtheta - Y)dt + sigma sqrt(|Y|) dW is a
    # Gamma law; its fractional moment has a closed form through the Gamma
    # function, recovered within 5% by the decreasing-step occupation mean
    kappa, vtheta, sigma, alpha = 1.0, 1.0, 1.5, 0.8
    shape = 2.0 * kappa * vtheta / sigma**2
    scale = sigma**2 / (2.0 * kappa)
    target = math.gamma(shape + alpha) / math.gamma(shape) * scale**alpha
    src = EulerDecreasingSource(
        lambda y: kappa * (vtheta - y),
        lambda y: sigma * math.sqrt(abs(y)),
        0.5,
        1.0 / 3.0,
        y0=vtheta,
        seed=0,
    )
    est = float(np.mean(np.abs(src.take_block(100_000)[:, 0]) ** alpha))
    assert abs(est - target) / target < 0.05
