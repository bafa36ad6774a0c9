"""Diagnostics unit tests: error paths and rate fitting."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from avgsa import diagnostics
from avgsa.diagnostics import ErrorPath, fit_rate
from avgsa.engine import StepSchedule, run
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
    # rate-fit's recursion: gamma_n = 1/n and h(theta, y) = theta - y make
    # theta_n the running mean, and its abs_error channel the error path.
    # The recursion and numpy's pairwise mean round apart by a few ulps.
    tr = run(0.0, IidUniformSource(1, seed=44), lambda th, y: th - y[0],
             StepSchedule(c=1.0, a=1.0), 1000, record_stride=10,
             monitors={"abs_error": lambda n, th: abs(th - 0.5)})
    replay = IidUniformSource(1, seed=44).take_block(1000)[:, 0]
    for n, err in zip(tr.ns[1:], tr.channel("abs_error")[1:]):
        assert err == pytest.approx(abs(replay[:n].mean() - 0.5), abs=1e-13)


def test_halton_indicator_average_is_sharp():
    # mass of [0, 1/2) along the van der Corput sequence: exact at dyadic n
    hits = HaltonSource(1).take_block(2**10)[:, 0] < 0.5
    assert abs(np.count_nonzero(hits) / 2**10 - 0.5) <= 2.0 / 2**10


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def test_fit_rate_exact_on_power_law():
    ns = np.array([2**k for k in range(4, 16)], dtype=np.int64)
    errors = 3.0 * ns.astype(float) ** (-0.75)
    fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    assert fit.beta_hat == pytest.approx(0.75, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_drops_zero_errors():
    ns = np.array([10, 20, 40, 80, 160, 320, 640], dtype=np.int64)
    errors = 2.0 * ns.astype(float) ** (-0.5)
    errors[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    assert fit == fit_rate(ErrorPath(ns=np.delete(ns, 2), errors=np.delete(errors, 2)))
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


def test_fit_rate_needs_five_points():
    ns = np.array([10, 20, 30, 40], dtype=np.int64)
    with pytest.raises(ValueError):
        fit_rate(ErrorPath(ns=ns, errors=1.0 / ns.astype(float)))


_BLOCK = diagnostics._BLOCK


def _polyfit_reference(ns, errors):
    """(beta_hat, r**2) of the usable points by numpy's whole-array
    least squares, the fit's definition without its blocked folds."""
    keep = (ns > 0) & (errors > 0.0)
    x, y = np.log(ns[keep].astype(float)), np.log(errors[keep])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return -slope, 1.0 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)


def _noisy_path(length, seed):
    """A power-law error path with log-normal noise, a record at n = 0,
    and exact zeros scattered through it."""
    rng = np.random.default_rng(seed)
    ns = np.arange(length)
    errors = 2.0 * (ns + 1.0) ** -0.6 * np.exp(0.3 * rng.standard_normal(length))
    errors[rng.integers(0, length, length // 50 + 1)] = 0.0
    return ns, errors


@pytest.mark.parametrize("length", [7, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 17, 10 * _BLOCK])
@pytest.mark.parametrize("seed", [0, 1])
def test_fit_rate_agrees_with_polyfit(length, seed):
    ns, errors = _noisy_path(length, seed)
    fit = fit_rate(ErrorPath(ns=ns, errors=errors))
    beta, r2 = _polyfit_reference(ns, errors)
    assert fit.beta_hat == pytest.approx(beta, rel=1e-12, abs=0.0)
    assert fit.r_squared == pytest.approx(r2, rel=1e-12, abs=0.0)


def test_fit_rate_does_not_depend_on_block_boundaries(monkeypatch):
    # a zero error at index 1 drops that point and shifts every later block
    # boundary by one against the path without it; the folds see the same
    # usable points in the same order, so the fits are bit-equal
    ns, errors = _noisy_path(3 * _BLOCK + 17, 2)
    errors[1] = 0.0
    shifted = ErrorPath(ns=ns, errors=errors)
    packed = ErrorPath(ns=np.delete(ns, 1), errors=np.delete(errors, 1))
    fit = fit_rate(packed)
    assert fit_rate(shifted) == fit
    # and so are fits in blocks of 1, of 7 and of the whole path
    for block in (1, 7, ns.size):
        monkeypatch.setattr(diagnostics, "_BLOCK", block)
        assert fit_rate(shifted) == fit_rate(packed) == fit


def test_fit_rate_r_squared_stays_at_most_one_on_exact_power_laws():
    # Sxy**2 / (Sxx * Syy) rounds above 1 on many exact power laws
    rng = np.random.default_rng(3)
    for _ in range(50):
        ns = np.arange(1, int(rng.integers(5, 300)))
        fit = fit_rate(ErrorPath(ns=ns, errors=ns ** -rng.uniform(0.1, 2.0)))
        assert fit.r_squared <= 1.0


def test_fit_rate_needs_two_distinct_n():
    ns = np.full(6, 40, dtype=np.int64)
    with pytest.raises(ValueError, match="distinct"):
        fit_rate(ErrorPath(ns=ns, errors=np.linspace(0.1, 0.6, 6)))


def test_ar1_mixing_rate_near_one_half():
    # decay of the root-mean-square running-mean error across independent
    # chains: the polynomial exponent should sit near 1/2
    cps = np.array([2**k for k in range(7, 21)])
    errs = []
    for seed in range(8):
        ys = Ar1MixingSource(1, seed=seed, a=0.5).take_block(2**20)[:, 0]
        errs.append(np.abs(np.cumsum(ys)[cps - 1] / cps))
    rms = np.sqrt(np.mean(np.square(errs), axis=0))
    fit = fit_rate(ErrorPath(ns=cps, errors=rms))
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
