"""Application-layer tests: best-of-two calibration, quantile/expected-
shortfall tracking, the ergodic investment problem, the two-armed bandit,
and the dark-pool allocation loop."""

from __future__ import annotations

import math
import tracemalloc
import warnings
from statistics import NormalDist

import numpy as np
import pytest

from avgsa.applications.bandit import (
    bandit_field,
    bandit_run,
    classify_terminal,
    make_event_source,
)
from avgsa.applications.correlation import (
    BestOfCallParams,
    _bestof_kernel,
    bs_bestof_price,
    calibrate_correlation,
)
from avgsa.applications.darkpool import (
    _checked_series,
    brute_force_allocation,
    darkpool_field,
    darkpool_run,
    relative_cost_reduction,
    simplex_safeguard,
    synthetic_capacities,
    synthetic_darkpool_series,
)
from avgsa.applications.investment import (
    CirParams,
    CobbDouglasParams,
    _grad_field,
    _transform_kernel,
    cir_innovation_source,
    invariant_moment,
    investment_run,
    theta_star_closed_form,
)
from avgsa.applications.varcvar import (
    cvar_companion_step,
    tail_value,
    var_cvar_run,
    var_cvar_trajectory,
    var_field,
)
from avgsa.engine import DivergenceError, StepSchedule
from avgsa.experiments import _var_cvar_targets
from avgsa.innovations import (
    _BLOCK,
    Ar1MixingSource,
    IidUniformSource,
    InnovationSource,
    make_source,
)


# ---------------------------------------------------------------------------
# best-of-two correlation calibration
# ---------------------------------------------------------------------------

def test_bestof_payoff_at_origin_matches_closed_form():
    # With z = (0, 0) both log-returns sit at the risk-neutral drift, so the
    # payoff is e^{-rT} (x e^{(r - s^2/2)T} - K)+ regardless of theta.
    p = BestOfCallParams()
    s = 100.0 * math.exp((0.10 - 0.045) * 1.0)
    want = math.exp(-0.10) * (s - 100.0)
    assert _bestof_kernel(p)(0.7, (0.0, 0.0)) == pytest.approx(want, abs=1e-12)


def test_bestof_field_deep_out_of_the_money():
    # A huge negative shock on both drivers kills the payoff entirely and
    # the field is minus the market quote.
    p = BestOfCallParams()
    field = _bestof_kernel(p, p.market_price)
    assert field(0.3, (-10.0, 0.0)) == pytest.approx(-30.75)
    got = field(1.1, (-10.0, -10.0))
    assert got == pytest.approx(-30.75, abs=1e-12)


def test_bestof_field_two_pi_periodic():
    p = BestOfCallParams()
    field = _bestof_kernel(p, p.market_price)
    rng = np.random.default_rng(42)
    for _ in range(50):
        theta = float(rng.uniform(-8.0, 8.0))
        z = rng.standard_normal(2).tolist()
        a = field(theta, z)
        b = field(theta + 2.0 * math.pi, z)
        assert a == pytest.approx(b, abs=1e-10)


def test_bestof_field_mirror_symmetry_when_z2_vanishes():
    # cos is even, so flipping the angle cannot matter when the second
    # driver is zero.
    p = BestOfCallParams()
    field = _bestof_kernel(p, p.market_price)
    z = (0.83, 0.0)
    for theta in (0.3, 1.2, 2.9):
        assert field(theta, z) == pytest.approx(field(-theta, z), abs=1e-12)


def test_bestof_params_validation():
    with pytest.raises(ValueError):
        BestOfCallParams(sigma1=-0.1)
    with pytest.raises(ValueError):
        BestOfCallParams(maturity=0.0)
    with pytest.raises(ValueError):
        BestOfCallParams(x1=0.0)


def test_bs_price_low_discrepancy_reference():
    p = BestOfCallParams()
    src = make_source("halton-gaussian", 2, 0)
    price = bs_bestof_price(p, -0.5, src, 100_000)
    assert price == pytest.approx(30.75, abs=0.02)


def test_bs_price_zero_strike_dominates_single_asset():
    # With K ~ 0 the claim pays max(S1, S2) >= S1, and e^{-rT} E[S1] = x1,
    # so the price must exceed the spot.
    p = BestOfCallParams(strike=1e-12)
    price = bs_bestof_price(p, -0.3, make_source("halton-gaussian", 2, 0), 50_000)
    assert price >= 100.0


def test_bs_price_validation():
    p = BestOfCallParams()
    with pytest.raises(ValueError):
        bs_bestof_price(p, 1.5, make_source("halton-gaussian", 2, 0), 100)
    with pytest.raises(ValueError):
        bs_bestof_price(p, 0.0, make_source("halton-gaussian", 1, 0), 100)
    # no payoffs to average: refused before the source is read
    for n in (0, -5):
        src = make_source("halton-gaussian", 2, 0)
        with pytest.raises(ValueError):
            bs_bestof_price(p, 0.0, src, n)
        np.testing.assert_array_equal(
            src.take_block(3), make_source("halton-gaussian", 2, 0).take_block(3)
        )


@pytest.mark.parametrize("kind", ["halton-gaussian", "iid-gaussian"])
def test_bs_price_matches_hand_loop(kind):
    # 20 000 payoffs span a full 16 384-row block and a partial one
    p = BestOfCallParams(x2=110.0, rate=0.03, sigma1=0.25, maturity=0.7, strike=95.0)
    n = 20_000
    price = bs_bestof_price(p, -0.4, make_source(kind, 2, 3), n)
    theta = math.acos(-0.4)
    payoff = _bestof_kernel(p)
    total = 0.0
    for z in make_source(kind, 2, 3).take_block(n).tolist():
        total += payoff(theta, z)
    assert price == total / n


def test_calibration_recovers_quoted_correlation():
    p = BestOfCallParams()
    tr = calibrate_correlation(
        p, make_source("halton-gaussian", 2, 0), StepSchedule(c=8.0, a=1.0), 20_000
    )
    rho = math.cos(float(tr.final_theta[0]))
    assert abs(rho + 0.5) <= 0.05
    # the recorded monitor channel carries the same number
    assert tr.channel("rho")[-1] == pytest.approx(rho)


def test_calibration_round_trip_through_pricer():
    # Price at a known correlation, feed the quote back in, and the
    # calibration should return to that correlation.
    p = BestOfCallParams()
    quote = bs_bestof_price(p, 0.0, make_source("halton-gaussian", 2, 0), 200_000)
    q = BestOfCallParams(market_price=quote)
    tr = calibrate_correlation(
        q, make_source("halton-gaussian", 2, 0), StepSchedule(c=8.0, a=1.0), 50_000
    )
    assert abs(math.cos(float(tr.final_theta[0]))) <= 0.05


def test_calibration_iid_seed_average():
    # Independent Gaussian innovations are noisier than the low-discrepancy
    # stream; the seed-averaged estimate still lands on the target.
    p = BestOfCallParams()
    vals = []
    for seed in range(8):
        tr = calibrate_correlation(
            p, make_source("iid-gaussian", 2, seed), StepSchedule(c=8.0, a=1.0), 100_000
        )
        vals.append(math.cos(float(tr.final_theta[0])))
    assert abs(float(np.mean(vals)) + 0.5) <= 0.05


def _bestof_payoff_reference(theta, z1, z2, p):
    # the payoff as a per-call expression over the parameters, kept as the
    # reference the hoisted kernel must reproduce bit for bit
    t = p.maturity
    sq = math.sqrt(t)
    s1 = p.x1 * math.exp((p.rate - 0.5 * p.sigma1**2) * t + p.sigma1 * sq * z1)
    w2 = z1 * math.cos(theta) + z2 * math.sin(theta)
    s2 = p.x2 * math.exp((p.rate - 0.5 * p.sigma2**2) * t + p.sigma2 * sq * w2)
    return math.exp(-p.rate * t) * max(max(s1, s2) - p.strike, 0.0)


def test_bestof_payoff_matches_reference_expression():
    params = [
        BestOfCallParams(),
        BestOfCallParams(x1=95.0, x2=110.0, rate=0.03, sigma1=0.25, sigma2=0.45,
                         maturity=0.7, strike=90.0),
        BestOfCallParams(strike=0.0),   # deep underflow leaves 0.0 - 0.0
        BestOfCallParams(sigma2=0.0),
    ]
    zs = np.random.default_rng(5).standard_normal((200, 2)).tolist()
    # equal assets at theta = 0 tie s1 and s2; a NaN draw must come
    # through as max() passes it; -800 underflows both exponentials
    zs += [[0.3, 0.0], [0.0, 0.0], [math.nan, 0.5], [0.5, math.nan], [-800.0, -800.0]]
    for p in params:
        payoff, field = _bestof_kernel(p), _bestof_kernel(p, p.market_price)
        for theta in (0.0, 0.4, 2.0, math.pi, -1.3):
            for z1, z2 in zs:
                got = payoff(theta, (z1, z2))
                want = _bestof_payoff_reference(theta, z1, z2, p)
                assert np.array([got]).tobytes() == np.array([want]).tobytes(), (p, theta, z1, z2)
                got = field(theta, (z1, z2))
                want = want - p.market_price
                assert np.array([got]).tobytes() == np.array([want]).tobytes(), (p, theta, z1, z2)


@pytest.mark.parametrize("kind", ["halton-gaussian", "iid-gaussian"])
@pytest.mark.parametrize("stride", [1, 100])
def test_calibrate_correlation_matches_hand_loop(kind, stride):
    # reference: the angle recursion written out by hand over the payoff
    # kernel, recorded every ``stride`` steps and at the horizon; the
    # engine-driven run must match it bit for bit
    horizon, theta0 = 10_001, 0.3
    p = BestOfCallParams(x1=95.0, x2=105.0, rate=0.05, sigma1=0.25, sigma2=0.4,
                         maturity=0.75, strike=100.0, market_price=14.0)
    sched = StepSchedule(c=8.0, a=1.0)
    zs = make_source(kind, 2, 3).take_block(horizon).tolist()
    gammas = sched.gamma_array(horizon).tolist()
    payoff = _bestof_kernel(p)
    ns, thetas, rhos = [0], [theta0], [math.cos(theta0)]
    theta = theta0
    for n, (z, g) in enumerate(zip(zs, gammas), start=1):
        theta = theta - g * (payoff(theta, z) - p.market_price)
        if n % stride == 0 or n == horizon:
            ns.append(n)
            thetas.append(theta)
            rhos.append(math.cos(theta))

    tr = calibrate_correlation(p, make_source(kind, 2, 3), sched, horizon,
                               theta0=theta0, record_stride=stride)
    np.testing.assert_array_equal(tr.ns, ns)
    np.testing.assert_array_equal(tr.channel("theta_0"), thetas)
    np.testing.assert_array_equal(tr.channel("rho"), rhos)
    np.testing.assert_array_equal(tr.final_theta, [theta])


# ---------------------------------------------------------------------------
# quantile / expected-shortfall tracking
# ---------------------------------------------------------------------------

def test_var_field_values():
    assert var_field(0.0, -1.0, 0.95) == pytest.approx(1.0)
    assert var_field(0.0, 1.0, 0.95) == pytest.approx(-19.0)
    assert var_field(0.0, 1.0, 0.5) == pytest.approx(-1.0)
    # boundary sample counts as an exceedance
    assert var_field(1.0, 1.0, 0.95) == pytest.approx(-19.0)


def test_var_field_mean_vanishes_at_true_quantile():
    # E var_field(theta*, Y) = (F(theta*) - alpha)/(1 - alpha) = 0 at the
    # alpha-quantile; check it empirically for uniform and exponential laws.
    rng = np.random.default_rng(7)
    u = rng.uniform(size=400_000)
    alpha = 0.95
    vals_u = 1.0 - (u >= alpha) / (1.0 - alpha)
    assert abs(vals_u.mean()) <= 0.02
    expo = -np.log1p(-u)
    q = -math.log(0.05)
    vals_e = 1.0 - (expo >= q) / (1.0 - alpha)
    assert abs(vals_e.mean()) <= 0.02


def test_tail_value_examples():
    assert tail_value(1.0, 0.5, 0.95) == pytest.approx(1.0)
    assert tail_value(1.0, 2.0, 0.95) == pytest.approx(21.0)
    assert tail_value(0.0, 1.0, 0.5) == pytest.approx(2.0)


def test_cvar_companion_is_running_mean():
    # At frozen theta the companion recursion is exactly the running mean of
    # the tail values.
    rng = np.random.default_rng(3)
    theta = 1.2
    zeta = 0.0
    acc = []
    for n, y in enumerate(rng.standard_normal(5_000)):
        v = tail_value(theta, float(y), 0.95)
        acc.append(v)
        zeta = cvar_companion_step(zeta, theta, float(y), n, 0.95)
        assert zeta == pytest.approx(float(np.mean(acc)), abs=1e-12)
        if n > 200:
            break


def test_cvar_companion_first_step_and_validation():
    # n = 0 replaces the (empty) mean with the first tail value outright.
    assert cvar_companion_step(123.0, 0.0, 2.0, 0, 0.95) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        cvar_companion_step(0.0, 0.0, 1.0, -1, 0.95)


def test_var_cvar_run_gaussian_short():
    nd = NormalDist()
    theta, zeta = var_cvar_run(
        make_source("iid-gaussian", 1, 5), 0.95, StepSchedule(c=4.0, a=0.75), 200_000
    )
    q = nd.inv_cdf(0.95)
    es = math.exp(-q * q / 2.0) / (math.sqrt(2.0 * math.pi) * 0.05)
    assert theta == pytest.approx(q, abs=0.05)
    assert zeta == pytest.approx(es, abs=0.06)


def test_var_cvar_run_median_of_symmetric_law():
    # alpha = 1/2 turns the recursion into a median tracker; for a centred
    # Gaussian the target is zero and the tail mean is E|Y| / (2 * 1/2).
    theta, zeta = var_cvar_run(
        make_source("iid-gaussian", 1, 0), 0.5, StepSchedule(c=4.0, a=0.75), 200_000
    )
    assert abs(theta) <= 0.05
    assert zeta == pytest.approx(math.sqrt(2.0 / math.pi), abs=0.05)


def test_var_cvar_trajectory_channels_match_run():
    src_a = make_source("iid-uniform", 1, 9)
    src_b = make_source("iid-uniform", 1, 9)
    sched = StepSchedule(c=1.0, a=0.8)
    tr = var_cvar_trajectory(src_a, sched, 4_000, alpha=0.9)
    pair = var_cvar_run(src_b, 0.9, sched, 4_000)
    assert float(tr.final_theta[0]) == pytest.approx(pair[0], abs=1e-15)
    assert float(tr.channel("cvar")[-1]) == pytest.approx(pair[1], abs=1e-15)


@pytest.mark.parametrize("kind, stride", [
    ("iid-gaussian", 1), ("iid-gaussian", 7), ("ar1-mixing", 1), ("ar1-mixing", 7),
])
def test_var_cvar_trajectory_matches_hand_loop(kind, stride):
    # reference: the joint recursion written out by hand, quantile step and
    # tail-value sum on plain floats, recorded every ``stride`` steps and at
    # the horizon; the engine-driven run must match it bit for bit
    horizon, alpha, theta0 = 5_000, 0.9, 0.25
    sched = StepSchedule(c=4.0, a=0.75)
    ys = make_source(kind, 1, 11).take_block(horizon)[:, 0].tolist()
    gammas = sched.gamma_array(horizon)
    tail = 1.0 / (1.0 - alpha)
    ns, thetas, cvars = [0], [theta0], [theta0]
    theta, vsum = theta0, 0.0
    for n, y in enumerate(ys, start=1):
        v = theta + (max(y - theta, 0.0)) * tail
        theta -= gammas[n - 1] * (1.0 - (tail if y >= theta else 0.0))
        vsum += v
        if n % stride == 0 or n == horizon:
            ns.append(n)
            thetas.append(theta)
            cvars.append(vsum / n)

    tr = var_cvar_trajectory(make_source(kind, 1, 11), sched, horizon, alpha=alpha,
                             theta0=theta0, record_stride=stride)
    np.testing.assert_array_equal(tr.ns, ns)
    np.testing.assert_array_equal(tr.channel("theta_0"), thetas)
    np.testing.assert_array_equal(tr.channel("cvar"), cvars)
    np.testing.assert_array_equal(tr.final_theta, [theta])


@pytest.mark.parametrize("theta0, y0", [
    (0.25, 0.25), (0.0, -0.0), (-0.0, 0.0), (0.0, math.inf), (0.0, -math.inf), (0.0, math.nan),
])
def test_var_cvar_field_edge_rows_match_max(theta0, y0):
    # the field's conditional must give builtin max's tail value on a tie,
    # on signed zeros, on infinities and on NaN; random rows follow
    alpha = 0.9
    sched = StepSchedule(c=4.0, a=0.75)
    ys = [y0] + np.random.default_rng(4).standard_normal(20).tolist()
    tail = 1.0 / (1.0 - alpha)
    thetas, cvars = [theta0], [theta0]
    theta, vsum = theta0, 0.0
    for n, (y, g) in enumerate(zip(ys, sched.gamma_array(len(ys)).tolist()), start=1):
        vsum += theta + max(y - theta, 0.0) * tail
        theta = theta - g * (1.0 - (tail if y >= theta else 0.0))
        thetas.append(theta)
        cvars.append(vsum / n)

    # the rows as one block: the run reads no further
    rows = InnovationSource(1, iter([np.reshape(ys, (-1, 1))]))
    tr = var_cvar_trajectory(rows, sched, len(ys), alpha=alpha, theta0=theta0, record_stride=1)
    assert tr.channel("theta_0").tobytes() == np.array(thetas).tobytes()
    assert tr.channel("cvar").tobytes() == np.array(cvars).tobytes()


def test_var_cvar_validation():
    src = make_source("iid-uniform", 1, 0)
    sched = StepSchedule(c=1.0, a=1.0)
    with pytest.raises(ValueError):
        var_cvar_trajectory(src, sched, 100, alpha=1.0)
    with pytest.raises(ValueError):
        var_cvar_trajectory(src, sched, 0)
    with pytest.raises(ValueError):
        var_cvar_trajectory(make_source("iid-gaussian", 2, 0), sched, 100)


# ---------------------------------------------------------------------------
# ergodic investment
# ---------------------------------------------------------------------------

def test_cir_params_feller_warning():
    with pytest.warns(UserWarning):
        CirParams(1.0, 1.0, 1.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        CirParams(1.0, 1.0, 1.0)  # 2*1*1 > 1: no warning expected
    with pytest.raises(ValueError):
        CirParams(0.0, 1.0, 1.0)


def test_invariant_moment_matches_gamma_composition():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = CirParams(1.0, 1.0, 1.5)
    nu, scale = p.gamma_shape, p.gamma_scale
    want = math.gamma(nu + 0.8) / math.gamma(nu) * scale**0.8
    assert invariant_moment(p, 0.8) == pytest.approx(want, rel=1e-12)
    assert invariant_moment(p, 0.0) == pytest.approx(1.0, abs=1e-14)
    # first moment of the invariant law is the mean-reversion level
    assert invariant_moment(p, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_invariant_moment_and_target_at_large_gamma_shape():
    # sigma = 0.05 puts the Gamma shape at 800, where Gamma(800) itself is
    # beyond the float range; the moment and the target stay finite
    p = CirParams(1.0, 1.0, 0.05)
    assert p.gamma_shape == pytest.approx(800.0)
    assert invariant_moment(p, 1.0) == pytest.approx(p.vartheta, rel=1e-12)
    assert math.isfinite(theta_star_closed_form(p, CobbDouglasParams(0.8, 0.7, 0.5)))


def test_theta_star_closed_form_cases():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = CirParams(1.0, 1.0, 1.5)
    q = CobbDouglasParams(0.8, 0.7, 0.5)
    want = (0.7 * invariant_moment(p, 0.8) / 0.5) ** (1.0 / 0.3)
    assert theta_star_closed_form(p, q) == pytest.approx(want, rel=1e-12)
    # picking the cost to equal beta E[Y^alpha] normalises the target to one
    c = 0.7 * invariant_moment(p, 0.8)
    q1 = CobbDouglasParams(0.8, 0.7, c)
    assert theta_star_closed_form(p, q1) == pytest.approx(1.0, rel=1e-12)
    # (0.7 * 0.92 / 1e-4)^1000 is beyond the float range
    with pytest.raises(ValueError, match="beta=0.999 and cost=0.0001"):
        theta_star_closed_form(p, CobbDouglasParams(0.8, 0.999, 1e-4))


def test_theta_star_monotone_in_output_elasticity():
    # When beta E[Y^alpha] > cost the target grows with beta.
    p = CirParams(2.0, 1.0, 1.0)
    vals = [
        theta_star_closed_form(p, CobbDouglasParams(0.8, b, 0.3))
        for b in (0.4, 0.5, 0.6, 0.7)
    ]
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_cir_source_exponent_gate():
    p = CirParams(2.0, 1.0, 1.0)
    cir_innovation_source(p, 1.0, 1.0 / 3.0, seed=0)
    with pytest.raises(ValueError):
        cir_innovation_source(p, 1.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        cir_innovation_source(p, 0.0, 1.0 / 3.0, seed=0)


def test_cir_source_first_increment_is_pure_noise():
    # The stream opens with the initial condition itself; started at the
    # mean-reversion level the drift vanishes, so the first transition is
    # exactly sigma sqrt(step) sqrt(y0) xi.
    p = CirParams(2.0, 1.0, 1.0)
    src = cir_innovation_source(p, 0.25, 1.0 / 3.0, seed=12)
    ys = src.take_block(2)[:, 0]
    assert ys[0] == pytest.approx(1.0, abs=0.0)
    xi = make_source("iid-gaussian", 1, 12).take_block(2)[1, 0]
    want = 1.0 + 1.0 * math.sqrt(0.25) * math.sqrt(1.0) * xi
    assert ys[1] == pytest.approx(want, abs=1e-12)


def test_cir_occupation_mean_near_level():
    p = CirParams(1.0, 1.0, 1.0)
    src = cir_innovation_source(p, 1.0, 1.0 / 3.0, seed=4)
    ys = src.take_block(100_000)[:, 0]
    assert abs(ys.mean() - 1.0) <= 0.05


def test_capacity_transform_branches():
    transform = _transform_kernel(0.7)
    assert transform(0.0) == pytest.approx(1.0)
    assert transform(3.0) == pytest.approx(3.0 + math.sqrt(10.0))
    want_left = (math.sqrt(2.0) - 1.0) ** (1.0 / 0.3)
    assert transform(-1.0) == pytest.approx(want_left, rel=1e-12)
    # strictly increasing across the splice
    grid = np.linspace(-3.0, 3.0, 41).tolist()
    vals = [transform(t) for t in grid]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_cobb_douglas_grad_values_and_roots():
    q = CobbDouglasParams(0.8, 0.7, 0.5)
    grad, chain = _grad_field(q, False), _grad_field(q, True)
    # at theta-tilde = 0 the capacity is 1 and the handle reduces to
    # -(beta y^alpha - cost)
    y = 1.3
    want = -(0.7 * y**0.8 - 0.5)
    assert grad(0.0, (y,)) == pytest.approx(want, rel=1e-12)
    # marginal product balances cost at y = (c / beta)^(1/alpha)
    y_star = (0.5 / 0.7) ** (1.0 / 0.8)
    assert grad(0.0, (y_star,)) == pytest.approx(0.0, abs=1e-12)
    # both parameterisations vanish at the same capacity
    theta = 2.0
    y_bal = (0.5 / (0.7 * theta ** (0.7 - 1.0))) ** (1.0 / 0.8)
    tt = (theta * theta - 1.0) / (2.0 * theta)  # inverse of the transform
    assert _transform_kernel(0.7)(tt) == pytest.approx(theta, rel=1e-12)
    assert grad(tt, (y_bal,)) == pytest.approx(0.0, abs=1e-12)
    assert chain(tt, (y_bal,)) == pytest.approx(0.0, abs=1e-12)
    # far in the flat region the marginal product decays like a small power
    # of the capacity and the cost is all that remains
    assert grad(1e6, (1.0,)) == pytest.approx(0.5, abs=0.01)


def test_investment_run_both_modes_reach_target():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = CirParams(1.0, 1.0, 1.5)
    q = CobbDouglasParams(0.8, 0.7, 0.5)
    star = theta_star_closed_form(p, q)
    sched = StepSchedule(c=5.0, a=1.0)
    for mode in (False, True):
        tr = investment_run(p, q, sched, 50_000, seed=0, chain_rule=mode)
        cap = float(tr.channel("capacity")[-1])
        assert abs(cap - star) / star <= 0.15


def _capacity_reference(theta_tilde, beta):
    base = theta_tilde + math.sqrt(theta_tilde**2 + 1.0)
    if theta_tilde < 0.0:
        return base ** (1.0 / (1.0 - beta))
    return base


def _cobb_douglas_reference(theta_tilde, y, q, chain_rule):
    # the gradient as a per-call expression over the parameters, kept as
    # the reference the hoisted kernel must reproduce bit for bit
    theta = _capacity_reference(theta_tilde, q.beta)
    g = -(q.beta * abs(y) ** q.alpha * theta ** (q.beta - 1.0) - q.cost)
    if chain_rule:
        rho = 1.0 / (1.0 - q.beta) if theta_tilde < 0.0 else 1.0
        g *= rho * theta / math.sqrt(theta_tilde**2 + 1.0)
    return g


def test_cobb_douglas_kernel_matches_reference_expression():
    tts = np.linspace(-6.0, 6.0, 121).tolist() + [-0.0, 1e-300, -1e-300, 1e8, math.nan]
    ys = [1.3, 0.0, -0.4, 2.7, 1e-12, math.nan]
    for q in (CobbDouglasParams(0.8, 0.7, 0.5), CobbDouglasParams(0.3, 0.2, 1.7)):
        transform = _transform_kernel(q.beta)
        fields = {mode: _grad_field(q, mode) for mode in (False, True)}
        for tt in tts:
            got = transform(tt)
            want = _capacity_reference(tt, q.beta)
            assert np.array([got]).tobytes() == np.array([want]).tobytes(), (q, tt)
            for y in ys:
                for chain_rule in (False, True):
                    got = fields[chain_rule](tt, (y,))
                    want = _cobb_douglas_reference(tt, y, q, chain_rule)
                    assert np.array([got]).tobytes() == np.array([want]).tobytes(), (
                        q, tt, y, chain_rule)


@pytest.mark.parametrize("chain_rule", [False, True], ids=["plain", "chain"])
@pytest.mark.parametrize("stride", [1, 100])
def test_investment_run_matches_hand_loop(stride, chain_rule):
    # reference: the capacity recursion written out by hand over the
    # gradient and transform kernels along the same Euler path, recorded every
    # ``stride`` steps and at the horizon.  From theta_tilde = -1 with small
    # early steps, both modes take steps on the left branch of the
    # transform before the path crosses zero.
    horizon, theta0 = 10_001, -1.0
    p = CirParams(1.0, 1.0, 1.2)
    q = CobbDouglasParams(0.8, 0.7, 0.5)
    sched = StepSchedule(c=0.2, a=0.6)
    ys = cir_innovation_source(p, 0.8, 0.3, 14).take_block(horizon)[:, 0].tolist()
    gammas = sched.gamma_array(horizon).tolist()
    transform, grad = _transform_kernel(q.beta), _grad_field(q, chain_rule)
    ns, thetas, caps = [0], [theta0], [transform(theta0)]
    theta, left_steps = theta0, 0
    for n, (y, g) in enumerate(zip(ys, gammas), start=1):
        left_steps += theta < 0.0
        theta = theta - g * grad(theta, (y,))
        if n % stride == 0 or n == horizon:
            ns.append(n)
            thetas.append(theta)
            caps.append(transform(theta))

    tr = investment_run(p, q, sched, horizon, step0=0.8, exponent=0.3, seed=14,
                        theta_tilde0=theta0, chain_rule=chain_rule, record_stride=stride)
    assert left_steps >= 5 and theta > 0.0
    np.testing.assert_array_equal(tr.ns, ns)
    np.testing.assert_array_equal(tr.channel("theta_0"), thetas)
    np.testing.assert_array_equal(tr.channel("capacity"), caps)
    np.testing.assert_array_equal(tr.final_theta, [theta])


# ---------------------------------------------------------------------------
# two-armed bandit
# ---------------------------------------------------------------------------

def _round(a: bool, b: bool, u: float) -> np.ndarray:
    return np.array([float(a), float(b), u])


def test_bandit_field_hand_values():
    # a step is theta - gamma * field
    assert 0.5 - 0.1 * bandit_field(0.5, _round(True, False, 0.3)) == pytest.approx(0.55)
    assert 0.5 - 0.1 * bandit_field(0.5, _round(False, True, 0.7)) == pytest.approx(0.45)
    # A occurs but the coin lands above theta: nothing moves
    assert bandit_field(0.5, _round(True, False, 0.7)) == 0.0


def test_bandit_endpoints_absorb():
    for u, a, b in ((0.2, True, False), (0.9, False, True), (0.5, True, True)):
        for theta in (1.0, 0.0):
            assert theta - 0.5 * bandit_field(theta, _round(a, b, u)) == theta


def test_bandit_run_monotone_when_only_a_pays():
    events = make_event_source("iid", 1.0, 0.0, 0)
    uniforms = make_source("iid-uniform", 1, 1)
    res = bandit_run(events, uniforms, StepSchedule(c=1.0, a=0.9), 5_000)
    path = res.trajectory.thetas[:, 0]
    assert np.all(np.diff(path) >= -1e-15)
    assert res.classification == "near-1"


def test_bandit_run_zero_start_is_trapped():
    events = make_event_source("iid", 0.9, 0.9, 2)
    uniforms = make_source("iid-uniform", 1, 3)
    res = bandit_run(
        events, uniforms, StepSchedule(c=1.0, a=0.9), 2_000, theta0=0.0
    )
    assert np.all(res.trajectory.thetas == 0.0)
    assert res.classification == "near-0"


def test_bandit_run_stays_in_unit_interval():
    events = make_event_source("iid", 0.7, 0.5, 5)
    uniforms = make_source("iid-uniform", 1, 6)
    res = bandit_run(events, uniforms, StepSchedule(c=1.0, a=0.9), 20_000)
    assert res.trajectory.thetas.min() >= 0.0
    assert res.trajectory.thetas.max() <= 1.0


@pytest.mark.parametrize("kind, stride", [("iid", 1), ("iid", 7), ("ar1", 1), ("ar1", 7)])
def test_bandit_run_matches_hand_loop(kind, stride):
    # reference: the rewarding rule written out by hand over separate event
    # and coin streams, theta + gamma * (up - down), recorded every
    # ``stride`` rounds; the engine-driven run must match it bit for bit
    horizon, theta0 = 5_000, 0.5
    sched = StepSchedule(c=1.0, a=0.9)
    ev = make_event_source(kind, 0.6, 0.4, 21).take_block(horizon)
    us = make_source("iid-uniform", 1, 22).take_block(horizon)[:, 0]
    gammas = sched.gamma_array(horizon)
    ns, path = [0], [theta0]
    theta = theta0
    for n in range(1, horizon + 1):
        u, a_occurred, b_occurred = us[n - 1], ev[n - 1, 0] != 0.0, ev[n - 1, 1] != 0.0
        up = (1.0 - theta) if (u <= theta and a_occurred) else 0.0
        down = theta if (u > theta and b_occurred) else 0.0
        theta = theta + gammas[n - 1] * (up - down)
        if n % stride == 0 or n == horizon:
            ns.append(n)
            path.append(theta)

    res = bandit_run(make_event_source(kind, 0.6, 0.4, 21), make_source("iid-uniform", 1, 22),
                     sched, horizon, theta0=theta0, record_stride=stride)
    np.testing.assert_array_equal(res.trajectory.ns, ns)
    np.testing.assert_array_equal(res.trajectory.channel("theta_0"), path)
    assert res.final_theta == theta
    assert res.classification == classify_terminal(theta)


def test_classify_terminal_bands():
    assert classify_terminal(0.995) == "near-1"
    assert classify_terminal(0.005) == "near-0"
    assert classify_terminal(0.5) == "undecided"


def test_iid_event_source_frequencies():
    rows = make_event_source("iid", 0.6, 0.4, 3).take_block(20_000)
    assert rows.shape == (20_000, 2)
    assert set(np.unique(rows)) <= {0.0, 1.0}
    assert abs(rows[:, 0].mean() - 0.6) <= 0.02
    assert abs(rows[:, 1].mean() - 0.4) <= 0.02


def test_ar1_event_source_frequencies_and_persistence():
    rows = make_event_source("ar1", 0.6, 0.4, 3, mixing=0.5).take_block(100_000)
    a = rows[:, 0]
    assert abs(a.mean() - 0.6) <= 0.02
    assert abs(rows[:, 1].mean() - 0.4) <= 0.02
    # positive mixing makes consecutive events stick together
    cond = float((a[1:] * a[:-1]).mean() / a.mean())
    assert cond >= 0.6 + 0.05


def test_make_event_source_dispatch():
    # bit for bit, across a 4096-row buffer edge: "iid" thresholds
    # IidUniformSource(2, seed) at the frequencies, "ar1" thresholds
    # Ar1MixingSource(2, seed, a=mixing) at Phi^-1(nu) / sqrt(1 - mixing^2)
    n = 5_000
    u = IidUniformSource(2, 4).take_block(n)
    np.testing.assert_array_equal(
        make_event_source("iid", 0.7, 0.2, 4).take_block(n), (u <= (0.7, 0.2)).astype(float)
    )
    x = Ar1MixingSource(2, 4, a=-0.3).take_block(n)
    scale = 1.0 / math.sqrt(1.0 - 0.3**2)
    cutoffs = [NormalDist().inv_cdf(f) * scale for f in (0.7, 0.2)]
    np.testing.assert_array_equal(
        make_event_source("ar1", 0.7, 0.2, 4, mixing=-0.3).take_block(n),
        (x <= cutoffs).astype(float),
    )
    with pytest.raises(ValueError):
        make_event_source("markov", 0.5, 0.5, 0)
    with pytest.raises(ValueError):
        make_event_source("iid", 1.2, 0.5, 0)


def test_ar1_event_cutoffs_are_the_var_cvar_quantile_targets(monkeypatch):
    # both scale by the AR(1) stationary sd 1/sqrt(1 - a*a); at this a,
    # a**2 is one ulp above a*a and the bandit's cutoffs came out one ulp
    # off var-cvar's targets. A chain row at arm A's target performs, one
    # ulp above arm B's does not.
    a = 0.8035113089342609
    qa, qb = (_var_cvar_targets("ar1-mixing", f, a)[0] for f in (0.4, 0.6))
    rows = np.tile([qa, math.nextafter(qb, math.inf)], (_BLOCK, 1))
    monkeypatch.setattr("avgsa.applications.bandit.Ar1MixingSource",
                        lambda d, seed, a: InnovationSource(d, iter([rows])))
    assert make_event_source("ar1", 0.4, 0.6, 0, mixing=a).next().tolist() == [1.0, 0.0]


@pytest.mark.parametrize("mixing", [1.0, -1.0, 1.5, math.nan])
def test_ar1_event_source_refuses_non_mixing_chain(mixing):
    # 1.0 divided by zero and 1.5 took a square root of a negative number
    # before the chain's own check was reached
    with pytest.raises(ValueError, match="mixing must lie in"):
        make_event_source("ar1", 0.6, 0.4, 0, mixing=mixing)


def test_ar1_event_source_takes_frequency_endpoints():
    # frequencies 0 and 1 put the cutoffs at -inf and inf: the arm never
    # or always performs
    rows = make_event_source("ar1", 1.0, 0.0, 5, mixing=0.5).take_block(1000)
    assert rows[:, 0].tolist() == [1.0] * 1000
    assert rows[:, 1].tolist() == [0.0] * 1000


def test_bandit_run_validation():
    sched = StepSchedule(c=1.0, a=0.9)
    with pytest.raises(ValueError):
        bandit_run(
            make_event_source("iid", 0.5, 0.5, 0), make_source("iid-uniform", 2, 0), sched, 10
        )
    with pytest.raises(ValueError):
        bandit_run(
            make_source("iid-uniform", 1, 0), make_source("iid-uniform", 1, 0), sched, 10
        )
    with pytest.raises(ValueError):
        bandit_run(
            make_event_source("iid", 0.5, 0.5, 0),
            make_source("iid-uniform", 1, 0),
            sched,
            10,
            theta0=1.5,
        )
    # a first step above 1 throws the iterate out of [0, 1]
    with pytest.raises(ValueError, match="step must lie in"):
        bandit_run(
            make_event_source("iid", 0.5, 0.5, 0),
            make_source("iid-uniform", 1, 0),
            StepSchedule(c=1.5, a=0.9),
            10,
        )
    # a zero step never reaches the bandit: the schedule refuses it
    with pytest.raises(ValueError):
        StepSchedule(c=0.0, a=0.9)


# ---------------------------------------------------------------------------
# dark-pool allocation
# ---------------------------------------------------------------------------

def test_darkpool_field_hand_values():
    r = np.array([0.5, 0.5])
    vol = 1.0
    caps = np.array([1.0, 0.2])
    reb = np.array([0.02, 0.04])
    got = darkpool_field(r, vol, caps, reb)
    np.testing.assert_allclose(got, [0.01, -0.01], atol=1e-15)
    # unconstrained pools: the field is V (rho - mean rho)
    big = np.array([np.inf, np.inf])
    got2 = darkpool_field(r, 2.0, big, reb)
    np.testing.assert_allclose(got2, [2.0 * (0.02 - 0.03), 2.0 * (0.04 - 0.03)])
    # saturated pools: nothing to trade off
    np.testing.assert_allclose(
        darkpool_field(r, 1.0, np.zeros(2), reb), [0.0, 0.0]
    )
    with pytest.raises(ValueError):
        darkpool_field(r, 0.0, caps, reb)


def test_darkpool_field_sums_to_zero():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2_000):
        n = int(rng.integers(2, 6))
        r = rng.dirichlet(np.ones(n))
        vol = float(rng.uniform(0.1, 5.0))
        caps = rng.uniform(0.0, 2.0, size=n)
        reb = rng.uniform(0.0, 0.2, size=n)
        worst = max(worst, abs(float(darkpool_field(r, vol, caps, reb).sum())))
    assert worst <= 1e-14


def darkpool_step(r, volume, capacities, rebates, gamma):
    """Reference composition of one allocation update: ``r + gamma *
    field``, then the nonnegativity safeguard at the current total.
    Returns the new allocation and whether the safeguard clipped."""
    r = np.asarray(r, dtype=float)
    candidate = r + gamma * darkpool_field(r, volume, capacities, rebates)
    return simplex_safeguard(candidate, float(r.sum()))


def test_darkpool_step_hand_value_and_sum_preservation():
    r = np.array([0.5, 0.5])
    caps = np.array([1.0, 0.2])
    reb = np.array([0.02, 0.04])
    got, _ = darkpool_step(r, 1.0, caps, reb, 1.0)
    np.testing.assert_allclose(got, [0.51, 0.49], atol=1e-15)
    rng = np.random.default_rng(1)
    r = np.array([0.25, 0.25, 0.5])
    for _ in range(500):
        vol = float(rng.uniform(0.2, 3.0))
        caps = rng.uniform(0.0, 1.5, size=3)
        reb = rng.uniform(0.0, 0.1, size=3)
        r, _ = darkpool_step(r, vol, caps, reb, 0.05)
        assert abs(r.sum() - 1.0) <= 1e-13
        assert r.min() >= 0.0


def test_simplex_safeguard():
    repaired, clipped = simplex_safeguard(np.array([-0.1, 0.6, 0.5]))
    assert clipped
    np.testing.assert_allclose(repaired, [0.0, 6.0 / 11.0, 5.0 / 11.0])
    ok, flag = simplex_safeguard(np.array([0.3, 0.7]))
    assert not flag
    np.testing.assert_allclose(ok, [0.3, 0.7])
    # hopeless candidate falls back to the uniform allocation
    uniform, flag2 = simplex_safeguard(np.array([-1.0, -2.0]))
    assert flag2
    np.testing.assert_allclose(uniform, [0.5, 0.5])


def test_synthetic_capacities_identities():
    rng = np.random.default_rng(8)
    v = np.exp(0.5 * rng.standard_normal(3_000))
    s = np.exp(0.5 * rng.standard_normal((3_000, 3)))
    mix = np.array([0.4, 0.6, 0.8])
    scale = np.array([0.1, 0.2, 0.3])
    d = synthetic_capacities(v, s, mix, scale)
    # the blend is calibrated so each pool's mean depth is beta_i mean(V)
    np.testing.assert_allclose(d.mean(axis=0), scale * v.mean(), rtol=1e-12)
    # alpha = 0 collapses to a deterministic fraction of the volume
    d0 = synthetic_capacities(v, s, np.zeros(3), scale)
    np.testing.assert_allclose(d0, np.outer(v, scale), rtol=1e-12)
    with pytest.raises(ValueError):
        synthetic_capacities(v, s, np.array([0.4, 0.6]), scale)
    with pytest.raises(ValueError):
        synthetic_capacities(v, s, mix, np.array([0.1, -0.2, 0.3]))


def test_synthetic_series_shortage():
    # total mean depth below mean volume: the allocator always has work to do
    v, d = synthetic_darkpool_series(20_000, seed=0, mix=np.array([0.5, 0.5]),
                                     scale=np.array([0.6, 0.15]))
    assert v.mean() > d.mean(axis=0).sum()
    assert v.shape == (20_000,)
    assert d.shape == (20_000, 2)


def test_brute_force_allocation_cases():
    rng = np.random.default_rng(11)
    v = np.exp(0.5 * rng.standard_normal(4_000))
    d1 = 0.4 * np.exp(0.3 * rng.standard_normal(4_000))
    # exchangeable pools with equal rebates: split evenly
    caps = np.column_stack([d1, d1])
    np.testing.assert_allclose(
        brute_force_allocation(v, caps, np.array([0.03, 0.03])), [0.5, 0.5]
    )
    # a pool with no depth gets nothing even at a higher rebate
    caps2 = np.column_stack([d1, np.zeros(4_000)])
    np.testing.assert_allclose(
        brute_force_allocation(v, caps2, np.array([0.03, 0.05])), [1.0, 0.0]
    )
    # the grid covers the two-venue simplex only
    with pytest.raises(ValueError, match="2 pools"):
        brute_force_allocation(v, np.zeros((4_000, 3)), np.full(3, 0.1))
    with pytest.raises(ValueError):
        brute_force_allocation(v, np.zeros((4_000, 4)), np.full(4, 0.1))


def test_relative_cost_reduction_values():
    r = np.array([0.5, 0.5])
    caps = np.array([1.0, 0.2])
    reb = np.array([0.02, 0.04])
    # pool 1 fills 0.5, pool 2 saturates at 0.2
    want = (0.02 * 0.5 + 0.04 * 0.2) / 1.0
    assert relative_cost_reduction(r, 1.0, caps, reb) == pytest.approx(want)
    assert relative_cost_reduction(r, 1.0, np.zeros(2), reb) == 0.0
    full = relative_cost_reduction(np.array([1.0, 0.0]), 1.0, np.array([5.0, 5.0]), reb)
    assert full == pytest.approx(0.02)


def _darkpool_by_hand(v, d, reb, gammas):
    """Allocation path, running mean cost reduction and cumulative clip
    count after every step, from the ``darkpool_step`` loop with the
    component sum renormalised every 10 000 steps."""
    r = np.full(reb.size, 1.0 / reb.size)
    path, mean_cr, clips = [r], [0.0], [0.0]
    cr_sum, clipped_total = 0.0, 0
    for t in range(v.size):
        cr_sum += relative_cost_reduction(r, float(v[t]), d[t], reb)
        r, clipped = darkpool_step(r, float(v[t]), d[t], reb, float(gammas[t]))
        clipped_total += clipped
        if (t + 1) % 10_000 == 0:
            r = r / r.sum()
        path.append(r)
        mean_cr.append(cr_sum / (t + 1))
        clips.append(float(clipped_total))
    return np.array(path), np.array(mean_cr), np.array(clips)


def test_darkpool_run_matches_manual_composition():
    # 10 050 steps cross two gain blocks and the renormalisation at 10 000;
    # the four-venue config's zero-rebate venue makes the safeguard clip
    horizon = 10_050
    sched = StepSchedule(c=2.0, a=0.75)
    for mix, scale, reb in (([0.5, 0.5], [0.6, 0.15], [0.02, 0.05]),
                            ([0.4, 0.6, 0.8, 0.2], [0.1, 0.2, 0.3, 0.2],
                             [0.0, 0.02, 0.04, 0.06])):
        v, d = synthetic_darkpool_series(horizon, seed=2, mix=np.array(mix),
                                         scale=np.array(scale))
        reb = np.array(reb)
        path, mean_cr, clips = _darkpool_by_hand(v, d, reb, sched.gamma_array(horizon))
        assert (clips[-1] > 0) == (reb.min() == 0.0)
        for stride in (1, 7, 4096, 4097, horizon, horizon + 5):
            tr = darkpool_run(v, d, reb, sched, record_stride=stride)
            ns = list(range(0, horizon, stride)) + [horizon]
            assert tr.ns.dtype == np.int64 and tr.thetas.dtype == np.float64
            assert all(m.dtype == np.float64 for m in tr.monitors.values())
            np.testing.assert_array_equal(tr.ns, ns)
            np.testing.assert_array_equal(tr.thetas, path[ns])
            np.testing.assert_array_equal(tr.channel("mean_cost_reduction"), mean_cr[ns])
            np.testing.assert_array_equal(tr.channel("safeguard_count"), clips[ns])


def test_darkpool_run_leaves_its_inputs_untouched():
    # the safeguard repairs the allocation in place, in the array each step
    # makes; on the clipping four-venue series the inputs stay as given
    v, d = synthetic_darkpool_series(10_050, seed=2, mix=np.array([0.4, 0.6, 0.8, 0.2]),
                                     scale=np.array([0.1, 0.2, 0.3, 0.2]))
    reb = np.array([0.0, 0.02, 0.04, 0.06])
    before = v.copy(), d.copy(), reb.copy()
    tr = darkpool_run(v, d, reb, StepSchedule(c=2.0, a=0.75), record_stride=1)
    assert tr.channel("safeguard_count")[-1] > 0
    for given, copy in zip((v, d, reb), before):
        assert np.array_equal(given, copy)


def test_darkpool_run_builds_its_gains_per_block(monkeypatch):
    # like engine.run, the dark-pool walk never holds a horizon of gains
    asked = []
    whole = StepSchedule.gamma_array

    def spy(self, count, start=1):
        asked.append(count)
        return whole(self, count, start)

    monkeypatch.setattr(StepSchedule, "gamma_array", spy)
    v, d = synthetic_darkpool_series(10_000, seed=2, mix=np.array([0.5, 0.5]),
                                     scale=np.array([0.6, 0.15]))
    darkpool_run(v, d, np.array([0.02, 0.05]), StepSchedule(c=2.0, a=0.75))
    assert sum(asked) == 10_000 and max(asked) <= _BLOCK


def test_darkpool_run_tracks_oracle():
    v, d = synthetic_darkpool_series(20_000, seed=7, mix=np.array([0.5, 0.5]),
                                     scale=np.array([0.6, 0.15]))
    reb = np.array([0.02, 0.05])
    best = brute_force_allocation(v, d, reb)
    tr = darkpool_run(v, d, reb, StepSchedule(c=2.0, a=0.75))
    assert float(np.abs(tr.final_theta - best).max()) <= 0.05
    # allocations remain a probability vector throughout
    sums = tr.thetas.sum(axis=1)
    assert float(np.abs(sums - 1.0).max()) <= 1e-12
    # the running cost-reduction channel is recorded and positive by the end
    assert float(tr.channel("mean_cost_reduction")[-1]) > 0.0


def test_darkpool_run_validation():
    v = np.ones(10)
    d = np.ones((10, 2))
    reb = np.array([0.02, 0.05])
    sched = StepSchedule(c=1.0, a=1.0)
    with pytest.raises(ValueError):
        darkpool_run(v, np.ones((5, 2)), reb, sched)
    with pytest.raises(ValueError):
        darkpool_run(v, d, np.array([0.02, 1.0]), sched)


@pytest.mark.parametrize("stride", [2.5, True, "3", 0])
def test_darkpool_run_refuses_a_stride_that_is_not_a_positive_int(stride):
    # the stride check is run's, in the step loop both entry points share
    with pytest.raises(ValueError, match=r"^record_stride must be an integer >= 1, got "):
        darkpool_run(np.ones(10), np.ones((10, 2)), np.array([0.02, 0.05]),
                     StepSchedule(c=1.0, a=1.0), record_stride=stride)


_ONES_V, _ONES_D, _REB2 = np.ones(10), np.ones((10, 2)), np.array([0.02, 0.05])


@pytest.mark.parametrize("series, message", [
    ((np.where(np.arange(10) == 3, np.nan, 1.0), _ONES_D, _REB2),
     r"volumes must be finite; volumes\[3\] is not"),
    ((_ONES_V, np.where(np.arange(20).reshape(10, 2) == 15, np.inf, 1.0), _REB2),
     r"capacities must be finite; capacities\[7, 1\] is not"),
    # a block-wise check still names the entry by its index in the whole series
    ((np.where(np.arange(2 * _BLOCK) == _BLOCK + 5, np.nan, 1.0), np.ones((2 * _BLOCK, 2)), _REB2),
     rf"volumes must be finite; volumes\[{_BLOCK + 5}\] is not"),
    ((np.ones(2 * _BLOCK), np.where(np.arange(4 * _BLOCK).reshape(-1, 2) == 4 * _BLOCK - 1,
                                    -np.inf, 1.0), _REB2),
     rf"capacities must be finite; capacities\[{2 * _BLOCK - 1}, 1\] is not"),
    ((np.where(np.arange(10) == 0, 0.0, 1.0), _ONES_D, _REB2), "volumes must be positive"),
    ((np.where(np.arange(2 * _BLOCK) == 2 * _BLOCK - 1, 0.0, 1.0), np.ones((2 * _BLOCK, 2)), _REB2),
     "volumes must be positive"),
    ((_ONES_V, np.ones((5, 2)), _REB2), r"need volumes \(n,\), capacities \(n, pools\)"),
    ((_ONES_V, _ONES_D, np.array([0.02, 1.0])), r"rebates must lie in \[0, 1\)"),
    # unchecked, the walk returned one record and the oracle answered [0, 1]
    ((np.ones(0), np.ones((0, 2)), _REB2), "at least one order"),
], ids=["nan-volume", "inf-capacity", "nan-volume-block-2", "inf-capacity-block-2", "zero-volume",
        "zero-volume-block-2", "shape-mismatch", "rebate-one", "empty"])
@pytest.mark.parametrize("entry", ["brute_force_allocation", "darkpool_run"])
def test_darkpool_entries_refuse_the_same_series(entry, series, message):
    # the oracle and the recursion read one series; neither may accept
    # what the other refuses (unchecked, the oracle answered [0, 1] for a
    # NaN volume)
    fn = {
        "brute_force_allocation": brute_force_allocation,
        "darkpool_run": lambda *s: darkpool_run(*s, StepSchedule(c=1.0, a=1.0)),
    }[entry]
    with pytest.raises(ValueError, match=message):
        fn(*series)


def test_darkpool_run_rejects_non_finite_series():
    # unchecked, one NaN volume runs through and ends in a NaN allocation
    v, d = synthetic_darkpool_series(2000, 0, mix=[0.5, 0.5], scale=[0.6, 0.15])
    reb = np.array([0.02, 0.05])
    sched = StepSchedule(c=1.0, a=1.0)
    v[100] = np.nan
    with pytest.raises(ValueError, match=r"volumes\[100\]"):
        darkpool_run(v, d, reb, sched)
    v[100] = 1.0
    d[7, 1] = np.inf
    with pytest.raises(ValueError, match=r"capacities\[7, 1\]"):
        darkpool_run(v, d, reb, sched)


def test_darkpool_series_check_memory_is_flat():
    # the series is checked one block at a time; whole-series temporaries
    # were 1.91 MiB at a million orders
    v, d = np.ones(1_000_000), np.ones((1_000_000, 2))
    tracemalloc.start()
    try:
        _checked_series(v, d, _REB2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**18, f"series check peaked at {peak / 2**20:.2f} MiB"


def test_darkpool_run_aborts_on_divergence():
    # a huge gain overflows the allocation into NaN; unguarded, the run
    # returned it and the CLI reported it with status ok
    v, d = synthetic_darkpool_series(2000, 0, mix=[0.5, 0.5], scale=[0.6, 0.15], log_sigma=3.0)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as info:
        darkpool_run(v, d, np.array([0.02, 0.05]), StepSchedule(c=1e308, a=1.0))
    assert info.value.step == 5 and np.isnan(info.value.value).any()
