"""Engine unit tests: schedules, admissibility calculus, the recursion
itself, and the delimited output."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from avgsa.engine import (
    AdmissibilityReport,
    DivergenceError,
    RateSpec,
    StepSchedule,
    admissible_power_pair,
    admissible_qsa,
    check_schedule_numeric,
    read_csv_columns,
    run,
    write_trajectory_csv,
)
from avgsa.innovations import _BLOCK, HaltonSource, IidGaussianSource, IidUniformSource


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_power_schedule_values():
    s = StepSchedule(c=8.0, a=1.0)
    np.testing.assert_allclose(s.gamma_array(4), [8.0, 4.0, 8.0 / 3.0, 2.0])


@pytest.mark.parametrize("a", [1.0, 0.75, 0.9, 1.0 / 3.0])
def test_gains_built_per_block_equal_the_whole_sequence(a):
    # run builds its gains one _BLOCK at a time from gamma_array's start;
    # across block boundaries they must be the very bits of the whole array
    s = StepSchedule(c=4.0, a=a)
    horizon = 2 * _BLOCK + 7
    blocks = [s.gamma_array(min(_BLOCK, horizon - n), start=n + 1)
              for n in range(0, horizon, _BLOCK)]
    np.testing.assert_array_equal(np.concatenate(blocks), s.gamma_array(horizon))
    np.testing.assert_array_equal(s.gamma_array(10, start=_BLOCK - 4),
                                  s.gamma_array(horizon)[_BLOCK - 5:_BLOCK + 5])


def test_power_schedule_validation():
    for c, a in [(0.0, 1.0), (1.0, -0.5), (math.nan, 0.75), (math.inf, 0.75),
                 (1.0, math.nan), (1.0, math.inf)]:
        with pytest.raises(ValueError):
            StepSchedule(c=c, a=a)


def test_rate_spec_validation():
    RateSpec(0.5)
    RateSpec(1.0, log_exponent=1.5)
    with pytest.raises(ValueError):
        RateSpec(0.0)
    with pytest.raises(ValueError):
        RateSpec(1.2)
    with pytest.raises(ValueError):
        RateSpec(0.5, log_exponent=-1.0)


# ---------------------------------------------------------------------------
# admissibility: closed forms
# ---------------------------------------------------------------------------

def test_power_pair_rule_frozen_verdicts():
    assert admissible_power_pair(1.0, 0.5).verdict == "admissible"
    assert admissible_power_pair(0.75, 0.5).verdict == "admissible"
    assert admissible_power_pair(0.5, 0.5).verdict == "not-admissible"   # boundary excluded
    assert admissible_power_pair(0.4, 0.5).verdict == "not-admissible"
    assert admissible_power_pair(1.2, 0.5).verdict == "not-admissible"
    assert admissible_power_pair(1.0, 1.0).verdict == "admissible"
    assert admissible_power_pair(0.3, 1.0).verdict == "admissible"
    assert admissible_power_pair(1.0, 1.5).verdict == "not-admissible"   # rate label out of range
    rep = admissible_power_pair(0.4, 0.5)
    assert rep.failed_condition is not None
    assert not rep.ok


def test_qsa_rules():
    assert admissible_qsa("finite-variation", 3, 0.6).verdict == "admissible"
    assert admissible_qsa("finite-variation", 3, 0.5).verdict == "not-admissible"
    assert admissible_qsa("lipschitz", 2, 0.75).verdict == "admissible"
    assert admissible_qsa("lipschitz", 2, 0.5).verdict == "not-admissible"
    assert admissible_qsa("lipschitz", 1, 0.3).verdict == "admissible"
    with pytest.raises(ValueError):
        admissible_qsa("convex", 2, 0.8)


# ---------------------------------------------------------------------------
# admissibility: numerical probe
# ---------------------------------------------------------------------------

def test_probe_blesses_the_canonical_pair():
    rep = check_schedule_numeric(StepSchedule(c=1.0, a=1.0), RateSpec(0.5), 10**6)
    assert rep.verdict == "consistent-with-admissible"
    assert len(rep.detail["checkpoints"]) == 10


def test_probe_rejects_constant_steps():
    rep = check_schedule_numeric(StepSchedule(c=0.1, a=0.0), RateSpec(0.5), 10**6)
    assert rep.verdict == "not-admissible"
    assert "vanish" in rep.failed_condition


def test_probe_rejects_summable_steps():
    rep = check_schedule_numeric(StepSchedule(c=1.0, a=2.0), RateSpec(0.5), 10**6)
    assert rep.verdict == "not-admissible"
    assert "convergent" in rep.failed_condition


def test_probe_never_contradicts_closed_form():
    # seeded sweep over random power pairs: the probe may stay silent but
    # must never call an admissible pair not-admissible, nor endorse an
    # inadmissible one
    rng = np.random.default_rng(90210)
    for _ in range(40):
        a = float(rng.uniform(0.05, 1.5))
        beta = float(rng.uniform(0.05, 1.0))
        closed = admissible_power_pair(a, beta).verdict
        probe = check_schedule_numeric(
            StepSchedule(c=1.0, a=a), RateSpec(beta), 2 * 10**5
        ).verdict
        if probe == "not-admissible":
            assert closed == "not-admissible", (a, beta)
        if probe == "consistent-with-admissible":
            assert closed == "admissible", (a, beta)


# ---------------------------------------------------------------------------
# the recursion
# ---------------------------------------------------------------------------

def test_run_averaging_identity():
    # with H(theta, y) = theta - f(y) and steps 1/n the iterate IS the
    # running mean of f over the innovations, whatever theta_0 was
    src = IidUniformSource(1, seed=31)
    f = lambda y: float(y[0]) ** 2
    traj = run(5.0, src, lambda th, y: th - f(y), StepSchedule(c=1.0, a=1.0), 5_000)
    replay = IidUniformSource(1, seed=31).take_block(5_000)[:, 0]
    assert traj.final_theta[0] == pytest.approx(np.mean(replay**2), abs=1e-12)


def test_run_converges_on_linear_problem():
    src = IidGaussianSource(1, seed=3)
    traj = run(10.0, src, lambda th, y: th - (2.0 + float(y[0])), StepSchedule(c=1.0, a=1.0), 100_000)
    assert abs(traj.final_theta[0] - 2.0) < 0.02


def test_run_vector_iterate():
    src = IidGaussianSource(2, seed=13)
    target = np.array([1.0, -2.0])
    traj = run(
        np.zeros(2), src,
        lambda th, y: th - (target + 0.1 * y),
        StepSchedule(c=1.0, a=1.0), 50_000,
    )
    assert traj.dimension == 2
    np.testing.assert_allclose(traj.final_theta, target, atol=0.02)


def test_run_records_and_monitors():
    src = HaltonSource(1)
    traj = run(
        0.0, src, lambda th, y: th - float(y[0]),
        StepSchedule(c=1.0, a=1.0), 103,
        record_stride=10,
        monitors={"double": lambda n, th: 2.0 * th},
    )
    assert traj.ns[0] == 0 and traj.ns[-1] == 103
    assert list(traj.ns[:3]) == [0, 10, 20]
    np.testing.assert_allclose(traj.monitors["double"], 2.0 * traj.thetas[:, 0])
    assert "double" in traj.channel_names()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_scalar_rows_are_float_tuples(d):
    rows = []
    run(0.0, IidUniformSource(d, seed=2), lambda th, y: rows.append(y) or th,
        StepSchedule(c=1.0, a=1.0), 5_000)
    assert all(type(y) is tuple and len(y) == d for y in rows)
    assert all(type(v) is float for y in rows for v in y)
    np.testing.assert_array_equal(np.array(rows), IidUniformSource(d, seed=2).take_block(5_000))


def test_run_vector_rows_are_numpy_rows():
    rows = []
    run(np.zeros(2), IidUniformSource(2, seed=2), lambda th, y: rows.append(y) or th,
        StepSchedule(c=1.0, a=1.0), 5_000)
    assert all(isinstance(y, np.ndarray) and y.shape == (2,) for y in rows)
    np.testing.assert_array_equal(np.array(rows), IidUniformSource(2, seed=2).take_block(5_000))


def test_run_scalar_loop_sets_off_no_collections():
    # a row that outlived its step (a list per row, say) would trip the
    # generation-0 threshold every few hundred steps
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    src = IidUniformSource(3, seed=0)
    gc.collect()
    gc.callbacks.append(count)
    try:
        run(0.0, src, lambda th, y: th - y[0], StepSchedule(c=1.0, a=1.0), 200_000)
    finally:
        gc.callbacks.remove(count)
    assert len(collections) < 5, collections


def test_run_memory_is_flat_in_horizon():
    # gains built per block keep a run that records only its two ends far
    # below the 3.2 MB that the whole 2e5-step gain sequence holds
    src = IidUniformSource(1, seed=0)
    tracemalloc.start()
    try:
        run(0.0, src, lambda th, y: th - y[0], StepSchedule(c=1.0, a=1.0), 200_000,
            record_stride=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"run peaked at {peak / 2**20:.2f} MB"


# the scalar iterate is guarded with abs, the vector one with the max norm
_GUARD_CASES = pytest.mark.parametrize(
    "theta0, d", [(1.0, 1), ([1.0, 1.0], 2)], ids=["scalar", "vector"]
)


@_GUARD_CASES
def test_run_divergence_guard_trips(theta0, d):
    # -theta with a constant step 2 triples the iterate every step, so it
    # passes the default bound 1e12 at step 26 (3**26 > 1e12 > 3**25)
    src = IidUniformSource(d, seed=0)
    with pytest.raises(DivergenceError) as exc:
        run(theta0, src, lambda th, y: -th, StepSchedule(c=2.0, a=0.0), 10_000)
    assert exc.value.step == 26
    assert "diverged" in str(exc.value)


@_GUARD_CASES
def test_run_guard_catches_nan(theta0, d):
    src = IidUniformSource(d, seed=0)
    nan = float("nan") if d == 1 else [float("nan"), 0.0]
    with pytest.raises(DivergenceError):
        run(theta0, src, lambda th, y: nan, StepSchedule(c=1.0, a=1.0), 10)


# ---------------------------------------------------------------------------
# delimited output
# ---------------------------------------------------------------------------

def test_csv_round_trip_and_byte_identity(tmp_path):
    src = IidGaussianSource(1, seed=8)
    traj = run(
        0.0, src, lambda th, y: th - float(y[0]), StepSchedule(c=1.0, a=1.0), 500,
        record_stride=25, monitors={"sq": lambda n, th: th * th},
    )
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trajectory_csv(traj, p1)
    write_trajectory_csv(traj, p2)
    assert p1.read_bytes() == p2.read_bytes()

    cols = read_csv_columns(p1)
    assert set(cols) == {"n", "theta_0", "sq"}
    np.testing.assert_array_equal(cols["n"], traj.ns)
    # 17 significant digits round-trip to the exact binary doubles
    np.testing.assert_array_equal(cols["theta_0"], traj.thetas[:, 0])
    np.testing.assert_array_equal(cols["sq"], traj.monitors["sq"])


def test_csv_reader_reports_malformed_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("n,theta_0\n0,1.0\n1,2.0,9\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_csv_columns(p)
    p.write_text("n,theta_0\n0,hello\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_csv_columns(p)
