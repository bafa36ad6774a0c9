"""Engine unit tests: schedules, admissibility calculus, the recursion
itself, and the delimited output."""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from avgsa.diagnostics import ErrorPath, fit_rate
from avgsa.engine import (
    AdmissibilityReport,
    DivergenceError,
    RateSpec,
    StepSchedule,
    Trajectory,
    admissible_power_pair,
    admissible_qsa,
    check_schedule_numeric,
    read_csv_columns,
    run,
    write_trajectory_csv,
)
from avgsa.innovations import (
    _BLOCK,
    HaltonSource,
    IidGaussianSource,
    IidUniformSource,
    InnovationSource,
)


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
    with pytest.raises(ValueError):
        RateSpec(0.0)
    with pytest.raises(ValueError):
        RateSpec(1.2)


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
    assert admissible_qsa(3, 0.6).verdict == "admissible"
    assert admissible_qsa(3, 0.5).verdict == "not-admissible"
    # a merely Lipschitz field averages like log n * n**(-1/q): the power
    # rule at beta = 1/q, which accepts 1 - 1/q < a <= 1
    assert admissible_power_pair(0.75, 1 / 2).verdict == "admissible"
    assert admissible_power_pair(0.5, 1 / 2).verdict == "not-admissible"
    assert admissible_power_pair(0.3, 1 / 1).verdict == "admissible"
    for q in (1, 2, 3, 5):
        for a in (0.0, 0.25, 0.5, 2 / 3, 0.7, 0.75, 0.8, 1.0, 1.1):
            assert admissible_power_pair(a, 1 / q).ok == (1 - 1 / q < a <= 1)


# ---------------------------------------------------------------------------
# admissibility: numerical probe
# ---------------------------------------------------------------------------

def test_probe_blesses_the_canonical_pair():
    rep = check_schedule_numeric(StepSchedule(c=1.0, a=1.0), RateSpec(0.5), 10**6)
    assert rep.verdict == "consistent-with-admissible"


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


@pytest.mark.parametrize("name", ["theta_-1", "theta_01", "theta_2", "theta_x"])
def test_channel_accepts_only_channel_names(name):
    traj = Trajectory(ns=np.arange(3), thetas=np.arange(6.0).reshape(3, 2),
                      monitors={"m": np.ones(3)})
    assert traj.channel_names() == ["theta_0", "theta_1", "m"]
    np.testing.assert_array_equal(traj.channel("theta_1"), [1.0, 3.0, 5.0])
    with pytest.raises(KeyError, match="no channel"):
        traj.channel(name)


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


@pytest.mark.parametrize("points", [100_001, 1_000_001])
def test_fit_rate_memory_is_flat_in_path_length(points):
    # the rate fit reads the error path a block at a time, twice; a fit on
    # whole-path arrays of logs peaks at 7.8 MiB on 1e5 points, 78 MiB on 1e6
    ns = np.arange(points)
    errors = 1.0 / np.sqrt(ns + 1.0)
    errors[::97] = 0.0                       # dropped points in every block
    tracemalloc.start()
    try:
        fit_rate(ErrorPath(ns=ns, errors=errors))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"fit_rate peaked at {peak / 2**20:.2f} MB"


def _run_by_hand(theta0, rows, gains, field, stride, monitors):
    """``run``'s records from a plain step loop: the iterate and each
    monitor at ``0, stride, 2 stride, ...`` below the horizon and at it."""
    x, horizon = theta0, len(gains)
    ns, thetas, values = [], [], {name: [] for name in monitors}
    for n in range(horizon + 1):
        if n % stride == 0 or n == horizon:
            ns.append(n)
            thetas.append(np.array(x, dtype=float).ravel())
            for name, fn in monitors.items():
                values[name].append(float(fn(n, x)))
        if n < horizon:
            x = x - gains[n] * field(x, rows[n])
    return np.array(ns), np.array(thetas), {k: np.array(v) for k, v in values.items()}


_HAND_HORIZON = 2 * _BLOCK + 1_815         # not a multiple of the block


@pytest.mark.parametrize("stride", [1, 3, 4096, 4097, _HAND_HORIZON, _HAND_HORIZON + 5])
@pytest.mark.parametrize("theta0, monitors", [
    (0.25, {}),
    (0.25, {"sq": lambda n, th: th * th, "n_half": lambda n, th: n / 2}),
    (np.array([0.25, -1.0]), {"norm": lambda n, th: math.hypot(*th)}),
], ids=["scalar", "scalar-monitors", "d2-monitor"])
def test_recorder_matches_a_hand_loop(theta0, monitors, stride):
    d, sched = np.size(theta0), StepSchedule(c=1.0, a=0.7)
    field = (lambda th, y: th - y[0]) if d == 1 else (lambda th, y: th - y)
    traj = run(theta0, IidUniformSource(d, seed=4), field, sched, _HAND_HORIZON,
               record_stride=stride, monitors=monitors)
    rows = IidUniformSource(d, seed=4).take_block(_HAND_HORIZON)
    ns, thetas, values = _run_by_hand(theta0, rows if d > 1 else rows.tolist(),
                                      sched.gamma_array(_HAND_HORIZON).tolist(),
                                      field, stride, monitors)
    assert traj.ns.dtype == np.int64 and np.array_equal(traj.ns, ns)
    assert traj.ns.size == math.ceil(_HAND_HORIZON / stride) + 1   # what validate_config caps
    assert traj.thetas.dtype == np.float64 and np.array_equal(traj.thetas, thetas)
    assert list(traj.monitors) == list(values)
    for name, col in values.items():
        assert traj.monitors[name].dtype == np.float64
        assert np.array_equal(traj.monitors[name], col)


def test_recorder_stores_each_monitor_value_as_its_float():
    traj = run(0.5, IidUniformSource(1, seed=0), lambda th, y: th - y[0],
               StepSchedule(c=1.0, a=1.0), 10, record_stride=3, monitors={
                   "f64": lambda n, th: np.float64(n) / 4,
                   "int": lambda n, th: n * 3,
                   "bool": lambda n, th: n % 2 == 0,
               })
    np.testing.assert_array_equal(traj.ns, [0, 3, 6, 9, 10])
    for name, want in (("f64", [0.0, 0.75, 1.5, 2.25, 2.5]),
                       ("int", [0.0, 9.0, 18.0, 27.0, 30.0]),
                       ("bool", [1.0, 0.0, 1.0, 0.0, 1.0])):
        assert traj.monitors[name].dtype == np.float64
        assert traj.monitors[name].tolist() == want


@pytest.mark.parametrize("theta0, name", [
    (0.0, "n"), (0.0, "theta_0"), ([0.0, 0.0], "theta_1"),
])
def test_run_refuses_a_monitor_named_like_a_column(theta0, name):
    steps = []
    with pytest.raises(ValueError, match=f"monitor '{name}' collides"):
        run(theta0, IidUniformSource(np.size(theta0), seed=0),
            lambda th, y: steps.append(1) or th, StepSchedule(c=1.0, a=1.0), 10,
            monitors={"ok": lambda n, th: 0.0, name: lambda n, th: -1.0})
    assert steps == []
    # a name that is not a column of this path is a plain monitor
    traj = run(0.0, IidUniformSource(1, seed=0), lambda th, y: th, StepSchedule(c=1.0, a=1.0),
               10, monitors={"theta_1": lambda n, th: 1.0})
    assert traj.channel_names() == ["theta_0", "theta_1"]


def test_run_memory_at_stride_one_is_the_flat_records():
    # flat buffers hold 8 bytes per record per column: 1e5 records of theta
    # and one monitor, plus ns, are 2.4 MB; a Python object per record
    # would be several times that
    src = IidUniformSource(1, seed=0)
    tracemalloc.start()
    try:
        run(0.0, src, lambda th, y: th - y[0], StepSchedule(c=1.0, a=1.0), 100_000,
            monitors={"abs_error": lambda n, th: abs(th - 0.5)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"run peaked at {peak / 2**20:.2f} MiB"


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
    assert str(exc.value).startswith("iterate diverged at step 26: |theta| > 1e+12 (theta = ")


@_GUARD_CASES
def test_run_guard_catches_nan(theta0, d):
    src = IidUniformSource(d, seed=0)
    nan = float("nan") if d == 1 else [float("nan"), 0.0]
    # a NaN iterate never passed the bound, so the message names its cause
    with pytest.raises(DivergenceError, match=r"^iterate diverged at step 1: theta is not finite \(theta = "):
        run(theta0, src, lambda th, y: nan, StepSchedule(c=1.0, a=1.0), 10)


def _one_row_blocks(dimension: int, k: int, value: float):
    """Blocks of zeros but for ``value`` in every column of row ``k``."""
    for start in itertools.count(0, _BLOCK):
        rows = np.zeros((_BLOCK, dimension))
        if start <= k < start + _BLOCK:
            rows[k - start] = value
        yield rows


@_GUARD_CASES
@pytest.mark.parametrize("k", [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 8])
@pytest.mark.parametrize("value, cause", [(math.nan, "theta is not finite"),
                                          (1e13, "|theta| > 1e+12")], ids=["nan", "bound"])
def test_run_guard_names_the_step_at_block_edges(theta0, d, k, value, cause):
    # a unit constant step makes theta_{n+1} = y_n, so row k's value is the
    # iterate after step k + 1, whichever block row k falls in
    field = (lambda th, y: th - y[0]) if d == 1 else (lambda th, y: th - y)
    source = InnovationSource(d, _one_row_blocks(d, k, value))
    with pytest.raises(DivergenceError) as exc:
        run(theta0, source, field, StepSchedule(c=1.0, a=0.0), 3 * _BLOCK)
    assert exc.value.step == k + 1
    assert str(exc.value).startswith(f"iterate diverged at step {k + 1}: {cause} (theta = ")


@_GUARD_CASES
@pytest.mark.parametrize("k", [0, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 8])
def test_run_aborts_on_an_arithmetic_error_at_its_step(theta0, d, k):
    # a field that raises on row k aborts the run like a divergence, at
    # step k + 1, naming the error; before, the exception escaped the run
    def field(th, y):
        math.exp(1000.0 * y[0])             # overflows on row k alone
        return th - (y[0] if d == 1 else y)

    source = InnovationSource(d, _one_row_blocks(d, k, 1.0))
    with pytest.raises(DivergenceError) as exc:
        run(theta0, source, field, StepSchedule(c=1.0, a=0.0), 3 * _BLOCK)
    assert exc.value.step == k + 1 and isinstance(exc.value.__cause__, OverflowError)
    assert str(exc.value).startswith(
        f"iterate diverged at step {k + 1}: OverflowError: math range error (theta = ")


@pytest.mark.parametrize("stride", [2.5, 1.0, True, False, "3", None, 0, -4])
def test_run_refuses_a_stride_that_is_not_a_positive_int(stride):
    # a float stride used to step the whole horizon and then fail to
    # reshape the records; True was taken as 1
    steps = []
    with pytest.raises(ValueError, match=r"^record_stride must be an integer >= 1, got "):
        run(0.0, IidUniformSource(1, seed=0), lambda th, y: steps.append(1) or th,
            StepSchedule(c=1.0, a=1.0), 10, record_stride=stride)
    assert steps == []


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


def test_csv_reader_returns_n_as_exact_int64(tmp_path):
    # steps above 2**53 have no exact double; n comes back as int64 and
    # every other column as float64
    ns = np.array([0, 2**53 + 1, 2**62 + 3, 2**63 - 1], dtype=np.int64)
    p = tmp_path / "big_n.csv"
    write_trajectory_csv(Trajectory(ns, np.array([[0.5], [-1.0], [2.5], [3.0]]), {}), p)
    cols = read_csv_columns(p)
    assert cols["n"].dtype == np.int64 and cols["n"].tolist() == ns.tolist()
    assert cols["theta_0"].dtype == np.float64
    assert cols["theta_0"].tolist() == [0.5, -1.0, 2.5, 3.0]


@pytest.mark.parametrize("cell", ["1.5", "2.0", "1e3", "nan", "1_0", "9223372036854775808"])
def test_csv_reader_refuses_a_non_integer_n(tmp_path, cell):
    p = tmp_path / "frac.csv"
    p.write_text(f"n,a\n0,1.0\n{cell},2.0\n")
    with pytest.raises(ValueError) as info:
        read_csv_columns(p)
    assert str(info.value) == f"{p}:3: n must be a 64-bit integer, got {cell!r}"


def test_csv_reader_reports_malformed_rows(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("n,theta_0\n0,1.0\n1,2.0,9\n")
    with pytest.raises(ValueError, match="bad.csv:3"):
        read_csv_columns(p)
    p.write_text("n,theta_0\n0,hello\n")
    with pytest.raises(ValueError, match="bad.csv:2"):
        read_csv_columns(p)


def test_csv_reader_refuses_a_repeated_column(tmp_path):
    # a header with a name twice has no one column to return for it
    p = tmp_path / "twice.csv"
    p.write_text("n,theta_0,theta_0,n\n0,0.5,1.0,-1.0\n")
    with pytest.raises(ValueError, match="twice.csv:1: column 'theta_0' appears twice"):
        read_csv_columns(p)


def test_csv_reader_skips_empty_lines_and_reads_a_header_alone(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("n,a\n0,1.5\n\n1,-2.5\n")
    cols = read_csv_columns(p)
    assert cols["n"].tolist() == [0.0, 1.0] and cols["a"].tolist() == [1.5, -2.5]
    p.write_text("n,a\n")
    assert {k: v.shape for k, v in read_csv_columns(p).items()} == {"n": (0,), "a": (0,)}
    p.write_text("n,a\n0,1.5\n1,2.5,9\n")       # the first row fits, the second not
    with pytest.raises(ValueError, match="t.csv:3: expected 2 fields, found 3"):
        read_csv_columns(p)
    p.write_text("n,a,b\n0,1.5\n1,2.5\n")       # every row short by one
    with pytest.raises(ValueError, match="t.csv:2: expected 3 fields, found 2"):
        read_csv_columns(p)
