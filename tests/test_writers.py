"""The CSV and SVG writers against their row-by-row reference forms, and
their memory use on long trajectories.

The references below are the writers as they were before formatting went
block-wise: one Python conversion per cell and per point.  The block-wise
writers must produce the same bytes, non-finite values, signed zeros and
subnormals included."""

from __future__ import annotations

import collections
import functools
import hashlib
import re
import tracemalloc

import numpy as np
import pytest

from avgsa.engine import StepSchedule, Trajectory, read_csv_columns, run, write_trajectory_csv
from avgsa.innovations import IidUniformSource
from avgsa.plotting import _H, _MB, _ML, _MR, _MT, _W, render_line_svg, write_line_svg


# ---------------------------------------------------------------------------
# reference forms
# ---------------------------------------------------------------------------

def reference_csv(traj: Trajectory) -> bytes:
    names = ["n"] + traj.channel_names()
    cols = [traj.ns] + [traj.channel(c) for c in traj.channel_names()]
    lines = [",".join(names) + "\n"]
    for i in range(len(traj.ns)):
        row = [str(int(traj.ns[i]))]
        row += [f"{float(col[i]):.17g}" for col in cols[1:]]
        lines.append(",".join(row) + "\n")
    return "".join(lines).encode()


def reference_points(x, y, *, target=None, logx=False) -> str:
    """The polyline's ``points`` attribute, one point at a time."""
    xs = np.asarray(x, dtype=float)
    ys = np.asarray(y, dtype=float)
    keep = np.isfinite(xs) & np.isfinite(ys)
    if logx:
        keep &= xs > 0.0
    xs, ys = xs[keep], ys[keep]
    if logx:
        xs = np.log10(xs)
    x0, x1 = float(xs.min()), float(xs.max())
    if x1 <= x0:
        x1 = x0 + 1.0
    y0, y1 = float(ys.min()), float(ys.max())
    if target is not None:
        y0, y1 = min(y0, float(target)), max(y1, float(target))
    if y1 <= y0:
        pad = max(abs(y0) * 0.1, 1e-12)
        y0, y1 = y0 - pad, y1 + pad
    else:
        pad = 0.04 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

    def px(v: float) -> float:
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v: float) -> float:
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs, ys))


def _csv_bytes(traj, tmp_path) -> bytes:
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    return path.read_bytes()


def _points(doc: str) -> str:
    return re.search(r'<polyline points="([^"]*)"', doc).group(1)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

def test_csv_matches_reference_over_partial_blocks(tmp_path):
    # 10 001 records: two full 4096-row blocks and a partial third
    traj = run(
        0.25, IidUniformSource(1, seed=4), lambda th, y: th - y[0],
        StepSchedule(c=1.0, a=0.7), 10_000,
        monitors={"sq": lambda n, th: th * th, "n_half": lambda n, th: n / 2},
    )
    assert len(traj.ns) == 10_001
    assert _csv_bytes(traj, tmp_path) == reference_csv(traj)


def test_csv_matches_reference_for_vector_iterate(tmp_path):
    traj = run(
        np.zeros(3), IidUniformSource(3, seed=5), lambda th, y: th - y,
        StepSchedule(c=1.0, a=1.0), 5_000, record_stride=3,
    )
    assert _csv_bytes(traj, tmp_path) == reference_csv(traj)


def test_csv_matches_reference_on_edge_values(tmp_path):
    edge = [-0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1e300,
            -1e-300, 0.1, 1.0 / 3.0, 2.0**53 + 1.0]
    k = len(edge)
    traj = Trajectory(
        ns=np.arange(k, dtype=np.int64) * 10**12,
        thetas=np.array(edge[::-1]).reshape(k, 1),
        monitors={"edge": np.array(edge)},
    )
    data = _csv_bytes(traj, tmp_path)
    assert data == reference_csv(traj)
    assert data.splitlines()[1] == b"0,9007199254740992,-0"
    for text in (b",nan", b",inf", b",-inf", b",4.9406564584124654e-324",
                 b",1.0000000000000001e+300"):
        assert text in data


def test_csv_matches_reference_for_table_without_iterate(tmp_path):
    # shaped like the discrepancy run: zero theta columns, two monitors
    ns = np.asarray([1 << k for k in range(4, 9)], dtype=np.int64)
    table = Trajectory(
        ns=ns,
        thetas=np.empty((ns.size, 0)),
        monitors={"dstar_halton": np.log(ns) / ns, "dstar_iid": 1.0 / np.sqrt(ns)},
    )
    data = _csv_bytes(table, tmp_path)
    assert data == reference_csv(table)
    assert data.startswith(b"n,dstar_halton,dstar_iid\n16,")


# ---------------------------------------------------------------------------
# CSV cell kernel: exact 17-digit rounding, where it is hardest
# ---------------------------------------------------------------------------

def assert_csv_like_reference(values, tmp_path, ns=None) -> None:
    """Each value as theta and, negated, as a monitor, against the
    row-by-row reference."""
    values = np.asarray(values, dtype=float)
    traj = Trajectory(
        ns=np.arange(values.size, dtype=np.int64) if ns is None else ns,
        thetas=values.reshape(-1, 1),
        monitors={"neg": -values},
    )
    assert _csv_bytes(traj, tmp_path) == reference_csv(traj)


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):        # the largest double's step up is inf
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


def test_csv_kernel_on_ties_and_their_neighbours(tmp_path):
    # exact halfway cases at the 17th digit, rounded half to even, and the
    # doubles either side of them
    i = np.arange(20_000)
    for ties in (1e15 + i / 4, 1e14 + i / 8, 0.0625 + i * 2.0**-20):
        assert_csv_like_reference(_with_neighbours(ties), tmp_path)


def test_csv_kernel_on_powers_of_ten_and_their_neighbours(tmp_path):
    # where log10's guess of the exponent can be one off, and the largest
    # double below each power: the only place 17 digits could round up to 18
    powers = [float(f"1e{k}") for k in range(-22, 18)]
    assert_csv_like_reference(_with_neighbours(powers + [-p for p in powers]), tmp_path)


def test_csv_kernel_on_domain_edges_and_special_values(tmp_path):
    edges = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, 1e-310,
             2.2250738585072014e-308, 1e-6, 1e-5, 1e-4, 1e16, 1e17,
             2.0**53, 2.0**53 + 2.0, 1e300, np.finfo(float).max]
    assert_csv_like_reference(_with_neighbours(edges + [-e for e in edges]), tmp_path)


def test_csv_kernel_on_random_values_and_bit_patterns(tmp_path):
    rng = np.random.default_rng(20)
    # every decade from 1e-8 to 1e18 equally likely, both signs
    spread = 10.0 ** rng.uniform(-8.0, 18.0, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    assert_csv_like_reference(spread, tmp_path)
    bits = rng.integers(-2**63, 2**63 - 1, 100_000, dtype=np.int64, endpoint=True)
    assert_csv_like_reference(bits.view(np.float64), tmp_path)


def test_csv_kernel_on_int64_extremes(tmp_path):
    big = np.iinfo(np.int64)
    edges = [big.min, big.min + 1, -10**18, -10**4, -9_999, -1, 0, 1, 9, 10,
             9_999, 10_000, 10**16 - 1, 10**16, 10**18, big.max - 1, big.max]
    rng = np.random.default_rng(21)
    ns = np.concatenate([np.array(edges, dtype=np.int64),
                         rng.integers(big.min, big.max, 5_000, dtype=np.int64, endpoint=True)])
    assert_csv_like_reference(np.linspace(-1.0, 1.0, ns.size), tmp_path, ns=ns)


def test_csv_reader_round_trips_the_kernel_values_bit_for_bit(tmp_path):
    # what read_csv_columns relies on: numpy's parser turns each 17-digit
    # cell back into the double it was written from
    edges = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-310,
             2.2250738585072014e-308, 1e-6, 1e17, 2.0**53 + 2.0, np.finfo(float).max]
    rng = np.random.default_rng(20)
    values = np.concatenate([
        _with_neighbours(edges + [-e for e in edges]),
        10.0 ** rng.uniform(-8.0, 18.0, 20_000) * rng.choice([-1.0, 1.0], 20_000),
        rng.integers(-2**63, 2**63 - 1, 20_000, dtype=np.int64, endpoint=True).view(np.float64),
    ])
    ns = np.arange(values.size, dtype=np.int64) * (2**53 // values.size)
    traj = Trajectory(ns=ns, thetas=values.reshape(-1, 1), monitors={"neg": -values})
    path = tmp_path / "t.csv"
    write_trajectory_csv(traj, path)
    cols = read_csv_columns(path)
    assert np.array_equal(cols["n"], ns.astype(float))
    for name, want in (("theta_0", values), ("neg", -values)):
        got = cols[name]
        nan = np.isnan(want)
        assert nan.any() and np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("rows", [4095, 4096, 4097])
def test_csv_kernel_across_block_edges(rows, tmp_path):
    # n crosses from 4 to 5 digits inside the file, so blocks differ in width
    ns = np.arange(rows, dtype=np.int64) * 7
    assert_csv_like_reference(np.sin(ns / 100.0) * 10.0 ** (ns % 23 - 8), tmp_path, ns=ns)


# a trajectory from exact arithmetic only (no transcendental functions),
# so any byte that differs comes from the writer, not from the data
_FIXED_TRAJECTORY = """
import numpy as np
from avgsa.engine import Trajectory
i = np.arange(1.0, 10_002.0)
powers = np.array([float(f"1e{k}") for k in range(-6, 17)])
edge = np.resize(np.concatenate([powers, np.nextafter(powers, 0.0)]), i.size)
traj = Trajectory(ns=np.arange(i.size, dtype=np.int64),
                  thetas=((i * 7919.0 % 1009.0) / 13.0 - 40.0).reshape(-1, 1),
                  monitors={"inv": 1.0 / i, "edge": edge * (i % 3 - 1)})
"""

# Whole 4096-row blocks shaped for the float kernel's per-block paths: one
# decimal exponent and one layout; one exponent with a few rows of other
# trailing-zero counts; each exponent from -6 to 16 with one outlier row;
# values the kernel hands to "%.17g" among fast ones; and a block whose
# first row is the outlier.  Integers divided by powers of ten parsed from
# text, so every process builds the same doubles at any SIMD level.
_FAST_PATH_BLOCKS = """
import numpy as np
from avgsa.engine import Trajectory
rng = np.random.default_rng(25)
R = 4096


def draws(k, m):
    # m doubles of decimal exponent k
    return rng.integers(10**16 + 1, 9 * 10**16, m) / float(f"1e{16 - k}")


def digits(k, m):
    # m doubles of decimal exponent k whose 17th digit is not 0
    v = draws(k, 2 * m)
    return v[np.array([("%.16e" % x)[17] != "0" for x in v.tolist()])][:m]


blocks = {"one-layout": digits(-1, R), "few-zeros": digits(3, R)}
blocks["few-zeros"][[7, 1000, R - 1]] = [1234.5, 1000.25, 2048.0]
for k in range(-6, 17):
    blocks[f"exponent {k}"] = draws(k, R)
    blocks[f"exponent {k}"][rng.integers(R)] = draws(k + 5 if k < 5 else k - 7, 1)[0]
blocks["slow"] = draws(0, R)
blocks["slow"][[0, 9, 99, 999, 2000, 3000, 3500, 4000, R - 2, R - 1]] = [
    np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1e-6, -1e-7, 1e17, 0.0, -0.0]
blocks["first-row-outlier"] = digits(-2, R)
blocks["first-row-outlier"][0] = digits(5, 1)[0]
values = np.concatenate(list(blocks.values()))
fast_traj = Trajectory(ns=np.arange(values.size, dtype=np.int64) * 3,
                       thetas=values.reshape(-1, 1), monitors={"neg": -values})
"""
_CHILD_CSV = _FIXED_TRAJECTORY + _FAST_PATH_BLOCKS + """
import hashlib, sys
from avgsa.engine import write_trajectory_csv
for t, path in ((traj, sys.argv[1]), (fast_traj, sys.argv[2])):
    write_trajectory_csv(t, path)
    with open(path, "rb") as fh:
        sys.stdout.write(hashlib.sha256(fh.read()).hexdigest() + "\\n")
"""


def test_csv_bytes_do_not_depend_on_numpy_simd_level(tmp_path, child_python):
    default = child_python(_CHILD_CSV, tmp_path / "default.csv", tmp_path / "default-fast.csv")
    avx2 = child_python(_CHILD_CSV, tmp_path / "avx2.csv", tmp_path / "avx2-fast.csv",
                        avx512=False)
    assert avx2 == default
    # and the files are the row-by-row reference's
    scope: dict = {}
    exec(_FIXED_TRAJECTORY + _FAST_PATH_BLOCKS, scope)
    assert "".join(hashlib.sha256(reference_csv(scope[t])).hexdigest() + "\n"
                   for t in ("traj", "fast_traj")) == default


@functools.cache
def _fast_path_blocks() -> dict:
    scope: dict = {}
    exec(_FAST_PATH_BLOCKS, scope)
    return scope["blocks"]


def _exponents_and_trailing_zeros(values) -> list:
    """Each double's decimal exponent and the trailing zeros of its 17
    significant digits, as Python's ``%.16e`` prints them."""
    out = []
    for x in values.tolist():
        mantissa, exponent = ("%.16e" % abs(x)).split("e")
        digits = mantissa.replace(".", "")
        out.append((int(exponent), len(digits) - len(digits.rstrip("0"))))
    return out


def test_csv_block_of_one_exponent_and_one_layout(tmp_path):
    block = _fast_path_blocks()["one-layout"]
    assert block.size == 4096 and len(set(_exponents_and_trailing_zeros(block))) == 1
    # every row's log10 guess is the same k, so the exact product runs on scalars
    assert np.unique(np.floor(np.log10(block))).tolist() == [-1.0]
    assert_csv_like_reference(block, tmp_path)


def test_csv_block_of_one_exponent_with_other_trailing_zero_counts(tmp_path):
    block = _fast_path_blocks()["few-zeros"]
    shapes = collections.Counter(_exponents_and_trailing_zeros(block))
    # 1234.5, 1000.25 and the integer 2048 among 4093 rows of 17 digits
    assert shapes == {(3, 0): 4093, (3, 12): 1, (3, 11): 1, (3, 13): 1}
    assert_csv_like_reference(block, tmp_path)


def test_csv_blocks_of_each_exponent_with_one_outlier_row(tmp_path):
    blocks = _fast_path_blocks()
    for k in range(-6, 17):
        exponents = collections.Counter(e for e, _ in _exponents_and_trailing_zeros(
            blocks[f"exponent {k}"]))
        assert exponents[k] == 4095 and len(exponents) == 2
    # one file, so the writer's 4096-row sub-blocks are these blocks
    assert_csv_like_reference(np.concatenate([blocks[f"exponent {k}"] for k in range(-6, 17)]),
                              tmp_path)


def test_csv_block_with_slow_path_values(tmp_path):
    block = _fast_path_blocks()["slow"]
    a = np.abs(block)
    # NaN, both infinities, two subnormals, 1e-6, 1e-7 and 1e17 go to
    # "%.17g"; the two zeros stay on the kernel's path
    assert np.isnan(block).sum() == 1 and np.isinf(block).sum() == 2
    assert ((a > 0) & (a < np.finfo(float).tiny)).sum() == 2 and (a == 0).sum() == 2
    assert (~((a > 1e-6) & (a < 1e17))).sum() == 10
    assert_csv_like_reference(block, tmp_path)


def test_csv_block_whose_first_row_is_the_outlier(tmp_path):
    blocks = _fast_path_blocks()
    shapes = _exponents_and_trailing_zeros(blocks["first-row-outlier"])
    assert shapes[0][0] == 5 and {e for e, _ in shapes[1:]} == {-2}
    # after a block of its own, so the outlier opens the writer's second sub-block
    assert_csv_like_reference(np.concatenate([blocks["one-layout"], blocks["first-row-outlier"]]),
                              tmp_path)


# ---------------------------------------------------------------------------
# SVG polyline
# ---------------------------------------------------------------------------

def _long_series():
    # more than two blocks of points, with points the renderer drops
    n = 9_001
    x = np.arange(n, dtype=float)            # x = 0 is dropped on a log axis
    y = np.sin(x / 300.0) * np.exp(-x / 4000.0)
    y[[5, 4096, 8191]] = [np.nan, np.inf, -np.inf]
    x[[17, 6000]] = [np.nan, np.inf]
    return x, y


@pytest.mark.parametrize(
    "target, logx", [(None, False), (0.5, False), (None, True), (-0.25, True)],
)
def test_svg_polyline_matches_reference(target, logx):
    x, y = _long_series()
    doc = render_line_svg(x, y, target=target, logx=logx)
    pts = _points(doc)
    assert pts == reference_points(x, y, target=target, logx=logx)
    kept = np.isfinite(x) & np.isfinite(y) & ((x > 0.0) if logx else True)
    assert pts.count(",") == int(kept.sum()) > 2 * 4096


def test_svg_polyline_matches_reference_on_flat_and_tiny_series():
    for x, y in (([1.0, 2.0], [-0.0, -0.0]), ([3.0, 3.0], [5e-324, 1e300]),
                 ([1.0, 10.0, 100.0], [1e-300, -1e-300, 0.0])):
        assert _points(render_line_svg(x, y)) == reference_points(x, y)


# ---------------------------------------------------------------------------
# memory: block-wise writing keeps the peak far below a whole-file join
# ---------------------------------------------------------------------------

# A whole-file join of either output at this size holds every row's text
# object and every cell's Python float at once, which peaks well above
# this; the block-wise writers stay at a few MB.
_PEAK_LIMIT = 8 * 2**20
_ROWS = 100_001


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_writer_memory_is_flat_in_rows(tmp_path):
    ns = np.arange(_ROWS, dtype=np.int64)
    theta = np.sin(ns * 0.001)
    traj = Trajectory(ns=ns, thetas=theta.reshape(-1, 1),
                      monitors={"sq": theta * theta})
    peak = _peak_bytes(lambda: write_trajectory_csv(traj, tmp_path / "big.csv"))
    assert peak < _PEAK_LIMIT, f"CSV writer peaked at {peak / 2**20:.1f} MB"


def test_svg_renderer_memory_is_flat_in_points():
    x = np.arange(1, _ROWS + 1, dtype=float)
    y = 1.0 / np.sqrt(x)
    peak = _peak_bytes(lambda: render_line_svg(x, y, target=0.0, logx=True))
    assert peak < _PEAK_LIMIT, f"SVG renderer peaked at {peak / 2**20:.1f} MB"


# the document is written a piece at a time, and the ranges and each
# block of points are scanned, filtered and mapped a block at a time, so
# the peak is one block's formatting (0.80 MiB here) at any length; a
# whole-series float copy of the points would add 0.76 MiB each
_SVG_WRITE_LIMIT = 3 * 2**20 // 2


def test_svg_writer_memory_holds_no_document(tmp_path):
    x = np.arange(1, _ROWS + 1, dtype=float)
    y = 1.0 / np.sqrt(x)
    path = tmp_path / "big.svg"
    peak = _peak_bytes(lambda: write_line_svg(path, x, y, target=0.0, logx=True))
    assert peak < _SVG_WRITE_LIMIT, f"SVG writer peaked at {peak / 2**20:.2f} MiB"
    assert path.read_text() == render_line_svg(x, y, target=0.0, logx=True)


def test_svg_writer_memory_is_flat_in_points(tmp_path):
    # the same plot at ten times the points peaks within 5%: no mask, range
    # or copy as long as the series is made (a whole-series byte mask
    # peaked at 0.89 MiB for 1e5 points and 1.97 MiB for 1e6)
    peaks = []
    for n in (_ROWS, 10 * _ROWS):
        ns = np.arange(n, dtype=np.int64)
        y = 1.0 / np.sqrt(ns + 1.0)
        write = lambda: write_line_svg(tmp_path / "p.svg", ns, y, target=0.0, logx=True)
        write()                             # numpy's first calls fill its caches
        peaks.append(_peak_bytes(write))
    assert peaks[1] <= 1.05 * peaks[0] and peaks[1] < _SVG_WRITE_LIMIT, peaks


def test_svg_of_int64_x_has_the_float_bytes_and_no_float_copy(tmp_path):
    # a run's steps come as int64: each block is converted on its own, so
    # the writer peaks no higher than on the same steps given as floats
    ns = np.arange(_ROWS, dtype=np.int64)
    xf = ns.astype(float)
    y = 1.0 / np.sqrt(xf + 1.0)
    for logx in (False, True):
        a, b = tmp_path / "int.svg", tmp_path / "float.svg"
        write_int = lambda: write_line_svg(a, ns, y, target=0.0, logx=logx)
        write_float = lambda: write_line_svg(b, xf, y, target=0.0, logx=logx)
        write_int(), write_float()          # numpy's first calls fill its caches
        peak_int, peak_float = _peak_bytes(write_int), _peak_bytes(write_float)
        assert a.read_bytes() == b.read_bytes()
        # equal up to a few bytes of scalars (0.91 MiB each); a whole-series
        # float copy of x would add 0.76 MiB
        assert peak_int <= peak_float + 1024, f"{peak_int} > {peak_float} bytes"
    # steps past 2**53 round as their float conversion does
    big = np.arange(2**53 - 3, 2**53 + 6, dtype=np.int64)
    yb = np.linspace(0.0, 1.0, big.size)
    assert render_line_svg(big, yb) == render_line_svg(big.astype(float), yb)
