"""The polyline's integer formatting kernel against Python's ``%.2f``.

``csvtext.format_pairs`` prints ``"%.2f,%.2f"`` pairs from int64
arithmetic on each double's mantissa; these tests hold it to Python's
correctly rounded output where rounding is hardest: exact binary ties and
their neighbours, carries into a new digit, zero and subnormals, and
block edges."""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pytest

from avgsa.csvtext import ROWS as _BLOCK, format_pairs as _format_pairs
from avgsa.plotting import _points, render_line_svg


def reference_pairs(a, b) -> str:
    return " ".join("%.2f,%.2f" % p for p in zip(np.asarray(a).tolist(),
                                                   np.asarray(b).tolist()))


def assert_formats_like_python(values: np.ndarray) -> None:
    values = np.asarray(values, dtype=float)
    if values.size % 2:
        values = np.append(values, 0.0)
    for i in range(0, values.size, 2 * _BLOCK):
        a, b = values[i:i + 2 * _BLOCK:2], values[i + 1:i + 2 * _BLOCK:2]
        assert _format_pairs(a, b) == reference_pairs(a, b)
        # each value in the other coordinate, so both separators see it
        assert _format_pairs(b, a) == reference_pairs(b, a)


def test_kernel_on_decimal_ties_and_their_neighbours():
    # (k + 0.5) / 100 is never exact in binary: the double either side of
    # the decimal tie decides the rounding, as do its two neighbours
    ties = (np.arange(100_000) + 0.5) / 100
    for values in (ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)):
        assert_formats_like_python(values)


def test_kernel_on_exact_binary_ties():
    # k / 8 with k odd ends in 5 in the third decimal: an exact tie,
    # rounded half to even
    eighths = np.arange(100_001) / 8.0
    assert_formats_like_python(eighths)
    assert _format_pairs(np.array([0.125, 0.625]), np.array([0.375, 0.875])) == \
        "0.12,0.38 0.62,0.88"


def test_kernel_on_carries_zero_and_subnormals():
    values = np.array([
        0.995, 9.995, 99.995, 999.995, 9.999999, 99.9999, 999.999,
        0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.004999, 0.005, 0.015,
        2.0**-9, 2.0**40 - 2.0**-12, 2.0**39 + 0.005,
    ])
    assert_formats_like_python(np.concatenate([values, np.nextafter(values, np.inf)]))


def test_kernel_on_random_values():
    rng = np.random.default_rng(19)
    assert_formats_like_python(rng.uniform(0.0, 1000.0, 100_000))
    assert_formats_like_python(rng.uniform(0.0, 10.0, 50_000))
    # the full domain, every binade equally likely
    assert_formats_like_python(2.0 ** rng.uniform(-12.0, 40.0, 50_000))


@pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_points_across_block_edges(n):
    xs = np.arange(n, dtype=float)
    ys = np.sin(xs / 50.0)

    def px(v):
        return 76.0 + v * (624.0 / n)

    def py(v):
        return 213.0 - v * 179.0

    pts = "".join(_points(px, py, xs, ys))
    assert pts == " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(xs.tolist(), ys.tolist()))
    assert pts.count(",") == pts.count(" ") + 1 == n


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [-1.7e308, 1.7e308]),    # y1 - y0 overflows
    ([-1.7e308, 1.7e308], [0.0, 1.0]),    # x1 - x0 overflows
    ([0.0, 1.0], [0.0, 1.75e308]),        # the 4% padding overflows
    ([1e17, 1e17], [0.0, 1.0]),           # + 1.0 cannot widen a flat x
], ids=["y-span", "x-span", "y-padding", "flat-huge-x"])
def test_render_refuses_spans_without_a_plot(x, y):
    # before, the first three wrote NaN coordinates into the SVG and the
    # last raised ZeroDivisionError
    with pytest.raises(ValueError, match="cannot scale the data"):
        render_line_svg(x, y)


# a linear-axis series from exact arithmetic only, so any byte that
# differs comes from the formatting, not from the data
_CHILD = """
import hashlib, re, sys
import numpy as np
from avgsa.plotting import render_line_svg
x = np.arange(1.0, 20_002.0)
y = (x * 7919.0 % 1009.0) / 13.0 - 40.0
doc = render_line_svg(x, y, target=3.5)
pts = re.search(r'<polyline points="([^"]*)"', doc).group(1)
sys.stdout.write(hashlib.sha256(pts.encode()).hexdigest())
"""


def test_polyline_bytes_do_not_depend_on_numpy_simd_level(child_python):
    default = child_python(_CHILD)
    avx2 = child_python(_CHILD, avx512=False)
    assert avx2 == default
    # and the children ran the kernel on the same series as this process
    x = np.arange(1.0, 20_002.0)
    doc = render_line_svg(x, (x * 7919.0 % 1009.0) / 13.0 - 40.0, target=3.5)
    pts = re.search(r'<polyline points="([^"]*)"', doc).group(1)
    assert hashlib.sha256(pts.encode()).hexdigest() == default
