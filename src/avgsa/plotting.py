"""Self-contained SVG line plots, written by hand.

The report path must produce byte-identical artifacts for identical
inputs, so the renderer is a pure function of the data: no timestamps, no
library version strings, no font metrics queried from the host.  One
polyline, two axes, optional horizontal target line, optional log-scaled
x axis.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

__all__ = ["render_line_svg", "write_line_svg"]

# polyline points formatted per block: only one block's point texts are
# alive at a time
_BLOCK = 4096

# canvas geometry (pixels)
_W, _H = 720, 440
_ML, _MR, _MT, _MB = 76, 20, 34, 48

_BG = "#ffffff"
_FG = "#1a1a2e"
_GRID = "#d9d9e3"
_LINE = "#2a6fb0"
_TARGET = "#c0392b"


def _fmt(v: float) -> str:
    """Tick label: short, locale-independent."""
    return f"{v:.4g}"


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks when the span allows, plain subdivision otherwise."""
    d0 = math.ceil(lo - 1e-9)
    d1 = math.floor(hi + 1e-9)
    decades = [float(d) for d in range(d0, d1 + 1)]
    if len(decades) >= 2:
        return decades
    return _ticks(lo, hi)


def render_line_svg(x, y, **kwargs) -> str:
    """Render one series as a complete SVG document string; the keywords
    are those of ``_svg_text``."""
    return "".join(_svg_text(x, y, **kwargs))


def write_line_svg(path, x, y, **kwargs) -> None:
    """Render and write the document a piece at a time, so the file gets
    the bytes of ``render_line_svg`` while only one block of polyline text
    is held; bad data are refused before the file is opened.  Fixed
    newline so the bytes never depend on the platform."""
    pieces = _svg_text(x, y, **kwargs)
    with open(path, "w", newline="\n") as fh:
        fh.writelines(pieces)


def _svg_text(
    x,
    y,
    *,
    title: str = "",
    xlabel: str = "n",
    ylabel: str = "value",
    target: float | None = None,
    logx: bool = False,
) -> Iterator[str]:
    """Check and lay out one series; return an iterator over the pieces
    of its SVG document, in order.  Everything but the polyline's points
    is built here, so a refusal comes before the first piece."""
    # x stays as it comes (a run's int64 step indices): _points converts
    # each block, so no whole-series float copy is made
    xs = np.asarray(x)
    if xs.dtype.kind not in "iuf":
        xs = xs.astype(float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be one-dimensional and of equal length")
    if target is not None and not math.isfinite(float(target)):
        raise ValueError(f"target must be finite, got {target}")
    keep = np.isfinite(xs) & np.isfinite(ys)
    if logx:
        keep &= xs > 0.0
    if np.count_nonzero(keep) < 2:
        raise ValueError("need at least two plottable points")

    # the kept points' ranges, read in place from the first kept point on
    # (an integer x has no infinity to start from); float conversion and
    # log10 are monotone, so the converted extreme is the extreme of the
    # converted values
    first = int(np.argmax(keep))
    x0, x1, y0, y1 = (float(f(v, where=keep, initial=v[first])) for v in (xs, ys)
                      for f in (np.min, np.max))
    if logx:
        x0, x1 = float(np.log10(x0)), float(np.log10(x1))
    if x1 <= x0:
        x1 = x0 + 1.0
    if target is not None:
        y0, y1 = min(y0, float(target)), max(y1, float(target))
    if y1 <= y0:
        pad = max(abs(y0) * 0.1, 1e-12)
        y0, y1 = y0 - pad, y1 + pad
    else:
        pad = 0.04 * (y1 - y0)
        y0, y1 = y0 - pad, y1 + pad

    # the kernel behind the polyline needs both spans positive and finite:
    # then every point maps into the canvas.  A span that overflows a
    # double, or a flat x too large for +1.0 to widen, has no plot.
    if not (0.0 < x1 - x0 < math.inf and 0.0 < y1 - y0 < math.inf):
        raise ValueError(
            f"cannot scale the data: x spans [{x0}, {x1}] and y [{y0}, {y1}]"
        )

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    )
    parts.append(f'<rect width="{_W}" height="{_H}" fill="{_BG}"/>')
    font = 'font-family="Helvetica,Arial,sans-serif"'

    # grid + ticks
    xticks = _log_ticks(x0, x1) if logx else _ticks(x0, x1)
    for t in xticks:
        gx = px(t)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MT}" x2="{gx:.2f}" y2="{_H - _MB}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        label = _fmt(10.0**t) if logx else _fmt(t)
        parts.append(
            f'<text x="{gx:.2f}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="12" {font} fill="{_FG}">{label}</text>'
        )
    for t in _ticks(y0, y1):
        gy = py(t)
        parts.append(
            f'<line x1="{_ML}" y1="{gy:.2f}" x2="{_W - _MR}" y2="{gy:.2f}" '
            f'stroke="{_GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-size="12" {font} fill="{_FG}">{_fmt(t)}</text>'
        )

    # axes frame
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="{_FG}" stroke-width="1"/>'
    )

    # target line
    if target is not None:
        gy = py(float(target))
        parts.append(
            f'<line x1="{_ML}" y1="{gy:.2f}" x2="{_W - _MR}" y2="{gy:.2f}" '
            f'stroke="{_TARGET}" stroke-width="1.5" stroke-dasharray="6,4"/>'
        )
        parts.append(
            f'<text x="{_W - _MR - 4}" y="{gy - 5:.2f}" text-anchor="end" '
            f'font-size="12" {font} fill="{_TARGET}">{_fmt(float(target))}</text>'
        )

    # the series itself: its points are yielded between parts and tail
    tail = [f'" fill="none" stroke="{_LINE}" stroke-width="1.5"/>']

    # labels
    if title:
        tail.append(
            f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" font-size="14" '
            f"{font} fill=\"{_FG}\">{_escape(title)}</text>"
        )
    xl = xlabel + (" (log scale)" if logx else "")
    tail.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" text-anchor="middle" '
        f'font-size="13" {font} fill="{_FG}">{_escape(xl)}</text>'
    )
    tail.append(
        f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'font-size="13" {font} fill="{_FG}" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">{_escape(ylabel)}</text>'
    )
    tail.append("</svg>\n")
    return itertools.chain(["\n".join(parts) + '\n<polyline points="'],
                           _points(px, py, xs, ys, keep, logx), ["\n".join(tail)])


def _points(px, py, xs: np.ndarray, ys: np.ndarray, keep=None,
            logx: bool = False) -> Iterator[str]:
    """Polyline coordinates as space-separated ``x,y`` pairs, yielded a
    block at a time, so only one block's points and digits are alive at
    once.  A block converts its x to float, keeps its points where
    ``keep`` holds (all of them without it) and takes ``log10`` of their x
    when ``logx``; ``px`` and ``py`` map whole slices, which is the same
    float arithmetic in the same order as mapping each point."""
    sep = ""
    for i in range(0, xs.size, _BLOCK):
        a, b = np.asarray(xs[i:i + _BLOCK], dtype=float), ys[i:i + _BLOCK]
        if keep is not None:
            a, b = a[keep[i:i + _BLOCK]], b[keep[i:i + _BLOCK]]
        if a.size:
            yield sep + _format_pairs(px(np.log10(a) if logx else a), py(b))
            sep = " "


def _format_pairs(a: np.ndarray, b: np.ndarray) -> str:
    """``" ".join("%.2f,%.2f" % p for p in zip(a, b))``, byte for byte,
    for finite coordinates in ``[0, 2**40)``.

    Each ``v = M / 2**s`` with an integer mantissa ``M < 2**53``, so
    ``100 * M < 2**60`` is exact in int64 and ``100 * v`` rounded half
    to even at bit ``s`` is the integer of hundredths that ``%.2f``
    prints: Python's dtoa rounds the exact binary value, ties to even.
    Its text is the integer part's words, blank before the first digit,
    and a ``".dd"`` word, from ``csvtext``'s digit table, pads dropped."""
    from avgsa import csvtext      # loaded by the first plot, not by import avgsa

    v = np.empty(2 * a.size)
    v[0::2], v[1::2] = a, b
    mant, exp = np.frexp(v)
    scaled = (mant * 2.0**53).astype(np.int64) * 100
    # below 2**-9 every value prints 0.00; capping the shift keeps it
    # inside int64 without changing that
    shift = np.minimum(53 - exp, 62)
    half = np.left_shift(1, shift - 1, dtype=np.int64)
    # adding half - 1, and one more when the truncated value is odd,
    # rounds half to even
    cents = (scaled + (half - 1) + ((scaled >> shift) & 1)) >> shift

    whole = cents // 100
    text = np.column_stack([csvtext._int_words(whole),
                            csvtext._TEXT[csvtext._CENTS + cents - 100 * whole]]).view(np.uint8)
    text[0::2, -1], text[1::2, -1] = ord(","), ord(" ")
    # drop the pads, and the block's last space
    return text.tobytes().translate(None, b"\0")[:-1].decode("ascii")


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
