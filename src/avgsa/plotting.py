"""Self-contained SVG line plots, written by hand.

The report path must produce byte-identical artifacts for identical
inputs, so the renderer is a pure function of the data: no timestamps, no
library version strings, no font metrics queried from the host.  One
polyline, two axes, optional horizontal target line, optional log-scaled
x axis.  This module lays out the document, its chrome through the
``_line`` and ``_text`` element helpers; the polyline's ``x,y`` pairs
are printed by ``csvtext.format_pairs``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

import numpy as np

__all__ = ["render_line_svg", "write_line_svg"]

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
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)] if hi > lo else [lo]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks when the span allows, plain subdivision otherwise."""
    decades = [float(d) for d in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    return decades if len(decades) >= 2 else _ticks(lo, hi)


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
    is built here, so a refusal comes before the first piece.  x stays as
    it comes (a run's int64 steps): ``_plottable`` scans the points a block
    at a time, here for their count and ranges, in ``_points`` for the line."""
    xs = np.asarray(x)
    if xs.dtype.kind not in "iuf":
        xs = xs.astype(float)
    ys = np.asarray(y, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be one-dimensional and of equal length")
    if target is not None and not math.isfinite(float(target)):
        raise ValueError(f"target must be finite, got {target}")
    count, x0, x1, y0, y1 = 0, math.inf, -math.inf, math.inf, -math.inf
    for a, b in _plottable(xs, ys, logx):
        if a.size:
            count += a.size
            x0, x1 = min(x0, float(a.min())), max(x1, float(a.max()))
            y0, y1 = min(y0, float(b.min())), max(y1, float(b.max()))
    if count < 2:
        raise ValueError("need at least two plottable points")

    # log10 is monotone, so the log of the extreme is the extreme of the logs
    if logx:
        x0, x1 = float(np.log10(x0)), float(np.log10(x1))
    if x1 <= x0:
        x1 = x0 + 1.0
    if target is not None:
        y0, y1 = min(y0, float(target)), max(y1, float(target))
    pad = max(abs(y0) * 0.1, 1e-12) if y1 <= y0 else 0.04 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    # the kernel behind the polyline needs both spans positive and finite:
    # then every point maps into the canvas.  A span that overflows a
    # double, or a flat x too large for +1.0 to widen, has no plot.
    if not (0.0 < x1 - x0 < math.inf and 0.0 < y1 - y0 < math.inf):
        raise ValueError(f"cannot scale the data: x spans [{x0}, {x1}] and y [{y0}, {y1}]")

    def px(v):
        return _ML + (v - x0) / (x1 - x0) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - y0) / (y1 - y0) * (_H - _MT - _MB)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
             f'viewBox="0 0 {_W} {_H}">',
             f'<rect width="{_W}" height="{_H}" fill="{_BG}"/>']
    # grid + ticks
    for t in _log_ticks(x0, x1) if logx else _ticks(x0, x1):
        gx = px(t)
        parts += [_line(gx, _MT, gx, _H - _MB, _GRID),
                  _text(gx, _H - _MB + 18, _fmt(10.0**t if logx else t))]
    for t in _ticks(y0, y1):
        gy = py(t)
        parts += [_line(_ML, gy, _W - _MR, gy, _GRID),
                  _text(_ML - 8, gy + 4, _fmt(t), anchor="end")]
    # axes frame
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="{_FG}" stroke-width="1"/>'
    )
    if target is not None:
        gy = py(float(target))
        parts += [_line(_ML, gy, _W - _MR, gy, _TARGET,
                        'stroke-width="1.5" stroke-dasharray="6,4"'),
                  _text(_W - _MR - 4, gy - 5, _fmt(float(target)), anchor="end", fill=_TARGET)]

    # the series itself: its points are yielded between parts and tail
    tail = [f'" fill="none" stroke="{_LINE}" stroke-width="1.5"/>']
    # labels
    if title:
        tail.append(_text(_W // 2, 20, title, size=14))
    tail.append(_text((_ML + _W - _MR) // 2, _H - 10,
                      xlabel + (" (log scale)" if logx else ""), size=13))
    mid = (_MT + _H - _MB) // 2
    tail += [_text(16, mid, ylabel, size=13, extra=f' transform="rotate(-90 16 {mid})"'),
             "</svg>\n"]
    return itertools.chain(["\n".join(parts) + '\n<polyline points="'],
                           _points(px, py, xs, ys, logx), ["\n".join(tail)])


def _plottable(xs: np.ndarray, ys: np.ndarray, logx: bool) -> Iterator[tuple]:
    """Each ``csvtext.ROWS`` block's plottable points: x as float, both
    coordinates finite, and x > 0 on a log axis."""
    from avgsa import csvtext      # loaded by the first plot, not by import avgsa

    for i in range(0, xs.size, csvtext.ROWS):
        a, b = np.asarray(xs[i:i + csvtext.ROWS], dtype=float), ys[i:i + csvtext.ROWS]
        keep = np.isfinite(a) & np.isfinite(b)
        if logx:
            keep &= a > 0.0
        a, b = a[keep], b[keep]     # the converted block is not held while these are formatted
        yield a, b


def _points(px, py, xs: np.ndarray, ys: np.ndarray, logx: bool = False) -> Iterator[str]:
    """Polyline coordinates as space-separated ``x,y`` pairs, a block of
    ``_plottable`` points at a time; ``px`` and ``py`` map whole slices, the
    same float arithmetic in the same order as mapping each point."""
    from avgsa import csvtext

    sep = ""
    for a, b in _plottable(xs, ys, logx):
        if a.size:
            yield sep + csvtext.format_pairs(px(np.log10(a) if logx else a), py(b))
            sep = " "


def _num(v) -> str:
    """An attribute's coordinate: an int as it is, a float to hundredths."""
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1, y1, x2, y2, stroke: str, style: str = 'stroke-width="1"') -> str:
    return (f'<line x1="{_num(x1)}" y1="{_num(y1)}" x2="{_num(x2)}" y2="{_num(y2)}" '
            f'stroke="{stroke}" {style}/>')


def _text(x, y, body: str, *, anchor: str = "middle", size: int = 12, fill: str = _FG,
          extra: str = "") -> str:
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return (f'<text x="{_num(x)}" y="{_num(y)}" text-anchor="{anchor}" font-size="{size}" '
            f'font-family="Helvetica,Arial,sans-serif" fill="{fill}"{extra}>{body}</text>')
