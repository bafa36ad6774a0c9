"""Number text without a Python string per number: trajectory CSV rows
(``format_rows``) and SVG polyline coordinate pairs (``format_pairs``).

A sub-block of rows is built as a uint8 matrix, with 0 as the pad byte
that is dropped before writing: the ``n`` cell, then ``","`` and each
float cell, then ``"\\n"``.  Each cell holds the bytes Python's ``"%d"``
or ``"%.17g"`` would print for it.  Floats in (1e-6, 1e17) and zeros come
from exact float64 arithmetic (Dekker's product), so the bytes do not
depend on numpy's SIMD level; every other float is formatted by
``"%.17g"`` itself.

Every digit of both comes from one table of 4-byte words, built at
import; the CSV and SVG writers import this module on their first call.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["ROWS", "format_rows", "format_pairs"]

# rows per sub-block: formatting one column of it peaks near 1.6 MiB of
# traced temporaries, and each further column adds its 0.1 MiB of row text
ROWS = 4096

# Text of the 4-digit groups "0000".."9999" as uint32 words, then per
# leading digit d the word (pad, ".", "e", d), per exponent -05 / -06 the
# word (",", "-", "0", "5" / "6"), per hundredths dd the word (".", d, d,
# pad).  A float cell gathers six words, 24 source bytes: pad, ".", "e",
# its 17 digits, ",", "-", "0" and "5" or "6"; its layout picks from them.
_LEAD, _EXP, _CENTS = 10_000, 10_010, 10_012


def _digit_text() -> tuple[np.ndarray, np.ndarray]:
    """The words above, and the trailing zero digits of each 4-digit
    group (4 for "0000")."""
    text = np.zeros((_CENTS + 100, 4), dtype=np.uint8)
    d = np.frombuffer(b"0123456789", dtype=np.uint8)
    g = text[:_LEAD].reshape(10, 10, 10, 10, 4)
    g[..., 0], g[..., 1], g[..., 2], g[..., 3] = (
        d[:, None, None, None], d[:, None, None], d[:, None], d)
    text[_LEAD:_EXP] = [[0, *b".e", digit] for digit in b"0123456789"]
    text[_EXP:_CENTS] = [list(b",-05"), list(b",-06")]
    text[_CENTS:, 0], text[_CENTS:, 1:3] = ord("."), text[:100, 2:]
    z = (text[:_LEAD] == ord("0")).astype(np.uint8)
    trailing = z[:, 3] * (1 + z[:, 2] * (1 + z[:, 1] * (1 + z[:, 0])))
    return text.view(np.uint32).ravel(), trailing


_TEXT, _TRAILING = _digit_text()

# Dekker's split of 5**j, j <= 22 (exact doubles: 5**22 < 2**53)
_SPLIT = 2.0**27 + 1.0
_POW5 = 5.0 ** np.arange(23)
_POW5_HI = _POW5 * _SPLIT - (_POW5 * _SPLIT - _POW5)
_POW5_LO = _POW5 - _POW5_HI


def _float_template(k: int) -> tuple[int, list[int]]:
    """Source byte positions of ``"," + sign + "%.17g" % |v|`` for decimal
    exponent ``k`` with all 17 digits shown, padded to 25, and how many
    digits stand before the point.  ``%g`` prints fixed notation for
    -4 <= k < 17 and ``d.ddde-XX`` below.  The sign position holds the
    pad; the writer fills it."""
    pad, point, e, comma, minus, zero, exp = 0, 1, 2, 20, 21, 22, 23
    digits = list(range(3, 20))
    if k >= 0:
        lead, body = k + 1, digits[:k + 1] + [point] + digits[k + 1:]
    elif k >= -4:
        lead, body = 0, [zero, point] + [zero] * (-k - 1) + digits
    else:
        lead, body = 1, digits[:1] + [point] + digits[1:] + [e, minus, zero, exp]
    return lead, [comma, pad] + body + [pad] * (23 - len(body))


def _float_layouts() -> np.ndarray:
    """(23 * 17, 25) layouts, one per k in -6..16 and kept in 1..17: the
    template with every digit past ``max(kept, lead)`` padded out, and the
    point too when no digit follows it (``%g`` strips trailing zeros)."""
    lead, tmpl = map(np.array, zip(*map(_float_template, range(-6, 17))))
    lead, tmpl = lead[:, None, None], tmpl[:, None, :]
    kept = np.arange(1, 18)[None, :, None]
    digit = (tmpl >= 3) & (tmpl < 20)
    drop = (digit & (tmpl - 3 >= np.maximum(kept, lead))) | ((tmpl == 1) & (kept <= lead))
    return np.where(drop, 0, tmpl).reshape(-1, 25).astype(np.uint8)


_LAYOUTS = _float_layouts()


@functools.cache
def _runs(layout: int) -> tuple:
    """The layout as copies ``(at, start, stop)`` of runs of source bytes, pads left out."""
    lay = _LAYOUTS[layout].astype(np.intp)
    i = np.flatnonzero(lay)
    cut = np.flatnonzero((np.diff(i) != 1) | (np.diff(lay[i]) != 1)) + 1
    return tuple((a[0], s[0], s[-1] + 1) for a, s in zip(np.split(i, cut), np.split(lay[i], cut)))


def _floor_and_tie(x: np.ndarray, k: np.ndarray | int):
    """``N = floor(x * 10**(16 - k))`` and whether rounding that product
    to an integer, half to even, goes up.  ``y = x * 2**j`` is exact, and
    Dekker's product ``y * 5**j = p + err`` is exact in two doubles; when
    ``N`` is in [1e16, 1e17), ``p`` is an integer, so ``N = p + floor(err)``
    and the fraction is ``err - floor(err)``.  ``k`` may be one int for all."""
    j = 16 - k
    y = np.ldexp(x, j)
    p = y * _POW5[j]
    c = y * _SPLIT
    yh = c - (c - y)
    yl = y - yh
    bh, bl = _POW5_HI[j], _POW5_LO[j]
    err = ((yh * bh - p) + yh * bl + yl * bh) + yl * bl
    f = np.floor(err)
    n = p.astype(np.int64) + f.astype(np.int64)
    half = f + 0.5
    return n, (err > half) | ((err == half) & (n & 1 == 1))


def _float_cells(v: np.ndarray) -> np.ndarray:
    """``"," + "%.17g" % x`` for each double ``x`` of ``v``, byte for byte,
    as the rows of an (m, 25) uint8 matrix padded with 0.

    Values in (1e-6, 1e17) and zeros are printed from 17 digits
    ``10**16 <= D < 10**17``: the exact value of ``|x| * 10**(16 - k)``
    rounded half to even, as Python's dtoa rounds it.  ``np.log10`` only
    guesses ``k``; the guess is corrected until the floor of that product
    has 17 digits, so no byte depends on how numpy computes logarithms.
    Rounding never carries into an 18th digit: below each power of ten in
    the domain, the largest double is more than half a unit of the 17th
    digit away.  Every other value (non-finite, subnormal, at most 1e-6
    or at least 1e17 in magnitude) is formatted by ``%.17g`` itself."""
    m = v.size
    a = np.abs(v)
    fast = (a > 1e-6) & (a < 1e17)
    x = np.where(fast, a, 1.0)
    k = np.clip(np.floor(np.log10(x)), -6, 16).astype(np.int64)
    d, up = _floor_and_tie(x, int(k[0]) if m and (k == k[0]).all() else k)   # one k: a scalar
    off = np.flatnonzero((d < 10**16) | (d >= 10**17))
    while off.size:
        k[off] += np.where(d[off] < 10**16, -1, 1)
        d[off], up[off] = _floor_and_tie(x[off], k[off])
        off = off[(d[off] < 10**16) | (d[off] >= 10**17)]
    d += up

    groups = np.empty((m, 6), dtype=np.intp)
    for c in (4, 3, 2, 1):
        q = d // 10_000
        np.subtract(d, q * 10_000, out=groups[:, c])
        d = q
    np.add(d, _LEAD, out=groups[:, 0])
    groups[a == 0.0, 0] = _LEAD                 # zero prints its "0" alone
    np.add(k < -5, _EXP, out=groups[:, 5])
    tz = _TRAILING[groups[:, 4]]
    for c, run in ((3, 4), (2, 8), (1, 12)):
        more = np.flatnonzero(tz == run)
        tz[more] += _TRAILING[groups[more, c]]
    # every index is in range: mode="clip" only skips take's bounds check
    src = np.take(_TEXT, groups, out=np.empty((m, 6), dtype=np.uint32), mode="clip")
    src = src.view(np.uint8).reshape(m, 24)
    # rows take the block's most common layout, copied run by run; the rest are gathered
    layout = (k + 6) * 17 + (16 - tz)
    top = int(np.bincount(layout, minlength=1).argmax())
    cells = np.zeros((m, 25), dtype=np.uint8)
    for at, start, stop in _runs(top):
        cells[:, at:at + stop - start] = src[:, start:stop]
    other = np.flatnonzero(layout != top).astype(np.int32)
    cells[other] = np.take(src, _LAYOUTS[layout[other]] + 24 * other[:, None], mode="clip")
    cells[:, 1] = np.signbit(v) * np.uint8(ord("-"))
    for i in np.flatnonzero(~fast & (a != 0.0)):
        text = ("," + "%.17g" % v[i]).encode()
        cells[i] = 0
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def _blank_head(w: np.ndarray) -> np.ndarray:
    """Group words ``w`` blank before their first nonzero digit, the last
    digit kept; a word's first byte is its low byte (little-endian)."""
    y = (w + 0x4F4F4F4F) & 0x80808080 | 0x80000000   # bit 7 set: "1".."9", or the last byte
    return w & -((y & -y) >> 7)                      # keep from the lowest such byte up


def _int_words(u: np.ndarray) -> np.ndarray:
    """``"%d" % i`` for each nonnegative int ``i`` of ``u``: rows of as many
    4-digit words as the largest ``i`` needs, blank before the first digit."""
    rest, width = u, (len(str(int(u.max(initial=0)))) + 3) // 4
    groups = np.empty((u.size, width), dtype=np.intp)
    for c in range(width - 1, 0, -1):
        q = rest // 10_000
        groups[:, c] = rest - q * 10_000
        rest = q
    groups[:, 0] = rest
    words = np.take(_TEXT, groups, out=np.empty((u.size, width), dtype=np.uint32))
    words[:, 0] = _blank_head(words[:, 0])
    for c in range(1, width):
        short = np.flatnonzero(u < 10 ** (4 * (width - c)))   # no digit before group c
        words[short, c - 1] = 0
        words[short, c] = _blank_head(words[short, c])
    return words


def format_rows(ns: np.ndarray, columns) -> bytes:
    """The CSV lines of one sub-block: ``"%d" % n`` and then
    ``",%.17g" % v`` for each column's value, per row."""
    u = ns.view(np.uint64)
    words = _int_words(np.where(ns < 0, -u, u))     # |n|, exact for -2**63 too
    w = 1 + 4 * words.shape[1]
    mat = np.empty((ns.size, w + 25 * len(columns) + 1), dtype=np.uint8)
    mat[:, 0] = (ns < 0) * np.uint8(ord("-"))
    mat[:, 1:w] = words.view(np.uint8)
    for c, col in enumerate(columns):
        mat[:, w + 25 * c:w + 25 * (c + 1)] = _float_cells(np.asarray(col, dtype=float))
    mat[:, -1] = ord("\n")
    return mat.tobytes().translate(None, b"\0")


def format_pairs(a: np.ndarray, b: np.ndarray) -> str:
    """``" ".join("%.2f,%.2f" % p for p in zip(a, b))``, byte for byte,
    for finite coordinates in ``[0, 2**40)``.

    Each ``v = M / 2**s`` with an integer mantissa ``M < 2**53``, so
    ``100 * M < 2**60`` is exact in int64 and ``100 * v`` rounded half
    to even at bit ``s`` is the integer of hundredths that ``%.2f``
    prints: Python's dtoa rounds the exact binary value, ties to even.
    Its text is the integer part's words, blank before the first digit,
    and a ``".dd"`` word, pads dropped."""
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
    text = np.column_stack([_int_words(whole), _TEXT[_CENTS + cents - 100 * whole]]).view(np.uint8)
    text[0::2, -1], text[1::2, -1] = ord(","), ord(" ")
    # drop the pads, and the block's last space
    return text.tobytes().translate(None, b"\0")[:-1].decode("ascii")
