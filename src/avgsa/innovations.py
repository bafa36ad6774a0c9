"""Innovation streams that drive the recursive procedures.

The point of this module is that a stochastic-approximation recursion does
not care whether its inputs are genuinely random: any sequence whose
empirical averages settle down at a known rate can play the role of the
noise.  We provide the stream families used throughout the package

* i.i.d. uniform and Gaussian draws (PCG64 underneath),
* low-discrepancy Halton points and Gaussians built from them,
* geometrically mixing AR(1) chains and finite-state Markov chains,
* decreasing-step Euler schemes whose weighted occupation measure
  approximates the invariant law of a diffusion,

together with the exact star discrepancy that measures the quality of a
low-discrepancy point set.

Every source is an :class:`InnovationSource` over a generator of blocks
that holds the stream's state in its local variables.  Only the PCG64
and Halton generators make numbers from scratch; every other generator
maps the blocks of one of them.  A chain's initial state (Markov state
0, the Euler ``y0``) is the first row of its first block.

Every source is deterministic given its construction arguments: the same
seed always reproduces the same stream, element for element, regardless of
how the consumer interleaves single draws and block draws.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "first_primes",
    "halton_block",
    "star_discrepancy_exact",
    "InnovationSource",
    "IidUniformSource",
    "IidGaussianSource",
    "HaltonSource",
    "HaltonGaussianSource",
    "ar1_stationary_scale",
    "Ar1MixingSource",
    "FiniteMarkovChainSource",
    "EulerDecreasingSource",
    "SOURCE_KINDS",
    "make_source",
]

# Rows per block of every stream's generator.  A stream is fixed by the
# blocks its generator yields, so the emitted sequence is independent of
# the pattern of next()/take_block() calls.  Must be even (Gaussian pairs).
_BLOCK = 4096

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# Halton / radical inverse
# ---------------------------------------------------------------------------

def first_primes(q: int) -> list[int]:
    """Return the first ``q`` prime numbers (trial division; q is small)."""
    if q < 1:
        raise ValueError("need at least one prime")
    primes: list[int] = []
    cand = 2
    while len(primes) < q:
        if all(cand % p for p in primes):
            primes.append(cand)
        cand += 1
    return primes


# Digit tables have at most this many entries: k base-b digits are read
# per numpy pass, with b**k <= _DIGIT_TABLE.
_DIGIT_TABLE = 4096


@functools.cache
def _reversed_digits(base: int) -> tuple[int, np.ndarray]:
    """``(k, table)`` with k the largest count of base-b digits whose
    ``base**k`` entries fit in ``_DIGIT_TABLE`` (at least 1):
    ``table[i]`` is the integer whose k base-b digits are those of ``i``
    in reverse order, leading zeros included.  The table is read-only;
    every caller shares it."""
    k = 1
    while base ** (k + 1) <= _DIGIT_TABLE:
        k += 1
    i = np.arange(base**k, dtype=np.int64)
    table = np.zeros(base**k, dtype=np.int64)
    for _ in range(k):
        table = table * base + i % base
        i //= base
    table.flags.writeable = False
    return k, table


def halton_block(start: int, count: int, q: int) -> np.ndarray:
    """Halton points for indices ``start, ..., start+count-1`` as an
    ``(count, q)`` array.

    Digits are mirrored k at a time through a table of reversed k-digit
    strings, then each coordinate is the integer ratio ``rev / b**K``,
    where K is the number of base-b digits of the last index: the
    correctly rounded radical inverse of each index.  That needs both
    integers exact in double precision, so a block whose last index has
    ``b**K > 2**53`` in one of its bases raises ``ValueError``.
    """
    if start < 1:
        raise ValueError("Halton indices start at 1")
    last = start + count - 1
    bases = first_primes(q)
    ndigits = []
    for b in bases:
        K, power = 0, 1
        while power <= last:
            K, power = K + 1, power * b
        if power > 2**53:
            raise ValueError(
                f"Halton index {last} has {K} base-{b} digits and {b}**{K} > 2**53: "
                "its point is not exact in double precision"
            )
        ndigits.append(K)
    idx0 = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((count, q))
    for j, (b, K) in enumerate(zip(bases, ndigits)):
        k, table = _reversed_digits(b)
        chunks, rest = divmod(K, k)
        idx = idx0
        rev = np.zeros(count, dtype=np.int64)
        for _ in range(chunks):
            idx, low = np.divmod(idx, b**k)
            rev = rev * b**k + table[low]
        if rest:
            # idx < b**rest now: its k-digit reversal ends in k-rest zeros
            rev = rev * b**rest + table[idx] // b ** (k - rest)
        out[:, j] = rev / b**K
    return out


# ---------------------------------------------------------------------------
# Gaussian map
# ---------------------------------------------------------------------------

def _gaussians_from_pairs(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Box-Muller map of uniform pairs to independent standard normals:
    radius ``sqrt(-2 log u1)``, angle ``2 pi u2``, returned as interleaved
    (sin, cos) components of length ``2 * len(u1)``.  ``u1`` lies in
    ``(0, 1]`` (``u1 = 1`` gives the origin), ``u2`` in ``[0, 1)``."""
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * u1.size)
    out[0::2] = r * np.sin(_TWO_PI * u2)
    out[1::2] = r * np.cos(_TWO_PI * u2)
    return out


# ---------------------------------------------------------------------------
# Exact star discrepancy
# ---------------------------------------------------------------------------

_DISCREPANCY_BUDGET = 10**8
_SLAB_CELLS = 1 << 16


def _within_discrepancy_budget(n: int, q: int) -> bool:
    """Whether ``(n+1)**q * q <= 1e8``: ``n`` points span a critical grid of
    up to ``(n+1)**q`` corners (each axis's distinct coordinates plus 1.0).
    Past the budget's bit length ``(n+1)**q`` is over budget without being
    formed, so a huge ``q`` builds no huge integer."""
    m = n + 1
    return ((m.bit_length() - 1) * q < _DISCREPANCY_BUDGET.bit_length()
            and m**q * q <= _DISCREPANCY_BUDGET)


def star_discrepancy_exact(points: np.ndarray) -> float:
    """Exact star discrepancy of a point set in ``[0, 1)^q``.

    The supremum over anchored boxes ``[0, x)`` of
    ``| #(points in box)/n - volume |`` is attained on the critical grid
    whose coordinates are the point coordinates themselves (plus 1.0), each
    corner being tested with both the closed and the open box.  The grid is
    walked in slabs of whole first-axis rows of at most ``_SLAB_CELLS``
    cells (one row when a row is larger), so memory is set by the slab,
    not by the grid.  Time grows like the ``(n+1)^q`` grid, so a budget
    guard rejects inputs with ``(n+1)**q * q > 1e8``.

    Accepts an ``(n, q)`` array or a length-n vector (treated as 1D).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a non-empty (n, q) point array")
    n, q = pts.shape
    if not np.all((pts >= 0.0) & (pts < 1.0)):
        raise ValueError("points must lie in [0, 1)^q")
    if not _within_discrepancy_budget(n, q):
        raise ValueError(f"{n} points in dimension {q} exceed the exact discrepancy budget, "
                         f"(n+1)**q * q <= {_DISCREPANCY_BUDGET:.0e}")

    # Candidate grid per dimension: sorted point coordinates plus 1.0;
    # each point falls in one cell, numbered row-major.
    cands = [np.unique(np.concatenate([pts[:, j], [1.0]])) for j in range(q)]
    shape = tuple(c.size for c in cands)
    cells = np.sort(np.ravel_multi_index(
        tuple(np.searchsorted(c, pts[:, j]) for j, c in enumerate(cands)), shape))
    row = shape[1:]
    row_cells = math.prod(row)
    rows = max(1, _SLAB_CELLS // row_cells)
    inner = (slice(None),) + (slice(1, None),) * (q - 1)
    outer = (slice(None),) + (slice(None, -1),) * (q - 1)
    best = 0.0
    carry = np.zeros((1,) + row, dtype=np.int64)  # closed counts of the row before the slab
    for a in range(0, shape[0], rows):
        b = min(a + rows, shape[0])
        lo, hi = np.searchsorted(cells, (a * row_cells, b * row_cells))
        closed = np.bincount(cells[lo:hi] - a * row_cells, minlength=(b - a) * row_cells)
        closed = closed.reshape((b - a,) + row)
        for ax in range(q):
            np.cumsum(closed, axis=ax, out=closed)
        closed += carry
        vol = cands[0][a:b]
        for c in cands[1:]:
            vol = np.multiply.outer(vol, c)
        # open box at a corner: the closed count one grid step down in
        # every axis; a corner at index 0 of a later axis has an empty
        # open box, so its gap is its volume
        below = np.concatenate([carry, closed[:-1]])
        best = max(best, np.max(closed / n - vol), np.max(vol[inner] - below[outer] / n),
                   *(np.max(vol[(slice(None),) * j + (0,)]) for j in range(1, q)))
        carry = closed[-1:]
    return float(best)


# ---------------------------------------------------------------------------
# Innovation sources
# ---------------------------------------------------------------------------

class InnovationSource:
    """A stream of innovation rows cut from ``blocks``, an iterator of
    ``(m, dimension)`` arrays: each source of this module passes a
    generator that yields ``_BLOCK`` rows at a time (the Halton sources
    end on a shorter block at their last exact index), so the emitted
    sequence never depends on how it is consumed.  A generator that
    raised is finished: the stream then ends with ``StopIteration``."""

    def __init__(self, dimension: int, blocks: Iterator[np.ndarray]):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._blocks = blocks
        self._buf = np.empty((0, dimension))
        self._pos = 0

    def next(self) -> np.ndarray:
        """Next innovation as a length-``dimension`` vector."""
        if self._pos >= len(self._buf):
            self._buf, self._pos = next(self._blocks), 0
        row = self._buf[self._pos]
        self._pos += 1
        return row

    def take_block(self, count: int) -> np.ndarray:
        """Next ``count`` innovations as an ``(count, dimension)`` array.
        ``take_block(0)`` returns an empty array and leaves the stream
        where it is."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        parts = [np.empty((0, self.dimension))]
        need = count
        while need > 0:
            if self._pos >= len(self._buf):
                self._buf, self._pos = next(self._blocks), 0
            take = min(need, len(self._buf) - self._pos)
            parts.append(self._buf[self._pos : self._pos + take])
            self._pos += take
            need -= take
        return np.concatenate(parts)


def _uniform_blocks(seed: int, shape) -> Iterator[np.ndarray]:
    """Blocks of ``shape`` uniforms on ``[0, 1)`` from one PCG64 stream,
    seeded here, so a bad seed is refused before the first draw."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return (rng.random(shape) for _ in itertools.repeat(None))


class IidUniformSource(InnovationSource):
    """Independent uniforms on ``[0, 1)^q`` from a PCG64 generator."""

    def __init__(self, dimension: int = 1, seed: int = 0):
        super().__init__(dimension, _uniform_blocks(seed, (_BLOCK, dimension)))


def _gaussian_blocks(dimension: int, seed: int) -> Iterator[np.ndarray]:
    """Blocks of :class:`IidGaussianSource`; ``1 - u`` maps ``[0, 1)`` to
    ``(0, 1]`` for the logarithm."""
    return (_gaussians_from_pairs(1.0 - u[0], u[1]).reshape(_BLOCK, dimension)
            for u in _uniform_blocks(seed, (2, _BLOCK * dimension // 2)))


class IidGaussianSource(InnovationSource):
    """Independent standard normals: ``_BLOCK * dimension`` uniforms of an
    :class:`IidUniformSource` per block, halves as the ``(u1, u2)`` of each
    pair, through the same Box-Muller map the quasi-Monte Carlo sources
    use, so an i.i.d. run and a low-discrepancy run differ only in the
    underlying uniforms."""

    def __init__(self, dimension: int = 1, seed: int = 0):
        super().__init__(dimension, _gaussian_blocks(dimension, seed))


def _halton_blocks(q: int, start: int) -> Iterator[np.ndarray]:
    """Blocks of :class:`HaltonSource`; ``last`` is the least ``b**K - 1``
    over the bases, ``b**K`` the largest power of ``b`` not above ``2**53``."""
    last = math.inf
    for b in first_primes(q):
        power = b
        while power * b <= 2**53:
            power *= b
        last = min(last, power - 1)
    while True:
        # a start past the last exact index keeps one row, which
        # halton_block refuses
        count = max(1, min(_BLOCK, last - start + 1))
        yield halton_block(start, count, q)
        start += count


class HaltonSource(InnovationSource):
    """Deterministic Halton stream in ``q`` dimensions, 1-indexed.  Its
    last block ends at the last index :func:`halton_block` computes
    exactly, so every such index can be drawn."""

    def __init__(self, dimension: int = 1, start: int = 1):
        super().__init__(dimension, _halton_blocks(dimension, start))
        if start < 1:
            raise ValueError("Halton indices start at 1")


class HaltonGaussianSource(InnovationSource):
    """Gaussian vectors obtained by pushing consecutive coordinate pairs of
    a Halton stream through the Box-Muller map.  A q-dimensional output row
    consumes one point of the Halton stream of dimension ``2*ceil(q/2)``,
    block for block; for odd q the final cosine component is dropped."""

    def __init__(self, dimension: int = 1, start: int = 1):
        super().__init__(dimension, (
            _gaussians_from_pairs(p[:, 0::2].ravel(), p[:, 1::2].ravel())
            .reshape(len(p), -1)[:, :dimension]
            for p in _halton_blocks(2 * ((dimension + 1) // 2), start)))
        if start < 1:
            raise ValueError("Halton indices start at 1")


# A block of a dyadic AR(1) chain with a value below this magnitude is
# redone by the per-row loop: see Ar1MixingSource.
_SCALED_FLOOR = 2.0**-1000


def _dyadic_scales(a: float) -> tuple[np.ndarray, np.ndarray] | None:
    """``(s, 1/s)`` as read-only ``(L, 1)`` columns, ``s_k = a**-k`` for
    ``k < L = 1008 // m``, when ``a = +-2**-m`` with ``1 <= m <= 22``;
    ``None`` for any other ``a``."""
    mantissa, e = math.frexp(a)
    m = 1 - e
    if abs(mantissa) != 0.5 or not 1 <= m <= 22:
        return None
    return _scale_tables(m, a < 0.0)


@functools.cache
def _scale_tables(m: int, negative: bool) -> tuple[np.ndarray, np.ndarray]:
    """Tables of :func:`_dyadic_scales`, built on first use.  Every entry
    is a signed power of two between ``2**-1008`` and ``2**1008``, so the
    tables are exact."""
    k = np.arange(1008 // m)
    sign = np.where(negative & (k % 2 == 1), -1.0, 1.0)
    s, inv = np.ldexp(sign, m * k)[:, None], np.ldexp(sign, -m * k)[:, None]
    s.flags.writeable = inv.flags.writeable = False
    return s, inv


def _scaled_chain(z: np.ndarray, x: np.ndarray, a: float) -> np.ndarray | None:
    """The chain over the noise block ``z`` from the state ``x`` by the
    scaled running sum, or ``None`` when ``a`` is not dyadic or the output
    has a zero, a value below ``_SCALED_FLOOR`` or a non-finite value."""
    scales = _dyadic_scales(a)
    if scales is None:
        return None
    s, inv = scales
    out = np.empty_like(z)
    for i in range(0, len(z), len(s)):
        w = out[i : i + len(s)]
        np.multiply(z[i : i + len(s)], s[: len(w)], out=w)
        w[0] += a * x
        np.add.accumulate(w, axis=0, out=w)
        w *= inv[: len(w)]
        x = w[-1]
    r = np.abs(out)
    return out if r.min() >= _SCALED_FLOOR and r.max() < math.inf else None


def _loop_chain(z: np.ndarray, x: np.ndarray, a: float) -> np.ndarray:
    """The chain over the noise block ``z`` from ``x``, one row at a time."""
    out = np.empty_like(z)
    for j in range(z.shape[1]):
        xj = float(x[j])
        col = []
        for zi in z[:, j].tolist():
            xj = a * xj + zi
            col.append(xj)
        out[:, j] = col
    return out


def _ar1_blocks(noise: Iterator[np.ndarray], a: float, d: int) -> Iterator[np.ndarray]:
    """Blocks of the chain ``x' = a x + z`` from 0, one per block of ``noise``."""
    a, x = float(a), np.zeros(d)
    for z in noise:
        out = _scaled_chain(z, x, a)
        if out is None:
            out = _loop_chain(z, x, a)
        x = out[-1].copy()
        yield out


def ar1_stationary_scale(a: float) -> float:
    """Stationary standard deviation ``1/sqrt(1 - a*a)`` of the chain
    ``x' = a x + z``, ``|a| < 1``; ``a * a`` is correctly rounded, libm's
    ``a**2`` is for some ``a`` one ulp off."""
    return 1.0 / math.sqrt(1.0 - a * a)


class Ar1MixingSource(InnovationSource):
    """Geometrically mixing linear autoregression ``x' = a x + z`` with
    standard normal increments (componentwise independent chains when the
    dimension exceeds one).  With ``a = 0`` the stream reduces to its
    i.i.d. Gaussian noise.  The chain starts at 0: its first row is the
    first increment.

    Every row is ``fl(fl(a x) + z)``, the two IEEE operations of the
    per-row loop, whichever of two paths computes it.  A dyadic
    coefficient ``a = +-2**-m`` (``1 <= m <= 22``; 0.5, the default,
    among them) takes a scaled running sum; any other coefficient takes
    the loop.  With ``s_k = a**-k`` the scaled chain ``w_k = s_k x_k``
    obeys ``w_k = fl(w_{k-1} + s_k z_k)``: ``s_k a = s_{k-1}`` exactly,
    and scaling by a signed power of two commutes with rounding while
    nothing overflows or leaves the normal range.  So each run of
    ``L = 1008 // m`` rows is one ``np.add.accumulate`` (a left fold, no
    reassociation) over ``fl(a x_prev) + z_0, s_1 z_1, s_2 z_2, ...``,
    multiplied back by ``1/s_k``; no ``s_k`` passes ``2**1008``.  The
    equality needs ``fl(a x) = a x``, which holds for ``|x| >= 2**-1000``
    at ``m <= 22``, and a nonzero ``x``: with ``a < 0`` an exact 0 would
    come back as -0.0.  A block whose output has a zero, a value below
    ``2**-1000`` in magnitude or a non-finite value is therefore redone
    by the loop on the same noise, so both paths give the same bits.
    """

    def __init__(self, dimension: int = 1, seed: int = 0, a: float = 0.5):
        super().__init__(dimension, _ar1_blocks(_gaussian_blocks(dimension, seed), a, dimension))
        if not abs(a) < 1.0:
            raise ValueError(f"|a| < 1 required for mixing, got {a}")


def _markov_blocks(rows: list, values: np.ndarray, uniforms: Iterator) -> Iterator[np.ndarray]:
    """Blocks of :class:`FiniteMarkovChainSource`, one per block of
    ``uniforms``; ``skip`` is 1 on the first block only."""
    bisect_right = bisect.bisect_right
    s, skip = 0, 1
    for u in uniforms:
        states = [s] * skip
        for ui in u[skip:].tolist():
            s = bisect_right(rows[s], ui)
            states.append(s)
        skip = 0
        yield values[states]


class FiniteMarkovChainSource(InnovationSource):
    """Homogeneous finite-state Markov chain emitting per-state values.

    ``transition`` is a row-stochastic matrix, ``values`` assigns a vector
    (or scalar) to each state.  The chain starts in state 0, whose value
    is the first row of the first block; it then moves according to the
    matrix, driven by one uniform of a PCG64 stream per row, the first
    row's uniform unused.
    """

    def __init__(self, transition: np.ndarray, values: np.ndarray, seed: int = 0):
        P = np.asarray(transition, dtype=float)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise ValueError("transition matrix must be square")
        if np.any(P < 0.0) or not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("transition matrix rows must be probability vectors")
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != P.shape[0]:
            raise ValueError("one value row per state required")
        super().__init__(vals.shape[1], _markov_blocks(
            np.cumsum(P, axis=1).tolist(), vals, _uniform_blocks(seed, _BLOCK)))


def _euler_blocks(drift, diffusion, step0: float, exponent: float, y: float,
                  noise: Iterator[np.ndarray]) -> Iterator[np.ndarray]:
    """Blocks of :class:`EulerDecreasingSource` from ``y``, one per block
    of ``noise``; ``skip`` is 1 on the first block only."""
    g0, neg_r, sqrt = step0, -exponent, math.sqrt
    n, skip = 0, 1  # n counts the transitions applied so far
    for z in noise:
        ys = [y] * skip
        for zi in z[skip:, 0].tolist():
            n += 1
            gam = g0 * n**neg_r
            y = y + gam * drift(y) + sqrt(gam) * diffusion(y) * zi
            ys.append(y)
        skip = 0
        out = np.empty((len(z), 1))
        out[:, 0] = ys
        yield out


class EulerDecreasingSource(InnovationSource):
    """Decreasing-step Euler scheme of a scalar diffusion, emitted as an
    innovation stream starting from the initial condition.

    The n-th transition uses step ``step0 * n**(-exponent)`` and an
    independent standard normal.  With ``exponent`` in (0, 1) the steps
    vanish while their partial sums diverge, and the occupation measure of
    the emitted sequence approximates the invariant law of the diffusion.

    The first row is ``y0`` itself: the first row of the first block,
    ahead of the per-row loop.  The normal drawn for that row goes
    unused, so row ``n`` always pairs with normal ``n`` of the underlying
    stream.
    """

    def __init__(self, drift: Callable[[float], float], diffusion: Callable[[float], float],
                 step0: float, exponent: float, y0: float = 0.0, seed: int = 0):
        if not 0.0 < step0 < math.inf:
            raise ValueError(f"step0 must be positive and finite, got {step0}")
        if not 0.0 < exponent < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
        super().__init__(1, _euler_blocks(drift, diffusion, step0, exponent, float(y0),
                                          _gaussian_blocks(1, seed)))


SOURCE_KINDS = (
    "iid-uniform",
    "iid-gaussian",
    "halton",
    "halton-gaussian",
    "ar1-mixing",
    "finite-markov-chain",
)


def make_source(kind: str, dimension: int = 1, seed: int = 0, **params) -> InnovationSource:
    """Construct an innovation source from a flat description.

    This is the entry point the configuration layer uses; unknown kinds and
    unknown parameters are hard errors.  ``SOURCE_KINDS`` lists exactly the
    kinds built here; an Euler source carries drift and diffusion callables
    and is built directly (see ``investment.cir_innovation_source``).
    """
    if kind == "iid-uniform":
        _reject_extra(kind, params)
        return IidUniformSource(dimension, seed)
    if kind == "iid-gaussian":
        _reject_extra(kind, params)
        return IidGaussianSource(dimension, seed)
    if kind in ("halton", "halton-gaussian"):
        start = params.pop("start", 1)
        _reject_extra(kind, params)
        cls = HaltonSource if kind == "halton" else HaltonGaussianSource
        return cls(dimension, start=start)
    if kind == "ar1-mixing":
        a = params.pop("a", 0.5)
        _reject_extra(kind, params)
        return Ar1MixingSource(dimension, seed, a=a)
    if kind == "finite-markov-chain":
        try:
            transition = params.pop("transition")
            values = params.pop("values")
        except KeyError as exc:
            raise ValueError(f"finite-markov-chain requires {exc.args[0]!r}") from None
        _reject_extra(kind, params)
        return FiniteMarkovChainSource(transition, values, seed)
    raise ValueError(f"unknown innovation kind {kind!r}; known: {', '.join(SOURCE_KINDS)}")


def _reject_extra(kind: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(params)}")
