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
low-discrepancy point set.  Only ``IidUniformSource`` and ``HaltonSource``
generate numbers from scratch; every other source maps one of them.

Every source is deterministic given its construction arguments: the same
seed always reproduces the same stream, element for element, regardless of
how the consumer interleaves single draws and block draws.
"""

from __future__ import annotations

import bisect
import functools
import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "first_primes",
    "radical_inverse",
    "halton_point",
    "halton_block",
    "box_muller_pair",
    "star_discrepancy_exact",
    "InnovationSource",
    "IidUniformSource",
    "IidGaussianSource",
    "HaltonSource",
    "HaltonGaussianSource",
    "Ar1MixingSource",
    "FiniteMarkovChainSource",
    "EulerDecreasingSource",
    "SOURCE_KINDS",
    "make_source",
]

# Fixed internal buffer size.  Sources materialise their output in chunks of
# this many rows so that the emitted sequence is independent of the pattern
# of next()/take_block() calls.  Must be even (Gaussian pairs).
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


def radical_inverse(n: int, base: int) -> float:
    """Radical inverse of the integer ``n >= 1`` in the given base.

    Digits of ``n`` are mirrored around the radix point:
    ``n = d_0 + d_1 b + d_2 b^2 + ...``  maps to ``d_0/b + d_1/b^2 + ...``.
    Pure integer arithmetic until the final division, so the result is the
    correctly rounded double.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    rev = 0
    denom = 1
    while n > 0:
        n, digit = divmod(n, base)
        rev = rev * base + digit
        denom *= base
    return rev / denom


def halton_point(n: int, q: int) -> np.ndarray:
    """n-th point (1-indexed) of the q-dimensional Halton sequence.

    Coordinate ``i`` is the radical inverse of ``n`` in the i-th prime
    base.  Starting the count at ``n = 1`` keeps every coordinate strictly
    inside ``(0, 1)``, which matters downstream (the Box-Muller map takes a
    logarithm of the first coordinate).
    """
    return np.array([radical_inverse(n, b) for b in first_primes(q)])


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
    where K is the number of base-b digits of the last index: the same
    correctly rounded double as :func:`radical_inverse`.  That needs both
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


@functools.cache
def _last_exact_index(q: int) -> int:
    """Last index whose ``q``-dimensional point :func:`halton_block` still
    returns: the least ``b**K - 1`` over the bases, with ``b**K`` the
    largest power of ``b`` not above ``2**53``."""
    last = []
    for b in first_primes(q):
        power = b
        while power * b <= 2**53:
            power *= b
        last.append(power - 1)
    return min(last)


# ---------------------------------------------------------------------------
# Gaussian map
# ---------------------------------------------------------------------------

def box_muller_pair(u1: float, u2: float) -> tuple[float, float]:
    """Map a pair of uniforms to a pair of independent standard normals.

    Uses the polar form ``r = sqrt(-2 log u1)`` with angle ``2 pi u2``; the
    sine component comes first.  ``u1`` must lie in ``(0, 1]`` (``u1 = 1``
    is fine and yields the origin), ``u2`` in ``[0, 1)``.
    """
    if not 0.0 < u1 <= 1.0:
        raise ValueError(f"u1 must be in (0, 1], got {u1}")
    if not 0.0 <= u2 < 1.0:
        raise ValueError(f"u2 must be in [0, 1), got {u2}")
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.sin(_TWO_PI * u2), r * math.cos(_TWO_PI * u2)


def _gaussians_from_pairs(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Vectorised Box-Muller: returns interleaved (sin, cos) components,
    length ``2 * len(u1)``."""
    r = np.sqrt(-2.0 * np.log(u1))
    out = np.empty(2 * u1.size)
    out[0::2] = r * np.sin(_TWO_PI * u2)
    out[1::2] = r * np.cos(_TWO_PI * u2)
    return out


# ---------------------------------------------------------------------------
# Exact star discrepancy
# ---------------------------------------------------------------------------

_DISCREPANCY_BUDGET = 10**8


def star_discrepancy_exact(points: np.ndarray) -> float:
    """Exact star discrepancy of a point set in ``[0, 1)^q``.

    The supremum over anchored boxes ``[0, x)`` of
    ``| #(points in box)/n - volume |`` is attained on the critical grid
    whose coordinates are the point coordinates themselves (plus 1.0), each
    corner being tested with both the closed and the open box.  Cost grows
    like ``n^q``, so a budget guard rejects inputs with
    ``n**q * q > 1e8``.

    Accepts an ``(n, q)`` array or a length-n vector (treated as 1D).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a non-empty (n, q) point array")
    n, q = pts.shape
    if np.any(pts < 0.0) or np.any(pts >= 1.0):
        raise ValueError("points must lie in [0, 1)^q")
    if n**q * q > _DISCREPANCY_BUDGET:
        raise ValueError(
            f"exact discrepancy budget exceeded: n**q*q = {n**q * q:.3g} > {_DISCREPANCY_BUDGET:.0e}"
        )

    # Candidate grid per dimension: sorted point coordinates plus 1.0.
    cands = [np.unique(np.concatenate([pts[:, j], [1.0]])) for j in range(q)]
    ranks = [np.searchsorted(cands[j], pts[:, j]) for j in range(q)]

    if q == 2:
        # Stream over the first axis to keep memory at O(m2).
        m1, m2 = cands[0].size, cands[1].size
        hist = np.zeros((m1, m2), dtype=np.int64)
        np.add.at(hist, (ranks[0], ranks[1]), 1)
        best = 0.0
        acc = np.zeros(m2, dtype=np.int64)
        prev_closed = np.zeros(m2, dtype=np.int64)  # closed counts of row i-1
        c2 = cands[1]
        for i in range(m1):
            acc += hist[i]
            closed = np.cumsum(acc)
            # open box at (i, j): points strictly below both coordinates,
            # i.e. the closed count one grid step down in each axis.
            open_ = np.concatenate([[0], prev_closed[:-1]])
            vol = cands[0][i] * c2
            d_closed = np.max(closed / n - vol)
            d_open = np.max(vol - open_ / n)
            if d_closed > best:
                best = d_closed
            if d_open > best:
                best = d_open
            prev_closed = closed
        return float(best)

    # Any other dimension: dense grid, guarded small by the budget.
    shape = tuple(c.size for c in cands)
    hist = np.zeros(shape, dtype=np.int64)
    np.add.at(hist, tuple(ranks), 1)
    closed = hist
    for ax in range(q):
        closed = np.cumsum(closed, axis=ax)
    padded = np.pad(closed, [(1, 0)] * q)
    open_ = padded[tuple(slice(0, s) for s in shape)]
    vol = cands[0]
    for j in range(1, q):
        vol = np.multiply.outer(vol, cands[j])
    d_closed = np.max(closed / n - vol)
    d_open = np.max(vol - open_ / n)
    return float(max(d_closed, d_open))


# ---------------------------------------------------------------------------
# Innovation sources
# ---------------------------------------------------------------------------

class InnovationSource:
    """Common machinery for sequential innovation streams.

    Subclasses implement ``_generate(count)`` returning the next ``count``
    rows as an ``(count, dimension)`` array.  Generation always happens in
    fixed-size internal chunks, so the emitted sequence depends only on the
    construction arguments, never on how it is consumed.  The Halton
    sources return a shorter last chunk that ends at their last exact
    index.
    """

    kind: str = "abstract"

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self._buf: np.ndarray | None = None
        self._pos = 0

    # -- subclass hook ------------------------------------------------
    def _generate(self, count: int) -> np.ndarray:
        raise NotImplementedError

    # -- public stream interface --------------------------------------
    def _refill(self) -> None:
        self._buf = self._generate(_BLOCK)
        self._pos = 0

    def next(self) -> np.ndarray:
        """Next innovation as a length-``dimension`` vector."""
        if self._buf is None or self._pos >= len(self._buf):
            self._refill()
        row = self._buf[self._pos]
        self._pos += 1
        return row

    def take_block(self, count: int) -> np.ndarray:
        """Next ``count`` innovations as an ``(count, dimension)`` array.
        ``take_block(0)`` returns an empty array and leaves the stream
        where it is."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty((0, self.dimension))
        parts = []
        need = count
        while need > 0:
            if self._buf is None or self._pos >= len(self._buf):
                self._refill()
            take = min(need, len(self._buf) - self._pos)
            parts.append(self._buf[self._pos : self._pos + take])
            self._pos += take
            need -= take
        return np.concatenate(parts) if len(parts) > 1 else parts[0].copy()


class IidUniformSource(InnovationSource):
    """Independent uniforms on ``[0, 1)^q`` from a PCG64 generator."""

    kind = "iid-uniform"

    def __init__(self, dimension: int = 1, seed: int = 0):
        super().__init__(dimension)
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))

    def _generate(self, count: int) -> np.ndarray:
        return self._rng.random((count, self.dimension))


class IidGaussianSource(InnovationSource):
    """Independent standard normals: ``count * dimension`` uniforms of an
    :class:`IidUniformSource` per block, halves as the ``(u1, u2)`` of each
    pair, through the same Box-Muller map the quasi-Monte Carlo sources
    use, so an i.i.d. run and a low-discrepancy run differ only in the
    underlying uniforms."""

    kind = "iid-gaussian"

    def __init__(self, dimension: int = 1, seed: int = 0):
        super().__init__(dimension)
        self._uniforms = IidUniformSource(1, seed)

    def _generate(self, count: int) -> np.ndarray:
        # count * dimension is even
        u = self._uniforms._generate(count * self.dimension).reshape(2, -1)
        u1 = 1.0 - u[0]  # map [0,1) to (0,1] for the logarithm
        g = _gaussians_from_pairs(u1, u[1])
        return g.reshape(count, self.dimension)


class HaltonSource(InnovationSource):
    """Deterministic Halton stream in ``q`` dimensions, 1-indexed."""

    kind = "halton"

    def __init__(self, dimension: int = 1, start: int = 1):
        super().__init__(dimension)
        if start < 1:
            raise ValueError("Halton indices start at 1")
        self._next_index = start

    def _generate(self, count: int) -> np.ndarray:
        # the block ends at the last exact index; a start past it keeps one
        # row, which halton_block refuses
        count = max(1, min(count, _last_exact_index(self.dimension) - self._next_index + 1))
        block = halton_block(self._next_index, count, self.dimension)
        self._next_index += count
        return block


class HaltonGaussianSource(InnovationSource):
    """Gaussian vectors obtained by pushing consecutive coordinate pairs of
    a Halton stream through the Box-Muller map.  A q-dimensional output row
    consumes one point of a :class:`HaltonSource` of dimension
    ``2*ceil(q/2)``, block for block; for odd q the final cosine component
    is dropped."""

    kind = "halton-gaussian"

    def __init__(self, dimension: int = 1, start: int = 1):
        super().__init__(dimension)
        self._points = HaltonSource(2 * ((dimension + 1) // 2), start)

    def _generate(self, count: int) -> np.ndarray:
        pts = self._points._generate(count)
        g = _gaussians_from_pairs(pts[:, 0::2].ravel(), pts[:, 1::2].ravel())
        return g.reshape(len(pts), -1)[:, : self.dimension]


class Ar1MixingSource(InnovationSource):
    """Geometrically mixing linear autoregression ``x' = a x + z`` with
    standard normal increments (componentwise independent chains when the
    dimension exceeds one).  With ``a = 0`` the stream reduces to its
    i.i.d. Gaussian noise."""

    kind = "ar1-mixing"

    def __init__(
        self,
        dimension: int = 1,
        seed: int = 0,
        a: float = 0.5,
        x0: float | Sequence[float] = 0.0,
    ):
        super().__init__(dimension)
        if not abs(a) < 1.0:
            raise ValueError(f"|a| < 1 required for mixing, got {a}")
        self.a = a
        self._state = np.broadcast_to(np.asarray(x0, dtype=float), (dimension,)).copy()
        self._noise = IidGaussianSource(dimension, seed)

    def _generate(self, count: int) -> np.ndarray:
        z = self._noise._generate(count)
        out = np.empty_like(z)
        a = float(self.a)
        for j in range(self.dimension):
            x = float(self._state[j])
            col = []
            for zi in z[:, j].tolist():
                x = a * x + zi
                col.append(x)
            out[:, j] = col
        self._state = out[-1].copy()
        return out


class FiniteMarkovChainSource(InnovationSource):
    """Homogeneous finite-state Markov chain emitting per-state values.

    ``transition`` is a row-stochastic matrix, ``values`` assigns a vector
    (or scalar) to each state.  The first emission is the value of the
    initial state; the chain then moves according to the matrix, driven by
    one uniform of an :class:`IidUniformSource` per row.
    """

    kind = "finite-markov-chain"

    def __init__(
        self,
        transition: np.ndarray,
        values: np.ndarray,
        seed: int = 0,
        initial_state: int = 0,
    ):
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
        if not 0 <= initial_state < P.shape[0]:
            raise ValueError(f"initial state {initial_state} out of range")
        super().__init__(vals.shape[1])
        self._P_cum = np.cumsum(P, axis=1)
        self._values = vals
        self._state = initial_state
        self._emitted_initial = False
        self._uniforms = IidUniformSource(1, seed)

    def _generate(self, count: int) -> np.ndarray:
        rows = self._P_cum.tolist()
        us = self._uniforms._generate(count).ravel().tolist()
        states = []
        s = self._state
        if not self._emitted_initial:
            # the first row is the initial state; its uniform goes unused
            self._emitted_initial = True
            states.append(s)
            us = us[1:]
        bisect_right = bisect.bisect_right
        for ui in us:
            s = bisect_right(rows[s], ui)
            states.append(s)
        self._state = s
        return self._values[states]


class EulerDecreasingSource(InnovationSource):
    """Decreasing-step Euler scheme of a scalar diffusion, emitted as an
    innovation stream starting from the initial condition.

    The n-th transition uses step ``step0 * n**(-exponent)`` and an
    independent standard normal.  With ``exponent`` in (0, 1) the steps
    vanish while their partial sums diverge, and the occupation measure of
    the emitted sequence approximates the invariant law of the diffusion.

    The first row is ``y0`` itself.  It is emitted once, at the head of the
    first generated block and ahead of the per-row loop, and the normal
    drawn for that row goes unused, so row ``n`` always pairs with normal
    ``n`` of the underlying stream.
    """

    kind = "euler-decreasing"

    def __init__(
        self,
        drift: Callable[[float], float],
        diffusion: Callable[[float], float],
        step0: float,
        exponent: float,
        y0: float = 0.0,
        seed: int = 0,
    ):
        if not 0.0 < step0 < math.inf:
            raise ValueError(f"step0 must be positive and finite, got {step0}")
        if not 0.0 < exponent < 1.0:
            raise ValueError(f"exponent must lie in (0, 1), got {exponent}")
        super().__init__(1)
        self._step0 = step0
        self._exponent = exponent
        self._drift = drift
        self._diffusion = diffusion
        self._y = float(y0)
        self._n = 0  # transitions applied so far
        self._emitted_initial = False
        self._noise = IidGaussianSource(1, seed)

    def _generate(self, count: int) -> np.ndarray:
        zs = self._noise._generate(count).ravel().tolist()
        ys = []
        y = self._y
        n = self._n
        if not self._emitted_initial:
            # the first row is the initial condition; its normal goes unused
            self._emitted_initial = True
            ys.append(y)
            zs = zs[1:]
        g0, neg_r = self._step0, -self._exponent
        drift, diffusion, sqrt = self._drift, self._diffusion, math.sqrt
        for zi in zs:
            n += 1
            gam = g0 * n**neg_r
            y = y + gam * drift(y) + sqrt(gam) * diffusion(y) * zi
            ys.append(y)
        out = np.empty((count, 1))
        out[:, 0] = ys
        self._y = y
        self._n = n
        return out


SOURCE_KINDS = (
    "iid-uniform",
    "iid-gaussian",
    "halton",
    "halton-gaussian",
    "ar1-mixing",
    "finite-markov-chain",
    "euler-decreasing",
)


def make_source(kind: str, dimension: int = 1, seed: int = 0, **params) -> InnovationSource:
    """Construct an innovation source from a flat description.

    This is the entry point the configuration layer uses; unknown kinds and
    unknown parameters are hard errors.
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
        x0 = params.pop("x0", 0.0)
        _reject_extra(kind, params)
        return Ar1MixingSource(dimension, seed, a=a, x0=x0)
    if kind == "finite-markov-chain":
        try:
            transition = params.pop("transition")
            values = params.pop("values")
        except KeyError as exc:
            raise ValueError(f"finite-markov-chain requires {exc.args[0]!r}") from None
        initial_state = params.pop("initial_state", 0)
        _reject_extra(kind, params)
        return FiniteMarkovChainSource(transition, values, seed, initial_state)
    if kind == "euler-decreasing":
        raise ValueError(
            "euler-decreasing sources carry drift/diffusion callables; "
            "construct EulerDecreasingSource directly or use an application preset"
        )
    raise ValueError(f"unknown innovation kind {kind!r}; known: {', '.join(SOURCE_KINDS)}")


def _reject_extra(kind: str, params: dict) -> None:
    if params:
        raise ValueError(f"unknown parameters for {kind!r}: {sorted(params)}")
