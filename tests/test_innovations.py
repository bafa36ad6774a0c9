"""Innovation-stream unit tests.

The reference values here are produced by independent oracles: a
digit-list reversal for radical inverses, the libm Box-Muller map on
Python floats, an exhaustive corner-enumeration for the star
discrepancy, and hand-computed closed forms for the Gaussian map.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from avgsa import innovations
from avgsa.applications.bandit import make_event_source
from avgsa.applications.investment import CirParams, cir_innovation_source
from avgsa.experiments import _split_seed
from avgsa.innovations import (
    Ar1MixingSource,
    EulerDecreasingSource,
    FiniteMarkovChainSource,
    HaltonGaussianSource,
    HaltonSource,
    IidGaussianSource,
    IidUniformSource,
    _gaussians_from_pairs,
    first_primes,
    halton_block,
    make_source,
    _within_discrepancy_budget,
    star_discrepancy_exact,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_radical_inverse(n: int, base: int) -> float:
    """Digit reversal through an explicit digit list, one index at a time
    (independent of the table-driven production code), then one correctly
    rounded division of Python integers."""
    digits = []
    while n > 0:
        digits.append(n % base)
        n //= base
    rev = 0
    for d in digits:
        rev = rev * base + d
    return rev / base ** len(digits)


def box_muller_pair(u1: float, u2: float) -> tuple[float, float]:
    """One pair through libm's ``log``, ``sqrt``, ``sin`` and ``cos`` on
    Python floats: ``r = sqrt(-2 log u1)`` at angle ``2 pi u2``, sine first."""
    r = math.sqrt(-2.0 * math.log(u1))
    return r * math.sin(2.0 * math.pi * u2), r * math.cos(2.0 * math.pi * u2)


def oracle_star_discrepancy(points: np.ndarray) -> float:
    """Exhaustive sweep over every corner of the critical grid, counting
    points with plain loops.  Exponential cost; fine for n <= 8."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, q = pts.shape
    grids = [sorted(set(pts[:, j]) | {1.0}) for j in range(q)]
    best = 0.0
    for corner in itertools.product(*grids):
        vol = math.prod(corner)
        closed = sum(1 for p in pts if all(p[j] <= corner[j] for j in range(q)))
        opened = sum(1 for p in pts if all(p[j] < corner[j] for j in range(q)))
        best = max(best, closed / n - vol, vol - opened / n)
    return best


# ---------------------------------------------------------------------------
# radical inverse / Halton
# ---------------------------------------------------------------------------

def test_radical_inverse_frozen_values():
    # coordinate 0 is base 2, coordinate 1 base 3
    assert halton_block(1, 4, 1)[:, 0].tolist() == [0.5, 0.25, 0.75, 0.125]
    assert halton_block(1, 1, 2)[0, 1] == pytest.approx(1.0 / 3.0, abs=0)
    # 5 = (1 2)_3, mirrored: 2/3 + 1/9 = 7/9 (single correctly rounded division)
    assert halton_block(5, 1, 2)[0, 1] == pytest.approx(7.0 / 9.0, abs=0)


def test_radical_inverse_matches_digit_oracle():
    bases = first_primes(6)     # 2, 3, 5, 7, 11, 13
    blk = halton_block(1, 299, 6)
    for j, base in enumerate(bases):
        for n in range(1, 300):
            assert blk[n - 1, j] == oracle_radical_inverse(n, base)


def test_radical_inverse_rejects_bad_input():
    # index 0 has no radical inverse inside (0, 1), and a point needs a base
    with pytest.raises(ValueError):
        halton_block(0, 1, 2)
    with pytest.raises(ValueError):
        halton_block(3, 1, 0)


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_halton_point_first_elements():
    np.testing.assert_allclose(halton_block(1, 2, 2), [[0.5, 1.0 / 3.0], [0.25, 2.0 / 3.0]], atol=0)


def test_halton_block_agrees_with_pointwise():
    blk = halton_block(7, 40, 3)
    for i in range(40):
        np.testing.assert_array_equal(blk[i], [oracle_radical_inverse(7 + i, b) for b in (2, 3, 5)])


def _halton_block_digit_loop(start: int, count: int, q: int) -> np.ndarray:
    # one base-b digit per numpy pass, as halton_block extracted them before
    # its digit tables: the reference the tables must reproduce bit for bit
    idx0 = np.arange(start, start + count, dtype=np.int64)
    out = np.empty((count, q))
    for j, b in enumerate(first_primes(q)):
        idx = idx0.copy()
        rev = np.zeros(count, dtype=np.int64)
        denom = 1
        while idx.any():
            rev = rev * b + idx % b
            idx //= b
            denom *= b
        out[:, j] = rev / denom
    return out


@pytest.mark.parametrize("start", [1, 4095, 4096, 4097, 12_345, 2**20, 2**31, 2**40])
def test_halton_block_matches_digit_loop(start):
    # q up to 8 takes the bases up to 19, whose tables hold 1 to 3 digits
    for q in range(1, 9):
        for count in (1, 4095, 4096, 4097):
            np.testing.assert_array_equal(
                halton_block(start, count, q), _halton_block_digit_loop(start, count, q)
            )


@pytest.mark.parametrize(
    "start, count, q, base",
    [
        (2**52 - 2, 4, 3, 5),   # 5**23 > 2**53; bases 2 and 3 are still exact
        (2**53 - 2, 1, 2, 3),   # 3**34 > 2**53; base 2 is still exact
        (2**62, 4, 2, 2),       # the int64 digits overflowed to a negative point
        (2**63 - 2, 4, 1, 2),   # the index wrapped negative and the loop never ended
    ],
)
def test_halton_block_refuses_inexact_indices(start, count, q, base):
    with pytest.raises(ValueError, match=rf"base-{base} digits .* > 2\*\*53"):
        halton_block(start, count, q)


@pytest.mark.parametrize("q", range(1, 9))
def test_halton_block_exact_up_to_the_bound(q):
    # the last index with b**K <= 2**53 in every base, K its digit count
    bases = first_primes(q)
    last = min(b ** max(k for k in range(60) if b**k <= 2**53) for b in bases) - 1
    blk = halton_block(last - 63, 64, q)
    expected = [[oracle_radical_inverse(n, b) for b in bases] for n in range(last - 63, last + 1)]
    np.testing.assert_array_equal(blk, np.array(expected))
    with pytest.raises(ValueError):
        halton_block(last - 63, 65, q)


def _last_exact(q: int) -> int:
    return min(b ** max(k for k in range(60) if b**k <= 2**53) for b in first_primes(q)) - 1


@pytest.mark.parametrize("q", range(1, 9))
def test_halton_source_runs_to_the_last_exact_index(q):
    # the source's last buffer ends at the bound instead of a whole block
    # past it, so every exact index is reachable
    last = _last_exact(q)
    expected = [[oracle_radical_inverse(n, b) for b in first_primes(q)]
                for n in range(last - 9, last + 1)]
    src = HaltonSource(q, start=last - 9)
    np.testing.assert_array_equal(src.take_block(10), np.array(expected))
    assert len(src._buf) == 10   # one buffer, cut at the bound, not ten 1-row ones
    with pytest.raises(ValueError, match="not exact"):
        src.take_block(1)
    src = HaltonSource(q, start=last - 9)
    np.testing.assert_array_equal(np.vstack([src.next() for _ in range(10)]), np.array(expected))
    with pytest.raises(ValueError, match="not exact"):
        src.next()


@pytest.mark.parametrize("q", range(1, 5))
def test_halton_gaussian_source_runs_to_the_last_exact_index(q):
    pairs = (q + 1) // 2
    last = _last_exact(2 * pairs)
    src = HaltonGaussianSource(q, start=last - 9)
    rows = src.take_block(10)
    for n, row in zip(range(last - 9, last + 1), rows):
        u = [oracle_radical_inverse(n, b) for b in first_primes(2 * pairs)]
        want = [z for p in range(pairs) for z in box_muller_pair(u[2 * p], u[2 * p + 1])]
        np.testing.assert_allclose(row, want[:q], rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError, match="not exact"):
        src.take_block(1)


def test_halton_coordinates_strictly_inside_unit_cube():
    blk = halton_block(1, 2048, 4)
    assert np.all(blk > 0.0) and np.all(blk < 1.0)


def test_halton_uniformity_discrepancy_bound():
    # Star discrepancy at dyadic sizes: non-increasing and comfortably
    # below 10 * (log n)^q / n.
    for q in (1, 2):
        prev = np.inf
        for n in (2**6, 2**8, 2**10):
            d = star_discrepancy_exact(halton_block(1, n, q))
            assert d < 10.0 * math.log(n) ** q / n
            assert d <= prev
            prev = d


# ---------------------------------------------------------------------------
# Gaussian map
# ---------------------------------------------------------------------------

def test_box_muller_hand_values():
    # angle pi/2, angle pi, and log 1 = 0
    z = _gaussians_from_pairs(np.array([math.exp(-2.0), math.exp(-2.0), 1.0]),
                              np.array([0.25, 0.5, 0.7]))
    z1, z2 = z[0:2]
    assert z1 == pytest.approx(2.0, abs=1e-12)
    assert z2 == pytest.approx(0.0, abs=1e-12)
    z1, z2 = z[2:4]
    assert z1 == pytest.approx(0.0, abs=1e-12)
    assert z2 == pytest.approx(-2.0, abs=1e-12)
    z1, z2 = z[4:6]
    assert z1 == 0.0 and z2 == 0.0


def test_box_muller_moments_on_uniform_grid():
    # Deterministic check: push a fine uniform grid through the map and
    # compare with the standard normal moments.
    m = 401
    u1 = (np.arange(m) + 0.5) / m
    u2 = (np.arange(m) + 0.5) / m
    zs = _gaussians_from_pairs(np.repeat(u1, m), np.tile(u2, m))
    assert abs(zs.mean()) < 5e-3
    assert abs(zs.var() - 1.0) < 5e-3


# ---------------------------------------------------------------------------
# star discrepancy
# ---------------------------------------------------------------------------

def test_star_discrepancy_frozen_1d():
    assert star_discrepancy_exact(np.array([0.5])) == pytest.approx(0.5, abs=0)
    assert star_discrepancy_exact(np.array([0.25, 0.75])) == pytest.approx(0.25, abs=0)
    mid4 = (np.arange(4) + 0.5) / 4.0
    assert star_discrepancy_exact(mid4) == pytest.approx(1.0 / 8.0, abs=1e-15)


def test_star_discrepancy_matches_enumeration_oracle():
    rng = np.random.default_rng(20240817)
    for q in (1, 2):
        for n in range(1, 9):
            for _ in range(4):
                pts = rng.random((n, q))
                got = star_discrepancy_exact(pts)
                want = oracle_star_discrepancy(pts)
                assert got == pytest.approx(want, abs=1e-12)
    # duplicated points and a 3D case stay within the oracle too
    pts = np.array([[0.2, 0.2], [0.2, 0.2], [0.8, 0.4]])
    assert star_discrepancy_exact(pts) == pytest.approx(
        oracle_star_discrepancy(pts), abs=1e-12
    )
    pts3 = rng.random((5, 3))
    assert star_discrepancy_exact(pts3) == pytest.approx(
        oracle_star_discrepancy(pts3), abs=1e-12
    )
    # tie-heavy sets in 3 and 4 dimensions: coordinates on a 0.1 lattice
    for q in (3, 4):
        for n in (1, 2, 5, 8):
            for _ in range(3):
                pts = np.round(rng.random((n, q)), 1) % 1.0
                assert star_discrepancy_exact(pts) == pytest.approx(
                    oracle_star_discrepancy(pts), abs=1e-12
                )


def _star_discrepancy_1d(x: np.ndarray) -> float:
    """The former 1-D branch of ``star_discrepancy_exact``: cumulative
    counts on the sorted coordinates plus 1.0."""
    cands = np.unique(np.concatenate([x, [1.0]]))
    closed = np.cumsum(np.bincount(np.searchsorted(cands, x), minlength=cands.size))
    open_ = np.concatenate([[0], closed[:-1]])
    return float(max(np.max(closed / x.size - cands), np.max(cands - open_ / x.size)))


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 255, 1000, 4096])
def test_star_discrepancy_1d_matches_the_cumulative_count(n):
    rng = np.random.default_rng(n)
    for pts in (
        rng.random(n),
        np.round(rng.random(n), 2) % 1.0,       # ties
        halton_block(1, n, 1)[:, 0],
        halton_block(4097, n, 1)[:, 0],
    ):
        assert star_discrepancy_exact(pts) == _star_discrepancy_1d(pts)
        assert star_discrepancy_exact(pts[:, None]) == _star_discrepancy_1d(pts)


def _star_discrepancy_2d_rows(pts: np.ndarray) -> float:
    """The former 2-D branch of ``star_discrepancy_exact``: a loop over the
    first axis of the full histogram, one row of closed counts at a time."""
    n = pts.shape[0]
    cands = [np.unique(np.concatenate([pts[:, j], [1.0]])) for j in range(2)]
    ranks = [np.searchsorted(cands[j], pts[:, j]) for j in range(2)]
    m1, m2 = cands[0].size, cands[1].size
    hist = np.zeros((m1, m2), dtype=np.int64)
    np.add.at(hist, (ranks[0], ranks[1]), 1)
    best = 0.0
    acc = np.zeros(m2, dtype=np.int64)
    prev_closed = np.zeros(m2, dtype=np.int64)
    for i in range(m1):
        acc += hist[i]
        closed = np.cumsum(acc)
        open_ = np.concatenate([[0], prev_closed[:-1]])
        vol = cands[0][i] * cands[1]
        d_closed = np.max(closed / n - vol)
        d_open = np.max(vol - open_ / n)
        if d_closed > best:
            best = d_closed
        if d_open > best:
            best = d_open
        prev_closed = closed
    return float(best)


def _star_discrepancy_dense(pts: np.ndarray) -> float:
    """The former dense branch of ``star_discrepancy_exact``: closed counts
    on the whole critical grid, open counts from its copy shifted by one
    step in every axis."""
    n, q = pts.shape
    cands = [np.unique(np.concatenate([pts[:, j], [1.0]])) for j in range(q)]
    shape = tuple(c.size for c in cands)
    hist = np.zeros(shape, dtype=np.int64)
    np.add.at(hist, tuple(np.searchsorted(cands[j], pts[:, j]) for j in range(q)), 1)
    closed = hist
    for ax in range(q):
        closed = np.cumsum(closed, axis=ax)
    open_ = np.pad(closed, [(1, 0)] * q)[tuple(slice(0, s) for s in shape)]
    vol = cands[0]
    for j in range(1, q):
        vol = np.multiply.outer(vol, cands[j])
    return float(max(np.max(closed / n - vol), np.max(vol - open_ / n)))


def test_star_discrepancy_matches_the_2d_row_loop_on_the_shipped_table():
    # the discrepancy experiment's default table: Halton prefixes and iid
    # sets of 2**6 .. 2**12 points in 2-D
    for k in range(6, 13):
        for pts in (make_source("halton", 2, 0).take_block(1 << k),
                    make_source("iid-uniform", 2, _split_seed(0, k)).take_block(1 << k)):
            assert star_discrepancy_exact(pts) == _star_discrepancy_2d_rows(pts)


@pytest.mark.parametrize("q,sizes", [(1, (1, 2, 9, 300)), (3, (1, 2, 9, 60)), (4, (1, 2, 9, 24))])
def test_star_discrepancy_matches_the_dense_grid(q, sizes):
    rng = np.random.default_rng(q)
    for n in sizes:
        for pts in (
            rng.random((n, q)),
            np.round(rng.random((n, q)), 1) % 1.0,       # ties
            halton_block(1, n, q),
        ):
            assert star_discrepancy_exact(pts) == _star_discrepancy_dense(pts)


def test_star_discrepancy_is_independent_of_the_slab_size(monkeypatch):
    rng = np.random.default_rng(11)
    sets = [rng.random((n, q)) for q, n in ((1, 50), (2, 40), (3, 15), (4, 7))]
    sets += [np.round(rng.random((n, q)), 1) % 1.0 for q, n in ((2, 40), (3, 15), (4, 7))]
    want = [star_discrepancy_exact(pts) for pts in sets]
    # one row per slab; 3 rows per slab for a 2-D set of 40 distinct
    # points (41 cells a row, 41 rows: the last slab is cut short);
    # the whole grid in one slab
    for cells in (1, 3 * 41, 1 << 40):
        monkeypatch.setattr(innovations, "_SLAB_CELLS", cells)
        assert [star_discrepancy_exact(pts) for pts in sets] == want


def test_star_discrepancy_memory_is_set_by_the_slab():
    pts = np.random.default_rng(3).random((128, 3))     # a 129**3 cell grid
    tracemalloc.start()
    try:
        star_discrepancy_exact(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_star_discrepancy_budget_bounds_the_grid_walked():
    # n points span up to (n+1)**q corners, each axis's coordinates plus 1.0;
    # the budget is (n+1)**q * q <= 1e8, not n**q * q
    for n, q, ok in ((4096, 2, True), (7070, 2, True), (7071, 2, False),
                     (256, 3, True), (69, 4, True), (70, 4, False), (2, 16, False)):
        assert _within_discrepancy_budget(n, q) == ok, (n, q)
    # 2 points in 16-D: 3**16 * 16 corners; 2**16 * 16 would pass
    with pytest.raises(ValueError, match=r"\(n\+1\)\*\*q \* q <= 1e\+08"):
        star_discrepancy_exact(np.full((2, 16), 0.5))


def test_star_discrepancy_guard_and_domain():
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([[0.5, 0.5, 0.5, 0.5]] * 120))  # 120^4*4 > 1e8
    with pytest.raises(ValueError, match="budget"):
        star_discrepancy_exact(np.full((2, 2000), 0.5))     # 2^2000 is past any float
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([1.0]))
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([-0.1]))
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([[0.5, np.nan], [0.2, 0.3]]))
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([0.5, np.nan]))


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "factory",
    [
        lambda: IidUniformSource(2, seed=7),
        lambda: IidGaussianSource(2, seed=7),
        lambda: HaltonSource(2),
        lambda: HaltonGaussianSource(2),
        lambda: Ar1MixingSource(1, seed=7, a=0.5),
        lambda: FiniteMarkovChainSource([[0.5, 0.5], [0.2, 0.8]], [0.0, 1.0], seed=7),
        lambda: EulerDecreasingSource(
            lambda y: -y, lambda y: 1.0, 0.5, 1.0 / 3.0, y0=0.3, seed=7
        ),
        lambda: make_event_source("iid", 0.6, 0.4, seed=7),
        lambda: make_event_source("ar1", 0.6, 0.4, seed=7, mixing=0.5),
    ],
    ids=["iid-uniform", "iid-gaussian", "halton", "halton-gaussian",
         "ar1", "markov", "euler", "events-iid", "events-ar1"],
)
def test_sources_deterministic_and_consumption_invariant(factory):
    # same construction => identical stream, however it is consumed, over
    # three blocks
    n = 2 * innovations._BLOCK + 700
    a = factory()
    b = factory()
    left = a.take_block(n)
    right = np.vstack([b.next() for _ in range(n)])
    np.testing.assert_array_equal(left, right)
    # interleaving block and single draws does not change the sequence;
    # the single draws straddle the first block edge
    c = factory()
    edge = innovations._BLOCK - 5
    mixed = np.vstack([c.take_block(13), np.vstack([c.next() for _ in range(9)]),
                       c.take_block(edge - 22), np.vstack([c.next() for _ in range(11)]),
                       c.take_block(n - edge - 11)])
    np.testing.assert_array_equal(left, mixed)


def test_halton_source_is_the_halton_sequence():
    s = HaltonSource(2)
    np.testing.assert_array_equal(s.take_block(50), halton_block(1, 50, 2))


def test_halton_gaussian_first_row_matches_hand_map():
    s = HaltonGaussianSource(2)
    z = s.next()
    want = box_muller_pair(0.5, 1.0 / 3.0)
    np.testing.assert_allclose(z, want, atol=1e-15)


@pytest.mark.parametrize("q", range(1, 6))
def test_halton_gaussian_is_box_muller_of_halton_pairs(q):
    # bit for bit, over more than one block: (sin, cos) of each coordinate
    # pair of the 2*ceil(q/2)-dimensional Halton point, odd q dropping the
    # last cosine
    pairs, n = (q + 1) // 2, 5_000
    pts = halton_block(3, n, 2 * pairs)
    want = np.empty((n, 2 * pairs))
    for p in range(pairs):
        r = np.sqrt(-2.0 * np.log(pts[:, 2 * p]))
        want[:, 2 * p] = r * np.sin(2.0 * math.pi * pts[:, 2 * p + 1])
        want[:, 2 * p + 1] = r * np.cos(2.0 * math.pi * pts[:, 2 * p + 1])
    got = make_source("halton-gaussian", q, start=3).take_block(n)
    np.testing.assert_array_equal(got, want[:, :q])


@pytest.mark.parametrize("kind", ["halton", "halton-gaussian"])
def test_halton_sources_refuse_bad_dimension_and_start(kind):
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        make_source(kind, 0)
    with pytest.raises(ValueError, match="Halton indices start at 1"):
        make_source(kind, 2, start=0)


@pytest.mark.parametrize("d", [1, 3])
def test_iid_gaussian_uses_box_muller_map(d):
    # White-box determinism contract, bit for bit over two buffers: each
    # 4096-row buffer is the Box-Muller image of 4096 * d uniforms of
    # IidUniformSource(1, seed), the first half the u1 of every pair and
    # the second half the u2.
    u = IidUniformSource(1, seed=123).take_block(2 * 4096 * d)[:, 0]
    want = []
    for block in u.reshape(2, 2, -1):
        r = np.sqrt(-2.0 * np.log(1.0 - block[0]))
        g = np.empty(4096 * d)
        g[0::2] = r * np.sin(2.0 * math.pi * block[1])
        g[1::2] = r * np.cos(2.0 * math.pi * block[1])
        want.append(g.reshape(4096, d))
    got = IidGaussianSource(d, seed=123).take_block(5_000)
    np.testing.assert_array_equal(got, np.vstack(want)[:5_000])


def test_iid_gaussian_moments():
    z = IidGaussianSource(1, seed=5).take_block(200_000)[:, 0]
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_ar1_with_zero_coefficient_is_its_noise():
    a = Ar1MixingSource(1, seed=99, a=0.0)
    b = IidGaussianSource(1, seed=99)
    np.testing.assert_array_equal(a.take_block(1000), b.take_block(1000))


def test_ar1_requires_contraction():
    with pytest.raises(ValueError):
        Ar1MixingSource(1, seed=0, a=1.0)


def test_ar1_ergodic_average_settles():
    n = 100_000
    x = Ar1MixingSource(1, seed=11, a=0.5).take_block(n)[:, 0]
    assert abs(x.mean()) < 5.0 / math.sqrt(n)
    # stationary variance of the a=0.5 chain is 1/(1-a^2) = 4/3
    assert abs(x.var() - 4.0 / 3.0) < 0.05


def test_markov_chain_deterministic_cycle():
    s = FiniteMarkovChainSource([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], seed=3)
    vals = s.take_block(6)[:, 0]
    np.testing.assert_array_equal(vals, [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])


def test_markov_chain_stationary_distribution_and_average():
    P = [[0.9, 0.1], [0.4, 0.6]]
    s = FiniteMarkovChainSource(P, [0.0, 1.0], seed=21)
    # pi P = pi gives pi = [0.8, 0.2], so the emitted values average to 0.2
    x = s.take_block(200_000)[:, 0]
    assert abs(x.mean() - 0.2) < 5e-3


def test_markov_chain_validates_matrix():
    with pytest.raises(ValueError):
        FiniteMarkovChainSource([[0.5, 0.4], [0.5, 0.5]], [0.0, 1.0])
    with pytest.raises(ValueError):
        FiniteMarkovChainSource([[1.0]], [0.0, 1.0])


def test_euler_source_emits_initial_condition_first():
    s = EulerDecreasingSource(lambda y: -y, lambda y: 1.0, 0.5, 1.0 / 3.0, y0=0.3, seed=1)
    first = s.next()
    assert first[0] == 0.3
    # second emission is one Euler transition with step 0.5 * 1**(-1/3) = 0.5
    noise = IidGaussianSource(1, seed=1).take_block(2)[1, 0]
    want = 0.3 + 0.5 * (-0.3) + math.sqrt(0.5) * noise
    assert s.next()[0] == pytest.approx(want, abs=1e-15)


def test_euler_source_ornstein_uhlenbeck_invariant_variance():
    # dY = -Y dt + sqrt(2) dW has invariant law N(0, 1); the decreasing-step
    # scheme's occupation measure approximates it.
    s = EulerDecreasingSource(
        lambda y: -y, lambda y: math.sqrt(2.0), 0.5, 1.0 / 3.0, y0=0.0, seed=42
    )
    x = s.take_block(200_000)[:, 0]
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# stateful sources against their per-row loops written out by hand
# ---------------------------------------------------------------------------

# More rows than one internal buffer (4096 rows), so every comparison
# crosses refills and the state carried from one buffer to the next.
HAND_ROWS = 10_000


def consume(source, interleaved: bool) -> np.ndarray:
    """HAND_ROWS rows in one block, or in a mix of block and single draws
    whose boundaries straddle the buffer edges."""
    if not interleaved:
        return source.take_block(HAND_ROWS)
    parts = [
        source.take_block(1),
        np.vstack([source.next() for _ in range(5)]),
        source.take_block(4089),
        source.next()[None, :],
        source.take_block(3000),
        np.vstack([source.next() for _ in range(7)]),
    ]
    parts.append(source.take_block(HAND_ROWS - sum(len(p) for p in parts)))
    return np.vstack(parts)


def ar1_loop(z, a):
    out = np.empty_like(z)
    x = np.zeros(z.shape[1])
    for i in range(len(z)):
        x = a * x + z[i]
        out[i] = x
    return out


def ar1_by_hand(dimension, seed, a):
    return ar1_loop(IidGaussianSource(dimension, seed).take_block(HAND_ROWS), a)


def markov_by_hand(transition, values, seed):
    cum = np.cumsum(np.asarray(transition, dtype=float), axis=1)
    vals = np.asarray(values, dtype=float)
    # the source maps one uniform of IidUniformSource(1, seed) per row;
    # the first row's goes unused
    u = IidUniformSource(1, seed).take_block(HAND_ROWS)[:, 0]
    out = np.empty((HAND_ROWS, vals.shape[1]))
    s = 0
    out[0] = vals[s]
    for i in range(1, HAND_ROWS):
        s = int(np.searchsorted(cum[s], u[i], side="right"))
        out[i] = vals[s]
    return out


def euler_by_hand(drift, diffusion, step0, exponent, y0, seed):
    # the source draws one normal per row; the first row's goes unused
    z = IidGaussianSource(1, seed).take_block(HAND_ROWS)
    out = np.empty((HAND_ROWS, 1))
    y = float(y0)
    out[0, 0] = y
    for n in range(1, HAND_ROWS):
        gam = step0 * n ** (-exponent)
        y = y + gam * drift(y) + math.sqrt(gam) * diffusion(y) * z[n, 0]
        out[n, 0] = y
    return out


@pytest.mark.parametrize("interleaved", [False, True], ids=["block", "interleaved"])
@pytest.mark.parametrize(
    "dimension, a",
    [(1, -0.9), (2, -0.7), (5, 0.95), (1, 0.5), (2, -0.5), (5, 0.25), (2, -2.0**-20)],
    ids=["d1", "d2", "d5", "d1-dyadic-0.5", "d2-dyadic-neg0.5", "d5-dyadic-0.25",
         "d2-dyadic-neg2e-20"],
)
def test_ar1_matches_hand_loop(dimension, a, interleaved):
    # the last four coefficients take the scaled running sum
    assert (innovations._dyadic_scales(a) is None) == (a in (-0.9, -0.7, 0.95))
    got = consume(Ar1MixingSource(dimension, seed=17, a=a), interleaved)
    want = ar1_by_hand(dimension, 17, a)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize(
    "a, m",
    [(0.5, 1), (-0.5, 1), (0.25, 2), (2.0**-22, 22), (-(2.0**-22), 22),
     (0.0, None), (0.75, None), (-0.3, None), (2.0**-23, None), (0.5 + 2.0**-53, None)],
)
def test_dyadic_scale_tables(a, m):
    if m is None:
        assert innovations._dyadic_scales(a) is None
        return
    s, inv = innovations._dyadic_scales(a)
    assert len(s) == 1008 // m and not s.flags.writeable and not inv.flags.writeable
    np.testing.assert_array_equal(s[:, 0], [(1.0 / a) ** k for k in range(len(s))])
    np.testing.assert_array_equal(s * inv, 1.0)


def _scripted_noise(dimension, script, start):
    """Blocks of Gaussian noise with the rows from ``start`` on replaced
    by ``script``, a stand-in for an Ar1MixingSource's own noise."""
    script = np.asarray(script, dtype=float)
    for lo, z in zip(itertools.count(0, innovations._BLOCK),
                     innovations._gaussian_blocks(dimension, seed=21)):
        i, j = max(lo, start), min(lo + len(z), start + len(script))
        if i < j:
            z[i - lo : j - lo] = script[i - start : j - start, None]
        yield z


@pytest.mark.parametrize(
    "a, dimension, script, start",
    [
        (0.5, 1, [1.0, -0.5], 0),         # x_1 = 0 exactly
        (-0.5, 2, [1.0, 0.5], 0),         # x_1 = +0.0; scaled back by -1/2 it is -0.0
        # x decays into the subnormals, where the loop rounds at every
        # step and the scaled sum once, but stays nonzero
        (0.5, 2, [0.0] * 1040, 4500),
        (-0.5, 1, [0.0] * 1040, 4500),
        (-(2.0**-20), 2, [0.0] * 60, 4500),  # and on to 0
    ],
    ids=["zero", "signed-zero", "tiny", "tiny-neg", "tiny-2e-20"],
)
def test_ar1_blocks_the_scaled_sum_cannot_carry_take_the_loop(a, dimension, script, start):
    # the chain Ar1MixingSource streams, over scripted noise
    chain = innovations._ar1_blocks(_scripted_noise(dimension, script, start), a, dimension)
    got = innovations.InnovationSource(dimension, chain).take_block(3 * innovations._BLOCK)
    noise = _scripted_noise(dimension, script, start)
    want = ar1_loop(np.vstack(list(itertools.islice(noise, 3))), a)
    assert np.any(np.abs(want) < 2.0**-1000)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


_CHILD_AR1 = """
import sys
import numpy as np
from avgsa.innovations import Ar1MixingSource, IidGaussianSource
for d, a in ((1, 0.5), (2, -0.5), (3, 0.25), (2, -2.0**-20), (2, -0.7)):
    z = IidGaussianSource(d, 5).take_block(10_000)
    want, x = np.empty_like(z), np.zeros(d)
    for i in range(len(z)):
        x = a * x + z[i]
        want[i] = x
    got = Ar1MixingSource(d, seed=5, a=a).take_block(10_000)
    if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
        sys.exit(f"d={d} a={a}: the chain differs from the loop")
sys.stdout.write("ok")
"""


def test_ar1_chain_matches_the_loop_without_avx512(child_python):
    assert child_python(_CHILD_AR1, avx512=False) == "ok"


@pytest.mark.parametrize("interleaved", [False, True], ids=["block", "interleaved"])
def test_markov_chain_matches_hand_loop(interleaved):
    # mostly a rotation 0 -> 1 -> 2 -> 0, so a state lost at a buffer
    # refill shows in the next row
    P = [[0.1, 0.8, 0.1], [0.05, 0.15, 0.8], [0.7, 0.2, 0.1]]
    values = [[1.0, -2.0], [0.5, 0.25], [3.0, 7.0]]
    got = consume(FiniteMarkovChainSource(P, values, seed=8), interleaved)
    np.testing.assert_array_equal(got, markov_by_hand(P, values, 8))


@pytest.mark.parametrize("interleaved", [False, True], ids=["block", "interleaved"])
@pytest.mark.parametrize("preset", ["cir", "linear"])
def test_euler_matches_hand_loop(preset, interleaved):
    if preset == "cir":
        # the shipped ergodic-investment parameters; Feller fails, so the
        # path visits negative values and |y| in the diffusion matters
        with pytest.warns(UserWarning):
            p = CirParams(kappa=1.0, vartheta=1.0, sigma=1.5)
        source = cir_innovation_source(p, step0=1.0, exponent=1.0 / 3.0, seed=9)
        want = euler_by_hand(
            lambda y: 1.0 * (1.0 - y), lambda y: 1.5 * math.sqrt(abs(y)),
            1.0, 1.0 / 3.0, 1.0, 9,
        )
    else:
        drift, diffusion = (lambda y: 0.3 - 2.0 * y), (lambda y: 0.7)
        source = EulerDecreasingSource(drift, diffusion, 0.5, 0.4, y0=-0.4, seed=10)
        want = euler_by_hand(drift, diffusion, 0.5, 0.4, -0.4, 10)
    np.testing.assert_array_equal(consume(source, interleaved), want)


# (stream, sha256 of 4097 block rows, one next() row and 9000 more block
# rows), taken before IidGaussianSource, FiniteMarkovChainSource and the
# bandit's event streams were rebuilt on IidUniformSource; the Gaussian
# streams hold under the SIMD dispatch the goldens were written with
_STREAM_PINS = {
    "iid-uniform": (
        lambda: make_source("iid-uniform", 2, 5),
        "381bbbdabb3f9b24b53b97e111205ac1cce0c9a3c3461defcbb8f4696a0da3c3"),
    "iid-gaussian-d1": (
        lambda: make_source("iid-gaussian", 1, 5),
        "1ebe9b1820dd63e21eefbd8e5990b2893c5f134b6a4958717369a536f4f3afb3"),
    "iid-gaussian-d3": (
        lambda: make_source("iid-gaussian", 3, 5),
        "19a2463879a1b40906ac04b776fb5f25ed9b2635f195c3521f28a8f4ab230470"),
    "halton-gaussian-d3": (
        lambda: make_source("halton-gaussian", 3),
        "65fb560c3f8145d151f3d29c35c144e99442c7b26775a05982104c9e3386fba7"),
    "ar1-mixing": (
        lambda: make_source("ar1-mixing", 2, 7, a=0.5),
        "34140fb609338a006771dcabc4b9b516fee4c9c7ada5f32edff07a62098d7f8a"),
    "finite-markov-chain": (
        lambda: make_source("finite-markov-chain", seed=3, transition=[[0.9, 0.1], [0.2, 0.8]],
                            values=[0.0, 1.0]),
        "4798a9e387a1e7b3e67b34b148bdfb2f0b16e2ad18e201b792c0b0ba65854863"),
    "cir-euler": (
        lambda: cir_innovation_source(CirParams(1.0, 1.0, 1.5), 1.0, 1 / 3, 4),
        "7aea5332cae59e3750f6428297fbc49f8a8cf54b4a9106665708cbe7c2846734"),
    "iid-events": (
        lambda: make_event_source("iid", 0.6, 0.4, 11),
        "7dfa6d810979020d5300bcc93151e7d2f39f22687fe728866accdd7d468834d5"),
    "ar1-events": (
        lambda: make_event_source("ar1", 0.6, 0.4, 11, mixing=0.5),
        "e44548cc2071d0ab242b2b660c84850282e14b1d84cc5b91585d6df5d5782716"),
}


@pytest.mark.filterwarnings("ignore:2\\*kappa\\*vartheta:UserWarning")
@pytest.mark.parametrize("name", list(_STREAM_PINS))
def test_stream_bytes_are_pinned(name):
    factory, digest = _STREAM_PINS[name]
    s = factory()
    rows = np.vstack([s.take_block(4097), s.next()[None, :], s.take_block(9000)])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == digest


def test_take_block_zero_leaves_stream_in_place():
    a = Ar1MixingSource(2, seed=3, a=0.5)
    b = Ar1MixingSource(2, seed=3, a=0.5)
    empty = a.take_block(0)
    assert empty.shape == (0, 2)
    np.testing.assert_array_equal(a.take_block(10), b.take_block(10))
    # also mid-buffer
    assert a.take_block(0).shape == (0, 2)
    np.testing.assert_array_equal(a.take_block(10), b.take_block(10))


def test_take_block_rejects_negative_count():
    s = IidUniformSource(1, seed=0)
    with pytest.raises(ValueError):
        s.take_block(-1)


# ---------------------------------------------------------------------------
# decreasing Euler step schedule
# ---------------------------------------------------------------------------

def test_decreasing_schedule_validation():
    for step0, exponent in [(0.5, 0.0), (0.5, 1.0), (-1.0, 0.5), (math.inf, 0.5)]:
        with pytest.raises(ValueError):
            EulerDecreasingSource(lambda y: -y, lambda y: 1.0, step0, exponent)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

def test_make_source_round_trip():
    a = make_source("iid-gaussian", dimension=2, seed=17)
    b = make_source("iid-gaussian", dimension=2, seed=17)
    np.testing.assert_array_equal(a.take_block(10), b.take_block(10))


def test_make_source_rejects_unknown():
    with pytest.raises(ValueError):
        make_source("sobol")
    with pytest.raises(ValueError):
        make_source("halton", dimension=1, seed=0, scramble=True)
    with pytest.raises(ValueError):
        make_source("euler-decreasing")
