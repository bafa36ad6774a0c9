"""Innovation-stream unit tests.

The reference values here are produced by independent oracles: a
string-based digit-reversal for radical inverses, an exhaustive
corner-enumeration for the star discrepancy, and hand-computed closed
forms for the Gaussian map.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
import pytest

from avgsa.applications.bandit import make_event_source
from avgsa.applications.investment import CirParams, cir_innovation_source
from avgsa.innovations import (
    Ar1MixingSource,
    EulerDecreasingSource,
    FiniteMarkovChainSource,
    HaltonGaussianSource,
    HaltonSource,
    IidGaussianSource,
    IidUniformSource,
    box_muller_pair,
    first_primes,
    halton_block,
    halton_point,
    make_source,
    radical_inverse,
    star_discrepancy_exact,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_radical_inverse(n: int, base: int) -> float:
    """Digit reversal through an explicit digit list (independent of the
    integer-arithmetic production code)."""
    digits = []
    while n > 0:
        digits.append(n % base)
        n //= base
    return sum(d * base ** (-(k + 1)) for k, d in enumerate(digits))


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
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(2, 2) == 0.25
    assert radical_inverse(3, 2) == 0.75
    assert radical_inverse(4, 2) == 0.125
    assert radical_inverse(1, 3) == pytest.approx(1.0 / 3.0, abs=0)
    # 5 = (1 2)_3, mirrored: 2/3 + 1/9 = 7/9 (single correctly rounded division)
    assert radical_inverse(5, 3) == pytest.approx(7.0 / 9.0, abs=0)


def test_radical_inverse_matches_digit_oracle():
    for base in (2, 3, 5, 7, 13):
        for n in range(1, 300):
            assert radical_inverse(n, base) == pytest.approx(
                oracle_radical_inverse(n, base), abs=1e-15
            )


def test_radical_inverse_rejects_bad_input():
    with pytest.raises(ValueError):
        radical_inverse(0, 2)
    with pytest.raises(ValueError):
        radical_inverse(3, 1)


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_halton_point_first_elements():
    np.testing.assert_allclose(halton_point(1, 2), [0.5, 1.0 / 3.0], atol=0)
    np.testing.assert_allclose(halton_point(2, 2), [0.25, 2.0 / 3.0], atol=0)


def test_halton_block_agrees_with_pointwise():
    blk = halton_block(7, 40, 3)
    for i in range(40):
        np.testing.assert_array_equal(blk[i], halton_point(7 + i, 3))


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
    expected = [[radical_inverse(n, b) for b in bases] for n in range(last - 63, last + 1)]
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
    expected = [[radical_inverse(n, b) for b in first_primes(q)] for n in range(last - 9, last + 1)]
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
        u = [radical_inverse(n, b) for b in first_primes(2 * pairs)]
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
    z1, z2 = box_muller_pair(math.exp(-2.0), 0.25)  # angle pi/2
    assert z1 == pytest.approx(2.0, abs=1e-12)
    assert z2 == pytest.approx(0.0, abs=1e-12)
    z1, z2 = box_muller_pair(math.exp(-2.0), 0.5)  # angle pi
    assert z1 == pytest.approx(0.0, abs=1e-12)
    assert z2 == pytest.approx(-2.0, abs=1e-12)
    z1, z2 = box_muller_pair(1.0, 0.7)  # log 1 = 0
    assert z1 == 0.0 and z2 == 0.0


def test_box_muller_domain():
    with pytest.raises(ValueError):
        box_muller_pair(0.0, 0.5)
    with pytest.raises(ValueError):
        box_muller_pair(0.5, 1.0)


def test_box_muller_moments_on_uniform_grid():
    # Deterministic check: push a fine uniform grid through the map and
    # compare with the standard normal moments.
    m = 401
    u1 = (np.arange(m) + 0.5) / m
    u2 = (np.arange(m) + 0.5) / m
    zs = []
    for a in u1:
        for b in u2:
            zs.extend(box_muller_pair(a, b))
    zs = np.asarray(zs)
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


def test_star_discrepancy_guard_and_domain():
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([[0.5, 0.5, 0.5, 0.5]] * 120))  # 120^4*4 > 1e8
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([1.0]))
    with pytest.raises(ValueError):
        star_discrepancy_exact(np.array([-0.1]))


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
    ],
    ids=["iid-uniform", "iid-gaussian", "halton", "halton-gaussian",
         "ar1", "markov", "euler"],
)
def test_sources_deterministic_and_consumption_invariant(factory):
    # same construction => identical stream, however it is consumed
    a = factory()
    b = factory()
    left = a.take_block(700)
    right = np.vstack([b.next() for _ in range(700)])
    np.testing.assert_array_equal(left, right)
    # interleaving block and single draws does not change the sequence
    c = factory()
    mixed = np.vstack([c.take_block(13), np.vstack([c.next() for _ in range(9)]), c.take_block(678)])
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


def ar1_by_hand(dimension, seed, a, x0):
    z = IidGaussianSource(dimension, seed).take_block(HAND_ROWS)
    out = np.empty_like(z)
    x = np.broadcast_to(np.asarray(x0, dtype=float), (dimension,)).copy()
    for i in range(HAND_ROWS):
        x = a * x + z[i]
        out[i] = x
    return out


def markov_by_hand(transition, values, seed, initial_state):
    cum = np.cumsum(np.asarray(transition, dtype=float), axis=1)
    vals = np.asarray(values, dtype=float)
    # the source maps one uniform of IidUniformSource(1, seed) per row;
    # the first row's goes unused
    u = IidUniformSource(1, seed).take_block(HAND_ROWS)[:, 0]
    out = np.empty((HAND_ROWS, vals.shape[1]))
    s = initial_state
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
    "dimension, a, x0",
    [
        (1, -0.9, [2.5]),
        (2, -0.7, [1.5, -2.0]),
        (5, 0.95, [-3.0, -1.0, 0.0, 1.0, 3.0]),
    ],
    ids=["d1", "d2", "d5"],
)
def test_ar1_matches_hand_loop(dimension, a, x0, interleaved):
    got = consume(Ar1MixingSource(dimension, seed=17, a=a, x0=x0), interleaved)
    np.testing.assert_array_equal(got, ar1_by_hand(dimension, 17, a, x0))


@pytest.mark.parametrize("interleaved", [False, True], ids=["block", "interleaved"])
def test_markov_chain_matches_hand_loop(interleaved):
    # mostly a rotation 0 -> 1 -> 2 -> 0, so a state lost at a buffer
    # refill shows in the next row
    P = [[0.1, 0.8, 0.1], [0.05, 0.15, 0.8], [0.7, 0.2, 0.1]]
    values = [[1.0, -2.0], [0.5, 0.25], [3.0, 7.0]]
    got = consume(FiniteMarkovChainSource(P, values, seed=8, initial_state=2), interleaved)
    np.testing.assert_array_equal(got, markov_by_hand(P, values, 8, 2))


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
    assert a.kind == "iid-gaussian"


def test_make_source_rejects_unknown():
    with pytest.raises(ValueError):
        make_source("sobol")
    with pytest.raises(ValueError):
        make_source("halton", dimension=1, seed=0, scramble=True)
    with pytest.raises(ValueError):
        make_source("euler-decreasing")
