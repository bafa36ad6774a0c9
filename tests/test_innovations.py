"""Innovation-stream unit tests.

The reference values here are produced by independent oracles: a
string-based digit-reversal for radical inverses, an exhaustive
corner-enumeration for the star discrepancy, and hand-computed closed
forms for the Gaussian map.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

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


def test_iid_gaussian_uses_box_muller_map():
    # White-box determinism contract: the Gaussian stream is exactly the
    # Box-Muller image of the generator's uniform pairs.
    src = IidGaussianSource(1, seed=123)
    got = src.take_block(4096)[:, 0]
    rng = np.random.default_rng(np.random.SeedSequence(123))
    u = rng.random((2, 2048))
    r = np.sqrt(-2.0 * np.log(1.0 - u[0]))
    want = np.empty(4096)
    want[0::2] = r * np.sin(2.0 * math.pi * u[1])
    want[1::2] = r * np.cos(2.0 * math.pi * u[1])
    np.testing.assert_array_equal(got, want)


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
    # the source draws one uniform per row; the first row's goes unused
    u = np.random.default_rng(np.random.SeedSequence(seed)).random(HAND_ROWS)
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
