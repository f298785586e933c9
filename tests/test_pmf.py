import math

import numpy as np
import pytest

from rigclab import Pmf
from rigclab.errors import (
    EmptySupport,
    NegativeWeight,
    NotNormalized,
    OutOfDomain,
    OutOfRange,
    SupportContainsZero,
    ZeroMean,
)
from oracles import convolve_power, convolve_weights


def random_pmf(rng, max_support=6, max_value=9):
    values = rng.choice(max_value + 1, size=rng.integers(1, max_support + 1), replace=False)
    weights = rng.random(len(values)) + 0.05
    weights /= weights.sum()
    return Pmf(dict(zip(values.tolist(), weights.tolist())))


def test_construction_and_mean():
    p = Pmf({1: 0.5, 3: 0.5})
    assert p.mean() == pytest.approx(2.0, abs=1e-12)
    assert Pmf({2: 1.0}).as_dict() == {2: 1.0}


def test_construction_errors():
    with pytest.raises(NotNormalized):
        Pmf({0: 0.3, 1: 0.8})
    with pytest.raises(EmptySupport):
        Pmf({1: 0.0})
    with pytest.raises(NegativeWeight):
        Pmf({0: -0.1, 1: 1.1})
    with pytest.raises(OutOfDomain):
        Pmf({-1: 1.0})
    # NaN is neither < 0 nor > 0, so it must not be dropped like a zero weight
    with pytest.raises(NegativeWeight, match="not >= 0"):
        Pmf({1: 1.0, 3: math.nan})


def test_zero_weights_dropped_and_renormalized():
    p = Pmf({0: 0.0, 1: 0.5, 3: 0.5 + 1e-10})
    assert p.values == (1, 3)
    assert sum(p.weights) == pytest.approx(1.0, abs=1e-15)


def test_moments():
    assert Pmf({3: 1.0}).mean() == 3.0
    assert Pmf({1: 0.5, 3: 0.5}).mean() == 2.0


def test_size_bias_hand_example():
    sb = Pmf({1: 0.5, 3: 0.5}).size_bias()
    assert sb.as_dict() == pytest.approx({1: 0.25, 3: 0.75})
    assert Pmf({2: 1.0}).size_bias() == Pmf({2: 1.0})
    with pytest.raises(ZeroMean):
        Pmf({0: 1.0}).size_bias()


def test_size_bias_moment_relation():
    rng = np.random.default_rng(10)
    for _ in range(25):
        p = random_pmf(rng)
        if p.mean() == 0:
            continue
        sb = p.size_bias()
        assert sum(sb.weights) == pytest.approx(1.0, abs=1e-12)
        second = sum(v * v * w for v, w in zip(p.values, p.weights))
        assert sb.mean() == pytest.approx(second / p.mean(), abs=1e-12)


def test_shift_down_one():
    assert Pmf({1: 0.25, 3: 0.75}).shift_down_one().as_dict() == pytest.approx(
        {0: 0.25, 2: 0.75}
    )
    assert Pmf({2: 1.0}).shift_down_one() == Pmf({1: 1.0})
    with pytest.raises(SupportContainsZero):
        Pmf({0: 0.5, 1: 0.5}).shift_down_one()


def test_gf_eval_values():
    p = Pmf({0: 0.25, 2: 0.75})
    assert p.gf_eval(1.0) == pytest.approx(1.0, abs=1e-15)
    assert p.gf_eval(0.0) == pytest.approx(0.25, abs=1e-15)
    assert p.gf_eval(0.5) == pytest.approx(0.4375, abs=1e-15)
    with pytest.raises(OutOfDomain):
        p.gf_eval(1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gf_eval_refuses_nan_and_infinities(bad):
    """The vectorized PGF refuses what the scalar one refuses, NaN included,
    alone or beside points inside [0, 1]."""
    p = Pmf({0: 0.25, 2: 0.75})
    with pytest.raises(OutOfDomain):
        p.gf_eval(bad)
    for z in ([bad], [0.5, bad], [bad, 0.0, 1.0]):
        with pytest.raises(OutOfDomain):
            p.gf_eval_many(np.array(z))
    assert p.gf_eval_many(np.array([0.0, 0.5, 1.0])).tolist() == [0.25, 0.4375, 1.0]


def test_gf_inverse_values():
    # an atom at 0 plus one more inverts in closed form, exact at these points
    p = Pmf({0: 0.25, 2: 0.75})
    assert p.gf_inverse_many([1.0, 0.25, 0.4375]).tolist() == [1.0, 0.0, 0.5]
    # here (1 - p0) / p3 rounds to 1 + 2^-52, but the root stays in [0, 1]
    assert Pmf({0: 0.6657567303994364, 3: 0.33424326960056355}).gf_inverse_many(1.0) == 1.0
    # any other support is bisected: G(z) = (z + z^2) / 2 has G(1/2) = 3/8
    assert Pmf({1: 0.5, 2: 0.5}).gf_inverse_many(0.375) == pytest.approx(0.5, abs=1e-15)
    for y in (0.2, 1.5, math.nan, [0.5, math.nan]):
        with pytest.raises(OutOfRange):
            p.gf_inverse_many(y)
    with pytest.raises(OutOfRange):
        Pmf({0: 1.0}).gf_inverse_many(0.5)


def test_gf_inverse_roundtrip_property():
    # both routes: closed forms (one atom, or an atom at 0 plus one more) and
    # the parallel bisection; gf_eval refuses a root outside [0, 1]
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = random_pmf(rng)
        if p.prob(0) >= 1.0:
            continue
        ys = np.linspace(p.prob(0), 1.0, 23)
        for y, z in zip(ys, p.gf_inverse_many(ys)):
            assert p.gf_eval(float(z)) == pytest.approx(float(y), abs=1e-14)


def test_gf_inverse_many_matches_scalar():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_pmf(rng)
        if p.prob(0) >= 1.0:
            continue
        ys = np.linspace(p.prob(0), 1.0, 23)
        zs = p.gf_inverse_many(ys)
        for y, z in zip(ys, zs):
            assert p.gf_eval(float(z)) == pytest.approx(float(y), abs=1e-10)


def test_tilted_gf_matches_derivative():
    # PGF of the down-shifted size-biased law equals G'(z)/E[X]; check the
    # derivative by central finite differences
    rng = np.random.default_rng(13)
    for _ in range(15):
        p = random_pmf(rng)
        if p.mean() <= 0:
            continue
        tilted = p.size_bias().shift_down_one()
        eps = 1e-6
        for z in (0.1, 0.45, 0.8):
            dg = (p.gf_eval(z + eps) - p.gf_eval(z - eps)) / (2 * eps)
            assert tilted.gf_eval(z) == pytest.approx(dg / p.mean(), abs=1e-6)


def test_convolution():
    assert convolve_weights({2: 1.0}, {2: 1.0}) == {4: 1.0}
    assert convolve_power(Pmf({2: 1.0}), 3) == {6: 1.0}
    coin = {0: 0.5, 1: 0.5}
    assert convolve_weights(coin, coin) == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})


def test_convolve_power_degenerate_and_subprobability():
    assert convolve_power(Pmf({5: 1.0}), 0) == {0: 1.0}
    assert convolve_power({1: 0.25, 2: 0.25}, 0) == {0: 1.0}
    out = convolve_power({1: 0.5, 2: 0.25}, 2)
    assert sum(out.values()) == pytest.approx(0.75**2)


def test_convolution_commutative_associative():
    rng = np.random.default_rng(14)
    for _ in range(8):
        a, b, c = (random_pmf(rng, max_support=4, max_value=5) for _ in range(3))
        a, b, c = (x.as_dict() for x in (a, b, c))
        ab = convolve_weights(a, b)
        ba = convolve_weights(b, a)
        assert sorted(ab) == sorted(ba)
        assert np.allclose([ab[k] for k in sorted(ab)], [ba[k] for k in sorted(ab)], atol=1e-14)
        left = convolve_weights(convolve_weights(a, b), c)
        right = convolve_weights(a, convolve_weights(b, c))
        assert sorted(left) == sorted(right)
        assert np.allclose(
            [left[k] for k in sorted(left)], [right[k] for k in sorted(left)], atol=1e-13
        )


def test_poisson_truncation():
    p = Pmf.poisson(2.5)
    assert sum(p.weights) == pytest.approx(1.0, abs=1e-14)
    assert p.mean() == pytest.approx(2.5, abs=1e-9)
    ref = math.exp(-2.5)
    assert p.prob(0) == pytest.approx(ref, rel=1e-10)


def test_poisson_large_mean_terminates():
    from scipy.stats import poisson

    p = Pmf.poisson(800.0)
    assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)
    assert p.mean() == pytest.approx(800.0, abs=1e-6)
    for k in (700, 800, 900):
        assert p.prob(k) == pytest.approx(poisson.pmf(k, 800.0), rel=1e-9)
    # both cut tails together hold at most 1e-12 of the mass
    assert poisson.cdf(p.values[0] - 1, 800.0) + poisson.sf(p.values[-1], 800.0) < 1e-12


@pytest.mark.parametrize("mean", [0.0, -1.0, math.nan, math.inf, 1e300])
def test_poisson_rejects_bad_mean(mean):
    with pytest.raises(OutOfDomain):
        Pmf.poisson(mean)
