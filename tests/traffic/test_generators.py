"""Unit tests for arrival processes."""

import numpy as np
import pytest

from repro.phy.timebase import tc_from_ms, tc_from_us
from repro.sim.rng import RngRegistry
from repro.traffic.generators import periodic, poisson, uniform_in_horizon


def test_uniform_count_and_range(rng):
    horizon = tc_from_ms(10)
    arrivals = uniform_in_horizon(500, horizon, rng, start_tc=100)
    assert len(arrivals) == 500
    assert arrivals == sorted(arrivals)
    assert min(arrivals) >= 100
    assert max(arrivals) < 100 + horizon


def test_uniform_covers_the_pattern(rng):
    # §7's workload: phases must spread across the whole horizon.
    horizon = tc_from_ms(2)
    arrivals = uniform_in_horizon(2_000, horizon, rng)
    phases = np.array(arrivals) / horizon
    counts, _ = np.histogram(phases, bins=4, range=(0, 1))
    assert counts.min() > 350  # roughly even quarters


@pytest.mark.parametrize("start_tc", [0, 12_345])
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_uniform_returns_the_drawn_ints(seed, start_tc):
    horizon = tc_from_ms(2_000)
    arrivals = uniform_in_horizon(64, horizon,
                                  RngRegistry(seed).stream("arrivals"),
                                  start_tc=start_tc)
    drawn = start_tc + RngRegistry(seed).stream("arrivals").integers(
        0, horizon, size=64)
    assert arrivals == sorted(int(a) for a in drawn)
    assert all(type(a) is int for a in arrivals)


def test_uniform_validation(rng):
    with pytest.raises(ValueError):
        uniform_in_horizon(0, 100, rng)
    with pytest.raises(ValueError):
        uniform_in_horizon(10, 0, rng)


def test_periodic_spacing():
    arrivals = periodic(5, tc_from_us(1000), start_tc=50)
    assert arrivals == [50 + i * tc_from_us(1000) for i in range(5)]


def test_periodic_jitter_requires_rng():
    with pytest.raises(ValueError):
        periodic(5, 100, jitter_tc=10)


def test_periodic_jitter_bounded(rng):
    period = tc_from_us(1000)
    arrivals = periodic(100, period, jitter_tc=50, rng=rng)
    for index, arrival in enumerate(arrivals):
        assert abs(arrival - index * period) <= 50


def test_periodic_validation():
    with pytest.raises(ValueError):
        periodic(0, 100)


def test_poisson_rate(rng):
    horizon = tc_from_ms(1_000)
    arrivals = poisson(1_000.0, horizon, rng)
    assert len(arrivals) == pytest.approx(1_000, rel=0.15)
    assert all(0 <= a < horizon for a in arrivals)


def test_poisson_validation(rng):
    with pytest.raises(ValueError):
        poisson(0.0, 100, rng)
