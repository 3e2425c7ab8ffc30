"""The three block buffers of :mod:`repro.sim.sampling`, as one table
for the tests that run the shared mechanism over each of them."""

import math
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.sim.distributions import LogNormal
from repro.sim.sampling import (
    BufferedSampler,
    LogNormalBlockServer,
    UniformBuffer,
)

_DELAY = LogNormal(mean_us=40.0, std_us=6.0)
_MU, _SIGMA = 1.5, 0.25


class BlockBufferCase(NamedTuple):
    #: ``make(rng, block)`` builds the buffer on ``rng``.
    make: Callable[[np.random.Generator, int], Any]
    #: ``serve(buffer, rng)`` serves one value the way its owner does.
    serve: Callable[[Any, np.random.Generator], float]
    #: The served value of one raw value that ``peek``/``take`` return.
    value: Callable[[float], float]
    #: ``scalar(rng)``: the same draw made straight from a generator.
    scalar: Callable[[np.random.Generator], float]


BLOCK_BUFFERS = {
    "BufferedSampler": BlockBufferCase(
        make=lambda rng, block: BufferedSampler(_DELAY, rng, block),
        serve=lambda buffer, rng: buffer.sample(rng),
        value=float,
        scalar=lambda rng: float(_DELAY.sample(rng))),
    "LogNormalBlockServer": BlockBufferCase(
        make=LogNormalBlockServer,
        serve=lambda buffer, rng: buffer.sample(_MU, _SIGMA),
        value=lambda z: math.exp(_MU + _SIGMA * z),
        scalar=lambda rng: float(rng.lognormal(_MU, _SIGMA))),
    "UniformBuffer": BlockBufferCase(
        make=UniformBuffer,
        serve=lambda buffer, rng: buffer.next(),
        value=float,
        scalar=lambda rng: float(rng.random())),
}


@pytest.fixture
def block_buffers() -> dict[str, BlockBufferCase]:
    """Every block buffer class, by name."""
    return BLOCK_BUFFERS
