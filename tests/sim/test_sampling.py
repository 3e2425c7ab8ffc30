"""Buffered sampling: bit-stream equivalence, ownership, fallbacks."""

import numpy as np
import pytest

from repro.sim.distributions import (
    Constant,
    Exponential,
    LogNormal,
    Spiked,
    TruncatedNormal,
)
from repro.sim.sampling import (
    BufferedSampler,
    DeterminismViolation,
    LogNormalBlockServer,
    UniformBuffer,
    buffering_enabled,
    force_sequential,
)

SAMPLERS = [
    Constant(7.5),
    LogNormal(55.21, 16.31),
    LogNormal(10.0, 0.0),   # degenerate: constant
    LogNormal(0.0, 0.0),    # degenerate: zero
    TruncatedNormal(5.0, 20.0),  # wide std so clipping actually engages
    Exponential(12.0),
    Exponential(0.0),
    Spiked(LogNormal(10.0, 3.0), Exponential(200.0), 0.3),
]


def _ids(sampler):
    return type(sampler).__name__ + "/" + repr(sampler)


@pytest.mark.parametrize("sampler", SAMPLERS, ids=map(_ids, SAMPLERS))
def test_sample_batch_consumes_stream_like_scalar_calls(sampler):
    scalar_rng = np.random.default_rng(42)
    batch_rng = np.random.default_rng(42)
    n = 257
    scalar = [sampler.sample(scalar_rng) for _ in range(n)]
    batch = sampler.sample_batch(batch_rng, n)
    assert batch.shape == (n,)
    assert list(batch) == scalar
    # The generators are left at the same stream position.
    assert scalar_rng.random() == batch_rng.random()


@pytest.mark.parametrize("sampler", SAMPLERS, ids=map(_ids, SAMPLERS))
def test_buffered_sampler_matches_scalar_across_block_boundaries(sampler):
    scalar_rng = np.random.default_rng(9)
    buffered_rng = np.random.default_rng(9)
    buffered = BufferedSampler(sampler, buffered_rng, block=16)
    n = 50  # crosses three block boundaries
    scalar = [sampler.sample(scalar_rng) for _ in range(n)]
    assert [buffered.sample(buffered_rng) for _ in range(n)] == scalar


@pytest.mark.parametrize("block", [16, None])
def test_lognormal_block_server_matches_scalar_lognormal(block):
    """Served draws equal scalar ``Generator.lognormal`` bit for bit,
    with (mu, sigma) varying per draw and across block refills."""
    params = [(3.98, 0.29), (1.5, 0.25), (0.0, 1.0)]
    rng = np.random.default_rng(6)
    server = (LogNormalBlockServer(rng) if block is None
              else LogNormalBlockServer(rng, block))
    served = [server.sample(*params[i % 3]) for i in range(5_000)]
    scalar_rng = np.random.default_rng(6)
    expected = [float(scalar_rng.lognormal(*params[i % 3]))
                for i in range(5_000)]
    assert served == expected


def test_buffered_sampler_rejects_foreign_generator():
    owner = np.random.default_rng(1)
    buffered = BufferedSampler(LogNormal(10.0, 3.0), owner)
    with pytest.raises(DeterminismViolation, match="owns its Generator"):
        buffered.sample(np.random.default_rng(1))  # equal seed, not same


def test_buffered_sampler_exposes_mean_and_wrapped_sampler():
    inner = LogNormal(55.21, 16.31)
    buffered = BufferedSampler(inner, np.random.default_rng(0))
    assert buffered.mean_us == inner.mean_us


def test_buffered_sampler_rejects_empty_block():
    with pytest.raises(ValueError, match="block"):
        BufferedSampler(Constant(1.0), np.random.default_rng(0), block=0)


def test_force_sequential_uses_scalar_draws():
    assert buffering_enabled()
    rng = np.random.default_rng(3)
    reference = np.random.default_rng(3)
    sampler = Exponential(5.0)
    buffered = BufferedSampler(sampler, rng, block=128)
    with force_sequential():
        assert not buffering_enabled()
        values = [buffered.sample(rng) for _ in range(10)]
    assert buffering_enabled()
    assert values == [sampler.sample(reference) for _ in range(10)]
    # Only 10 draws were consumed — no 128-wide block was pre-drawn.
    assert rng.random() == reference.random()


def test_uniform_buffer_matches_scalar_stream():
    buffered_rng = np.random.default_rng(8)
    scalar_rng = np.random.default_rng(8)
    uniforms = UniformBuffer(buffered_rng, block=8)
    assert [uniforms.next() for _ in range(20)] == \
        [float(scalar_rng.random()) for _ in range(20)]


def test_uniform_buffer_force_sequential():
    rng = np.random.default_rng(5)
    reference = np.random.default_rng(5)
    uniforms = UniformBuffer(rng, block=64)
    with force_sequential():
        values = [uniforms.next() for _ in range(5)]
    assert values == [float(reference.random()) for _ in range(5)]
    assert rng.random() == reference.random()  # no block pre-drawn
