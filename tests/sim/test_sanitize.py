"""Runtime determinism sanitizer: recording, claims, bit-identity."""

import numpy as np
import pytest

from repro.sim.distributions import Exponential, LogNormal
from repro.sim.rng import RngRegistry
from repro.sim.sampling import BufferedSampler, UniformBuffer, force_sequential
from repro.sim.sanitize import (
    DeterminismViolation,
    RecordingGenerator,
    sanitize_active,
    sanitizer_session,
    set_sim_clock,
)


def test_sanitizer_off_by_default_vends_plain_generators(monkeypatch):
    monkeypatch.delenv("URLLC5G_SANITIZE", raising=False)
    assert not sanitize_active()
    rng = RngRegistry(7).stream("plain")
    assert isinstance(rng, np.random.Generator)
    assert not isinstance(rng, RecordingGenerator)


def test_session_wraps_streams_and_caches_the_proxy():
    with sanitizer_session():
        assert sanitize_active()
        registry = RngRegistry(7)
        rng = registry.stream("wrapped")
        assert isinstance(rng, RecordingGenerator)
        # The cache returns the *same* proxy, so identity checks such as
        # `rng is self._rng` keep working under the sanitizer.
        assert registry.stream("wrapped") is rng
    assert not sanitize_active()


def test_env_flag_activates_sanitizer(monkeypatch):
    monkeypatch.setenv("URLLC5G_SANITIZE", "1")
    assert sanitize_active()
    assert isinstance(RngRegistry(1).stream("env"), RecordingGenerator)


def test_sanitized_draws_are_bit_identical():
    plain = RngRegistry(42).stream("draws")
    reference = [plain.random() for _ in range(5)]
    reference += list(plain.normal(size=3))
    with sanitizer_session():
        wrapped = RngRegistry(42).stream("draws")
        values = [wrapped.random() for _ in range(5)]
        values += list(wrapped.normal(size=3))
    assert values == reference


def test_draw_log_records_stream_consumer_and_count():
    with sanitizer_session() as log:
        rng = RngRegistry(0).stream("logged")
        for _ in range(4):
            rng.random()
        rng.integers(10)
    assert log.draw_counts() == {"logged": 5}
    (consumer,) = log.consumer_map()["logged"]
    assert consumer.endswith(
        "test_draw_log_records_stream_consumer_and_count")
    recent = list(log.stream("logged").recent)
    assert [r.method for r in recent] == ["random"] * 4 + ["integers"]
    assert [r.index for r in recent] == list(range(5))


def test_sim_clock_timestamps_draw_records():
    with sanitizer_session() as log:
        set_sim_clock(lambda: 1234)
        try:
            RngRegistry(0).stream("timed").random()
        finally:
            set_sim_clock(None)
    assert log.stream("timed").recent[0].sim_time == 1234


def test_buffered_sampler_still_bit_identical_under_sanitizer():
    sampler = LogNormal(55.21, 16.31)
    scalar_rng = RngRegistry(9).stream("bits")
    scalar = [sampler.sample(scalar_rng) for _ in range(40)]
    with sanitizer_session():
        rng = RngRegistry(9).stream("bits")
        buffered = BufferedSampler(sampler, rng, block=16)
        assert [buffered.sample(rng) for _ in range(40)] == scalar


def test_direct_draw_on_claimed_stream_raises():
    with sanitizer_session():
        rng = RngRegistry(3).stream("upf")
        BufferedSampler(Exponential(12.0), rng, block=8)
        with pytest.raises(DeterminismViolation,
                           match="exclusively owned") as err:
            rng.random()
    assert err.value.stream == "upf"
    assert "BufferedSampler" in err.value.owner
    assert err.value.consumer.endswith(
        "test_direct_draw_on_claimed_stream_raises")


def test_double_claim_of_one_stream_raises(block_buffers, subtests):
    # Two buffers of one class built by one frame share an owner label;
    # the claim is the generator's, so the second still raises.
    for first, claimant in block_buffers.items():
        for second, rival in block_buffers.items():
            with subtests.test(first=first, second=second):
                with sanitizer_session():
                    rng = RngRegistry(3).stream("link")
                    claimant.make(rng, 8)
                    with pytest.raises(DeterminismViolation,
                                       match="two buffers") as err:
                        rival.make(rng, 8)
                assert first in err.value.owner
                assert second in err.value.consumer


def test_same_named_streams_of_two_registries_do_not_collide(
        block_buffers):
    with sanitizer_session():
        runs = [RngRegistry(seed).stream("link") for seed in (3, 4, 5)]
        block_buffers["UniformBuffer"].make(runs[0], 8)
        block_buffers["LogNormalBlockServer"].make(runs[1], 8)
        assert 0.0 <= runs[2].random() < 1.0
        with pytest.raises(DeterminismViolation, match="exclusively owned"):
            runs[0].random()


def test_uniform_buffer_claim_blocks_direct_draws():
    with sanitizer_session():
        rng = RngRegistry(5).stream("link")
        uniforms = UniformBuffer(rng, block=8)
        assert uniforms.next() >= 0.0
        with pytest.raises(DeterminismViolation, match="exclusively owned"):
            rng.random()


def test_force_sequential_whole_run_is_fine_under_sanitizer():
    sampler = Exponential(5.0)
    reference_rng = RngRegistry(6).stream("seq")
    reference = [sampler.sample(reference_rng) for _ in range(6)]
    with sanitizer_session():
        rng = RngRegistry(6).stream("seq")
        buffered = BufferedSampler(sampler, rng, block=32)
        with force_sequential():
            assert [buffered.sample(rng) for _ in range(6)] == reference


def test_force_sequential_mid_run_raises_under_sanitizer(block_buffers,
                                                         subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            with sanitizer_session():
                rng = RngRegistry(6).stream("mid")
                buffer = case.make(rng, 4)
                for _ in range(6):  # crosses a block boundary
                    case.serve(buffer, rng)
                with force_sequential():
                    # the two values on hand are still served; the
                    # refill after them raises
                    case.serve(buffer, rng)
                    case.serve(buffer, rng)
                    with pytest.raises(DeterminismViolation,
                                       match="mid-run") as err:
                        case.serve(buffer, rng)
            assert err.value.stream == "mid"
            assert name in err.value.owner
            assert err.value.consumer.endswith("<lambda>")


def test_foreign_generator_violation_names_both_sides():
    with sanitizer_session():
        rng = RngRegistry(2).stream("owned")
        buffered = BufferedSampler(Exponential(1.0), rng, block=8)
        with pytest.raises(DeterminismViolation,
                           match="owns its Generator") as err:
            buffered.sample(np.random.default_rng(0))
    assert err.value.stream == "owned"
    assert err.value.consumer.endswith(
        "test_foreign_generator_violation_names_both_sides")


def test_proxy_forwards_non_draw_attributes():
    with sanitizer_session() as log:
        rng = RngRegistry(1).stream("fwd")
        assert rng.bit_generator is rng.wrapped.bit_generator
        assert rng.stream_name == "fwd"
    assert log.draw_counts() == {}
