"""Unit tests for the slotted engine's building blocks.

End-to-end bit-identity is pinned by
tests/integration/test_slotted_equivalence.py; this module covers the
pieces in isolation: the columnar population store, the per-packet
budget decomposition the engine records, engine selection and
eligibility, the peek/commit/take contract of the block buffers the
engine draws through, and the release of each UE's stream and block server
once the UE can draw no more.
"""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.faults import FaultPlan
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import SLOTTED_THRESHOLD, RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import none as no_jitter
from repro.radio.radio_head import RadioHead
from repro.sim.distributions import Exponential, LogNormal
from repro.sim import rng as rng_module
from repro.sim.rng import RngRegistry, seed_words
from repro.sim.sampling import BufferedSampler, force_sequential
from repro.sim.sanitize import DeterminismViolation
from repro.sim.slotted import UePopulation, ineligibility
from repro.traffic.generators import uniform_in_horizon


# ---------------------------------------------------------------------------
# UePopulation
# ---------------------------------------------------------------------------
def test_population_rejects_empty():
    with pytest.raises(ValueError):
        UePopulation(0)


def test_population_add_packet_validation():
    population = UePopulation(2)
    with pytest.raises(ValueError):
        population.add_packet(1, 0, 0, 10)
    with pytest.raises(ValueError):
        population.add_packet(1, 0, 32, -1)


def test_population_rows_are_dense_and_parallel():
    population = UePopulation(3)
    rows = [population.add_packet(ue, pid, 32, 100 * pid)
            for pid, ue in enumerate([1, 3, 1, 2], start=1)]
    assert rows == [0, 1, 2, 3]
    assert len(population) == 4
    assert population.ue == [1, 3, 1, 2]
    assert population.created == [100, 200, 300, 400]
    assert population.queued == [0, 2, 1, 1]  # index 0 unused
    # every per-packet column grew in lockstep
    for column in (population.packet_id, population.payload,
                   population.header, population.retx,
                   population.budget_processing,
                   population.budget_protocol, population.budget_radio):
        assert len(column) == 4


# ---------------------------------------------------------------------------
# eligibility and engine selection
# ---------------------------------------------------------------------------
def _system(**overrides):
    config = dict(access=AccessMode.GRANT_FREE, n_ues=2, seed=3,
                  engine="scalar")
    config.update(overrides)
    return RanSystem(testbed_dddu(), RanConfig(**config))


def test_ineligibility_reports_first_violation():
    assert ineligibility(_system()) is None
    assert "grant-free" in ineligibility(
        _system(access=AccessMode.GRANT_BASED))
    radio_head = RadioHead("rh", usb3(), no_jitter())
    assert "radio head" in ineligibility(
        _system(gnb_radio_head=radio_head))
    assert "radio head" in ineligibility(
        _system(ue_radio_head=radio_head))
    assert "CPU" in ineligibility(_system(gnb_cpu_cores=4))


def test_ineligibility_rejects_unsupported_sampler():
    system = _system()
    system.gnb.up_pipeline.layers[0].delay = Exponential(5.0)
    assert "Exponential" in ineligibility(system)


def test_engine_slotted_raises_for_unsupported_config():
    with pytest.raises(ValueError, match="grant-free"):
        RanSystem(testbed_dddu(),
                  RanConfig(access=AccessMode.GRANT_BASED,
                            engine="slotted"))


def test_engine_name_is_validated():
    with pytest.raises(ValueError, match="engine"):
        RanSystem(testbed_dddu(), RanConfig(engine="vectorised"))


def test_engine_auto_uses_threshold():
    assert _system(engine="auto",
                   n_ues=SLOTTED_THRESHOLD - 1).engine_mode == "scalar"
    assert _system(engine="auto",
                   n_ues=SLOTTED_THRESHOLD).engine_mode == "slotted"
    # ineligible configs fall back to scalar regardless of size
    assert _system(engine="auto", n_ues=SLOTTED_THRESHOLD,
                   gnb_cpu_cores=2).engine_mode == "scalar"


def test_engine_slotted_is_uplink_only():
    system = _system(engine="slotted")
    with pytest.raises(RuntimeError, match="uplink"):
        system.run_downlink([1_000])
    with pytest.raises(RuntimeError, match="uplink"):
        system.run_ping([1_000])


# ---------------------------------------------------------------------------
# peek/commit/take/release — the block buffers' public API the engine
# draws through, run over each of the three buffers
# ---------------------------------------------------------------------------
def test_block_server_peek_does_not_consume(block_buffers, subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            buffer = case.make(np.random.default_rng(5), 8)
            first = buffer.peek(4)
            assert buffer.peek(4) == first
            # a larger peek extends the view but keeps the prefix
            assert buffer.peek(10)[:4] == first


def test_block_server_peek_commit_equals_serving(block_buffers, subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            rng = np.random.default_rng(5)
            served = case.make(rng, 8)
            expected = [case.serve(served, rng) for _ in range(20)]
            peeked = case.make(np.random.default_rng(5), 8)
            # reconstruct each value as the engine does (scalar math.exp
            # for the normals)
            raw = peeked.peek(7)
            peeked.commit(7)
            raw += peeked.take(7)
            raw += peeked.peek(6)
            peeked.commit(6)
            assert [case.value(v) for v in raw] == expected


def test_block_server_peek_is_none_when_sequential(block_buffers, subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            rng = np.random.default_rng(5)
            buffer = case.make(rng, 8)
            with force_sequential():
                assert buffer.peek(1) is None
                assert buffer.take(1) is None
                # the scalar fallback still serves the stream
                served = case.serve(buffer, rng)
            assert served == case.scalar(np.random.default_rng(5))


def test_buffered_sampler_peek_commit_equals_serving():
    rng_a = np.random.default_rng(9)
    rng_b = np.random.default_rng(9)
    sampler = LogNormal(mean_us=40.0, std_us=6.0)
    served = BufferedSampler(sampler, rng_a, block=8)
    expected = [served.sample(rng_a) for _ in range(12)]
    peeked = BufferedSampler(sampler, rng_b, block=8)
    values = []
    # the second chunk crosses the block boundary
    for take in (5, 7):
        chunk = peeked.peek(take)
        values += [float(v) for v in chunk]
        peeked.commit(take)
    assert values == expected


def test_buffered_sampler_peek_is_none_when_sequential():
    sampler = BufferedSampler(LogNormal(mean_us=40.0, std_us=6.0),
                              np.random.default_rng(9))
    with force_sequential():
        assert sampler.peek(1) is None


def test_block_server_release_serves_the_block_on_hand(block_buffers,
                                                       subtests):
    for name, case in block_buffers.items():
        with subtests.test(buffer=name):
            rng = np.random.default_rng(5)
            kept = case.make(rng, 8)
            expected = [case.serve(kept, rng) for _ in range(8)]
            rng = np.random.default_rng(5)
            released = case.make(rng, 8)
            assert released.peek(0) == []  # draws the block
            released.release()
            assert [case.serve(released, rng) for _ in range(8)] == expected
            # A draw past the block would need the generator it let go.
            with pytest.raises(DeterminismViolation, match="released"):
                case.serve(released, rng)
            with pytest.raises(DeterminismViolation, match="released"):
                released.peek(1)


# ---------------------------------------------------------------------------
# per-UE memory: streams and servers go once a UE can draw no more
# ---------------------------------------------------------------------------
def _uplink(engine, per_ue, bler, horizon_ms=400, fault_plan=None):
    """A run where UE ``k`` queues ``per_ue[k - 1]`` packets."""
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=len(per_ue),
                  cg_share=1.0, seed=11, engine=engine,
                  channel=IidErasureChannel(bler) if bler else None,
                  fault_plan=fault_plan))
    arrivals = RngRegistry(12)
    for ue_id, count in enumerate(per_ue, start=1):
        system.queue_uplink(
            uniform_in_horizon(count, tc_from_ms(horizon_ms),
                               arrivals.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
    system.run()
    return system


def _outputs(system):
    probe = system.ul_probe
    return (probe.latencies_tc(), probe.budget_means_us(),
            system.link.counters.blocks_sent,
            system.link.counters.blocks_failed,
            system.link.counters.packets_dropped)


def _assert_ue_state_freed(system, n_ues):
    assert system.slotted._ue_servers == {}
    assert not [name for name in system.rngs.names()
                if name.startswith("ue")]
    # Released, not merely never created: the names are spent.
    for ue_id in range(1, n_ues + 1):
        with pytest.raises(DeterminismViolation):
            system.rngs.stream(f"ue{ue_id}")


@pytest.mark.parametrize("bler", [0.0, 0.3], ids=["perfect", "lossy"])
@pytest.mark.parametrize("sequential", [False, True],
                         ids=["blocks", "sequential"])
def test_run_frees_every_ue_stream_and_server(bler, sequential):
    per_ue = [4, 1, 6, 3, 5, 2]
    with force_sequential() if sequential else nullcontext():
        system = _uplink("slotted", per_ue, bler, horizon_ms=40)
    assert len(system.ul_probe) > 0
    _assert_ue_state_freed(system, len(per_ue))


@pytest.mark.parametrize("bler", [0.0, 0.3], ids=["perfect", "lossy"])
def test_ue_beyond_one_block_matches_scalar(bler):
    # 171 packets × 6 draws exceed the 1024-normal block cap, so the
    # first UE keeps its generator past the first block; the second
    # fits one block and lets go of it at its first draw.
    per_ue = [171, 4]
    slotted = _uplink("slotted", per_ue, bler)
    assert slotted.engine_mode == "slotted"
    assert _outputs(slotted) == _outputs(_uplink("scalar", per_ue, bler))
    _assert_ue_state_freed(slotted, len(per_ue))


@pytest.mark.parametrize("bler", [0.0, 0.3], ids=["perfect", "lossy"])
def test_run_seeds_ue_streams_in_one_batch(bler, monkeypatch):
    # 40 UEs with traffic: enough for run() to prepare their ue<N>
    # streams in one batch; the draws stay the scalar engine's.
    batches = []

    def spy(entropy):
        batches.append(len(entropy))
        return seed_words(entropy)

    monkeypatch.setattr(rng_module, "seed_words", spy)
    per_ue = [1 + ue_id % 3 for ue_id in range(40)]
    slotted = _uplink("slotted", per_ue, bler, horizon_ms=40)
    assert batches == [40]
    assert _outputs(slotted) == _outputs(
        _uplink("scalar", per_ue, bler, horizon_ms=40))
    # A prepared name whose words were never used would be re-seeded
    # here instead of raising.
    _assert_ue_state_freed(slotted, len(per_ue))


# ---------------------------------------------------------------------------
# the recorded budget decomposition
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("lossy", [False, True], ids=["perfect", "lossy"])
def test_budget_decomposition_is_complete_per_packet(lossy):
    # Every Tc of every delivered packet's latency is charged to one of
    # the three §4 sources, also through HARQ retransmissions, fault
    # dilation and UPF holds (1 % BLER plus the standard fault plan).
    plan = FaultPlan.resolve("standard") if lossy else None
    system = _uplink("slotted", [12] * 30, 0.01 if lossy else 0.0,
                     horizon_ms=600, fault_plan=plan)
    assert system.engine_mode == "slotted"
    probe = system.ul_probe
    assert len(probe) > 300
    assert [sum(parts) for parts in zip(
        probe.processing_tc, probe.protocol_tc, probe.radio_tc)] \
        == probe.latencies_tc()
    assert (max(probe.harq_retx) > 0) == lossy
    if lossy:
        fired = system.faults.counters.as_metrics()
        assert fired["fault_dilated_jobs"] > 0
        assert fired["fault_upf_holds"] > 0


def test_queue_uplink_rejects_arrivals_in_the_past():
    system = _system(engine="slotted")
    system.sim.advance_to(1_000)
    with pytest.raises(ValueError, match="current time"):
        system.queue_uplink([2_000, 500], ue_id=1)
