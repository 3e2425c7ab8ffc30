"""Integration tests for feedback-timed HARQ in the full DES."""

import pytest

from repro.mac.catalog import testbed_dddu
from repro.mac.harq import HarqFeedbackModel
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel
from repro.phy.timebase import tc_from_ms, tc_from_us, us_from_tc
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon


def arrivals(n, seed, horizon_ms=1_000):
    return uniform_in_horizon(n, tc_from_ms(horizon_ms),
                              RngRegistry(seed).stream("a"))


@pytest.mark.parametrize("direction", ["dl", "ul"])
def test_retransmission_waits_for_harq_feedback(direction):
    """A failed block's packets re-enter DL scheduling or UL CG planning
    exactly at the HARQ feedback instant of the failed transmission:
    the NACK's round trip over the opposite timeline, never at once."""
    scheme = testbed_dddu()
    system = RanSystem(scheme,
                       RanConfig(channel=IidErasureChannel(0.3), seed=51))
    feedback = HarqFeedbackModel(scheme, feedback_for=direction)
    failed: dict[int, list[int]] = {}
    resumed: dict[int, list[int]] = {}

    def note(log, packets, now):
        for packet in packets:
            log.setdefault(packet.packet_id, []).append(now)

    if direction == "dl":
        nack, requeue = system._dl_nack, system.gnb.scheduler.requeue_dl

        def on_nack(packets, completion):
            note(failed, packets, completion)
            nack(packets, completion)

        def on_resume(packets):
            note(resumed, packets, system.sim.now)
            requeue(packets)

        system._dl_nack = on_nack
        system.gnb.scheduler.requeue_dl = on_resume
        probe = system.run_downlink(arrivals(200, seed=52))
    else:
        nack, retransmit = system._ul_nack, system.ues[1].retransmit_uplink

        def on_nack(ue_id, packets, completion):
            note(failed, packets, completion)
            nack(ue_id, packets, completion)

        def on_resume(packets):
            note(resumed, packets, system.sim.now)
            retransmit(packets)

        system._ul_nack = on_nack
        system.ues[1].retransmit_uplink = on_resume
        probe = system.run_uplink(arrivals(200, seed=52))

    assert len(probe) + system.link.counters.packets_dropped == 200
    assert failed and resumed.keys() == failed.keys()
    for packet_id, completions in failed.items():
        feedback_at = [feedback.feedback_time(c) for c in completions]
        assert resumed[packet_id] == feedback_at
        assert all(at - c >= tc_from_us(400.0)
                   for at, c in zip(feedback_at, completions))


def test_pool_releases_keep_in_flight_bounded():
    system = RanSystem(testbed_dddu(), RanConfig(seed=53))
    system.run_downlink(arrivals(300, seed=54))
    assert system.harq_pool is not None
    assert system.harq_pool.in_flight == 0
    assert system.harq_pool.peak_in_flight >= 1


def test_tiny_pool_stalls_under_backlog():
    # One HARQ process on DDDU: the feedback round trip spans the
    # pattern, so at most one block per ~2 ms can fly; a backlog forces
    # window stalls but everything still delivers.
    system = RanSystem(testbed_dddu(),
                       RanConfig(seed=55, harq_processes=1))
    probe = system.run_downlink(arrivals(60, seed=56, horizon_ms=100))
    assert len(probe) == 60
    assert system.harq_pool.stalls > 0


def test_stalls_absent_with_full_pool():
    system = RanSystem(testbed_dddu(),
                       RanConfig(seed=57, harq_processes=16))
    system.run_downlink(arrivals(60, seed=56, horizon_ms=100))
    assert system.harq_pool.stalls == 0


def test_feedback_round_trip_magnitude_on_dddu():
    # DL feedback must wait for the pattern's UL slot: round trip is
    # between 0.5 and ~2.5 ms plus processing, never instantaneous.
    model = HarqFeedbackModel(testbed_dddu())
    for completion_ms in (0.0, 0.7, 1.4):
        timing = model.timing(tc_from_ms(completion_ms))
        rtt_us = us_from_tc(timing.round_trip_tc)
        assert 400.0 <= rtt_us <= 2_600.0


def test_budget_stays_complete_with_harq_losses():
    system = RanSystem(
        testbed_dddu(),
        RanConfig(channel=IidErasureChannel(0.25), seed=58))
    probe = system.run_downlink(arrivals(150, seed=59))
    assert len(probe) == 150
    # every Tc of every packet's latency is charged to one §4 source
    assert [sum(parts) for parts in zip(
        probe.processing_tc, probe.protocol_tc, probe.radio_tc)] \
        == probe.latencies_tc()
