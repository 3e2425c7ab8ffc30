"""Integration-style tests for the RanSystem wiring."""

import pytest

from repro.mac.catalog import minimal_dm, testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import none as no_jitter
from repro.radio.radio_head import RadioHead
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon


def arrivals(n=60, horizon_ms=200, seed=10):
    return uniform_in_horizon(n, tc_from_ms(horizon_ms),
                              RngRegistry(seed).stream("arrivals"))


def quiet_rh():
    return RadioHead("rh", usb3(), no_jitter())


def test_downlink_delivers_every_packet():
    system = RanSystem(testbed_dddu(), RanConfig(seed=1))
    probe = system.run_downlink(arrivals())
    assert len(probe) == 60
    assert min(probe.latency_tc) > 0


def test_uplink_grant_free_delivers_every_packet():
    system = RanSystem(testbed_dddu(), RanConfig(seed=2))
    probe = system.run_uplink(arrivals())
    assert len(probe) == 60


def test_uplink_grant_based_delivers_every_packet():
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_BASED, seed=3))
    probe = system.run_uplink(arrivals())
    assert len(probe) == 60
    ue = system.ues[1]
    assert ue.counters.srs_sent >= 1
    assert ue.counters.grants_received >= 1


def test_grant_based_slower_than_grant_free():
    free = RanSystem(testbed_dddu(), RanConfig(seed=4))
    based = RanSystem(testbed_dddu(),
                      RanConfig(access=AccessMode.GRANT_BASED, seed=4))
    free_mean = free.run_uplink(arrivals()).summary().mean_us
    based_mean = based.run_uplink(arrivals()).summary().mean_us
    assert based_mean > free_mean


def test_budget_decomposition_is_complete():
    system = RanSystem(
        testbed_dddu(),
        RanConfig(seed=5, gnb_radio_head=quiet_rh(),
                  access=AccessMode.GRANT_BASED))
    probe = system.run_uplink(arrivals(40))
    # every Tc of every packet's latency is charged to one §4 source
    assert [sum(parts) for parts in zip(
        probe.processing_tc, probe.protocol_tc, probe.radio_tc)] \
        == probe.latencies_tc()


def test_ping_round_trips_complete():
    system = RanSystem(testbed_dddu(), RanConfig(seed=6))
    results = system.run_ping(arrivals(20))
    assert len(results) == 20
    for result in results:
        assert result.rtt_tc > 0
        assert result.reply.related_id == result.request.packet_id


def test_deterministic_given_seed():
    def run():
        system = RanSystem(testbed_dddu(), RanConfig(seed=7))
        return RanSystem.run_downlink(system, arrivals(30)).latencies_tc()

    assert run() == run()


def test_different_seeds_differ():
    a = RanSystem(testbed_dddu(), RanConfig(seed=8)).run_downlink(
        arrivals(30)).latencies_tc()
    b = RanSystem(testbed_dddu(), RanConfig(seed=9)).run_downlink(
        arrivals(30)).latencies_tc()
    assert a != b


def test_lossy_channel_triggers_harq_but_still_delivers():
    system = RanSystem(
        testbed_dddu(),
        RanConfig(seed=10, channel=IidErasureChannel(0.3)))
    probe = system.run_downlink(arrivals(50))
    assert len(probe) == 50
    assert system.link.counters.blocks_failed > 0
    assert max(probe.harq_retx) > 0


def test_multi_ue_round_robin():
    system = RanSystem(testbed_dddu(), RanConfig(seed=11, n_ues=3))
    for ue_id in (1, 2, 3):
        system.queue_downlink(arrivals(10, seed=ue_id), ue_id=ue_id)
    system.run()
    ue_ids = system.dl_probe.ue_id
    assert {ue: ue_ids.count(ue) for ue in set(ue_ids)} == \
        {1: 10, 2: 10, 3: 10}


def test_grant_free_capacity_accounting():
    system = RanSystem(minimal_dm(), RanConfig(seed=12))
    system.run_uplink(arrivals(20))
    counters = system.gnb.scheduler.counters
    assert counters.cg_allocated_bytes > 0
    assert counters.cg_used_bytes > 0
    assert 0.0 <= counters.cg_waste_fraction() < 1.0


def test_dm_configuration_runs_end_to_end():
    system = RanSystem(minimal_dm(), RanConfig(seed=13))
    probe = system.run_downlink(arrivals(30))
    assert len(probe) == 30
    # Pure protocol DL on DM stays within ~0.5 ms + processing.
    assert probe.summary().max_us < 1_500.0
