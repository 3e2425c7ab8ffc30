"""Fault-injection determinism: same seed, same faults, same digest."""

import pytest

from repro.faults import FaultCounters, PRESET_PLANS, FaultPlan
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import GilbertElliottChannel, IidErasureChannel
from repro.phy.timebase import tc_from_ms
from repro.radio.interface import usb3
from repro.radio.os_jitter import gpos
from repro.radio.radio_head import RadioHead
from repro.runner import Campaign, CampaignRunner
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon

CHANNELS = {
    "perfect": lambda: None,
    "iid": lambda: IidErasureChannel(0.01),
    "ge": lambda: GilbertElliottChannel(
        mean_good_tc=tc_from_ms(20.0), mean_bad_tc=tc_from_ms(2.0)),
}


def _run(seed, plan, channel="perfect", direction="dl", packets=60,
         horizon_ms=600.0):
    """One traced run; returns (digest, counter metrics, latencies)."""
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE,
                  gnb_radio_head=RadioHead("b210", usb3(), gpos()),
                  channel=CHANNELS[channel](),
                  trace=True,
                  fault_plan=plan,
                  seed=seed))
    arrivals = uniform_in_horizon(
        packets, tc_from_ms(horizon_ms),
        RngRegistry(seed + 1).stream("arrivals"))
    if direction == "dl":
        probe = system.run_downlink(arrivals)
    else:
        probe = system.run_uplink(arrivals)
    counters = (system.faults.counters if system.faults is not None
                else FaultCounters())
    return (system.tracer.digest(), counters.as_metrics(),
            tuple(probe.latencies_us()))


@pytest.mark.parametrize("channel", sorted(CHANNELS))
def test_same_seed_replays_identical_faults(channel):
    plan = PRESET_PLANS["standard"]
    first = _run(7, plan, channel=channel)
    second = _run(7, plan, channel=channel)
    assert first == second


def test_uplink_is_deterministic_too():
    plan = PRESET_PLANS["standard"]
    assert _run(11, plan, channel="iid", direction="ul") == \
        _run(11, plan, channel="iid", direction="ul")


@pytest.mark.parametrize("channel", ["perfect", "iid"])
def test_intensity_zero_plan_is_bit_identical_to_no_plan(channel):
    disarmed = PRESET_PLANS["standard"].scaled(0.0)
    assert _run(3, disarmed, channel=channel) == \
        _run(3, None, channel=channel)
    assert _run(3, FaultPlan(), channel=channel) == \
        _run(3, None, channel=channel)


def test_standard_plan_fires_every_fault_kind_downlink():
    _, metrics, _ = _run(7, PRESET_PLANS["standard"], packets=80)
    assert all(metrics[key] > 0 for key in sorted(metrics)), metrics


def test_fired_faults_are_traced_under_the_fault_category():
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE,
                  gnb_radio_head=RadioHead("b210", usb3(), gpos()),
                  trace=True,
                  fault_plan=PRESET_PLANS["standard"],
                  seed=7))
    arrivals = uniform_in_horizon(80, tc_from_ms(600.0),
                                  RngRegistry(8).stream("arrivals"))
    system.run_downlink(arrivals)
    names = {record.name for record in system.tracer.records("fault")}
    assert names >= {"harq_nack", "harq_dtx", "rlc_loss",
                     "radio_stall", "gnb_overload", "upf_outage"}


def _chaos_campaign():
    return Campaign.from_grid(
        "chaos-mini", seed=404, scenario="chaos-latency",
        grid={"direction": ["dl", "ul"], "intensity": [0.0, 1.0]},
        fixed={"access": "grant-free", "packets": 30,
               "horizon_ms": 600.0, "faults": "standard",
               "channel": "iid", "bler": 0.01})


def test_chaos_campaign_serial_equals_four_workers():
    campaign = _chaos_campaign()
    serial = CampaignRunner(workers=1).run(campaign)
    parallel = CampaignRunner(workers=4).run(campaign)
    assert [p.result for p in serial.point_results] == \
        [p.result for p in parallel.point_results]
    assert serial.metrics() == parallel.metrics()
