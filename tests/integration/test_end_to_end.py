"""Cross-module integration tests and system-level invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.latency_model import LatencyModel
from repro.mac.catalog import (
    fdd,
    minimal_dm,
    minimal_mini_slot,
    testbed_dddu,
)
from repro.mac.types import AccessMode, Direction
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import tc_from_ms, us_from_tc
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon


def arrivals(n, seed, horizon_ms=1_000):
    return uniform_in_horizon(n, tc_from_ms(horizon_ms),
                              RngRegistry(seed).stream("x"))


def _slot_format_scheme():
    from repro.mac.slot_format import SlotFormatConfig
    from repro.phy.numerology import Numerology
    return SlotFormatConfig(Numerology(2), [0, 28, 1, 1])


@pytest.mark.parametrize("make_scheme", [minimal_dm, fdd,
                                         minimal_mini_slot,
                                         testbed_dddu,
                                         _slot_format_scheme])
def test_every_scheme_runs_the_full_des(make_scheme):
    system = RanSystem(make_scheme(), RanConfig(seed=3))
    probe = system.run_downlink(arrivals(40, seed=3))
    assert len(probe) == 40


@pytest.mark.parametrize("access", list(AccessMode))
def test_des_latency_bounded_by_analytic_worst_plus_processing(access):
    """The DES can never beat the analytical worst case by more than
    its processing/radio overhead allows — and with a zero-overhead
    configuration, per-packet protocol time must respect the analytic
    extremes."""
    scheme = testbed_dddu()
    system = RanSystem(scheme, RanConfig(access=access, seed=17))
    probe = system.run_uplink(arrivals(120, seed=17))
    model = LatencyModel(scheme)
    extremes = model.extremes(Direction.UL, access)
    worst_us = us_from_tc(extremes.worst_tc)
    for protocol_tc in probe.protocol_tc:
        protocol_us = us_from_tc(protocol_tc)
        # The analytic model covers a lone packet; in the DES a packet
        # can additionally queue behind an earlier burst whose
        # BSR-sized grant did not cover it, costing one extra SR/grant
        # cycle.  Allow up to two chained cycles plus quantisation
        # slack.
        assert protocol_us <= 2 * worst_us * 1.10 + 300.0


def test_dl_des_within_analytic_worst():
    scheme = testbed_dddu()
    system = RanSystem(scheme, RanConfig(seed=19))
    probe = system.run_downlink(arrivals(120, seed=19))
    worst_us = us_from_tc(
        LatencyModel(scheme).extremes(Direction.DL).worst_tc)
    for protocol_tc in probe.protocol_tc:
        protocol_us = us_from_tc(protocol_tc)
        assert protocol_us <= worst_us * 1.10 + 300.0


def test_mixed_ping_and_data_traffic():
    system = RanSystem(testbed_dddu(), RanConfig(seed=23))
    system.run_ping(arrivals(10, seed=1))
    assert len(system.ping_results) == 10
    # DL probe saw the replies.
    assert len(system.dl_probe) == 10


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_no_packet_is_lost_on_a_perfect_channel(seed):
    system = RanSystem(testbed_dddu(), RanConfig(seed=seed))
    probe = system.run_downlink(arrivals(25, seed=seed))
    assert len(probe) == 25
    assert system.link.counters.packets_dropped == 0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_budget_decomposition_always_complete(seed):
    system = RanSystem(minimal_dm(), RanConfig(seed=seed))
    probe = system.run_uplink(arrivals(25, seed=seed, horizon_ms=100))
    # every Tc of every packet's latency is charged to one §4 source
    assert [sum(parts) for parts in zip(
        probe.processing_tc, probe.protocol_tc, probe.radio_tc)] \
        == probe.latencies_tc()


def test_latencies_are_strictly_positive_everywhere():
    system = RanSystem(fdd(), RanConfig(seed=29))
    dl = system.run_downlink(arrivals(30, seed=29))
    system2 = RanSystem(fdd(), RanConfig(seed=30))
    ul = system2.run_uplink(arrivals(30, seed=30))
    assert min(dl.latencies_tc()) > 0
    assert min(ul.latencies_tc()) > 0
