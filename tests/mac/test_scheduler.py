"""Unit tests for the discrete-event gNB MAC scheduler."""

import pytest

from repro.mac.catalog import minimal_dm, testbed_dddu
from repro.mac.scheduler import MAX_CONSECUTIVE_DL_MISSES, GnbMacScheduler
from repro.mac.types import Direction
from repro.net.session import RanConfig, RanSystem
from repro.phy.ofdm import Carrier
from repro.phy.timebase import tc_from_us
from repro.sim.distributions import Constant
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Tracer
from repro.stack.packets import Packet, PacketKind


def make_packet(created=0, ue_id=1, payload=32):
    return Packet(PacketKind.DATA, Direction.DL, payload,
                  created_tc=created, ue_id=ue_id)


def make_scheduler(rng, scheme=None, **kwargs):
    scheme = scheme or testbed_dddu()
    sim = Simulator()
    tracer = Tracer()
    carrier = Carrier(scheme.numerology, 20)
    transmissions = []
    grants = []
    scheduler = GnbMacScheduler(
        sim, tracer, scheme, carrier, rng,
        on_dl_transmission=lambda w, p: transmissions.append((sim.now, w, p)),
        on_ul_grant=lambda g: grants.append((sim.now, g)),
        **kwargs)
    return sim, scheduler, transmissions, grants


def test_register_ue_twice_rejected(rng):
    _, scheduler, _, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    with pytest.raises(ValueError):
        scheduler.register_ue(1)
    with pytest.raises(ValueError):
        scheduler.register_ue(2, grant_free=True, cg_share=0.0)


def test_start_twice_rejected(rng):
    _, scheduler, _, _ = make_scheduler(rng)
    scheduler.start()
    with pytest.raises(RuntimeError):
        scheduler.start()


def test_dl_packet_transmitted_at_window_end(rng):
    sim, scheduler, transmissions, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    scheduler.start()
    packet = make_packet()
    scheduler.dl_queue(1).enqueue(packet)
    scheduler.notify_dl_data()
    sim.run_until_idle()
    assert len(transmissions) == 1
    time, window, packets = transmissions[0]
    assert packets == [packet]
    assert time == window.end
    # DDDU: first DL window is slot 0, which ends at the slot boundary.
    assert window.start == 0 or window.start > 0


def test_idle_scheduler_generates_no_events(rng):
    sim, scheduler, _, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    scheduler.start()
    assert sim.run_until_idle() == 0


def test_data_arriving_mid_window_waits_for_next(rng):
    scheme = testbed_dddu()
    sim, scheduler, transmissions, _ = make_scheduler(rng, scheme)
    scheduler.register_ue(1)
    scheduler.start()
    window0 = scheme.dl_timeline().windows[0]

    def inject():
        scheduler.dl_queue(1).enqueue(make_packet(created=sim.now))
        scheduler.notify_dl_data()

    sim.schedule(window0.start + 10, inject)
    sim.run_until_idle()
    _, window, _ = transmissions[0]
    assert window.start == scheme.dl_timeline().windows[1].start


def test_capacity_splits_across_windows(rng):
    sim, scheduler, transmissions, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    scheduler.start()
    window = scheduler.scheme.dl_timeline().windows[0]
    capacity = scheduler.window_capacity_bytes(window)
    big_payload = capacity - 100  # one per window after headers
    for _ in range(3):
        scheduler.dl_queue(1).enqueue(make_packet(payload=big_payload))
    scheduler.notify_dl_data()
    sim.run_until_idle()
    assert len(transmissions) == 3
    starts = [w.start for _, w, _ in transmissions]
    assert starts == sorted(set(starts))


def test_round_robin_across_ues(rng):
    sim, scheduler, transmissions, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    scheduler.register_ue(2)
    scheduler.start()
    scheduler.dl_queue(1).enqueue(make_packet(ue_id=1))
    scheduler.dl_queue(2).enqueue(make_packet(ue_id=2))
    scheduler.notify_dl_data()
    sim.run_until_idle()
    served = {p.ue_id for _, _, block in transmissions for p in block}
    assert served == {1, 2}


def test_margin_defers_decision_target(rng):
    scheme = testbed_dddu()
    slot_tc = scheme.numerology.slot_duration_tc
    sim, scheduler, transmissions, _ = make_scheduler(
        rng, scheme, margin_tc=slot_tc)
    scheduler.register_ue(1)
    scheduler.start()

    def inject():
        scheduler.dl_queue(1).enqueue(make_packet(created=sim.now))
        scheduler.notify_dl_data()

    # Arrive just before the second DL window: with a one-slot margin
    # the scheduler cannot make it and targets the third window.
    windows = scheme.dl_timeline().windows
    sim.schedule(windows[1].start - 10, inject)
    sim.run_until_idle()
    _, window, _ = transmissions[0]
    assert window.start == windows[2].start


def test_deadline_miss_requeues_and_counts(rng):
    # Radio always takes a full slot; with zero margin every first
    # attempt misses its window.
    scheme = testbed_dddu()
    slot_us = 500.0
    sim, scheduler, transmissions, _ = make_scheduler(
        rng, scheme, margin_tc=0,
        radio_submission_us=lambda n, r: slot_us)
    scheduler.register_ue(1)
    scheduler.start()
    scheduler.dl_queue(1).enqueue(make_packet())
    scheduler.notify_dl_data()
    sim.run(until=scheme.period_tc * 4)
    assert scheduler.counters.dl_deadline_misses >= 1


def test_unmeetable_margin_raises_instead_of_livelocking():
    # With a zero margin any PHY preparation misses its window, so every
    # DL decision re-arms for the next one.  The steps are bounded: a
    # run that never ends fails here instead of hanging.
    system = RanSystem(testbed_dddu(), RanConfig(seed=5, margin_tc=0))
    system.queue_downlink([1])
    with pytest.raises(SimulationError, match="DL livelock"):
        for _ in range(100 * MAX_CONSECUTIVE_DL_MISSES):
            if not system.sim.step():
                break
    counters = system.gnb.scheduler.counters
    assert counters.dl_deadline_misses == counters.dl_windows \
        == MAX_CONSECUTIVE_DL_MISSES


def test_a_filled_window_ends_a_run_of_misses(rng):
    # 999 misses, a fill, then 999 more and a fill: each run of misses
    # stays below the bound, so neither raises.
    calls = []

    def radio(n_samples, generator):
        calls.append(n_samples)
        return 0.0 if len(calls) % MAX_CONSECUTIVE_DL_MISSES == 0 else 500.0

    sim, scheduler, transmissions, _ = make_scheduler(
        rng, margin_tc=0, radio_submission_us=radio)
    scheduler.register_ue(1)
    scheduler.start()

    def inject():
        scheduler.dl_queue(1).enqueue(make_packet(created=sim.now))
        scheduler.notify_dl_data()

    inject()
    sim.run_until_idle()
    sim.schedule(sim.now + 1, inject)
    sim.run_until_idle()
    assert len(transmissions) == 2
    assert scheduler.counters.dl_deadline_misses == \
        2 * (MAX_CONSECUTIVE_DL_MISSES - 1)


def test_sr_produces_grant_after_scheduling_instant(rng):
    scheme = testbed_dddu()
    sim, scheduler, _, grants = make_scheduler(rng, scheme)
    scheduler.register_ue(1)
    scheduler.start()
    sim.schedule(100, scheduler.receive_sr, 1)
    sim.run_until_idle()
    assert len(grants) == 1
    issue_time, grant = grants[0]
    assert grant.ue_id == 1
    # The grant's window starts after the control occasion.
    assert grant.window.start >= grant.control_time
    assert scheduler.counters.grants_issued == 1
    assert scheduler.counters.srs_received == 1


def test_grant_window_respects_ue_turnaround(rng):
    scheme = testbed_dddu()
    turnaround = tc_from_us(700.0)
    sim, scheduler, _, grants = make_scheduler(
        rng, scheme, ue_grant_turnaround_tc=turnaround)
    scheduler.register_ue(1)
    scheduler.start()
    sim.schedule(0, scheduler.receive_sr, 1)
    sim.run_until_idle()
    _, grant = grants[0]
    assert grant.window.start >= grant.control_time + turnaround


def test_cg_capacity_and_waste_accounting(rng):
    scheme = minimal_dm()
    sim, scheduler, _, _ = make_scheduler(rng, scheme)
    scheduler.register_ue(1, grant_free=True, cg_share=0.5)
    scheduler.register_ue(2, grant_free=False)
    window = scheme.ul_timeline().windows[0]
    full = scheduler.window_capacity_bytes(window)
    assert scheduler.cg_capacity_bytes(1, window) == int(full * 0.5)
    assert scheduler.cg_capacity_bytes(2, window) == 0
    scheduler.account_cg_window(1, window, used_bytes=0)
    scheduler.account_cg_window(1, window, used_bytes=10 ** 9)
    counters = scheduler.counters
    assert counters.cg_allocated_bytes == 2 * int(full * 0.5)
    assert counters.cg_used_bytes == int(full * 0.5)
    assert 0.0 < counters.cg_waste_fraction() < 1.0


def test_priority_class_served_first(rng):
    sim, scheduler, transmissions, _ = make_scheduler(rng)
    scheduler.register_ue(1, priority=1)   # eMBB
    scheduler.register_ue(2, priority=0)   # URLLC
    scheduler.start()
    window = scheduler.scheme.dl_timeline().windows[0]
    capacity = scheduler.window_capacity_bytes(window)
    # Fill more than one window from the low-priority UE, then one
    # high-priority packet: it must ride the first window.
    for _ in range(3):
        scheduler.dl_queue(1).enqueue(
            make_packet(ue_id=1, payload=capacity - 100))
    scheduler.dl_queue(2).enqueue(make_packet(ue_id=2))
    scheduler.notify_dl_data()
    sim.run_until_idle()
    first_block_ues = [p.ue_id for p in transmissions[0][2]]
    assert 2 in first_block_ues


def test_large_sdu_is_segmented_across_windows(rng):
    sim, scheduler, transmissions, _ = make_scheduler(rng)
    scheduler.register_ue(1)
    scheduler.start()
    window = scheduler.scheme.dl_timeline().windows[0]
    capacity = scheduler.window_capacity_bytes(window)
    big = make_packet(payload=int(capacity * 2.5))
    scheduler.dl_queue(1).enqueue(big)
    scheduler.notify_dl_data()
    sim.run_until_idle()
    # The SDU completes (single delivery) after spanning 3 windows.
    assert len(transmissions) == 1
    assert transmissions[0][2] == [big]
    assert scheduler.counters.dl_transport_blocks == 3


def test_phy_prep_charged_to_processing(rng):
    sim, scheduler, transmissions, _ = make_scheduler(
        rng, phy_prep_delay=Constant(40.0),
        margin_tc=tc_from_us(100.0))
    scheduler.register_ue(1)
    scheduler.start()
    packet = make_packet()
    scheduler.dl_queue(1).enqueue(packet)
    scheduler.notify_dl_data()
    sim.run_until_idle()
    from repro.stack.packets import LatencySource
    assert packet.budget[LatencySource.PROCESSING] == tc_from_us(40.0)
