"""Unit tests for the Fig 3 journey reconstruction."""

import pytest

from repro.core.journey import reconstruct_ping_journey
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem


def run_one_ping(access):
    system = RanSystem(testbed_dddu(),
                       RanConfig(access=access, trace=True, seed=21))
    results = system.run_ping([1000])
    assert len(results) == 1
    return results[0], system.tracer


def test_grant_based_journey_has_all_eleven_steps():
    result, tracer = run_one_ping(AccessMode.GRANT_BASED)
    journey = reconstruct_ping_journey(result, tracer)
    indices = [step.index for step in journey.steps]
    assert indices == list(range(1, 12))
    assert journey.rtt_tc == result.rtt_tc


def test_grant_free_journey_collapses_sr_steps():
    result, tracer = run_one_ping(AccessMode.GRANT_FREE)
    journey = reconstruct_ping_journey(result, tracer)
    indices = [step.index for step in journey.steps]
    assert 2 not in indices and 5 not in indices
    assert 6 in indices and 9 in indices


def test_steps_are_temporally_consistent():
    result, tracer = run_one_ping(AccessMode.GRANT_BASED)
    journey = reconstruct_ping_journey(result, tracer)
    for step in journey.steps:
        assert step.end_tc >= step.start_tc
        assert step.duration_us >= 0.0


def test_sr_grant_steps_dominate_grant_based_uplink():
    # §4: "the SR and grant procedure noticeably increases the latency
    # of UL transmissions".
    result, tracer = run_one_ping(AccessMode.GRANT_BASED)
    journey = reconstruct_ping_journey(result, tracer)
    handshake = journey.step(3).duration_us + journey.step(5).duration_us
    dl_side = journey.step(10).duration_us
    assert handshake + journey.step(6).duration_us > dl_side


def test_render_mentions_rtt_and_steps():
    result, tracer = run_one_ping(AccessMode.GRANT_BASED)
    journey = reconstruct_ping_journey(result, tracer)
    text = journey.render()
    assert "RTT" in text
    assert "RLC queue" in text


def test_step_lookup():
    result, tracer = run_one_ping(AccessMode.GRANT_BASED)
    journey = reconstruct_ping_journey(result, tracer)
    assert journey.step(9).label.startswith("RLC queue")
    with pytest.raises(KeyError):
        journey.step(12)


#: Every Fig 3 step as ``(index, start_tc, end_tc)`` and the RTT of the
#: seed-21 testbed ping, pinned exactly: the journey is built from the
#: trace and the stamps that ``core.journey`` reads, and nothing else.
_PINNED_JOURNEYS = {
    AccessMode.GRANT_BASED: (
        [(1, 1000, 931538), (2, 931538, 3932160), (3, 931538, 3932160),
         (4, 3932160, 3932160), (5, 3932160, 4002377),
         (6, 4002377, 7864976), (7, 7864976, 8077405),
         (8, 8116727, 8157884), (9, 8157884, 8683979),
         (10, 8683979, 9831056), (11, 9831056, 10314185)],
        10313185),
    AccessMode.GRANT_FREE: (
        [(1, 1000, 931538), (6, 931538, 3932816), (7, 3932816, 4124264),
         (8, 4163586, 4220961), (9, 4220961, 4751819),
         (10, 4751819, 5898896), (11, 5898896, 6382025)],
        6381025),
}


@pytest.mark.parametrize("access", list(_PINNED_JOURNEYS),
                         ids=lambda access: access.name.lower())
def test_journey_steps_are_pinned_exactly(access):
    result, tracer = run_one_ping(access)
    journey = reconstruct_ping_journey(result, tracer)
    steps, rtt_tc = _PINNED_JOURNEYS[access]
    assert [(step.index, step.start_tc, step.end_tc)
            for step in journey.steps] == steps
    assert journey.rtt_tc == rtt_tc


def test_packets_carry_only_the_journey_stamps():
    # The stamps are the stages reconstruct_ping_journey reads; the
    # per-layer enter/exit times live in the trace only.
    result, _tracer = run_one_ping(AccessMode.GRANT_BASED)
    assert set(result.request.timestamps) == {
        "ue.mac.granted_tx", "ue1.rlcq.enqueue", "ue1.rlcq.dequeue",
        "gnb.ul.block_rx"}
    assert set(result.reply.timestamps) == {
        "gnb.rlcq.ue1.enqueue", "gnb.rlcq.ue1.dequeue", "ue.phy.block_rx"}
