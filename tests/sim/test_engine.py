"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcd":
        sim.schedule(5, order.append, label)
    sim.run()
    assert order == list("abcd")


def test_call_in_is_relative():
    sim = Simulator(start_time=100)
    seen = []
    sim.call_in(50, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [150]


def test_scheduling_in_the_past_raises():
    sim = Simulator(start_time=10)
    with pytest.raises(SimulationError):
        sim.schedule(5, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_in(-1, lambda: None)


def test_cancelled_event_does_not_run():
    sim = Simulator()
    ran = []
    event = sim.schedule(10, ran.append, 1)
    sim.schedule(5, event.cancel)
    sim.run()
    assert ran == []
    assert sim.events_processed == 1  # only the cancelling event


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.run() == 0


def test_run_until_stops_the_clock_at_until():
    sim = Simulator()
    ran = []
    sim.schedule(10, ran.append, "early")
    sim.schedule(100, ran.append, "late")
    sim.run(until=50)
    assert ran == ["early"]
    assert sim.now == 50
    sim.run()
    assert ran == ["early", "late"]


def test_events_at_exactly_until_run():
    sim = Simulator()
    ran = []
    sim.schedule(50, ran.append, "boundary")
    sim.run(until=50)
    assert ran == ["boundary"]


def test_events_can_schedule_more_events():
    sim = Simulator()
    trail = []

    def chain(depth):
        trail.append(sim.now)
        if depth:
            sim.call_in(7, chain, depth - 1)

    sim.schedule(0, chain, 3)
    assert sim.run() == 4
    assert sim.events_processed == 4
    assert trail == [0, 7, 14, 21]


def test_same_tick_scheduling_allowed():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda: sim.schedule(10, seen.append, "same"))
    sim.run()
    assert seen == ["same"]


def test_max_events_limits_execution():
    sim = Simulator()
    for t in range(10):
        sim.schedule(t, lambda: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending() == 6


def test_pending_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1, lambda: None)
    drop = sim.schedule(2, lambda: None)
    drop.cancel()
    assert sim.pending() == 1
    assert list(sim.timeline()) == [1]
    keep.cancel()


def test_run_is_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, nested)
    sim.run()


def test_callback_args_are_passed():
    sim = Simulator()
    seen = []
    sim.schedule(1, lambda a, b: seen.append((a, b)), 1, "x")
    sim.run()
    assert seen == [(1, "x")]


def test_mass_cancellation_compacts_heap_and_preserves_order():
    # 10k scheduled-then-cancelled timers must not pile up as
    # tombstones: the queue stays bounded by the live event count (plus
    # the under-half tombstone allowance), and the survivors still fire
    # in (time, seq) order.
    sim = Simulator()
    fired = []
    survivors = [sim.schedule(10_000 + t, fired.append, 10_000 + t)
                 for t in range(100)]
    # Interleave two survivors at the same tick to pin FIFO tie-break.
    sim.schedule(10_000, lambda: fired.append("tie-a"))
    sim.schedule(10_000, lambda: fired.append("tie-b"))
    doomed = [sim.schedule(20_000 + t, fired.append, "never")
              for t in range(10_000)]
    for event in doomed:
        event.cancel()
    # Compaction keeps heap entries below live + half slack, far under
    # the 10k cancelled events.
    assert sim.pending() == 102
    assert sim.queue_len() <= 2 * sim.pending() + 1
    sim.run()
    assert fired[0] == 10_000  # seq order: first-scheduled survivor
    assert fired[1] == "tie-a" and fired[2] == "tie-b"
    assert fired[3:] == [10_001 + t for t in range(99)]
    assert "never" not in fired
    assert survivors[0].time == 10_000


def test_cancel_before_compaction_threshold_keeps_entries():
    # Small queues are never compacted (cheaper to skip on pop).
    sim = Simulator()
    events = [sim.schedule(i + 1, lambda: None) for i in range(10)]
    for event in events[:9]:
        event.cancel()
    assert sim.pending() == 1
    assert sim.queue_len() == 10  # tombstones still present
    sim.run()
    assert sim.pending() == 0
