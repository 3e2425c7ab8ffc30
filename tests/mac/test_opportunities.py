"""Unit and property tests for opportunity timelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.opportunities import (
    OpportunityTimeline,
    PeriodicInstants,
    Window,
    WindowIndex,
)


def make_timeline():
    """Period 100 with windows [10,30) and [60,80)."""
    return OpportunityTimeline(100, [Window(10, 30), Window(60, 80)])


# ---------------------------------------------------------------------------
# Window
# ---------------------------------------------------------------------------
def test_window_validation():
    with pytest.raises(ValueError):
        Window(5, 5)
    with pytest.raises(ValueError):
        Window(-1, 5)
    with pytest.raises(ValueError):
        Window(10, 5)


def test_window_contains_half_open():
    window = Window(10, 20)
    assert window.contains(10)
    assert window.contains(19)
    assert not window.contains(20)
    assert not window.contains(9)
    assert window.duration == 10


def test_window_shift():
    assert Window(1, 2).shifted(100) == Window(101, 102)


# ---------------------------------------------------------------------------
# timeline construction
# ---------------------------------------------------------------------------
def test_overlapping_windows_rejected():
    with pytest.raises(ValueError, match="overlap"):
        OpportunityTimeline(100, [Window(0, 50), Window(40, 60)])


def test_window_beyond_period_rejected():
    with pytest.raises(ValueError, match="period"):
        OpportunityTimeline(100, [Window(90, 110)])


def test_nonpositive_period_rejected():
    with pytest.raises(ValueError):
        OpportunityTimeline(0, [])


def test_empty_timeline():
    timeline = OpportunityTimeline(100, [])
    assert timeline.is_empty()
    with pytest.raises(LookupError):
        timeline.first_start_at_or_after(0)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------
def test_window_at():
    timeline = make_timeline()
    assert timeline.window_at(15) == Window(10, 30)
    assert timeline.window_at(30) is None
    assert timeline.window_at(165) == Window(160, 180)  # next period


def test_first_start_at_or_after_wraps_periods():
    timeline = make_timeline()
    assert timeline.first_start_at_or_after(10) == Window(10, 30)
    assert timeline.first_start_at_or_after(11) == Window(60, 80)
    assert timeline.first_start_at_or_after(81) == Window(110, 130)
    assert timeline.first_start_at_or_after(250) == Window(260, 280)


def test_first_start_after_is_strict():
    timeline = make_timeline()
    assert timeline.first_start_after(10) == Window(60, 80)


def test_negative_time_clamped():
    timeline = make_timeline()
    assert timeline.first_start_at_or_after(-50) == Window(10, 30)


# ---------------------------------------------------------------------------
# completion rules
# ---------------------------------------------------------------------------
def test_aligned_strict_misses_window_starting_now():
    timeline = make_timeline()
    # Arriving exactly at a window start misses it (DL rule).
    assert timeline.completion_aligned_strict(10) == 80
    assert timeline.completion_aligned_strict(9) == 30


def test_aligned_accepts_window_starting_now():
    timeline = make_timeline()
    assert timeline.completion_aligned(10) == 30
    assert timeline.completion_aligned(11) == 80


def test_joining_uses_remaining_room():
    timeline = make_timeline()
    assert timeline.completion_joining(15) == 30       # mid-window
    assert timeline.completion_joining(29) == 30       # 1 tick left
    assert timeline.completion_joining(30) == 80       # just missed
    assert timeline.completion_joining(15, min_duration=20) == 80


def test_joining_min_duration_filters_short_windows():
    timeline = OpportunityTimeline(100, [Window(0, 5), Window(50, 90)])
    assert timeline.completion_joining(0, min_duration=10) == 90


def test_earliest_entry_joining():
    timeline = make_timeline()
    assert timeline.earliest_entry_joining(0) == 10
    assert timeline.earliest_entry_joining(15) == 15
    assert timeline.earliest_entry_joining(29, min_duration=5) == 60


def test_duty_cycle():
    assert make_timeline().duty_cycle() == pytest.approx(0.4)


def test_boundaries():
    assert make_timeline().boundaries() == (10, 30, 60, 80)


# ---------------------------------------------------------------------------
# property tests: the rules' invariants
# ---------------------------------------------------------------------------
windows_strategy = st.lists(
    st.tuples(st.integers(0, 90), st.integers(1, 10)),
    min_size=1, max_size=4,
).map(lambda pairs: sorted((a, a + d) for a, d in pairs))


def _build(pairs):
    cleaned = []
    last_end = 0
    for start, end in pairs:
        start = max(start, last_end)
        if start >= end or end > 100:
            continue
        cleaned.append(Window(start, end))
        last_end = end
    if not cleaned:
        return None
    return OpportunityTimeline(100, cleaned)


@given(pairs=windows_strategy, t=st.integers(0, 500))
@settings(max_examples=300, deadline=None)
def test_completions_are_after_arrival_and_consistent(pairs, t):
    timeline = _build(pairs)
    if timeline is None:
        return
    joining = timeline.completion_joining(t)
    aligned = timeline.completion_aligned(t)
    strict = timeline.completion_aligned_strict(t)
    assert joining > t and aligned > t and strict > t
    # Joining can always do at least as well as slot-aligned, and
    # slot-aligned at least as well as the strict rule.
    assert joining <= aligned <= strict


@given(pairs=windows_strategy, t=st.integers(0, 500))
@settings(max_examples=300, deadline=None)
def test_completion_lands_on_a_window_end(pairs, t):
    timeline = _build(pairs)
    if timeline is None:
        return
    # A window ending exactly at the period boundary aliases to 0 in
    # modular arithmetic.
    ends = {w.end % timeline.period_tc for w in timeline.windows}
    for rule in (timeline.completion_joining,
                 timeline.completion_aligned,
                 timeline.completion_aligned_strict):
        completion = rule(t)
        assert completion % timeline.period_tc in ends


@given(pairs=windows_strategy, t=st.integers(0, 300))
@settings(max_examples=200, deadline=None)
def test_completions_are_monotone_in_arrival(pairs, t):
    timeline = _build(pairs)
    if timeline is None:
        return
    for rule in (timeline.completion_joining,
                 timeline.completion_aligned,
                 timeline.completion_aligned_strict):
        assert rule(t) <= rule(t + 7)


# ---------------------------------------------------------------------------
# periodic instants
# ---------------------------------------------------------------------------
def test_instants_next_at_or_after():
    instants = PeriodicInstants(100, [0, 40])
    assert instants.next_at_or_after(0) == 0
    assert instants.next_at_or_after(1) == 40
    assert instants.next_at_or_after(41) == 100
    assert instants.next_at_or_after(100) == 100
    assert instants.next_after(0) == 40
    assert instants.next_after(40) == 100


def test_instants_deduplicate_and_sort():
    instants = PeriodicInstants(100, [40, 0, 40])
    assert instants.instants == (0, 40)


def test_instants_validation():
    with pytest.raises(ValueError):
        PeriodicInstants(100, [100])
    with pytest.raises(ValueError):
        PeriodicInstants(0, [0])
    with pytest.raises(LookupError):
        PeriodicInstants(100, []).next_at_or_after(0)


@given(t=st.integers(0, 1000))
@settings(max_examples=200, deadline=None)
def test_instants_are_periodic(t):
    instants = PeriodicInstants(100, [5, 55])
    assert instants.next_at_or_after(t + 100) == \
        instants.next_at_or_after(t) + 100


# ---------------------------------------------------------------------------
# WindowIndex (flat integer view used by the slotted engine)
# ---------------------------------------------------------------------------
@given(t=st.integers(-5, 1000))
@settings(max_examples=200, deadline=None)
def test_index_first_ending_after_matches_generator(t):
    timeline = make_timeline()
    index = timeline.index()
    k = index.first_ending_after(t)
    first = next(timeline.windows_from(t))
    assert index.bounds(k) == (first.start, first.end)


@given(k=st.integers(0, 50))
@settings(max_examples=100, deadline=None)
def test_index_bounds_and_duration_are_periodic(k):
    index = make_timeline().index()
    start, end = index.bounds(k)
    start2, end2 = index.bounds(k + index.n_windows)
    assert (start2 - start, end2 - end) == (100, 100)
    assert end - start == index.duration(k)


def test_index_entries_joining_unsatisfiable_raises():
    with pytest.raises(LookupError):
        make_timeline().earliest_entry_joining(0, 21)


def test_index_rejects_empty_timeline():
    with pytest.raises(ValueError):
        WindowIndex(OpportunityTimeline(100, []))
