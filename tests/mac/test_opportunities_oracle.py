"""Property tests: the timeline queries against a naive oracle.

The oracle re-implements every completion rule by brute-force scanning
explicitly materialised windows over several periods — no shared code
with the production implementation — so agreement is real evidence.
Query times run from several periods before 0 (production clamps a
negative time to 0; the oracle needs no clamp) to several periods in.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mac.opportunities import OpportunityTimeline, Window

PERIOD = 1_000


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------
def materialise(windows: list[Window], cycles: int = 10
                ) -> list[tuple[int, int]]:
    absolute = []
    for cycle in range(cycles):
        offset = cycle * PERIOD
        for window in windows:
            absolute.append((window.start + offset, window.end + offset))
    return absolute


def oracle_joining(windows, t, need):
    for start, end in materialise(windows):
        entry = max(t, start)
        if end - entry >= need:
            return end
    return None  # impossible demand


def oracle_aligned(windows, t, need, strict):
    for start, end in materialise(windows):
        if (start > t if strict else start >= t) and end - start >= need:
            return end
    return None


def oracle_entry(windows, t, need):
    for start, end in materialise(windows):
        entry = max(t, start)
        if end - entry >= need:
            return entry
    return None


def oracle_first_start(windows, t, strict):
    for start, end in materialise(windows):
        if start > t if strict else start >= t:
            return start, end
    return None


def check(production, oracle_value):
    """Production must match the oracle, including impossibility."""
    if oracle_value is None:
        with pytest.raises(LookupError):
            production()
    else:
        assert production() == oracle_value


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
#: Query times: negative ones, and ones several periods into the timeline.
times = st.integers(-3 * PERIOD, 7 * PERIOD)


@st.composite
def timelines(draw):
    n = draw(st.integers(1, 4))
    cursor = 0
    windows = []
    for _ in range(n):
        gap = draw(st.integers(0, 120))
        length = draw(st.integers(1, 200))
        start = cursor + gap
        end = start + length
        if end > PERIOD:
            break
        windows.append(Window(start, end))
        cursor = end
    if not windows:
        windows = [Window(0, 100)]
    return windows


@given(windows=timelines(), t=times,
       need=st.integers(1, 80))
@settings(max_examples=400, deadline=None)
def test_joining_matches_oracle(windows, t, need):
    timeline = OpportunityTimeline(PERIOD, windows)
    check(lambda: timeline.completion_joining(t, need),
          oracle_joining(windows, t, need))


@given(windows=timelines(), t=times,
       need=st.integers(1, 80))
@settings(max_examples=400, deadline=None)
def test_aligned_matches_oracle(windows, t, need):
    timeline = OpportunityTimeline(PERIOD, windows)
    check(lambda: timeline.completion_aligned(t, need),
          oracle_aligned(windows, t, need, strict=False))


@given(windows=timelines(), t=times,
       need=st.integers(1, 80))
@settings(max_examples=400, deadline=None)
def test_aligned_strict_matches_oracle(windows, t, need):
    timeline = OpportunityTimeline(PERIOD, windows)
    check(lambda: timeline.completion_aligned_strict(t, need),
          oracle_aligned(windows, t, need, strict=True))


@given(windows=timelines(), t=times,
       need=st.integers(1, 80))
@settings(max_examples=400, deadline=None)
def test_earliest_entry_matches_oracle(windows, t, need):
    timeline = OpportunityTimeline(PERIOD, windows)
    check(lambda: timeline.earliest_entry_joining(t, need),
          oracle_entry(windows, t, need))


@given(windows=timelines(), t=times)
@settings(max_examples=200, deadline=None)
def test_window_at_matches_oracle(windows, t):
    timeline = OpportunityTimeline(PERIOD, windows)
    expected = None
    for start, end in materialise(windows):
        if start <= t < end:
            expected = (start, end)
            break
        if start > t:
            break
    found = timeline.window_at(t)
    if expected is None:
        assert found is None
    else:
        assert (found.start, found.end) == expected


@given(windows=timelines(), t=times, strict=st.booleans())
@settings(max_examples=300, deadline=None)
def test_first_start_matches_oracle(windows, t, strict):
    timeline = OpportunityTimeline(PERIOD, windows)
    query = (timeline.first_start_after if strict
             else timeline.first_start_at_or_after)
    found = query(t)
    assert (found.start, found.end) == oracle_first_start(windows, t,
                                                          strict)


@pytest.mark.parametrize("rule", [
    "completion_joining", "completion_aligned",
    "completion_aligned_strict", "earliest_entry_joining"])
@pytest.mark.parametrize("t", [-PERIOD, 0, 5 * PERIOD + 1])
def test_empty_timeline_completion_rules_raise(rule, t):
    timeline = OpportunityTimeline(PERIOD, [])
    with pytest.raises(LookupError,
                       match="no window of the timeline can fit 3 ticks"):
        getattr(timeline, rule)(t, 3)


def test_empty_timeline_window_queries():
    timeline = OpportunityTimeline(PERIOD, [])
    assert timeline.window_at(5) is None
    for query in (timeline.first_start_at_or_after,
                  timeline.first_start_after):
        with pytest.raises(LookupError, match="timeline has no windows"):
            query(5)
