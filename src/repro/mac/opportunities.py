"""Periodic transmission-opportunity timelines.

Every duplexing scheme in the library (TDD Common Configuration,
Mini-Slot, Slot Format, FDD) is lowered to two periodic sets of
*windows* — half-open Tc intervals ``[start, end)`` in which the medium
is available for DL or UL transmission — plus periodic *instants* for
control signalling and scheduling.  The worst-case latency analysis
(paper Fig 4 / Table 1) and the discrete-event MAC scheduler both run on
this single abstraction, which guarantees that the analytical and
simulated models agree on what the protocol permits.

Three completion rules capture how 5G actually grants access:

- **slot-aligned, strict** (DL data): control information is emitted once
  per transmission window, at its start; data arriving at or after a
  window's start has missed that window ("the specific slot is already
  allocated for other DL data", §5) and completes at the end of the next
  window that starts strictly later.
- **slot-aligned** (granted UL data): the grant designates a window; the
  first window starting at or after the grant becomes usable.
- **joining** (grant-free UL, scheduling requests): the UE owns
  pre-allocated resources across the whole UL region and can start on
  any symbol with enough remaining room, completing at the window end.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional


__all__ = ["Window", "WindowIndex", "OpportunityTimeline",
           "PeriodicInstants"]


@dataclass(frozen=True, order=True)
class Window:
    """Half-open interval ``[start, end)`` in Tc ticks."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"window must satisfy 0 <= start < end, "
                f"got [{self.start}, {self.end})")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def contains(self, time: int) -> bool:
        return self.start <= time < self.end

    def shifted(self, offset: int) -> "Window":
        return Window(self.start + offset, self.end + offset)


def _validated(windows: Iterable[Window], period: int) -> tuple[Window, ...]:
    ordered = tuple(sorted(windows))
    previous_end = 0
    for window in ordered:
        if window.end > period:
            raise ValueError(
                f"window {window} exceeds the period ({period})")
        if window.start < previous_end:
            raise ValueError(f"windows overlap near {window}")
        previous_end = window.end
    return ordered


def _first_ending_after(ends: tuple[int, ...], period: int,
                        time: int) -> tuple[int, int]:
    """``(cycle, base)`` of the first absolute window with end > ``time``
    (negative ``time`` counts as 0): base window ``base`` of period
    ``cycle``.  ``ends`` is one non-empty period's sorted window ends."""
    if time < 0:
        time = 0
    cycle, rem = divmod(time, period)
    base = bisect.bisect_right(ends, rem)
    if base == len(ends):
        return cycle + 1, 0
    return cycle, base


class OpportunityTimeline:
    """Periodic windows with absolute-time queries.

    The window list describes one period; the timeline repeats it
    forever.  All queries take and return absolute Tc ticks.
    """

    def __init__(self, period_tc: int, windows: Iterable[Window]):
        if period_tc <= 0:
            raise ValueError(f"period must be positive, got {period_tc}")
        self.period_tc = int(period_tc)
        self.windows = _validated(windows, self.period_tc)
        self._starts = tuple(w.start for w in self.windows)
        self._ends = tuple(w.end for w in self.windows)
        self._index: "WindowIndex | None" = None

    def index(self) -> "WindowIndex":
        """Cached :class:`WindowIndex` over this (immutable) timeline."""
        if self._index is None:
            self._index = WindowIndex(self)
        return self._index

    # ------------------------------------------------------------------
    # iteration
    # ------------------------------------------------------------------
    def windows_from(self, time: int) -> Iterator[Window]:
        """Absolute windows whose end is after ``time``, in order: one
        :class:`Window` per step, for callers that walk windows."""
        if not self.windows:
            return
        cycle, base = _first_ending_after(self._ends, self.period_tc, time)
        offset = cycle * self.period_tc
        while True:
            yield self.windows[base].shifted(offset)
            base += 1
            if base == len(self.windows):
                base = 0
                offset += self.period_tc

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.windows

    def window_at(self, time: int) -> Optional[Window]:
        """The absolute window containing ``time``, if any."""
        if not self.windows:
            return None
        cycle, base = _first_ending_after(self._ends, self.period_tc, time)
        offset = cycle * self.period_tc
        if self._starts[base] + offset > time:
            return None
        return self.windows[base].shifted(offset)

    def first_start_at_or_after(self, time: int) -> Window:
        """First window whose start is >= ``time``."""
        if not self.windows:
            raise LookupError("timeline has no windows")
        return Window(*self._fit(time, 1, joining=False))

    def first_start_after(self, time: int) -> Window:
        """First window whose start is strictly after ``time``."""
        return self.first_start_at_or_after(time + 1)

    # ------------------------------------------------------------------
    # completion rules (see module docstring)
    # ------------------------------------------------------------------
    def _fit(self, time: int, min_duration: int,
             joining: bool) -> tuple[int, int]:
        """``(entry, end)`` of the first window from ``time`` with
        ``min_duration`` ticks of room after its entry: only the first
        window ending after ``time`` can contain it (joining enters it
        at ``time``, aligned skips it); later ones are entered at their
        start.  A demand no window of the period fits never fits later
        (the timeline repeats), so n + 2 windows bound the scan."""
        n = len(self._ends)
        if n:
            starts, ends, period = self._starts, self._ends, self.period_tc
            cycle, base = _first_ending_after(ends, period, time)
            offset = cycle * period
            for _ in range(n + 2):
                start = starts[base] + offset
                end = ends[base] + offset
                if start >= time:
                    if end - start >= min_duration:
                        return start, end
                elif joining and end - time >= min_duration:
                    return time, end
                base += 1
                if base == n:
                    base = 0
                    offset += period
        raise LookupError(
            f"no window of the timeline can fit {min_duration} ticks")

    def completion_aligned_strict(self, time: int,
                                  min_duration: int = 1) -> int:
        """End of the first window starting strictly after ``time``
        with at least ``min_duration`` ticks (DL-data rule)."""
        return self._fit(time + 1, min_duration, joining=False)[1]

    def completion_aligned(self, time: int, min_duration: int = 1) -> int:
        """End of the first window starting at or after ``time`` with at
        least ``min_duration`` ticks (granted-UL-data rule)."""
        return self._fit(time, min_duration, joining=False)[1]

    def completion_joining(self, time: int, min_duration: int = 1) -> int:
        """End of the first window with ``min_duration`` ticks remaining
        at or after ``time`` (grant-free rule: mid-window entry allowed)."""
        return self._fit(time, min_duration, joining=True)[1]

    def earliest_entry_joining(self, time: int,
                               min_duration: int = 1) -> int:
        """Earliest instant >= ``time`` at which a transmission of
        ``min_duration`` ticks can *start* under the joining rule."""
        return self._fit(time, min_duration, joining=True)[0]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def duty_cycle(self) -> float:
        """Fraction of the period covered by windows."""
        covered = sum(w.duration for w in self.windows)
        return covered / self.period_tc

    def boundaries(self) -> tuple[int, ...]:
        """All window starts and ends within one period, sorted."""
        points: set[int] = set()
        for window in self.windows:
            points.add(window.start)
            points.add(window.end)
        return tuple(sorted(points))

    def __repr__(self) -> str:
        spans = ", ".join(f"[{w.start},{w.end})" for w in self.windows)
        return f"OpportunityTimeline(period={self.period_tc}, {spans})"


class WindowIndex:
    """Flat integer view of a timeline for population-scale queries.

    The scalar queries of :class:`OpportunityTimeline` answer one time
    at a time; the slotted engine tracks a whole population by window
    *number*.  This index exposes the same timeline as tuples plus a
    *global window number* ``k``: window ``k`` is base window ``k % n``
    of cycle ``k // n``.  All queries are defined to agree exactly with
    the scalar methods they shadow (pinned by
    ``tests/mac/test_opportunities.py``).
    """

    def __init__(self, timeline: "OpportunityTimeline"):
        if timeline.is_empty():
            raise ValueError("cannot index an empty timeline")
        self.period_tc = timeline.period_tc
        self.starts = timeline._starts
        self.ends = timeline._ends
        self.durations = tuple(w.duration for w in timeline.windows)
        self.n_windows = len(self.starts)

    def bounds(self, k: int) -> tuple[int, int]:
        """``(start, end)`` of global window ``k`` in absolute Tc."""
        cycle, base = divmod(k, self.n_windows)
        offset = cycle * self.period_tc
        return self.starts[base] + offset, self.ends[base] + offset

    def duration(self, k: int) -> int:
        return self.durations[k % self.n_windows]

    def first_ending_after(self, time: int) -> int:
        """Global number of the first window with ``end > time`` — the
        window :meth:`OpportunityTimeline.windows_from` yields first."""
        cycle, base = _first_ending_after(self.ends, self.period_tc, time)
        return cycle * self.n_windows + base


class PeriodicInstants:
    """Periodic set of instants (control/scheduling occasions)."""

    def __init__(self, period_tc: int, instants: Iterable[int]):
        if period_tc <= 0:
            raise ValueError(f"period must be positive, got {period_tc}")
        self.period_tc = int(period_tc)
        self.instants = tuple(sorted(set(int(i) for i in instants)))
        for instant in self.instants:
            if not 0 <= instant < period_tc:
                raise ValueError(
                    f"instant {instant} outside [0, {period_tc})")

    def next_at_or_after(self, time: int) -> int:
        """First instant >= ``time`` (absolute)."""
        if not self.instants:
            raise LookupError("no instants configured")
        if time < 0:
            time = 0
        cycle, offset = divmod(time, self.period_tc)
        for instant in self.instants:
            if instant >= offset:
                return cycle * self.period_tc + instant
        return (cycle + 1) * self.period_tc + self.instants[0]

    def next_after(self, time: int) -> int:
        """First instant strictly after ``time``."""
        return self.next_at_or_after(time + 1)
