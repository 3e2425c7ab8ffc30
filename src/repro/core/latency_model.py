"""Analytical worst/best-case one-way latency (paper §5, Fig 4).

The model composes the protocol's *completion rules* (see
:mod:`repro.mac.opportunities`) into one-way latency functions:

- **DL**: data arriving at the gNB completes at the end of the first DL
  window starting strictly after arrival — the current window "is
  already allocated for other DL data" (§5), because control information
  is emitted once per window, at its start.
- **Grant-free UL**: the UE owns pre-allocated resources and can enter
  any UL window mid-way; data completes at that window's end.
- **Grant-based UL**: the full SR → scheduling → grant → data chain of
  §3/Fig 3: the SR joins the first UL opportunity, the gNB scheduler
  runs at the first scheduling instant *strictly after* the SR is
  received, the grant rides the next DL control occasion, and the data
  uses the first UL window starting after the grant is processed.

Latency is measured from data arrival to the end of the transmission
window, matching the paper's slot-granular accounting (transport blocks
span their allocation; decoding completes at its last symbol).

Worst and best cases are exact: every stage is a monotone step function
of the arrival tick whose discontinuities lie on window/instant
boundaries shifted by the constant chain delays, so evaluating the
latency at those critical ticks (±1) finds the true extrema.  A
property-based test cross-checks this against dense random sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.mac.opportunities import OpportunityTimeline, PeriodicInstants
from repro.mac.scheme import DuplexingScheme
from repro.mac.types import AccessMode, Direction
from repro.phy.timebase import ms_from_tc, us_from_tc

__all__ = [
    "ProtocolTimings",
    "GrantChainTrace",
    "LatencyExtremes",
    "LatencyModel",
]


@dataclass(frozen=True)
class ProtocolTimings:
    """Delays inside the access chain, in Tc ticks.

    All defaults are zero: the *pure protocol* model of Fig 4/Table 1,
    which isolates protocol latency from processing and radio latency.
    The system-level model (:mod:`repro.core.budget`) sets these from
    measured distributions.
    """

    sr_duration: int = 0       #: time on air for the 1-bit SR
    sr_decode: int = 0         #: gNB PHY decode before the MAC sees the SR
    grant_duration: int = 0    #: PDCCH transmission + UE decode
    ue_grant_processing: int = 0  #: UE MAC work between grant and PUSCH
    min_tx_duration: int = 1   #: room a data transmission needs in a window
    dl_lead: int = 0    #: gNB prep+radio before DL data can hit a window
    ul_lead: int = 0    #: UE prep+radio before UL data can hit a window
    #: PUCCH SR periodicity in Tc (0 = the paper's idealisation that an
    #: SR can be sent "at any time during the UL slot").  With a
    #: non-zero period, SR occasions exist only at multiples of it that
    #: fall inside UL windows — the "period of scheduling requests"
    #: configuration §1 lists among the latency factors.
    sr_period: int = 0
    sr_offset: int = 0  #: phase of the SR occasions within the period

    def __post_init__(self) -> None:
        for name in ("sr_duration", "sr_decode", "grant_duration",
                     "ue_grant_processing", "dl_lead", "ul_lead",
                     "sr_period", "sr_offset"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.min_tx_duration < 1:
            raise ValueError("min_tx_duration must be >= 1 tick")
        if self.sr_period and self.sr_offset >= self.sr_period:
            raise ValueError("sr_offset must be below sr_period")


@dataclass(frozen=True)
class GrantChainTrace:
    """Absolute timestamps of each grant-based UL stage (Fig 3 ①-⑦)."""

    arrival: int         #: UL data reaches the UE MAC (①)
    sr_tx_start: int     #: SR enters the air (②)
    sr_received: int     #: gNB MAC has decoded the SR (③)
    scheduled: int       #: scheduler instant that serves the SR (④)
    grant_tx: int        #: grant rides this DL control occasion (⑤)
    grant_processed: int  #: UE ready to transmit (⑥)
    data_window_start: int  #: granted PUSCH window begins
    completion: int      #: data fully received (⑦)

    @property
    def latency_tc(self) -> int:
        return self.completion - self.arrival

    def stage_durations(self) -> dict[str, int]:
        """Named durations of each chain stage (sums to the latency)."""
        return {
            "wait_for_sr_opportunity": self.sr_tx_start - self.arrival,
            "sr_transmission": self.sr_received - self.sr_tx_start,
            "wait_for_scheduler": self.scheduled - self.sr_received,
            "wait_for_dl_control": self.grant_tx - self.scheduled,
            "grant_delivery": self.grant_processed - self.grant_tx,
            "wait_for_ul_window": self.data_window_start
                                  - self.grant_processed,
            "data_transmission": self.completion - self.data_window_start,
        }


@dataclass(frozen=True)
class LatencyExtremes:
    """Worst and best one-way latency over all arrival phases."""

    scheme_name: str
    direction: Direction
    access: AccessMode | None
    worst_tc: int
    worst_arrival_tc: int
    best_tc: int
    best_arrival_tc: int

    @property
    def worst_ms(self) -> float:
        return ms_from_tc(self.worst_tc)

    @property
    def best_ms(self) -> float:
        return ms_from_tc(self.best_tc)

    def meets(self, budget_tc: int) -> bool:
        """Whether the worst case fits the one-way budget."""
        return self.worst_tc <= budget_tc

    def __str__(self) -> str:
        mode = f" ({self.access.value})" if self.access else ""
        return (f"{self.scheme_name} {self.direction.value}{mode}: "
                f"worst {us_from_tc(self.worst_tc):.1f} µs, "
                f"best {us_from_tc(self.best_tc):.1f} µs")


class LatencyModel:
    """Worst/best-case latency functions for one duplexing scheme."""

    def __init__(self, scheme: DuplexingScheme,
                 timings: ProtocolTimings | None = None):
        self.scheme = scheme
        self.timings = timings or ProtocolTimings()
        self._dl: OpportunityTimeline = scheme.dl_timeline()
        self._ul: OpportunityTimeline = scheme.ul_timeline()
        self._control: PeriodicInstants = scheme.dl_control_instants()
        self._scheduling: PeriodicInstants = scheme.scheduling_instants()

    # ------------------------------------------------------------------
    # completion functions (arrival tick -> completion tick)
    # ------------------------------------------------------------------
    def dl_completion(self, arrival: int) -> int:
        """DL data completion under the slot-aligned strict rule.

        ``dl_lead`` shifts the usable windows: the gNB cannot use a
        window starting earlier than arrival + preparation + radio
        submission (§4's margin)."""
        return self._dl.completion_aligned_strict(
            arrival + self.timings.dl_lead, self.timings.min_tx_duration)

    def ul_grant_free_completion(self, arrival: int) -> int:
        """Grant-free UL completion under the joining rule, after the
        UE-side preparation lead."""
        return self._ul.completion_joining(
            arrival + self.timings.ul_lead, self.timings.min_tx_duration)

    def _next_sr_occasion(self, time: int) -> int:
        """First SR occasion at or after ``time``.

        With ``sr_period == 0`` (the default, the paper's idealisation)
        any instant inside a UL window qualifies; otherwise occasions
        tick at ``sr_offset + k·sr_period`` and must fall inside a UL
        window with room for the SR.
        """
        timings = self.timings
        need = max(1, timings.sr_duration)
        if not timings.sr_period:
            return self._ul.earliest_entry_joining(time, need)
        period, offset = timings.sr_period, timings.sr_offset
        candidate = time
        for _ in range(10_000):
            remainder = (candidate - offset) % period
            if remainder:
                candidate += period - remainder
            window = self._ul.window_at(candidate)
            if window is not None and window.end - candidate >= need:
                return candidate
            # Jump to the next UL window and realign to the grid.
            window = self._ul.first_start_at_or_after(candidate + 1)
            candidate = window.start
        raise LookupError("no SR occasion found; sr_period too coarse "
                          "for this UL timeline")

    def ul_grant_based_chain(self, arrival: int) -> GrantChainTrace:
        """The full SR → grant → data chain for one arrival."""
        timings = self.timings
        sr_tx_start = self._next_sr_occasion(arrival + timings.ul_lead)
        sr_received = sr_tx_start + timings.sr_duration + timings.sr_decode
        scheduled = self._scheduling.next_after(sr_received)
        grant_tx = self._control.next_at_or_after(scheduled)
        grant_processed = (grant_tx + timings.grant_duration
                           + timings.ue_grant_processing)
        completion = self._ul.completion_aligned(
            grant_processed, timings.min_tx_duration)
        data_window = self._ul.first_start_at_or_after(grant_processed)
        return GrantChainTrace(
            arrival=arrival,
            sr_tx_start=sr_tx_start,
            sr_received=sr_received,
            scheduled=scheduled,
            grant_tx=grant_tx,
            grant_processed=grant_processed,
            data_window_start=data_window.start,
            completion=completion,
        )

    def ul_grant_based_completion(self, arrival: int) -> int:
        """:meth:`ul_grant_based_chain`'s completion, without the trace:
        one scan of the UL timeline instead of two."""
        timings = self.timings
        sr_received = (self._next_sr_occasion(arrival + timings.ul_lead)
                       + timings.sr_duration + timings.sr_decode)
        grant_tx = self._control.next_at_or_after(
            self._scheduling.next_after(sr_received))
        return self._ul.completion_aligned(
            grant_tx + timings.grant_duration + timings.ue_grant_processing,
            timings.min_tx_duration)

    def completion(self, arrival: int, direction: Direction,
                   access: AccessMode = AccessMode.GRANT_FREE) -> int:
        """Completion tick for any direction/access combination."""
        if direction is Direction.DL:
            return self.dl_completion(arrival)
        if access is AccessMode.GRANT_FREE:
            return self.ul_grant_free_completion(arrival)
        return self.ul_grant_based_completion(arrival)

    # ------------------------------------------------------------------
    # extrema
    # ------------------------------------------------------------------
    @cached_property
    def _critical_arrivals(self) -> tuple[int, ...]:
        """Arrival ticks at which any stage function can jump (scheme
        and timings are fixed, so one enumeration serves the model)."""
        period = self.scheme.period_tc
        timings = self.timings
        if timings.sr_period:
            period = math.lcm(period, timings.sr_period)
            if period > 400 * self.scheme.period_tc:
                raise ValueError(
                    "sr_period is incommensurate with the scheme "
                    "period; extrema enumeration would explode")
        boundaries: set[int] = set()
        for timeline in (self._dl, self._ul):
            for window in timeline.windows_from(0):
                if window.start >= period:
                    break
                boundaries.add(window.start % period)
                boundaries.add(window.end % period)
        instants = set(self._control.instants) | set(
            self._scheduling.instants)
        for base in instants:
            for cycle in range(period // self.scheme.period_tc):
                boundaries.add(base + cycle * self.scheme.period_tc)
        if timings.sr_period:
            occasion = timings.sr_offset
            while occasion < period:
                boundaries.add(occasion)
                occasion += timings.sr_period
        # Constant chain delays shift the preimages of downstream jumps.
        shifts = {
            0,
            timings.min_tx_duration,
            timings.sr_duration,
            timings.sr_duration + timings.sr_decode,
            (timings.grant_duration + timings.ue_grant_processing),
            (timings.sr_duration + timings.sr_decode
             + timings.grant_duration + timings.ue_grant_processing),
        }
        candidates: set[int] = set()
        for cycle in (0, period):
            for boundary in boundaries:
                for shift in shifts:
                    base = boundary + cycle - shift
                    for offset in (-1, 0, 1):
                        tick = base + offset
                        if tick >= 0:
                            candidates.add(tick)
        candidates.add(0)
        return tuple(sorted(candidates))

    def extremes(self, direction: Direction,
                 access: AccessMode = AccessMode.GRANT_FREE
                 ) -> LatencyExtremes:
        """Exact worst and best one-way latency over arrival phases."""
        worst = best = None
        worst_at = best_at = 0
        for arrival in self._critical_arrivals:
            latency = self.completion(arrival, direction, access) - arrival
            if worst is None or latency > worst:
                worst, worst_at = latency, arrival
            if best is None or latency < best:
                best, best_at = latency, arrival
        assert worst is not None and best is not None
        return LatencyExtremes(
            scheme_name=self.scheme.name,
            direction=direction,
            access=access if direction is Direction.UL else None,
            worst_tc=worst,
            worst_arrival_tc=worst_at,
            best_tc=best,
            best_arrival_tc=best_at,
        )

    def worst_case_trace(self) -> GrantChainTrace:
        """Grant-based chain at its worst arrival (Fig 4, top)."""
        extremes = self.extremes(Direction.UL, AccessMode.GRANT_BASED)
        return self.ul_grant_based_chain(extremes.worst_arrival_tc)

    # ------------------------------------------------------------------
    # exact phase-averaged mean
    # ------------------------------------------------------------------
    def mean_latency_tc(self, direction: Direction,
                        access: AccessMode = AccessMode.GRANT_FREE
                        ) -> float:
        """Exact mean one-way latency over a uniform arrival phase.

        The completion function is a non-decreasing step function of
        the arrival tick, constant between critical points; within each
        constancy interval the latency falls linearly with slope −1, so
        the phase average reduces to a finite sum over the critical
        intervals of one period.  This is the analytical counterpart of
        the DES's uniform-arrival measurements (§7's workload).
        """
        period = self.scheme.period_tc
        timings = self.timings
        if timings.sr_period:
            period = math.lcm(period, timings.sr_period)
        points = sorted(p for p in set(
            c % period for c in self._critical_arrivals) if p < period)
        if not points or points[0] != 0:
            points.insert(0, 0)
        points.append(period)
        total = 0.0
        for a, b in zip(points, points[1:]):
            if b <= a:
                continue
            completion = self.completion(a, direction, access)
            # Within [a, b) the completion is constant at ``completion``
            # (critical points bound every jump): latency integrates to
            # (b-a)·C − (b²−a²)/2.
            total += (b - a) * completion - (b * b - a * a) / 2.0
        return total / period

    def mean_latency_us(self, direction: Direction,
                        access: AccessMode = AccessMode.GRANT_FREE
                        ) -> float:
        """Phase-averaged mean latency in microseconds."""
        return us_from_tc(self.mean_latency_tc(direction, access))

    # ------------------------------------------------------------------
    # round trips (the 1 ms RTT requirement)
    # ------------------------------------------------------------------
    def rtt_completion(self, arrival: int,
                       access: AccessMode = AccessMode.GRANT_FREE,
                       server_turnaround: int = 0) -> int:
        """Completion tick of a full ping round trip (Fig 2/3).

        The uplink chain delivers the request; after the server's
        turnaround the reply enters the DL path, whose own phase is
        whatever the UL chain left it at — the two directions compose,
        they do not simply add their worst cases.
        """
        if server_turnaround < 0:
            raise ValueError("server turnaround must be >= 0")
        request_done = self.completion(arrival, Direction.UL, access)
        return self.dl_completion(request_done + server_turnaround)

    def rtt_extremes(self, access: AccessMode = AccessMode.GRANT_FREE,
                     server_turnaround: int = 0) -> LatencyExtremes:
        """Exact worst/best round-trip time over arrival phases.

        Note the composed worst case is generally *below* the sum of
        the per-direction worst cases: the uplink always hands the
        reply to the DL path right after a UL region, never at the DL
        path's own worst phase.
        """
        worst = best = None
        worst_at = best_at = 0
        for arrival in self._critical_arrivals:
            rtt = self.rtt_completion(arrival, access,
                                      server_turnaround) - arrival
            if worst is None or rtt > worst:
                worst, worst_at = rtt, arrival
            if best is None or rtt < best:
                best, best_at = rtt, arrival
        assert worst is not None and best is not None
        return LatencyExtremes(
            scheme_name=self.scheme.name,
            direction=Direction.UL,  # round trip starts uplink
            access=access,
            worst_tc=worst,
            worst_arrival_tc=worst_at,
            best_tc=best,
            best_arrival_tc=best_at,
        )
