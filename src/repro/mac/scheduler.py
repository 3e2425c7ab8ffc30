"""Discrete-event gNB MAC scheduler.

Implements the behaviour §3/§4 of the paper describe:

- scheduling runs **once per slot** (at the scheme's scheduling
  instants);
- DL data waits in per-UE RLC queues until pulled into a transport
  block for a DL window — the origin of the dominant ``RLC-q`` waiting
  time of Table 2;
- UL is either **grant-based** (SR → scheduler → grant on the next DL
  control occasion → PUSCH in the granted window) or **grant-free**
  (pre-allocated configured-grant resources in every UL window, whose
  unused capacity is tracked as waste — the §9 scalability cost);
- every transmission must be *prepared ahead of time*: the scheduler
  leaves ``margin_tc`` between the allocation decision and the window
  start, and the sampled PHY + radio-submission delays must fit in it,
  otherwise the radio misses the deadline and the transport block is
  lost (§4's interdependency turning latency jitter into unreliability).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

__all__ = ["UlGrant", "SchedulerCounters", "GnbMacScheduler"]

if TYPE_CHECKING:
    from repro.mac.harq import HarqProcessPool
    from repro.mac.pdcch import PdcchModel

import numpy as np

from repro.mac.opportunities import Window
from repro.mac.scheme import DuplexingScheme
from repro.phy.ofdm import Carrier
from repro.phy.transport import transport_block_size
from repro.sim.distributions import DelaySampler
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import Tracer
from repro.stack.packets import LatencySource, Packet
from repro.stack.rlc import RlcQueue
from repro.phy.timebase import tc_from_us

#: DL windows in a row whose preparation misses its deadline, none
#: filled in between, after which a run raises instead of re-arming
#: forever: the margin cannot cover the PHY preparation at all.
MAX_CONSECUTIVE_DL_MISSES = 1_000


@dataclass(frozen=True)
class UlGrant:
    """An uplink grant issued in response to a scheduling request."""

    ue_id: int
    window: Window
    control_time: int     #: DL control occasion carrying the grant
    capacity_bytes: int


@dataclass
class SchedulerCounters:
    """Operational counters exposed for the reliability analysis."""

    dl_windows: int = 0
    dl_transport_blocks: int = 0
    dl_deadline_misses: int = 0
    grants_issued: int = 0
    grant_bytes_allocated: int = 0
    srs_received: int = 0
    cg_allocated_bytes: int = 0
    cg_used_bytes: int = 0

    def cg_waste_fraction(self) -> float:
        """Fraction of pre-allocated grant-free capacity never used —
        the price of grant-free access at scale (§9)."""
        if self.cg_allocated_bytes == 0:
            return 0.0
        return 1.0 - self.cg_used_bytes / self.cg_allocated_bytes


@dataclass
class _UeState:
    ue_id: int
    grant_free: bool
    cg_share: float
    dl_queue: RlcQueue
    priority: int = 0
    pending_srs: deque[int] = field(default_factory=deque)


class GnbMacScheduler:
    """Per-slot scheduler over a duplexing scheme's timelines."""

    def __init__(self, sim: Simulator, tracer: Tracer,
                 scheme: DuplexingScheme, carrier: Carrier,
                 rng: np.random.Generator,
                 mcs_index: int = 16,
                 margin_tc: int = 0,
                 phy_prep_delay: DelaySampler | None = None,
                 radio_submission_us: Callable[
                     [int, np.random.Generator], float] | None = None,
                 grant_air_time_tc: int = 0,
                 ue_grant_turnaround_tc: int = 0,
                 on_dl_transmission: Callable[
                     [Window, list[Packet]], None] | None = None,
                 on_ul_grant: Callable[[UlGrant], None] | None = None,
                 harq_pool: "HarqProcessPool | None" = None,
                 pdcch: "PdcchModel | None" = None,
                 dl_aggregation_level: int = 8,
                 ul_aggregation_level: int = 8,
                 rlc_fault_gate: Callable[..., bool] | None = None):
        self.sim = sim
        self.tracer = tracer
        self.scheme = scheme
        self.carrier = carrier
        self.rng = rng
        self.mcs_index = mcs_index
        self.margin_tc = margin_tc
        self.phy_prep_delay = phy_prep_delay
        self.radio_submission_us = radio_submission_us
        self.grant_air_time_tc = grant_air_time_tc
        self.ue_grant_turnaround_tc = ue_grant_turnaround_tc
        self.on_dl_transmission = on_dl_transmission or (lambda w, p: None)
        self.on_ul_grant = on_ul_grant or (lambda g: None)
        self.harq_pool = harq_pool
        self.pdcch = pdcch
        self.dl_aggregation_level = dl_aggregation_level
        self.ul_aggregation_level = ul_aggregation_level
        # Fault-injection hook (repro.faults), handed to every per-UE
        # DL RLC queue so loss storms can target them by category.
        self.rlc_fault_gate = rlc_fault_gate

        self.counters = SchedulerCounters()
        self._capacity_memo: dict[int, int] = {}
        self._ues: dict[int, _UeState] = {}
        self._rr_order: deque[int] = deque()
        self._dl = scheme.dl_timeline()
        self._ul = scheme.ul_timeline()
        self._control = scheme.dl_control_instants()
        self._scheduling = scheme.scheduling_instants()
        self._pending_decision: object | None = None
        self._dl_miss_run = 0
        self._started = False

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_ue(self, ue_id: int, grant_free: bool = False,
                    cg_share: float = 1.0, priority: int = 0) -> None:
        """Attach a UE; grant-free UEs get ``cg_share`` of each UL
        window's capacity pre-allocated.

        ``priority`` orders DL allocation: lower values are served
        first (e.g. URLLC UEs at 0, eMBB at 1), round-robin within a
        class.  This is the standard mechanism for protecting URLLC
        traffic when it coexists with eMBB (§1's coexistence line of
        work).
        """
        if ue_id in self._ues:
            raise ValueError(f"UE {ue_id} already registered")
        if not 0.0 < cg_share <= 1.0:
            raise ValueError(f"cg_share must be in (0, 1], got {cg_share}")
        queue = RlcQueue(self.sim, self.tracer, f"gnb.rlcq.ue{ue_id}",
                         fault_gate=self.rlc_fault_gate)
        self._ues[ue_id] = _UeState(ue_id, grant_free, cg_share, queue,
                                    priority)
        self._rr_order.append(ue_id)

    def dl_queue(self, ue_id: int) -> RlcQueue:
        return self._ues[ue_id].dl_queue

    def ue_ids(self) -> list[int]:
        return list(self._ues)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Mark the scheduler live; DL decisions arm on demand."""
        if self._started:
            raise RuntimeError("scheduler already started")
        self._started = True

    def notify_dl_data(self) -> None:
        """DL data was queued: arm a decision for the next DL window.

        Decisions are demand-driven so an idle cell generates no events;
        once armed, each decision re-arms for the following window while
        any DL queue is non-empty.
        """
        if self._pending_decision is not None or self._dl.is_empty():
            return
        # Target the first window the radio can still make: preparation
        # needs ``margin_tc`` of lead time (§4).
        window = self._dl.first_start_at_or_after(
            self.sim.now + self.margin_tc)
        self._arm_decision(window)

    def _arm_decision(self, window: Window) -> None:
        decision_time = max(self.sim.now, window.start - self.margin_tc)
        self._pending_decision = self.sim.schedule(
            decision_time, self._dl_decision, window)

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    def window_capacity_bytes(self, window: Window) -> int:
        """Transport-block capacity of a window at the configured MCS."""
        return self.capacity_for_duration(window.duration)

    def capacity_for_duration(self, duration_tc: int) -> int:
        """Capacity of any window of ``duration_tc``, memoized.

        Capacity is a pure function of the window *duration* (and the
        fixed carrier/MCS), and a periodic timeline only has a handful
        of distinct durations — the population-scale slotted engine
        calls this once per (duration, plan) instead of re-deriving the
        transport-block size per packet.
        """
        capacity = self._capacity_memo.get(duration_tc)
        if capacity is None:
            slot_tc = self.carrier.numerology.slot_duration_tc
            n_symbols = max(1, round(14 * duration_tc / slot_tc))
            n_symbols = min(14, n_symbols)
            n_re = self.carrier.resource_elements(self.carrier.n_rb,
                                                  n_symbols)
            capacity = transport_block_size(n_re, self.mcs_index) // 8
            self._capacity_memo[duration_tc] = capacity
        return capacity

    def cg_capacity_for(self, duration_tc: int, cg_share: float) -> int:
        """Grant-free capacity of a ``cg_share`` slice of a window —
        the population-level form of :meth:`cg_capacity_bytes`, usable
        without per-UE registration."""
        return int(self.capacity_for_duration(duration_tc) * cg_share)

    def cg_capacity_bytes(self, ue_id: int, window: Window) -> int:
        """Grant-free capacity pre-allocated to a UE in a UL window."""
        state = self._ues[ue_id]
        if not state.grant_free:
            return 0
        return self.cg_capacity_for(window.duration, state.cg_share)

    # ------------------------------------------------------------------
    # DL side
    # ------------------------------------------------------------------
    def _dl_decision(self, window: Window) -> None:
        """Allocate one DL window (runs ``margin_tc`` before it)."""
        self._pending_decision = None
        self.counters.dl_windows += 1
        decision_time = self.sim.now
        # Sample the preparation path first: if the radio cannot be fed
        # in time, nothing is pulled and the window is skipped (§4's
        # interdependency — jitter converts into an extra wait).
        prep_tc = 0
        if self.phy_prep_delay is not None:
            prep_tc = tc_from_us(self.phy_prep_delay.sample(self.rng))
        radio_tc = 0
        if self.radio_submission_us is not None:
            n_samples = self.carrier.samples_per_slot()
            radio_tc = tc_from_us(
                self.radio_submission_us(n_samples, self.rng))
        ready = decision_time + prep_tc + radio_tc
        if ready > window.start:
            self.counters.dl_deadline_misses += 1
            self._dl_miss_run += 1
            if self.tracer.enabled:  # lazy fields: skip kwargs if disabled
                self.tracer.emit(self.sim.now, "gnb.mac",
                                 "dl_deadline_miss",
                                 window_start=window.start,
                                 late_by=ready - window.start)
            if self._dl_miss_run >= MAX_CONSECUTIVE_DL_MISSES:
                raise SimulationError(
                    f"DL livelock: {self._dl_miss_run} DL windows in a "
                    f"row missed their deadline at t={self.sim.now}; "
                    f"margin_tc={self.margin_tc} cannot cover the PHY "
                    "preparation and radio submission")
        else:
            self._dl_miss_run = 0
            self._fill_dl_window(window, decision_time, prep_tc,
                                 radio_tc)
        if any(state.dl_queue for state in self._ues.values()):
            self._arm_decision(self._dl.first_start_after(window.start))

    def _fill_dl_window(self, window: Window, decision_time: int,
                        prep_tc: int, radio_tc: int) -> None:
        """Pull data into the window's transport block and launch it."""
        if (self.harq_pool is not None
                and any(state.dl_queue for state in self._ues.values())
                and not self.harq_pool.available()):
            # Every HARQ process awaits feedback: the window is lost
            # (throughput is bounded by processes per round trip).
            self.harq_pool.record_stall()
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "gnb.mac", "harq_stall",
                                 window_start=window.start)
            return
        remaining = self.window_capacity_bytes(window)
        allocated: list[Packet] = []
        carried_bytes = 0
        # Serve strictly by priority class (URLLC before eMBB), with
        # round-robin fairness inside each class.
        self._rr_order.rotate(-1)
        order = sorted(self._rr_order,
                       key=lambda ue: self._ues[ue].priority)
        for ue_id in order:
            if not self._ues[ue_id].dl_queue:
                continue
            # Each served UE needs a DL-assignment DCI in the window's
            # control region; a blocked DCI defers the UE entirely.
            if (self.pdcch is not None
                    and not self.pdcch.try_allocate(
                        window.start, self.dl_aggregation_level)):
                if self.tracer.enabled:
                    self.tracer.emit(self.sim.now, "gnb.mac",
                                     "pdcch_blocked", ue_id=ue_id,
                                     window_start=window.start)
                continue
            result = self._ues[ue_id].dl_queue.pull(
                remaining, allow_segmentation=True)
            remaining -= result.consumed_bytes
            carried_bytes += result.consumed_bytes
            allocated.extend(result.completed)
            if remaining <= 0:
                break
        if carried_bytes == 0:
            return
        self.counters.dl_transport_blocks += 1
        for packet in allocated:
            packet.charge(LatencySource.PROCESSING, prep_tc)
            packet.charge(LatencySource.RADIO, radio_tc)
            packet.charge(LatencySource.PROTOCOL,
                          window.end - decision_time - prep_tc - radio_tc)
        if self.tracer.enabled:
            self.tracer.emit(decision_time, "gnb.mac", "dl_allocation",
                             window_start=window.start,
                             packets=len(allocated), bytes=carried_bytes)
        if allocated:
            if self.harq_pool is not None:
                self.harq_pool.acquire()
            self.sim.schedule(window.end, self.on_dl_transmission,
                              window, allocated)

    def requeue_dl(self, packets: list[Packet]) -> None:
        """Put packets back after a failed (HARQ-nacked) DL block."""
        for packet in packets:
            self._ues[packet.ue_id].dl_queue.enqueue(packet)
        self.notify_dl_data()

    # ------------------------------------------------------------------
    # UL side (grant-based)
    # ------------------------------------------------------------------
    def receive_sr(self, ue_id: int, bsr_bytes: int = 0) -> None:
        """A decoded scheduling request reaches the MAC (Fig 3 ③).

        ``bsr_bytes`` is the UE's (BSR-quantised) buffer report; zero
        means "unknown", in which case a full window is granted.
        """
        state = self._ues[ue_id]
        state.pending_srs.append(bsr_bytes)
        self.counters.srs_received += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "gnb.mac", "sr_received",
                             ue_id=ue_id, bsr_bytes=bsr_bytes)
        # The scheduler only acts at its next instant (§2: scheduling
        # is performed once per slot).
        instant = self._scheduling.next_after(self.sim.now)
        self.sim.schedule(instant, self._serve_srs, ue_id)

    def _serve_srs(self, ue_id: int) -> None:
        state = self._ues[ue_id]
        while state.pending_srs:
            bsr_bytes = state.pending_srs.popleft()
            grant = self._build_grant(ue_id, bsr_bytes)
            self.counters.grants_issued += 1
            self.counters.grant_bytes_allocated += grant.capacity_bytes
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "gnb.mac", "grant_issued",
                                 ue_id=ue_id,
                                 window_start=grant.window.start,
                                 capacity=grant.capacity_bytes)
            self.sim.schedule(grant.control_time, self.on_ul_grant, grant)

    def _build_grant(self, ue_id: int, bsr_bytes: int = 0) -> UlGrant:
        control_time = self._control.next_at_or_after(self.sim.now)
        if self.pdcch is not None:
            # The grant DCI needs PDCCH room; blocked occasions push
            # the grant (and thus the data) later.
            for _ in range(200):
                if self.pdcch.try_allocate(control_time,
                                           self.ul_aggregation_level):
                    break
                control_time = self._control.next_after(control_time)
            else:
                raise LookupError("PDCCH permanently blocked")
        usable_from = (control_time + self.grant_air_time_tc
                       + self.ue_grant_turnaround_tc)
        window = self._ul.first_start_at_or_after(usable_from)
        capacity = self.window_capacity_bytes(window)
        if bsr_bytes > 0:
            capacity = min(capacity, bsr_bytes)
        return UlGrant(ue_id=ue_id, window=window,
                       control_time=control_time,
                       capacity_bytes=capacity)

    # ------------------------------------------------------------------
    # UL side (grant-free accounting)
    # ------------------------------------------------------------------
    def account_cg_window(self, ue_id: int, window: Window,
                          used_bytes: int) -> None:
        """Record configured-grant usage for the waste metric (§9)."""
        self.account_cg_usage(self.cg_capacity_bytes(ue_id, window),
                              used_bytes)

    def account_cg_usage(self, allocated_bytes: int,
                         used_bytes: int) -> None:
        """Population-level form of :meth:`account_cg_window`: charge
        one transmitted block against its pre-computed allocation."""
        self.counters.cg_allocated_bytes += allocated_bytes
        self.counters.cg_used_bytes += min(used_bytes, allocated_bytes)
