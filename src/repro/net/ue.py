"""User-equipment node.

The UE owns the uplink access behaviour the paper analyses:

- **grant-based**: data waits in the UE's RLC queue while a scheduling
  request travels to the gNB and a grant comes back (Fig 3 ①-⑥) — the
  "SR and grant procedure [that] noticeably increases the latency of UL
  transmissions" (§4);
- **grant-free**: the UE transmits on its pre-allocated configured-grant
  resources in any UL window with enough room, skipping the handshake
  at the cost of reserved capacity (§5).

Downlink packets arrive as decoded transport blocks and climb the
PHY→...→APP pipeline.  All processing times are sampled from the
calibrated UE distributions (slower than the gNB's, §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.mac import bsr
from repro.mac.opportunities import OpportunityTimeline, Window
from repro.mac.scheduler import UlGrant
from repro.mac.scheme import DuplexingScheme
from repro.mac.types import AccessMode
from repro.phy.ofdm import Carrier
from repro.phy.timebase import tc_from_us
from repro.sim.distributions import DelaySampler
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer
from repro.stack.layers import LayerPipeline, ProcessingLayer
from repro.stack.packets import LatencySource, Packet
from repro.stack.rlc import RlcQueue
from repro import calibration

__all__ = ["UeCounters", "Ue"]

#: Order of layers on the way down (UL) and up (DL).
_DOWN_LAYERS = ("APP", "SDAP", "PDCP", "RLC", "MAC")
_UP_LAYERS = ("PHY", "MAC", "RLC", "PDCP", "SDAP")


@dataclass
class UeCounters:
    """UE-side operational counters."""

    srs_sent: int = 0
    grants_received: int = 0
    wasted_grants: int = 0
    grant_deadline_misses: int = 0
    ul_blocks_sent: int = 0
    packets_delivered: int = 0


@dataclass
class _PlannedWindow:
    window: Window
    packets: list[Packet] = field(default_factory=list)
    bytes_used: int = 0


class Ue:
    """One UE attached to the gNB over a duplexing scheme."""

    def __init__(self, sim: Simulator, tracer: Tracer, ue_id: int,
                 scheme: DuplexingScheme, carrier: Carrier,
                 rng: np.random.Generator,
                 access: AccessMode = AccessMode.GRANT_FREE,
                 tx_layer_delays: dict[str, DelaySampler] | None = None,
                 rx_layer_delays: dict[str, DelaySampler] | None = None,
                 radio_submission_us: Callable[
                     [int, np.random.Generator], float] | None = None,
                 min_tx_symbols: int = 2,
                 sr_symbols: int = 1,
                 sr_period_tc: int = 0,
                 sr_offset_tc: int = 0,
                 cg_capacity_bytes: Callable[[Window], int] | None = None,
                 on_ul_block: Callable[[int, Window, list[Packet]],
                                       None] | None = None,
                 on_sr: Callable[[int, int], None] | None = None,
                 on_delivered: Callable[[Packet], None] | None = None,
                 rlc_fault_gate: Callable[..., bool] | None = None):
        self.sim = sim
        self.tracer = tracer
        self.ue_id = ue_id
        self.scheme = scheme
        self.carrier = carrier
        self.rng = rng
        self.access = access
        self.counters = UeCounters()

        tx_delays = tx_layer_delays or calibration.ue_tx_layer_delays()
        rx_delays = rx_layer_delays or calibration.ue_rx_layer_delays()
        category = f"ue{ue_id}"
        self.down_pipeline = LayerPipeline([
            ProcessingLayer(sim, tracer, name, f"{category}.{name.lower()}",
                            tx_delays[name], rng,
                            adds_header=name in ("SDAP", "PDCP", "RLC",
                                                 "MAC"))
            for name in _DOWN_LAYERS
        ])
        self.up_pipeline = LayerPipeline([
            ProcessingLayer(sim, tracer, name,
                            f"{category}.up.{name.lower()}",
                            rx_delays[name], rng)
            for name in _UP_LAYERS
        ])
        self.phy_prep = tx_delays["PHY"]
        self.radio_submission_us = radio_submission_us
        self._ul = scheme.ul_timeline()
        symbol_tc = carrier.numerology.slot_duration_tc // 14
        self.min_tx_tc = max(1, min_tx_symbols * symbol_tc)
        self.sr_tc = max(1, sr_symbols * symbol_tc)
        if sr_period_tc < 0 or sr_offset_tc < 0:
            raise ValueError("SR period and offset must be >= 0")
        if sr_period_tc and sr_offset_tc >= sr_period_tc:
            raise ValueError("sr_offset_tc must be below sr_period_tc")
        self.sr_period_tc = sr_period_tc
        self.sr_offset_tc = sr_offset_tc
        self.cg_capacity_bytes = cg_capacity_bytes or (
            lambda window: 10**9)
        self.on_ul_block = on_ul_block or (lambda ue, w, p: None)
        self.on_sr = on_sr or (lambda ue, bsr: None)
        self.on_delivered = on_delivered or (lambda p: None)

        self.ul_queue = RlcQueue(sim, tracer, f"{category}.rlcq",
                                 fault_gate=rlc_fault_gate)
        self._sr_outstanding = False
        self._planned: dict[int, _PlannedWindow] = {}

    # ------------------------------------------------------------------
    # uplink entry point
    # ------------------------------------------------------------------
    def send_uplink(self, packet: Packet) -> None:
        """APP hands a packet to the stack (Fig 3 ①)."""
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(self.sim.now, f"ue{self.ue_id}.app", "send",
                             packet_id=packet.packet_id)
        self.down_pipeline.process(packet, self._ul_data_ready)

    def _ul_data_ready(self, packet: Packet) -> None:
        """Packet reached the MAC; access-mode specific handling."""
        if self.access is AccessMode.GRANT_FREE:
            self._plan_grant_free(packet)
        else:
            self.ul_queue.enqueue(packet)
            self._maybe_send_sr()

    # ------------------------------------------------------------------
    # grant-free path
    # ------------------------------------------------------------------
    def _plan_grant_free(self, packet: Packet,
                         is_retransmission: bool = False) -> None:
        """Place the packet in the earliest usable configured-grant
        window (the joining rule of the analytical model)."""
        now = self.sim.now
        prep_tc = tc_from_us(self.phy_prep.sample(self.rng))
        radio_tc = self._radio_tc()
        ready = now + prep_tc + radio_tc
        # A window without a plan that rejects the packet is an *empty*
        # rejection.  Once a full period of them has piled up, later
        # cycles repeat the same rejections, so the packet fits nowhere.
        n_windows = len(self._ul.windows)
        empty_rejections = 0
        for window in self._ul.windows_from(ready):
            if empty_rejections > n_windows:
                break
            entry = max(ready, window.start)
            if window.end - entry < self.min_tx_tc:
                empty_rejections += 1
                continue
            plan = self._planned.get(window.start)
            capacity = self.cg_capacity_bytes(window)
            used = plan.bytes_used if plan else 0
            if used + packet.wire_bytes > capacity:
                if plan is None:
                    empty_rejections += 1
                continue
            if plan is None:
                plan = _PlannedWindow(window)
                self._planned[window.start] = plan
                self.sim.schedule(window.end, self._transmit_planned,
                                  window.start)
            plan.packets.append(packet)
            plan.bytes_used += packet.wire_bytes
            packet.charge(LatencySource.PROCESSING, prep_tc)
            packet.charge(LatencySource.RADIO, radio_tc)
            packet.charge(LatencySource.PROTOCOL,
                          window.end - now - prep_tc - radio_tc)
            packet.stamp("ue.mac.cg_planned", now)
            if self.tracer.enabled:
                self.tracer.emit(now, f"ue{self.ue_id}.mac", "cg_planned",
                                 packet_id=packet.packet_id,
                                 window_start=window.start,
                                 retransmission=is_retransmission)
            return
        raise LookupError("no usable configured-grant window found")

    def _transmit_planned(self, window_start: int) -> None:
        plan = self._planned.pop(window_start)
        self.counters.ul_blocks_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, f"ue{self.ue_id}.mac", "cg_tx",
                             window_start=window_start,
                             packets=len(plan.packets))
        self.on_ul_block(self.ue_id, plan.window, plan.packets)

    # ------------------------------------------------------------------
    # grant-based path
    # ------------------------------------------------------------------
    def _next_sr_occasion(self, time: int) -> int:
        """Earliest usable SR occasion (PUCCH) at or after ``time``.

        Without a configured period any instant in a UL window works
        (the paper's footnote 2 idealisation); with one, occasions tick
        on the ``sr_offset + k·sr_period`` grid inside UL windows.
        """
        if not self.sr_period_tc:
            return self._ul.earliest_entry_joining(time, self.sr_tc)
        period, offset = self.sr_period_tc, self.sr_offset_tc
        candidate = time
        for _ in range(10_000):
            remainder = (candidate - offset) % period
            if remainder:
                candidate += period - remainder
            window = self._ul.window_at(candidate)
            if window is not None and window.end - candidate >= self.sr_tc:
                return candidate
            window = self._ul.first_start_at_or_after(candidate + 1)
            candidate = window.start
        raise LookupError("no SR occasion found; sr_period_tc too "
                          "coarse for this UL timeline")

    def _maybe_send_sr(self) -> None:
        if self._sr_outstanding or not self.ul_queue:
            return
        self._sr_outstanding = True
        sr_entry = self._next_sr_occasion(self.sim.now)
        sr_complete = sr_entry + self.sr_tc
        self.counters.srs_sent += 1
        # The request carries the buffer status (quantised through the
        # TS 38.321 BSR table) so the scheduler can size the grant.
        report = bsr.quantize(self.ul_queue.queued_bytes)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, f"ue{self.ue_id}.mac", "sr_tx",
                             entry=sr_entry, bsr_bytes=report)
        self.sim.schedule(sr_complete, self.on_sr, self.ue_id, report)

    def receive_grant(self, grant: UlGrant) -> None:
        """Grant decoded from DL control (Fig 3 ⑥)."""
        self._sr_outstanding = False
        self.counters.grants_received += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, f"ue{self.ue_id}.mac",
                             "grant_rx", window_start=grant.window.start)
        packets = self.ul_queue.pull_up_to(grant.capacity_bytes)
        if not packets:
            self.counters.wasted_grants += 1
            return
        now = self.sim.now
        prep_tc = tc_from_us(self.phy_prep.sample(self.rng))
        radio_tc = self._radio_tc()
        ready = now + prep_tc + radio_tc
        if ready > grant.window.start:
            # Too slow to make the granted window: the allocation is
            # lost and the UE must request again (§4 interdependency).
            self.counters.grant_deadline_misses += 1
            if self.tracer.enabled:
                self.tracer.emit(now, f"ue{self.ue_id}.mac",
                                 "grant_deadline_miss",
                                 late_by=ready - grant.window.start)
            for packet in packets:
                self.ul_queue.enqueue(packet)
            self._maybe_send_sr()
            return
        for packet in packets:
            packet.charge(LatencySource.PROCESSING, prep_tc)
            packet.charge(LatencySource.RADIO, radio_tc)
            packet.charge(LatencySource.PROTOCOL,
                          grant.window.end - now - prep_tc - radio_tc)
            packet.stamp("ue.mac.granted_tx", now)
        self.counters.ul_blocks_sent += 1
        self.sim.schedule(grant.window.end, self.on_ul_block,
                          self.ue_id, grant.window, packets)
        if self.ul_queue:
            self._maybe_send_sr()

    # ------------------------------------------------------------------
    # HARQ retransmission entry
    # ------------------------------------------------------------------
    def retransmit_uplink(self, packets: list[Packet]) -> None:
        """Channel-failed UL packets re-enter the access procedure."""
        for packet in packets:
            if self.access is AccessMode.GRANT_FREE:
                self._plan_grant_free(packet, is_retransmission=True)
            else:
                self.ul_queue.enqueue(packet)
        if self.access is AccessMode.GRANT_BASED:
            self._maybe_send_sr()

    # ------------------------------------------------------------------
    # downlink
    # ------------------------------------------------------------------
    def receive_dl_block(self, packets: list[Packet]) -> None:
        """A decoded DL transport block reaches the UE PHY (Fig 3 ⑪)."""
        rx_radio_tc = self._radio_tc()
        for packet in packets:
            packet.charge(LatencySource.RADIO, rx_radio_tc)
            packet.stamp("ue.phy.block_rx", self.sim.now)
        self.sim.call_in(rx_radio_tc, self._climb_dl_block, packets)

    def _climb_dl_block(self, packets: list[Packet]) -> None:
        for packet in packets:  # past the radio: up the stack
            self.up_pipeline.process(packet, self._dl_delivered)

    def _dl_delivered(self, packet: Packet) -> None:
        packet.mark_delivered(self.sim.now)
        self.counters.packets_delivered += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, f"ue{self.ue_id}.app",
                             "delivered", packet_id=packet.packet_id)
        self.on_delivered(packet)

    # ------------------------------------------------------------------
    def _radio_tc(self) -> int:
        if self.radio_submission_us is None:
            return 0
        n_samples = self.carrier.samples_per_slot()
        return tc_from_us(self.radio_submission_us(n_samples, self.rng))
