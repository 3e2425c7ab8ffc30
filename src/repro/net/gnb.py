"""gNB node: DL stack, UL reception stack, MAC scheduler, radio head.

Downlink packets from the UPF descend SDAP→PDCP→RLC into the per-UE RLC
queues, where they wait for the once-per-slot scheduler (Table 2's
``RLC-q``).  Uplink transport blocks climb PHY→MAC→RLC→PDCP→SDAP and
leave toward the UPF.  Scheduling requests pass a PHY decode delay
before reaching the MAC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.mac.harq import HarqProcessPool
from repro.mac.opportunities import Window
from repro.mac.pdcch import PdcchModel
from repro.mac.scheduler import GnbMacScheduler, UlGrant
from repro.mac.scheme import DuplexingScheme
from repro.phy.ofdm import Carrier
from repro.phy.timebase import tc_from_us
from repro.radio.radio_head import RadioHead
from repro.sim.distributions import DelaySampler
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer
from repro.stack.layers import LayerPipeline, ProcessingLayer
from repro.stack.packets import LatencySource, Packet
from repro import calibration

__all__ = ["GnbCounters", "Gnb"]

_DOWN_LAYERS = ("SDAP", "PDCP", "RLC")
_UP_LAYERS = ("PHY", "MAC", "RLC", "PDCP", "SDAP")


@dataclass
class GnbCounters:
    """gNB-side counters."""

    dl_packets_in: int = 0
    ul_packets_out: int = 0
    srs_decoded: int = 0


class Gnb:
    """One gNB running a fully software-based stack (as in §7)."""

    def __init__(self, sim: Simulator, tracer: Tracer,
                 scheme: DuplexingScheme, carrier: Carrier,
                 rng: np.random.Generator,
                 radio_head: RadioHead | None = None,
                 layer_delays: dict[str, DelaySampler] | None = None,
                 cpu: CpuResource | None = None,
                 mcs_index: int = 16,
                 margin_tc: int | None = None,
                 grant_air_time_tc: int = 0,
                 ue_grant_turnaround_tc: int = 0,
                 on_ul_delivered: Callable[[Packet], None] | None = None,
                 on_dl_transmission: Callable[
                     [Window, list[Packet]], None] | None = None,
                 on_ul_grant: Callable[[UlGrant], None] | None = None,
                 harq_pool: "HarqProcessPool | None" = None,
                 pdcch: "PdcchModel | None" = None,
                 aggregation_level: int = 8,
                 processing_dilation: Callable[[str], float] | None = None,
                 rlc_fault_gate: Callable[..., bool] | None = None):
        self.sim = sim
        self.tracer = tracer
        self.scheme = scheme
        self.carrier = carrier
        self.rng = rng
        self.radio_head = radio_head
        self.counters = GnbCounters()
        self.on_ul_delivered = on_ul_delivered or (lambda p: None)

        delays = layer_delays or calibration.gnb_layer_delays()
        self._delays = delays
        self.cpu = cpu
        self.down_pipeline = LayerPipeline([
            ProcessingLayer(sim, tracer, name, f"gnb.{name.lower()}",
                            delays[name], rng,
                            adds_header=name in ("SDAP", "PDCP", "RLC"),
                            cpu=cpu, dilation=processing_dilation)
            for name in _DOWN_LAYERS
        ])
        self.up_pipeline = LayerPipeline([
            ProcessingLayer(sim, tracer, name, f"gnb.up.{name.lower()}",
                            delays[name], rng, cpu=cpu,
                            dilation=processing_dilation)
            for name in _UP_LAYERS
        ])

        radio_submission = None
        if radio_head is not None:
            radio_submission = radio_head.tx_latency_us
        if margin_tc is None:
            margin_tc = self._default_margin_tc()
        self.margin_tc = margin_tc
        self.scheduler = GnbMacScheduler(
            sim, tracer, scheme, carrier, rng,
            mcs_index=mcs_index,
            margin_tc=margin_tc,
            phy_prep_delay=delays["PHY"],
            radio_submission_us=radio_submission,
            grant_air_time_tc=grant_air_time_tc,
            ue_grant_turnaround_tc=ue_grant_turnaround_tc,
            on_dl_transmission=on_dl_transmission,
            on_ul_grant=on_ul_grant,
            harq_pool=harq_pool,
            pdcch=pdcch,
            dl_aggregation_level=aggregation_level,
            ul_aggregation_level=aggregation_level,
            rlc_fault_gate=rlc_fault_gate,
        )

    def _default_margin_tc(self) -> int:
        """Margin covering mean PHY preparation plus radio latency (§4:
        the scheduler must account for downstream processing time)."""
        phy_us = self._delays["PHY"].mean_us
        radio_us = 0.0
        if self.radio_head is not None:
            radio_us = self.radio_head.mean_one_way_us(
                self.carrier.samples_per_slot())
        # Headroom factor 2 on the stochastic parts keeps deadline
        # misses rare without inflating latency by a full extra slot.
        return tc_from_us(2.0 * (phy_us + radio_us))

    # ------------------------------------------------------------------
    # control-plane hooks
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.scheduler.start()

    def register_ue(self, ue_id: int, grant_free: bool = False,
                    cg_share: float = 1.0, priority: int = 0) -> None:
        self.scheduler.register_ue(ue_id, grant_free, cg_share,
                                   priority=priority)

    # ------------------------------------------------------------------
    # downlink entry (from the UPF)
    # ------------------------------------------------------------------
    def send_downlink(self, packet: Packet) -> None:
        """DL user data enters the gNB stack (Fig 3 ⑧)."""
        self.counters.dl_packets_in += 1
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(self.sim.now, "gnb.dl", "in",
                             packet_id=packet.packet_id)
        self.down_pipeline.process(packet, self._enqueue_dl)

    def _enqueue_dl(self, packet: Packet) -> None:
        self.scheduler.dl_queue(packet.ue_id).enqueue(packet)
        self.scheduler.notify_dl_data()

    # ------------------------------------------------------------------
    # uplink reception
    # ------------------------------------------------------------------
    def receive_ul_block(self, ue_id: int, window: Window,
                         packets: list[Packet]) -> None:
        """A UL transport block's last symbol has been captured."""
        rx_radio_tc = 0
        if self.radio_head is not None:
            rx_radio_tc = tc_from_us(self.radio_head.rx_latency_us(
                self.carrier.samples_per_slot(), self.rng))
        for packet in packets:
            packet.charge(LatencySource.RADIO, rx_radio_tc)
            packet.stamp("gnb.ul.block_rx", self.sim.now)
        self.sim.call_in(rx_radio_tc, self._climb_ul_block, packets)

    def _climb_ul_block(self, packets: list[Packet]) -> None:
        for packet in packets:  # past the radio head: up the stack
            self.up_pipeline.process(packet, self._ul_done)

    def _ul_done(self, packet: Packet) -> None:
        self.counters.ul_packets_out += 1
        self.on_ul_delivered(packet)

    # ------------------------------------------------------------------
    # scheduling requests
    # ------------------------------------------------------------------
    def receive_sr(self, ue_id: int, bsr_bytes: int = 0) -> None:
        """SR samples captured; decode then notify the MAC (Fig 3 ③)."""
        self.counters.srs_decoded += 1
        decode_tc = tc_from_us(self._delays["PHY"].sample(self.rng))
        self.sim.call_in(decode_tc, self.scheduler.receive_sr, ue_id,
                         bsr_bytes)
