"""End-to-end RAN assembly and experiment drivers.

:class:`RanSystem` wires the full Fig 2 topology — UEs, air link, gNB,
UPF, ping server — over one duplexing scheme, and offers the experiment
entry points the benchmarks use:

- :meth:`RanSystem.run_downlink` / :meth:`RanSystem.run_uplink` — the
  one-way latency measurements of Fig 6 (uniform arrivals, per-packet
  latency + budget decomposition);
- :meth:`RanSystem.run_ping` — the full ping round trip of Fig 3.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.faults.injectors import FaultHarness, StalledRadioHead
from repro.faults.plan import FaultPlan
from repro.mac.harq import HarqFeedbackModel, HarqProcessPool
from repro.mac.opportunities import Window
from repro.mac.pdcch import PdcchModel
from repro.mac.scheduler import UlGrant
from repro.mac.scheme import DuplexingScheme
from repro.mac.types import AccessMode, Direction
from repro.net.core_network import PingServer, Upf
from repro.net.gnb import Gnb
from repro.net.link import AirLink
from repro.net.probes import LatencyProbe
from repro.net.ue import Ue
from repro.phy.channel import Channel
from repro.phy.ofdm import Carrier
from repro.phy.timebase import tc_from_us
from repro.radio.radio_head import RadioHead
from repro.sim.distributions import DelaySampler
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource
from repro.sim.rng import RngRegistry
from repro.sim.slotted import SlottedUplink, ineligibility
from repro.sim.trace import Tracer
from repro.stack.packets import LatencySource, Packet, PacketKind
from repro import calibration

__all__ = ["RanConfig", "PingResult", "RanSystem"]


@dataclass
class RanConfig:
    """Knobs for one simulated deployment."""

    bandwidth_mhz: int = 20
    access: AccessMode = AccessMode.GRANT_FREE
    n_ues: int = 1
    payload_bytes: int = 32
    mcs_index: int = 16
    seed: int = 1
    gnb_radio_head: RadioHead | None = None
    ue_radio_head: RadioHead | None = None
    channel: Channel | None = None
    margin_tc: int | None = None
    trace: bool = False
    ue_processing_scale: float | None = None
    gnb_processing_scale: float = 1.0
    sr_period_tc: int = 0   #: PUCCH SR periodicity (0 = any UL instant)
    sr_offset_tc: int = 0
    #: Cores for the gNB stack; None = uncontended processing.  With a
    #: finite count, layer work queues behind the cores and effective
    #: processing grows with load (§7's multi-UE caveat).
    gnb_cpu_cores: int | None = None
    #: DL scheduling priority per UE id (lower = served first; absent
    #: UEs default to 0).  Used to protect URLLC traffic from eMBB.
    ue_priorities: dict[int, int] | None = None
    #: HARQ processes per direction (TS 38.321 allows up to 16).  With
    #: feedback-timed HARQ a retransmission waits for the NACK to come
    #: back over the opposite timeline; set ``harq_feedback=False`` for
    #: the older idealised next-window retransmission.
    harq_processes: int = 16
    harq_feedback: bool = True
    #: CORESET size per control occasion; None = unlimited control
    #: capacity.  Small values expose PDCCH blocking at scale (§9).
    pdcch_cces: int | None = None
    #: DCI aggregation level (URLLC uses 8-16 for control reliability).
    aggregation_level: int = 8
    #: Deterministic fault schedule (repro.faults); None or an empty
    #: plan leaves every layer untouched — bit-identical to the
    #: fault-free build.  See docs/ROBUSTNESS.md.
    fault_plan: FaultPlan | None = None
    #: Execution engine: "scalar" always builds per-UE objects,
    #: "slotted" runs the population executor (repro.sim.slotted —
    #: grant-free uplink only, raises for unsupported configs), "auto"
    #: picks slotted when eligible and ``n_ues >= slotted_threshold``.
    #: Both engines are bit-identical (see docs/PERFORMANCE.md).
    engine: str = "auto"
    #: Population size at which "auto" switches to the slotted engine.
    slotted_threshold: int = 256
    #: Fraction of each window's transport block available to one UE's
    #: configured grant.  None keeps the historical default
    #: (1/n_ues for grant-free); large populations set 1.0 to model
    #: dedicated per-UE CG resources (see docs/CAMPAIGNS.md).
    cg_share: float | None = None


@dataclass
class PingResult:
    """One completed ping round trip."""

    request: Packet
    reply: Packet

    @property
    def rtt_tc(self) -> int:
        assert self.reply.delivered_tc is not None
        return self.reply.delivered_tc - self.request.created_tc


class RanSystem:
    """A complete simulated 5G deployment over one duplexing scheme."""

    def __init__(self, scheme: DuplexingScheme,
                 config: RanConfig | None = None):
        self.scheme = scheme
        self.config = config or RanConfig()
        self.sim = Simulator()
        self.tracer = Tracer(enabled=self.config.trace)
        self.rngs = RngRegistry(self.config.seed)
        self.carrier = Carrier(scheme.numerology,
                               self.config.bandwidth_mhz)

        self.dl_probe = LatencyProbe("dl")
        self.ul_probe = LatencyProbe("ul")
        self.ping_results: list[PingResult] = []
        self._pending_pings: dict[int, Packet] = {}
        # Per-system id sequence: packet ids (and therefore traces)
        # depend only on this system's own history, never on other
        # simulations run earlier in the same process.
        self._packet_ids = itertools.count(1)

        # Compile the fault plan (if any) before wiring components so
        # every layer can be handed its injector hook.  All fault draws
        # come from dedicated "fault.*" streams; with no plan every hook
        # below is None and the wiring is exactly the fault-free one.
        self.faults: FaultHarness | None = None
        if self.config.fault_plan:
            self.faults = FaultHarness(self.sim, self.tracer, self.rngs,
                                       self.config.fault_plan)
        gnb_radio_head = self.config.gnb_radio_head
        ue_radio_head = self.config.ue_radio_head
        if self.faults is not None and self.faults.stalls_radio:
            if gnb_radio_head is not None:
                gnb_radio_head = StalledRadioHead(gnb_radio_head,
                                                  self.faults)
            if ue_radio_head is not None:
                ue_radio_head = StalledRadioHead(ue_radio_head,
                                                 self.faults)
        self._gnb_radio_head = gnb_radio_head
        self._ue_radio_head = ue_radio_head

        self.link = AirLink(
            self.sim, self.tracer,
            self.rngs.stream("link"),
            channel=self.config.channel,
            fault_gate=(self.faults.link_fate
                        if self.faults is not None else None))
        self.upf = Upf(
            self.sim, self.tracer, self.rngs.stream("upf"),
            outage=(self.faults.upf_hold_tc
                    if self.faults is not None else None))
        self.server = PingServer(self.sim, self.tracer,
                                 packet_ids=self._packet_ids)

        symbol_tc = scheme.numerology.slot_duration_tc // 14
        self.harq_pool: HarqProcessPool | None = None
        self._dl_feedback: HarqFeedbackModel | None = None
        self._ul_feedback: HarqFeedbackModel | None = None
        if self.config.harq_feedback:
            self.harq_pool = HarqProcessPool(self.config.harq_processes)
            self._dl_feedback = HarqFeedbackModel(scheme,
                                                  feedback_for="dl")
            self._ul_feedback = HarqFeedbackModel(scheme,
                                                  feedback_for="ul")
        self.gnb_cpu = None
        if self.config.gnb_cpu_cores is not None:
            self.gnb_cpu = CpuResource(self.sim,
                                       self.config.gnb_cpu_cores,
                                       name="gnb-cpu")
        self.pdcch: PdcchModel | None = None
        if self.config.pdcch_cces is not None:
            self.pdcch = PdcchModel(n_cces=self.config.pdcch_cces)
        self.gnb = Gnb(
            self.sim, self.tracer, scheme, self.carrier,
            self.rngs.stream("gnb"),
            radio_head=self._gnb_radio_head,
            cpu=self.gnb_cpu,
            layer_delays=calibration.gnb_layer_delays(
                self.config.gnb_processing_scale),
            mcs_index=self.config.mcs_index,
            margin_tc=self.config.margin_tc,
            grant_air_time_tc=symbol_tc,
            ue_grant_turnaround_tc=self._ue_turnaround_tc(),
            on_ul_delivered=self._ul_at_gnb_top,
            on_dl_transmission=self._dl_over_air,
            on_ul_grant=self._grant_over_air,
            harq_pool=self.harq_pool,
            pdcch=self.pdcch,
            aggregation_level=self.config.aggregation_level,
            processing_dilation=(self.faults.processing_dilation
                                 if self.faults is not None else None),
            rlc_fault_gate=(self.faults.rlc_drop
                            if self.faults is not None else None),
        )
        # Configured-grant share (grant-free): historical default splits
        # the transport block evenly; config.cg_share overrides it (1.0
        # models dedicated per-UE CG resources at scale).  Resolved once
        # so the scalar and slotted engines use the identical value.
        grant_free = self.config.access is AccessMode.GRANT_FREE
        if self.config.cg_share is not None:
            self.cg_share = self.config.cg_share
        elif grant_free:
            self.cg_share = 1.0 / self.config.n_ues
        else:
            self.cg_share = 1.0

        self.slotted: SlottedUplink | None = None
        self.ues: dict[int, Ue] = {}
        if self._use_slotted():
            # Population mode: no per-UE objects at all — the mirror
            # executor owns the ue<N> streams and the UL probe.
            self.slotted = SlottedUplink(self)
            self.ul_probe = self.slotted.probe
        else:
            # Samplers are immutable and every UE draws from its own
            # stream, so one calibrated set serves all UEs.
            tx_delays, rx_delays = self._ue_tx_delays(), self._ue_rx_delays()
            for ue_id in range(1, self.config.n_ues + 1):
                self._build_ue(ue_id, tx_delays, rx_delays)
        self.gnb.start()

    def _use_slotted(self) -> bool:
        engine = self.config.engine
        if engine not in ("auto", "scalar", "slotted"):
            raise ValueError(
                f"engine must be 'auto', 'scalar' or 'slotted', "
                f"got {engine!r}")
        if engine == "scalar":
            return False
        if engine == "slotted":
            return True  # SlottedUplink raises if the config is out
        return (self.config.n_ues >= self.config.slotted_threshold
                and ineligibility(self) is None)

    @property
    def engine_mode(self) -> str:
        """Engine actually running: "slotted" or "scalar"."""
        return "slotted" if self.slotted is not None else "scalar"

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def _ue_tx_delays(self):
        scale = self.config.ue_processing_scale
        if scale is None:
            return calibration.ue_tx_layer_delays()
        return calibration.ue_tx_layer_delays(scale)

    def _ue_rx_delays(self):
        scale = self.config.ue_processing_scale
        if scale is None:
            return calibration.ue_rx_layer_delays()
        return calibration.ue_rx_layer_delays(scale)

    def _ue_turnaround_tc(self) -> int:
        """Time the scheduler must leave between grant delivery and the
        granted window so the UE can make it (§4's margin, UE side)."""
        phy_us = self._ue_tx_delays()["PHY"].mean_us
        radio_us = 0.0
        if self.config.ue_radio_head is not None:
            radio_us = self.config.ue_radio_head.mean_one_way_us(
                self.carrier.samples_per_slot())
        return tc_from_us(2.0 * (phy_us + radio_us))

    def _build_ue(self, ue_id: int, tx_delays: dict[str, DelaySampler],
                  rx_delays: dict[str, DelaySampler]) -> None:
        grant_free = self.config.access is AccessMode.GRANT_FREE
        priority = (self.config.ue_priorities or {}).get(ue_id, 0)
        self.gnb.register_ue(ue_id, grant_free, self.cg_share,
                             priority=priority)
        radio_submission = None
        if self._ue_radio_head is not None:
            radio_submission = self._ue_radio_head.tx_latency_us
        ue = Ue(
            self.sim, self.tracer, ue_id, self.scheme, self.carrier,
            self.rngs.stream(f"ue{ue_id}"),
            access=self.config.access,
            tx_layer_delays=tx_delays,
            rx_layer_delays=rx_delays,
            radio_submission_us=radio_submission,
            sr_period_tc=self.config.sr_period_tc,
            sr_offset_tc=self.config.sr_offset_tc,
            cg_capacity_bytes=(
                lambda window, uid=ue_id:
                self.gnb.scheduler.cg_capacity_bytes(uid, window)),
            on_ul_block=self._ul_over_air,
            on_sr=self._sr_over_air,
            on_delivered=self._dl_at_ue_app,
            rlc_fault_gate=(self.faults.rlc_drop
                            if self.faults is not None else None),
        )
        self.ues[ue_id] = ue

    # ------------------------------------------------------------------
    # air crossings
    # ------------------------------------------------------------------
    def _dl_over_air(self, window: Window, packets: list[Packet]) -> None:
        completion = self.sim.now
        release_event = None
        if self.harq_pool is not None and self._dl_feedback is not None:
            # The process frees once the ACK/NACK makes it back over
            # the UL timeline (k1 + PUCCH occasion + decode).
            release_at = self._dl_feedback.feedback_time(completion)
            release_event = self.sim.schedule(release_at,
                                              self.harq_pool.release)
        by_ue: dict[int, list[Packet]] = {}
        for packet in packets:
            by_ue.setdefault(packet.ue_id, []).append(packet)
        saw_dtx = False
        for ue_id, block in by_ue.items():
            self.link.transmit(
                block, completion,
                deliver=self.ues[ue_id].receive_dl_block,
                retransmit=lambda pkts, c=completion:
                    self._dl_nack(pkts, c),
            )
            saw_dtx = saw_dtx or self.link.last_fault_fate == "dtx"
        if saw_dtx and release_event is not None:
            # Injected DTX: the feedback never arrives, so the process
            # is only freed at the DTX detection timeout.
            release_event.cancel()
            self.sim.schedule(
                self._dl_feedback.dtx_detection_time(completion),
                self.harq_pool.release)
            self.harq_pool.record_dtx()

    def _dl_nack(self, packets: list[Packet], completion: int) -> None:
        """A DL block failed: retransmission waits for the NACK (or,
        for an injected DTX, for the detection timeout)."""
        if self._dl_feedback is None:
            self.gnb.scheduler.requeue_dl(packets)
            return
        if self.link.last_fault_fate == "dtx":
            feedback_at = self._dl_feedback.dtx_detection_time(completion)
        else:
            feedback_at = self._dl_feedback.feedback_time(completion)
        for packet in packets:
            # Awaiting feedback is protocol-imposed waiting.
            packet.charge(LatencySource.PROTOCOL,
                          feedback_at - completion)
        self.sim.schedule(feedback_at, self.gnb.scheduler.requeue_dl,
                          packets)

    def _ul_over_air(self, ue_id: int, window: Window,
                     packets: list[Packet]) -> None:
        completion = self.sim.now
        if self.config.access is AccessMode.GRANT_FREE:
            used = sum(p.wire_bytes for p in packets)
            self.gnb.scheduler.account_cg_window(ue_id, window, used)
        self.link.transmit(
            packets, completion,
            deliver=lambda block: self.gnb.receive_ul_block(
                ue_id, window, block),
            retransmit=lambda pkts, c=completion:
                self._ul_nack(ue_id, pkts, c),
        )

    def _ul_nack(self, ue_id: int, packets: list[Packet],
                 completion: int) -> None:
        """A UL block failed: the UE learns via DL feedback."""
        if self._ul_feedback is None:
            self.ues[ue_id].retransmit_uplink(packets)
            return
        if self.link.last_fault_fate == "dtx":
            feedback_at = self._ul_feedback.dtx_detection_time(completion)
        else:
            feedback_at = self._ul_feedback.feedback_time(completion)
        for packet in packets:
            packet.charge(LatencySource.PROTOCOL,
                          feedback_at - completion)
        self.sim.schedule(feedback_at,
                          self.ues[ue_id].retransmit_uplink, packets)

    def _sr_over_air(self, ue_id: int, bsr_bytes: int) -> None:
        self.gnb.receive_sr(ue_id, bsr_bytes)

    def _grant_over_air(self, grant: UlGrant) -> None:
        """PDCCH carrying the grant reaches the UE after its air time."""
        air_tc = self.gnb.scheduler.grant_air_time_tc
        self.sim.call_in(air_tc, self.ues[grant.ue_id].receive_grant,
                         grant)

    # ------------------------------------------------------------------
    # delivery sinks
    # ------------------------------------------------------------------
    def _dl_at_ue_app(self, packet: Packet) -> None:
        if packet.kind is PacketKind.PING_REPLY:
            # close the ping round trip
            request = self._pending_pings.pop(packet.related_id, None)
            if request is not None:
                self.ping_results.append(PingResult(request, packet))
        self.dl_probe.record(packet)

    def _ul_at_gnb_top(self, packet: Packet) -> None:
        self.upf.forward_uplink(packet, self._ul_at_destination)

    def _ul_at_destination(self, packet: Packet) -> None:
        packet.mark_delivered(self.sim.now)
        self.ul_probe.record(packet)
        if packet.kind is PacketKind.PING_REQUEST:
            self._pending_pings[packet.packet_id] = packet
            self.server.respond(packet, self._send_ping_reply)

    def _send_ping_reply(self, reply: Packet) -> None:
        self.upf.forward_downlink(reply, self.gnb.send_downlink)

    # ------------------------------------------------------------------
    # experiments
    # ------------------------------------------------------------------
    def _dl_arrival(self, packet: Packet) -> None:
        """DL arrival dispatch (bound method, shared across packets —
        no per-packet closure allocation on the hot queueing path)."""
        self.upf.forward_downlink(packet, self.gnb.send_downlink)

    def _ul_arrival(self, packet: Packet) -> None:
        """UL arrival dispatch (bound method, shared across packets)."""
        self.ues[packet.ue_id].send_uplink(packet)

    def queue_downlink(self, arrivals: list[int],
                       payload_bytes: int | None = None,
                       ue_id: int = 1) -> None:
        """Schedule DL data arrivals without running the simulation.

        Arrivals must not lie in the simulated past; queue all traffic
        (possibly for several UEs) before calling :meth:`run`.
        """
        if self.slotted is not None:
            raise RuntimeError(
                "slotted engine is uplink-only; use engine='scalar' "
                "for downlink traffic")
        payload = payload_bytes or self.config.payload_bytes
        for arrival in arrivals:
            packet = Packet(PacketKind.DATA, Direction.DL, payload,
                            created_tc=arrival, ue_id=ue_id,
                            packet_id=next(self._packet_ids))
            self.sim.schedule(arrival, self._dl_arrival, packet)

    def queue_uplink(self, arrivals: list[int],
                     payload_bytes: int | None = None,
                     ue_id: int = 1) -> None:
        """Schedule UL data arrivals without running the simulation."""
        payload = payload_bytes or self.config.payload_bytes
        if self.slotted is not None:
            self.slotted.queue_uplink(arrivals, payload, ue_id)
            return
        for arrival in arrivals:
            packet = Packet(PacketKind.DATA, Direction.UL, payload,
                            created_tc=arrival, ue_id=ue_id,
                            packet_id=next(self._packet_ids))
            self.sim.schedule(arrival, self._ul_arrival, packet)

    def queue_pings(self, arrivals: list[int],
                    payload_bytes: int | None = None,
                    ue_id: int = 1) -> None:
        """Schedule ping requests without running the simulation."""
        if self.slotted is not None:
            raise RuntimeError(
                "slotted engine carries uplink data only; use "
                "engine='scalar' for pings")
        payload = payload_bytes or self.config.payload_bytes
        for arrival in arrivals:
            packet = Packet(PacketKind.PING_REQUEST, Direction.UL,
                            payload, created_tc=arrival, ue_id=ue_id,
                            packet_id=next(self._packet_ids))
            self.sim.schedule(arrival, self._ul_arrival, packet)

    def run(self) -> None:
        """Drain the simulation until all queued traffic completes."""
        if self.slotted is not None:
            self.slotted.run()
            return
        self.sim.run_until_idle()

    def run_downlink(self, arrivals: list[int],
                     payload_bytes: int | None = None,
                     ue_id: int = 1) -> LatencyProbe:
        """One-way DL latency experiment (Fig 6, 'Downlink')."""
        self.queue_downlink(arrivals, payload_bytes, ue_id)
        self.run()
        return self.dl_probe

    def run_uplink(self, arrivals: list[int],
                   payload_bytes: int | None = None,
                   ue_id: int = 1) -> LatencyProbe:
        """One-way UL latency experiment (Fig 6, 'Uplink')."""
        self.queue_uplink(arrivals, payload_bytes, ue_id)
        self.run()
        return self.ul_probe

    def run_ping(self, arrivals: list[int],
                 payload_bytes: int | None = None,
                 ue_id: int = 1) -> list[PingResult]:
        """Full ping round trips (the §3 journey)."""
        self.queue_pings(arrivals, payload_bytes, ue_id)
        self.run()
        return self.ping_results
