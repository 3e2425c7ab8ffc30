"""Air link between gNB and UE: channel fate + propagation.

Each transport block crosses the channel once; the channel model
decides whether it decodes (HARQ retransmission otherwise) and the
propagation delay is charged to the radio budget (it is sub-µs at URLLC
cell sizes but the decomposition stays complete).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.phy.channel import Channel, PerfectChannel, propagation_delay_tc
from repro.sim.engine import Simulator
from repro.sim.sampling import UniformBuffer
from repro.sim.trace import Tracer
from repro.stack.packets import LatencySource, Packet

__all__ = ["LinkCounters", "AirLink"]


@dataclass
class LinkCounters:
    """Channel-level counters."""

    blocks_sent: int = 0
    blocks_failed: int = 0
    packets_dropped: int = 0

    def block_error_rate(self) -> float:
        if self.blocks_sent == 0:
            return 0.0
        return self.blocks_failed / self.blocks_sent


class AirLink:
    """One UE↔gNB radio link."""

    def __init__(self, sim: Simulator, tracer: Tracer,
                 rng: np.random.Generator,
                 channel: Channel | None = None,
                 distance_m: float = 100.0,
                 max_harq_retransmissions: int = 4,
                 fault_gate: Callable[[int], str | None] | None = None):
        self.sim = sim
        self.tracer = tracer
        self.rng = rng
        self.channel = channel or PerfectChannel()
        self.propagation_tc = propagation_delay_tc(distance_m)
        self.max_harq = max_harq_retransmissions
        self.counters = LinkCounters()
        # Fault-injection hook (repro.faults): consulted per block and
        # may force a "nack" or "dtx" fate before the channel draws.
        self.fault_gate = fault_gate
        #: Fate the gate forced for the most recent transmit() call —
        #: "nack", "dtx", or None.  The session's NACK handlers read it
        #: synchronously to pick the matching feedback timing.
        self.last_fault_fate: str | None = None
        # Channels that consume exactly one uniform per block
        # (delivered_from_uniform) get their draws from a pre-filled
        # block; the link owns its registry stream, so the buffered and
        # scalar paths consume the identical bit-stream (see
        # docs/PERFORMANCE.md).  Stateful channels keep the scalar path.
        self._uniforms: UniformBuffer | None = None
        if hasattr(self.channel, "delivered_from_uniform"):
            self._uniforms = UniformBuffer(rng)

    def decide_fate(self, completion_tc: int) -> bool:
        """Channel fate of one transport block finishing at
        ``completion_tc``: counts the block, consults the fault gate,
        then (fault-free only) draws the channel.

        Shared by :meth:`transmit` and the slotted engine's mirrored
        uplink path (:mod:`repro.sim.slotted`), so both consume the
        link stream identically.  ``last_fault_fate`` is left set for
        the caller's feedback-timing decision.
        """
        self.counters.blocks_sent += 1
        # A forced fault fate replaces the channel draw entirely (the
        # block is lost regardless of channel state, so consuming a
        # channel uniform for it would be wasted entropy).
        self.last_fault_fate = (None if self.fault_gate is None
                                else self.fault_gate(completion_tc))
        if self.last_fault_fate is not None:
            return False
        if self._uniforms is not None:
            return self.channel.delivered_from_uniform(
                self._uniforms.next())
        # A link with a UniformBuffer never reaches this line; the
        # sanitizer's claim check raises if a buffered stream does.
        return self.channel.delivered(completion_tc, self.rng)

    def transmit(self, packets: list[Packet], completion_tc: int,
                 deliver: Callable[[list[Packet]], None],
                 retransmit: Callable[[list[Packet]], None]) -> None:
        """Decide the fate of one transport block finishing at
        ``completion_tc`` (== now, when called at window end).

        On success ``deliver`` runs after the propagation delay; on
        failure packets go back through ``retransmit`` unless they have
        exhausted their HARQ budget, in which case they are dropped.
        """
        delivered = self.decide_fate(completion_tc)
        if delivered:
            for packet in packets:
                packet.charge(LatencySource.RADIO, self.propagation_tc)
            self.sim.schedule(completion_tc + self.propagation_tc,
                              deliver, packets)
            return
        self.counters.blocks_failed += 1
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(completion_tc, "link", "block_failed",
                             packets=len(packets))
        survivors: list[Packet] = []
        for packet in packets:
            if packet.harq_retransmissions >= self.max_harq:
                packet.mark_dropped("harq-exhausted")
                self.counters.packets_dropped += 1
            else:
                packet.harq_retransmissions += 1
                survivors.append(packet)
        if survivors:
            retransmit(survivors)
