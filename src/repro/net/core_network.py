"""Mobile core: the User Plane Function and a ping responder.

The gNB encapsulates uplink user data into GTP-U and forwards it to the
UPF, which decapsulates and routes it onward (Fig 2); the reverse
happens for downlink.  The core is not the paper's focus (§9 leaves
URLLC-aware core design open), so it is modelled as a processing delay
plus header accounting — enough for the end-to-end journey to include
the hop without bottlenecking on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from repro.sim.distributions import DelaySampler, from_mean_std
from repro.sim.engine import Simulator
from repro.sim.sampling import BufferedSampler

__all__ = ["DEFAULT_UPF_DELAY_US", "Upf", "PingServer"]

if TYPE_CHECKING:
    from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer
from repro.stack.packets import LatencySource, Packet, PacketKind
from repro.mac.types import Direction
from repro.phy.timebase import tc_from_us

#: Default UPF processing time (µs): GTP-U encap/decap plus forwarding
#: on a software UPF.
DEFAULT_UPF_DELAY_US: tuple[float, float] = (12.0, 4.0)


class Upf:
    """User Plane Function: GTP-U tunnel endpoint.

    With a :class:`~repro.sim.resources.CpuResource`, forwarding work
    queues behind the core's other traffic — the §9 question of whether
    URLLC needs "a dedicated [core] for URLLC packets and another for
    other services like eMBB" reduces to whether that contention is
    tolerable.
    """

    def __init__(self, sim: Simulator, tracer: Tracer,
                 rng: np.random.Generator,
                 delay: DelaySampler | None = None,
                 cpu: "CpuResource | None" = None,
                 outage: Callable[[], int] | None = None):
        self.sim = sim
        self.tracer = tracer
        self.rng = rng
        # Fault-injection hook (repro.faults): extra hold in Tc for a
        # packet entering the UPF during a core outage window.
        self.outage = outage
        # The UPF is the sole consumer of its registry stream ("upf" in
        # RanSystem), so its per-packet draws may be served from
        # pre-drawn blocks without changing the bit-stream (see
        # docs/PERFORMANCE.md for the ownership rule).
        self.delay = BufferedSampler(
            delay or from_mean_std(*DEFAULT_UPF_DELAY_US), rng)
        self.cpu = cpu

    def forward_uplink(self, packet: Packet,
                       deliver: Callable[[Packet], None]) -> None:
        """Decapsulate an uplink GTP-U packet and hand it onward."""
        self._process(packet, "ul_forward", deliver)

    def forward_downlink(self, packet: Packet,
                         deliver: Callable[[Packet], None]) -> None:
        """Encapsulate a downlink packet toward the gNB."""
        packet.add_header("GTP-U")
        self._process(packet, "dl_forward", deliver)

    def _process(self, packet: Packet, event: str,
                 deliver: Callable[[Packet], None]) -> None:
        delay_tc = tc_from_us(self.delay.sample(self.rng))
        if self.outage is not None:
            delay_tc += self.outage()
        submitted = self.sim.now
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(submitted, "upf", event,
                             packet_id=packet.packet_id)
        run = self.sim.call_in if self.cpu is None else self.cpu.execute
        run(delay_tc, self._done, packet, submitted, deliver)

    def _done(self, packet: Packet, submitted: int,
              deliver: Callable[[Packet], None]) -> None:
        packet.charge(LatencySource.PROCESSING, self.sim.now - submitted)
        deliver(packet)


class PingServer:
    """Destination host that reflects ping requests (Fig 2's far end).

    ``packet_ids`` is the owning system's packet-id sequence; replies
    draw from it so ids stay deterministic per simulation rather than
    per process.
    """

    def __init__(self, sim: Simulator, tracer: Tracer,
                 turnaround_us: float = 20.0,
                 packet_ids: Iterator[int] | None = None):
        if turnaround_us < 0:
            raise ValueError("turnaround must be >= 0")
        self.sim = sim
        self.tracer = tracer
        self.turnaround_tc = tc_from_us(turnaround_us)
        self._packet_ids = packet_ids

    def respond(self, request: Packet,
                send_reply: Callable[[Packet], None]) -> None:
        """Generate the ping reply for a received request."""
        if request.kind is not PacketKind.PING_REQUEST:
            raise ValueError(f"cannot respond to {request.kind}")
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "server", "request_received",
                             packet_id=request.packet_id)

        self.sim.call_in(self.turnaround_tc, self._reply, request,
                         send_reply)

    def _reply(self, request: Packet,
               send_reply: Callable[[Packet], None]) -> None:
        extra = ({} if self._packet_ids is None
                 else {"packet_id": next(self._packet_ids)})
        response = Packet(
            kind=PacketKind.PING_REPLY,
            direction=Direction.DL,
            payload_bytes=request.payload_bytes,
            created_tc=self.sim.now,
            ue_id=request.ue_id,
            related_id=request.packet_id,
            **extra,
        )
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "server", "reply_sent",
                             packet_id=response.packet_id,
                             request_id=request.packet_id)
        send_reply(response)
