"""Packet model with journey bookkeeping.

A :class:`Packet` travels the Fig 2 path (APP → SDAP → PDCP → RLC → MAC
→ PHY → radio → ... → UPF).  Besides payload and header sizes it carries
two pieces of bookkeeping the analysis needs:

- ``timestamps`` — when the packet first passed each stage the Fig 3
  journey reconstruction (:mod:`repro.core.journey`) reads:
  ``ue.mac.cg_planned``/``ue.mac.granted_tx``, ``gnb.ul.block_rx``, the
  RLC queues' ``.enqueue``/``.dequeue`` and ``ue.phy.block_rx``;
- ``budget`` — Tc charged to each of the paper's three latency sources
  (processing / protocol / radio), so every delivered packet can report
  its own latency decomposition (§4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from repro.mac.types import Direction

__all__ = ["PacketKind", "LatencySource", "HEADER_BYTES", "Packet"]

#: Fallback id source for packets built outside a simulation context
#: (ad-hoc tests, notebooks).  Simulation code must pass ``packet_id``
#: explicitly from a per-system counter — a process-global sequence
#: would make trace digests depend on how many packets earlier runs in
#: the same process created (see docs/ANALYSIS.md, determinism).
_fallback_packet_ids = itertools.count(1)


class PacketKind(Enum):
    """What the packet is, end to end."""

    PING_REQUEST = "ping-request"
    PING_REPLY = "ping-reply"
    DATA = "data"

    # Identity hash (members are singletons with identity equality);
    # avoids hashing the value string on every dict lookup in the
    # per-packet bookkeeping.  See repro.mac.types.Direction.
    __hash__ = object.__hash__


class LatencySource(Enum):
    """The paper's three latency-source categories (§4)."""

    PROCESSING = "processing"
    PROTOCOL = "protocol"
    RADIO = "radio"

    __hash__ = object.__hash__  # identity hash; see PacketKind


#: Header overhead added by each layer (bytes).
HEADER_BYTES: dict[str, int] = {
    "SDAP": 1,
    "PDCP": 3,
    "RLC": 3,
    "MAC": 3,
    "GTP-U": 36,  # GTP-U(8) + outer UDP(8) + outer IPv4(20)
}


@dataclass
class Packet:
    """One user-plane packet and its journey record."""

    kind: PacketKind
    direction: Direction
    payload_bytes: int
    created_tc: int
    ue_id: int = 0
    packet_id: int = field(
        default_factory=lambda: next(_fallback_packet_ids))
    header_bytes: int = 0
    #: First Tc at each journey stage: ``ue.mac.{cg_planned,granted_tx}``,
    #: ``gnb.ul.block_rx``, ``<rlcq>.{enqueue,dequeue}``, ``ue.phy.block_rx``.
    timestamps: dict[str, int] = field(default_factory=dict)
    budget: dict[LatencySource, int] = field(
        default_factory=lambda: {source: 0 for source in LatencySource})
    delivered_tc: int | None = None
    dropped: bool = False
    drop_reason: str | None = None
    harq_retransmissions: int = 0
    related_id: int | None = None  #: e.g. the request a reply answers

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError(
                f"payload must be positive, got {self.payload_bytes}")
        if self.created_tc < 0:
            raise ValueError("creation time must be >= 0")

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def wire_bytes(self) -> int:
        """Payload plus all headers added so far."""
        return self.payload_bytes + self.header_bytes

    @property
    def wire_bits(self) -> int:
        return 8 * self.wire_bytes

    def add_header(self, layer: str) -> None:
        """Account for ``layer``'s header overhead."""
        try:
            self.header_bytes += HEADER_BYTES[layer]
        except KeyError:
            raise ValueError(f"no header size known for layer {layer!r}"
                             ) from None

    # ------------------------------------------------------------------
    # journey bookkeeping
    # ------------------------------------------------------------------
    def stamp(self, stage: str, now: int) -> None:
        """Record the first time the packet passes ``stage``."""
        self.timestamps.setdefault(stage, now)

    def charge(self, source: LatencySource, ticks: int) -> None:
        """Attribute ``ticks`` of delay to a latency source."""
        if ticks < 0:
            raise ValueError(f"cannot charge negative time ({ticks})")
        self.budget[source] += ticks

    def mark_delivered(self, now: int) -> None:
        self.delivered_tc = now

    def mark_dropped(self, reason: str) -> None:
        self.dropped = True
        self.drop_reason = reason

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def latency_tc(self) -> int | None:
        """One-way latency, if delivered."""
        if self.delivered_tc is None:
            return None
        return self.delivered_tc - self.created_tc
