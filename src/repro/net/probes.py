"""Latency probes: record delivered packets as columns and summarise them."""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.stack.packets import LatencySource, Packet
from repro.phy.timebase import us_from_tc

__all__ = ["LatencySummary", "summarize_us", "LatencyProbe"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics over one set of latency samples (µs)."""

    count: int
    mean_us: float
    std_us: float
    min_us: float
    p50_us: float
    p99_us: float
    p999_us: float
    max_us: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean_us:.1f} "
                f"std={self.std_us:.1f} p50={self.p50_us:.1f} "
                f"p99={self.p99_us:.1f} max={self.max_us:.1f} (µs)")


def summarize_us(samples_us: list[float]) -> LatencySummary:
    """Build a :class:`LatencySummary` from raw µs samples."""
    if not samples_us:
        raise ValueError("no samples to summarise")
    array = np.asarray(samples_us, dtype=float)
    return LatencySummary(
        count=len(samples_us),
        mean_us=float(array.mean()),
        std_us=float(array.std(ddof=1)) if len(samples_us) > 1 else 0.0,
        min_us=float(array.min()),
        p50_us=float(np.quantile(array, 0.50)),
        p99_us=float(np.quantile(array, 0.99)),
        p999_us=float(np.quantile(array, 0.999)),
        max_us=float(array.max()),
    )


class LatencyProbe:
    """Delivered packets of one measurement direction, as columns.

    Seven ``array('q')`` columns in delivery order, one entry per
    delivered packet: ``latency_tc``, the three §4 source totals
    ``processing_tc``/``protocol_tc``/``radio_tc``, ``harq_retx``,
    ``ue_id`` and ``packet_id``.  The scalar engine fills them through
    :meth:`record`; the slotted engine appends to them directly.  No
    :class:`Packet` is kept, and every float the read API returns comes
    from exact integer columns through ``us_from_tc``.
    """

    def __init__(self, name: str = "probe"):
        self.name = name
        self.latency_tc = array("q")
        self.processing_tc = array("q")
        self.protocol_tc = array("q")
        self.radio_tc = array("q")
        self.harq_retx = array("q")
        self.ue_id = array("q")
        self.packet_id = array("q")

    def record(self, packet: Packet) -> None:
        if packet.delivered_tc is None:
            raise ValueError(
                f"packet {packet.packet_id} recorded before delivery")
        budget = packet.budget
        self.latency_tc.append(packet.delivered_tc - packet.created_tc)
        self.processing_tc.append(budget[LatencySource.PROCESSING])
        self.protocol_tc.append(budget[LatencySource.PROTOCOL])
        self.radio_tc.append(budget[LatencySource.RADIO])
        self.harq_retx.append(packet.harq_retransmissions)
        self.ue_id.append(packet.ue_id)
        self.packet_id.append(packet.packet_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.latency_tc)

    def latencies_tc(self) -> list[int]:
        return self.latency_tc.tolist()

    def latencies_us(self) -> list[float]:
        return [us_from_tc(lat) for lat in self.latency_tc]

    def latencies_ms(self) -> list[float]:
        return [lat / 1000.0 for lat in self.latencies_us()]

    def summary(self) -> LatencySummary:
        return summarize_us(self.latencies_us())

    def budget_means_us(self) -> dict[str, float]:
        """Mean per-source latency decomposition (§4's three sources)."""
        count = len(self.latency_tc)
        if not count:
            return {source.value: 0.0 for source in LatencySource}
        return {source.value: us_from_tc(sum(column) / count)
                for source, column in (
                    (LatencySource.PROCESSING, self.processing_tc),
                    (LatencySource.PROTOCOL, self.protocol_tc),
                    (LatencySource.RADIO, self.radio_tc))}

    def fraction_within(self, budget_us: float) -> float:
        """Fraction of packets delivered within a latency budget —
        the reliability metric of §6."""
        if not self.latency_tc:
            return 0.0
        within = sum(1 for lat in self.latencies_us() if lat <= budget_us)
        return within / len(self.latency_tc)
