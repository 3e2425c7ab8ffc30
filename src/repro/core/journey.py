"""Packet-journey reconstruction (paper §3 / Fig 3).

Rebuilds the temporal breakdown of one ping round trip — the circled
steps ① … ⑪ of Fig 3 — from a traced simulation run.  Steps come from
the packet's own stage timestamps plus the MAC trace records (SR, grant)
that belong to no packet.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.session import PingResult
from repro.sim.trace import Tracer
from repro.phy.timebase import us_from_tc

__all__ = ["JourneyStep", "PingJourney", "reconstruct_ping_journey"]


@dataclass(frozen=True)
class JourneyStep:
    """One step of the Fig 3 breakdown."""

    index: int
    label: str
    start_tc: int
    end_tc: int

    @property
    def duration_us(self) -> float:
        return us_from_tc(self.end_tc - self.start_tc)


@dataclass(frozen=True)
class PingJourney:
    """The full reconstructed journey of one ping."""

    steps: tuple[JourneyStep, ...]
    rtt_tc: int

    @property
    def rtt_us(self) -> float:
        return us_from_tc(self.rtt_tc)

    def step(self, index: int) -> JourneyStep:
        for candidate in self.steps:
            if candidate.index == index:
                return candidate
        raise KeyError(f"no step {index}")

    def render(self) -> str:
        """Text rendering of the Fig 3 timeline."""
        lines = [f"Ping journey: RTT {self.rtt_us:.1f} µs"]
        for step in self.steps:
            bar = "#" * max(1, round(step.duration_us / 50))
            lines.append(
                f"  {step.index:>2} {step.label:<42} "
                f"{step.duration_us:8.1f} µs {bar}")
        return "\n".join(lines)


def _trace_time(tracer: Tracer, category: str, name: str,
                earliest: int, latest: int) -> int | None:
    """First matching trace record inside a time window."""
    for record in tracer.records(category, name):
        if earliest <= record.time <= latest:
            return record.time
    return None


def reconstruct_ping_journey(result: PingResult,
                             tracer: Tracer) -> PingJourney:
    """Rebuild Fig 3's steps for one completed ping.

    Requires the run to have been traced (``RanConfig(trace=True)``)
    and works for both access modes; with grant-free UL the SR/grant
    steps (②-⑤) collapse to zero-length placeholders.
    """
    request, reply = result.request, result.reply
    assert reply.delivered_tc is not None
    t0, t_end = request.created_tc, reply.delivered_tc
    ue = f"ue{request.ue_id}"
    stamps_req = request.timestamps
    stamps_rep = reply.timestamps

    sr_tx = _trace_time(tracer, f"{ue}.mac", "sr_tx", t0, t_end)
    grant_issued = _trace_time(tracer, "gnb.mac", "grant_issued",
                               t0, t_end)
    grant_rx = _trace_time(tracer, f"{ue}.mac", "grant_rx", t0, t_end)
    ul_tx_start = stamps_req.get("ue.mac.granted_tx",
                                 stamps_req.get("ue.mac.cg_planned", t0))
    ul_block_rx = stamps_req["gnb.ul.block_rx"]
    request_done = request.delivered_tc or ul_block_rx

    steps = [JourneyStep(1, "APP↓ processing + wait for UL slot (①)",
                         t0, sr_tx if sr_tx is not None else ul_tx_start)]
    if sr_tx is not None and grant_issued is not None \
            and grant_rx is not None:
        steps.append(JourneyStep(2, "SR transmission (②)",
                                 sr_tx, min(grant_issued, t_end)))
        steps.append(JourneyStep(3, "SR decode + wait for scheduler (③)",
                                 sr_tx, grant_issued))
        steps.append(JourneyStep(4, "grant scheduled (④)",
                                 grant_issued, grant_issued))
        steps.append(JourneyStep(5, "UL grant delivery (⑤)",
                                 grant_issued, grant_rx))
        steps.append(JourneyStep(6, "↑MAC↓: wait + UL data tx (⑥)",
                                 grant_rx, ul_block_rx))
    else:
        steps.append(JourneyStep(6, "grant-free UL data tx (⑥)",
                                 ul_tx_start, ul_block_rx))
    steps.append(JourneyStep(7, "gNB MAC↑ processing to UPF (⑦)",
                             ul_block_rx, request_done))
    dl_enqueue = stamps_rep.get(f"gnb.rlcq.{ue}.enqueue")
    dl_dequeue = stamps_rep.get(f"gnb.rlcq.{ue}.dequeue")
    steps.append(JourneyStep(8, "server + SDAP↓ processing (⑧)",
                             reply.created_tc,
                             dl_enqueue if dl_enqueue is not None
                             else reply.created_tc))
    if dl_enqueue is not None and dl_dequeue is not None:
        steps.append(JourneyStep(9, "RLC queue: wait for scheduling (⑨)",
                                 dl_enqueue, dl_dequeue))
        dl_rx = stamps_rep.get("ue.phy.block_rx", t_end)
        steps.append(JourneyStep(10, "DL data transmission (⑩)",
                                 dl_dequeue, dl_rx))
        steps.append(JourneyStep(11, "UE PHY↑ to APP (⑪)",
                                 dl_rx, t_end))
    return PingJourney(steps=tuple(steps), rtt_tc=t_end - t0)
