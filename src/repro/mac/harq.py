"""HARQ: feedback timing and process bookkeeping.

NR HARQ is asynchronous and feedback-driven: after a DL transport block
ends, the UE decodes it, reports ACK/NACK on PUCCH at the first uplink
occasion at least ``k1`` after the PDSCH, and the gNB may only
retransmit once the NACK has been received and decoded.  The
retransmission therefore costs a full feedback round trip, not just
"the next window" — this is what makes each HARQ round cost ~0.5 ms+
on the paper's patterns (the [33] observation of 0.5 ms retransmission
steps) and why §8's Johansson et al. advocate avoiding retransmissions
for URLLC.

Two pieces:

- :class:`HarqFeedbackModel` — maps a transmission's completion time to
  the instant its ACK/NACK is available at the transmitter's MAC, using
  the scheme's opportunity timeline for the PUCCH occasion.
- :class:`HarqProcessPool` — NR allows up to 16 parallel HARQ processes
  per direction; a transmitter with all processes awaiting feedback
  must stall (tracked, it bounds throughput × RTT).
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.mac.opportunities import OpportunityTimeline
from repro.mac.scheme import DuplexingScheme
from repro.phy.numerology import SYMBOLS_PER_SLOT

__all__ = [
    "MAX_HARQ_PROCESSES",
    "HarqTiming",
    "HarqFeedbackModel",
    "HarqProcessPool",
]

#: NR maximum HARQ processes per direction (TS 38.321).
MAX_HARQ_PROCESSES: int = 16


@dataclass(frozen=True)
class HarqTiming:
    """Resolved timing of one feedback round."""

    completion_tc: int   #: last symbol of the data transmission
    pucch_tc: int        #: ACK/NACK leaves the receiver
    feedback_tc: int     #: transmitter MAC knows the outcome

    @property
    def round_trip_tc(self) -> int:
        return self.feedback_tc - self.completion_tc


class HarqFeedbackModel:
    """ACK/NACK timing over a duplexing scheme.

    Args:
        scheme: the duplexing configuration (provides the PUCCH
            opportunities — for DL data the feedback rides the UL
            timeline and vice versa).
        k1_symbols: minimum decode-to-PUCCH gap at the receiver
            (UE capability 1 is ~10 symbols; capability 2 ~5).
        decode_symbols: transmitter-side PUCCH decode time.
        feedback_for: "dl" (feedback on UL timeline) or "ul"
            (feedback on DL timeline — for configured-grant UL the
            gNB's feedback is a DL control message).
        dtx_penalty_symbols: extra wait beyond the nominal feedback
            instant before the transmitter declares DTX (feedback never
            arrived — e.g. the PUCCH itself was lost) and proceeds as if
            NACKed.
    """

    def __init__(self, scheme: DuplexingScheme, k1_symbols: int = 10,
                 decode_symbols: int = 2,
                 feedback_for: str = "dl",
                 dtx_penalty_symbols: int = SYMBOLS_PER_SLOT):
        if k1_symbols < 0 or decode_symbols < 0:
            raise ValueError("symbol counts must be >= 0")
        if dtx_penalty_symbols < 0:
            raise ValueError("dtx_penalty_symbols must be >= 0")
        if feedback_for not in ("dl", "ul"):
            raise ValueError(f"feedback_for must be 'dl' or 'ul', "
                             f"got {feedback_for!r}")
        self.scheme = scheme
        symbol_tc = (scheme.numerology.slot_duration_tc
                     // SYMBOLS_PER_SLOT)
        self.k1_tc = k1_symbols * symbol_tc
        self.decode_tc = decode_symbols * symbol_tc
        self.pucch_tc = symbol_tc  # one-symbol short PUCCH
        self.dtx_penalty_tc = dtx_penalty_symbols * symbol_tc
        self._occasions: OpportunityTimeline = (
            scheme.ul_timeline() if feedback_for == "dl"
            else scheme.dl_timeline())

    def timing(self, completion_tc: int) -> HarqTiming:
        """When the transmitter learns the fate of a block that
        finished at ``completion_tc``."""
        earliest = completion_tc + self.k1_tc
        pucch = self._occasions.earliest_entry_joining(
            earliest, self.pucch_tc)
        feedback = pucch + self.pucch_tc + self.decode_tc
        return HarqTiming(completion_tc, pucch, feedback)

    def feedback_time(self, completion_tc: int) -> int:
        """Shorthand: just the feedback arrival tick."""
        return self.timing(completion_tc).feedback_tc

    def dtx_detection_time(self, completion_tc: int) -> int:
        """When the transmitter gives up waiting for lost feedback.

        Expected feedback instant plus the DTX penalty: the transmitter
        only treats silence as a NACK after the feedback opportunity has
        demonstrably passed, which is what makes injected DTX strictly
        worse than an ordinary NACK."""
        return self.feedback_time(completion_tc) + self.dtx_penalty_tc


class HarqProcessPool:
    """Bounded pool of HARQ processes awaiting feedback."""

    def __init__(self, n_processes: int = MAX_HARQ_PROCESSES):
        if not 1 <= n_processes <= MAX_HARQ_PROCESSES:
            raise ValueError(
                f"n_processes must be in 1..{MAX_HARQ_PROCESSES}, "
                f"got {n_processes}")
        self.n_processes = n_processes
        self._in_flight = 0
        self.stalls = 0
        self.peak_in_flight = 0
        self.dtx_events = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def available(self) -> bool:
        return self._in_flight < self.n_processes

    def acquire(self) -> None:
        """Claim a process; call :meth:`available` first."""
        if not self.available():
            raise RuntimeError("all HARQ processes in flight")
        self._in_flight += 1
        self.peak_in_flight = max(self.peak_in_flight, self._in_flight)

    def release(self) -> None:
        """Feedback arrived (ACK or final NACK): free the process."""
        if self._in_flight == 0:
            raise RuntimeError("release without acquire")
        self._in_flight -= 1

    def record_stall(self) -> None:
        """A transmission opportunity passed unused for lack of a
        process (throughput bounded by processes/RTT)."""
        self.stalls += 1

    def record_dtx(self) -> None:
        """Feedback for an in-flight block never arrived; the process is
        held until the DTX detection timeout instead of the nominal
        feedback instant."""
        self.dtx_events += 1
