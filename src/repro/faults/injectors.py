"""Compiled fault injectors.

:class:`FaultHarness` compiles a :class:`~repro.faults.plan.FaultPlan`
into per-kind injector hooks that the network components consult at
their natural decision points: the air link asks for a forced HARQ fate,
RLC queues ask whether to drop a PDU, radio heads ask for extra bus
latency, processing layers ask for a dilation factor, and the UPF asks
for an outage hold.

Determinism contract (see docs/ROBUSTNESS.md):

- every stochastic injector draws from its own named registry stream
  (``fault.<kind>.<index>``), so installing a plan never perturbs the
  draws of fault-free components — a plan at intensity 0 is
  bit-identical to no plan at all;
- an injector consumes draws only while its window is open and only at
  deterministic decision points, so the same seed replays the same
  faults serially and in dispatch workers;
- every fired fault emits a trace record under the ``fault`` category,
  making faulted runs diffable by :class:`~repro.sim.trace.Tracer`
  digest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.phy.timebase import tc_from_ms
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer

if TYPE_CHECKING:
    from repro.stack.packets import Packet

__all__ = ["FaultCounters", "FaultHarness", "StalledRadioHead"]


@dataclass
class FaultCounters:
    """Tally of faults that actually fired during a run.

    Exposed through :meth:`as_metrics` so campaign results (and their
    baselines) gate on fault counts bit-for-bit.
    """

    harq_nacks: int = 0
    harq_dtx: int = 0
    rlc_losses: int = 0
    radio_stalls: int = 0
    dilated_jobs: int = 0
    upf_holds: int = 0

    def as_metrics(self) -> dict[str, int]:
        """Flat mapping merged into scenario metrics."""
        return {
            "fault_harq_nacks": self.harq_nacks,
            "fault_harq_dtx": self.harq_dtx,
            "fault_rlc_losses": self.rlc_losses,
            "fault_radio_stalls": self.radio_stalls,
            "fault_dilated_jobs": self.dilated_jobs,
            "fault_upf_holds": self.upf_holds,
        }


class _Injector:
    """One compiled spec: its window in Tc plus its private stream."""

    __slots__ = ("spec", "index", "start_tc", "stop_tc", "rng")

    def __init__(self, spec: FaultSpec, index: int, rngs: RngRegistry):
        self.spec = spec
        self.index = index
        self.start_tc = tc_from_ms(spec.start_ms)
        self.stop_tc = tc_from_ms(spec.stop_ms)
        self.rng = rngs.stream(f"fault.{spec.kind.value}.{index}")

    def active(self, now: int) -> bool:
        return self.start_tc <= now < self.stop_tc

    def fires(self, now: int) -> bool:
        """Consume one draw iff the window is open and p > 0."""
        if not self.active(now) or self.spec.probability <= 0.0:
            return False
        return float(self.rng.random()) < self.spec.probability

    def targets(self, category: str) -> bool:
        target = self.spec.target
        return (not target or category == target
                or category.startswith(target + "."))


class FaultHarness:
    """The per-run fault engine: compiled injectors plus counters."""

    def __init__(self, sim: Simulator, tracer: Tracer, rngs: RngRegistry,
                 plan: FaultPlan):
        self.sim = sim
        self.tracer = tracer
        self.plan = plan
        self.counters = FaultCounters()
        self._link: list[_Injector] = []
        self._rlc: list[_Injector] = []
        self._radio: list[_Injector] = []
        self._overload: list[_Injector] = []
        self._upf: list[_Injector] = []
        buckets = {
            FaultKind.HARQ_NACK: self._link,
            FaultKind.HARQ_DTX: self._link,
            FaultKind.RLC_LOSS: self._rlc,
            FaultKind.RADIO_STALL: self._radio,
            FaultKind.GNB_OVERLOAD: self._overload,
            FaultKind.UPF_OUTAGE: self._upf,
        }
        for index, spec in enumerate(plan.specs):
            buckets[spec.kind].append(_Injector(spec, index, rngs))

    @property
    def stalls_radio(self) -> bool:
        """Whether any spec targets the radio heads (wrap them iff so)."""
        return bool(self._radio)

    def _emit(self, name: str, **fields: Any) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "fault", name, **fields)

    # ------------------------------------------------------------------
    # hooks, one per layer
    # ------------------------------------------------------------------
    def link_fate(self, completion_tc: int) -> str | None:
        """Forced HARQ fate for a block completing at ``completion_tc``.

        Every armed HARQ injector consumes its draw (consumption depends
        only on time, never on other injectors' outcomes); the first
        that fires decides between ``"nack"`` and ``"dtx"``.
        """
        fate: str | None = None
        for injector in self._link:
            if not injector.fires(completion_tc) or fate is not None:
                continue
            if injector.spec.kind is FaultKind.HARQ_DTX:
                fate = "dtx"
                self.counters.harq_dtx += 1
            else:
                fate = "nack"
                self.counters.harq_nacks += 1
            self._emit(f"harq_{fate}", spec=injector.index)
        return fate

    def rlc_drop(self, category: str, packet: "Packet") -> bool:
        """Whether the RLC queue ``category`` loses ``packet`` now."""
        for injector in self._rlc:
            if not injector.targets(category):
                continue
            if injector.fires(self.sim.now):
                self.counters.rlc_losses += 1
                self._emit("rlc_loss", spec=injector.index,
                           queue=category, packet_id=packet.packet_id)
                return True
        return False

    def radio_stall_us(self) -> float:
        """Extra bus latency (µs) to add to a radio-head transfer now."""
        stall_us = 0.0
        for injector in self._radio:
            if injector.fires(self.sim.now):
                stall_us += injector.spec.stall_us
                self.counters.radio_stalls += 1
                self._emit("radio_stall", spec=injector.index,
                           stall_us=injector.spec.stall_us)
        return stall_us

    def processing_dilation(self, category: str) -> float:
        """Multiplier for a processing-layer delay sampled now (>= 1)."""
        factor = 1.0
        now = self.sim.now
        for injector in self._overload:
            if injector.active(now) and injector.targets(category):
                factor *= injector.spec.factor
        if factor != 1.0:
            self.counters.dilated_jobs += 1
            self._emit("gnb_overload", layer=category, factor=factor)
        return factor

    def upf_hold_tc(self) -> int:
        """Extra hold (Tc) for a packet entering the UPF now.

        A firing outage holds the packet until its window closes,
        modelling a core-network blackout rather than mere slowness.
        """
        hold_tc = 0
        now = self.sim.now
        for injector in self._upf:
            if injector.fires(now):
                hold_tc = max(hold_tc, injector.stop_tc - now)
        if hold_tc:
            self.counters.upf_holds += 1
            self._emit("upf_outage", hold_tc=hold_tc)
        return hold_tc


class StalledRadioHead:
    """Delegating radio-head wrapper that adds fault bus stalls.

    Only the sampled transfer latencies are touched; the planning-side
    methods (``mean_one_way_us``, ``required_margin_tc``...) delegate to
    the wrapped head so scheduling margins stay those of the healthy
    hardware — a stall is an unplanned spike, exactly like Fig 5's USB
    jitter.
    """

    def __init__(self, inner: Any, harness: FaultHarness):
        self._inner = inner
        self._harness = harness

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def tx_latency_us(self, n_samples: int, rng: Any) -> float:
        """Wrapped TX latency plus any stall firing now."""
        return (self._inner.tx_latency_us(n_samples, rng)
                + self._harness.radio_stall_us())

    def rx_latency_us(self, n_samples: int, rng: Any) -> float:
        """Wrapped RX latency plus any stall firing now."""
        return (self._inner.rx_latency_us(n_samples, rng)
                + self._harness.radio_stall_us())
