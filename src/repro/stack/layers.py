"""Protocol-layer processing pipeline.

Each :class:`ProcessingLayer` models one layer of the 5G stack as a
stochastic processing delay (calibrated per :mod:`repro.calibration`)
plus optional header overhead.  Layers chain into a
:class:`LayerPipeline`; packets flow through asynchronously on the
simulator, so concurrent packets interleave naturally.

Processing time is charged to the ``PROCESSING`` budget category and
recorded per layer, which is how the Table 2 reproduction measures what
each layer cost.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["ProcessingLayer", "LayerPipeline"]

from repro.sim.distributions import DelaySampler
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer
from repro.stack.packets import HEADER_BYTES, LatencySource, Packet
from repro.phy.timebase import tc_from_us


class ProcessingLayer:
    """One stack layer: sampled processing delay + header accounting."""

    def __init__(self, sim: Simulator, tracer: Tracer, name: str,
                 category: str, delay: DelaySampler,
                 rng: np.random.Generator,
                 adds_header: bool = False,
                 cpu: CpuResource | None = None,
                 dilation: Callable[[str], float] | None = None):
        if adds_header and name not in HEADER_BYTES:
            raise ValueError(f"no header size known for layer {name!r}")
        self.sim = sim
        self.tracer = tracer
        self.name = name
        self.category = category
        self.delay = delay
        self.rng = rng
        self.header_bytes = HEADER_BYTES[name] if adds_header else 0
        self.cpu = cpu
        # Fault hook (repro.faults): delay factor >= 1 during overload.
        self.dilation = dilation
        self.samples_us: list[float] = []
        self._enter_key = f"{category}.enter"
        self._exit_key = f"{category}.exit"

    def process(self, packet: Packet, on_done: Callable[..., None],
                *args: Any) -> None:
        """Process the packet, then call ``on_done(packet, *args)``.

        With a shared :class:`~repro.sim.resources.CpuResource` the
        intrinsic delay is a CPU job: contention queueing inflates the
        observed processing time (§7's multi-UE caveat).
        """
        delay_us = self.delay.sample(self.rng)
        if self.dilation is not None:
            delay_us = delay_us * self.dilation(self.category)
        delay_tc = tc_from_us(delay_us)
        self.samples_us.append(delay_us)
        submitted = self.sim.now
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(submitted, self.category, "enter",
                             packet_id=packet.packet_id, layer=self.name)
        packet.stamp(self._enter_key, submitted)
        # One event per hop, no closure (docs/PERFORMANCE.md "Layer transit")
        run = self.sim.call_in if self.cpu is None else self.cpu.execute
        run(delay_tc, self._finish, packet, submitted, delay_us, on_done,
            args)

    def _finish(self, packet: Packet, submitted: int, delay_us: float,
                on_done: Callable[..., None], args: tuple) -> None:
        now = self.sim.now
        packet.charge(LatencySource.PROCESSING, now - submitted)
        packet.stamp(self._exit_key, now)
        packet.header_bytes += self.header_bytes
        if self.tracer.enabled:
            self.tracer.emit(now, self.category, "exit",
                             packet_id=packet.packet_id, layer=self.name,
                             delay_us=delay_us)
        on_done(packet, *args)


class LayerPipeline:
    """A fixed sequence of layers traversed in order."""

    def __init__(self, layers: Sequence[ProcessingLayer]):
        if not layers:
            raise ValueError("pipeline needs at least one layer")
        self.layers = tuple(layers)

    def process(self, packet: Packet,
                on_done: Callable[[Packet], None]) -> None:
        """Send the packet through every layer, then ``on_done``."""
        self._advance(packet, 0, on_done)

    def _advance(self, packet: Packet, index: int, on_done: Callable) -> None:
        # Looks up ``process`` per hop, so instance-attribute wrappers apply.
        if index == len(self.layers):
            on_done(packet)
        else:
            self.layers[index].process(packet, self._advance, index + 1,
                                       on_done)

    def layer(self, name: str) -> ProcessingLayer:
        """Look up a layer by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        known = ", ".join(l.name for l in self.layers)
        raise KeyError(f"no layer {name!r} in pipeline ({known})")

    def mean_total_us(self) -> float:
        """Sum of the layers' configured mean delays — the value the MAC
        scheduling margin must cover (§4 interdependency)."""
        return sum(layer.delay.mean_us for layer in self.layers)
