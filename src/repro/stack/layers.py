"""Protocol-layer processing pipeline.

Each :class:`ProcessingLayer` models one layer of the 5G stack as a
stochastic processing delay (calibrated per :mod:`repro.calibration`)
plus optional header overhead.  A :class:`LayerPipeline` chains each
layer to the next; packets flow through asynchronously on the
simulator, so concurrent packets interleave naturally.

A layer crossing (a *hop*) is one delay sample, one engine event and
two plain calls.  Its time is charged to ``PROCESSING`` and sampled per
layer, which is how the Table 2 reproduction measures what each layer
cost (docs/PERFORMANCE.md "Layer transit").
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

__all__ = ["ProcessingLayer", "LayerPipeline"]

from repro.sim.distributions import DelaySampler
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer
from repro.stack.packets import HEADER_BYTES, LatencySource, Packet
from repro.phy.timebase import TC_PER_SECOND

_PROCESSING = LatencySource.PROCESSING


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
        self._chained = False  # joined a LayerPipeline (at most one)
        self._next: ProcessingLayer | None = None

    def process(self, packet: Packet,
                on_done: Callable[[Packet], None]) -> None:
        """Process the packet; after the last layer, ``on_done(packet)``.

        With a shared :class:`~repro.sim.resources.CpuResource` the
        intrinsic delay is a CPU job: contention queueing inflates the
        observed processing time (§7's multi-UE caveat).
        """
        delay_us = self.delay.sample(self.rng)
        if self.dilation is not None:
            delay_us = delay_us * self.dilation(self.category)
        if delay_us < 0:
            raise ValueError(f"duration must be >= 0, got {delay_us} us")
        # tc_from_us, inlined: one hop per layer per packet.
        delay_tc = round(delay_us * TC_PER_SECOND / 1_000_000)
        self.samples_us.append(delay_us)
        if self.tracer.enabled:  # lazy fields: skip kwargs when disabled
            self.tracer.emit(self.sim.now, self.category, "enter",
                             packet_id=packet.packet_id, layer=self.name)
        # One event per hop, no closure (docs/PERFORMANCE.md "Layer transit")
        if self.cpu is None:
            self.sim.call_in(delay_tc, self._finish, packet, delay_tc,
                             delay_us, on_done)
        else:  # the wait for a free core is processing time too
            packet.budget[_PROCESSING] += self.cpu.execute(
                delay_tc, self._finish, packet, delay_tc, delay_us, on_done)

    def _finish(self, packet: Packet, delay_tc: int, delay_us: float,
                on_done: Callable[[Packet], None]) -> None:
        packet.budget[_PROCESSING] += delay_tc
        packet.header_bytes += self.header_bytes
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.category, "exit",
                             packet_id=packet.packet_id, layer=self.name,
                             delay_us=delay_us)
        if self._next is None:
            on_done(packet)
        else:  # looked up per hop, so instance-attribute wrappers apply
            self._next.process(packet, on_done)


class LayerPipeline:
    """A fixed sequence of layers traversed in order."""

    def __init__(self, layers: Sequence[ProcessingLayer]):
        if not layers:
            raise ValueError("pipeline needs at least one layer")
        self.layers = tuple(layers)
        for layer, following in zip(self.layers, self.layers[1:] + (None,)):
            if layer._chained:
                raise ValueError(
                    f"layer {layer.name!r} already belongs to a pipeline")
            layer._chained, layer._next = True, following

    def process(self, packet: Packet,
                on_done: Callable[[Packet], None]) -> None:
        """Send the packet through every layer, then ``on_done``."""
        self.layers[0].process(packet, on_done)

    def layer(self, name: str) -> ProcessingLayer:
        """Look up a layer by name."""
        for candidate in self.layers:
            if candidate.name == name:
                return candidate
        known = ", ".join(l.name for l in self.layers)
        raise KeyError(f"no layer {name!r} in pipeline ({known})")
