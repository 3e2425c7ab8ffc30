"""Unit tests for the layer pipeline."""

import gc

import numpy as np
import pytest

from repro.mac.types import Direction
from repro.phy.timebase import tc_from_us
from repro.sim.distributions import Constant, LogNormal
from repro.sim.engine import Simulator
from repro.sim.resources import CpuResource
from repro.sim.trace import Tracer
from repro.stack.layers import LayerPipeline, ProcessingLayer
from repro.stack.packets import LatencySource, Packet, PacketKind


def make_packet():
    return Packet(PacketKind.DATA, Direction.DL, 64, created_tc=0)


def make_layer(sim, tracer, rng, name="PDCP", delay_us=10.0,
               adds_header=False):
    return ProcessingLayer(sim, tracer, name, f"test.{name.lower()}",
                           Constant(delay_us), rng,
                           adds_header=adds_header)


def test_layer_delays_and_charges(rng):
    sim, tracer = Simulator(), Tracer()
    layer = make_layer(sim, tracer, rng, delay_us=25.0)
    done = []
    layer.process(make_packet(), done.append)
    sim.run_until_idle()
    assert sim.now == tc_from_us(25.0)
    packet = done[0]
    assert packet.budget[LatencySource.PROCESSING] == tc_from_us(25.0)
    assert layer.samples_us == [25.0]


def test_layer_traces_enter_and_exit(rng):
    sim, tracer = Simulator(), Tracer()
    layer = make_layer(sim, tracer, rng)
    layer.process(make_packet(), lambda p: None)
    sim.run_until_idle()
    assert tracer.first("test.pdcp", "enter") is not None
    assert tracer.last("test.pdcp", "exit").fields["delay_us"] == 10.0


def test_layer_adds_header_when_configured(rng):
    sim, tracer = Simulator(), Tracer()
    layer = make_layer(sim, tracer, rng, name="PDCP", adds_header=True)
    done = []
    layer.process(make_packet(), done.append)
    sim.run_until_idle()
    assert done[0].header_bytes == 3


def test_pipeline_runs_layers_in_order(rng):
    sim, tracer = Simulator(), Tracer(enabled=True)
    pipeline = LayerPipeline([
        make_layer(sim, tracer, rng, name="SDAP", delay_us=5.0),
        make_layer(sim, tracer, rng, name="PDCP", delay_us=7.0),
        make_layer(sim, tracer, rng, name="RLC", delay_us=9.0),
    ])
    done = []
    packet = make_packet()
    pipeline.process(packet, done.append)
    sim.run_until_idle()
    assert sim.now == tc_from_us(21.0)
    assert done == [packet]
    sdap, pdcp = tc_from_us(5.0), tc_from_us(5.0) + tc_from_us(7.0)
    rlc = pdcp + tc_from_us(9.0)
    assert [(record.time, record.category, record.name,
             record.fields["packet_id"]) for record in tracer] == [
        (0, "test.sdap", "enter", packet.packet_id),
        (sdap, "test.sdap", "exit", packet.packet_id),
        (sdap, "test.pdcp", "enter", packet.packet_id),
        (pdcp, "test.pdcp", "exit", packet.packet_id),
        (pdcp, "test.rlc", "enter", packet.packet_id),
        (rlc, "test.rlc", "exit", packet.packet_id),
    ]


def test_pipeline_lookup(rng):
    sim, tracer = Simulator(), Tracer()
    pipeline = LayerPipeline([make_layer(sim, tracer, rng, name="MAC")])
    assert pipeline.layer("MAC").name == "MAC"
    with pytest.raises(KeyError):
        pipeline.layer("PHY")


def test_empty_pipeline_rejected():
    with pytest.raises(ValueError):
        LayerPipeline([])


def test_concurrent_packets_interleave(rng):
    sim, tracer = Simulator(), Tracer()
    layer = make_layer(sim, tracer, rng, delay_us=10.0)
    done = []
    layer.process(make_packet(), done.append)
    sim.schedule(tc_from_us(3.0), layer.process, make_packet(),
                 done.append)
    sim.run_until_idle()
    assert len(done) == 2
    assert len(layer.samples_us) == 2


def test_header_layer_without_known_size_rejected_at_wiring(rng):
    # Fails when the stack is built, not when the first packet exits
    # the layer deep inside Simulator.run().
    sim, tracer = Simulator(), Tracer()
    with pytest.raises(ValueError, match="no header size"):
        make_layer(sim, tracer, rng, name="FOO", adds_header=True)
    make_layer(sim, tracer, rng, name="FOO")  # no header: accepted


def lognormal_pipeline(sim, tracer, rng):
    return LayerPipeline([
        ProcessingLayer(sim, tracer, name, f"test.{name.lower()}",
                        LogNormal(20.0 + i, 5.0), rng)
        for i, name in enumerate(("SDAP", "PDCP", "RLC", "MAC", "PHY"))])


def test_pipeline_hop_invariants(rng):
    """Per hop of an untraced transit: one engine event and one sample,
    and no stamp; the PROCESSING budget is the sum of the hops' Tc."""
    sim, tracer = Simulator(), Tracer(enabled=False)
    pipeline = lognormal_pipeline(sim, tracer, rng)
    packet = make_packet()
    done = []
    pipeline.process(packet, done.append)
    sim.run_until_idle()

    n_layers = len(pipeline.layers)
    assert done == [packet]
    assert sim.events_processed == n_layers
    assert [len(layer.samples_us) for layer in pipeline.layers] \
        == [1] * n_layers
    assert packet.timestamps == {}
    assert len(tracer) == 0
    hop_tc = [tc_from_us(layer.samples_us[0]) for layer in pipeline.layers]
    assert packet.budget[LatencySource.PROCESSING] == sum(hop_tc)
    assert sim.now == sum(hop_tc)


def test_pipeline_budgets_and_headers_sum_over_overtaking_packets(rng):
    """1000 packets through five lognormal layers overtake each other
    between hops; still one event and one sample per hop, every hop
    charges its own sampled delay, and every header is complete."""
    sim, tracer = Simulator(), Tracer(enabled=False)
    names = ("SDAP", "PDCP", "RLC", "MAC", "PHY")
    pipeline = LayerPipeline([
        ProcessingLayer(sim, tracer, name, f"ue1.{name.lower()}",
                        LogNormal(20.0 + i, 5.0), rng,
                        adds_header=name != "PHY")
        for i, name in enumerate(names)])
    done = []
    for packet_id in range(1, 1_001):
        pipeline.process(Packet(PacketKind.DATA, Direction.UL, 32, 0,
                                packet_id=packet_id), done.append)
    sim.run_until_idle()

    assert len(done) == 1_000
    assert sim.events_processed == len(names) * 1_000
    assert all(len(layer.samples_us) == 1_000
               for layer in pipeline.layers)
    assert sum(packet.budget[LatencySource.PROCESSING]
               for packet in done) == sum(
        tc_from_us(us) for layer in pipeline.layers
        for us in layer.samples_us)
    assert all(packet.header_bytes == 10 for packet in done)


def test_pipeline_draws_once_per_hop(rng):
    sim, tracer = Simulator(), Tracer(enabled=False)
    pipeline = lognormal_pipeline(sim, tracer, rng)
    pipeline.process(make_packet(), lambda p: None)
    sim.run_until_idle()
    replay = np.random.default_rng(12345)  # the rng fixture's seed
    assert [layer.samples_us[0] for layer in pipeline.layers] == [
        layer.delay.sample(replay) for layer in pipeline.layers]


def test_layer_calls_on_done_with_the_packet_only(rng):
    sim, tracer = Simulator(), Tracer()
    layer = make_layer(sim, tracer, rng)
    packet = make_packet()
    done = []
    layer.process(packet, lambda *args: done.append(args))
    sim.run_until_idle()
    assert done == [(packet,)]
    with pytest.raises(TypeError):
        layer.process(make_packet(), done.append, "x", 2)


def test_layer_belongs_to_one_pipeline(rng):
    sim, tracer = Simulator(), Tracer()
    shared = make_layer(sim, tracer, rng, name="RLC")
    LayerPipeline([make_layer(sim, tracer, rng), shared])
    with pytest.raises(ValueError, match="already belongs"):
        LayerPipeline([shared])
    twice = make_layer(sim, tracer, rng, name="MAC")
    with pytest.raises(ValueError, match="already belongs"):
        LayerPipeline([twice, twice])


def test_concurrent_packets_interleave_in_event_order(rng):
    """Two packets in flight through a two-layer pipeline: enter/exit
    order and times follow the engine's (time, FIFO) order."""
    sim, tracer = Simulator(), Tracer()
    pipeline = LayerPipeline([
        make_layer(sim, tracer, rng, name="PDCP", delay_us=10.0),
        make_layer(sim, tracer, rng, name="RLC", delay_us=4.0),
    ])
    first, second, third = make_packet(), make_packet(), make_packet()
    done = []
    pipeline.process(first, done.append)
    sim.schedule(tc_from_us(6.0), pipeline.process, second, done.append)
    sim.schedule(tc_from_us(6.0), pipeline.process, third, done.append)
    sim.run_until_idle()

    ids = {first.packet_id: "a", second.packet_id: "b",
           third.packet_id: "c"}
    order = [(record.time, record.category, record.name,
              ids[record.fields["packet_id"]]) for record in tracer]
    pdcp, rlc, start = tc_from_us(10.0), tc_from_us(4.0), tc_from_us(6.0)
    assert order == [
        (0, "test.pdcp", "enter", "a"),
        (start, "test.pdcp", "enter", "b"),
        (start, "test.pdcp", "enter", "c"),
        (pdcp, "test.pdcp", "exit", "a"),
        (pdcp, "test.rlc", "enter", "a"),
        (pdcp + rlc, "test.rlc", "exit", "a"),
        (start + pdcp, "test.pdcp", "exit", "b"),
        (start + pdcp, "test.rlc", "enter", "b"),
        (start + pdcp, "test.pdcp", "exit", "c"),
        (start + pdcp, "test.rlc", "enter", "c"),
        (start + pdcp + rlc, "test.rlc", "exit", "b"),
        (start + pdcp + rlc, "test.rlc", "exit", "c"),
    ]
    assert done == [first, second, third]
    assert sim.events_processed == 2 * 3 + 2  # hops + the two submits


def test_cpu_contention_queues_hops(rng):
    """Layers sharing one core: a hop that waits for the core charges
    the wait as processing time, still in one event per hop."""
    sim, tracer = Simulator(), Tracer(enabled=True)
    cpu = CpuResource(sim, n_cores=1)
    pipeline = LayerPipeline([
        ProcessingLayer(sim, tracer, name, f"test.{name.lower()}",
                        Constant(10.0), rng, cpu=cpu)
        for name in ("PDCP", "RLC")])
    first, second = make_packet(), make_packet()
    done = []
    pipeline.process(first, done.append)
    pipeline.process(second, done.append)
    sim.run_until_idle()

    assert done == [first, second]
    assert cpu.jobs_executed == 4
    assert sim.events_processed == 4
    job = tc_from_us(10.0)
    # first: PDCP [0, 1], RLC waits for second's PDCP [1, 2], runs [2, 3]
    assert first.budget[LatencySource.PROCESSING] == 3 * job
    # second: PDCP waits [0, 1], runs [1, 2]; RLC waits [2, 3], runs [3, 4]
    assert second.budget[LatencySource.PROCESSING] == 4 * job
    exits = [(record.time, record.category, record.fields["packet_id"])
             for record in tracer.records(name="exit")]
    assert exits == [
        (job, "test.pdcp", first.packet_id),
        (2 * job, "test.pdcp", second.packet_id),
        (3 * job, "test.rlc", first.packet_id),
        (4 * job, "test.rlc", second.packet_id),
    ]
    assert sim.now == 4 * job
    assert [layer.samples_us for layer in pipeline.layers] \
        == [[10.0, 10.0], [10.0, 10.0]]


def test_dilation_scales_the_sampled_delay(rng):
    sim, tracer = Simulator(), Tracer()
    seen = []

    def dilation(category):
        seen.append((sim.now, category))
        return 2.5

    layer = ProcessingLayer(sim, tracer, "RLC", "test.rlc",
                            Constant(8.0), rng, adds_header=True,
                            dilation=dilation)
    done = []
    layer.process(make_packet(), done.append)
    sim.run_until_idle()

    assert seen == [(0, "test.rlc")]
    assert layer.samples_us == [20.0]
    assert done[0].budget[LatencySource.PROCESSING] == tc_from_us(20.0)
    assert done[0].header_bytes == 3
    assert tracer.last("test.rlc", "exit").fields["delay_us"] == 20.0


def test_pipeline_transit_leaves_no_cyclic_garbage(rng):
    """Reference counting alone frees a finished transit; a closure
    that refers to itself would leave a cycle per packet for the
    collector and raise peak memory."""
    sim, tracer = Simulator(), Tracer(enabled=False)
    pipeline = lognormal_pipeline(sim, tracer, rng)
    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            pipeline.process(make_packet(), lambda p: None)
        sim.run_until_idle()
        assert gc.collect() == 0
    finally:
        gc.enable()
