"""Microbenchmarks for the DES hot paths (pytest-benchmark).

Run locally with ``pytest tests/perf --benchmark-only`` (plugin
installed) to get timing tables; in CI the non-blocking perf job uploads
the JSON.  Without the plugin each case runs once as a correctness
smoke (see conftest.py), so the file never breaks the tier-1 job.

Every case asserts its observable outcome too — a benchmark that stops
computing the right thing is worse than a slow one.
"""

import numpy as np

from repro.phy.timebase import tc_from_us
from repro.sim.distributions import LogNormal
from repro.sim.engine import Simulator
from repro.sim.sampling import BufferedSampler
from repro.sim.trace import Tracer

N_EVENTS = 5_000
N_SAMPLES = 5_000
N_EMITS = 5_000
N_PACKETS = 1_000


def test_simulator_schedule_and_run(benchmark):
    def schedule_and_drain():
        sim = Simulator()
        for t in range(N_EVENTS):
            sim.schedule(t, _noop)
        return sim.run()

    assert benchmark(schedule_and_drain) == N_EVENTS


def _noop():
    return None


def test_simulator_call_in_chain(benchmark):
    def chained():
        sim = Simulator()
        remaining = [N_EVENTS]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.call_in(3, tick)

        sim.call_in(3, tick)
        sim.run()
        return sim.events_processed

    assert benchmark(chained) == N_EVENTS


def test_scalar_sampling(benchmark):
    sampler = LogNormal(55.21, 16.31)

    def scalar():
        rng = np.random.default_rng(2)
        return [sampler.sample(rng) for _ in range(N_SAMPLES)]

    values = benchmark(scalar)
    assert len(values) == N_SAMPLES and min(values) > 0


def test_buffered_sampling(benchmark):
    sampler = LogNormal(55.21, 16.31)

    def buffered():
        rng = np.random.default_rng(2)
        wrapped = BufferedSampler(sampler, rng)
        return [wrapped.sample(rng) for _ in range(N_SAMPLES)]

    values = benchmark(buffered)
    assert len(values) == N_SAMPLES and min(values) > 0


def test_tracer_emit_enabled(benchmark):
    def emit_all():
        tracer = Tracer(enabled=True)
        for t in range(N_EMITS):
            tracer.emit(t, "bench.cat", "event", packet_id=t)
        return len(tracer)

    assert benchmark(emit_all) == N_EMITS


def test_tracer_emit_disabled(benchmark):
    def emit_none():
        tracer = Tracer(enabled=False)
        for t in range(N_EMITS):
            # The lazy-fields convention guards call sites like this.
            if tracer.enabled:
                tracer.emit(t, "bench.cat", "event", packet_id=t)
        return len(tracer)

    assert benchmark(emit_none) == 0


def test_layer_pipeline_transit(benchmark):
    """Per-hop cost of the scalar engine's layer transit: a 5-layer
    pipeline, N_PACKETS packets, one engine event and one draw per hop."""
    from repro.mac.types import Direction
    from repro.stack.layers import LayerPipeline, ProcessingLayer
    from repro.stack.packets import LatencySource, Packet, PacketKind

    names = ("SDAP", "PDCP", "RLC", "MAC", "PHY")

    def transit():
        sim = Simulator()
        tracer = Tracer(enabled=False)
        rng = np.random.default_rng(3)
        pipeline = LayerPipeline([
            ProcessingLayer(sim, tracer, name, f"ue1.{name.lower()}",
                            LogNormal(20.0 + i, 5.0), rng,
                            adds_header=name != "PHY")
            for i, name in enumerate(names)])
        done = []
        for i in range(N_PACKETS):
            packet = Packet(PacketKind.DATA, Direction.UL, 32, 0,
                            packet_id=i + 1)
            pipeline.process(packet, done.append)
        sim.run()
        return sim, pipeline, done

    sim, pipeline, done = benchmark(transit)
    assert len(done) == N_PACKETS
    assert sim.events_processed == len(names) * N_PACKETS
    assert all(len(layer.samples_us) == N_PACKETS
               for layer in pipeline.layers)
    # Packets overtake each other between layers, so compare totals:
    # every hop charges exactly its own sampled delay.
    assert sum(packet.budget[LatencySource.PROCESSING]
               for packet in done) == sum(
        tc_from_us(us) for layer in pipeline.layers
        for us in layer.samples_us)
    assert all(packet.header_bytes == 10 for packet in done)


# ---------------------------------------------------------------------------
# slotted-engine slot-batch kernels (repro.sim.slotted)
# ---------------------------------------------------------------------------
def test_population_state_update(benchmark):
    from repro.sim.slotted import UePopulation

    n_ues = 500

    def fill_and_account():
        population = UePopulation(n_ues)
        add = population.add_packet
        for i in range(N_EVENTS):
            add(1 + i % n_ues, i, 32, i * 100)
        # the engine's post-transit accounting pattern: in-place list
        # element updates, one per delivered packet
        bp = population.budget_processing
        delivered = population.delivered_tc
        for row in range(N_EVENTS):
            bp[row] += 1_000
            delivered[row] = row * 100 + 5_000
        return population

    population = benchmark(fill_and_account)
    assert len(population) == N_EVENTS
    assert sum(population.queued) == N_EVENTS


def test_window_entries_batch_vs_scalar(benchmark):
    from repro.mac.catalog import testbed_dddu

    timeline = testbed_dddu().ul_timeline()
    index = timeline.index()
    times = np.arange(N_EVENTS, dtype=np.int64) * 9_973
    min_duration = 2_000

    def batch():
        return index.earliest_entries_joining(times, min_duration)

    entries = benchmark(batch)
    # elementwise identical to the scalar rule on a sample
    step = N_EVENTS // 50
    for i, t in zip(range(0, N_EVENTS, step),
                    times[::step].tolist()):
        assert entries[i] == timeline.earliest_entry_joining(
            t, min_duration)


def test_block_server_vs_scalar_lognormal(benchmark):
    from repro.sim.sampling import LogNormalBlockServer

    mu, sigma = 3.98, 0.29

    def served():
        server = LogNormalBlockServer(np.random.default_rng(6))
        return [server.sample(mu, sigma) for _ in range(N_SAMPLES)]

    values = benchmark(served)
    scalar_rng = np.random.default_rng(6)
    expected = [float(scalar_rng.lognormal(mu, sigma))
                for _ in range(N_SAMPLES)]
    assert values == expected  # bit-identical, not just close
