"""Hot-path smoke tests for the DES core and the slotted engine's state.

Each case drives one hot path at a few thousand operations and asserts
its observable outcome.  Timing is the perf ledger's job
(``benchmarks/perf/run.py``); these are plain correctness tests.
"""

import numpy as np

from repro.sim.distributions import LogNormal
from repro.sim.engine import Simulator
from repro.sim.sampling import BufferedSampler
from repro.sim.trace import Tracer

N_EVENTS = 5_000
N_SAMPLES = 5_000
N_EMITS = 5_000


def _noop():
    return None


def test_simulator_schedule_and_run():
    sim = Simulator()
    for t in range(N_EVENTS):
        sim.schedule(t, _noop)
    assert sim.run() == N_EVENTS


def test_simulator_call_in_chain():
    sim = Simulator()
    remaining = [N_EVENTS]

    def tick():
        remaining[0] -= 1
        if remaining[0]:
            sim.call_in(3, tick)

    sim.call_in(3, tick)
    sim.run()
    assert sim.events_processed == N_EVENTS


def test_scalar_sampling():
    sampler = LogNormal(55.21, 16.31)
    rng = np.random.default_rng(2)
    values = [sampler.sample(rng) for _ in range(N_SAMPLES)]
    assert len(values) == N_SAMPLES and min(values) > 0


def test_buffered_sampling():
    sampler = LogNormal(55.21, 16.31)
    rng = np.random.default_rng(2)
    wrapped = BufferedSampler(sampler, rng)
    values = [wrapped.sample(rng) for _ in range(N_SAMPLES)]
    assert len(values) == N_SAMPLES and min(values) > 0


def test_tracer_emit_enabled():
    tracer = Tracer(enabled=True)
    for t in range(N_EMITS):
        tracer.emit(t, "bench.cat", "event", packet_id=t)
    assert len(tracer) == N_EMITS


def test_tracer_emit_disabled():
    tracer = Tracer(enabled=False)
    for t in range(N_EMITS):
        # The lazy-fields convention guards call sites like this.
        if tracer.enabled:
            tracer.emit(t, "bench.cat", "event", packet_id=t)
    assert len(tracer) == 0


def test_population_state_update():
    from repro.net.probes import LatencyProbe
    from repro.sim.slotted import UePopulation

    n_ues = 500
    population = UePopulation(n_ues)
    add = population.add_packet
    for i in range(N_EVENTS):
        add(1 + i % n_ues, i, 32, i * 100)
    # the engine's delivery pattern: in-place list element updates in
    # transit, then one append per probe column per delivered packet
    bp = population.budget_processing
    probe = LatencyProbe("ul")
    lat_append = probe.latency_tc.append
    proc_append = probe.processing_tc.append
    prot_append = probe.protocol_tc.append
    rad_append = probe.radio_tc.append
    retx_append = probe.harq_retx.append
    ue_append = probe.ue_id.append
    pid_append = probe.packet_id.append
    for row in range(N_EVENTS):
        bp[row] += 1_000
        lat_append(5_000)
        proc_append(bp[row] + 200)
        prot_append(population.budget_protocol[row])
        rad_append(population.budget_radio[row])
        retx_append(population.retx[row])
        ue_append(population.ue[row])
        pid_append(population.packet_id[row])
    assert len(population) == len(probe) == N_EVENTS
    assert sum(population.queued) == N_EVENTS
    assert probe.budget_means_us()["processing"] > 0
