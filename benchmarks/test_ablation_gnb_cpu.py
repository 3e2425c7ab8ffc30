"""Ablation A7 — gNB processing contention across UEs (§7).

Paper: "higher number of UEs might increase the processing times
noticeably."  The benchmark pins the gNB stack to one core, grows the
UE population at a fixed per-UE uplink rate (the uplink path costs the
gNB PHY+MAC+RLC+PDCP+SDAP ≈ 114 µs per packet, and whole transport
blocks arrive at once at each window end), and measures the observed
per-packet gNB processing (service + core queueing) and the end-to-end
latency.
"""

import numpy as np
from conftest import uniform_arrivals, write_artifact

from repro.analysis.report import render_table
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.timebase import us_from_tc

UE_COUNTS = [1, 8, 32]
PACKETS_PER_UE = 120
HORIZON_MS = 600


def run_sweep():
    results = {}
    for n_ues in UE_COUNTS:
        system = RanSystem(
            testbed_dddu(),
            RanConfig(access=AccessMode.GRANT_FREE, n_ues=n_ues,
                      gnb_cpu_cores=1, seed=70 + n_ues, trace=True))
        for ue_id in range(1, n_ues + 1):
            system.queue_uplink(
                uniform_arrivals(PACKETS_PER_UE, HORIZON_MS,
                                 seed=200 + ue_id),
                ue_id=ue_id)
        system.run()
        # Isolate the gNB-side processing: subtract the UE-side stack
        # (identical distribution across sweeps) by measuring only the
        # gNB pipeline's span per packet, from its first PHY entry to
        # its first SDAP exit in the trace (tracing draws nothing).
        enters: dict[int, int] = {}
        exits: dict[int, int] = {}
        for record in system.tracer.records("gnb.up.phy", "enter"):
            enters.setdefault(record.fields["packet_id"], record.time)
        for record in system.tracer.records("gnb.up.sdap", "exit"):
            exits.setdefault(record.fields["packet_id"], record.time)
        spans_us = [us_from_tc(exits[pid] - enters[pid])
                    for pid in system.ul_probe.packet_id
                    if pid in enters and pid in exits]
        results[n_ues] = {
            "delivered": len(system.ul_probe),
            "gnb_processing_us": float(np.mean(spans_us)),
            "queueing_us": system.gnb_cpu.mean_queueing_us(),
            "latency_us": system.ul_probe.summary().mean_us,
        }
    return results


def test_ablation_gnb_cpu(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    for n_ues in UE_COUNTS:
        assert results[n_ues]["delivered"] == n_ues * PACKETS_PER_UE

    # Observed gNB processing grows with the UE count — noticeably so
    # at 32 UEs on one core (§7).
    spans = [results[n]["gnb_processing_us"] for n in UE_COUNTS]
    assert spans == sorted(spans)
    assert spans[-1] > 1.5 * spans[0]
    assert results[32]["queueing_us"] > results[1]["queueing_us"]

    rows = [(n, f"{results[n]['gnb_processing_us']:8.1f}",
             f"{results[n]['queueing_us']:8.1f}",
             f"{results[n]['latency_us']:8.1f}")
            for n in UE_COUNTS]
    write_artifact("ablation_gnb_cpu", render_table(
        ("UEs", "gNB stack span µs", "mean core wait µs",
         "mean UL latency µs"), rows,
        title="gNB processing under contention (1 core, DDDU UL)"))
