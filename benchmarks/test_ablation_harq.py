"""Ablation A8 — HARQ retransmissions under channel loss.

The paper's related work (Nokia/Sennheiser [33]) reports DL latency
"going higher in steps of 0.5 ms in case of retransmission" — each
HARQ round trip costs the wait for the next transmission opportunity.
The benchmark degrades the channel and checks that (a) latency grows
in opportunity-sized steps (multi-modal distribution), (b) the mean
tracks the expected retransmission count, and (c) reliability decays
toward the HARQ cap.
"""

import numpy as np
from conftest import uniform_arrivals, write_artifact

from repro.analysis.report import render_table
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel

BLER_VALUES = [0.0, 0.1, 0.3]
N_PACKETS = 500
HORIZON_MS = 2_500


def run_sweep():
    results = {}
    for bler in BLER_VALUES:
        channel = IidErasureChannel(bler) if bler else None
        system = RanSystem(
            testbed_dddu(),
            RanConfig(access=AccessMode.GRANT_FREE, channel=channel,
                      seed=81))
        probe = system.run_downlink(
            uniform_arrivals(N_PACKETS, HORIZON_MS, seed=82))
        retx = probe.harq_retx
        results[bler] = {
            "probe": probe,
            "mean_us": probe.summary().mean_us,
            "mean_retx": float(np.mean(retx)),
            "max_retx": max(retx),
            "dropped": system.link.counters.packets_dropped,
        }
    return results


def test_ablation_harq(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    # All packets survive at these BLERs (HARQ cap is 4).
    for bler in BLER_VALUES:
        assert results[bler]["dropped"] == 0
        assert len(results[bler]["probe"]) == N_PACKETS

    # Mean latency and retransmission count grow with BLER.
    means = [results[b]["mean_us"] for b in BLER_VALUES]
    assert means == sorted(means)
    assert results[0.3]["mean_retx"] > results[0.1]["mean_retx"] > 0.0
    assert results[0.0]["mean_retx"] == 0.0

    # Retransmitted packets pay a full feedback round trip: the NACK
    # waits for DDDU's single UL slot per 2 ms pattern (k1 + PUCCH
    # occasion), then the data waits for the next DL window — about
    # one pattern per HARQ round.  [33] reports 0.5 ms steps on a
    # dedicated FDD-like deployment; on DDDU the step is pattern-sized.
    probe = results[0.3]["probe"]
    first_shot = [lat for retx, lat in zip(probe.harq_retx,
                                           probe.latencies_us())
                  if retx == 0]
    retransmitted = [lat for retx, lat in zip(probe.harq_retx,
                                              probe.latencies_us())
                     if retx == 1]
    assert retransmitted, "expected some single-retransmission packets"
    step = float(np.mean(retransmitted)) - float(np.mean(first_shot))
    assert 1_200.0 <= step <= 2_800.0  # ≈ one DDDU pattern

    rows = [(f"{b:g}", f"{results[b]['mean_us']:8.1f}",
             f"{results[b]['mean_retx']:.3f}",
             results[b]["max_retx"])
            for b in BLER_VALUES]
    write_artifact("ablation_harq", render_table(
        ("BLER", "mean DL latency µs", "mean HARQ retx", "max retx"),
        rows,
        title="HARQ retransmission cost (DDDU DL, grant-free)")
        + f"\nlatency step per retransmission ≈ {step:.0f} µs")
