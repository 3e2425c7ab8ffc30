"""Ablation A11 — MCS choice under a fixed SNR (§6's channel trade-off).

At a fixed operating SNR, an aggressive MCS buys per-block capacity
but pays HARQ retransmissions; a conservative one transmits reliably
first-shot but needs more resources per byte.  The benchmark runs the
DDDU downlink across MCS indices at a mid-cell SNR and shows the
latency/reliability optimum sitting below the capacity-optimal MCS.
"""

import numpy as np
from conftest import uniform_arrivals, write_artifact

from repro.analysis.report import render_table
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel
from repro.phy.link_adaptation import bler_at, select_mcs

SNR_DB = 16.0
MCS_SWEEP = [6, 12, 16, 20, 24]
N_PACKETS = 400
HORIZON_MS = 2_000


def run_sweep():
    results = {}
    for mcs_index in MCS_SWEEP:
        bler = bler_at(mcs_index, SNR_DB)
        system = RanSystem(
            testbed_dddu(),
            RanConfig(access=AccessMode.GRANT_FREE,
                      mcs_index=mcs_index,
                      channel=IidErasureChannel(bler), seed=111))
        probe = system.run_downlink(
            uniform_arrivals(N_PACKETS, HORIZON_MS, seed=112))
        retx = float(np.mean(probe.harq_retx))
        results[mcs_index] = {
            "bler": bler,
            "mean_us": probe.summary().mean_us,
            "p99_us": probe.summary().p99_us,
            "mean_retx": retx,
            "dropped": system.link.counters.packets_dropped,
            "delivered": len(probe),
        }
    return results


def test_ablation_link_adaptation(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    # BLER grows with MCS at fixed SNR; so do retransmissions.
    blers = [results[m]["bler"] for m in MCS_SWEEP]
    assert blers == sorted(blers)
    assert results[24]["mean_retx"] > results[12]["mean_retx"]

    # The link-adaptation pick at this SNR transmits essentially
    # first-shot; the most aggressive MCS pays a visible p99 penalty.
    adapted = select_mcs(SNR_DB, target_bler=1e-3)
    assert adapted in range(6, 25)
    assert results[24]["p99_us"] > results[12]["p99_us"] + 300.0
    assert results[12]["mean_retx"] < 0.01

    rows = [(m, f"{results[m]['bler']:.2e}",
             f"{results[m]['mean_retx']:.3f}",
             f"{results[m]['mean_us']:8.1f}",
             f"{results[m]['p99_us']:8.1f}",
             results[m]["dropped"])
            for m in MCS_SWEEP]
    write_artifact("ablation_link_adaptation", render_table(
        ("MCS", "BLER", "mean retx", "mean µs", "p99 µs", "dropped"),
        rows,
        title=f"MCS sweep at SNR {SNR_DB:g} dB (DDDU DL); "
              f"link adaptation would pick MCS {adapted}"))
