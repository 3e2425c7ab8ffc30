"""Ablation A10 — URLLC/eMBB coexistence (§1's coexistence line of work).

One URLLC UE shares the cell's downlink with three eMBB UEs pushing
large transfers.  Without traffic separation the URLLC packets queue
behind eMBB bursts; strict-priority scheduling restores near-isolated
latency — the mechanism the joint-scheduling papers the paper cites
build on.
"""

from conftest import uniform_arrivals, write_artifact

from repro.analysis.report import render_table
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode
from repro.net.session import RanConfig, RanSystem

URLLC_UE = 1
EMBB_UES = (2, 3, 4)
URLLC_PACKETS = 150
EMBB_PACKETS = 120
EMBB_PAYLOAD = 6_000  # large transfers
HORIZON_MS = 1_200


def run_scenario(prioritise: bool, seed: int):
    priorities = {URLLC_UE: 0}
    for ue_id in EMBB_UES:
        priorities[ue_id] = 1 if prioritise else 0
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=4, seed=seed,
                  ue_priorities=priorities))
    system.queue_downlink(
        uniform_arrivals(URLLC_PACKETS, HORIZON_MS, seed=301),
        payload_bytes=48, ue_id=URLLC_UE)
    for ue_id in EMBB_UES:
        system.queue_downlink(
            uniform_arrivals(EMBB_PACKETS, HORIZON_MS, seed=300 + ue_id),
            payload_bytes=EMBB_PAYLOAD, ue_id=ue_id)
    system.run()
    probe = system.dl_probe
    from repro.net.probes import summarize_us
    latencies = [lat for ue_id, lat in zip(probe.ue_id,
                                           probe.latencies_us())
                 if ue_id == URLLC_UE]
    return summarize_us(latencies)


def run_all():
    return {
        "isolated": run_isolated(),
        "shared, no priority": run_scenario(prioritise=False, seed=97),
        "shared, URLLC priority": run_scenario(prioritise=True, seed=97),
    }


def run_isolated():
    system = RanSystem(testbed_dddu(),
                       RanConfig(access=AccessMode.GRANT_FREE, seed=96))
    probe = system.run_downlink(
        uniform_arrivals(URLLC_PACKETS, HORIZON_MS, seed=301),
        payload_bytes=48)
    return probe.summary()


def test_ablation_embb_coexistence(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    isolated = results["isolated"]
    contended = results["shared, no priority"]
    protected = results["shared, URLLC priority"]

    # eMBB load visibly inflates URLLC tail latency without separation.
    assert contended.p99_us > 1.3 * isolated.p99_us

    # Strict priority recovers most of the isolation.
    assert protected.p99_us < contended.p99_us
    assert protected.p99_us < 1.25 * isolated.p99_us

    rows = [(name, f"{s.mean_us:8.1f}", f"{s.p99_us:8.1f}",
             f"{s.max_us:8.1f}")
            for name, s in results.items()]
    write_artifact("ablation_embb_coexistence", render_table(
        ("scenario", "URLLC mean µs", "URLLC p99 µs", "URLLC max µs"),
        rows,
        title="URLLC DL latency under eMBB load (DDDU, 3 eMBB UEs)"))
