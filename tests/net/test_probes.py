"""Unit tests for latency probes."""

import pytest

from repro.mac.types import Direction
from repro.net.probes import LatencyProbe, summarize_us
from repro.phy.timebase import tc_from_us, us_from_tc
from repro.stack.packets import LatencySource, Packet, PacketKind


def delivered_packet(latency_us, source=LatencySource.PROTOCOL):
    packet = Packet(PacketKind.DATA, Direction.DL, 32, created_tc=0)
    packet.charge(source, tc_from_us(latency_us))
    packet.mark_delivered(tc_from_us(latency_us))
    return packet


def test_probe_records_only_delivered():
    probe = LatencyProbe()
    with pytest.raises(ValueError):
        probe.record(Packet(PacketKind.DATA, Direction.DL, 32,
                            created_tc=0))
    probe.record(delivered_packet(100.0))
    assert len(probe) == 1


def test_latency_units():
    probe = LatencyProbe()
    probe.record(delivered_packet(1500.0))
    assert probe.latencies_us()[0] == pytest.approx(1500.0, abs=0.01)
    assert probe.latencies_ms()[0] == pytest.approx(1.5, abs=1e-5)


def test_summary_statistics():
    probe = LatencyProbe()
    for latency in (100.0, 200.0, 300.0):
        probe.record(delivered_packet(latency))
    summary = probe.summary()
    assert summary.count == 3
    assert summary.mean_us == pytest.approx(200.0, abs=0.01)
    assert summary.min_us == pytest.approx(100.0, abs=0.01)
    assert summary.max_us == pytest.approx(300.0, abs=0.01)
    assert summary.p50_us == pytest.approx(200.0, abs=0.01)
    assert "n=3" in str(summary)


def test_summarize_requires_samples():
    with pytest.raises(ValueError):
        summarize_us([])


def test_single_sample_summary_has_zero_std():
    assert summarize_us([5.0]).std_us == 0.0


def test_budget_means():
    probe = LatencyProbe()
    probe.record(delivered_packet(100.0, LatencySource.RADIO))
    probe.record(delivered_packet(300.0, LatencySource.RADIO))
    means = probe.budget_means_us()
    assert means["radio"] == pytest.approx(200.0, abs=0.01)
    assert means["protocol"] == 0.0


def test_budget_means_empty_probe():
    assert LatencyProbe().budget_means_us() == {
        "processing": 0.0, "protocol": 0.0, "radio": 0.0}


def test_fraction_within():
    probe = LatencyProbe()
    for latency in (100.0, 400.0, 900.0, 1600.0):
        probe.record(delivered_packet(latency))
    assert probe.fraction_within(500.0) == pytest.approx(0.5)
    assert LatencyProbe().fraction_within(500.0) == 0.0


def test_empty_probe_edge_cases():
    probe = LatencyProbe()
    assert len(probe) == 0
    assert probe.latencies_tc() == []
    assert probe.fraction_within(1e9) == 0.0
    assert set(probe.budget_means_us().values()) == {0.0}
    with pytest.raises(ValueError):
        probe.summary()


def _hand_built_probe():
    """Three deliveries with hand-picked Tc budgets."""
    deliveries = [
        # (created, delivered, (processing, protocol, radio), retx)
        (0, 150_000, (50_000, 60_000, 40_000), 0),
        (10_000, 400_123, (100_000, 200_123, 90_000), 2),
        (20_000, 90_021, (20_021, 30_000, 20_000), 1),
    ]
    probe = LatencyProbe("ul")
    for i, (created, delivered, budgets, retx) in enumerate(deliveries):
        packet = Packet(PacketKind.DATA, Direction.UL, 32,
                        created_tc=created, ue_id=3 - i,
                        packet_id=10 + i)
        for source, ticks in zip(LatencySource, budgets):
            packet.charge(source, ticks)
        packet.harq_retransmissions = retx
        packet.mark_delivered(delivered)
        probe.record(packet)
    return probe


def test_record_fills_every_column_in_delivery_order():
    probe = _hand_built_probe()
    assert list(probe.latency_tc) == [150_000, 390_123, 70_021]
    assert list(probe.processing_tc) == [50_000, 100_000, 20_021]
    assert list(probe.protocol_tc) == [60_000, 200_123, 30_000]
    assert list(probe.radio_tc) == [40_000, 90_000, 20_000]
    assert list(probe.harq_retx) == [0, 2, 1]
    assert list(probe.ue_id) == [3, 2, 1]
    assert list(probe.packet_id) == [10, 11, 12]


def test_summary_and_budget_means_from_integer_sums():
    probe = _hand_built_probe()
    latencies_us = [us_from_tc(150_000), us_from_tc(390_123),
                    us_from_tc(70_021)]
    assert probe.latencies_us() == latencies_us
    assert probe.latencies_ms() == [lat / 1000.0 for lat in latencies_us]
    assert probe.summary() == summarize_us(latencies_us)
    # Column sums by hand: 170_021 + 290_123 + 150_000 = 610_144, the
    # sum of the three latencies.
    assert probe.budget_means_us() == {
        "processing": us_from_tc(170_021 / 3),
        "protocol": us_from_tc(290_123 / 3),
        "radio": us_from_tc(150_000 / 3),
    }
    # latencies ≈ 76.3, 198.4 and 35.6 µs
    assert probe.fraction_within(0.0) == 0.0
    assert probe.fraction_within(60.0) == 1 / 3
    assert probe.fraction_within(500.0) == 1.0
