"""Unit tests for CSV export."""

import csv

import pytest

from repro.analysis.export import (
    export_histogram,
    export_probe,
    export_series,
)
from repro.analysis.stats import histogram
from repro.mac.catalog import testbed_dddu
from repro.mac.types import AccessMode, Direction
from repro.net.probes import LatencyProbe
from repro.net.session import RanConfig, RanSystem
from repro.phy.channel import IidErasureChannel
from repro.phy.timebase import tc_from_ms, tc_from_us
from repro.sim.rng import RngRegistry
from repro.traffic.generators import uniform_in_horizon
from repro.stack.packets import LatencySource, Packet, PacketKind


def make_probe(n=3):
    probe = LatencyProbe()
    for i in range(n):
        packet = Packet(PacketKind.DATA, Direction.DL, 32, created_tc=0)
        packet.charge(LatencySource.PROTOCOL, tc_from_us(100.0 * (i + 1)))
        packet.mark_delivered(tc_from_us(100.0 * (i + 1)))
        probe.record(packet)
    return probe


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def test_export_probe_rows(tmp_path):
    probe = make_probe(3)
    path = tmp_path / "probe.csv"
    assert export_probe(probe, path) == 3
    rows = read_csv(path)
    assert rows[0] == ["packet_id", "ue_id", "latency_us", "protocol_us",
                       "processing_us", "radio_us", "harq_retransmissions"]
    assert len(rows) == 4
    latency = float(rows[1][2])
    assert latency == pytest.approx(100.0, abs=0.01)
    protocol = float(rows[1][3])
    assert protocol == pytest.approx(100.0, abs=0.01)


def test_export_probe_decomposition_columns(tmp_path):
    path = tmp_path / "probe.csv"
    export_probe(make_probe(1), path)
    header = read_csv(path)[0]
    for column in ("protocol_us", "processing_us", "radio_us"):
        assert column in header


def _uplink_export(engine, path):
    system = RanSystem(
        testbed_dddu(),
        RanConfig(access=AccessMode.GRANT_FREE, n_ues=3, seed=5,
                  channel=IidErasureChannel(0.2), engine=engine))
    rngs = RngRegistry(6)
    for ue_id in (1, 2, 3):
        system.queue_uplink(
            uniform_in_horizon(8, tc_from_ms(30),
                               rngs.stream(f"arrivals.ue{ue_id}")),
            ue_id=ue_id)
    system.run()
    assert system.engine_mode == engine
    return export_probe(system.ul_probe, path)


def test_export_probe_is_engine_independent(tmp_path):
    scalar, slotted = tmp_path / "scalar.csv", tmp_path / "slotted.csv"
    assert _uplink_export("scalar", scalar) == 24
    assert _uplink_export("slotted", slotted) == 24
    assert scalar.read_bytes() == slotted.read_bytes()
    # the lossy channel retransmitted some packets
    assert any(row[-1] != "0" for row in read_csv(scalar)[1:])


def test_export_histogram(tmp_path):
    hist = histogram([0.5, 1.5, 1.6], bin_width=1.0, low=0.0, high=2.0)
    path = tmp_path / "hist.csv"
    assert export_histogram(hist, path, x_label="latency_ms") == 2
    rows = read_csv(path)
    assert rows[0] == ["latency_ms", "probability"]
    assert float(rows[2][1]) == pytest.approx(2 / 3, rel=1e-6)


def test_export_series_long_form(tmp_path):
    series = {2000: [150.0, 151.0], 4000: [160.0]}
    path = tmp_path / "series.csv"
    assert export_series(series, path, "samples", "latency_us") == 3
    rows = read_csv(path)
    assert rows[0] == ["samples", "latency_us"]
    assert rows[1] == ["2000", "150"]
