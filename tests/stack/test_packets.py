"""Unit tests for the packet model."""

import pytest

from repro.mac.types import Direction
from repro.stack.packets import (
    HEADER_BYTES,
    LatencySource,
    Packet,
    PacketKind,
)


def make_packet(**kwargs):
    defaults = dict(kind=PacketKind.DATA, direction=Direction.UL,
                    payload_bytes=100, created_tc=1000)
    defaults.update(kwargs)
    return Packet(**defaults)


def test_packet_ids_are_unique():
    assert make_packet().packet_id != make_packet().packet_id


def test_validation():
    with pytest.raises(ValueError):
        make_packet(payload_bytes=0)
    with pytest.raises(ValueError):
        make_packet(created_tc=-1)


def test_header_accounting():
    packet = make_packet()
    packet.add_header("PDCP")
    packet.add_header("RLC")
    assert packet.header_bytes == HEADER_BYTES["PDCP"] + HEADER_BYTES["RLC"]
    assert packet.wire_bytes == 100 + packet.header_bytes
    assert packet.wire_bits == 8 * packet.wire_bytes


def test_unknown_header_rejected():
    with pytest.raises(ValueError):
        make_packet().add_header("NOPE")


def test_stamp_keeps_first_occurrence():
    packet = make_packet()
    packet.stamp("stage", 5)
    packet.stamp("stage", 9)
    assert packet.timestamps["stage"] == 5


def test_budget_charging():
    packet = make_packet()
    packet.charge(LatencySource.PROTOCOL, 10)
    packet.charge(LatencySource.PROTOCOL, 5)
    packet.charge(LatencySource.RADIO, 3)
    assert packet.budget[LatencySource.PROTOCOL] == 15
    assert packet.budget[LatencySource.RADIO] == 3
    with pytest.raises(ValueError):
        packet.charge(LatencySource.RADIO, -1)


def test_latency_is_set_by_delivery():
    packet = make_packet(created_tc=100)
    assert packet.latency_tc is None
    packet.mark_delivered(200)
    assert packet.latency_tc == 100


def test_drop_marking():
    packet = make_packet()
    packet.mark_dropped("harq-exhausted")
    assert packet.dropped
    assert packet.drop_reason == "harq-exhausted"


def test_gtpu_header_is_largest():
    assert HEADER_BYTES["GTP-U"] == max(HEADER_BYTES.values())
