"""Fixture: mixed time-unit arithmetic (the units family)."""

__all__ = ["total_latency", "deadline_missed"]


def total_latency(queueing_tc: int, margin_us: float) -> float:
    return queueing_tc + margin_us  # violation: _tc + _us


def deadline_missed(elapsed_tc: int, deadline_ms: float) -> bool:
    return elapsed_tc > deadline_ms  # violation: compares _tc to _ms
